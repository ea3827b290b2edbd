"""Monte-Carlo construction of the sampled cyclotomic ideals at level
(m, N): accumulate chi-projected reciprocity values of derivative classes
over well-ordered auxiliary products with at most i factors.

Every accumulated generator is a genuine element of the target ideal, so the
run is always a sound lower bound; stabilization (or reaching the unit
ideal) is the stopping rule, and comparison with the oracle Fitting ideal is
done by the caller.  A sample escaping the oracle Fitting ideal is a hard
BUG signal, never tolerated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .arith import factorint, val_p
from .classgroup import ideal_class_of_prime
from .config import DEFAULT_SAMPLE_BUDGET, DEFAULT_STABILIZATION_WINDOW
from .errors import BudgetExhausted, NegativeArgument
from .fields import AbelianFieldCtx, chain_primes, evaluation_primes, kolyvagin_primes
from .groupring import IdealNF, chi_project, ideal_join, ideal_normal_form
from .units import derivative_class, evaluate_kappa


@dataclass(frozen=True)
class Sample:
    epsilon: int
    n: int
    factors: tuple[int, ...]
    kind: str
    param: int
    q: int
    vector: tuple[int, ...]
    chi_vector: tuple[int, ...]
    valuation: int
    in_fitting: bool | None


@dataclass
class CycIdealRun:
    p: int
    D: int
    m: int
    N: int
    i: int
    seed: int
    ideal: IdealNF
    samples: list[Sample] = field(default_factory=list)
    stall: int = 0
    status: str = "OK"  # OK | PARTIAL | BUG

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "D": self.D,
            "m": self.m,
            "N": self.N,
            "i": self.i,
            "seed": self.seed,
            "status": self.status,
            "stall": self.stall,
            "ideal_rows": [list(r) for r in self.ideal.rows],
            "ideal_valuation": (
                self.ideal.principal_valuation() if self.ideal.ring.group.order == 1 else None
            ),
            "samples": [
                {
                    "epsilon": s.epsilon,
                    "n": s.n,
                    "factors": list(s.factors),
                    "kind": s.kind,
                    "param": s.param,
                    "q": s.q,
                    "vector": list(s.vector),
                    "chi_vector": list(s.chi_vector),
                    "valuation": s.valuation,
                    "in_fitting": s.in_fitting,
                }
                for s in self.samples
            ],
        }


def stabilized(run: CycIdealRun, window: int = DEFAULT_STABILIZATION_WINDOW) -> bool:
    """True once the last `window` samples did not enlarge the ideal (a unit
    ideal cannot grow, so it is stable immediately)."""
    if run.ideal.is_unit_ideal():
        return True
    if not run.samples:
        return False
    return run.stall >= window


def _divisor_generators(ctx: AbelianFieldCtx):
    """Basic-unit generator list: every divisor d > 1 of the conductor (the
    full conductor first: it carries the chi-component for quadratic K) plus
    the a-type unit a = 2 (prime to the odd p)."""
    divs = [1]
    for r, e in factorint(ctx.f_K).items():
        divs = [x * r**i for x in divs for i in range(e + 1)]
    return [("d", d) for d in sorted(divs, reverse=True)[:-1]] + [("a", 2)]


# Auxiliary primes kept per chain prefix, out of _SCAN_WIDTH candidates.
_PER_LEVEL = 3
_SCAN_WIDTH = 12


def _preferred_chains(ctx: AbelianFieldCtx, i: int, oracle_group=None) -> list:
    """Well-ordered chains (l_1, ..., l_r) with r <= i, breadth-first,
    preferring auxiliary primes whose ideal class has nontrivial p-part.

    The unit-realizing derivative classes use auxiliary primes linked to
    class-group generators, so branch order matters enormously in practice;
    primes with trivial class come last (but are still explored).
    kolyvagin_primes yields only odd primes split in K and prime to D, which
    ideal_class_of_prime accepts."""

    def class_is_p_nontrivial(ell: int) -> bool:
        if oracle_group is None:
            return False
        c = ideal_class_of_prime(ell, ctx.D, oracle_group)
        return oracle_group.element_order(c) % ctx.p == 0

    chains = [()]
    frontier = [()]
    for _eps in range(1, i + 1):
        next_frontier = []
        for prefix in frontier:
            gen = kolyvagin_primes(ctx, extra_modulus=math.prod(prefix))
            cands = []
            for _ in range(_SCAN_WIDTH):
                try:
                    kp = next(gen)
                except BudgetExhausted:
                    break
                if kp.ell not in prefix:
                    cands.append(kp.ell)
            cands.sort(key=lambda ell: (not class_is_p_nontrivial(ell), ell))
            for ell in cands[:_PER_LEVEL]:
                chain = prefix + (ell,)
                chains.append(chain)
                next_frontier.append(chain)
        frontier = next_frontier
    return chains


def sample_cyclotomic_ideal(
    ctx: AbelianFieldCtx,
    i: int,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
    window: int = DEFAULT_STABILIZATION_WINDOW,
    *,
    oracle_fitting: IdealNF | None = None,
    base_run: CycIdealRun | None = None,
    oracle_group=None,
) -> CycIdealRun:
    """Sample the i-th cyclotomic ideal at level (m, N).

    Interleaves well-ordered auxiliary products with epsilon(n) <= i (breadth
    first over chain length so no branch starves), draws evaluation primes in
    ascending order per product, and joins normal forms.  Deterministic for
    fixed (ctx, i, budget, seed).  base_run (a run at a smaller i) seeds the
    ideal and provenance, making monotonicity structural.
    """
    if i < 0:
        raise NegativeArgument(f"the ideal index i = {i} must be >= 0")
    for name, value in (("sample budget", budget), ("stabilization window", window)):
        if value < 0:
            raise NegativeArgument(f"the {name} = {value} must be >= 0")
    run = CycIdealRun(
        p=ctx.p, D=ctx.D, m=ctx.m, N=ctx.N, i=i, seed=seed,
        ideal=base_run.ideal if base_run else IdealNF(ctx.chi_ring, ()),
        samples=list(base_run.samples) if base_run else [],
    )
    if base_run and base_run.status == "BUG":  # pragma: no cover
        run.status = "BUG"
        return run
    if stabilized(run, window):
        # inherited ideal is already saturated (unit ideal): nothing to sample
        return run
    chains = _preferred_chains(ctx, i, oracle_group=oracle_group)
    pairs = []
    for chain in chains:
        for kind, param in _divisor_generators(ctx):
            pairs.append((chain, kind, param))
    rng = random.Random(seed)
    rng.shuffle(pairs)
    # breadth-first bias: cheap low-epsilon pairs first, then interleave
    pairs.sort(key=lambda t: len(t[0]))
    streams = {}
    kp_cache = {}
    pruned: set = set()
    taken = 0
    while taken < budget and not stabilized(run, window):
        progressed = False
        for chain, kind, param in pairs:
            if taken >= budget or stabilized(run, window):
                break
            if chain in pruned:
                continue
            if chain not in streams:
                streams[chain] = evaluation_primes(ctx, math.prod(chain))
                kp_cache[chain] = chain_primes(ctx, chain)
            q = next(streams[chain])
            cls = derivative_class(ctx, kind, param, kp_cache[chain])
            try:
                vec = evaluate_kappa(ctx, cls, q)
            except BudgetExhausted:
                pruned.add(chain)
                continue
            proj = chi_project(vec, ctx.chi)
            gen_nf = ideal_normal_form([proj], ctx.chi_ring)
            new_ideal = ideal_join(run.ideal, gen_nf)
            in_fitt = None
            if oracle_fitting is not None:
                in_fitt = oracle_fitting.contains_vector(proj.vector())
            sample = Sample(
                epsilon=len(chain),
                n=math.prod(chain),
                factors=chain,
                kind=kind,
                param=param,
                q=q,
                vector=vec.vector(),
                chi_vector=proj.vector(),
                valuation=min(
                    (val_p(c, ctx.p, ctx.N) for c in proj.vector()), default=ctx.N
                ),
                in_fitting=in_fitt,
            )
            run.samples.append(sample)
            taken += 1
            progressed = True
            if in_fitt is False:
                run.status = "BUG"
                return run
            if new_ideal == run.ideal:
                run.stall += 1
            else:
                run.ideal = new_ideal
                run.stall = 0
        if not progressed:  # pragma: no cover - pairs is never empty
            break
    if not stabilized(run, window) and run.status == "OK":
        run.status = "PARTIAL"
    return run

