"""Monte-Carlo construction of the sampled cyclotomic ideals at level
(m, N): accumulate the chi-projections of the reciprocity values of the
derivative class kappa(n) over well-ordered auxiliary products n with at most
i factors.  chi is the quadratic character of K, so the projection
(groupring.chi_project) takes the sign of the K-coordinate of Delta.

Only the class of the basic unit at the full conductor (d = f_K) is drawn.
The unit at a proper divisor d | f_K, and the a-type unit, lie in a field
that does not contain K (chi_D has conductor f_K), so the generator of the
K-coordinate, on which chi is -1, fixes them and their chi-projection is zero
(character orthogonality): drawing them would only pad the stall window.

The well-ordered chains of auxiliary primes (KolyvaginPrime tuples, as
kolyvagin_primes yields them) wait in one round-robin queue, shortest first;
each step draws one evaluation prime for the chain at the front and puts it
back at the end, and a chain over the derivative cap is dropped.

Every accumulated generator is a genuine element of the target ideal, so the
run is always a sound lower bound; stabilization (or reaching the unit
ideal) is the stopping rule, and comparison with the oracle Fitting ideal is
done by the caller.  A sample escaping the oracle Fitting ideal is a hard
BUG signal, never tolerated.
"""

from __future__ import annotations

import math
import random
from collections import deque

from .arith import val_p
from .config import DEFAULT_SAMPLE_BUDGET, DEFAULT_STABILIZATION_WINDOW
from .errors import BudgetExceeded, BudgetExhausted, NegativeArgument
from .fields import AbelianFieldCtx, evaluation_primes, kolyvagin_primes
from .groupring import IdealNF, chi_project, ideal_join, ideal_normal_form
from .units import derivative_class, evaluate_kappa


class Sample:
    """One evaluated derivative class; its report entry is vars()."""

    def __init__(self, epsilon: int, n: int, factors: tuple[int, ...], kind: str,
                 param: int, q: int, vector: tuple[int, ...],
                 chi_vector: tuple[int, ...], valuation: int, in_fitting: bool | None):
        self.epsilon = epsilon
        self.n = n
        self.factors = factors
        self.kind = kind
        self.param = param
        self.q = q
        self.vector = vector
        self.chi_vector = chi_vector
        self.valuation = valuation
        self.in_fitting = in_fitting


class CycIdealRun:
    """The sampler's state for one index i; samples=None starts a new list."""

    def __init__(self, p: int, D: int, m: int, N: int, i: int, seed: int, ideal: IdealNF,
                 samples: list[Sample] | None = None, stall: int = 0, status: str = "OK"):
        self.p = p
        self.D = D
        self.m = m
        self.N = N
        self.i = i
        self.seed = seed
        self.ideal = ideal
        self.samples = [] if samples is None else samples
        self.stall = stall
        self.status = status  # OK | PARTIAL | BUG

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
            "samples": [dict(vars(s)) for s in self.samples],
        }


def stabilized(run: CycIdealRun, window: int = DEFAULT_STABILIZATION_WINDOW) -> bool:
    """True once the last `window` samples did not enlarge the ideal (a unit
    ideal cannot grow, so it is stable immediately)."""
    if run.ideal.is_unit_ideal():
        return True
    if not run.samples:
        return False
    return run.stall >= window


# Auxiliary primes kept per chain prefix: the first ones kolyvagin_primes
# yields, in increasing order.
_PER_LEVEL = 6


def _preferred_chains(ctx: AbelianFieldCtx, i: int) -> list:
    """Well-ordered chains (kp_1, ..., kp_r) of KolyvaginPrime with r <= i,
    breadth-first: each prefix is extended by the _PER_LEVEL smallest
    auxiliary primes that kolyvagin_primes yields for it (l = 1 mod p^N times
    the prefix product, so no factor repeats), fewer when the search runs out
    of candidates or the next prime exceeds the field budget.  The order
    depends on the field alone, never on the class group."""
    chains = [()]
    for prefix in chains:  # the list grows while it is walked: breadth first
        if len(prefix) == i:
            continue
        gen = kolyvagin_primes(ctx, extra_modulus=math.prod(kp.ell for kp in prefix))
        for _ in range(_PER_LEVEL):
            try:
                chains.append(prefix + (next(gen),))
            except (BudgetExhausted, BudgetExceeded):
                break
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
) -> CycIdealRun:
    """Sample the i-th cyclotomic ideal at level (m, N).

    Keeps one round-robin queue of well-ordered chains with epsilon(n) <= i,
    shortest first so no branch starves.  Each step pops a chain, draws its
    next evaluation prime in ascending order, and pushes the chain back; a
    sample outside the ideal joins its normal form, one inside it (tested on
    the ideal's Howell rows) only counts towards the stall.  A chain whose
    derivative expansion exceeds the cap is dropped.  Deterministic for
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
        ideal=base_run.ideal if base_run else IdealNF(ctx.ring.chi_quotient, ()),
        samples=list(base_run.samples) if base_run else [],
    )
    if base_run and base_run.status == "BUG":  # pragma: no cover
        run.status = "BUG"
        return run
    if stabilized(run, window):
        # inherited ideal is already saturated (unit ideal): nothing to sample
        return run
    chains = _preferred_chains(ctx, i)
    rng = random.Random(seed)
    rng.shuffle(chains)
    # breadth-first bias: cheap low-epsilon chains first, then interleave
    chains.sort(key=len)
    # (chain, evaluation primes, derivative class), the last two built on first visit
    queue = deque((chain, None, None) for chain in chains)
    taken = 0
    while queue and taken < budget and not stabilized(run, window):
        chain, qs, cls = queue.popleft()
        if cls is None:
            cls = derivative_class(ctx, "d", ctx.f_K, chain)
            qs = evaluation_primes(ctx, cls.n)
        q = next(qs)
        try:
            vec = evaluate_kappa(ctx, cls, q)
        except BudgetExhausted:
            continue
        queue.append((chain, qs, cls))
        proj = chi_project(vec)
        chi_vector = proj.vector()
        in_fitt = None
        if oracle_fitting is not None:
            in_fitt = oracle_fitting.contains_vector(chi_vector)
        run.samples.append(Sample(
            epsilon=len(chain),
            n=cls.n,
            factors=cls.aux,
            kind="d",
            param=ctx.f_K,
            q=q,
            vector=vec.vector(),
            chi_vector=chi_vector,
            valuation=min((val_p(c, ctx.p, ctx.N) for c in chi_vector), default=ctx.N),
            in_fitting=in_fitt,
        ))
        taken += 1
        if in_fitt is False:
            run.status = "BUG"
            return run
        # x in I exactly when (x) + I = I: a sample already in the ideal
        # stalls without a normal form of its own
        if run.ideal.contains_vector(chi_vector):
            run.stall += 1
        else:
            run.ideal = ideal_join(run.ideal, ideal_normal_form([proj], ctx.ring.chi_quotient))
            run.stall = 0
    if not stabilized(run, window) and run.status == "OK":
        run.status = "PARTIAL"
    return run
