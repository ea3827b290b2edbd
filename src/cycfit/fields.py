"""Field metadata for the real abelian base field and its first cyclotomic
layer: conductor data, the Galois group with its quadratic character, prime
splitting by residue classes, auxiliary-prime search and the well-ordered
chain condition.

All splitting conditions are pure congruence + Kronecker-symbol tests (valid
because the fields are abelian of known conductor); no ideal factorization.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import count

from .arith import is_prime, kronecker, make_field, proven_prime, sqrt_mod_prime, val_p
from .config import DEFAULT_CONVENTIONS, DEFAULT_PRIME_SEARCH_BUDGET, Conventions
from .errors import (BudgetExhausted, ConductorClash, InsufficientPrecision, NotFundamental,
                     NotPrime, NotSplit, NotWellOrdered, Ramified, SplitP)
from .groupring import FiniteAbelianGroup, GroupRing
from .classgroup import is_fundamental_discriminant


class AbelianFieldCtx:
    """Context for K real quadratic of fundamental discriminant D > 0.

    F_m is the maximal totally real subfield of K(mu_{p^{m+1}}); for p = 3 and
    m = 0 this is K itself.  Delta = Gal(F_0/Q) is Z/2 for p = 3 and
    Z/2 x Z/((p-1)/2) for p > 3 (the second factor from the real cyclotomic
    subfield).  The K-coordinate Z/2 comes first, so chi, the quadratic
    character of K, is the sign of that coordinate (groupring.chi_project).
    """

    def __init__(self, p: int, D: int, m: int = 0, N: int = 0,
                 conventions: Conventions = DEFAULT_CONVENTIONS):
        self.p = p
        self.D = D
        self.m = m
        self.N = N
        self.conventions = conventions
        if self.p < 3 or not is_prime(self.p):
            raise NotPrime(f"p = {self.p} must be an odd prime")
        if not is_fundamental_discriminant(self.D):
            raise NotFundamental(f"D = {self.D} is not a positive fundamental discriminant")
        if self.N < max(1, self.m + 1):
            raise InsufficientPrecision(f"need N >= max(1, m+1), got N = {self.N}")
        if self.D % self.p == 0:
            raise Ramified(f"p = {self.p} ramifies in K (p | D = {self.D})")
        if kronecker(self.D, self.p) == 1:
            raise SplitP(f"chi(p) = 1 for p = {self.p}, D = {self.D}")

    @property
    def f_K(self) -> int:
        return self.D

    @property
    def delta_divisors(self) -> tuple[int, ...]:
        if self.p == 3:
            return (2,)
        return (2, (self.p - 1) // 2)

    @cached_property
    def group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(self.delta_divisors, self.p**self.m)

    @cached_property
    def ring(self) -> GroupRing:
        """R_{m,N} = Z/p^N[Gal(F_m/Q)]."""
        return GroupRing(self.group, self.p, self.N)

    def chi_d(self, t: int) -> int:
        """The quadratic character mod the conductor, chi_D = (D|.)."""
        return kronecker(self.D, t)

    def splits_in_K(self, ell: int) -> bool:
        return self.chi_d(ell) == 1


class KolyvaginPrime:
    """An auxiliary prime with its tame data: N_ell = ord_p(ell - 1) and the
    distinguished primitive root s_ell (the canonical generator of F_ell^x,
    flipped to its inverse under the rejected convention).  Primes with equal
    data are equal and hash alike."""

    def __init__(self, ell: int, p: int, N_ell: int, s_ell: int):
        self.ell = ell
        self.p = p
        self.N_ell = N_ell
        self.s_ell = s_ell

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ell, self.p, self.N_ell, self.s_ell)
                == (other.ell, other.p, other.N_ell, other.s_ell))

    def __hash__(self):
        return hash((self.ell, self.p, self.N_ell, self.s_ell))

    @staticmethod
    def build(ell: int, p: int, flip_sigma: bool = False) -> "KolyvaginPrime":
        if not proven_prime(ell):
            raise ValueError(f"{ell} is not prime")
        n_ell = val_p(ell - 1, p, 64)
        if n_ell < 1:
            raise ValueError(f"{ell} is not 1 mod {p}")
        g = make_field(ell).g
        s = pow(g, -1, ell) if flip_sigma else g
        return KolyvaginPrime(ell=ell, p=p, N_ell=n_ell, s_ell=s)


def is_well_ordered(p: int, N: int, factors) -> bool:
    """Pure congruence form of the chain condition (no splitting checks)."""
    factors = tuple(factors)
    if len(set(factors)) != len(factors):
        return False
    modulus = p**N
    for i, ell in enumerate(factors):
        if ell % modulus != 1:
            return False
        modulus *= ell
    return True


def chain_primes(ctx: AbelianFieldCtx, chain) -> tuple[KolyvaginPrime, ...]:
    """The auxiliary primes of a chain, checked as kolyvagin_primes yields
    them: each factor prime (NotPrime), the chain well ordered at level N
    (NotWellOrdered), each factor prime to D (Ramified) and split in K
    (NotSplit)."""
    chain = tuple(chain)
    for ell in chain:
        if not is_prime(ell):
            raise NotPrime(f"chain factor {ell} is not prime")
    if not is_well_ordered(ctx.p, ctx.N, chain):
        raise NotWellOrdered(f"{chain} violates the chain congruences at level {ctx.N}")
    for ell in chain:
        if ctx.D % ell == 0:
            raise Ramified(f"chain factor {ell} ramifies in K ({ell} | D = {ctx.D})")
        if not ctx.splits_in_K(ell):
            raise NotSplit(f"chain factor {ell} does not split in K")
    return tuple(KolyvaginPrime.build(ell, ctx.p, ctx.conventions.flip_sigma) for ell in chain)


def build_field(p: int, d: int, m: int, N: int,
                conventions: Conventions = DEFAULT_CONVENTIONS) -> AbelianFieldCtx:
    """Validated field context (errors: NotPrime, NotFundamental,
    InsufficientPrecision, Ramified, SplitP)."""
    return AbelianFieldCtx(p=p, D=d, m=m, N=N, conventions=conventions)


def kolyvagin_primes(ctx: AbelianFieldCtx, extra_modulus: int = 1,
                     budget: int = DEFAULT_PRIME_SEARCH_BUDGET,
                     level: int | None = None):
    """Yield auxiliary primes l = 1 mod p^level*extra_modulus split in K, in
    increasing order, examining at most `budget` candidates.

    Each yielded prime is re-verified by an independent route: a square root
    of D mod l is found and squared back (trial splitting) in addition to the
    Kronecker-symbol test.  The candidates are l = 1 + k step, k = 1, 2, ...;
    when step is odd, l is even for odd k, and those k are counted toward
    the budget without a test.
    """
    level = ctx.N if level is None else level
    if extra_modulus < 1 or math.gcd(extra_modulus, ctx.p * ctx.f_K) != 1:
        raise ConductorClash(
            f"extra modulus {extra_modulus} must be a positive integer prime to "
            f"p*f_K = {ctx.p * ctx.f_K}")
    step = ctx.p**level * extra_modulus
    skip = 1 + step % 2
    for k in count(skip, skip):
        if k > budget:
            raise BudgetExhausted(
                f"no more auxiliary primes within budget {budget} (mod {step})")
        ell = 1 + k * step
        if not proven_prime(ell):
            continue
        if ctx.D % ell == 0:
            continue
        if not ctx.splits_in_K(ell):
            continue
        root = sqrt_mod_prime(ctx.D % ell, ell)
        if root is None or (root * root - ctx.D) % ell != 0:  # pragma: no cover
            raise ArithmeticError(f"splitting re-verification failed at {ell}")
        yield KolyvaginPrime.build(ell, ctx.p, ctx.conventions.flip_sigma)


def evaluation_primes(ctx: AbelianFieldCtx, n: int = 1, level: int | None = None):
    """Evaluation primes q = 1 mod f_K * p^level * n, ascending.

    Such q split completely in the whole cyclotomic layer containing
    F_m(mu_n), so every root of unity the evaluation engine needs already
    lives in F_q (residue degree one).  Each candidate is proven by
    arith.proven_prime, so make_field(q) keeps this proof of a yielded q;
    the engine hands make_field the primes of f_K p^(m+1) n, which divide
    q - 1, so its generator search factors only the cofactor.  When the
    step is odd, every other candidate is even and is stepped over."""
    level = ctx.N if level is None else level
    step = ctx.f_K * ctx.p**level * n
    step <<= step % 2
    for q in count(1 + step, step):
        if proven_prime(q):
            yield q
