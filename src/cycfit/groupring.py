"""Group rings Z/p^N[Delta x Gamma], the projection onto the quotient by the
quadratic character of K, and canonical normal forms for finitely generated
ideals in these finite rings.

Ideals are represented as additive lattices over Z/p^N spanned by all
monomial multiples of the generators, reduced to a canonical echelon (Howell)
basis.  Over a chain ring Z/p^N this basis is unique, so ideal equality and
containment are literal comparisons.
"""

from __future__ import annotations

import math
from functools import cached_property

from .arith import is_prime, val_p
from .errors import BadDecomposition, MixedAmbient, NotPrime


class FiniteAbelianGroup:
    """Delta x Gamma with Delta given by elementary divisors and Gamma cyclic
    of order p^m.  Elements are exponent tuples, the Gamma coordinate last.
    Groups with the same divisors are equal and hash alike."""

    def __init__(self, delta_divisors: tuple[int, ...], gamma_order: int = 1):
        self.delta_divisors = delta_divisors
        self.gamma_order = gamma_order
        if any(d < 1 for d in self.delta_divisors) or self.gamma_order < 1:
            raise ValueError("divisors must be positive")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.delta_divisors == other.delta_divisors
                and self.gamma_order == other.gamma_order)

    def __hash__(self):
        return hash((self.delta_divisors, self.gamma_order))

    @property
    def divisors(self) -> tuple[int, ...]:
        return self.delta_divisors + (self.gamma_order,)

    @property
    def delta_order(self) -> int:
        return math.prod(self.delta_divisors) if self.delta_divisors else 1

    @property
    def order(self) -> int:
        return self.delta_order * self.gamma_order

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.divisors)

    def elements(self):
        divs = self.divisors
        idx = [0] * len(divs)
        while True:
            yield tuple(idx)
            for i in range(len(divs) - 1, -1, -1):
                idx[i] += 1
                if idx[i] < divs[i]:
                    break
                idx[i] = 0
            else:
                return

    def mul(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.divisors))

    def inv(self, a: tuple) -> tuple:
        return tuple((-x) % d for x, d in zip(a, self.divisors))


class GroupRing:
    """Descriptor for Z/p^N[G].  Rings built separately from equal data are
    equal and hash alike, so elements and ideals of both mix freely."""

    def __init__(self, group: FiniteAbelianGroup, p: int, N: int):
        self.group = group
        self.p = p
        self.N = N
        if not is_prime(self.p) or self.p < 3:
            raise NotPrime(f"p = {self.p} must be an odd prime")
        if math.gcd(self.group.delta_order, self.p) != 1:
            raise BadDecomposition("|Delta| must be prime to p")

    def __eq__(self, other) -> bool:
        # every element operation compares rings, nearly always one object
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.N == other.N and self.group == other.group

    def __hash__(self):
        return hash((self.group, self.p, self.N))

    @property
    def mod(self) -> int:
        return self.p**self.N

    @cached_property
    def chi_quotient(self) -> "GroupRing":
        """Z/p^N[Gamma], the target of chi_project, built once per ring."""
        return GroupRing(FiniteAbelianGroup((), self.group.gamma_order), self.p, self.N)

    @cached_property
    def basis(self) -> tuple[tuple, ...]:
        return tuple(sorted(self.group.elements()))

    def zero(self) -> "GroupRingElement":
        return GroupRingElement(self, {})

    def one(self) -> "GroupRingElement":
        return GroupRingElement(self, {self.group.identity(): 1})

    def monomial(self, g: tuple, c: int = 1) -> "GroupRingElement":
        return GroupRingElement(self, {tuple(g): c % self.mod})

    def from_vector(self, vec) -> "GroupRingElement":
        return GroupRingElement(self, {g: c for g, c in zip(self.basis, vec) if c % self.mod})

    def element(self, coeffs: dict) -> "GroupRingElement":
        return GroupRingElement(self, coeffs)


class GroupRingElement:
    """Sparse element of Z/p^N[G]; coefficients normalized into [0, p^N)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: dict):
        self.ring = ring
        mod = ring.mod
        self.coeffs = {g: c % mod for g, c in coeffs.items() if c % mod}

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "GRE(0)"
        terms = ", ".join(f"{g}:{c}" for g, c in sorted(self.coeffs.items()))
        return f"GRE({terms})"

    def _check(self, other: "GroupRingElement"):
        if self.ring != other.ring:
            raise MixedAmbient("elements live in different rings")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElement(self.ring, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) - c
        return GroupRingElement(self.ring, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.ring, {g: -c for g, c in self.coeffs.items()})

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement(self.ring, {g: c * other for g, c in self.coeffs.items()})
        self._check(other)
        grp = self.ring.group
        out: dict = {}
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                k = grp.mul(g, h)
                out[k] = out.get(k, 0) + c * d
        return GroupRingElement(self.ring, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def vector(self) -> tuple[int, ...]:
        return tuple(self.coeffs.get(g, 0) for g in self.ring.basis)

    def scalar(self) -> int:
        """The coefficient at the identity when the element is scalar."""
        ident = self.ring.group.identity()
        if any(g != ident for g in self.coeffs):
            raise ValueError("element is not scalar")
        return self.coeffs.get(ident, 0)


def chi_project(x: GroupRingElement) -> GroupRingElement:
    """Project Z/p^N[Delta x Gamma] onto the chi-quotient Z/p^N[Gamma].

    chi is the quadratic character of K: -1 on the K-coordinate of Delta (the
    first, Z/2) and 1 on the others.  This is the ring surjection sending g
    to (-1)^{g[0]} times its Gamma coordinate; no 1/|Delta| scaling (that
    variant fails to preserve 1 and differs only by a unit, so ideals agree).
    """
    ring = x.ring
    if ring.group.delta_divisors[:1] != (2,):
        raise MixedAmbient("Delta does not start with the K-coordinate Z/2")
    out: dict = {}
    for g, c in x.coeffs.items():
        gamma = g[-1:]
        out[gamma] = out.get(gamma, 0) + (-c if g[0] else c)
    return GroupRingElement(ring.chi_quotient, out)


# ---------------------------------------------------------------------------
# Canonical normal forms for ideals (Howell form over Z/p^N)


def howell_form(rows, p: int, N: int) -> tuple[tuple[int, ...], ...]:
    """Canonical echelon basis of the Z/p^N-span of the given rows.

    Pivots are exact powers of p, entries above a pivot p^v are reduced mod
    p^v, and for every pivot the annihilator multiple p^{N-v}*row is folded
    back in, so the row span is closed under the operations membership
    testing needs.  The result is unique for the module it spans.
    """
    mod = p**N
    width = 0
    work = []
    for r in rows:
        rr = [c % mod for c in r]
        width = max(width, len(rr))
        if any(rr):
            work.append(rr)
    for r in work:
        r.extend([0] * (width - len(r)))
    result: list[tuple[int, int, list[int]]] = []  # (col, val, row)
    for col in range(width):
        cand = [r for r in work if r[col]]
        if not cand:
            continue
        piv = min(cand, key=lambda r: val_p(r[col], p, N))
        work.remove(piv)
        v = val_p(piv[col], p, N)
        u_inv = pow(piv[col] // p**v, -1, mod)
        piv = [c * u_inv % mod for c in piv]
        for r in work:
            if r[col]:
                w = r[col] // p**v
                for i in range(width):
                    r[i] = (r[i] - w * piv[i]) % mod
        work = [r for r in work if any(r)]
        if v > 0:
            extra = [c * p ** (N - v) % mod for c in piv]
            if any(extra):
                work.append(extra)
        result.append((col, v, piv))
    # canonical reduction of entries above each pivot
    for i, (col_i, v_i, row_i) in enumerate(result):
        for j in range(i):
            row_j = result[j][2]
            w = row_j[col_i] // p**v_i
            if w:
                for t in range(width):
                    row_j[t] = (row_j[t] - w * row_i[t]) % mod
    return tuple(tuple(r) for _, _, r in result)


def _reduce_vector(vec, pivots, p: int, N: int):
    mod = p**N
    v = [c % mod for c in vec]
    for col, pv, row in pivots:
        if v[col]:
            if val_p(v[col], p, N) < pv:
                return v, False
            w = v[col] // p**pv
            for i in range(len(v)):
                v[i] = (v[i] - w * row[i]) % mod
    return v, not any(v)


class IdealNF:
    """Canonical normal form of a finitely generated ideal in Z/p^N[G].  The
    form is unique, so equal ideals of equal rings are equal and hash alike."""

    def __init__(self, ring: GroupRing, rows: tuple[tuple[int, ...], ...]):
        self.ring = ring
        self.rows = rows

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring, self.rows))

    @cached_property
    def _pivots(self):
        out = []
        for r in self.rows:
            for col, c in enumerate(r):
                if c:
                    out.append((col, val_p(c, self.ring.p, self.ring.N), r))
                    break
        return out

    def contains_vector(self, vec) -> bool:
        _, ok = _reduce_vector(vec, self._pivots, self.ring.p, self.ring.N)
        return ok

    def contains_ideal(self, other: "IdealNF") -> bool:
        if other.ring != self.ring:
            raise MixedAmbient("ideals live in different rings")
        return all(self.contains_vector(r) for r in other.rows)

    def is_unit_ideal(self) -> bool:
        return self._is_unit

    @cached_property
    def _is_unit(self) -> bool:
        """Whether 1 lies in the ideal, tested once: nothing changes a form
        after it is built.  The identity, all zeros, is basis[0] of the
        sorted basis."""
        return self.contains_vector([1] + [0] * (self.ring.group.order - 1))

    def generators(self) -> list[GroupRingElement]:
        return [self.ring.from_vector(r) for r in self.rows]

    def principal_valuation(self) -> int:
        """For the chain ring Z/p^N (trivial group): the e with NF = (p^e)."""
        if self.ring.group.order != 1:
            raise ValueError("principal_valuation needs a trivial group")
        if not self.rows:
            return self.ring.N
        return val_p(self.rows[0][0], self.ring.p, self.ring.N)

    def __repr__(self):
        if self.ring.group.order == 1:
            e = self.principal_valuation()
            if e == 0:
                return "Ideal(1)"
            if e == self.ring.N:
                return "Ideal(0)"
            return f"Ideal({self.ring.p}^{e})"
        return f"Ideal[{len(self.rows)} rows]"


def ideal_normal_form(gens, ring: GroupRing) -> IdealNF:
    """Normal form of the ideal generated by gens in ring."""
    rows = []
    for g in gens:
        if g.ring != ring:
            raise MixedAmbient("generators disagree on ring")
        for mono in ring.group.elements():
            shifted = ring.monomial(mono) * g
            rows.append(shifted.vector())
    return IdealNF(ring, howell_form(rows, ring.p, ring.N))


def ideal_join(a: IdealNF, b: IdealNF) -> IdealNF:
    if a.ring != b.ring:
        raise MixedAmbient("ideals live in different rings")
    return IdealNF(a.ring, howell_form(list(a.rows) + list(b.rows), a.ring.p, a.ring.N))


def ideal_product(a: IdealNF, b: IdealNF) -> IdealNF:
    """NF of the pairwise products of the two canonical generating sets."""
    if a.ring != b.ring:
        raise MixedAmbient("ideals live in different rings")
    gens = []
    for ga in a.generators():
        for gb in b.generators():
            gens.append(ga * gb)
    if not gens:
        return IdealNF(a.ring, ())
    return ideal_normal_form(gens, a.ring)


def scalar_ring(p: int, N: int) -> GroupRing:
    """Z/p^N viewed as the group ring of the trivial group."""
    return GroupRing(FiniteAbelianGroup((), 1), p, N)


def principal_ideal(p: int, N: int, e: int) -> IdealNF:
    """(p^e) inside Z/p^N, with e >= N meaning the zero ideal."""
    ring = scalar_ring(p, N)
    if e >= N:
        return IdealNF(ring, ())
    return IdealNF(ring, ((pow(p, e),),))
