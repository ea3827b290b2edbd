"""Higher Fitting ideals of finitely presented modules over Z/p^N[G].

A presentation is a relation matrix A (rows index module generators, columns
index relations) for coker(A: R^m -> R^n).  The i-th Fitting ideal is the
ideal of all (n-i) x (n-i) minors, the unit ideal once i >= n, and zero when
there are too few relation columns to form a minor.
"""

from __future__ import annotations

import itertools

from .config import MAX_PRESENTATION_SIZE
from .errors import BadDecomposition, InsufficientPrecision, MixedAmbient
from .groupring import (
    GroupRing,
    GroupRingElement,
    IdealNF,
    ideal_normal_form,
    principal_ideal,
)


class Presentation:
    """Relation matrix over a group ring; rows[i][j] is the i-th coordinate
    of the j-th relation."""

    def __init__(self, ring: GroupRing, rows: tuple[tuple[GroupRingElement, ...], ...]):
        self.ring = ring
        self.rows = rows
        if len(self.rows) < 1:
            raise ValueError("need at least one module generator (n >= 1)")
        if len(self.rows) > MAX_PRESENTATION_SIZE:
            raise ValueError(f"presentation larger than {MAX_PRESENTATION_SIZE} rows")
        for row in self.rows:
            if len(row) != len(self.rows[0]):
                raise ValueError("ragged matrix")
            for entry in row:
                if entry.ring != self.ring:
                    raise MixedAmbient("matrix entry in a different ring")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def diagonal_presentation(ring: GroupRing, entries: list[int]) -> Presentation:
    ident = ring.group.identity()
    n = len(entries)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(ring.monomial(ident, entries[i]) if i == j else ring.zero())
        rows.append(tuple(row))
    return Presentation(ring, tuple(rows))


def _det(pres: Presentation, row_idx: tuple, col_idx: tuple, memo: dict) -> GroupRingElement:
    """Exact determinant of the square submatrix by cofactor expansion with
    memoization on (rows, columns)."""
    key = (row_idx, col_idx)
    if key in memo:
        return memo[key]
    ring = pres.ring
    if len(row_idx) == 1:
        out = pres.rows[row_idx[0]][col_idx[0]]
    else:
        out = ring.zero()
        r0 = row_idx[0]
        rest = row_idx[1:]
        for pos, c in enumerate(col_idx):
            entry = pres.rows[r0][c]
            if entry.is_zero():
                continue
            sub_cols = col_idx[:pos] + col_idx[pos + 1 :]
            cof = _det(pres, rest, sub_cols, memo)
            term = entry * cof
            out = out + term if pos % 2 == 0 else out - term
    memo[key] = out
    return out


def fitting_ideal(pres: Presentation, i: int) -> IdealNF:
    """The i-th Fitting ideal of coker(A) as a canonical IdealNF."""
    if i < 0:
        raise ValueError("i must be >= 0")
    ring = pres.ring
    n, m = pres.n, pres.m
    if i >= n:
        return ideal_normal_form([ring.one()], ring)
    k = n - i
    if m < k:
        return IdealNF(ring, ())
    memo: dict = {}
    minors = []
    for row_idx in itertools.combinations(range(n), k):
        for col_idx in itertools.combinations(range(m), k):
            d = _det(pres, row_idx, col_idx, memo)
            if not d.is_zero():
                minors.append(d)
    if not minors:
        return IdealNF(ring, ())
    return ideal_normal_form(minors, ring)


def fitting_of_p_group(p: int, N: int, divisors, i: int) -> IdealNF:
    """Fitting ideals of the finite module ⊕ Z/p^{d_j} inside Z/p^N.

    divisors must be sorted non-increasing; requires N > sum(d_j) (the
    "N large enough" regime) so no minor collapses mod p^N.
    """
    divisors = tuple(divisors)
    if any(divisors[j] < divisors[j + 1] for j in range(len(divisors) - 1)):
        raise BadDecomposition(f"divisors {divisors} must be non-increasing")
    if any(d < 1 for d in divisors):
        raise BadDecomposition(f"divisors {divisors} must be positive")
    total = sum(divisors)
    if N <= total:
        raise InsufficientPrecision(f"need N > {total}, got N = {N}")
    if i < 0:
        raise ValueError("i must be >= 0")
    if i >= len(divisors):
        return principal_ideal(p, N, 0)
    return principal_ideal(p, N, sum(divisors[i:]))
