"""Independent oracle for the p-part of the class group of a real quadratic
field, built from indefinite binary quadratic forms.

The narrow (form) class group is what reduction cycles + Gauss composition
compute; since only the p-part for odd p is ever consumed downstream, and the
narrow-vs-wide kernel is a 2-group, this is exactly the class-group data the
verification needs.  The group is a multiplication table on the cycles; the
p-part's elementary divisors are read from the element orders, and the
fundamental unit comes from the convergent that ends the first period of the
continued fraction of the generator of O_K.

A second, analytic consistency check brackets the narrow class number with a
truncated L-series.  That computation is done in scaled-integer fixed point
with a rigorous error budget (Polya-Vinogradov tail bound, per-term rounding,
series slack) -- no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import factorint, is_prime, kronecker, sqrt_mod_prime
from .errors import BudgetExhausted, NotFundamental, NotSplit


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def is_fundamental_discriminant(D: int) -> bool:
    """Positive fundamental discriminant test (D > 1)."""
    if D <= 1:
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        k = D // 4
        return k % 4 in (2, 3) and is_squarefree(k)
    return False


def fundamental_discriminants(bound: int):
    for D in range(5, bound):
        if is_fundamental_discriminant(D):
            yield D


# ---------------------------------------------------------------------------
# Indefinite binary quadratic forms


def is_reduced(f: tuple, D: int) -> bool:
    """Reduced indefinite form: 0 < b < sqrt(D) and sqrt(D)-b < 2|a| < sqrt(D)+b."""
    a, b, c = f
    if b <= 0 or b * b >= D:
        return False
    two_a = 2 * abs(a)
    if (two_a + b) ** 2 <= D:  # 2|a| <= sqrt(D) - b
        return False
    if two_a >= b and (two_a - b) ** 2 >= D:  # 2|a| >= sqrt(D) + b
        return False
    return True


def normalize(f: tuple, D: int) -> tuple:
    """Shift b into the normal range for leading coefficient a."""
    a, b, c = f
    t = math.isqrt(D)
    two_a = 2 * abs(a)
    if abs(a) > t:
        # symmetric range (-|a|, |a|]
        r = b % two_a
        if r > abs(a):
            r -= two_a
    else:
        # largest value <= floor(sqrt(D)) congruent to b
        r = t - ((t - b) % two_a)
    c = (r * r - D) // (4 * a)
    return (a, r, c)


def rho(f: tuple, D: int) -> tuple:
    """Reduction step: flip to the right neighbour form."""
    a, b, c = f
    return normalize((c, -b, a), D)


def reduce_form(f: tuple, D: int) -> tuple:
    f = normalize(f, D)
    seen = 0
    while not is_reduced(f, D):
        f = rho(f, D)
        seen += 1
        if seen > 10_000:  # pragma: no cover
            raise ArithmeticError(f"reduction did not terminate for {f}")
    return f


def principal_form(D: int) -> tuple:
    t = math.isqrt(D)
    b = t if (t - D) % 2 == 0 else t - 1
    return (1, b, (b * b - D) // 4)


def _xgcd(a: int, b: int):
    if a == 0:
        return b, 0, 1
    g, x, y = _xgcd(b % a, a)
    return g, y - (b // a) * x, x


def compose(f1: tuple, f2: tuple, D: int) -> tuple:
    """Gauss/Dirichlet composition followed by reduction."""
    a1, b1, _c1 = f1
    a2, b2, _c2 = f2
    s = (b1 + b2) // 2
    d1, u1, v1 = _xgcd(a1, a2)
    d, u2, v2 = _xgcd(d1, s)
    a3 = (a1 * a2) // (d * d)
    b3 = (u2 * (u1 * a1 * b2 + v1 * a2 * b1) + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    c3 = (b3 * b3 - D) // (4 * a3)
    return reduce_form((a3, b3, c3), D)


def all_reduced_forms(D: int) -> list[tuple]:
    """Exhaustive enumeration of reduced forms of a non-square discriminant
    D.  With t = isqrt(D), 0 < b < sqrt(D) is 1 <= b <= t and
    sqrt(D) - b < 2|a| < sqrt(D) + b is ceil((t - b + 1)/2) <= |a| <=
    floor((t + b)/2), so only that interval is scanned for divisors |a| of
    (D - b^2)/4."""
    out = []
    t = math.isqrt(D)
    for b in range(1, t + 1):
        if (D - b * b) % 4:
            continue
        m = (D - b * b) // 4
        for a_abs in range((t - b + 2) // 2, (t + b) // 2 + 1):
            if m % a_abs:
                continue
            for a in (a_abs, -a_abs):
                out.append((a, b, (b * b - D) // (4 * a)))
    return sorted(out)


# ---------------------------------------------------------------------------
# Fundamental unit by continued fractions


def fundamental_unit(D: int) -> tuple[int, int, int]:
    """Fundamental unit of O_K for K = Q(sqrt(D)), D a fundamental
    discriminant, as (T, U, norm) with eps = (T + U*sqrt(D))/2 and
    norm = N(eps) in {1, -1}.

    Expands the generator omega = (P + sqrt(R))/Q of O_K (trace tr = 1 if
    D = 1 mod 4, else 0) as a continued fraction, carrying the convergents
    h/k.  The complete quotient's denominator comes back to Q exactly at the
    end of each period; at the end of the first, eps = h - k*omega' =
    (2h - tr*k + k*sqrt(D))/2 and N(eps) = (-1)^(period length).
    """
    if D % 4 == 1:
        R, P, Q, tr = D, 1, 2, 1
    else:
        R, P, Q, tr = D // 4, 0, 1, 0
    t = math.isqrt(R)
    Q0 = Q
    h, h_prev, k, k_prev, norm = 1, 0, 0, 1, 1
    while True:
        a = (P + t) // Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        norm = -norm
        P = a * Q - P
        Q = (R - P * P) // Q
        if Q == Q0:
            return 2 * h - tr * k, k, norm


# ---------------------------------------------------------------------------
# Fixed-point logarithms and the truncated L-series band

_SCALE_BITS = 64
_SCALE = 1 << _SCALE_BITS
_LN_SLACK = 512  # generous ulp bound for the atanh series evaluation


def _atanh_fixed(znum: int, zden: int) -> int:
    """2*atanh(znum/zden) in _SCALE units (floor arithmetic)."""
    Z = znum * _SCALE // zden
    zz = Z * Z // _SCALE
    total = 0
    power = Z
    j = 1
    while power:
        total += power // j
        power = power * zz // _SCALE
        j += 2
        if j > 400:  # pragma: no cover
            break
    return 2 * total


@lru_cache(maxsize=1)
def _ln2_fixed() -> int:
    return _atanh_fixed(1, 3)


def fixed_ln(num: int, den: int) -> int:
    """ln(num/den) in _SCALE units, error below _LN_SLACK ulps."""
    if num <= 0 or den <= 0:
        raise ValueError("fixed_ln needs a positive rational")
    e = 0
    while num >= 2 * den:
        den <<= 1
        e += 1
    while num < den:
        num <<= 1
        e -= 1
    return e * _ln2_fixed() + _atanh_fixed(num - den, num + den)


def class_number_band(D: int, h_narrow: int, unit: tuple[int, int, int]) -> dict:
    """Bracket the narrow class number by sqrt(D)*L(1,chi_D)/ln(eps+).

    eps+ is the totally positive fundamental unit (the square of eps when
    N(eps) = -1).  Returns the integer band endpoints h_lo and h_hi, the
    verdict ok that h_narrow lies in the band, and whether the band is
    narrower than one.
    """
    T, U, norm = unit
    X = max(10_000, 120 * D)
    chi_table = [kronecker(D, n) for n in range(D)]
    S = 0
    for n in range(1, X + 1):
        chi = chi_table[n % D]
        if chi:
            S += chi * (_SCALE // n)
    # |sum_{n>X} chi(n)/n| <= 2*B/(X+1), B = sqrt(D)*ln(D) (Polya-Vinogradov)
    ln_d_hi = fixed_ln(D, 1) + _LN_SLACK
    tail = 2 * (math.isqrt(D) + 1) * ln_d_hi // (X + 1) + 1
    err_L = X + tail + _LN_SLACK  # per-term floor rounding + tail + slack
    sqrtD = math.isqrt(D * _SCALE * _SCALE)
    # eps in fixed point: (T + U*sqrt(D))/2
    eps_num = T * _SCALE + U * sqrtD
    ln_eps = fixed_ln(eps_num, 2 * _SCALE)
    ln_eps_plus = ln_eps if norm == 1 else 2 * ln_eps
    lo_num = sqrtD * (S - err_L)
    hi_num = sqrtD * (S + err_L)
    # endpoints of the bracket for h+, in _SCALE units
    lo_scaled = lo_num // (ln_eps_plus + _LN_SLACK)
    hi_scaled = hi_num // (ln_eps_plus - _LN_SLACK) + 1
    return {
        "h_lo": lo_scaled // _SCALE,
        "h_hi": hi_scaled // _SCALE + 1,
        "ok": lo_scaled <= h_narrow * _SCALE <= hi_scaled,
        "width_below_one": hi_scaled - lo_scaled < _SCALE,
    }


# ---------------------------------------------------------------------------
# The narrow class group


class FormClassGroup:
    """Narrow ideal class group realized on rho-reduction cycles; index maps
    every reduced form to its cycle."""

    def __init__(self, D: int, cycles: tuple[tuple[tuple, ...], ...], index: dict,
                 table: tuple[tuple[int, ...], ...], identity: int,
                 unit: tuple[int, int, int]):
        self.D = D
        self.cycles = cycles
        self.index = index
        self.table = table
        self.identity = identity
        self.unit = unit  # fundamental unit (T, U, norm)

    @property
    def h_plus(self) -> int:
        return len(self.cycles)

    def cycle_of(self, form: tuple) -> int:
        return self.index[reduce_form(form, self.D)]

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def element_order(self, x: int) -> int:
        n, cur = 1, x
        while cur != self.identity:
            cur = self.mul(cur, x)
            n += 1
        return n

    def inverse(self, x: int) -> int:
        rep = self.cycles[x][0]
        a, b, c = rep
        return self.cycle_of((a, -b, c))

    def p_part_divisors(self, p: int) -> tuple[int, ...]:
        """Elementary divisors (exponents of p), non-increasing, of the
        p-Sylow subgroup, read from the element orders: c_j = #{x : ord x |
        p^j} = p^{sum_i min(d_i, j)}, so log_p(c_j / c_{j-1}) = #{i : d_i >= j}."""
        levels = []  # j for every element of order p^j
        for x in range(self.h_plus):
            n, j = self.element_order(x), 0
            while n % p == 0:
                n //= p
                j += 1
            if n == 1:
                levels.append(j)
        logs = [_plog(sum(1 for v in levels if v <= j), p) for j in range(max(levels) + 1)]
        ranks = [hi - lo for lo, hi in zip(logs, logs[1:])]
        return tuple(sum(1 for r in ranks if r > i) for i in range(ranks[0] if ranks else 0))


# narrow_class_group refuses discriminants with more reduced forms than this.
_MAX_REDUCED_FORMS = 10**6


def _plog(q: int, p: int) -> int:
    out = 0
    while q % p == 0:
        q //= p
        out += 1
    if q != 1:  # pragma: no cover
        raise ArithmeticError("count is not a p-power")
    return out


def narrow_class_group(D: int) -> FormClassGroup:
    """Build the narrow class group of discriminant D from reduction cycles."""
    if not is_fundamental_discriminant(D):
        raise NotFundamental(f"{D} is not a positive fundamental discriminant")
    forms = all_reduced_forms(D)
    if len(forms) > _MAX_REDUCED_FORMS:
        raise BudgetExhausted(f"too many reduced forms for budget ({len(forms)})")
    form_set = set(forms)
    unassigned = set(forms)
    cycles = []
    while unassigned:
        start = min(unassigned)
        cyc = [start]
        unassigned.discard(start)
        cur = rho(start, D)
        guard = 0
        while cur != start:
            if cur not in form_set:  # pragma: no cover
                raise ArithmeticError(f"rho left the reduced set at {cur}")
            cyc.append(cur)
            unassigned.discard(cur)
            cur = rho(cur, D)
            guard += 1
            if guard > len(forms) + 1:  # pragma: no cover
                raise ArithmeticError("rho cycle did not close")
        cycles.append(tuple(cyc))
    cycles = tuple(sorted(cycles))
    index = {}
    for idx, cyc in enumerate(cycles):
        for f in cyc:
            index[f] = idx
    h = len(cycles)
    reps = [cyc[0] for cyc in cycles]
    table = tuple(
        tuple(index[compose(reps[i], reps[j], D)] for j in range(h)) for i in range(h)
    )
    ident = index[reduce_form(principal_form(D), D)]
    unit = fundamental_unit(D)
    return FormClassGroup(D=D, cycles=cycles, index=index, table=table, identity=ident,
                          unit=unit)


def ideal_class_of_prime(ell: int, D: int, group: FormClassGroup) -> int:
    """Class of the degree-one prime above a split prime ell, realized by the
    form (ell, b, c) with the smallest nonnegative b solving b^2 = D mod 4*ell.

    The choice of b is the operational fixed-embedding convention.
    """
    if ell == 2 or not is_prime(ell) or D % ell == 0 or kronecker(D, ell) != 1:
        raise NotSplit(f"{ell} does not split in discriminant {D}")
    r = sqrt_mod_prime(D % ell, ell)
    # b = +-r mod ell, and b^2 = D mod 4 iff b = D mod 2
    b = min(x for x in (r, ell - r, r + ell, 2 * ell - r) if (x - D) % 2 == 0)
    c = (b * b - D) // (4 * ell)
    return group.cycle_of((ell, b, c))
