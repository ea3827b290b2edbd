"""Independent oracle for the p-part of the class group of a real quadratic
field, built from indefinite binary quadratic forms.

The narrow (form) class group is what reduction cycles + Gauss composition
compute; since only the p-part for odd p is ever consumed downstream, and the
narrow-vs-wide kernel is a 2-group, this is exactly the class-group data the
verification needs.

A second, analytic consistency check brackets the narrow class number with a
truncated L-series.  That computation is done in scaled-integer fixed point
with a rigorous error budget (Polya-Vinogradov tail bound, per-term rounding,
series slack) -- no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import factorint, is_prime, kronecker, sqrt_mod_prime, crt
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


def _isqrt(n: int) -> int:
    return math.isqrt(n)


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
    t = _isqrt(D)
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
    t = _isqrt(D)
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
    t = _isqrt(D)
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
    norm = N(eps) in {1, -1}."""
    if D % 4 == 1:
        R, P, Q = D, 1, 2
    else:
        R, P, Q = D // 4, 0, 1
    t = _isqrt(R)
    states = {}
    digits = []
    i = 0
    state_list = []
    while True:
        key = (P, Q)
        if key in states:
            start = states[key]
            break
        states[key] = i
        state_list.append(key)
        a = (P + t) // Q
        digits.append(a)
        P = a * Q - P
        Q = (R - P * P) // Q
        i += 1
        if i > 10 * (t + 2) ** 2:  # pragma: no cover
            raise ArithmeticError("continued fraction did not cycle")
    # unit from the period matrix: eps = C*alpha_s + E, alpha_s = (P_s+sqrt(R))/Q_s,
    # where [[.,.],[C,E]] is the convergent matrix of the period digits
    h, h_prev = 1, 0
    k, k_prev = 0, 1
    for a in digits[start:]:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    C, E = k, k_prev
    Ps, Qs = state_list[start]
    x = C * Ps + E * Qs
    y = C
    den = Qs
    if D % 4 == 1:
        T2, U2 = 2 * x, 2 * y
    else:
        T2, U2 = 2 * x, y
    if T2 % den or U2 % den:  # pragma: no cover
        raise ArithmeticError("unit is not integral")
    T, U = T2 // den, U2 // den
    norm4 = T * T - D * U * U
    if norm4 not in (4, -4):  # pragma: no cover
        raise ArithmeticError(f"fundamental unit has norm {norm4}/4")
    return T, U, norm4 // 4


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
    N(eps) = -1).  Returns the band endpoints in _SCALE units together with
    the verdict h_lo <= h_narrow <= h_hi.
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
    tail = 2 * (_isqrt(D) + 1) * ln_d_hi // (X + 1) + 1
    err_L = X + tail + _LN_SLACK  # per-term floor rounding + tail + slack
    sqrtD = _isqrt(D * _SCALE * _SCALE)
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
        "X": X,
        "h_lo_scaled": lo_scaled,
        "h_hi_scaled": hi_scaled,
        "h_lo": lo_scaled // _SCALE,
        "h_hi": hi_scaled // _SCALE + 1,
        "ok": lo_scaled <= h_narrow * _SCALE <= hi_scaled,
        "width_below_one": hi_scaled - lo_scaled < _SCALE,
    }


# ---------------------------------------------------------------------------
# The narrow class group


class FormClassGroup:
    """Narrow ideal class group realized on rho-reduction cycles."""

    def __init__(self, D: int, cycles: tuple[tuple[tuple, ...], ...],
                 table: tuple[tuple[int, ...], ...], identity: int,
                 unit: tuple[int, int, int]):
        self.D = D
        self.cycles = cycles
        self.table = table
        self.identity = identity
        self.unit = unit  # fundamental unit (T, U, norm)

    @property
    def h_plus(self) -> int:
        return len(self.cycles)

    def cycle_of(self, form: tuple) -> int:
        red = reduce_form(form, self.D)
        for idx, cyc in enumerate(self.cycles):
            if red in cyc:
                return idx
        raise ArithmeticError(f"form {form} not in any cycle")  # pragma: no cover

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def power(self, x: int, e: int) -> int:
        if e < 0:
            e %= self.element_order(x)
        out = self.identity
        b = x
        while e:
            if e & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            e >>= 1
        return out

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
        p-Sylow subgroup, from the counts #{x : x^{p^j} = e}."""
        sylow = self.p_sylow_elements(p)
        counts = [1]
        j = 1
        while counts[-1] < len(sylow):
            cj = sum(1 for x in sylow if self.power(x, p**j) == self.identity)
            counts.append(cj)
            j += 1
        ranks = []
        for jj in range(1, len(counts)):
            q, r = divmod(counts[jj], counts[jj - 1])
            if r:  # pragma: no cover
                raise ArithmeticError("inconsistent p-group counts")
            ranks.append(_plog(q, p))
        divisors = []
        for idx in range(ranks[0] if ranks else 0):
            divisors.append(max(jj + 1 for jj in range(len(ranks)) if ranks[jj] > idx))
        return tuple(sorted(divisors, reverse=True))

    def _p_power_order(self, x: int, p: int) -> int | None:
        order = n = self.element_order(x)
        while n % p == 0:
            n //= p
        return order if n == 1 else None

    def p_sylow_elements(self, p: int) -> list[int]:
        return [x for x in range(self.h_plus) if self._p_power_order(x, p) is not None]


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
    return FormClassGroup(D=D, cycles=cycles, table=table, identity=ident, unit=unit)


def ideal_class_of_prime(ell: int, D: int, group: FormClassGroup) -> int:
    """Class of the degree-one prime above a split prime ell, realized by the
    form (ell, b, c) with the smallest nonnegative b solving b^2 = D mod 4*ell.

    The choice of b is the operational fixed-embedding convention.
    """
    if ell == 2 or not is_prime(ell) or D % ell == 0 or kronecker(D, ell) != 1:
        raise NotSplit(f"{ell} does not split in discriminant {D}")
    r = sqrt_mod_prime(D % ell, ell)
    candidates = []
    for rl in {r, (ell - r) % ell}:
        for r4 in range(4):
            if (r4 * r4 - D) % 4 == 0:
                b = crt([rl, r4], [ell, 4])
                if (b * b - D) % (4 * ell) == 0:
                    candidates.append(b)
    b = min(candidates)
    c = (b * b - D) // (4 * ell)
    return group.cycle_of((ell, b, c))
