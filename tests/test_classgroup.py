import math
import random
from itertools import count, islice

import pytest

from cycfit.arith import is_prime, kronecker, make_field
from cycfit.classgroup import (
    all_reduced_forms,
    class_number_band,
    compose,
    fundamental_discriminants,
    fundamental_unit,
    ideal_class_of_prime,
    is_fundamental_discriminant,
    is_reduced,
    narrow_class_group,
    principal_form,
    rho,
)
from cycfit.errors import NotPrime, NotSplit


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(12)
    assert is_fundamental_discriminant(257)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(16)
    assert not is_fundamental_discriminant(45)
    assert list(fundamental_discriminants(14)) == [5, 8, 12, 13]


def test_flagship_class_group():
    g = narrow_class_group(257)
    assert g.h_plus == 3
    assert g.p_part_divisors(3) == (1,)
    # narrow = wide: fundamental unit has norm -1
    assert g.unit == (32, 2, -1)  # 16 + sqrt(257)


def test_trivial_and_even_discriminants():
    assert narrow_class_group(5).h_plus == 1
    g12 = narrow_class_group(12)
    assert g12.h_plus == 2  # norm +1 doubles the wide class number 1
    assert g12.p_part_divisors(3) == ()


def test_known_fundamental_units():
    known = {5: (1, 1, -1), 8: (2, 1, -1), 12: (4, 1, 1), 13: (3, 1, -1),
             17: (8, 2, -1), 21: (5, 1, 1), 24: (10, 2, 1), 29: (5, 1, -1),
             33: (46, 8, 1), 257: (32, 2, -1)}
    for D, expected in known.items():
        assert fundamental_unit(D) == expected


def test_group_axioms():
    rng = random.Random(41)
    for D in (40, 60, 257, 316, 328):
        g = narrow_class_group(D)
        h = g.h_plus
        e = g.identity
        for x in range(h):
            assert g.mul(e, x) == x
            assert g.mul(x, g.inverse(x)) == e
        for _ in range(25):
            x, y, z = (rng.randrange(h) for _ in range(3))
            assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
            assert g.mul(x, y) == g.mul(y, x)


def test_rho_preserves_reduced_set_exhaustively():
    for D in (40, 257, 316):
        forms = all_reduced_forms(D)
        fset = set(forms)
        for f in forms:
            assert is_reduced(f, D)
            assert rho(f, D) in fset
        # rho is a bijection on the reduced set
        assert len({rho(f, D) for f in forms}) == len(forms)
        g = narrow_class_group(D)
        assert sum(len(c) for c in g.cycles) == len(forms)


def test_all_reduced_forms_match_brute_force():
    # every (a, b) with 0 < |a|, b <= isqrt(D) and c integral, kept by is_reduced
    for D in list(fundamental_discriminants(2000)) + [32009]:
        t = math.isqrt(D)
        brute = sorted((a, b, (b * b - D) // (4 * a))
                       for b in range(1, t + 1) for a in range(-t, t + 1)
                       if a and (b * b - D) % (4 * a) == 0
                       and is_reduced((a, b, (b * b - D) // (4 * a)), D))
        assert all_reduced_forms(D) == brute, D


def test_reduce_form_lands_in_cycle():
    D = 257
    g = narrow_class_group(D)
    f = principal_form(D)
    assert g.cycle_of(f) == g.identity
    # composing a class with itself three times returns to identity (h=3)
    x = (g.identity + 1) % g.h_plus
    assert g.mul(g.mul(x, x), x) == g.identity


def test_p_part_divisors_count_the_p_power_torsion():
    # #{x : x^{p^j} = e} = p^{sum_i min(d_i, j)} for every j, counted with mul;
    # the pinned conductors have A_3 = (Z/3)^2, Z/9 and Z/27
    pinned = {32009: (1, 1), 94253: (2,), 222776: (3,)}
    for D in list(fundamental_discriminants(2000)) + list(pinned):
        g = narrow_class_group(D)
        for p in (3, 5, 7):
            d = g.p_part_divisors(p)
            if p == 3 and D in pinned:
                assert d == pinned[D]
            assert list(d) == sorted(d, reverse=True) and all(d)
            powers = list(range(g.h_plus))  # x^{p^j}
            for j in range(1, max(d, default=0) + 2):
                powers = [_pow(g, y, p) for y in powers]
                killed = sum(1 for y in powers if y == g.identity)
                assert killed == p ** sum(min(di, j) for di in d), (D, p, j)


def test_p_part_divisors_refuse_p_below_2_and_skip_p_prime_to_h(monkeypatch):
    # h+ = 3 at D = 257: below 2 there are no p-power orders (p = 1 divides
    # every order, p = 0 none); a p prime to h+ has no element of order p
    # (Lagrange), so no element order is computed
    g = narrow_class_group(257)
    for p in (-2, 0, 1):
        with pytest.raises(NotPrime):
            g.p_part_divisors(p)

    def no_orders(self, x):
        raise AssertionError("an element order was computed for p prime to h+")

    monkeypatch.setattr(type(g), "element_order", no_orders)
    assert [g.p_part_divisors(p) for p in (2, 5, 7, 257)] == [()] * 4


def _pow(g, x, e):
    """x^e by e multiplications."""
    out = g.identity
    for _ in range(e):
        out = g.mul(out, x)
    return out


def _primes_1_mod(modulus, n):
    """The first n primes q = 1 mod modulus."""
    return list(islice(filter(is_prime, (k * modulus + 1 for k in count(1))), n))


def _class_number_formula_holds(D, h_plus, unit, q):
    """prod_{chi(b)=-1} (1 - w^b) / prod_{chi(a)=1} (1 - w^a) = eps^{2h} in F_q,
    q = 1 mod D, with w = g^{(q-1)/D}, sqrt(D) -> the Gauss sum s of chi_D at
    w, and h = h+ if N(eps) = -1, else h+/2, the wide class number."""
    T, U, norm = unit
    h = h_plus if norm == -1 else h_plus // 2
    w = pow(make_field(q).g, (q - 1) // D, q)
    s, num, den, x = 0, 1, 1, 1
    for a in range(D):
        chi = kronecker(D, a)
        s += chi * x
        if chi == -1:
            num = num * (1 - x) % q
        elif chi == 1:
            den = den * (1 - x) % q
        x = x * w % q
    eps = (T + U * s) * pow(2, -1, q) % q
    return num == den * pow(eps, 2 * h, q) % q


def test_class_number_formula_certifies_h_and_unit():
    # the cyclotomic unit of conductor D is eps^{2h} (the class number
    # formula), a route that shares no code with the form class group
    for D in list(fundamental_discriminants(2000)) + [32009, 72329]:
        g = narrow_class_group(D)
        for q in _primes_1_mod(D, 2):
            assert _class_number_formula_holds(D, g.h_plus, g.unit, q), (D, q)
    g = narrow_class_group(257)
    q1, q2 = _primes_1_mod(257, 2)
    assert not _class_number_formula_holds(257, 3 * g.h_plus, g.unit, q1)
    assert not _class_number_formula_holds(257, 3 * g.h_plus, g.unit, q2)


def test_composition_discriminant_preserved():
    D = 316
    forms = all_reduced_forms(D)
    rng = random.Random(43)
    for _ in range(20):
        f1, f2 = rng.choice(forms), rng.choice(forms)
        a, b, c = compose(f1, f2, D)
        assert b * b - 4 * a * c == D
        assert is_reduced((a, b, c), D)


def test_ideal_class_of_prime():
    g = narrow_class_group(257)
    cls13 = ideal_class_of_prime(13, 257, g)
    assert g.element_order(cls13) in (1, 3)
    with pytest.raises(NotSplit):
        ideal_class_of_prime(7, 257, g)  # (257|7) = -1
    # conjugate class is the inverse: (1+sigma) kills classes
    for ell in (13, 31, 61, 79):
        c = ideal_class_of_prime(ell, 257, g)
        assert g.mul(c, g.inverse(c)) == g.identity
        rep = g.cycles[c][0]
        conj = g.cycle_of((rep[0], -rep[1], rep[2]))
        assert g.mul(c, conj) == g.identity


def test_class_of_prime_multiplicative():
    # class(l) * class(l') equals the class of a form representing l*l'
    D = 257
    g = narrow_class_group(D)
    from cycfit.arith import crt

    for ell1, ell2 in ((13, 31), (13, 61), (31, 61)):
        c1 = ideal_class_of_prime(ell1, D, g)
        c2 = ideal_class_of_prime(ell2, D, g)
        f1 = (ell1, _b_for(ell1, D), ( _b_for(ell1, D)**2 - D) // (4 * ell1))
        f2 = (ell2, _b_for(ell2, D), ( _b_for(ell2, D)**2 - D) // (4 * ell2))
        prod = compose(f1, f2, D)
        assert g.cycle_of(prod) == g.mul(c1, c2)


def _b_for(ell, D):
    b = 0
    while (b * b - D) % (4 * ell):
        b += 1
    return b


def test_band_is_tight_for_small_discriminants():
    for D in (5, 12, 40, 257, 316):
        g = narrow_class_group(D)
        band = class_number_band(D, g.h_plus, g.unit)
        assert band["ok"] and band["width_below_one"]
