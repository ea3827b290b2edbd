import math
from itertools import islice

import pytest

from cycfit.arith import is_prime
from cycfit.classgroup import narrow_class_group
from cycfit.config import DEFAULT_FIELD_BUDGET, Conventions
from cycfit.errors import DividesAux, PrecisionTooLow
from cycfit.fields import KolyvaginPrime, build_field, evaluation_primes, kolyvagin_primes
from cycfit.maps import (
    _SUITE_K_MAX,
    _suite_primes,
    annihilation_check,
    annihilation_suite,
    phi_bar,
    tame_coupling_ok,
)
from cycfit.units import derivative_class


def test_phi_bar_preconditions():
    ctx = build_field(3, 257, 0, 3)
    kp = next(kolyvagin_primes(ctx, level=1))
    cls = derivative_class(ctx, "d", 257, (kp,))
    with pytest.raises(DividesAux):
        phi_bar(ctx, kp, cls)


def test_phi_sign_convention_flips_value():
    ctx = build_field(3, 257, 0, 3)
    ctx_neg = build_field(3, 257, 0, 3, Conventions(phi_sign=-1))
    q = KolyvaginPrime.build(next(evaluation_primes(ctx, 1)), 3)
    eta = derivative_class(ctx, "d", 257, ())
    assert phi_bar(ctx, q, eta) == -phi_bar(ctx_neg, q, eta)


def test_tame_coupling():
    kp = KolyvaginPrime.build(13, 3)
    assert tame_coupling_ok(kp)
    assert not tame_coupling_ok(KolyvaginPrime.build(13, 3, flip_sigma=True))


def test_annihilation_precision_guard():
    ctx = build_field(3, 257, 0, 1)
    oracle = narrow_class_group(257)
    kp = KolyvaginPrime.build(787, 3)
    with pytest.raises(PrecisionTooLow):
        annihilation_check(ctx, kp, oracle)


def test_flip_negates_derivative_values_exactly():
    # a global tame-generator flip multiplies every dlog observable by -1, so
    # ideal and annihilation predicates cannot see it; only the coupling
    # check discriminates.  Pin the negation so the analysis stays honest.
    from cycfit.units import derivative_class, evaluate_kappa

    ctx = build_field(3, 257, 0, 3)
    ctx_f = build_field(3, 257, 0, 3, Conventions(flip_sigma=True))
    kp = next(kolyvagin_primes(ctx))
    kp_f = KolyvaginPrime.build(kp.ell, 3, flip_sigma=True)
    q = next(evaluation_primes(ctx, kp.ell))
    v = evaluate_kappa(ctx, derivative_class(ctx, "d", 257, (kp,)), q)
    v_f = evaluate_kappa(ctx_f, derivative_class(ctx_f, "d", 257, (kp_f,)), q)
    assert v_f == -v and not v.is_zero()


def test_annihilation_small_suite_and_flip():
    ctx = build_field(3, 257, 0, 3)
    oracle = narrow_class_group(257)
    reports = annihilation_suite(ctx, oracle, 4)
    assert all(r.passed for r in reports)
    assert any(r.class_order > 1 for r in reports)
    ctx_f = build_field(3, 257, 0, 3, Conventions(flip_sigma=True))
    flipped = annihilation_suite(ctx_f, oracle, 2)
    assert all(not r.coupling_ok for r in flipped)
    assert any(not r.passed for r in flipped)


def test_annihilation_suite_skips_primes_over_field_budget():
    # at D = 1937 the admissible ell after 51853 is 53149, whose residue
    # degree k = 4 gives 53149^4 > 2^62: the suite skips it to 58111 instead
    # of raising BudgetExceeded inside make_field
    ctx = build_field(3, 1937, 0, 3)
    primes = list(islice(_suite_primes(ctx), 10))
    assert primes == [1087, 6661, 16987, 17389, 36847, 40231, 42019, 46489, 51853, 58111]
    assert 53149**4 > DEFAULT_FIELD_BUDGET
    assert pow(53149, 4, 1937 * 3) == 1 and all(pow(53149, k, 1937 * 3) != 1 for k in (1, 2, 3))


# at D = 8 the first suite prime is 2p + 1 = 7, the first candidate the scan visits
@pytest.mark.parametrize("p,D", [(3, 8), (3, 257), (3, 1229), (3, 1937), (5, 257), (7, 577)])
def test_suite_primes_match_a_scan_of_every_integer(p, D):
    ctx = build_field(p, D, 0, 3)
    M = D * p
    expected = []
    ell = 2
    while len(expected) < 10:
        ell += 1
        if ell % p != 1 or not is_prime(ell) or not ctx.splits_in_K(ell) or math.gcd(ell, M) != 1:
            continue
        k = next((k for k in range(1, _SUITE_K_MAX + 1) if pow(ell, k, M) == 1), None)
        if k is not None and ell**k <= DEFAULT_FIELD_BUDGET:
            expected.append(ell)
    assert list(islice(_suite_primes(ctx), 10)) == expected
