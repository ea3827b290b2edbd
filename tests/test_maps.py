from itertools import count

import pytest

from cycfit.arith import is_prime
from cycfit.classgroup import narrow_class_group
from cycfit.config import Conventions
from cycfit.errors import DividesAux, PrecisionTooLow
from cycfit.fields import KolyvaginPrime, build_field, evaluation_primes, kolyvagin_primes
from cycfit.maps import (
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


def test_annihilation_refuses_primes_below_precision():
    # 1543 = 1 mod 3 * 257 but not mod 9, so N_ell = 1 < N = 3: e is known
    # only mod 3, and a pass at that level would say nothing
    ctx = build_field(3, 257, 0, 3)
    kp = KolyvaginPrime.build(1543, 3)
    assert kp.N_ell == 1
    with pytest.raises(PrecisionTooLow):
        annihilation_check(ctx, kp, narrow_class_group(257))


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


# the first three evaluation primes ell = 1 mod f_K * 27 at N = 3
@pytest.mark.parametrize("D,primes", [(257, [13879, 83269, 235927]),
                                      (1937, [732187, 941383, 1045981])], ids=["257", "1937"])
def test_suite_primes_are_the_first_evaluation_primes(D, primes):
    ctx = build_field(3, D, 0, 3)
    reports = annihilation_suite(ctx, narrow_class_group(D), 3)
    assert [r.ell for r in reports] == primes
    assert all(r.passed and r.N_eff == 3 for r in reports)



@pytest.mark.parametrize("p,D", [(3, 8), (3, 257), (3, 1229), (3, 1937), (5, 257), (7, 577)])
def test_suite_primes_match_a_scan_of_every_integer(p, D):
    # every prime ell that splits in K with residue degree 1 in
    # K(mu_{f_K p^N}), and so N_ell >= N, in ascending order
    ctx = build_field(p, D, 0, 3)
    expected = []
    for ell in count(2):
        if ell % ctx.f_K == 1 and (ell - 1) % p**3 == 0 and is_prime(ell):
            assert ctx.splits_in_K(ell)
            expected.append(ell)
            if len(expected) == 3:
                break
    reports = annihilation_suite(ctx, narrow_class_group(D), 3)
    assert [r.ell for r in reports] == expected
    assert all(r.N_eff == 3 for r in reports)


@pytest.mark.parametrize("D", [15629, 32009])
def test_suite_runs_at_full_precision_on_large_conductors(D):
    # |A_3| = 9 at both, so N = 4; the primes are 1 mod f_K * 81, where a
    # search by residue degree found too few below its bound
    oracle = narrow_class_group(D)
    assert sum(oracle.p_part_divisors(3)) == 2
    reports = annihilation_suite(build_field(3, D, 0, 4), oracle, 3)
    assert len(reports) == 3
    assert all(r.passed and r.N_eff == 4 and r.ell % (D * 81) == 1 for r in reports)
