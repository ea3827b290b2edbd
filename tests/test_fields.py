import pytest

from cycfit.arith import kronecker
from cycfit.errors import BudgetExhausted, Ramified, SplitP
from cycfit.fields import (
    KolyvaginPrime,
    build_field,
    evaluation_primes,
    is_well_ordered,
    kolyvagin_primes,
)
from cycfit.groupring import chi_project


def test_build_field_flagship():
    ctx = build_field(3, 257, 0, 3)
    assert ctx.f_K == 257
    assert ctx.delta_divisors == (2,)
    assert chi_project(ctx.ring.monomial((1, 0))).coeffs == {(0,): 27 - 1}
    assert kronecker(257, 3) == -1


def test_build_field_ramified():
    with pytest.raises(Ramified):
        build_field(3, 12, 0, 2)


def test_build_field_split_p():
    # 13 = 1 mod 3 and (13|3) = 1, so chi(p) = 1
    with pytest.raises(SplitP):
        build_field(3, 13, 0, 2)


def test_kolyvagin_primes_first_is_13():
    ctx = build_field(3, 257, 0, 1)
    gen = kolyvagin_primes(ctx)
    kp = next(gen)
    assert kp.ell == 13
    assert kp.N_ell == 1
    # independent worked check: 257 = 10 mod 13 = 6^2 splits
    assert pow(6, 2, 13) == 257 % 13


def test_kolyvagin_primes_with_extra_modulus():
    ctx = build_field(3, 257, 0, 1)
    gen = kolyvagin_primes(ctx, extra_modulus=13)
    kp = next(gen)
    # sieve oracle: smallest prime = 1 mod 39 splitting in K
    ell = 40
    while True:
        from cycfit.arith import is_prime

        if is_prime(ell) and ell % 39 == 1 and kronecker(257, ell) == 1:
            break
        ell += 1
    assert kp.ell == ell == 79


def test_kolyvagin_primes_budget_zero():
    ctx = build_field(3, 257, 0, 1)
    gen = kolyvagin_primes(ctx, budget=0)
    with pytest.raises(BudgetExhausted):
        next(gen)


def test_well_ordered_examples():
    assert is_well_ordered(3, 2, (19, 2053))
    assert not is_well_ordered(3, 2, (19, 37))
    assert not is_well_ordered(3, 2, (37, 19))
    assert is_well_ordered(3, 2, ())
    assert not is_well_ordered(3, 2, (19, 19))


def test_kolyvagin_prime_tame_generator():
    kp = KolyvaginPrime.build(13, 3)
    # s_ell is the canonical primitive root mod 13 (smallest = 2)
    assert kp.s_ell == 2 and kp.N_ell == 1
    flipped = KolyvaginPrime.build(13, 3, flip_sigma=True)
    assert flipped.s_ell == pow(2, -1, 13)


def test_evaluation_primes_split_everything():
    ctx = build_field(3, 257, 0, 2)
    gen = evaluation_primes(ctx, 7)
    q = next(gen)
    assert q % (257 * 9 * 7) == 1


def test_level_validation():
    with pytest.raises(ValueError):
        build_field(3, 257, 0, 0)
    with pytest.raises(ValueError):
        build_field(3, 257, 1, 1)  # N >= m+1 required
