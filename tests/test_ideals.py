import pytest

from cycfit.arith import kronecker
from cycfit.classgroup import narrow_class_group
from cycfit.fields import build_field, is_well_ordered
from cycfit.fitting import fitting_of_p_group
from cycfit.groupring import IdealNF
from cycfit.classgroup import fundamental_discriminants
from cycfit.ideals import (CycIdealRun, _divisor_generators, _preferred_chains,
                           sample_cyclotomic_ideal, stabilized)


def test_budget_zero_is_partial_with_zero_ideal():
    ctx = build_field(3, 257, 0, 3)
    run = sample_cyclotomic_ideal(ctx, 0, budget=0, window=5)
    assert run.status == "PARTIAL"
    assert run.ideal.is_zero_ideal()
    assert run.samples == []


def test_stabilized_predicate():
    ctx = build_field(3, 257, 0, 3)
    empty = CycIdealRun(p=3, D=257, m=0, N=3, i=0, seed=0,
                        ideal=IdealNF(ctx.chi_ring, ()))
    assert not stabilized(empty, 5)
    unit = CycIdealRun(p=3, D=257, m=0, N=3, i=0, seed=0,
                       ideal=IdealNF(ctx.chi_ring, ((1,),)))
    assert stabilized(unit, 5)


def test_flagship_i0_run():
    ctx = build_field(3, 257, 0, 3)
    fitt = fitting_of_p_group(3, 3, (1,), 0)
    run = sample_cyclotomic_ideal(ctx, 0, budget=200, seed=1, window=12,
                                  oracle_fitting=fitt)
    assert run.status == "OK"
    assert run.ideal.principal_valuation() == 1
    assert all(s.in_fitting for s in run.samples)


def test_determinism_and_transcript():
    ctx = build_field(3, 257, 0, 3)
    r1 = sample_cyclotomic_ideal(ctx, 0, budget=40, seed=7, window=8)
    r2 = sample_cyclotomic_ideal(ctx, 0, budget=40, seed=7, window=8)
    assert r1.to_dict() == r2.to_dict()
    d = r1.to_dict()
    assert d["ideal_valuation"] == 1
    assert all(set(s) >= {"n", "q", "valuation", "chi_vector"} for s in d["samples"])


def test_monotone_in_i_with_shared_base():
    ctx = build_field(3, 257, 0, 3)
    oracle = narrow_class_group(257)
    f0 = fitting_of_p_group(3, 3, (1,), 0)
    f1 = fitting_of_p_group(3, 3, (1,), 1)
    run0 = sample_cyclotomic_ideal(ctx, 0, budget=100, seed=0, window=12,
                                   oracle_fitting=f0, oracle_group=oracle)
    run1 = sample_cyclotomic_ideal(ctx, 1, budget=100, seed=0, window=12,
                                   oracle_fitting=f1, base_run=run0,
                                   oracle_group=oracle)
    assert run1.ideal.contains_ideal(run0.ideal)
    assert run1.ideal.is_unit_ideal()
    run2 = sample_cyclotomic_ideal(ctx, 2, budget=100, seed=0, window=12,
                                   base_run=run1, oracle_group=oracle)
    assert run2.ideal.is_unit_ideal()
    assert len(run2.samples) == len(run1.samples)  # inherited, no new work


def test_preferred_chains_are_well_ordered():
    chains = _preferred_chains(build_field(3, 257, 0, 1), 2)
    assert [c for c in chains if not c] == [()]
    assert any(len(c) == 2 for c in chains)
    for c in chains:
        assert is_well_ordered(3, 1, c)
        for ell in c:
            assert ell % 3 == 1 and kronecker(257, ell) == 1


def test_sampler_oracle_arguments_are_keyword_only():
    # bench/spans.py reads base_run by keyword, so no caller may pass it by position
    ctx = build_field(3, 257, 0, 3)
    with pytest.raises(TypeError):
        sample_cyclotomic_ideal(ctx, 0, 0, 0, 5, None, None)


def test_divisor_generators_list_every_divisor_in_decreasing_order():
    for D in [D for D in fundamental_discriminants(2000) if D % 3 == 2] + [32009, 39992]:
        ctx = build_field(3, D, 0, 1)
        divs = sorted((d for d in range(2, D + 1) if D % d == 0), reverse=True)
        assert _divisor_generators(ctx) == [("d", d) for d in divs] + [("a", 2)], D
