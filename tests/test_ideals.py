import hashlib
import json
import math
import sys

import pytest

from cycfit.arith import kronecker
from cycfit.cli import _sanitize, run_verify
from cycfit.fields import (build_field, chain_primes, evaluation_primes, is_well_ordered,
                           kolyvagin_primes)
from cycfit.fitting import fitting_of_p_group
from cycfit.groupring import IdealNF, chi_project
from cycfit.classgroup import fundamental_discriminants
from cycfit.ideals import CycIdealRun, _preferred_chains, sample_cyclotomic_ideal, stabilized
from cycfit import units
from cycfit.units import derivative_class, evaluate_kappa


def test_budget_zero_is_partial_with_zero_ideal():
    ctx = build_field(3, 257, 0, 3)
    run = sample_cyclotomic_ideal(ctx, 0, budget=0, window=5)
    assert run.status == "PARTIAL"
    assert run.ideal.rows == ()
    assert run.samples == []


def test_chains_stop_at_the_field_budget():
    # at D = 257, N = 3 the first fourth-level auxiliary prime of every
    # three-prime prefix lies above the field budget 2^62, so i = 4 lists
    # the chains of i = 3 (a chain of four would exceed the derivative cap)
    ctx = build_field(3, 257, 0, 3)
    assert _preferred_chains(ctx, 4) == _preferred_chains(ctx, 3)


def test_stabilized_predicate():
    ctx = build_field(3, 257, 0, 3)
    empty = CycIdealRun(p=3, D=257, m=0, N=3, i=0, seed=0,
                        ideal=IdealNF(ctx.ring.chi_quotient, ()))
    assert not stabilized(empty, 5)
    unit = CycIdealRun(p=3, D=257, m=0, N=3, i=0, seed=0,
                       ideal=IdealNF(ctx.ring.chi_quotient, ((1,),)))
    assert stabilized(unit, 5)


def test_flagship_i0_run():
    ctx = build_field(3, 257, 0, 3)
    fitt = fitting_of_p_group(3, 3, (1,), 0)
    run = sample_cyclotomic_ideal(ctx, 0, budget=200, seed=1, window=12,
                                  oracle_fitting=fitt)
    assert run.status == "OK"
    assert run.ideal.principal_valuation() == 1
    assert all(s.in_fitting for s in run.samples)


def test_tower_c0_at_m1_is_pinned():
    # ROADMAP item 6's C_0(1) = (1 + 2 gamma^2, gamma + 2 gamma^2, 3 gamma^2)
    # over Z/9[Gamma_1], which is not principal: the two samples that grow
    # it are followed by a window of samples already inside it
    run = sample_cyclotomic_ideal(build_field(3, 257, 1, 2), 0)
    assert run.ideal.rows == ((1, 0, 2), (0, 1, 2), (0, 0, 3))
    assert (len(run.samples), run.stall, run.status) == (52, 50, "OK")


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
    f0 = fitting_of_p_group(3, 3, (1,), 0)
    f1 = fitting_of_p_group(3, 3, (1,), 1)
    run0 = sample_cyclotomic_ideal(ctx, 0, budget=100, seed=0, window=12,
                                   oracle_fitting=f0)
    run1 = sample_cyclotomic_ideal(ctx, 1, budget=100, seed=0, window=12,
                                   oracle_fitting=f1, base_run=run0)
    assert run1.ideal.contains_ideal(run0.ideal)
    assert run1.ideal.is_unit_ideal()
    run2 = sample_cyclotomic_ideal(ctx, 2, budget=100, seed=0, window=12,
                                   base_run=run1)
    assert run2.ideal.is_unit_ideal()
    assert len(run2.samples) == len(run1.samples)  # inherited, no new work


def test_preferred_chains_are_well_ordered():
    ctx = build_field(3, 257, 0, 1)
    chains = _preferred_chains(ctx, 2)
    assert [c for c in chains if not c] == [()]
    for c in chains:
        ells = [kp.ell for kp in c]
        assert is_well_ordered(3, 1, ells)
        for ell in ells:
            assert ell % 3 == 1 and kronecker(257, ell) == 1
    # breadth first; each prefix takes the 6 smallest auxiliary primes, in
    # increasing order, exactly as kolyvagin_primes yields them
    assert len(chains) == 1 + 6 + 6 * 6
    assert [len(c) for c in chains] == sorted(len(c) for c in chains)
    for prefix in [()] + [c for c in chains if len(c) == 1]:
        gen = kolyvagin_primes(ctx, extra_modulus=math.prod(kp.ell for kp in prefix))
        assert [c for c in chains if c[:-1] == prefix and c] == [
            prefix + (next(gen),) for _ in range(6)], prefix


def test_sampler_transcript_is_pinned():
    # sha256 of the canonical `cyclotomic` section of `verify` at CLI defaults
    # (the annihilation suite does not touch it): any change to chain order,
    # evaluation-prime order, pruning or the stopping rule shows here
    pinned = {
        (257, 0): "a5837902022f377bd5e35c45751d7ca6a6e7147186a27e672313e30f25af86f9",
        (257, 4): "c1169fc07b6b1f994e859b50bc64bcf78140a6e56eee7e2d8800b8591381e335",
        (785, 0): "54d7036e373a5e6b8b2786a9e43d45c45c67308b0aae70d22f6694dca5f56463",
        (785, 4): "82b5cf71b8aff069a5751245e5a081b869252c22b8faf06a5a5366f322e226e3",
        (3137, 0): "3f4091eca25f61bc23d6db863e7c16507d1cd41c00e5a098f93b705fc65bcc9b",
        (3137, 4): "bb27d16861ed3a7cc58a9b16bae7b83b4d3a6837a10ed74138194f13a46951ab",
    }
    for (D, seed), digest in pinned.items():
        rep = run_verify(3, D, seed=seed, anni_count=0, quiet=True)
        blob = json.dumps(_sanitize(rep["cyclotomic"]), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, (D, seed)


def test_chains_over_the_derivative_cap_are_dropped(monkeypatch):
    # every auxiliary prime at N = 3 is 1 mod 27, so each epsilon = 1 chain
    # expands to ell - 2 > 10 multi-indices: with the cap at 10 all six are
    # dropped on first visit and only the empty chain is drawn until the
    # stall window fills
    monkeypatch.setattr("cycfit.units.DEFAULT_DERIVATIVE_CAP", 10)
    ctx = build_field(3, 257, 0, 3)
    run = sample_cyclotomic_ideal(ctx, 1, budget=500, window=12)
    assert run.status == "OK" and run.stall == 12
    assert {s.epsilon for s in run.samples} == {0}
    assert run.ideal.principal_valuation() == 1
    # the ideal settles at the first draw, so the window fills right after it
    assert len(run.samples) == 1 + 12


def test_sampler_oracle_arguments_are_keyword_only():
    # bench/spans.py reads base_run by keyword, so no caller may pass it by position
    ctx = build_field(3, 257, 0, 3)
    with pytest.raises(TypeError):
        sample_cyclotomic_ideal(ctx, 0, 0, 0, 5, None, None)


def test_undrawn_generators_have_zero_chi_projection():
    # the sampler draws only d = f_K: a unit at a proper divisor d | f_K, or
    # the a-type unit, lies in a field without K, so chi kills its class;
    # the d = f_K class at the same points is not always killed
    def chi_value(ctx, kind, param, chain, q):
        cls = derivative_class(ctx, kind, param, chain_primes(ctx, chain))
        return chi_project(evaluate_kappa(ctx, cls, q)).vector()

    evaluations = 0
    for D in (785, 1016, 1820, 1937, 3137):
        ctx = build_field(3, D, 0, 3)
        aux = kolyvagin_primes(ctx)
        chains = [(), (next(aux).ell,), (next(aux).ell,)]
        generators = [("d", d) for d in range(2, D) if D % d == 0] + [("a", 2)]
        live = 0
        for chain in chains:
            qs = evaluation_primes(ctx, math.prod(chain))
            for q in (next(qs) for _ in range(3)):
                live += any(chi_value(ctx, "d", D, chain, q))
                for kind, param in generators:
                    assert not any(chi_value(ctx, kind, param, chain, q)), (D, chain, q, kind)
                    evaluations += 1
        assert live, D
    assert evaluations == 333


def test_corpus_matches_at_every_sampler_seed():
    # criterion-2 settings at seeds 1-9 (criterion 2 itself runs seed 0)
    corpus = [D for D in fundamental_discriminants(2000) if D % 3 == 2]
    for seed in range(1, 10):
        for D in corpus:
            rep = run_verify(3, D, i_max=2, budget=500, window=50, seed=seed,
                             anni_count=0, quiet=True)
            assert set(rep["verdicts"].values()) == {"MATCH"}, (seed, D, rep["verdicts"])


@pytest.mark.parametrize("D", [3137, 4409])
def test_proper_fitting_ideal_of_a_z9_field_is_matched(D):
    # 3-part Z/9: C_0 = Fitt_0 = (9), Fitt_1 = Fitt_2 = (1)
    rep = run_verify(3, D, seed=0, anni_count=0, quiet=True)
    assert rep["oracle"]["p_part_divisors"] == [2]
    assert rep["verdicts"] == {"0": "MATCH", "1": "MATCH", "2": "MATCH"}
    assert rep["cyclotomic"]["0"]["ideal_valuation"] == 2
    assert rep["fitting"]["0"]["p_valuation"] == 2


def _clear_caches():
    """Empty every functools cache of the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "cycfit" or name.startswith("cycfit."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


# (p, D, m, N): sampler runs at i <= 1 at p = 3 and 5, m = 0 and 1
CACHED_RUNS = [(3, 257, 0, 3), (3, 257, 1, 2), (3, 761, 0, 3), (3, 761, 1, 2), (5, 8, 0, 2)]


@pytest.mark.parametrize("p,D,m,N", CACHED_RUNS)
def test_cached_chain_evaluators_match_fresh_evaluation(p, D, m, N):
    # each sample was drawn through the evaluator its chain built once
    # (units._chain_evaluator); evaluated again with every cache emptied, it
    # gives the same vector
    ctx = build_field(p, D, m, N)
    run = None
    for i in (0, 1):
        run = sample_cyclotomic_ideal(ctx, i, budget=12, window=6, base_run=run)
    # the p = 3 runs reach chains of one prime; Q(sqrt 8) has no 5-part
    assert any(sample.epsilon for sample in run.samples) == (p == 3)
    for sample in run.samples:
        _clear_caches()
        cls = derivative_class(ctx, "d", D, chain_primes(ctx, sample.factors))
        assert evaluate_kappa(ctx, cls, sample.q).vector() == sample.vector, sample.q


def test_sampler_builds_one_support_per_chain(monkeypatch):
    # each chain's evaluator builds its auxiliary support once and every
    # EvalContext of the sample path reads it: one units._Support per
    # distinct chain, however many evaluation primes the chain is sampled at
    built = []

    class CountedSupport(units._Support):
        def __init__(self, group, p, m, f, aux):
            built.append(aux)
            super().__init__(group, p, m, f, aux)

    _clear_caches()
    monkeypatch.setattr(units, "_Support", CountedSupport)
    ctx = build_field(3, 257, 0, 3)
    run = None
    for i in (0, 1):
        run = sample_cyclotomic_ideal(ctx, i, base_run=run)
    _clear_caches()
    chains = {sample.factors for sample in run.samples}
    assert sorted(built) == sorted(chains)
    assert len(run.samples) > len(chains)
