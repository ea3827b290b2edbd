"""The package's record types are plain classes (see README "Start-up").
These tests pin what callers rely on: value equality and hashing where the
package compares or hashes records, exact report fields, and the
constructor checks."""

import pytest

from cycfit.classgroup import narrow_class_group
from cycfit.combined import check_combined_identities
from cycfit.errors import (BadDecomposition, InsufficientPrecision, MixedAmbient, NotFundamental,
                           NotPrime, Ramified, SplitP)
from cycfit.fields import AbelianFieldCtx, KolyvaginPrime, build_field
from cycfit.fitting import Presentation
from cycfit.groupring import FiniteAbelianGroup, GroupRing, IdealNF
from cycfit.ideals import CycIdealRun, sample_cyclotomic_ideal
from cycfit.maps import annihilation_suite


def _ring(divisors=(2,), gamma=3, p=3, N=2):
    return GroupRing(FiniteAbelianGroup(divisors, gamma), p, N)


# (build from fields, base fields, one variant per field); every call builds
# fresh objects, nested records included, so equality is by value throughout
VALUE_RECORDS = {
    "FiniteAbelianGroup": (lambda d, g: FiniteAbelianGroup(d, g),
                           ((2,), 3), [((2, 2), 3), ((2,), 9)]),
    "GroupRing": (lambda g, p, N: GroupRing(FiniteAbelianGroup(*g), p, N),
                  (((2,), 3), 3, 2), [(((2,), 1), 3, 2), (((2,), 3), 5, 2),
                                      (((2,), 3), 3, 3)]),
    "IdealNF": (lambda N, rows: IdealNF(_ring(N=N), rows),
                (2, ((1, 0, 2, 0, 0, 0),)), [(3, ((1, 0, 2, 0, 0, 0),)),
                                             (2, ((1, 0, 1, 0, 0, 0),))]),
    "KolyvaginPrime": (lambda *f: KolyvaginPrime(*f),
                       (7, 3, 1, 3), [(13, 3, 1, 3), (7, 5, 1, 3), (7, 3, 2, 3),
                                      (7, 3, 1, 5)]),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_fields(name):
    build, base, variants = VALUE_RECORDS[name]
    a, b = build(*base), build(*base)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for fields in variants:
        other = build(*fields)
        assert a != other and not a == other
    assert a != base and a != object()


def test_rings_built_apart_mix_in_element_operations():
    # ctx.ring and GroupRing(ctx.group, p, N) are separate objects
    ctx = build_field(3, 257, 0, 3)
    twin = GroupRing(ctx.group, ctx.p, ctx.N)
    assert twin is not ctx.ring and twin == ctx.ring
    x, two = ctx.ring.one() + twin.one(), twin.monomial(ctx.group.identity(), 2)
    assert x == two and hash(x) == hash(two)


def test_report_records_expose_exactly_their_fields():
    # report entries are vars() of these records, in this order
    ctx = build_field(3, 257, 0, 3)
    anni = annihilation_suite(ctx, narrow_class_group(257), 1)
    formal = check_combined_identities(2)
    run = sample_cyclotomic_ideal(ctx, 0)
    for r in anni + [formal]:  # reading `passed` must leave nothing behind
        assert r.passed
    assert anni and run.samples
    assert [list(vars(r)) for r in anni] == [[
        "ell", "N_eff", "coupling_ok", "e", "e_valuation", "class_order", "annihilation_ok",
    ]] * len(anni)
    assert list(vars(formal)) == ["epsilon", "identity1", "identity2", "identity3"]
    assert [list(vars(s)) for s in run.samples] == [[
        "epsilon", "n", "factors", "kind", "param", "q", "vector", "chi_vector", "valuation",
        "in_fitting",
    ]] * len(run.samples)


def test_runs_start_with_their_own_sample_list():
    ideal = IdealNF(_ring(), ())
    a = CycIdealRun(3, 5, 0, 2, 0, 0, ideal)
    b = CycIdealRun(p=3, D=5, m=0, N=2, i=0, seed=0, ideal=ideal)
    a.samples.append("x")
    assert b.samples == [] and (b.stall, b.status) == (0, "OK")


@pytest.mark.parametrize("build,error", [
    (lambda: FiniteAbelianGroup((0,)), ValueError),
    (lambda: FiniteAbelianGroup((2,), 0), ValueError),
    (lambda: GroupRing(FiniteAbelianGroup((2,)), 4, 1), NotPrime),
    (lambda: GroupRing(FiniteAbelianGroup((3,)), 3, 1), BadDecomposition),
    (lambda: KolyvaginPrime.build(91, 3), ValueError),  # 91 = 7 * 13
    (lambda: KolyvaginPrime.build(11, 3), ValueError),  # 11 is not 1 mod 3
    (lambda: AbelianFieldCtx(9, 257, 0, 1), NotPrime),
    (lambda: AbelianFieldCtx(3, 9, 0, 1), NotFundamental),
    (lambda: AbelianFieldCtx(3, 257, 1, 1), InsufficientPrecision),
    (lambda: AbelianFieldCtx(3, 12, 0, 1), Ramified),
    (lambda: AbelianFieldCtx(3, 13, 0, 1), SplitP),
    (lambda: Presentation(_ring(), ()), ValueError),
    (lambda: Presentation(_ring(), ((_ring().one(),), ())), ValueError),  # ragged
    (lambda: Presentation(_ring(), ((_ring(N=3).one(),),)), MixedAmbient),
])
def test_constructor_checks_still_raise(build, error):
    with pytest.raises(error):
        build()
