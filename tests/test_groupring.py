import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycfit.errors import MixedAmbient
from cycfit.groupring import (
    FiniteAbelianGroup,
    GroupRing,
    chi_project,
    howell_form,
    ideal_join,
    ideal_normal_form,
    principal_ideal,
    scalar_ring,
)


def z2_ring(p=3, N=2):
    return GroupRing(FiniteAbelianGroup((2,), 1), p, N)


def sign_sum(x):
    """sum_g (-1)^{g[0]} c_g * gamma_g, written out coordinate by coordinate."""
    out = {}
    for g, c in x.coeffs.items():
        out[(g[-1],)] = out.get((g[-1],), 0) + (-1) ** g[0] * c
    return {k: v % x.ring.mod for k, v in out.items() if v % x.ring.mod}


@pytest.mark.parametrize("delta,gamma", [((2,), 1), ((2,), 9), ((2, 3), 1), ((2, 2), 27),
                                         ((), 1), ((), 3), ((2, 3), 25)])
def test_elements_are_listed_once_in_lexicographic_order(delta, gamma):
    # GroupRing.basis is this sequence, and the evaluator of units reads each
    # conjugate with g[0] = 1 from its partner with g[0] = 0, listed before it
    group = FiniteAbelianGroup(delta, gamma)
    elements = list(group.elements())
    assert elements[0] == group.identity()
    assert elements == sorted(set(elements))
    assert len(elements) == group.order
    assert all(0 <= x < d for g in elements for x, d in zip(g, group.divisors))
    assert GroupRing(group, 5, 1).basis == tuple(elements)


def test_chi_project_identity():
    ring = z2_ring()
    one = ring.one()
    out = chi_project(one)
    assert out.coeffs == {(0,): 1}


def test_chi_project_kills_norm_element():
    ring = z2_ring(3, 2)  # Z/9[Z/2]
    sigma = (1, 0)
    x = ring.one() + ring.monomial(sigma)
    assert chi_project(x).is_zero()


def test_chi_project_one_minus_sigma_is_two():
    ring = z2_ring(3, 2)
    x = ring.one() - ring.monomial((1, 0))
    out = chi_project(x)
    assert out.coeffs == {(0,): 2}


def test_chi_project_is_ring_hom():
    ring = z2_ring(3, 3)
    rng = random.Random(11)
    for _ in range(30):
        x = ring.element({g: rng.randrange(27) for g in ring.group.elements()})
        y = ring.element({g: rng.randrange(27) for g in ring.group.elements()})
        assert chi_project(x * y) == chi_project(x) * chi_project(y)
        assert chi_project(x + y) == chi_project(x) + chi_project(y)


@pytest.mark.parametrize("delta,gamma,p,N", [
    ((2, 2), 1, 5, 2),  # p = 5: chi is trivial on the second coordinate
    ((2,), 3, 3, 2),  # m = 1: the Gamma coordinate is kept
    ((2, 3), 7, 7, 2),
])
def test_chi_project_is_sign_of_k_coordinate(delta, gamma, p, N):
    ring = GroupRing(FiniteAbelianGroup(delta, gamma), p, N)
    rng = random.Random(7)
    for _ in range(10):
        x = ring.element({g: rng.randrange(ring.mod) for g in ring.group.elements()})
        out = chi_project(x)
        assert out.ring == GroupRing(FiniteAbelianGroup((), gamma), p, N)
        assert out.coeffs == sign_sum(x)


@pytest.mark.parametrize("delta", [(), (3,)])
def test_chi_project_needs_k_coordinate_first(delta):
    ring = GroupRing(FiniteAbelianGroup(delta, 1), 5, 1)
    with pytest.raises(MixedAmbient):
        chi_project(ring.one())


def gamma_ring(p=3, N=2, m=1):
    return GroupRing(FiniteAbelianGroup((), p**m), p, N)


def test_ideal_nf_zero_and_gcd():
    ring = scalar_ring(3, 3)  # Z/27
    z = ideal_normal_form([ring.zero()], ring)
    assert z.rows == ()
    nf = ideal_normal_form([ring.monomial((0,), 6), ring.monomial((0,), 9)], ring)
    assert nf.rows == ((3,),)
    assert nf.principal_valuation() == 1


def brute_ideal_elements(ring, gens):
    """All elements of the ideal generated by gens (tiny rings only)."""
    elems = {ring.zero()}
    # R-multiples of each generator
    coeff_space = list(itertools.product(range(ring.mod), repeat=ring.group.order))
    multiples = set()
    for g in gens:
        for coeffs in coeff_space:
            r = ring.from_vector(coeffs)
            multiples.add(r * g)
    frontier = set(multiples)
    while frontier:
        new = set()
        for a in frontier:
            for b in multiples:
                c = a + b
                if c not in elems:
                    new.add(c)
        elems |= frontier
        frontier = new - elems
    return elems


def test_gamma_minus_one_lattice_index():
    ring = gamma_ring(3, 2, 1)  # Z/9[Z/3]
    g = ring.monomial((1,)) - ring.one()
    nf = ideal_normal_form([g], ring)
    elems = brute_ideal_elements(ring, [g])
    # rank-2 sublattice of index 9 in the 729-element ambient
    assert len(elems) == 81
    assert len(nf.rows) == 2
    for e in elems:
        assert nf.contains_vector(e.vector())
    count = sum(1 for coeffs in itertools.product(range(9), repeat=3)
                if nf.contains_vector(coeffs))
    assert count == 81


def test_ideal_contains_examples():
    ring27 = scalar_ring(3, 3)
    nf3 = ideal_normal_form([ring27.monomial((0,), 3)], ring27)
    assert nf3.contains_vector(ring27.monomial((0,), 6).vector())
    assert not nf3.contains_vector(ring27.one().vector())
    ring = gamma_ring(3, 2, 1)
    gamma1, gamma2 = ring.monomial((1,)), ring.monomial((2,))
    nf = ideal_normal_form([gamma1 - ring.one(), ring.monomial(ring.group.identity(), 3)], ring)
    assert nf.contains_vector((gamma2 - ring.one()).vector())


def test_nf_idempotent_and_order_independent():
    ring = gamma_ring(3, 2, 1)
    rng = random.Random(23)
    for _ in range(15):
        gens = [ring.from_vector([rng.randrange(9) for _ in range(3)]) for _ in range(3)]
        nf = ideal_normal_form(gens, ring)
        assert ideal_normal_form(nf.generators(), ring) == nf
        perm = gens[::-1]
        assert ideal_normal_form(perm, ring) == nf


def test_nf_monotone():
    ring = gamma_ring(3, 2, 1)
    rng = random.Random(29)
    for _ in range(15):
        gens = [ring.from_vector([rng.randrange(9) for _ in range(3)]) for _ in range(2)]
        extra = ring.from_vector([rng.randrange(9) for _ in range(3)])
        small = ideal_normal_form(gens, ring)
        big = ideal_normal_form(gens + [extra], ring)
        assert big.contains_ideal(small)


def test_bad_decomposition_rejected():
    from cycfit.errors import BadDecomposition

    with pytest.raises(BadDecomposition):
        GroupRing(FiniteAbelianGroup((3,), 1), 3, 2)  # |Delta| shares p


def test_mixed_ambient_rejected():
    r1 = scalar_ring(3, 2)
    r2 = scalar_ring(3, 3)
    with pytest.raises(MixedAmbient):
        ideal_normal_form([r1.one(), r2.one()], r1)


def test_howell_form_is_canonical_under_row_shuffle():
    rng = random.Random(31)
    for _ in range(20):
        rows = [[rng.randrange(27) for _ in range(4)] for _ in range(5)]
        h1 = howell_form(rows, 3, 3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert howell_form(shuffled, 3, 3) == h1


def test_nf_absorbs_linear_combinations():
    ring = gamma_ring(3, 2, 1)
    rng = random.Random(37)
    for _ in range(15):
        gens = [ring.from_vector([rng.randrange(9) for _ in range(3)]) for _ in range(2)]
        combo = gens[0] * ring.from_vector([rng.randrange(9) for _ in range(3)]) + gens[1] * 2
        assert ideal_normal_form(gens + [combo], ring) == ideal_normal_form(gens, ring)


def test_principal_ideal_semantics():
    assert principal_ideal(3, 3, 0).is_unit_ideal()
    assert principal_ideal(3, 3, 3).rows == ()
    assert principal_ideal(3, 3, 2).rows == ((9,),)


def test_ideal_join():
    ring = scalar_ring(3, 3)
    a = ideal_normal_form([ring.monomial((0,), 9)], ring)
    b = ideal_normal_form([ring.monomial((0,), 3)], ring)
    assert ideal_join(a, b) == b


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_unit_check_agrees_with_membership(data):
    # Z/3^N and Z/3^N[Gamma_1], Gamma_1 cyclic of order 3
    N = data.draw(st.integers(1, 4))
    ring = GroupRing(FiniteAbelianGroup((), data.draw(st.sampled_from([1, 3]))), 3, N)
    width = ring.group.order
    vectors = data.draw(st.lists(st.lists(st.integers(0, ring.mod - 1), min_size=width,
                                          max_size=width), max_size=3))
    nf = ideal_normal_form([ring.from_vector(v) for v in vectors], ring)
    assert nf.is_unit_ideal() == nf.contains_vector(ring.one().vector())
    assert nf.is_unit_ideal() == nf.contains_vector(ring.one().vector())  # cached


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_membership_decides_the_join(data):
    # x lies in I exactly when joining the ideal (x) leaves I unchanged, in
    # Z/3^N[Gamma_m] at m = 1 and 2; x is drawn at random or from I itself
    N = data.draw(st.integers(1, 3))
    ring = GroupRing(FiniteAbelianGroup((), data.draw(st.sampled_from([3, 9]))), 3, N)
    width = ring.group.order
    vector = st.lists(st.integers(0, ring.mod - 1), min_size=width, max_size=width)
    gens = [ring.from_vector(v) for v in data.draw(st.lists(vector, max_size=3))]
    ideal = ideal_normal_form(gens, ring)
    if ideal.rows and data.draw(st.booleans()):
        x = [0] * width
        for row in ideal.rows:
            c = data.draw(st.integers(0, ring.mod - 1))
            x = [(a + c * b) % ring.mod for a, b in zip(x, row)]
    else:
        x = data.draw(vector)
    joined = ideal_join(ideal, ideal_normal_form([ring.from_vector(x)], ring))
    assert ideal.contains_vector(x) == (joined == ideal)
