import random

import pytest

from cycfit.errors import InsufficientPrecision
from cycfit.fitting import (
    Presentation,
    diagonal_presentation,
    fitting_ideal,
    fitting_of_p_group,
)
from cycfit.groupring import (
    FiniteAbelianGroup,
    GroupRing,
    ideal_normal_form,
    ideal_product,
    scalar_ring,
)


def presentation_from_ints(ring, int_rows):
    """The presentation whose entries are the integers of int_rows."""
    ident = ring.group.identity()
    return Presentation(ring, tuple(tuple(ring.monomial(ident, c) for c in row)
                                    for row in int_rows))


def test_diagonal_example():
    ring = scalar_ring(3, 5)
    P = diagonal_presentation(ring, [3, 9])
    assert fitting_ideal(P, 0) == ideal_normal_form([ring.monomial((0,), 27)], ring)
    assert fitting_ideal(P, 1) == ideal_normal_form([ring.monomial((0,), 3)], ring)
    assert fitting_ideal(P, 2).is_unit_ideal()


def test_empty_matrix_branches():
    ring = scalar_ring(3, 4)
    P = Presentation(ring, ((),) * 2)  # n = 2, m = 0
    assert fitting_ideal(P, 0).rows == ()
    assert fitting_ideal(P, 1).rows == ()
    assert fitting_ideal(P, 2).is_unit_ideal()


def test_group_ring_determinant_example():
    ring = GroupRing(FiniteAbelianGroup((), 3), 3, 2)  # Z/9[Z/3]
    gm1 = ring.monomial((1,)) - ring.one()
    three = ring.monomial(ring.group.identity(), 3)
    P = Presentation(ring, ((gm1, three), (ring.zero(), gm1)))
    f0 = fitting_ideal(P, 0)
    # hand-expanded determinant (gamma-1)^2 = gamma^2 - 2 gamma + 1
    g2 = ring.monomial((2,))
    g1 = ring.monomial((1,))
    det = g2 - 2 * g1 + ring.one()
    assert det == gm1 * gm1
    assert f0 == ideal_normal_form([det], ring)


def test_fitting_of_p_group_examples():
    assert fitting_of_p_group(3, 3, (1,), 0).rows == ((3,),)
    assert fitting_of_p_group(3, 3, (1,), 1).is_unit_ideal()
    assert fitting_of_p_group(3, 3, (), 0).is_unit_ideal()
    assert fitting_of_p_group(3, 3, (), 5).is_unit_ideal()
    assert fitting_of_p_group(3, 5, (2, 1), 0).rows == ((27,),)
    assert fitting_of_p_group(3, 5, (2, 1), 1).rows == ((3,),)
    with pytest.raises(InsufficientPrecision):
        fitting_of_p_group(3, 3, (2, 1), 0)
    with pytest.raises(ValueError):
        fitting_of_p_group(3, 5, (1, 2), 0)


def test_fitting_of_p_group_matches_minors():
    for divisors in ((1,), (2, 1), (3, 2, 2), (2, 2, 1)):
        N = sum(divisors) + 2
        ring = scalar_ring(3, N)
        P = diagonal_presentation(ring, [3**d for d in divisors])
        for i in range(len(divisors) + 2):
            assert fitting_ideal(P, i) == fitting_of_p_group(3, N, divisors, i)


def random_matrix(ring, n, m, rng):
    return tuple(
        tuple(
            ring.element({g: rng.randrange(ring.mod) for g in ring.group.elements()})
            for _ in range(m)
        )
        for _ in range(n)
    )


def test_fitting_chain():
    ring = GroupRing(FiniteAbelianGroup((), 3), 3, 3)
    rng = random.Random(17)
    for _ in range(10):
        P = Presentation(ring, random_matrix(ring, 3, 3, rng))
        for i in range(3):
            assert fitting_ideal(P, i + 1).contains_ideal(fitting_ideal(P, i))


def test_presentation_invariance():
    ring = scalar_ring(5, 3)
    rng = random.Random(19)
    for _ in range(10):
        rows = [[rng.randrange(125) for _ in range(3)] for _ in range(3)]
        P = presentation_from_ints(ring, rows)
        # swap two relation columns and add a zero column
        swapped = [[r[1], r[0], r[2], 0] for r in rows]
        Q = presentation_from_ints(ring, swapped)
        # add a multiple of row 0 to row 1 (change of generators)
        mixed = [rows[0], [a + 2 * b for a, b in zip(rows[1], rows[0])], rows[2]]
        R = presentation_from_ints(ring, mixed)
        for i in range(4):
            fi = fitting_ideal(P, i)
            assert fitting_ideal(Q, i) == fi
            assert fitting_ideal(R, i) == fi


def test_block_containments():
    # for presentations C = [[A, *], [0, B]] of an extension of N by L:
    # Fitt_i(M) in Fitt_i(L), Fitt_i(M) in Fitt_i(N),
    # Fitt_i(L) Fitt_0(N) in Fitt_i(M), Fitt_0(L) Fitt_i(N) in Fitt_i(M)
    ring = scalar_ring(3, 4)
    rng = random.Random(23)
    for _ in range(10):
        A = [[rng.randrange(81) for _ in range(2)] for _ in range(2)]
        B = [[rng.randrange(81) for _ in range(2)] for _ in range(2)]
        X = [[rng.randrange(81) for _ in range(2)] for _ in range(2)]
        C = [A[0] + X[0], A[1] + X[1], [0, 0] + B[0], [0, 0] + B[1]]
        pa = presentation_from_ints(ring, A)
        pb = presentation_from_ints(ring, B)
        pc = presentation_from_ints(ring, C)
        for i in range(3):
            fm = fitting_ideal(pc, i)
            fl = fitting_ideal(pa, i)
            fn = fitting_ideal(pb, i)
            assert fitting_ideal(pa, i).contains_ideal(fm)
            assert fitting_ideal(pb, i).contains_ideal(fm)
            assert fm.contains_ideal(ideal_product(fl, fitting_ideal(pb, 0)))
            assert fm.contains_ideal(ideal_product(fitting_ideal(pa, 0), fn))


def test_direct_sum_fitt0_multiplicative():
    ring = scalar_ring(3, 6)
    rng = random.Random(29)
    for _ in range(10):
        d1 = [3 ** rng.randrange(2) for _ in range(2)]
        d2 = [3 ** rng.randrange(2) for _ in range(2)]
        p1 = diagonal_presentation(ring, d1)
        p2 = diagonal_presentation(ring, d2)
        ps = diagonal_presentation(ring, d1 + d2)
        assert fitting_ideal(ps, 0) == ideal_product(fitting_ideal(p1, 0), fitting_ideal(p2, 0))


def test_size_guard():
    ring = scalar_ring(3, 2)
    with pytest.raises(ValueError):
        presentation_from_ints(ring, [[1] * 13 for _ in range(13)])
