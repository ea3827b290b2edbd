"""Evaluation-engine tests.

The heavyweight oracle here computes the quadratic basic circular unit
exactly in Z[zeta_M] (cyclic-convolution arithmetic on integer vectors, trace
formulas, Gauss-sum resolution of sqrt(D)) and compares the residue engine
against it at several evaluation primes, conjugate by conjugate.  That
shares no arithmetic with the F_q engine.
"""

import math
from itertools import count, islice

import pytest

from cycfit.arith import _smallest_generator, crt, is_prime, kronecker, val_p
from cycfit.classgroup import fundamental_discriminants
from cycfit.config import DEFAULT_DERIVATIVE_CAP, DEFAULT_FIELD_BUDGET
from cycfit.errors import BudgetExceeded, BudgetExhausted, ConductorClash, NotPrime, NotSplit
from cycfit.fields import (KolyvaginPrime, build_field, chain_primes, evaluation_primes,
                           kolyvagin_primes)
from cycfit.groupring import chi_project
from cycfit.units import (
    EvalContext,
    derivative_class,
    evaluate_kappa,
    _chirp_axis,
    _kernel,
    _orbit_value,
    _walk,
    norm_relation_check,
    splits_completely,
)


def _unit_at(ctx, cls, q):
    """The class's basic unit reduced at the distinguished prime above q."""
    return EvalContext(ctx, cls.aux, q).symbol_value(cls, 1)


def _mu(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _phi(n):
    out, d, m = n, 2, n
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


def exact_eta_quadratic(D, p):
    """eta^D_0(1) = (T + U*sqrt(D))/2 via exact arithmetic in Z[zeta_{Dp}]."""
    M = D * p
    u = p + D
    S = [
        crt([x % D, y], [D, p])
        for x in range(1, D)
        if math.gcd(x, D) == 1 and kronecker(D, x) == 1
        for y in (1, p - 1)
    ]
    vec = [0] * M
    vec[0] = 1
    for t in S:
        e = u * t % M
        vec = [vec[j] - vec[(j - e) % M] for j in range(M)]
    phiM = _phi(M)
    tr = [_mu(M // math.gcd(M, j)) * (phiM // _phi(M // math.gcd(M, j))) for j in range(M)]
    T0 = sum(c * tr[j] for j, c in enumerate(vec))
    gsupport = [(x * (M // D) % M, kronecker(D, x)) for x in range(1, D) if math.gcd(x, D) == 1]
    prod2 = [0] * M
    for j, c in enumerate(vec):
        if c:
            for e, s in gsupport:
                prod2[(j + e) % M] += c * s
    T1 = sum(c * tr[j] for j, c in enumerate(prod2))
    half = phiM // 2
    assert T0 % half == 0 and T1 % (half * D) == 0
    T, U = T0 // half, T1 // (half * D)
    assert T * T - D * U * U in (4, -4)  # eta is a unit of O_K
    return T, U


def test_engine_matches_exact_cyclotomic_oracle():
    for D in (8, 44, 257):
        assert kronecker(D, 3) == -1  # 3 is inert in K
        T, U = exact_eta_quadratic(D, 3)
        ctx = build_field(3, D, 0, 1)
        gen = evaluation_primes(ctx, 1, level=1)
        for _ in range(3):
            q = next(gen)
            ev = EvalContext(ctx, (), q)
            zD = pow(ev.zeta, ev.M // D, q)
            w = 0
            for x in range(1, D):
                if math.gcd(x, D) == 1:
                    w = (w + kronecker(D, x) * pow(zD, x, q)) % q
            assert w * w % q == D % q
            inv2 = pow(2, -1, q)
            assert ev.factor_value("d", D, 1) == (T + U * w) * inv2 % q
            assert ev.factor_value("d", D, ev.support.lifts[(1, 0)]) == (T - U * w) * inv2 % q


def test_eta_257_frozen_exact_value():
    # regression pin of the exact unit (derived by the cyclotomic oracle)
    assert exact_eta_quadratic(257, 3) == (1080042498, 67371200)


def test_a_type_units_trivial_for_p3_level0():
    ctx = build_field(3, 257, 0, 1)
    q = next(evaluation_primes(ctx, 1, level=1))
    for a in (2, 4, 5):
        assert _unit_at(ctx, derivative_class(ctx, "a", a, ()), q) == 1
    kp = next(kolyvagin_primes(ctx))
    q2 = next(evaluation_primes(ctx, kp.ell, level=1))
    assert _unit_at(ctx, derivative_class(ctx, "a", 2, (kp,)), q2) == 1


def test_conductor_clash():
    ctx = build_field(3, 257, 0, 1)
    with pytest.raises(ConductorClash):
        EvalContext(ctx, (), 257)


# (kind, param, chain, error, message) at D = 473 = 11 * 43, p = 3
@pytest.mark.parametrize("kind,param,chain,error,message", [
    ("d", 1, (), ConductorClash, "d = 1 must divide the conductor and exceed 1"),
    ("d", 3, (), ConductorClash, "d = 3 must divide the conductor and exceed 1"),
    ("a", 6, (), ConductorClash, "a = 6 must be prime to p"),
    ("d", 473, (43,), ConductorClash, "auxiliary product must be prime to p*f_K"),
    ("b", 2, (), ValueError, "unknown factor kind 'b'"),
])
def test_derivative_class_checks(kind, param, chain, error, message):
    ctx = build_field(3, 473, 0, 1)
    kps = tuple(KolyvaginPrime.build(ell, 3) for ell in chain)
    with pytest.raises(error) as info:
        derivative_class(ctx, kind, param, kps)
    assert str(info.value) == message


def _context_over(D):
    """An EvalContext over Q(sqrt D) with no auxiliary prime, at the
    first odd prime p inert in it and the first prime q = 1 mod p D."""
    p = next(p for p in count(3) if is_prime(p) and kronecker(D, p) == -1)
    q = next(q for q in count(1 + 2 * p * D, 2 * p * D) if is_prime(q))
    return EvalContext(build_field(p, D, 0, 1), (), q)


def test_norm_sets_from_component_tables():
    # both 2-parts (4 || 12, 8 || 24) and odd components of both signs at -1
    # (r = 3 mod 4 at 12, r = 1 mod 4 at 5); 32009 and 39992 lie beyond the
    # D < 2000 corpus, and 3080 = 8 * 5 * 7 * 11, 32045 = 5 * 13 * 17 * 29
    # have four components.  norm_set_d pairs R_d, the kernel reduced mod d;
    # the kernel itself is walked, in full or in its lower half
    for D in list(fundamental_discriminants(2000)) + [3080, 3137, 4409, 32009, 32045, 39992]:
        direct = [x for x in range(1, D) if math.gcd(x, D) == 1 and kronecker(D, x) == 1]
        assert _kernel(D) == tuple(direct), D
        ev = _context_over(D)
        for d in (d for d in range(2, D + 1) if D % d == 0):
            residues = tuple(sorted({x % d for x in direct}))
            assert ev.norm_set_d(d) == tuple((r, s) for r in residues for s in (1, -1)), (D, d)
            if d > 2:
                # chi_D is even, so R_d = -R_d, and 0, d/2 are not units mod d
                assert residues == tuple(sorted(d - r for r in residues)), (D, d)
                assert 0 not in residues and d / 2 not in residues, (D, d)
            else:
                # d = 2: the one residue 1
                assert residues == (1,), (D, d)
        # R+ = {r : 2 r < D} is the first half of the kernel R
        gaps = [b - a for a, b in zip([0] + direct, direct)]
        h = len(direct) // 2
        assert all(2 * r < D for r in direct[:h]) and all(2 * r > D for r in direct[h:]), D
        assert _walk(D, False) == (tuple(gaps), max(gaps), sum(direct)), D
        assert _walk(D, True) == (tuple(gaps[:h]), max(gaps[:h]), sum(direct[:h])), D


def test_proper_divisor_norm_sets_are_all_units():
    # chi_D is primitive of conductor f_K = D, so its kernel maps onto
    # (Z/d)^x for every proper divisor d
    pairs = 0
    for D in list(fundamental_discriminants(2000)) + [3137, 4409, 32009]:
        ev = _context_over(D)
        for d in (d for d in range(2, D) if D % d == 0):
            units = tuple(x for x in range(d) if math.gcd(x, d) == 1)
            assert ev.norm_set_d(d) == tuple((r, s) for r in units for s in (1, -1)), (D, d)
            pairs += 1
    assert pairs == 2628


@pytest.mark.parametrize("cells", [
    [5, 0, 0, 0, 0, 0, 0],  # one line, top = 0
    [3, 0, 126, 4, 0, 0, 0],  # one line, 0 < top < l - 1
    [1, 2, 3, 4, 5, 6, 7],  # one line, top = l - 1
    [9, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8],  # three lines
])
def test_chirp_axis_matches_direct_evaluation(cells):
    # w = 2^((q - 1) / 7) has order l = 7 in F_q; the picks are every
    # exponent, out of order.  q = 127 takes one-word slots; q = 2147483857
    # (2 bits(q - 1) + 3 = 67) spans two 64-bit words per slot
    ell = 7
    picks = [3, 0, 6, 1, 5, 2, 4]
    lines = [cells[i:i + ell] for i in range(0, len(cells), ell)]
    for q in (127, 2147483857):
        w = pow(2, (q - 1) // ell, q)
        table = [pow(w, j, q) for j in range(ell)]
        direct = [sum(c * pow(w, t * j, q) for t, c in enumerate(line)) % q
                  for j in picks for line in lines]
        assert _chirp_axis(cells, table, picks, q) == direct, q


def test_kappa_regression_frozen_values():
    # N=1: both conjugate dlogs vanish (forced: N(eta) = 1 kills the sum and
    # the class number kills the difference mod 3)
    ctx = build_field(3, 257, 0, 1)
    cls = derivative_class(ctx, "d", 257, ())
    assert evaluate_kappa(ctx, cls, 1543).coeffs == {}
    # N=3 values at the first two split evaluation primes, frozen after the
    # cyclotomic-oracle-verified run
    ctx3 = build_field(3, 257, 0, 3)
    cls3 = derivative_class(ctx3, "d", 257, ())
    v1 = evaluate_kappa(ctx3, cls3, 13879)
    v2 = evaluate_kappa(ctx3, cls3, 83269)
    assert v1.coeffs == {(0, 0): 12, (1, 0): 15}
    assert v2.coeffs == {(0, 0): 15, (1, 0): 12}
    # norm of eta is +1, so the conjugate dlogs must cancel mod p^N
    for v in (v1, v2):
        assert sum(v.coeffs.values()) % 27 == 0


def test_kappa_chi_valuation_reflects_class_number():
    # D = 257 has 3-part Z/3: every chi-value has valuation >= 1, some exactly 1
    ctx = build_field(3, 257, 0, 3)
    cls = derivative_class(ctx, "d", 257, ())
    gen = evaluation_primes(ctx, 1)
    vals = []
    for _ in range(8):
        v = chi_project(evaluate_kappa(ctx, cls, next(gen)))
        vals.append(val_p(v.coeffs.get((0,), 0), 3, 3))
    assert all(v >= 1 for v in vals)
    assert min(vals) == 1
    # trivial 3-part: units appear
    ctx5 = build_field(3, 5, 0, 2)
    cls5 = derivative_class(ctx5, "d", 5, ())
    gen5 = evaluation_primes(ctx5, 1)
    vals5 = [
        val_p(chi_project(evaluate_kappa(ctx5, cls5, next(gen5))).coeffs.get((0,), 0), 3, 2)
        for _ in range(8)
    ]
    assert 0 in vals5


def test_kappa_not_split_rejected():
    ctx = build_field(3, 257, 0, 3)
    cls = derivative_class(ctx, "d", 257, ())
    with pytest.raises(NotSplit):
        evaluate_kappa(ctx, cls, 7)


def test_splits_completely_at_level_zero():
    # residue degree 1: q = 1 mod f_K p^max(level, m+1) n.  Level 0 still
    # asks for q = 1 mod p^{m+1}, so it agrees with level 1 at m = 0.  Every
    # q here splits in K, but 2, 13 and 787 have residue degree > 1
    ctx = build_field(3, 257, 0, 1)
    tower = build_field(3, 257, 1, 2)
    # q: (level 0, level 1, level 2, level 0 at m = 1)
    split_at = {2: (False,) * 4, 13: (False,) * 4, 787: (False,) * 4,
                1543: (True, True, False, False), 13879: (True,) * 4}
    for q, expected in split_at.items():
        assert ctx.chi_d(q) == 1
        assert (splits_completely(ctx, q, 1, 0), splits_completely(ctx, q, 1, 1),
                splits_completely(ctx, q, 1, 2), splits_completely(tower, q, 1, 0)) == expected
    assert splits_completely(ctx, 20047, 13, 0)  # 20047 = 1 mod 257 * 3 * 13
    assert not splits_completely(ctx, 20047, 7, 0)


def test_kappa_budget_guards():
    ctx = build_field(3, 257, 0, 1)
    # 200041 = 1 mod 3 splits in K; its expansion of 200039 multi-indices
    # exceeds the cap, which is refused before any field is built
    kp = KolyvaginPrime.build(200041, 3)
    assert kronecker(257, kp.ell) == 1 and kp.ell - 2 > DEFAULT_DERIVATIVE_CAP
    cls = derivative_class(ctx, "d", 257, (kp,))
    q = next(evaluation_primes(ctx, kp.ell, level=1))
    with pytest.raises(BudgetExhausted):
        evaluate_kappa(ctx, cls, q)
    # q = 13 splits in K but has residue degree 128 modulo 257 * 3
    with pytest.raises(NotSplit):
        evaluate_kappa(ctx, derivative_class(ctx, "d", 257, ()), 13)


# (p, D): the generator a search's prime gets from the known primes of
# f_K p^(m+1) n, at one- to four-component conductors and at p = 5 and 7
@pytest.mark.parametrize("p,D", [(3, 5), (3, 8), (3, 257), (3, 1937), (3, 3080), (3, 32045),
                                 (5, 8), (7, 5)])
def test_search_generator_matches_full_factorization(p, D):
    ctx = build_field(p, D, 0, 3)
    for chain in ((), (next(kolyvagin_primes(ctx)).ell,)):
        qs = list(islice(evaluation_primes(ctx, math.prod(chain)), 200))
        ev = EvalContext(ctx, chain, qs[0])
        assert ev.field.g == _smallest_generator(qs[0], qs[0] - 1)
        for q in qs:
            assert (_smallest_generator(q, q - 1, ev.support.primes)
                    == _smallest_generator(q, q - 1)), q


def test_outside_primes_keep_their_checks():
    # a q from outside the search is proven prime and held to the field
    # budget, also right after the search has seen it
    ctx = build_field(3, 257, 0, 3)
    kp = next(kolyvagin_primes(ctx))
    for cls in (derivative_class(ctx, "d", 257, ()), derivative_class(ctx, "d", 257, (kp,))):
        step = 257 * 27 * cls.n
        search = evaluation_primes(ctx, cls.n)
        first = next(search)
        composite = next(q for q in range(1 + step, first, step) if not is_prime(q))
        with pytest.raises(NotPrime):
            evaluate_kappa(ctx, cls, composite)
        huge = next(q for q in count((DEFAULT_FIELD_BUDGET // step + 1) * step + 1, step)
                    if is_prime(q))
        with pytest.raises(BudgetExceeded):
            evaluate_kappa(ctx, cls, huge)


@pytest.mark.parametrize("D", [257, 785, 3137])
def test_kappa_conjugates_at_n_1(D):
    # coefficient g of kappa(1) is the dlog of the unit conjugated by g^-1,
    # and c_1 + c_tau = dlog(eta eta^tau) = dlog(N_{K/Q} eta) = dlog(+-1) = 0
    ctx = build_field(3, D, 0, 3)
    q = next(evaluation_primes(ctx, 1))
    vec = evaluate_kappa(ctx, derivative_class(ctx, "d", D, ()), q)
    ev = EvalContext(ctx, (), q)
    grp = ctx.group
    for g in grp.elements():
        unit = ev.factor_value("d", D, ev.support.lifts[grp.inv(g)])
        assert vec.coeffs.get(g, 0) == ev.dlog(unit, ctx.N), (D, g)
    one, tau = grp.elements()
    assert (vec.coeffs.get(one, 0) + vec.coeffs.get(tau, 0)) % 27 == 0
    assert not vec.is_zero()


def test_norm_relation_flagship():
    ctx = build_field(3, 257, 0, 1)
    kp = next(kolyvagin_primes(ctx))
    q = next(evaluation_primes(ctx, kp.ell, level=1))
    assert norm_relation_check(ctx, "d", 257, (kp,), kp.ell, q)
    assert norm_relation_check(ctx, "a", 2, (kp,), kp.ell, q)
    with pytest.raises(ValueError):
        norm_relation_check(ctx, "d", 257, (kp,), 7, q)


# two-prime chains: criterion 4 checks the relation only at one prime
@pytest.mark.parametrize("D,chain", [(257, (13, 79)), (8, (7, 127)), (785, (7, 43))])
@pytest.mark.parametrize("kind", ["d", "a"])
def test_norm_relation_on_two_prime_chains(D, chain, kind):
    ctx = build_field(3, D, 0, 1)
    kps = chain_primes(ctx, chain)
    q = next(evaluation_primes(ctx, math.prod(chain), level=1))
    param = D if kind == "d" else 2
    for ell in chain:
        assert norm_relation_check(ctx, kind, param, kps, ell, q), (D, chain, kind, ell)


# at m = 0, p = 3 an a-type unit is 1 (test_a_type_units_trivial_for_p3_level0),
# so its relation reads 1 == 1; at m = 1 it is not
@pytest.mark.parametrize("D,chain", [(257, (73,)), (785, (19,)), (17, (19, 2053)),
                                     (92, (19, 2053))])
def test_a_type_norm_relation_at_level_one(D, chain):
    ctx = build_field(3, D, 1, 2)
    kps = chain_primes(ctx, chain)
    q = next(evaluation_primes(ctx, math.prod(chain)))
    assert EvalContext(ctx, chain, q).factor_value("a", 2, 1) != 1
    assert EvalContext(ctx, chain[1:], q).factor_value("a", 2, 1) != 1
    for ell in chain:
        assert norm_relation_check(ctx, "a", 2, kps, ell, q), (D, chain, ell)


@pytest.mark.parametrize("kind,param", [("d", 257), ("a", 2)])
def test_one_cell_tables_are_cells_of_the_full_table(kind, param):
    # rows of one residue each give one cell: the transform with one chirp
    # pick per axis for the class at f_K, one Moebius cell at d = 1 for the
    # a-type; it equals factor_value and the same cell of the full table,
    # for one and two auxiliary primes, each in its own context
    ctx = build_field(3, 257, 0, 1)
    chain = (13, 79)
    q = next(evaluation_primes(ctx, math.prod(chain), level=1))
    _, tau = ctx.group.elements()
    for aux in (chain, chain[:1]):
        ev = EvalContext(ctx, aux, q)
        mult = ev.support.lifts[tau]
        full = ev.factor_orbit(kind, param, mult, [range(1, ell) for ell in aux])
        for rho in ((1, 1), (5, 1), (2, 40), (12, 78)):
            rho = rho[:len(aux)]
            cell = ev.factor_orbit(kind, param, mult, [[r] for r in rho])
            idx = 0
            for ell, r in zip(aux, rho):
                idx = idx * (ell - 1) + r - 1
            assert cell == ([full[0][idx]], None if full[1] is None else [full[1][idx]])
            value = ev.factor_value(kind, param, mult * ev.lift(dict(zip(aux, rho))))
            assert _orbit_value(q, cell, ((1, (0,)),)) == value, (kind, aux, rho)


def test_h_invariance_full_orbit():
    ctx = build_field(3, 257, 0, 1)
    kp = next(kolyvagin_primes(ctx))  # ell = 13
    cls = derivative_class(ctx, "d", 257, (kp,))
    q = next(evaluation_primes(ctx, kp.ell, level=1))
    base = evaluate_kappa(ctx, cls, q)
    for w in range(2, kp.ell):
        assert evaluate_kappa(ctx, cls, q, h_twist={kp.ell: w}) == base


def test_level_one_norm_compatibility():
    # the product of the layer-1 conjugates over Gal(F_1/F_0) equals the
    # layer-0 unit, exactly, on both Delta-branches; a-type units become
    # nontrivial at m = 1 but still norm down to the (trivial) m = 0 value
    ctx1 = build_field(3, 257, 1, 2)
    ctx0 = build_field(3, 257, 0, 2)
    assert ctx1.group.divisors == (2, 3)
    q = next(evaluation_primes(ctx1, 1))
    ev1 = EvalContext(ctx1, (), q)
    ev0 = EvalContext(ctx0, (), q)
    for e1 in (0, 1):
        prod = 1
        for j in range(3):
            prod = prod * ev1.factor_value("d", 257, ev1.support.lifts[(e1, j)]) % q
        v0 = ev0.factor_value("d", 257, ev0.support.lifts[(e1, 0)])
        assert prod == v0
    pa = 1
    for j in range(3):
        pa = pa * ev1.factor_value("a", 2, ev1.support.lifts[(0, j)]) % q
    assert pa == ev0.factor_value("a", 2, 1) == 1
    assert ev1.factor_value("a", 2, 1) != 1


def test_tower_projection_compatibility():
    # collapsing the Gamma-grading of a layer-1 conjugate vector (gamma -> 1)
    # must reproduce the layer-0 vector: the dlog of a norm is the sum of the
    # conjugate dlogs.  Exercised at n = 1 and with one auxiliary prime.
    ctx1 = build_field(3, 257, 1, 2)
    ctx0 = build_field(3, 257, 0, 2)

    def project(vec):
        out = {}
        for (d, _g), c in vec.coeffs.items():
            out[(d, 0)] = (out.get((d, 0), 0) + c) % 9
        return {k: v for k, v in out.items() if v}

    q = next(evaluation_primes(ctx1, 1))
    v1 = evaluate_kappa(ctx1, derivative_class(ctx1, "d", 257, ()), q)
    v0 = evaluate_kappa(ctx0, derivative_class(ctx0, "d", 257, ()), q)
    assert len(v1.coeffs) > len(v0.coeffs)
    assert project(v1) == v0.coeffs
    kp1 = next(kolyvagin_primes(ctx1))
    kp0 = next(kolyvagin_primes(ctx0))
    assert kp1.ell == kp0.ell
    q2 = next(evaluation_primes(ctx1, kp1.ell))
    w1 = evaluate_kappa(ctx1, derivative_class(ctx1, "d", 257, (kp1,)), q2)
    w0 = evaluate_kappa(ctx0, derivative_class(ctx0, "d", 257, (kp0,)), q2)
    assert project(w1) == w0.coeffs
