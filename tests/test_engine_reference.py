"""Differential tests: the table-driven engine of cycfit.units against the
pow-per-term reference in reference_engine.py.

Factor values are compared exactly, element by element, on seeded-random
multipliers built from Delta x Gamma conjugations, auxiliary-group twists
and tame-generator powers; derivative-class vectors are compared on small
expansions at n = 1, l and l_1 l_2, and the class at f_K, whose
chi_D-odd conjugates come from the Moebius table of Phi_f at every cell,
at p = 3, 5, 7 and m = 0, 1, with and without auxiliary primes.  The orbit
tables of EvalContext.factor_orbit (for the class at f_K the walk of
evaluate_kappa: the transform for n > 1, one paired product at n = 1; a
Moebius table for every other class) are compared at every multi-index,
and the Moebius table of f_K against the product of the two walked
chi_D-cosets and Phi_f itself.  The walks and the partner's tables are
counted per evaluation prime.  The partner's terms by classes of divisors
are compared with the walked cosets where the chain allows it, each
divisor stays its own term where it does not, and the terms themselves
(_mobius_rows) are checked against Moebius sums by trial division.  Every
Moebius table the evaluator reads takes the same dlog at c and 1/c, so half
its dlog over the merged weights is the one over the plain weights.
"""

import itertools
import math
import random
from itertools import product as iter_product

import pytest

import reference_engine as ref
from cycfit.arith import factorint, primitive_root
from cycfit.errors import ConductorClash, NotSplit
from cycfit.fields import (KolyvaginPrime, build_field, chain_primes, evaluation_primes,
                           kolyvagin_primes)
from cycfit.units import (EvalContext, _chain_evaluator, _group_weights, _kernel, _mobius_rows,
                          _multi_indices, _orbit_value, _unit_multipliers, _weighted_product,
                          derivative_class, evaluate_kappa)


def _chain(ctx, r, level):
    """The first well-ordered chain of r auxiliary primes at the level."""
    kps = []
    for _ in range(r):
        extra = math.prod(kp.ell for kp in kps)
        kps.append(next(kolyvagin_primes(ctx, extra_modulus=extra, level=level)))
    return tuple(kps)


def _random_multipliers(ev, kps, rng, count):
    """lifts[g] * (h-twist at each l) * sigma_l^k, all chosen at random."""
    elements = list(ev.ctx.group.elements())
    out = []
    for _ in range(count):
        comp = {kp.ell: rng.randrange(1, kp.ell) for kp in kps}
        mult = ev.support.lifts[rng.choice(elements)] * ev.lift(comp) % ev.M
        for kp in kps:
            sigma = pow(kp.s_ell, rng.randrange(1, kp.ell - 1), kp.ell)
            mult = mult * ev.lift({kp.ell: sigma}) % ev.M
        out.append(mult)
    return out


def _assert_factors_match(ev, kps, rng, count, a_params=(2, 4, 5)):
    """Each support's unit in a context of its own against the reference in
    the full context, whose root zeta_M has zeta_M^(M / M') = zeta_M'."""
    f = ev.ctx.f_K
    divisors = [d for d in range(2, f + 1) if f % d == 0]
    ells = tuple(kp.ell for kp in kps)
    subs = [EvalContext(ev.ctx, aux, ev.q) for aux in dict.fromkeys((ells, ells[:1], ()))]
    assert all(pow(ev.zeta, ev.M // sub.M, ev.q) == sub.zeta for sub in subs)
    for mult in _random_multipliers(ev, kps, rng, count):
        for sub in subs:
            t = mult % sub.M
            for d in divisors:
                assert sub.factor_value("d", d, t) == ref.factor_value(ev, "d", d, sub.aux, mult)
            for a in a_params:
                assert sub.factor_value("a", a, t) == ref.factor_value(ev, "a", a, sub.aux, mult)


@pytest.mark.parametrize("D", [5, 8, 44, 257, 473, 785, 1937])
@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_factor_values_match_reference(D, m, r):
    rng = random.Random(1000 * D + 10 * m + r)
    ctx = build_field(3, D, m, m + 1)
    kps = _chain(ctx, r, 1)
    n = math.prod(kp.ell for kp in kps)
    q = next(evaluation_primes(ctx, n, level=m + 1))
    ev = EvalContext(ctx, tuple(kp.ell for kp in kps), q)
    _assert_factors_match(ev, kps, rng, 3 if D < 1000 else 1)


# n = 1: the class at d = f_K takes the half walk over R+, every proper
# divisor is a Moebius table (d = 4, 8 are the 2-parts); (D, p) with p
# inert in Q(sqrt(D))
@pytest.mark.parametrize("D,p", [(8, 3), (44, 3), (8, 5), (12, 5), (12, 7), (24, 7),
                                 (40, 7)])
@pytest.mark.parametrize("m", [0, 1])
def test_half_walk_matches_reference(D, p, m):
    rng = random.Random(100 * D + 10 * p + m)
    ctx = build_field(p, D, m, m + 1)
    q = next(evaluation_primes(ctx, 1, level=m + 1))
    ev = EvalContext(ctx, (), q)
    for mult in _random_multipliers(ev, (), rng, 4):
        for d in (d for d in range(2, D + 1) if D % d == 0):
            assert ev.factor_value("d", d, mult) == ref.factor_value(ev, "d", d, (), mult)


def test_extension_context_must_split():
    # a context needs q = 1 mod M = f_K p^{m+1} n, residue degree 1: 5 has
    # order 2 modulo 8 * 3 (and is inert in Q(sqrt 2)); 787 has order 4
    # modulo 257 * 3 and splits in Q(sqrt 257); 1543 = 1 mod 257 * 3 but
    # not mod 257 * 9, which m = 1 needs
    for D, m, q in ((8, 0, 5), (257, 0, 787), (257, 1, 1543)):
        with pytest.raises(NotSplit):
            EvalContext(build_field(3, D, m, m + 1), (), q)


def _count_orbit_reads(monkeypatch):
    """Record, from now on, the multiplier of every chi_D-kernel walk
    (EvalContext._paired_orbit) and the terms of every Moebius table
    (EvalContext._mobius_table)."""
    walks, tables = [], []
    walk, table = EvalContext._paired_orbit, EvalContext._mobius_table

    def walked(ev, a, rows):
        walks.append(a)
        return walk(ev, a, rows)

    def tabled(ev, a, terms, rows):
        tables.append(terms)
        return table(ev, a, terms, rows)

    monkeypatch.setattr(EvalContext, "_paired_orbit", walked)
    monkeypatch.setattr(EvalContext, "_mobius_table", tabled)
    return walks, tables


def _plain_groups(kps, pN):
    """The cells of a chain grouped by w(k) = prod_i k_i mod pN, row-major
    over 0 <= k_i <= l_i - 2, as the sum of kappa(n) weighs them."""
    return _group_weights([math.prod(k) % pN
                           for k in iter_product(*(range(kp.ell - 1) for kp in kps))])


def _unit_multiplier(ev, kind, param):
    """u of the unit (kind, param) with the context's auxiliary support."""
    ctx = ev.ctx
    return _unit_multipliers(kind, param, ctx.p, ctx.m, ctx.f_K, ev.aux)[0]


# (p, D, m, N, chain length, evaluation level, kind, param, h-twist
# exponent).  At p^{m+1} = 3 the vectors of a proper divisor d < f_K and of
# the a-type unit vanish; every other vector must come out nonzero, among
# them a proper divisor at p = 5 and at m = 1 (d = 43 of 473 with a twist)
# and the a-type at p = 7.  The class at f_K reads
# its conjugates with g[0] = 1 from Phi_f(alpha c) Phi_f(c / alpha) at every
# cell: p = 5 and 7 at m = 0, p = 3 at m = 1 with a twist, f_K = 785 =
# 5 * 157 and 1937 = 13 * 149 (divisors of both Moebius signs) and the 2-part
# conductor 8.  The last row walks at m = 2 (p^{m+1} = 27, 18 conjugates),
# f_K = 140 = 4 * 5 * 7, with a twist.
KAPPA_CASES = [
    (3, 257, 0, 3, 0, 3, "d", 257, None),
    (3, 257, 0, 3, 1, 3, "d", 257, 2),
    (3, 257, 0, 3, 1, 3, "d", 257, None),
    (3, 257, 1, 2, 1, 2, "d", 257, 5),
    (3, 257, 1, 2, 1, 2, "a", 2, 3),
    (3, 257, 1, 2, 1, 2, "a", 2, 5),
    (3, 257, 0, 3, 1, 3, "a", 2, None),
    (3, 473, 0, 3, 0, 3, "d", 473, None),
    (3, 473, 0, 3, 0, 3, "d", 43, None),
    (3, 8, 0, 2, 2, 1, "d", 8, 3),
    (3, 8, 0, 2, 2, 1, "d", 4, None),
    (5, 8, 0, 2, 1, 1, "d", 8, None),
    (7, 5, 0, 2, 1, 1, "d", 5, 3),
    (5, 12, 0, 1, 2, 1, "d", 12, None),
    (3, 785, 0, 3, 1, 3, "d", 785, 2),
    (3, 785, 0, 3, 1, 3, "a", 2, 2),
    (3, 785, 0, 1, 2, 1, "d", 785, None),
    (3, 1937, 0, 1, 1, 1, "d", 1937, None),
    (3, 140, 2, 3, 1, 3, "d", 140, 2),
    (5, 12, 0, 1, 1, 1, "d", 4, None),
    (3, 473, 1, 2, 1, 2, "d", 43, 2),
    (7, 5, 0, 1, 1, 1, "a", 3, None),
]


def _case_id(case):
    """The test id of a KAPPA_CASES row: p = 3 rows are named without p."""
    return "-".join(map(str, case[1:] if case[0] == 3 else case))


@pytest.mark.parametrize("p,D,m,N,r,level,kind,param,w", KAPPA_CASES,
                         ids=[_case_id(case) for case in KAPPA_CASES])
def test_kappa_vectors_match_reference(p, D, m, N, r, level, kind, param, w, monkeypatch):
    ctx = build_field(p, D, m, N)
    kps = _chain(ctx, r, level)
    cls = derivative_class(ctx, kind, param, kps)
    twist = {kps[-1].ell: w} if w else None
    gen = evaluation_primes(ctx, cls.n, level=level)
    walks, tables = _count_orbit_reads(monkeypatch)
    vectors = []
    for _ in range(2):
        q = next(gen)
        ev = EvalContext(ctx, cls.aux, q)
        new = evaluate_kappa(ctx, cls, q, level=level, h_twist=twist)
        assert new == ref.evaluate_kappa(ctx, cls, ev, level, twist)
        vectors.append(new)
    nonzero = (kind == "d" and param == D) or p ** (m + 1) > 3
    assert any(not v.is_zero() for v in vectors) == nonzero
    order = len(list(ctx.group.elements()))
    if kind == "d" and param == D:
        # at each of the two q half of the conjugates walk the chi_D-kernel,
        # and each partner reads one Moebius table of Phi_f, none at
        # p^{m+1} = 3
        partner_rows = _chain_evaluator(ctx, kind, param, kps, level).partner_rows
        assert len(walks) == order
        assert tables == [partner_rows] * (order if partner_rows else 0)
        assert p ** (m + 1) > 3 or partner_rows == ()
    else:
        # every conjugate reads the table of its own divisor (two at d = 1)
        terms = _mobius_rows(param if kind == "d" else 1, p ** (m + 1), False)
        assert walks == []
        assert tables == [terms] * (2 * order * (2 if kind == "a" else 1))


# (p, D, m, N, h-twist): the epsilon = 0 class, whose conjugates with
# g[0] = 1 come from the cyclotomic resultant of the two chi_D-cosets in F_q.
# Away from p = 3, m = 0 that resultant's dlog is not 0 for some q.  The last
# case twists the f_K-component.
COSET_CASES = [
    (5, 8, 0, 2, None),
    (7, 5, 0, 2, None),
    (3, 257, 1, 2, None),
    (5, 12, 1, 2, None),
    (3, 473, 0, 3, {473: 2}),
]


@pytest.mark.parametrize("p,D,m,N,twist", COSET_CASES)
def test_epsilon_zero_vectors_match_reference(p, D, m, N, twist):
    ctx = build_field(p, D, m, N)
    cls = derivative_class(ctx, "d", D, ())
    gen = evaluation_primes(ctx, 1, level=N)
    sums = set()
    for _ in range(2):
        q = next(gen)
        ev = EvalContext(ctx, (), q)
        new = evaluate_kappa(ctx, cls, q, h_twist=twist)
        assert new == ref.evaluate_kappa(ctx, cls, ev, N, twist)
        sums |= {(new.coeffs.get(g, 0) + new.coeffs.get((1,) + g[1:], 0)) % p**N
                 for g in ctx.group.elements() if not g[0]}
    assert (sums != {0}) == (p > 3 or m > 0)


# (D, m, N, chain length, level, f_K-component of the h-twist): a twist
# that is not prime to f_K is no Galois element, so evaluate_kappa refuses
# it before any walk
@pytest.mark.parametrize("D,m,N,r,level,w", [(473, 0, 3, 1, 3, 11), (785, 0, 3, 1, 3, 5),
                                             (785, 0, 1, 0, 1, 5)])
def test_twist_not_prime_to_conductor_is_refused(D, m, N, r, level, w, monkeypatch):
    ctx = build_field(3, D, m, N)
    kps = _chain(ctx, r, level)
    cls = derivative_class(ctx, "d", D, kps)
    q = next(evaluation_primes(ctx, cls.n, level=level))
    ev = EvalContext(ctx, cls.aux, q)
    order = len(list(ctx.group.elements()))
    walks, tables = _count_orbit_reads(monkeypatch)
    with pytest.raises(ConductorClash, match="h-twist"):
        evaluate_kappa(ctx, cls, q, level=level, h_twist={D: w})
    assert walks == []
    # a twist prime to f_K at the same prime takes the partner route,
    # which at p^{m+1} = 3 builds no table
    coprime = evaluate_kappa(ctx, cls, q, level=level, h_twist={D: 2})
    assert len(walks) == order // 2
    assert tables == []
    assert coprime == ref.evaluate_kappa(ctx, cls, ev, level, {D: 2})


def _phi_tilde(x, f, q):
    """prod_{e | f} (1 - x^e)^mu(f/e) in F_q, by trial division."""
    num = den = 1
    for e in (e for e in range(1, f + 1) if f % e == 0):
        primes = [r for r in range(2, f // e + 1) if f // e % r == 0
                  and all(r % s for s in range(2, r))]
        if math.prod(primes) != f // e:
            continue
        factor = (1 - pow(x, e, q)) % q
        if len(primes) % 2:
            den = den * factor % q
        else:
            num = num * factor % q
    return num * pow(den, -1, q) % q


# (D, chain length, level): prime, composite and 2-part conductors
@pytest.mark.parametrize("D,r,level", [(257, 1, 3), (785, 1, 1), (785, 2, 1), (8, 2, 1)])
def test_coset_cells_multiply_to_phi_f(D, r, level):
    # P_g(c) P_{g tau}(c) = Phi_f(alpha c) Phi_f(c / alpha) cell by cell, with
    # alpha c = zeta_M^(t (1 - E_f)) and c / alpha = zeta_M^(t (1 - E_f - 2 E_p))
    # for the cell's multiplier t: the sum of the idempotents is 1 mod M
    ctx = build_field(3, D, 0, 3)
    kps = _chain(ctx, r, level)
    ells = tuple(kp.ell for kp in kps)
    q = next(evaluation_primes(ctx, math.prod(ells), level=level))
    ev = EvalContext(ctx, ells, q)
    rows = [[pow(kp.s_ell, k, kp.ell) for k in range(1, kp.ell - 1)] for kp in kps]
    u = _unit_multiplier(ev, "d", D)
    e_f, e_p = ev.idempotents[:2]
    twist = ev.lift({ells[-1]: 2})
    for g in ctx.group.elements():
        if g[0]:
            continue
        t_g = ev.support.lifts[g] * twist % ev.M
        t_tau = ev.support.lifts[(1,) + g[1:]] * twist % ev.M
        walked, partner = (ev.factor_orbit("d", D, t, rows)[0] for t in (t_g, t_tau))
        num, den = ev._mobius_table(u * t_g, _mobius_rows(D, 3, False), rows)
        for i, rhos in enumerate(iter_product(*rows)):
            t = u * t_g * ev.lift(dict(zip(ells, rhos))) % ev.M
            phi = (_phi_tilde(pow(ev.zeta, t * (1 - e_f) % ev.M, q), D, q)
                   * _phi_tilde(pow(ev.zeta, t * (1 - e_f - 2 * e_p) % ev.M, q), D, q))
            assert walked[i] * partner[i] % q == phi % q == num[i] * pow(den[i], -1, q) % q


@pytest.mark.parametrize("D", [5, 8, 257, 473, 785])
def test_epsilon_zero_cosets_cancel_at_p3_level0(D):
    # Phi_f(zeta_3) Phi_f(zeta_3^-1) = Res(Phi_3, Phi_f) = +-1 (Apostol), so
    # the reference engine's two conjugates of eta, each walked, sum to 0
    ctx = build_field(3, D, 0, 3)
    cls = derivative_class(ctx, "d", D, ())
    gen = evaluation_primes(ctx, 1, level=3)
    vectors = [ref.evaluate_kappa(ctx, cls, EvalContext(ctx, (), q), 3).vector()
               for q in (next(gen) for _ in range(3))]
    assert all(sum(v) % 27 == 0 for v in vectors)
    assert any(any(v) for v in vectors)
    # every divisor of f is +-1 mod 3, so the partner route has no term
    assert _mobius_rows(D, 3, True) == ()


@pytest.mark.parametrize("p_part", [3, 5, 7, 9, 25])
def test_mobius_rows_are_the_divisor_sums(p_part):
    for d in range(1, 2000):
        mus = {e: ref.mobius(d // e) for e in range(1, d + 1) if d % e == 0}
        unclassed = _mobius_rows(d, p_part, False)
        assert sorted(unclassed) == sorted((e, e, mu) for e, mu in mus.items() if mu)
        sums = {}
        for e, mu in mus.items():
            key = min(e % p_part, -e % p_part)
            sums[key] = sums.get(key, 0) + mu
        classed = _mobius_rows(d, p_part, True)
        assert sorted(classed) == sorted((key, 1, x) for key, x in sums.items() if x)
        if p_part == 3 and d > 1 and d % 3:
            assert classed == ()


# (D, chain, N): chains of one prime at level N = 3 and two chains of two
# primes; each chi_D-coset pair of conjugates, both walked, sums to 0 mod
# p^N at every multi-index weighting, so the partner route has no term there
CHAIN_COSET_CASES = [(257, (379,), 3), (473, (379,), 3), (785, (109,), 3),
                     (3080, (109,), 3), (8, (7, 127), 1), (473, (19, 2053), 2)]


@pytest.mark.parametrize("D,chain,N", CHAIN_COSET_CASES,
                         ids=["-".join(map(str, (D,) + chain + (N,)))
                              for D, chain, N in CHAIN_COSET_CASES])
def test_chain_cosets_cancel_at_p3_level0(D, chain, N):
    ctx = build_field(3, D, 0, N)
    kps = chain_primes(ctx, chain)
    cls = derivative_class(ctx, "d", D, kps)
    assert _chain_evaluator(ctx, "d", D, kps, N).partner_rows == ()
    gen = evaluation_primes(ctx, cls.n, level=N)
    rows, _ = _multi_indices(kps, 3**N)
    groups = _plain_groups(kps, 3**N)
    tau = {g: (1 - g[0],) + g[1:] for g in ctx.group.elements()}
    vectors = []
    for q in (next(gen) for _ in range(2)):
        ev = EvalContext(ctx, cls.aux, q)
        if cls.n < 10**4:
            # the reference walks every conjugate at every multi-index
            walked = ref.evaluate_kappa(ctx, cls, ev, N).coeffs
        else:
            # 19 * 2053 multi-indices are beyond the reference; the engine
            # walks each conjugate's own chi_D-coset (factor_orbit)
            walked = {g: ev.dlog(_orbit_value(q, ev.factor_orbit("d", D, t, rows), groups), N)
                      for g, t in ev.support.conjugates}
        assert all((walked.get(g, 0) + walked.get(tau[g], 0)) % 3**N == 0 for g in tau)
        new = evaluate_kappa(ctx, cls, q)
        assert {g: c for g, c in walked.items() if c % 3**N} == new.coeffs
        vectors.append(new.vector())
    assert any(any(v) for v in vectors)


# (p, D): at m = 1 and 2 the first chain prime at level 1 (13, 31, 29) has
# N_l = 1 < m + 1, so alpha^l != alpha and the rotation c -> c^e of an axis
# changes the row: each Moebius divisor of the partner is its own term, read
# at c^e, and the class-keyed product differs from it at some conjugate
@pytest.mark.parametrize("p,D", [(3, 257), (5, 8), (7, 5)])
@pytest.mark.parametrize("m", [1, 2])
def test_shallow_chains_key_each_divisor(p, D, m):
    ctx = build_field(p, D, m, m + 1)
    kps = _chain(ctx, 1, 1)
    assert kps[0].N_ell < m + 1
    cls = derivative_class(ctx, "d", D, kps)
    rows, _ = _multi_indices(kps, p)
    groups = _plain_groups(kps, p)
    evaluator = _chain_evaluator(ctx, "d", D, kps, 1)
    gen = evaluation_primes(ctx, cls.n, level=m + 1)
    differs = False
    for q in (next(gen) for _ in range(2)):
        ev = EvalContext(ctx, cls.aux, q)
        assert evaluate_kappa(ctx, cls, q, level=1) == ref.evaluate_kappa(ctx, cls, ev, 1)
        for _, lift, _ in evaluator.conjugates:
            a = evaluator.u * lift % ev.M
            dlogs = {ev.dlog(_orbit_value(q, ev._mobius_table(
                a, _mobius_rows(D, p ** (m + 1), classed), rows), groups), 1)
                for classed in (False, True)}
            differs |= len(dlogs) > 1
    assert differs
    per_divisor = _mobius_rows(D, p ** (m + 1), False)
    assert evaluator.partner_rows == per_divisor
    assert all(power == e and abs(exponent) == 1 for e, power, exponent in per_divisor)


@pytest.mark.parametrize("m", [0, 1])
def test_shallow_chain_above_its_depth_matches_reference(m):
    # the chain (7,) at D = 8 is well ordered at level 1 only (7 = 1 mod 3,
    # not mod 9) and is read at level 2, where |R| sum_k w(k) = 2 * 15 = 3
    # mod 9.  With the merged weights the walked value is
    # prod_j U(c_j)^(w(j) + w(j + h)); were U not scaled by alpha^-d it would
    # be off by alpha^(|R| sum_k w(k)), which is 1 at m = 0 (alpha^3 = 1) but
    # not at m = 1, where alpha has order 9.  The partner keeps its
    # per-divisor terms.
    ctx = build_field(3, 8, m, 2)
    kps = _chain(ctx, 1, 1)
    assert [kp.ell for kp in kps] == [7] and kps[0].N_ell == 1
    assert len(_kernel(8)) * sum(range(1, 6)) % 9 == 3
    cls = derivative_class(ctx, "d", 8, kps)
    evaluator = _chain_evaluator(ctx, "d", 8, kps, 2)
    assert evaluator.partner_rows == _mobius_rows(8, 3 ** (m + 1), False)
    gen = evaluation_primes(ctx, cls.n, level=2)
    vectors = []
    for q in (next(gen) for _ in range(3)):
        new = evaluate_kappa(ctx, cls, q, level=2)
        assert new == ref.evaluate_kappa(ctx, cls, EvalContext(ctx, cls.aux, q), 2)
        vectors.append(new)
    assert any(not v.is_zero() for v in vectors)


# (p, D, m, N, chain length, level): chains with N_l >= max(level, m + 1)
# at p = 5 and 7, and at p = 3, m = 1 (p^{m+1} = 9); at 785 = 5 * 157 the
# divisors 157 = 4 and 5 = -4 mod 9 share one class of exponent -2, so the
# four divisors make three terms
CLASSED_CASES = [(5, 8, 0, 2, 1, 1), (5, 12, 0, 1, 2, 1), (7, 5, 0, 2, 1, 2),
                 (3, 257, 1, 2, 1, 2), (3, 785, 1, 2, 1, 2), (3, 785, 1, 2, 0, 2)]


@pytest.mark.parametrize("p,D,m,N,r,level", CLASSED_CASES)
def test_class_keyed_rows_match_the_per_divisor_table(p, D, m, N, r, level):
    # the per-divisor Moebius table of Phi_f equals, cell by cell, the
    # product of the two walked chi_D-cosets (as in
    # test_coset_cells_multiply_to_phi_f), and the class-keyed table equals
    # their weighted product up to a p^level-th power, so the dlogs agree
    ctx = build_field(p, D, m, N)
    kps = _chain(ctx, r, level)
    assert all(kp.N_ell >= max(level, m + 1) for kp in kps)
    ells = tuple(kp.ell for kp in kps)
    classed = _mobius_rows(D, p ** (m + 1), True)
    assert _chain_evaluator(ctx, "d", D, kps, level).partner_rows == classed
    assert all(power == 1 for _, power, _ in classed)
    assert 0 < len(classed) <= len(_mobius_rows(D, p ** (m + 1), False))
    rows, _ = _multi_indices(kps, p**level)
    groups = _plain_groups(kps, p**level)
    gen = evaluation_primes(ctx, math.prod(ells), level=max(level, m + 1))
    dlogs = []
    for q in (next(gen) for _ in range(2)):
        ev = EvalContext(ctx, ells, q)
        u = _unit_multiplier(ev, "d", D)
        for g in ctx.group.elements():
            if g[0]:
                continue
            t_g, t_tau = (ev.support.lifts[h] for h in (g, (1,) + g[1:]))
            walked, partner = (ev.factor_orbit("d", D, t, rows)[0] for t in (t_g, t_tau))
            cosets = [x * y % q for x, y in zip(walked, partner)]
            num, den = ev._mobius_table(u * t_g, _mobius_rows(D, p ** (m + 1), False), rows)
            assert cosets == [x * pow(y, -1, q) % q for x, y in zip(num, den)]
            dlogs.append(ev.dlog(_weighted_product(q, cosets, groups), level))
            value = _orbit_value(q, ev._mobius_table(u * t_g, classed, rows), groups)
            assert ev.dlog(value, level) == dlogs[-1]
    assert any(dlogs)


# (p, D, m, N, chain length, level): chains of one and two primes at
# p = 3 (m = 1), 5 and 7; every conductor has a proper divisor
MOBIUS_CASES = [(3, 785, 1, 2, 1, 2), (3, 785, 1, 2, 2, 1), (5, 12, 0, 1, 1, 1),
                (5, 12, 0, 1, 2, 1), (7, 24, 0, 1, 1, 1), (7, 40, 0, 2, 1, 2)]


@pytest.mark.parametrize("p,D,m,N,r,level", MOBIUS_CASES)
def test_mobius_tables_read_with_merged_weights_halve(p, D, m, N, r, level):
    # every Moebius table T the evaluator reads (the partner's of Phi_f, by
    # class and per divisor, a proper divisor's, the a-type's numerator and
    # denominator) is a product of rows h_e(x) = 1 - x (s_e - x), and
    # h_e(1/x) = x^-2 h_e(x); the cell k + h holds 1/c, c of order dividing
    # n (prime to p), so dlog T(c_(k+h)) = dlog T(c_k), and half the dlog of
    # T over the merged weights is sum_k w(k) dlog T(c_k)
    ctx = build_field(p, D, m, N)
    kps = _chain(ctx, r, level)
    ells = tuple(kp.ell for kp in kps)
    pL, p_part = p**level, p ** (m + 1)
    rows, groups = _multi_indices(kps, pL)
    cells = list(iter_product(*(range(ell - 1) for ell in ells)))
    index = {k: i for i, k in enumerate(cells)}
    inverse = [index[tuple((kj + ell // 2) % (ell - 1) for kj, ell in zip(k, ells))]
               for k in cells]
    q = next(evaluation_primes(ctx, math.prod(ells), level=max(level, m + 1)))
    ev = EvalContext(ctx, ells, q)
    d = max(d for d in range(2, D) if D % d == 0)
    (u_f, _, _), (u_d, _, _), (u_a, u_den, _) = (
        _unit_multipliers(kind, param, p, m, D, ells)
        for kind, param in (("d", D), ("d", d), ("a", 2)))
    sums = set()
    for lift in ev.support.lifts.values():
        tables = [ev._mobius_table(u_f * lift, _mobius_rows(D, p_part, classed), rows)
                  for classed in (True, False)]
        tables.append(ev._mobius_table(u_d * lift, _mobius_rows(d, p_part, False), rows))
        tables += [(ev._mobius_table(t * lift, _mobius_rows(1, p_part, False), rows)[0], None)
                   for t in (u_a, u_den)]
        for num, den in tables:
            values = num if den is None else [x * pow(y, -1, q) % q for x, y in zip(num, den)]
            dlogs = [ev.dlog(v, level) for v in values]
            assert all(dlogs[j] == dlogs[i] for i, j in enumerate(inverse))
            plain = sum(math.prod(k) * x for k, x in zip(cells, dlogs)) % pL
            merged = ev.dlog(_orbit_value(q, (num, den), groups), level)
            assert (pL + 1) // 2 * merged % pL == plain
            sums.add(plain)
    assert sums != {0}


def test_h_twists_change_factor_values_but_not_kappa():
    # the auxiliary components really enter each factor (the twisted values
    # all differ), so the H-invariance of kappa(l) is not a tautology
    ctx = build_field(3, 257, 0, 3)
    kp = KolyvaginPrime.build(379, 3)
    q = next(evaluation_primes(ctx, kp.ell))
    ev = EvalContext(ctx, (kp.ell,), q)
    values = {ev.factor_value("d", 257, ev.lift({kp.ell: w})) for w in range(1, 6)}
    assert len(values) == 5
    cls = derivative_class(ctx, "d", 257, (kp,))
    base = evaluate_kappa(ctx, cls, q)
    assert evaluate_kappa(ctx, cls, q, h_twist={kp.ell: 7}) == base
    # twists are applied per call and never cached: at one class and one q,
    # a chi_D-residue (2) and a non-residue (3) at f_K, which swaps the two
    # conjugates, each give the reference engine's vector, in either order
    ctx = build_field(3, 257, 0, 1)
    kp = next(kolyvagin_primes(ctx))
    cls = derivative_class(ctx, "d", 257, (kp,))
    q = next(evaluation_primes(ctx, kp.ell))
    ev = EvalContext(ctx, (kp.ell,), q)
    vectors = []
    for w in (2, 3, 2):
        vec = evaluate_kappa(ctx, cls, q, h_twist={257: w})
        assert vec == ref.evaluate_kappa(ctx, cls, ev, 1, {257: w}), w
        vectors.append(vec)
    assert vectors[0] == vectors[2] != vectors[1]


def test_h_twists_with_a_warm_chain_evaluator():
    # the twist guard above, after an untwisted call has built the chain's
    # evaluator: each twisted call reads that evaluator from the cache,
    # applies its own twist, and matches the reference; the untwisted
    # vector is unchanged afterwards
    ctx = build_field(3, 257, 0, 1)
    kp = next(kolyvagin_primes(ctx))
    cls = derivative_class(ctx, "d", 257, (kp,))
    q = next(evaluation_primes(ctx, kp.ell))
    ev = EvalContext(ctx, (kp.ell,), q)
    base = evaluate_kappa(ctx, cls, q)
    hits = _chain_evaluator.cache_info().hits
    vectors = []
    for w in (2, 3, 2):
        vec = evaluate_kappa(ctx, cls, q, h_twist={257: w})
        assert vec == ref.evaluate_kappa(ctx, cls, ev, 1, {257: w}), w
        vectors.append(vec)
    assert _chain_evaluator.cache_info().hits == hits + 3
    assert vectors[0] == vectors[2] != vectors[1]
    assert evaluate_kappa(ctx, cls, q) == base


def _fresh_lift(ev, g):
    """The residue acting as g, from its components: a chi_D-non-residue
    at f_K when g[0] = 1, the power of the primitive root mod p^{m+1} given
    by the other coordinates, 1 at every auxiliary prime."""
    ctx = ev.ctx
    comp = {}
    if g[0]:
        comp[ctx.f_K] = next(x for x in itertools.count(2) if ctx.chi_d(x) == -1)
    exp = g[-1] * (ctx.p - 1) // 2
    if len(ctx.delta_divisors) > 1:
        exp += g[1] * ctx.p**ctx.m
    comp[ev.p_part] = pow(primitive_root(ev.p_part), exp, ev.p_part)
    return ref.lift(ev, comp)


# (p, D, m, chain length): the per-chain state at p = 3, 5, 7 and levels
# m = 0, 1, 2, and for chains of two primes.  Every chain is well ordered at
# level 1 and read at N = m + 1, so at m >= 1 some N_l < N, where
# w(k + h) = w(k) mod p^N fails and the merged weights are not 2 w(k)
CHAIN_STATE_CASES = [(p, D, m, 1) for p, D in ((3, 257), (5, 8), (7, 5)) for m in (0, 1, 2)]
CHAIN_STATE_CASES += [(3, 8, 0, 2), (3, 8, 1, 2)]


@pytest.mark.parametrize("p,D,m,r", CHAIN_STATE_CASES)
def test_chain_state_matches_fresh_recomputation(p, D, m, r):
    # what the chain's evaluator keeps for all its evaluation primes, read
    # after evaluations with and without h-twists: lifts, unit multipliers,
    # sigma_l rows, and the merged multi-index weights with their grouping
    N = m + 1
    ctx = build_field(p, D, m, N)
    kps = _chain(ctx, r, 1)
    ells = tuple(kp.ell for kp in kps)
    cls = derivative_class(ctx, "d", D, kps)
    gen = evaluation_primes(ctx, cls.n)
    qs = [next(gen), next(gen)]
    for q, twist in zip(qs, (None, {D: 3, ells[0]: 3})):
        evaluate_kappa(ctx, cls, q, h_twist=twist)
    evaluator = _chain_evaluator(ctx, "d", D, cls.aux_primes, N)
    support = evaluator.support
    ev = EvalContext(ctx, ells, qs[1])
    pN, M, n = p**N, ev.M, cls.n
    assert support.M == M
    for g in ctx.group.elements():
        assert support.lifts[g] == _fresh_lift(ev, g)
    assert support.conjugates == tuple(
        (g, _fresh_lift(ev, ctx.group.inv(g))) for g in ctx.group.elements())
    assert sorted(support.primes) == sorted(factorint(M))
    p_m = p**m
    for d in (d for d in range(2, D + 1) if D % d == 0):
        assert _unit_multipliers("d", d, p, m, D, ells) == (
            (M // d) * pow(p_m, -1, d) + D, None, d)
    u_n, u_p = (M // n) * pow(p_m, -1, n), M // ev.p_part
    assert _unit_multipliers("a", 2, p, m, D, ells) == (u_n + 2 * u_p, u_n + u_p, 1)
    rows = evaluator.rows
    assert rows == tuple(tuple(pow(kp.s_ell, k, kp.ell) for k in range(kp.ell - 1))
                         for kp in kps)
    # the cell at 1/c is k + h on every axis, h = (l - 1) / 2: sigma_l^h = -1
    halves = [(kp.ell - 1) // 2 for kp in kps]
    assert all(row[(k + h) % len(row)] == -row[k] % (len(row) + 1)
               for row, h in zip(rows, halves) for k in range(len(row)))
    cells = list(iter_product(*(range(kp.ell - 1) for kp in kps)))
    index = {k: i for i, k in enumerate(cells)}
    weights = [math.prod(k) % pN for k in cells]
    inverse = [index[tuple((kj + h) % (kp.ell - 1) for kj, h, kp in zip(k, halves, kps))]
               for k in cells]
    merged = [(weights[i] + weights[j]) % pN for i, j in enumerate(inverse)]
    assert _grouped(evaluator.groups) == {i: w for i, w in enumerate(merged) if w}


def _grouped(groups):
    """{cell: weight} of a _group_weights grouping, whose weights are
    distinct and decreasing."""
    assert [w for w, _ in groups] == sorted({w for w, _ in groups}, reverse=True)
    return {i: w for w, cells in groups for i in cells}


# (D, m, N, chain length, level, h-twist exponent): chains of one and two
# primes; D = 785 has deg P = 2 |R_785| = 624 above l = 109 and above
# 7 * 43, so its fold wraps; m = 1 has p^{m+1} = 9 and six conjugates.
# deg Q = |R_D| exceeds n p^{m+1} at D = 1937, l = 61 (888 > 183) and at
# D = 785, m = 1, l = 7 (312 > 63), so the nodes of the tree for Q fold
# too; 7 is 1 mod 3 but not mod 9.  1016 = 8 * 127 has the composite
# proper divisors 254 and 508, whose Moebius tables have divisors of both
# signs.
ORBIT_CASES = [
    (257, 0, 3, 1, 3, None),
    (785, 0, 3, 1, 3, 2),
    (257, 1, 2, 1, 2, 5),
    (8, 0, 2, 2, 1, 3),
    (785, 0, 1, 2, 1, None),
    (1937, 0, 1, 1, 1, None),
    (785, 1, 2, 1, 1, 2),
    (1016, 0, 1, 1, 1, None),
]


@pytest.mark.parametrize("D,m,N,r,level,w", ORBIT_CASES)
def test_factor_orbits_match_reference(D, m, N, r, level, w):
    ctx = build_field(3, D, m, N)
    kps = _chain(ctx, r, level)
    ells = tuple(kp.ell for kp in kps)
    # q = 1 mod p^{m+1} also when the chain's level is below m + 1
    q = next(evaluation_primes(ctx, math.prod(ells), level=max(level, m + 1)))
    ev = EvalContext(ctx, ells, q)
    if D == 785:
        assert len(ev.norm_set_d(D)) == 624 > math.prod(ells)
    if (D, m, r) in ((1937, 0, 1), (785, 1, 1)):
        assert len(ev.norm_set_d(D)) // 2 > math.prod(ells) * ev.p_part
    rows = [[pow(kp.s_ell, k, kp.ell) for k in range(1, kp.ell - 1)] for kp in kps]
    twist = ev.lift({ells[-1]: w}) if w else 1
    # the class at f_K walks the chi_D-kernel; every proper divisor and the
    # a-type are Moebius tables
    classes = [("d", d) for d in range(2, D + 1) if D % d == 0] + [("a", 2)]
    cosets = set()
    for g in ctx.group.elements():
        t_g = ev.support.lifts[g] * twist % ev.M
        cosets.add(ctx.chi_d(t_g % ctx.f_K))
        for kind, param in classes:
            num, den = ev.factor_orbit(kind, param, t_g, rows)
            assert (den is None) == ((kind, param) == ("d", D))
            for i, rhos in enumerate(iter_product(*rows)):
                mult = t_g * ev.lift(dict(zip(ells, rhos))) % ev.M
                got = num[i] if den is None else num[i] * pow(den[i], -1, q) % q
                assert got == ref.factor_value(ev, kind, param, ells, mult)
    assert cosets == {1, -1}


def test_proper_divisor_needs_multiplier_prime_to_conductor():
    # the Moebius table reads Phi_d, which is the product over the norm set
    # only when w = T_f[a mod f_K] has order d: at D = 473 = 11 * 43 the
    # multiplier 43 mod f_K leaves w of order 1 at d = 43, so the table
    # differs from the walk there; factor_orbit rejects every multiplier
    # not prime to M, and 2 mod f_K agrees with the reference
    ctx = build_field(3, 473, 0, 3)
    q = next(evaluation_primes(ctx, 1, level=3))
    ev = EvalContext(ctx, (), q)
    u = _unit_multiplier(ev, "d", 43)
    bad = ev.lift({473: 43})
    num, den = ev._mobius_table(u * bad, _mobius_rows(43, 3, False), [])
    assert num[0] * pow(den[0], -1, q) % q != ref.factor_value(ev, "d", 43, (), bad)
    for w in (43, 11):
        with pytest.raises(ValueError):
            ev.factor_orbit("d", 43, ev.lift({473: w}), [])
    good = ev.lift({473: 2})
    assert ev.factor_value("d", 43, good) == ref.factor_value(ev, "d", 43, (), good)
