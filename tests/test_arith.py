import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycfit import arith
from cycfit.arith import (
    _smallest_generator,
    crt,
    dlog_p_part,
    factorint,
    is_prime,
    kronecker,
    make_field,
    poly_mul,
    primitive_root,
    root_of_unity,
    sqrt_mod_prime,
    val_p,
)
from cycfit.config import DEFAULT_FIELD_BUDGET
from cycfit.errors import BudgetExceeded, NotPrime, OrderNotDividing, ZeroElement
from cycfit.fields import KolyvaginPrime, build_field, evaluation_primes, kolyvagin_primes
from reference_engine import mobius


def test_make_field_7_generator_is_3():
    # brute-force oracle: smallest residue of full order 6 mod 7
    best = None
    for a in range(2, 7):
        n, cur = 1, a
        while cur != 1:
            cur = cur * a % 7
            n += 1
        if n == 6:
            best = a
            break
    assert best == 3
    assert make_field(7).g == 3


def _order(a, q):
    n, cur = 1, a
    while cur != 1:
        cur = cur * a % q
        n += 1
    return n


def test_make_field_generator_is_the_smallest_of_full_order():
    # brute-force orders at every prime q < 1000
    for q in filter(is_prime, range(2, 1000)):
        want = next(a for a in range(1, q) if _order(a, q) == q - 1)
        assert make_field(q).g == want, q
    # and primitive_root, which factors q itself, at evaluation primes of a
    # one-component and a four-component conductor (3080 = 8 * 5 * 7 * 11)
    for D, N in ((257, 3), (3080, 2)):
        qs = list(itertools.islice(evaluation_primes(build_field(3, D, 0, N)), 20))
        assert [make_field(q).g for q in qs] == [primitive_root(q) for q in qs], D


def _generator_by_definition(q):
    """The least g of order q - 1 modulo the prime q: g^((q-1)/r) != 1 for
    every prime r | q - 1, with q - 1 factored by trial division."""
    primes, rest, r = [], q - 1, 2
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1 if r == 2 else 2
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, q) if all(pow(g, (q - 1) // r, q) != 1 for r in primes))


def test_smallest_generator_matches_its_definition():
    # every prime below 30 000, and 200 evaluation primes at each of three
    # conductors with the primes of f_K p^(m+1) handed over as known, against
    # a search that factors q - 1 by trial division; the winners include
    # composites, so the search does not stop at prime candidates
    winners = set()
    for q in filter(is_prime, range(2, 30000)):
        g = _generator_by_definition(q)
        assert _smallest_generator(q, q - 1) == g, q
        winners.add(g)
    for D in (257, 785, 1937):
        known = tuple(factorint(3 * D))
        for q in itertools.islice(evaluation_primes(build_field(3, D, 0, 3)), 200):
            g = _generator_by_definition(q)
            assert _smallest_generator(q, q - 1, known) == g, q
            winners.add(g)
    assert {6, 10, 12} <= winners
    # prime powers, where a candidate may share a factor with n: the least g
    # prime to n of order phi(n)
    for n in (4, 9, 25, 27, 49, 81, 121, 125, 169, 243, 343, 729, 2187):
        phi = n - n // min(factorint(n))
        want = next(g for g in range(1, n) if math.gcd(g, n) == 1
                    and all(pow(g, phi // r, n) != 1 for r in factorint(phi)))
        assert primitive_root(n) == _smallest_generator(n, phi) == want, n


def test_kolyvagin_generators_are_the_smallest():
    # s_ell is the least generator of F_ell^x, or its inverse under the
    # rejected convention
    for D in (257, 785, 1937):
        for kp in itertools.islice(kolyvagin_primes(build_field(3, D, 0, 3)), 20):
            g = _generator_by_definition(kp.ell)
            assert kp.s_ell == g, kp.ell
            assert KolyvaginPrime.build(kp.ell, 3, flip_sigma=True).s_ell == pow(g, -1, kp.ell)


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(4)


def test_make_field_budget():
    # the least prime above the budget is refused before q - 1 is factored
    q = 2**62 + 135
    assert q > DEFAULT_FIELD_BUDGET and is_prime(q)
    assert all(not is_prime(n) for n in range(DEFAULT_FIELD_BUDGET + 1, q))
    with pytest.raises(BudgetExceeded):
        make_field(q)


def test_root_of_unity_examples():
    F7 = make_field(7)
    assert root_of_unity(F7, 1) == 1
    z3 = root_of_unity(F7, 3)
    assert z3 == 2 and pow(z3, 3, 7) == 1
    with pytest.raises(OrderNotDividing):
        root_of_unity(F7, 5)


def test_root_of_unity_compatibility():
    ctx = make_field(73)  # order 72
    for M in (1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72):
        for Mp in (M * k for k in (1, 2, 3) if 72 % (M * k) == 0):
            big = root_of_unity(ctx, Mp)
            assert pow(big, Mp // M, 73) == root_of_unity(ctx, M)


def test_dlog_examples():
    F7 = make_field(7)
    assert dlog_p_part(F7, 1, 3, 1) == 0
    assert dlog_p_part(F7, 3, 3, 1) == 1
    # 2 = 3^2 in F_7 (brute force over all residues)
    assert pow(3, 2, 7) == 2
    assert dlog_p_part(F7, 2, 3, 1) == 2
    with pytest.raises(ZeroElement):
        dlog_p_part(F7, 0, 3, 1)
    # every x = 0 mod q, not only x = 0, has no discrete log
    ctx = make_field(13879)
    for x in (13879, 2 * 13879):
        with pytest.raises(ZeroElement):
            dlog_p_part(ctx, x, 3, 3)
    with pytest.raises(OrderNotDividing):
        dlog_p_part(F7, 2, 5, 1)


def test_dlog_homomorphism_and_kills_powers():
    ctx = make_field(19)  # 19 - 1 = 2 * 3^2
    rng = random.Random(7)
    for _ in range(50):
        x = rng.randrange(1, 19)
        y = rng.randrange(1, 19)
        assert (
            dlog_p_part(ctx, x * y % 19, 3, 2)
            == (dlog_p_part(ctx, x, 3, 2) + dlog_p_part(ctx, y, 3, 2)) % 9
        )
        assert dlog_p_part(ctx, pow(x, 9, 19), 3, 2) == 0


def test_dlog_matches_exhaustive_search_small_fields():
    # q <= 10^4: exhaustive discrete log must agree with the p-part value
    # (101, 5, 2) and (197, 7, 2) lift two digits at p > 3, (1459, 3, 6) six at p = 3
    for q, p, N in ((19, 3, 2), (7, 3, 1), (29, 7, 1), (31, 5, 1), (109, 3, 3), (8101, 3, 4),
                    (101, 5, 2), (197, 7, 2), (1459, 3, 6)):
        ctx = make_field(q)
        table = {}
        cur = 1
        for j in range(q - 1):
            table[cur] = j
            cur = cur * ctx.g % q
        pN = p**N
        assert (q - 1) % pN == 0
        for x, j in list(table.items())[:200]:
            assert dlog_p_part(ctx, x, p, N) == j % pN


def test_a_searched_prime_is_proven_once(monkeypatch):
    # make_field(q, known=...) reads back the proof of a q that
    # evaluation_primes yielded, and KolyvaginPrime.build (with its
    # make_field) that of an l from kolyvagin_primes: is_prime sees each
    # number once, during its search
    calls = collections.Counter()
    prove = arith.is_prime

    def counting(n):
        calls[n] += 1
        return prove(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    arith.proven_prime.cache_clear()
    ctx = build_field(3, 785, 0, 3)
    known = tuple(factorint(3 * 785))
    for q in itertools.islice(evaluation_primes(ctx), 10):
        assert calls[q] == 1, q
        make_field(q, known=known)
        assert calls[q] == 1, q
    for kp in itertools.islice(kolyvagin_primes(ctx), 10):
        assert calls[kp.ell] == 1, kp.ell
        KolyvaginPrime.build(kp.ell, 3)
        assert calls[kp.ell] == 1, kp.ell


def _factor_by_trial_division(n):
    """{prime: exponent} of n > 0, the primes in increasing order."""
    out, r = {}, 2
    while r * r <= n:
        while n % r == 0:
            out[r] = out.get(r, 0) + 1
            n //= r
        r += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorint_matches_trial_division():
    # factorint lists the primes up to 37 first, in increasing order as trial
    # division finds them, and the rest as Pollard rho splits the cofactor
    for n in range(1, 2 * 10**4):
        want = _factor_by_trial_division(n)
        got = factorint(n)
        assert got == want, n
        small = [r for r in want if r <= 37]
        assert list(got)[:len(small)] == small, n
    for r in ALL_BASES:
        for e in range(1, 63):
            if r**e > 2**62:
                break
            assert factorint(r**e) == {r: e}, (r, e)
    # the cofactor (2^31 - 1)(2^61 - 1) is composite, so rho splits it
    n = 2**5 * 3**4 * (2**31 - 1) * (2**61 - 1)
    assert list(factorint(n).items()) == [(2, 5), (3, 4), (2**61 - 1, 1), (2**31 - 1, 1)]


def test_utility_functions():
    assert factorint(2**3 * 3 * 257) == {2: 3, 3: 1, 257: 1}
    assert kronecker(257, 3) == -1
    assert kronecker(257, 13) == 1
    assert kronecker(13, 3) == 1
    r = sqrt_mod_prime(257 % 13, 13)
    assert r is not None and r * r % 13 == 257 % 13
    assert sqrt_mod_prime(2, 5) is None
    assert crt([1, 2], [3, 5]) == 7
    assert val_p(18, 3, 5) == 2 and val_p(0, 3, 5) == 5
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)


def _strong_probable_prime(n, bases):
    """Miller-Rabin on odd n > 37 with the given bases."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (least strong pseudoprime to the first k bases, k)
PSEUDOPRIMES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                (341550071728321, 7), (3825123056546413051, 9))


def test_is_prime_below_two_million_matches_sieve():
    # the sieve is exact; below 2 * 10^6 the twelve-base test agrees with it
    bound = 2 * 10**6
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    assert [n for n in range(bound) if is_prime(n) != sieve[n]] == []


@pytest.mark.parametrize("bound,k", PSEUDOPRIMES)
def test_is_prime_matches_all_bases_around_each_bound(bound, k):
    # the bound itself fools the first k bases, and is_prime still rejects it
    assert _strong_probable_prime(bound, ALL_BASES[:k])
    assert not _strong_probable_prime(bound, ALL_BASES) and not is_prime(bound)
    rng = random.Random(bound)
    near = list(range(bound - 2000, bound + 2000, 2))
    far = [rng.randrange(bound // 2, 2 * bound) | 1 for _ in range(2000)]
    for n in near + far:
        assert is_prime(n) == (math.gcd(n, math.prod(ALL_BASES)) == 1
                               and _strong_probable_prime(n, ALL_BASES)), n


# (q, p, N) with p^N | q - 1
DLOG_FIELDS = ((19, 3, 2), (109, 3, 3), (13879, 3, 3), (7, 3, 1), (29, 7, 1), (31, 5, 1),
               (5063797, 3, 4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DLOG_FIELDS), st.integers(0, 10**9), st.integers(0, 10**9))
def test_dlog_p_part_is_additive(field, i, j):
    q, p, N = field
    ctx = make_field(q)
    x, y = pow(ctx.g, i % (q - 1), q), pow(ctx.g, j % (q - 1), q)
    pN = p**N
    dx, dy = dlog_p_part(ctx, x, p, N), dlog_p_part(ctx, y, p, N)
    assert dlog_p_part(ctx, x * y % q, p, N) == (dx + dy) % pN
    assert dx == i % (q - 1) % pN


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((7, 31, 73, 1543, 13879)), st.data())
def test_root_of_unity_compatible_along_divisor_chains(q, data):
    ctx = make_field(q)
    big = data.draw(st.sampled_from(_divisors(q - 1)))
    small = data.draw(st.sampled_from(_divisors(big)))
    assert pow(root_of_unity(ctx, big), big // small, q) == root_of_unity(ctx, small)


# Slot paths at 64 terms (a slot needs 2 bits(q - 1) + 7 bits): 2, 3 and
# 65537 fill part of one 64-bit word and 134217757 63 of its 64 bits;
# 2^31 - 1 (69 of 72 bits) and 2^31 + 11 (71 of 72) take two words, and
# 2^61 - 1 (129 bits, 17 bytes) is wider than two words and unpacks each
# coefficient with int.from_bytes.  2^28 + 3 sits at the 8-byte boundary:
# whole-word slots up to 63 terms, 9 bytes at 64.  Every list packs through
# 64-bit words.
POLY_MUL_MODULI = (2, 3, 65537, 134217757, 2**28 + 3, 2**31 - 1, 2**31 + 11, 2**61 - 1)


def _schoolbook(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _cyclic_fold(poly, size, q):
    if len(poly) <= size:
        return poly
    out = [0] * size
    for t, c in enumerate(poly):
        out[t % size] = (out[t % size] + c) % q
    return out


@pytest.mark.parametrize("q", POLY_MUL_MODULI)
def test_poly_mul_fills_slots_exactly(q):
    # every coefficient q - 1: the largest sums a slot must hold, also
    # after the cyclic fold, where every residue collects 64 products
    a = [q - 1] * 64
    assert poly_mul(a, a, q) == _schoolbook(a, a, q)
    assert poly_mul(a, a, q, cyclic=64) == _cyclic_fold(_schoolbook(a, a, q), 64, q)


# (q, shorter length, slot bytes): 7-byte slots restride into words, 8-byte
# slots are the words themselves, 9-byte slots restride into two words
SLOT_WIDTH_CASES = [(2**25 + 35, 15, 7), (2**25 + 35, 16, 8), (2**28 + 3, 1, 8),
                    (2**28 + 3, 63, 8), (2**28 + 3, 64, 9), (2**31 - 1, 3, 8), (2**31 - 1, 4, 9)]


@pytest.mark.parametrize("q,terms,width", SLOT_WIDTH_CASES)
def test_poly_mul_matches_schoolbook_at_slot_widths_7_8_9(q, terms, width):
    assert is_prime(q)
    assert (2 * (q - 1).bit_length() + terms.bit_length() + 7) // 8 == width
    rng = random.Random(q + terms)
    for longer in (terms, terms + 9):
        for a in ([q - 1] * terms, [rng.randrange(q) for _ in range(terms)]):
            b = [q - 1] * (longer - 1) + [rng.randrange(q)]
            assert poly_mul(a, b, q) == _schoolbook(a, b, q)
            assert poly_mul(b, a, q) == _schoolbook(b, a, q)
            assert poly_mul(a, b, q, cyclic=longer) == _cyclic_fold(_schoolbook(a, b, q), longer, q)


def test_poly_mul_refuses_coefficients_wider_than_a_word():
    # coefficients pack as 64-bit words: fields stay below the 2^62 budget
    q = 2**89 - 1
    with pytest.raises(OverflowError):
        poly_mul([q - 1] * 64, [q - 1] * 64, q)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(POLY_MUL_MODULI), st.data())
def test_poly_mul_matches_schoolbook(q, data):
    coeff = st.one_of(st.just(q - 1), st.integers(0, q - 1))
    a = data.draw(st.lists(coeff, min_size=1, max_size=64))
    b = data.draw(st.lists(coeff, min_size=1, max_size=64))
    assert poly_mul(a, b, q) == _schoolbook(a, b, q)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(POLY_MUL_MODULI), st.integers(1, 64),
       st.sampled_from(["any", "no fold", "2L - 1"]), st.data())
def test_poly_mul_cyclic_matches_folded_schoolbook(q, size, shape, data):
    if shape == "2L - 1":
        len_a = len_b = size
    else:
        len_a = data.draw(st.integers(1, size))
        top = size - len_a + 1 if shape == "no fold" else size
        len_b = data.draw(st.integers(1, top))
    coeff = st.one_of(st.just(q - 1), st.integers(0, q - 1))
    a = data.draw(st.lists(coeff, min_size=len_a, max_size=len_a))
    b = data.draw(st.lists(coeff, min_size=len_b, max_size=len_b))
    assert poly_mul(a, b, q, cyclic=size) == _cyclic_fold(_schoolbook(a, b, q), size, q)


def _monics(q, j):
    return [list(tail) + [1] for tail in itertools.product(range(q), repeat=j)]


@pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 5, 7) for k in (2, 3, 4)]
                         + [(2, 5), (2, 6)])
def test_irreducible_count_matches_gauss(q, k):
    # Gauss: (1/k) sum_{d | k} mu(d) q^{k/d} monic irreducibles of degree k;
    # the reducible monics are exactly the products of two monics of degrees
    # j and k - j, 1 <= j <= k/2, so poly_mul must leave that many out
    expected = sum(mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    reducible = {tuple(poly_mul(a, b, q)) for j in range(1, k // 2 + 1)
                 for a in _monics(q, j) for b in _monics(q, k - j)}
    assert q**k - len(reducible) == expected


def _mult_order(q, L):
    k, x = 1, q % L
    while x != 1:
        x, k = x * q % L, k + 1
    return k


def _cyclic_pow(a, e, q, L):
    out, base = [1], a
    while e:
        if e & 1:
            out = poly_mul(out, base, q, cyclic=L)
        e >>= 1
        if e:
            base = poly_mul(base, base, q, cyclic=L)
    return out + [0] * (L - len(out))


# Primes q of order k modulo L = 3 D for one of D = 5, 8, 257, 473, 1229,
# 1937: the cyclic q-th power that poly_mul computes in F_q[X]/(X^L - 1) is
# the Frobenius permutation i -> i q mod L, of order k
FROBENIUS_CASES = [(7, 2), (19, 2), (31, 2), (241, 4), (787, 4), (1087, 4), (2113, 3),
                   (3433, 3), (4729, 2), (6661, 4), (12289, 2), (16987, 3)]


@pytest.mark.parametrize("q,k", FROBENIUS_CASES)
def test_frobenius_is_the_q_th_power(q, k):
    # in F_q[X]/(X^L - 1), (sum a_i X^i)^q = sum a_i X^{iq mod L}: the q-th
    # power by cyclic poly_mul is the exponent permutation i -> iq, whose
    # k-th iterate, and no earlier one, is the identity
    L = next(3 * D for D in (5, 8, 257, 473, 1229, 1937) if _mult_order(q, 3 * D) == k)
    frob = [i * q % L for i in range(L)]
    rng = random.Random(q * k)
    elements = [[0, 1] + [0] * (L - 2), [1] + [0] * (L - 1), [0] * L]
    elements += [[rng.randrange(q) for _ in range(L)] for _ in range(3)]
    for a in elements:
        image = [0] * L
        for i, c in enumerate(a):
            image[frob[i]] = c
        assert _cyclic_pow(a, q, q, L) == image
    orbit = list(range(L))
    for j in range(1, k + 1):
        orbit = [frob[i] for i in orbit]
        assert (orbit == list(range(L))) == (j == k)
