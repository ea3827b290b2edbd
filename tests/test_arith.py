import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycfit.arith import (
    _find_irreducible,
    _is_irreducible,
    crt,
    dlog_p_part,
    factorint,
    is_prime,
    kronecker,
    make_field,
    poly_mul,
    root_of_unity,
    sqrt_mod_prime,
    val_p,
)
from cycfit.config import DEFAULT_FIELD_BUDGET
from cycfit.errors import BudgetExceeded, NotPrime, OrderNotDividing, ZeroElement


def brute_order(ctx, x):
    n, cur = 1, x
    while cur != ctx.one():
        cur = ctx.mul(cur, x)
        n += 1
    return n


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
    assert make_field(7, 1).g == 3


def test_make_field_25_generator_order():
    ctx = make_field(5, 2)
    assert ctx.order == 24
    assert brute_order(ctx, ctx.g) == 24
    # modulus is irreducible: no root in F_5
    c0, c1, _ = ctx.modulus
    assert all((x * x + c1 * x + c0) % 5 for x in range(5))


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(4, 1)


def test_make_field_budget():
    with pytest.raises(BudgetExceeded):
        make_field(13, 128)


def _moebius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 5, 7) for k in (2, 3, 4)]
                         + [(2, 5), (2, 6)])
def test_irreducible_count_matches_gauss(q, k):
    # Gauss: (1/k) sum_{d | k} mu(d) q^{k/d} monic irreducibles of degree k
    expected = sum(_moebius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    count = sum(_is_irreducible(tail + (1,), q)
                for tail in itertools.product(range(q), repeat=k))
    assert count == expected


# The moduli `cycfit verify -p 3` builds at D = 5, 8, 257, 473, 1229, 1937:
# they fix the generator of F_{q^k} and so every reported k > 1 value.
PINNED_MODULI = {
    (19, 2): (1, 0, 1), (7, 2): (1, 0, 1), (31, 2): (1, 0, 1),
    (4729, 2): (11, 0, 1), (12289, 2): (11, 0, 1),
    (2113, 3): (3, 0, 0, 1), (3433, 3): (2, 0, 0, 1), (16987, 3): (3, 0, 0, 1),
    (241, 4): (7, 0, 0, 0, 1), (787, 4): (2, 1, 0, 0, 1),
    (1087, 4): (3, 1, 0, 0, 1), (6661, 4): (2, 0, 0, 0, 1),
}


@pytest.mark.parametrize("q,k", sorted(PINNED_MODULI))
def test_find_irreducible_pinned_moduli(q, k):
    assert _find_irreducible(q, k) == PINNED_MODULI[(q, k)]


def _ben_or_scan(q, k):
    """The lexicographically first monic irreducible, all by Ben-Or."""
    for t in range(q**k):
        tail = tuple(t // q**i % q for i in range(k))
        if _is_irreducible(tail + (1,), q):
            return tail + (1,)


def test_find_irreducible_matches_plain_ben_or_scan():
    # binomial blocks decided in closed form: irreducible (q = 1 mod 4 or
    # k = 2, 3, 5, 6 with every prime of k dividing q - 1), excluded by
    # 4 | k with q = 3 mod 4, and excluded by a prime of k not dividing q - 1
    cases = [(q, k) for q in range(2, 400) if is_prime(q) for k in range(2, 7)
             if q**k <= DEFAULT_FIELD_BUDGET]
    assert len(cases) == 390
    for q, k in cases:
        assert _find_irreducible(q, k) == _ben_or_scan(q, k), (q, k)


@pytest.mark.parametrize("q,k", sorted(PINNED_MODULI))
def test_frobenius_is_the_q_th_power(q, k):
    fld = make_field(q, k)
    rng = random.Random(q * k)
    elements = [fld.g, fld.one(), fld.zero()]
    elements += [tuple(rng.randrange(q) for _ in range(k)) for _ in range(20)]
    for a in elements:
        assert fld.frobenius(a) == fld.pow(a, q)


def test_root_of_unity_examples():
    F7 = make_field(7, 1)
    assert root_of_unity(F7, 1) == 1
    z3 = root_of_unity(F7, 3)
    assert z3 == 2 and pow(z3, 3, 7) == 1
    with pytest.raises(OrderNotDividing):
        root_of_unity(F7, 5)


def test_root_of_unity_compatibility():
    ctx = make_field(5, 2)  # order 24
    for M in (1, 2, 3, 4, 6, 8, 12, 24):
        for Mp in (M * k for k in (1, 2, 3) if 24 % (M * k) == 0):
            big = root_of_unity(ctx, Mp)
            assert ctx.pow(big, Mp // M) == root_of_unity(ctx, M)


def test_dlog_examples():
    F7 = make_field(7, 1)
    assert dlog_p_part(F7, 1, 3, 1) == 0
    assert dlog_p_part(F7, 3, 3, 1) == 1
    # 2 = 3^2 in F_7 (brute force over all residues)
    assert pow(3, 2, 7) == 2
    assert dlog_p_part(F7, 2, 3, 1) == 2
    with pytest.raises(ZeroElement):
        dlog_p_part(F7, 0, 3, 1)
    with pytest.raises(OrderNotDividing):
        dlog_p_part(F7, 2, 5, 1)


def test_dlog_homomorphism_and_kills_powers():
    ctx = make_field(19, 1)  # 19 - 1 = 2 * 3^2
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
    # q^k <= 10^4: exhaustive discrete log must agree with the p-part value
    for q, k, p, N in ((19, 1, 3, 2), (7, 2, 3, 1), (13, 2, 7, 1), (5, 2, 3, 1)):
        ctx = make_field(q, k)
        table = {}
        cur = ctx.one()
        for j in range(ctx.order):
            table[cur] = j
            cur = ctx.mul(cur, ctx.g)
        pN = p**N
        assert ctx.order % pN == 0
        for x, j in list(table.items())[:200]:
            assert dlog_p_part(ctx, x, p, N) == j % pN


def test_extension_field_inverse_and_pow():
    ctx = make_field(5, 2)
    rng = random.Random(3)
    for _ in range(20):
        a = (rng.randrange(5), rng.randrange(5))
        if ctx.is_zero(a):
            continue
        assert ctx.mul(a, ctx.inv(a)) == ctx.one()
        assert ctx.pow(a, -1) == ctx.inv(a)


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
PSEUDOPRIMES = ((3215031751, 4), (341550071728321, 7), (3825123056546413051, 9))


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


# (q, k, p, N) with p^N | q^k - 1, prime fields and extension fields
DLOG_FIELDS = ((19, 1, 3, 2), (109, 1, 3, 3), (13879, 1, 3, 3), (7, 2, 3, 1),
               (5, 2, 3, 1), (13, 2, 7, 1), (787, 4, 3, 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DLOG_FIELDS), st.integers(0, 10**9), st.integers(0, 10**9))
def test_dlog_p_part_is_additive(field, i, j):
    q, k, p, N = field
    ctx = make_field(q, k)
    x, y = ctx.pow(ctx.g, i % ctx.order), ctx.pow(ctx.g, j % ctx.order)
    pN = p**N
    dx, dy = dlog_p_part(ctx, x, p, N), dlog_p_part(ctx, y, p, N)
    assert dlog_p_part(ctx, ctx.mul(x, y), p, N) == (dx + dy) % pN
    assert dx == i % ctx.order % pN


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((7, 1), (31, 1), (1543, 1), (5, 2), (7, 2), (3, 3))), st.data())
def test_root_of_unity_compatible_along_divisor_chains(field, data):
    ctx = make_field(*field)
    big = data.draw(st.sampled_from(_divisors(ctx.order)))
    small = data.draw(st.sampled_from(_divisors(big)))
    assert ctx.pow(root_of_unity(ctx, big), big // small) == root_of_unity(ctx, small)


# Slot paths at 64 terms (a slot needs 2 bits(q - 1) + 7 bits): 2, 3 and
# 65537 fill part of one 64-bit word and 134217757 63 of its 64 bits;
# 2^31 - 1 (69 of 72 bits) and 2^31 + 11 (71 of 72) take two words, and
# 2^61 - 1 (129 bits) and 2^89 - 1 are wider than two words and pack each
# coefficient with int.to_bytes
POLY_MUL_MODULI = (2, 3, 65537, 134217757, 2**31 - 1, 2**31 + 11, 2**61 - 1, 2**89 - 1)


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
