"""Exact modular arithmetic: Z/p^N, prime fields F_q, roots of unity and
p-part discrete logarithms.

Everything here is integer-exact.  Field elements are plain ints mod q, and
the generator of F_q^x is the smallest one, so that every downstream sign
and indexing convention is reproducible.  Every evaluation prime has residue
degree 1 (q = 1 mod the conductor), so no extension field is needed.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache

from .config import DEFAULT_FIELD_BUDGET
from .errors import BudgetExceeded, NotPrime, OrderNotDividing, ZeroElement

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# (bound, number of leading _SMALL_PRIMES): Miller-Rabin with these bases
# is proven for n below the bound (Jaeschke, Math. Comp. 61, 1993; each
# bound is the least strong pseudoprime to its bases).  All twelve bases
# are proven below 318665857834031151167461.
_MR_BASES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
             (341550071728321, 7), (3825123056546413051, 9))
_MR_BOUNDS = tuple(bound for bound, _ in _MR_BASES)
# the bases for n in [_MR_BOUNDS[i - 1], _MR_BOUNDS[i]), all twelve at the end
_MR_PREFIXES = tuple(_SMALL_PRIMES[:c] for _, c in _MR_BASES) + (_SMALL_PRIMES,)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for every n below 3.18 * 10^23
    (all twelve bases) and a strong probable-prime test above.  n <= 37 is
    looked up among the small primes; a larger n with a small factor is
    rejected by one gcd with their product; the bases are the fewest of
    Jaeschke's prefixes whose bound exceeds n."""
    if n <= 37:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    m = n - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    for a in _MR_PREFIXES[bisect_right(_MR_BOUNDS, n)]:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def proven_prime(n: int) -> bool:
    """is_prime(n), remembered for the last 64 numbers asked.  The prime
    searches of fields prove their candidates here, so that make_field reads
    back the proof of a prime just found instead of proving it again; any
    other n is proven afresh."""
    return is_prime(n)


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (deterministic seed sweep)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorint(n: int) -> dict[int, int]:
    """Full factorization {prime: exponent}, keys in increasing order for the
    small primes and then as Pollard rho finds the rest: trial division by
    the small primes that divide gcd(n, 2 * 3 * ... * 37), then rho."""
    if n <= 0:
        raise ValueError("factorint needs a positive integer")
    out: dict[int, int] = {}
    small = math.gcd(n, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if p > small:
            break
        if small % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = v
        while d == v:
            d = _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Smallest square root of a mod p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return min(x, p - x)
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    g = pow(z, s, p)
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    r = e
    while b != 1:
        t, m = b, 0
        while t != 1:
            t = t * t % p
            m += 1
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m
    return min(x, p - x)


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = r_i mod m_i for pairwise coprime moduli."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m


def val_p(x: int, p: int, cap: int) -> int:
    """p-adic valuation of x mod p^cap (val of 0 is cap)."""
    x %= p**cap
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# The keys of primitive_root are the p^(m+1) of the chains' supports
# (units._Support), one or two per field a process verifies.
@lru_cache(maxsize=16)
def primitive_root(n: int) -> int:
    """Smallest primitive root modulo a prime power n (1 for n = 2); n is
    factored to find phi(n)."""
    return _smallest_generator(n, n - n // min(factorint(n)))


def _smallest_generator(n: int, phi: int, known: tuple[int, ...] = ()) -> int:
    """Smallest g prime to n of order phi modulo n, for n with a cyclic unit
    group of order phi: the least g prime to n with g^(phi/r) != 1 for every
    prime r | phi, the r tried in increasing order.  The primes in `known`
    are divided out of phi, and only the cofactor is factored."""
    factors = set()
    rest = phi
    for r in known:
        if rest % r == 0:
            factors.add(r)
            while rest % r == 0:
                rest //= r
    factors.update(factorint(rest))
    exponents = [phi // r for r in sorted(factors)]
    g = 1
    while True:
        if math.gcd(g, n) == 1:
            for e in exponents:
                if pow(g, e, n) == 1:
                    break
            else:
                return g
        g += 1


def poly_mul(a: list[int], b: list[int], q: int, cyclic: int | None = None) -> list[int]:
    """Product of two nonempty coefficient lists over F_q, entries in [0, q);
    with cyclic=L (len(a), len(b) <= L), the product mod X^L - 1, as
    min(len(a) + len(b) - 1, L) coefficients.

    Exact Kronecker substitution: each list is packed into one integer with
    byte slots wide enough for any coefficient of the exact integer product
    (at most min(len) terms below (q-1)^2 each), so one big-integer
    multiplication carries no slot into the next.  The cyclic product is
    folded on that integer, low L slots plus the rest: residue t mod L
    still collects at most min(len) terms, so the slots stay exact.  The
    coefficients of both lists go through one array('Q') as little-endian
    64-bit words (every q the engine meets is below
    config.DEFAULT_FIELD_BUDGET = 2^62; a coefficient of 2^64 or more
    raises OverflowError).  Slots of exactly 8 bytes are those words, and
    their bytes are the packed integers as they stand; other widths move
    the words into the slots by one strided bytearray copy per word byte.
    For slots of at most 16 bytes (at 64 terms, every q < 2^60) the product
    is unpacked the same way into one or two words per slot (8-byte slots
    read straight back through array('Q')); only the final % q runs per
    coefficient.  Wider slots unpack each coefficient with int.from_bytes.
    """
    terms = min(len(a), len(b))
    width = (2 * (q - 1).bit_length() + terms.bit_length() + 7) // 8
    size = len(a) + len(b) - 1
    words = array("Q", a)
    words.extend(b)
    if sys.byteorder == "big":
        words.byteswap()
    slots = words.tobytes()
    if width != 8:
        packed, slots = slots, bytearray(width * len(words))
        for k in range(min(width, 8)):
            slots[k::width] = packed[k::8]
    view = memoryview(slots)
    x = int.from_bytes(view[:width * len(a)], "little")
    y = int.from_bytes(view[width * len(a):], "little")
    z = x * y
    if cyclic is not None and size > cyclic:
        bits = 8 * width * cyclic
        z = (z & ((1 << bits) - 1)) + (z >> bits)
        size = cyclic
    raw = z.to_bytes(width * size, "little")
    if width > 16:
        return [int.from_bytes(raw[i:i + width], "little") % q for i in range(0, len(raw), width)]
    span = 8 * -(-width // 8)  # whole words per slot, in bytes
    if span != width:
        packed, raw = raw, bytearray(span * size)
        for k in range(width):
            raw[k::span] = packed[k::width]
    words = array("Q", raw)
    if sys.byteorder == "big":
        words.byteswap()
    if span == 8:
        return [c % q for c in words]
    return [(lo | hi << 64) % q for lo, hi in zip(words[::2], words[1::2])]


# ---------------------------------------------------------------------------
# Prime fields


class FieldCtx:
    """F_q with its smallest generator g of F_q^x, as make_field builds it.
    Elements are plain ints in [0, q)."""

    def __init__(self, q: int, g: int):
        self.q = q
        self.g = g


def make_field(q: int, *, known: tuple[int, ...] = ()) -> FieldCtx:
    """F_q with its smallest generator, computed afresh on every call;
    NotPrime for a composite q and BudgetExceeded when q exceeds the field
    budget.  q is proven prime once: a prime that a search of fields has
    just yielded keeps that search's proof (proven_prime), any other q is
    proven here.  The generator is found from phi(q) = q - 1, without
    factoring q; `known` lists primes the caller knows to divide q - 1
    (those of an evaluation prime's search step), so only the cofactor of
    q - 1 is factored.  The generator does not depend on them.  `known` is
    keyword-only: bench/spans.py reads a second positional argument as the
    degree of an extension field."""
    if q < 2 or not proven_prime(q):
        raise NotPrime(f"q = {q} is not prime")
    if q > DEFAULT_FIELD_BUDGET:
        raise BudgetExceeded(f"q = {q} exceeds the field budget {DEFAULT_FIELD_BUDGET}")
    return FieldCtx(q, _smallest_generator(q, q - 1, known))


def root_of_unity(ctx: FieldCtx, M: int) -> int:
    """The distinguished primitive M-th root of unity g^{(q-1)/M}.

    Compatibility holds by construction: root(M')^{M'/M} = root(M) whenever
    M | M' | q - 1, mirroring a single coherent choice of roots.
    """
    q = ctx.q
    if M < 1 or (q - 1) % M != 0:
        raise OrderNotDividing(f"M = {M} does not divide q - 1 = {q - 1}")
    return pow(ctx.g, (q - 1) // M, q)


def dlog_p_part(ctx: FieldCtx, x: int, p: int, N: int) -> int:
    """Discrete log of x in the p^N-part of F_q^x, in Z/p^N.

    Returns d with x^{(q-1)/p^N} = z^d for z = g^{(q-1)/p^N}; kills p^N-th
    powers and is additive in x.  ZeroElement for x = 0 mod q.  Pohlig-
    Hellman digit lifting inside the cyclic p^N-subgroup (p^N is always
    small here).  y = x^{(q-1)/p^N} and z are the only full-size powers,
    and 0 is returned at once when y = 1.  Otherwise the p powers of
    z^{p^(N-1)} are built by p - 1 multiplications, and digit i is read
    from y^{p^(N-1-i)}, after which y is divided by z^(digit p^i) from a
    running base z^{-p^i}, inverted once; every later exponent is below p^N.
    """
    q = ctx.q
    if x % q == 0:
        raise ZeroElement("dlog of 0")
    pN = p**N
    if (q - 1) % pN != 0:
        raise OrderNotDividing(f"p^N = {pN} does not divide q - 1")
    y = pow(x, (q - 1) // pN, q)
    if y == 1:
        return 0
    z = pow(ctx.g, (q - 1) // pN, q)
    zp = pow(z, pN // p, q)
    table = {1: 0}
    w = 1
    for j in range(1, p):
        w = w * zp % q
        table[w] = j
    base = pow(z, -1, q)
    rest = pN // p
    weight = 1
    d = 0
    while True:
        digit = table.get(pow(y, rest, q))
        if digit is None:  # pragma: no cover - subgroup membership is forced
            raise ArithmeticError("dlog digit outside subgroup")
        d += digit * weight
        if rest == 1:
            return d
        y = y * pow(base, digit, q) % q
        base = pow(base, p, q)
        rest //= p
        weight *= p
