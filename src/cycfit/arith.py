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
from functools import lru_cache

from .config import DEFAULT_FIELD_BUDGET
from .errors import BudgetExceeded, NotPrime, OrderNotDividing, ZeroElement

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (bound, number of leading _SMALL_PRIMES): Miller-Rabin with these bases
# is proven for n below the bound (Jaeschke, Math. Comp. 61, 1993; each
# bound is the least strong pseudoprime to its bases).  All twelve bases
# are proven below 318665857834031151167461.
_MR_BASES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
             (341550071728321, 7), (3825123056546413051, 9))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 2^64 with all bases)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    count = next((c for bound, c in _MR_BASES if n < bound), len(_SMALL_PRIMES))
    for a in _SMALL_PRIMES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
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
    """Full factorization {prime: exponent} by trial division + Pollard rho."""
    if n <= 0:
        raise ValueError("factorint needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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


@lru_cache(maxsize=None)
def primitive_root(n: int) -> int:
    """Smallest primitive root modulo a prime power n (1 for n = 2); n is
    factored to find phi(n)."""
    return _smallest_generator(n, n - n // min(factorint(n)))


def _smallest_generator(n: int, phi: int, known: tuple[int, ...] = ()) -> int:
    """Smallest g prime to n of order phi modulo n, for n with a cyclic unit
    group of order phi.  The primes in `known` are divided out of phi, and
    only the cofactor is factored.

    g has order phi exactly when chi_r(g) = g^(phi/r) != 1 for every prime
    r | phi.  The r are tried in increasing order, so half of all candidates
    fall at the first, and chi_r(g) is found only when r is reached.  Each
    chi_r is multiplicative, so a composite candidate's value is the product
    of the values at its smallest prime factor and its cofactor, both below
    it (found now if that candidate fell at an earlier r): only a prime
    candidate c pays a pow.  For a prime n (phi = n - 1), chi_2(c) is the
    Legendre symbol (c | n), read by quadratic reciprocity from n mod 8
    (c = 2) or from (n | c) by Euler's criterion modulo c, a pow of c-sized
    numbers."""
    factors = set()
    rest = phi
    for r in known:
        if rest % r == 0:
            factors.add(r)
            while rest % r == 0:
                rest //= r
    factors.update(factorint(rest))
    if not factors:
        return 1
    exponents = [phi // r for r in sorted(factors)]
    half = phi // 2 if phi == n - 1 else 0  # the exponent of chi_2 for a prime n
    # chars[i][c] = chi_(r_i)(c) mod n, for the candidates c reached so far
    chars: list[dict[int, int]] = [{} for _ in exponents]
    primes: list[int] = []  # the prime candidates so far
    split: dict[int, int] = {}  # the smallest prime factor of each composite one

    def at_prime(c: int, e: int) -> int:
        if e != half:
            return pow(c, e, n)
        if c == 2:
            square = n % 8 in (1, 7)
        else:
            square = (pow(n % c, (c - 1) // 2, c) == 1) != (c % 4 == 3 == n % 4)
        return 1 if square else n - 1

    def chi(values: dict[int, int], e: int, c: int) -> int:
        v = values.get(c)
        if v is None:
            f = split.get(c, c)
            v = values[c] = (at_prime(c, e) if f == c
                             else chi(values, e, f) * chi(values, e, c // f) % n)
        return v

    g = 1
    while True:
        g += 1
        f = g
        for r in primes:
            if r * r > g:
                break
            if g % r == 0:
                f = split[g] = r
                break
        if f == g:
            primes.append(g)
        if math.gcd(g, n) != 1:
            continue
        for values, e in zip(chars, exponents):
            v = values[g] = (at_prime(g, e) if f == g
                             else chi(values, e, f) * chi(values, e, g // f) % n)
            if v == 1:
                break
        else:
            return g


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
    raises OverflowError), moved into the slots by one strided bytearray
    copy per word byte.  For slots of at most 16 bytes (at 64 terms, every
    q < 2^60) the product is unpacked the same way into one or two words
    per slot; only the final % q runs per coefficient.  Wider slots unpack
    each coefficient with int.from_bytes.
    """
    terms = min(len(a), len(b))
    width = (2 * (q - 1).bit_length() + terms.bit_length() + 7) // 8
    size = len(a) + len(b) - 1
    words = array("Q", a)
    words.extend(b)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    slots = bytearray(width * len(words))
    for k in range(min(width, 8)):
        slots[k::width] = raw[k::8]
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
    buf = bytearray(span * size)
    for k in range(width):
        buf[k::span] = raw[k::width]
    words = array("Q", buf)
    if sys.byteorder == "big":
        words.byteswap()
    if span == 8:
        return [c % q for c in words]
    return [(lo | hi << 64) % q for lo, hi in zip(words[::2], words[1::2])]


# ---------------------------------------------------------------------------
# Prime fields


class FieldCtx:
    """F_q with its smallest generator g of F_q^x, set by make_field.
    Elements are plain ints in [0, q)."""

    def __init__(self, q: int, g: int):
        self.q = q
        self.g = g


# Prime fields kept: an evaluation prime is used by one sample, and a few
# hundred cover the primes read again (auxiliary primes, the re-draws of a
# sampler run at i >= 1 and the annihilation suite's primes).
_FIELDS_KEPT = 256


@lru_cache(maxsize=_FIELDS_KEPT)
def _make_field_cached(q: int) -> FieldCtx:
    if q < 2 or not proven_prime(q):
        raise NotPrime(f"q = {q} is not prime")
    if q > DEFAULT_FIELD_BUDGET:
        raise BudgetExceeded(f"q = {q} exceeds the field budget {DEFAULT_FIELD_BUDGET}")
    return FieldCtx(q=q, g=0)


def make_field(q: int, *, known: tuple[int, ...] = ()) -> FieldCtx:
    """F_q with its smallest generator; NotPrime for a composite q and
    BudgetExceeded when q exceeds the field budget.  q is proven prime once:
    a prime that a search of fields has just yielded keeps that search's
    proof (proven_prime), any other q is proven here.  The generator is
    found on the first call for q from phi(q) = q - 1, without factoring q;
    `known` lists primes the caller knows to divide q - 1 (those of an
    evaluation prime's search step), so only the cofactor of q - 1 is
    factored.  The generator does not depend on them.  `known` is
    keyword-only: bench/spans.py reads a second positional argument as the
    degree of an extension field."""
    field = _make_field_cached(q)
    if not field.g:
        field.g = _smallest_generator(q, q - 1, known)
    return field


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

    Returns d with x^{(q-1)/p^N} = (g^{(q-1)/p^N})^d; kills p^N-th powers
    and is additive in x.  Pohlig-Hellman digit lifting inside the cyclic
    p^N-subgroup (p^N is always small here); 0 at once when
    x^{(q-1)/p^N} = 1.
    """
    if x == 0:
        raise ZeroElement("dlog of 0")
    q = ctx.q
    pN = p**N
    if (q - 1) % pN != 0:
        raise OrderNotDividing(f"p^N = {pN} does not divide q - 1")
    y = pow(x, (q - 1) // pN, q)
    if y == 1:
        return 0
    z_inv, table = _dlog_base(q, ctx.g, p, N)
    d = 0
    for i in range(N):
        w = pow(y * pow(z_inv, d, q) % q, pN // p ** (i + 1), q)
        if w not in table:  # pragma: no cover - subgroup membership is forced
            raise ArithmeticError("dlog digit outside subgroup")
        d += table[w] * p**i
    return d % pN


@lru_cache(maxsize=16)
def _dlog_base(q: int, g: int, p: int, N: int) -> tuple[int, dict[int, int]]:
    """(z^-1, {z^(j p^(N-1)): j for j < p}) for z = g^((q-1)/p^N): the base
    of dlog_p_part and the table of its order-p subgroup, built once per
    (q, p, N)."""
    pN = p**N
    z = pow(g, (q - 1) // pN, q)
    zp = pow(z, pN // p, q)
    table = {}
    cur = 1
    for j in range(p):
        table[cur] = j
        cur = cur * zp % q
    return pow(z, -1, q), table
