"""Exact modular arithmetic: Z/p^N, finite fields F_{q^k}, roots of unity and
p-part discrete logarithms.

Everything here is integer-exact.  Field elements are plain ints for prime
fields and coefficient tuples (constant term first) for extension fields; the
modulus polynomial and the group generator are chosen deterministically so
that every downstream sign and indexing convention is reproducible.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import cached_property, lru_cache

from .config import DEFAULT_FIELD_BUDGET
from .errors import BudgetExceeded, NotPrime, OrderNotDividing, ZeroElement

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (bound, number of leading _SMALL_PRIMES): Miller-Rabin with these bases
# is proven for n below the bound (Jaeschke, Math. Comp. 61, 1993; each
# bound is the least strong pseudoprime to its bases).  All twelve bases
# are proven below 318665857834031151167461.
_MR_BASES = ((3215031751, 4), (341550071728321, 7), (3825123056546413051, 9))


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


def poly_mul(a: list[int], b: list[int], q: int, cyclic: int | None = None) -> list[int]:
    """Product of two nonempty coefficient lists over F_q, entries in [0, q);
    with cyclic=L (len(a), len(b) <= L), the product mod X^L - 1, as
    min(len(a) + len(b) - 1, L) coefficients.

    Exact Kronecker substitution: each list is packed into one integer with
    byte slots wide enough for any coefficient of the exact integer product
    (at most min(len) terms below (q-1)^2 each), so one big-integer
    multiplication carries no slot into the next.  The cyclic product is
    folded on that integer, low L slots plus the rest: residue t mod L
    still collects at most min(len) terms, so the slots stay exact.  For
    slots of at most 16 bytes (at 64 terms, every q < 2^60) the
    coefficients of both lists go through one array('Q') as little-endian
    64-bit words, moved between words and slots by one strided bytearray
    copy per slot byte, and the product is unpacked the same way into one
    or two words per slot; only the final % q runs per coefficient.  Wider
    slots pack and unpack each coefficient with int.to_bytes /
    int.from_bytes.
    """
    terms = min(len(a), len(b))
    width = (2 * (q - 1).bit_length() + terms.bit_length() + 7) // 8
    size = len(a) + len(b) - 1
    if width > 16:
        x, y = (int.from_bytes(b"".join(c.to_bytes(width, "little") for c in v), "little")
                for v in (a, b))
    else:
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
# Finite fields


def _poly_mulmod(a: tuple, b: tuple, modpoly: tuple, q: int) -> tuple:
    k = len(modpoly) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % q
    # reduce: modpoly is monic of degree k
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(k):
                res[i - k + j] = (res[i - k + j] - c * modpoly[j]) % q
    while len(res) > k:
        res.pop()
    while len(res) < k:
        res.append(0)
    return tuple(res)


def _poly_powmod(base: tuple, e: int, modpoly: tuple, q: int) -> tuple:
    k = len(modpoly) - 1
    out = tuple([1] + [0] * (k - 1))
    b = base
    while e:
        if e & 1:
            out = _poly_mulmod(out, b, modpoly, q)
        b = _poly_mulmod(b, b, modpoly, q)
        e >>= 1
    return out


def _poly_xpowmod(e: int, modpoly: tuple, q: int) -> tuple:
    """x^e mod a monic modpoly of degree k >= 2, e >= 1, left to right: each
    further bit of e squares, and a set bit shifts by x and folds the one
    coefficient that reaches x^k back with the modulus."""
    k = len(modpoly) - 1
    out = (0, 1) + (0,) * (k - 2)
    for bit in bin(e)[3:]:
        out = _poly_mulmod(out, out, modpoly, q)
        if bit == "1":
            top = out[-1]
            out = tuple((low - top * m) % q for low, m in zip((0,) + out[:-1], modpoly))
    return out


def _poly_gcd(a: list, b: list, q: int) -> list:
    a, b = a[:], b[:]
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        while len(a) - 1 >= db and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) - 1 < db or not a:
                break
            c = a[-1] * inv % q
            shift = len(a) - 1 - db
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % q
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(poly: tuple, q: int) -> bool:
    """Ben-Or's test: a monic poly f of degree k is irreducible over F_q iff
    gcd(x^{q^i} - x, f) = 1 for i = 1 .. k // 2.

    x^q mod f is one left-to-right power (_poly_xpowmod); each further
    x^{q^{i+1}} is h(x^q) mod f for h = x^{q^i} mod f (Frobenius fixes the
    coefficients), a Horner composition of k - 1 products.  Stops at the
    first nontrivial gcd, so most reducible candidates cost one x^q.
    """
    k = len(poly) - 1
    x = (0, 1) + (0,) * (k - 2)
    xq = _poly_xpowmod(q, poly, q)
    h = xq
    for i in range(1, k // 2 + 1):
        if i > 1:
            acc = (h[-1],) + (0,) * (k - 1)
            for c in reversed(h[:-1]):
                acc = _poly_mulmod(acc, xq, poly, q)
                acc = ((acc[0] + c) % q,) + acc[1:]
            h = acc
        diff = [(a - b) % q for a, b in zip(h, x)]
        if len(_poly_gcd(list(poly), diff, q)) > 1:
            return False
    return True


class FieldCtx:
    """An explicit F_{q^k} with a verified generator of the unit group.

    Elements are ints for k = 1 and coefficient tuples (constant first) for
    k > 1.  modulus is the monic modulus polynomial as a coefficient tuple of
    length k+1 (empty marker for k = 1).  order_factors is the verified
    factorization of q^k - 1.
    """

    def __init__(self, q: int, k: int, modulus: tuple, g: object, order_factors: tuple):
        self.q = q
        self.k = k
        self.modulus = modulus
        self.g = g
        self.order_factors = order_factors

    @property
    def order(self) -> int:
        return self.q**self.k - 1

    def one(self):
        return 1 if self.k == 1 else tuple([1] + [0] * (self.k - 1))

    def zero(self):
        return 0 if self.k == 1 else tuple([0] * self.k)

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.q
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.q
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.q
        return _poly_mulmod(a, b, self.modulus, self.q)

    def pow(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.k == 1:
            return pow(a, e, self.q)
        return _poly_powmod(a, e, self.modulus, self.q)

    def frobenius(self, a):
        """a^q for k > 1: Frobenius is F_q-linear, so one product with the
        k x k matrix whose column j is (x^q)^j mod the modulus."""
        q = self.q
        return tuple(sum(map(int.__mul__, a, row)) % q for row in self._frobenius_rows)

    @cached_property
    def _frobenius_rows(self) -> tuple:
        """Rows of the Frobenius matrix, built once per field."""
        xq = _poly_xpowmod(self.q, self.modulus, self.q)
        cols = [self.one(), xq]
        while len(cols) < self.k:
            cols.append(_poly_mulmod(cols[-1], xq, self.modulus, self.q))
        return tuple(zip(*cols[:self.k]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroElement("cannot invert 0")
        if self.k == 1:
            return pow(a, -1, self.q)
        return _poly_powmod(a, self.order - 1, self.modulus, self.q)

    def is_zero(self, a) -> bool:
        return a == 0 if self.k == 1 else not any(a)

    def to_prime_field(self, a) -> int:
        """Constant term of an element of the prime subfield."""
        if self.k == 1:
            return a
        if any(a[1:]):
            raise ValueError("element is not in the prime subfield")
        return a[0]


def _find_irreducible(q: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k >= 2 over
    F_q (candidates ordered by their base-q digit value, high coefficients
    most significant).  The modulus fixes the generator g and so every root
    of unity of F_{q^k}: keep this order.

    The first q candidates are the binomials x^k + t, decided in closed form
    (Lidl-Niederreiter, Thm 3.75): x^k - a, a of order e in F_q^x, is
    irreducible iff every prime r | k divides e but not (q - 1)/e, that is
    r | q - 1 and a^((q-1)/r) != 1, and q = 1 mod 4 when 4 | k.  When that
    rule excludes every binomial the block is skipped; the later candidates
    are tested with Ben-Or's _is_irreducible."""
    primes = list(factorint(k))
    if all((q - 1) % r == 0 for r in primes) and (k % 4 or q % 4 == 1):
        # a primitive root passes, so some binomial is irreducible
        for t in range(1, q):
            if all(pow(q - t, (q - 1) // r, q) != 1 for r in primes):
                return (t,) + (0,) * (k - 1) + (1,)
    for t in range(q, q**k):
        coeffs = []
        v = t
        for _ in range(k):
            coeffs.append(v % q)
            v //= q
        poly = tuple(coeffs + [1])
        if _is_irreducible(poly, q):
            return poly
    raise ArithmeticError("no irreducible polynomial found")  # pragma: no cover


def _candidate_elements(ctx_q: int, k: int):
    if k == 1:
        a = 2
        while True:
            yield a
            a += 1
    else:
        t = ctx_q  # skip constants: they cannot generate for k > 1
        while True:
            coeffs = []
            v = t
            for _ in range(k):
                coeffs.append(v % ctx_q)
                v //= ctx_q
            yield tuple(coeffs)
            t += 1


@lru_cache(maxsize=None)
def _make_field_cached(q: int, k: int) -> FieldCtx:
    if q < 2 or not is_prime(q):
        raise NotPrime(f"q = {q} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    if q**k > DEFAULT_FIELD_BUDGET:
        raise BudgetExceeded(f"q^k = {q}^{k} exceeds budget {DEFAULT_FIELD_BUDGET}")
    order = q**k - 1
    fac = tuple(sorted(factorint(order).items()))
    modulus = () if k == 1 else _find_irreducible(q, k)
    probe = FieldCtx(q=q, k=k, modulus=modulus, g=None, order_factors=fac)
    for cand in _candidate_elements(q, k):
        ok = True
        for r, _ in fac:
            if probe.pow(cand, order // r) == probe.one():
                ok = False
                break
        if ok:
            return FieldCtx(q=q, k=k, modulus=modulus, g=cand, order_factors=fac)
    raise ArithmeticError("no generator found")  # pragma: no cover


def make_field(q: int, k: int = 1) -> FieldCtx:
    """Construct F_{q^k} with deterministic modulus and verified generator;
    BudgetExceeded when q^k exceeds the field budget."""
    return _make_field_cached(q, k)


def root_of_unity(ctx: FieldCtx, M: int):
    """The distinguished primitive M-th root of unity g^{(q^k-1)/M}.

    Compatibility holds by construction: root(M')^{M'/M} = root(M) whenever
    M | M' | q^k - 1, mirroring a single coherent choice of roots.
    """
    if M < 1 or ctx.order % M != 0:
        raise OrderNotDividing(f"M = {M} does not divide q^k - 1 = {ctx.order}")
    return ctx.pow(ctx.g, ctx.order // M)


def dlog_p_part(ctx: FieldCtx, x, p: int, N: int) -> int:
    """Discrete log of x in the p^N-part of F_{q^k}^x, in Z/p^N.

    Returns d with x^{(q^k-1)/p^N} = (g^{(q^k-1)/p^N})^d; kills p^N-th powers
    and is additive in x.  Pohlig-Hellman digit lifting inside the cyclic
    p^N-subgroup (p^N is always small here).
    """
    if ctx.is_zero(x):
        raise ZeroElement("dlog of 0")
    pN = p**N
    if ctx.order % pN != 0:
        raise OrderNotDividing(f"p^N = {pN} does not divide q^k - 1")
    y = ctx.pow(x, ctx.order // pN)
    z = ctx.pow(ctx.g, ctx.order // pN)
    # table of the order-p subgroup generated by z^{p^{N-1}}
    zp = ctx.pow(z, pN // p)
    table = {}
    cur = ctx.one()
    for j in range(p):
        table[cur] = j
        cur = ctx.mul(cur, zp)
    d = 0
    z_inv = ctx.inv(z)
    for i in range(N):
        w = ctx.pow(ctx.mul(y, ctx.pow(z_inv, d)), pN // p ** (i + 1))
        if w not in table:  # pragma: no cover - subgroup membership is forced
            raise ArithmeticError("dlog digit outside subgroup")
        d += table[w] * p**i
    return d % pN
