"""Derivative classes of circular units, Kolyvagin's derivative operator,
and the residue-side evaluation engine.

A derivative class is one basic circular unit (kind, param) with a chain
of auxiliary primes; the unit is never expanded as an algebraic number.
Evaluation reduces it at the distinguished prime above an evaluation prime
q = 1 mod M = f_K * p^{m+1} * n.  Such q has residue degree 1 in Q(mu_M),
so it splits completely in F_m(mu_n) and every root of unity the engine
needs lies in F_q.  zeta_M = g^{(q-1)/M} from the generator g of F_q^x
fixes one embedding of the cyclotomic tower, and a Galois element with
residue t multiplies root indices by t.  The engine is table driven:
zeta_M^e = prod_i T_i[e mod m_i] over the conductor components m_i of M,
with T_i[j] = zeta_M^{j E_i} and E_i the CRT idempotent of m_i.  Norm
sets are in residue form R_d x {+-1} (trivial at the auxiliary primes),
R_d the chi_D-kernel reduced mod d, so each +- pair of conjugates is one
factor by the cyclotomic identity
(1 - A zeta^b)(1 - A zeta^-b) = 1 - A (zeta^b + zeta^-b) + A^2,
A = c T_f[a r mod f_K].  The f_K-component keeps no table: the class at
f_K walks the lower half R+ = {r in R : 2 r < f_K} of R = R_{f_K}, the
chi_D-kernel itself, in increasing r with u = w_f^(a mod f_K),
w_f = zeta_M^{E_f}, B_{r'} = B_r u^{r' - r} for B_r = T_f[a r mod f_K],
and the powers u^gap up to the largest gap of R+ (the gaps are cached per
f_K).  Half of R is all a walk needs: K is real, so R = -R (below).  The
chi_D-kernel is the product of per-prime-power characters, each tabulated
once as a bytes row of its values mod 3 and multiplied into the others
bytewise (_kernel).

Every other class is read from the Moebius form
Phi_d(x) = prod_{e | d} (1 - x^e)^mu(d/e) without a walk
(EvalContext._mobius_table, the one builder of its rows): its pairs run
over all of (Z/d)^x against a root of order d, so each cell is
Phi_d(alpha c) Phi_d(c / alpha) = prod_{e | d} h_e(c^e)^mu(d/e) with
h_e(x) = 1 - x (s_e - x), s_e = alpha^e + alpha^-e,
alpha = T_p[a mod p^{m+1}] and c = prod_i T_i[a rho_i mod l_i] (c = 1 at
n = 1), every c^e and alpha^e read from the root tables, one row of cells
per term of _mobius_rows.  The form serves three classes: a unit at a
proper divisor 1 < d < f_K (chi_D is primitive of conductor f_K, so its
norm set is all of (Z/d)^x), the a-type (d = 1, where the form is the one
pair 1 - x, a numerator row over a denominator row), and the partner below.

The partner g tau (g[0] = 1) of a walked conjugate g of the class at f_K
(kind "d", param f_K: every class the sampler draws) has the multiplier a
n_0 with chi_D(n_0) = -1 and n_0 = 1 modulo p^{m+1} and every auxiliary
prime, so at every multi-index the two norm sets are the two cosets of the
chi_D-kernel, and the product of the two values is the form at d = f_K,
read at the walked conjugate's a.  The partner's dlog is half the dlog of
that table, weighted as the walked one (below), minus the walked one's, and
its terms are taken by class (_mobius_rows): h_e depends on e only through
+-e mod p^{m+1}, c^e is a rotation of the cells along each sigma_l, and
when every chain prime has N_l >= max(level, m+1) the rotation only shifts
the weights, so up to a p^level-th power the product is prod_C
W(h_C(c))^(sum_{e in C} mu(f_K/e)) over the classes C, W the weighted
product over the cells (exactly so at n = 1).  At p^{m+1} = 3 every divisor
lies in one class, whose sum is 0: the partner has no term, builds no
table, and coeff(g tau) = -coeff(g) (at n = 1 the resultant of Phi_3 and
Phi_f is +-1: Apostol, Proc. AMS 24, 1970).  A shallower chain keeps one
term per divisor, read at c^e.  An h-twist is a Galois element, so it must
be prime to M (ConductorClash otherwise), and every partner has its coset.

Derivative values are p-part discrete logarithms, taken once per conjugate
as dlog(prod_k v_k^{w_k}) = sum_k w_k dlog(v_k), so the p^N-th power
ambiguity of a derivative class never matters.

Every derivative class evaluates its whole auxiliary orbit at once: for
one conjugate g, EvalContext.factor_orbit gives the unit's value at every
multi-index (one cell at n = 1).  An EvalContext evaluates units of its
own auxiliary support only; the unit eta(n/l) of norm_relation_check is
read in a context of its own.  A walked conjugate has multi-indices that
move only the auxiliary components of the multiplier, so its values are
P(c) for a root c of mu_n and one polynomial
P(X) = prod_{r in R} (1 - B_r s X + B_r^2 X^2) over F_q.  With
s = alpha + 1/alpha, alpha = T_p[a mod p^{m+1}] in F_q, P(X) =
Q(alpha X) Q(X / alpha) for Q(Y) = prod_{r in R} (1 - B_r Y).  As R = -R,
Q is palindromic: Q(Y) = Y^|R| Q(1/Y) = kappa Q+(Y) Y^d Q+(1/Y) for Q+ the
product over R+, d = |R+| and kappa = prod_{r in R+} (-B_r^-1).  So with
U(c) = alpha^-d Q(alpha c) / kappa every cell is
P(c) = kappa^2 c^|R| U(c) U(1/c) (EvalContext._paired_orbit builds U).  Q+
comes from a product tree of exact Kronecker products (arith.poly_mul)
whose nodes are cyclic products mod X^(n p^{m+1}) - 1, folded on the big
integer (alpha^t depends on t mod p^{m+1} only), and one more such product
with its reversal is Q / kappa (_palindrome).  Its coefficients are
scaled by alpha^(t - d), one constant per class of t mod p^{m+1}, folded
mod X^n - 1 by slices and placed through the chain's row-major index of
t mod n (_Support.places, t itself at one prime), and each axis is
evaluated at all of mu_l by a chirp-z transform over the root table T_l
that packs each line only up to its last nonzero entry (|R| + 1 entries
of a single line, half of P's); a multi-index reads its value at its
residues mod l_i (one itemgetter when the axis has one line).  The root
1/c of the cell sigma_l^k is the cell sigma_l^(k + (l-1)/2) on every
axis, so a chain's evaluator transforms U once over every residue
sigma_l^k, 0 <= k <= l - 2, and weighs cell j by w(j) + w(j + h), h_i = (l_i - 1)/2
(_multi_indices, which groups the cells by each k_i mod p^level and
whether k_i + h_i wraps, never cell by cell): prod_k P(c_k)^w(k) is
then prod_j U(c_j)^(w(j) + w(j + h)) up to powers of kappa, of order
dividing 2 f_K, and of the c_j, of order dividing n, both prime to p, so
neither moves the p-part dlog.  At n = 1, U(1) = prod_{r in R+}
(1 - B_r s + B_r^2) is one product along the walk, weighed 2.  These merged
weights are the only ones a chain keeps: a Moebius table T is read with
them too, and its dlog is halved (multiplied by (p^level + 1)/2, the
inverse of 2 mod p^level).  T is a product of rows h_e(x), and
h_e(1/x) = x^-2 h_e(x), so the cell j + h, which holds 1/c, has
dlog T(c_(j+h)) = dlog T(c_j) (c has order dividing n), and
sum_j (w(j) + w(j + h)) dlog T(c_j) = 2 sum_k w(k) dlog T(c_k).
factor_orbit keeps exact cells P(c) for its other callers (norm_relation_check,
factor_value), reading U at c and at 1/c (_paired_cells).

Work is split by what fixes it, so that a sample pays only for its own
arithmetic in F_q.  This module keeps four functools caches.  Per
derivative class and level, one _ChainEvaluator (_chain_evaluator, keyed on
the field, the class and the level, never on a multiplier or a twist) is
the one holder of what a chain fixes: the expansion-size check, its
_Support (M, the conductor components, their CRT idempotents, the primes of
M, the lift of every g of Delta x Gamma and the row-major index of
t mod n), the sigma_l rows with the
cells grouped by the merged weights (_multi_indices, the only builder of a
chain's weights), each conjugate's lift with the conjugate its partner
reads, the unit's multiplier, the partner's terms (_mobius_rows) and the
ring, so evaluate_kappa at a new q is one cache lookup and one call.  An
EvalContext built outside an evaluator builds a support of its own.  Per
conductor: the chi_D-kernel (_kernel) and the walk gaps (_walk); per
auxiliary prime, the chirp exponents (_chirp_exponents).  Per evaluation
prime q: one primality proof, the search's (arith.proven_prime, the only
thing kept per q), the generator of F_q^x from the primes of M and the
factors of the cofactor of q - 1 (arith.make_field, which keeps no field),
and zeta_M and the root tables (the EvalContext); each dlog builds its own
base and order-p table (arith.dlog_p_part).  Per sample: the walk, the
product tree and the chirps, the partner's table (none at p^{m+1} = 3), the
weighted products and the dlog digits (none when the value's p-part is 1,
and none for a partner without terms).  The caches hold residues, index
tables and F_q tables, never a unit value, a cell or a dlog: every walked
conjugate is evaluated afresh (with its own tree and chirps), a partner
reads only its walked conjugate's dlog, and an orbit table lives only for
one conjugate of one evaluate_kappa call (or one side of one
norm_relation_check).  An h-twist multiplies the lifts at every call and is
never part of a cache key, so the H-invariance of criterion 5 stays a test.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import defaultdict, deque
from functools import lru_cache, partial
from itertools import accumulate, compress, repeat
from itertools import product as iter_product

from .arith import (FieldCtx, crt, dlog_p_part, factorint, kronecker, make_field,
                    poly_mul, primitive_root, root_of_unity)
from .config import DEFAULT_DERIVATIVE_CAP
from .errors import BudgetExhausted, ConductorClash, NotSplit
from .fields import AbelianFieldCtx, KolyvaginPrime
from .groupring import FiniteAbelianGroup, GroupRing, GroupRingElement


class DerivativeOperator:
    """D_n = prod_ell sum_k k*sigma_ell^k, kept factored (never expanded)."""

    def __init__(self, primes: tuple[KolyvaginPrime, ...]):
        self.primes = primes

    def expansion_size(self) -> int:
        return math.prod(max(kp.ell - 2, 1) for kp in self.primes) if self.primes else 1


class DerivativeClass:
    """kappa(n): the class of eta(n)^{D_n} in F_m^x / p^N for the basic
    circular unit eta = (kind, param) at level m and the auxiliary product n
    of the chain: kind "d" with param a divisor > 1 of the conductor, kind
    "a" with param prime to p."""

    def __init__(self, kind: str, param: int, aux_primes: tuple[KolyvaginPrime, ...]):
        self.kind = kind
        self.param = param
        self.aux_primes = aux_primes
        self.aux = tuple(kp.ell for kp in aux_primes)
        self.n = math.prod(self.aux)

    def operator(self) -> DerivativeOperator:
        return DerivativeOperator(self.aux_primes)


def derivative_class(ctx: AbelianFieldCtx, kind: str, param: int,
                     aux_primes: tuple[KolyvaginPrime, ...]) -> DerivativeClass:
    cls = DerivativeClass(kind, param, tuple(aux_primes))
    if math.gcd(cls.n, ctx.p * ctx.f_K) != 1:
        raise ConductorClash("auxiliary product must be prime to p*f_K")
    if kind == "d":
        if param <= 1 or ctx.f_K % param:
            raise ConductorClash(f"d = {param} must divide the conductor and exceed 1")
    elif kind == "a":
        if math.gcd(param, ctx.p) != 1:
            raise ConductorClash(f"a = {param} must be prime to p")
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    return cls


class EvalContext:
    """Shared state for evaluating basic circular units with the auxiliary
    support n = l_1 ... l_r at one evaluation prime q.

    Conductor components are (f_K, p^{m+1}, l_1, ..., l_r); multipliers are
    residues modulo the master modulus M = f_K * p^{m+1} * n.  q must be
    1 mod M (NotSplit otherwise), so all arithmetic and the discrete
    logarithms happen in F_q with respect to its canonical generator, and
    values at one q are mutually consistent.  `support` is the _Support of
    aux when the caller holds it (a _ChainEvaluator); the context builds
    its own otherwise.
    """

    def __init__(self, ctx: AbelianFieldCtx, aux: tuple[int, ...], q: int,
                 support: _Support | None = None):
        self.ctx = ctx
        self.aux = tuple(aux)
        self.q = q
        self.p_part = ctx.p ** (ctx.m + 1)
        self.n = math.prod(self.aux)
        self.support = support or _Support(ctx.group, ctx.p, ctx.m, ctx.f_K, self.aux)
        self.M = self.support.M
        if math.gcd(q, self.M) != 1:
            raise ConductorClash(f"q = {q} divides the symbol conductor")
        if (q - 1) % self.M:
            raise NotSplit(f"q = {q} is not 1 mod M = {self.M}")
        self.moduli = self.support.moduli
        self.idempotents = self.support.idempotents
        self.field: FieldCtx = make_field(q, known=self.support.primes)
        self.zeta = root_of_unity(self.field, self.M)
        # root tables T_i[j] = zeta^(j * E_i), so zeta^e = prod_i T_i[e mod m_i].
        # The f_K-component has no row (tables[0] is None): the walk over the
        # chi_D-kernel steps by powers of w_f = zeta^(E_f) instead (_paired_orbit)
        steps = [pow(self.zeta, e, q) for e in self.idempotents]
        self.w_f = steps[0]
        self.tables = [None] + [_power_row(step, mi, q)
                                for mi, step in zip(self.moduli[1:], steps[1:])]

    # -- multiplier (Galois residue) helpers --------------------------------

    def lift(self, components: dict[int, int] | None = None) -> int:
        """CRT lift with given residues per conductor component (default 1)."""
        components = components or {}
        return sum(components.get(mod, 1) * e
                   for mod, e in zip(self.moduli, self.idempotents)) % self.M

    # -- norm sets -----------------------------------------------------------

    # wrapped by bench/spans.py; deleted with the benchmark change of ROADMAP item 1
    def norm_set_d(self, d: int) -> tuple[tuple[int, int], ...]:
        """Multipliers realizing Gal(Q(mu_{d p^{m+1} n'})/intersection with
        F_m(mu_{n'})) as adjacent pairs (r, 1), (r, -1): = r mod d (r in the
        chi_D-kernel mod d), = +-1 mod p^{m+1}, = 1 at every auxiliary prime.
        One pair per factor 1 - zeta^e."""
        residues = sorted({x % d for x in _kernel(self.ctx.f_K)})
        return tuple((r, s) for r in residues for s in (1, -1))

    # wrapped by bench/spans.py; deleted with the benchmark change of ROADMAP item 1
    def norm_set_a(self) -> tuple[tuple[int, int], ...]:
        """The a-type norm set {1, tau} in the residue form of norm_set_d:
        trivial on the f_K-component, +-1 mod p^{m+1}."""
        return ((1, 1), (1, -1))

    def dlog(self, value: int, level: int) -> int:
        """p-part dlog of a value of F_q."""
        return dlog_p_part(self.field, value, self.ctx.p, level)

    # -- unit evaluation ------------------------------------------------------

    def _mobius_table(self, a: int, terms, rows) -> tuple[list, list]:
        """prod h_e(c^power)^exponent over the (e, power, exponent) terms of
        _mobius_rows, for every rho in rows[0] x ... x rows[r-1], row-major,
        as a factor_orbit table: each row h_e is multiplied |exponent| times
        into the numerators (exponent > 0) or the denominators (exponent < 0).
        Here h_e(x) = 1 - x (s_e - x), s_e = alpha^e + alpha^-e with
        alpha = T_p[a mod p^{m+1}], and c = prod_i T_i[a rho_i mod l_i]
        (c = 1 at n = 1, where there are no rows and one cell, and each term
        contributes 2 - s_e).

        h_e(x) = (1 - x alpha^e)(1 - x / alpha^e), read from the tables T_p
        and T_i, so the per-divisor terms of d (power e) give
        Phi_d(alpha c) Phi_d(c / alpha) for
        Phi_d(x) = prod_{e | d} (1 - x^e)^mu(d/e) (1 - x at d = 1).  For w of
        exact order d > 1, prod_{j in (Z/d)^x} (1 - w^j x) = Phi_d(x), so
        when w = T_f[a mod f_K] has order d the cell is the product of the
        pairs (1 - w^j alpha c)(1 - w^j c / alpha) over all of (Z/d)^x.  The
        table reads no f_K-component of a: any w of order d gives it.  At
        d = 1 the numerator is the one pair (1 - alpha c)(1 - c / alpha) and
        the denominators are 1.  alpha c has a component of order p^{m+1},
        prime to d, so no factor is 0."""
        q, t_p, p_part = self.q, self.tables[1], self.p_part
        ones = [1] * math.prod(map(len, rows))
        parts = [ones, ones]  # each term replaces its side, never writes into it
        for e, power, exponent in terms:
            ae, ap = a * e, a * power
            s = t_p[ae % p_part] + t_p[-ae % p_part]
            xs = [1]
            for ell, table, row in zip(self.aux, self.tables[2:], rows):
                xs = [x * table[ap * rho % ell] % q for x in xs for rho in row]
            cells = parts[exponent < 0]
            for _ in range(abs(exponent)):
                cells = [v * (1 - x * (s - x)) % q for v, x in zip(cells, xs)]
            parts[exponent < 0] = cells
        return parts[0], parts[1]

    def _paired_orbit(self, a: int, rows) -> list:
        """U(c) = c^d Q+(alpha c) Q+(1 / (alpha c)) for every
        (rho_1, ..., rho_r) in rows[0] x ... x rows[r-1], row-major, at the
        root c = prod_i T_i[a rho_i mod l_i] of mu_n (c = 1 and one cell at
        n = 1).  Here Q+(Y) = prod_{r in R+} (1 - B_r Y) over the lower half
        R+ = {r in R : 2 r < f_K} of the chi_D-kernel R (_walk), d = |R+|,
        B_r = T_f[a r mod f_K] and alpha = T_p[a mod p^{m+1}].  The walk goes
        through R+ in increasing r by the steps u^gap, u = w_f^(a mod f_K),
        so B_{r'} = B_r u^(r' - r).

        K is real, so R = -R and Q(Y) = prod_{r in R} (1 - B_r Y) is
        palindromic: Q(Y) = Y^|R| Q(1/Y) = kappa Q+(Y) Y^d Q+(1/Y) with
        kappa = prod_{r in R+} (-B_r^-1).  So U(c) = alpha^-d Q(alpha c) / kappa,
        and the paired product of _paired_cells is
        P(c) = Q(alpha c) Q(c / alpha) = kappa^2 c^|R| U(c) U(1/c).

        At n = 1, U(1) = prod_{r in R+} (1 - B_r s + B_r^2) with
        s = alpha + 1/alpha, one factor per step.  At n > 1 Q+ comes from a
        product tree of exact Kronecker products over linear leaves;
        alpha^t depends on t mod p^{m+1} only, so every node is a cyclic
        poly_mul mod X^(n p^{m+1}) - 1, folded on the big integer, and so is
        the one product of Q+ with its reversal j -> d - j (mod the length of
        the folded Q+), which is Q / kappa.  Its coefficient of X^t, times
        alpha^(t - d), goes to X^(t mod n), the cell (t mod l_1, ...,
        t mod l_r) (Q / kappa is not folded mod X^n - 1 before: alpha^n != 1).
        No Python code runs per coefficient: each class of t mod p^{m+1} is
        one slice scaled by one map, the fold adds slices of length n, and
        the folded coefficients go to the row-major index of t
        (_Support.places, t itself at one prime).  The cells stay unreduced
        sums below p^{m+1} q^2; the transform reduces them.  Each axis is evaluated at
        all of mu_{l_i} by _chirp_axis, which keeps the picks a rho mod l_i
        of the row."""
        q, t_p, p_part, n, ells = self.q, self.tables[1], self.p_part, self.n, self.aux
        gaps, widest, _ = _walk(self.ctx.f_K)
        steps = _power_row(pow(self.w_f, a % self.moduli[0], q), widest + 1, q)
        if n == 1:
            s = (t_p[a % p_part] + t_p[-a % p_part]) % q
            B = out = 1
            for gap in gaps:
                B = B * steps[gap] % q
                out = out * (1 - B * (s - B)) % q
            return [out]
        full, d = _palindrome(gaps, steps, q, n * p_part), len(gaps)
        for j in range(min(p_part, len(full))):
            full[j::p_part] = map(operator.mul, full[j::p_part], repeat(t_p[a * (j - d) % p_part]))
        cells = full[:n]
        for start in range(n, len(full), n):
            block = full[start:start + n]
            cells[:len(block)] = map(operator.add, cells, block)
        cells, coeffs = [0] * n, cells
        deque(map(cells.__setitem__, self.support.places, coeffs), 0)
        for ell, table, row in reversed(list(zip(ells, self.tables[2:], rows))):
            cells = _chirp_axis(cells, table, [a * rho % ell for rho in row], q)
        return cells

    def _paired_cells(self, a: int, rows) -> list:
        """The paired product over norm_set_d(f_K) of 1 - zeta^(a t), t the
        multiplier of the pair, conjugated by lift({l_i: rho_i}) for every
        (rho_1, ..., rho_r) in rows[0] x ... x rows[r-1], row-major: p^{m+1}
        gives zeta^(+-b), so each pair is 1 - A s + A^2 with
        A = c T_f[a r mod f_K] and s = zeta^b + zeta^-b, and the product is
        P(c) = kappa^2 c^|R| U(c) U(1/c) (_paired_orbit), with
        kappa^2 = u^(-2 sum R+), u = T_f[a mod f_K].  U is read at the rows
        and at their negatives (1/c)."""
        q, (gaps, _, total) = self.q, _walk(self.ctx.f_K)
        xs = [pow(self.w_f, -2 * total * a % self.moduli[0], q)]
        for ell, table, row in zip(self.aux, self.tables[2:], rows):
            xs = [x * table[2 * len(gaps) * a * rho % ell] % q for x in xs for rho in row]
        cells, inverse = (self._paired_orbit(a, [[sign * rho for rho in row] for row in rows])
                          for sign in (1, -1))
        return [x * v * w % q for x, v, w in zip(xs, cells, inverse)]

    # wrapped by bench/spans.py; deleted with the benchmark change of ROADMAP item 1
    def factor_value(self, kind: str, param: int, mult: int):
        """One basic unit, conjugated by the multiplier, as a field element:
        the one cell of factor_orbit at the residue 1 of every auxiliary
        prime."""
        orbit = self.factor_orbit(kind, param, mult, [[1]] * len(self.aux))
        return _orbit_value(self.q, orbit, _ONE_CELL)

    def factor_orbit(self, kind: str, param: int, mult: int, rows) -> tuple[list, list | None]:
        """The basic unit (kind, param) with the context's auxiliary support,
        conjugated by mult * lift({l_i: rho_i}), for every rho in
        rows[0] x ... x rows[r-1] (one row of residues per auxiliary prime of
        the context; no rows and one value at n = 1), row-major, as
        (numerators, denominators).  The class at f_K walks the
        chi_D-kernel (_paired_cells), and its denominators are None.  Every
        other class is a _mobius_table: a proper divisor d at u mult, which
        needs mult prime to M (else w = T_f[a mod f_K] may have order below
        d, and ValueError is raised), and the a-type as the numerators at
        d = 1 of u mult over those of u_den mult.  This is the one place
        that picks the builder of a conjugate; _ChainEvaluator reads every
        conjugate through it but a partner and a walked conjugate, which it
        reads from U (_paired_orbit)."""
        ctx = self.ctx
        u, u_den, d = _unit_multipliers(kind, param, ctx.p, ctx.m, ctx.f_K, self.aux)
        if d == ctx.f_K:
            return self._paired_cells(u * mult % self.M, rows), None
        terms = _mobius_rows(d, self.p_part, False)
        if u_den is None:
            if math.gcd(mult, self.M) != 1:
                raise ValueError(f"multiplier {mult} is not prime to M = {self.M}")
            return self._mobius_table(u * mult, terms, rows)
        return tuple(self._mobius_table(t * mult, terms, rows)[0] for t in (u, u_den))

    # wrapped by bench/spans.py; deleted with the benchmark change of ROADMAP item 1
    def symbol_value(self, cls: DerivativeClass, mult: int):
        """The class's basic unit, conjugated by the multiplier, in a context
        of the class's auxiliary support."""
        return self.factor_value(cls.kind, cls.param, mult)


class _Support:
    """What one auxiliary support n = l_1 ... l_r fixes at the level (p, m)
    of the field of conductor f, at every evaluation prime: the master
    modulus M = f p^(m+1) n, its conductor components m_i, their CRT
    idempotents E_i (1 mod m_i, 0 mod the other components), the primes of
    M (they divide q - 1 at every evaluation prime q), the residue lifts[g]
    acting on the tower as each g of Delta x Gamma, conjugates, the pairs
    (g, lifts[g^-1]) in the order of group.elements(), and places: the
    row-major index of the cell (t mod l_1, ..., t mod l_r) for every t
    below n and |R| + 1, where a walked conjugate's folded U has its
    coefficients (EvalContext._paired_orbit; t itself at one prime).  Built once per chain by its
    _ChainEvaluator, and by each EvalContext made without one."""

    def __init__(self, group: FiniteAbelianGroup, p: int, m: int, f: int,
                 aux: tuple[int, ...]):
        p_part = p ** (m + 1)
        self.moduli = (f, p_part) + aux
        self.M = M = math.prod(self.moduli)
        self.idempotents = tuple((M // mi) * pow(M // mi, -1, mi) for mi in self.moduli)
        self.primes = tuple(factorint(M))
        # the K-coordinate acts through a non-residue of chi_D at f; the other
        # Delta coordinate and the Gamma coordinate act through
        # (Z/p^{m+1})^x / {+-1}, generated by w0; every other component is 1
        nonresidue = 2
        while kronecker(f, nonresidue) != -1:
            nonresidue += 1
        w0 = primitive_root(p_part)
        e_f, e_p = self.idempotents[:2]
        rest = sum(self.idempotents[2:])
        self.lifts = {}
        for g in group.elements():
            exp = g[-1] * ((p - 1) // 2)
            if len(group.delta_divisors) > 1:
                exp += g[1] * p**m
            self.lifts[g] = ((nonresidue if g[0] % 2 else 1) * e_f
                             + pow(w0, exp, p_part) * e_p + rest) % M
        self.conjugates = tuple((g, self.lifts[group.inv(g)]) for g in group.elements())
        # sum_i (t mod l_i) * stride_i by C-level maps over range(size)
        stride = math.prod(aux)
        size = min(stride, 2 * len(_walk(f)[0]) + 1)
        places = repeat(0, size)
        for ell in aux:
            stride //= ell
            places = map(operator.add, places, map(operator.mul, map(
                operator.mod, range(size), repeat(ell)), repeat(stride)))
        self.places = array("L", places)



def _unit_multipliers(kind: str, param: int, p: int, m: int, f: int,
                      aux: tuple[int, ...]) -> tuple[int, int | None, int]:
    """(u, u_den, d): the unit (kind, param) with the support aux at the
    level (p, m) of the field of conductor f, at multiplier t, is the unit at
    d (the chi_D-kernel walk at d = f, EvalContext._mobius_table below it) at
    u t, over the same at u_den t when u_den is not None (a-type, d = 1)."""
    n = math.prod(aux)
    p_part = p ** (m + 1)
    M = f * p_part * n
    p_m = p**m
    if kind == "d":
        return (M // param) * pow(p_m, -1, param) + f, None, param
    # kind == "a"; u_n = 0 at n = 1, as pow(p_m, -1, 1) = 0
    u_n = (M // n) * pow(p_m, -1, n)
    u_p = M // p_part
    return u_n + u_p * param, u_n + u_p, 1


def _multi_indices(aux_primes: tuple[KolyvaginPrime, ...], pN: int):
    """(rows, groups) for the multi-indices (k_1, ..., k_r),
    0 <= k_i <= l_i - 2, in row-major order: rows[i] holds the residues
    sigma_l^k of the i-th auxiliary prime, and groups holds the cells with
    a nonzero merged weight w(k) + w(k + h) mod p^N, as (weight, indices)
    pairs by decreasing weight, the indices in machine words (in no
    particular order), with w(k) = prod_i k_i mod p^N (0 when some k_i = 0)
    and h_i = (l_i - 1) / 2 (each k_i + h_i mod l_i - 1): sigma_l^h = -1,
    so the cell k + h holds 1/c.  That is the weight of U(c) for a walked
    conjugate, and twice the weight of every Moebius table, whose rows have
    h_e(1/x) = x^-2 h_e(x) (_ChainEvaluator).

    The merged weight depends on k only through each k_i mod p^N and
    whether k_i + h_i wraps past l_i - 2, so the cells of the last axis
    come by class: for each cell of the other axes (w and v its two
    partial products) and each class k = c mod p^N of k_r < h_r or of
    k_r >= h_r, whose k + h is c + h_r or c - h_r mod p^N, one range of
    indices goes into its weight's array.  Deep chains (every l_i = 1 mod
    p^N, so h_i = 0 mod p^N and the weight is 2 w(k)) and shallow ones
    take this one path.  Nothing else builds a chain's weights; each
    _ChainEvaluator builds them once and keeps them."""
    if not aux_primes:
        return (), ((2, array("L", (0,))),)
    rows = tuple(tuple(_power_row(kp.s_ell, kp.ell - 1, kp.ell)) for kp in aux_primes)
    head = [(0, 1, 1)]  # (row-major offset, w, v) over the axes before the last
    for kp in aux_primes[:-1]:
        size, h = kp.ell - 1, kp.ell // 2
        head = [(offset * size + k, w * k % pN, v * ((k + h) % size) % pN)
                for offset, w, v in head for k in range(size)]
    size, h = aux_primes[-1].ell - 1, aux_primes[-1].ell // 2
    classes = [(k % pN, (k + h) % size % pN, k, stop)
               for start, stop in ((0, h), (h, size)) for k in range(start, min(start + pN, stop))]
    groups: dict = defaultdict(partial(array, "L"))
    for offset, w, v in head:
        base = offset * size
        for c, shifted, k, stop in classes:
            weight = (w * c + v * shifted) % pN
            if weight:
                groups[weight].extend(range(base + k, base + stop, pN))
    return rows, tuple((w, groups[w]) for w in sorted(groups, reverse=True))


# the groups of a one-cell table at weight 1
_ONE_CELL = ((1, (0,)),)


def _power_row(step: int, size: int, q: int) -> list[int]:
    """[step^0, ..., step^(size - 1)] in F_q."""
    row, x = [1], 1
    for _ in range(size - 1):
        x = x * step % q
        row.append(x)
    return row


# Linear factors multiplied directly per leaf of the product tree, below
# the size where a Kronecker product beats a Python loop.  The tree's
# cyclic poly_mul needs both operands at most n p^{m+1} long: every chain
# prime is 1 mod p, so n p^{m+1} >= 7 * 3 > _LEAF + 1.
_LEAF = 12


def _palindrome(gaps: tuple[int, ...], steps: list[int], q: int, size: int) -> list[int]:
    """Q+(Y) Y^d Q+(1/Y) mod Y^size - 1 over F_q, the coefficients of Y^0
    .. Y^(size - 1) (fewer when no fold is needed), for
    Q+(Y) = prod_j (1 - B_j Y), B_j = prod_{i <= j} steps[gaps[i]] and
    d = len(gaps): Q / kappa of EvalContext._paired_orbit.

    Q+ comes from a product tree whose leaves multiply up to _LEAF linear
    factors directly and whose nodes are exact cyclic poly_mul products mod
    Y^size - 1, folded on the big integer; its reversal Y^d Q+(1/Y) mod
    Y^size - 1 reads index j from (d - j) mod the length of the folded Q+,
    and one more cyclic poly_mul multiplies the two."""
    B, polys = 1, []
    for i in range(0, len(gaps), _LEAF):
        # a leaf multiplies up to _LEAF linear factors directly
        poly = [1]
        for gap in gaps[i:i + _LEAF]:
            B = B * steps[gap] % q
            poly.append(0)
            for j in range(len(poly) - 1, 0, -1):
                poly[j] = (poly[j] - B * poly[j - 1]) % q
        polys.append(poly)
    while len(polys) > 1:
        polys = [poly_mul(*polys[i:i + 2], q, cyclic=size)
                 if i + 1 < len(polys) else polys[i] for i in range(0, len(polys), 2)]
    half = polys[0]
    top = len(gaps) % len(half)  # coefficient d of Q+ is at index top of the folded Q+
    return poly_mul(half, half[top::-1] + half[:top:-1], q, cyclic=size)


def _chirp_axis(cells: list[int], table: list[int], picks: list[int], q: int) -> list[int]:
    """Evaluate the last axis of a row-major array at the roots w^j, j in
    picks, with w = table[1] of odd prime order l = len(table), and move that
    axis to the front: out[j-th pick, line] = sum_t cells[line, t] w^(t j).

    Chirp-z with binomial exponents, t j = C(t+j, 2) - C(t, 2) - C(j, 2), so
    every power is a table entry and no root of w is needed.  The chirp
    b_s = w^C(s, 2) has period l (C(l, 2) = 0 mod l), so a line's values are
    a cyclic correlation with b_0 .. b_{l-1}.  Only the line's support
    t <= top enters: with it reversed, the value at j is the linear product
    at top + j plus, for j > shift = l - 1 - top, its wrap at j - 1 - shift.
    The lines are packed at stride top + l into one exact product with the
    chirp, so no line's product meets its neighbours'.  A single line reads
    its top from its last nonzero entry; several lines keep top = l - 1.
    The cells need not be reduced mod q (a nonzero multiple of q only
    raises top).  A single line reads its picks with one itemgetter;
    several lines are read pick by pick, line by line."""
    ell = len(table)
    top = ell - 1
    if len(cells) == ell:
        while top and not cells[top]:
            top -= 1
    shift = ell - 1 - top
    stride = top + ell
    read_chirp, read_damp = _chirp_exponents(ell)
    chirp, damp = read_chirp(table), read_damp(table)
    pad = [0] * (ell - 1)
    packed = []
    for start in range(0, len(cells), ell):
        if start:
            packed.extend(pad)
        packed.extend(x * w % q for x, w in zip(reversed(cells[start:start + top + 1]),
                                                reversed(damp[:top + 1])))
    conv = poly_mul(packed, chirp, q)
    wrap = [0] * (shift + 1)
    lines = [[(x + y) * w % q for x, y, w in zip(conv[base + top:base + top + ell],
                                                 wrap + conv[base:base + ell - 1 - shift], damp)]
             for base in range(0, len(packed), stride)]
    if len(lines) == 1 and len(picks) > 1:
        return list(operator.itemgetter(*picks)(lines[0]))
    return [line[j] for j in picks for line in lines]


@lru_cache(maxsize=16)
def _chirp_exponents(ell: int) -> tuple[operator.itemgetter, operator.itemgetter]:
    """Readers of the chirp b_s = w^C(s, 2) and its inverse, s < l, from a
    root table T_l, for the prime l: item getters at C(s, 2) and -C(s, 2)
    mod l, the C(s, 2) = 0 + 1 + ... + (s - 1) summed by accumulate."""
    residues = list(range(ell))  # one int object per residue, shared by both
    binom = [residues[c % ell] for c in accumulate(range(ell - 1), initial=0)]
    return operator.itemgetter(*binom), operator.itemgetter(*(residues[-c] for c in binom))


# bytes.translate tables over the codes 0 (non-unit), 1 (+1) and 2 (-1) of a
# character's values mod 3: the product a b mod 3 (2 * 2 = 4 = 1) of two
# codes packed into one byte a + 3 b, and the indicator of +1
_MUL3 = bytes(a * b % 3 for b in range(3) for a in range(3)) + bytes(247)
_ONES = bytes(x == 1 for x in range(256))


@lru_cache(maxsize=2)
def _kernel(f: int) -> tuple[int, ...]:
    """The kernel of chi_D = (f | .) in (Z/f)^x, sorted, for the conductor
    f = f_K.  chi_D = prod_m chi_m over the prime powers m || f, each chi_m a
    bytes row over Z/m of its values mod 3 (0, 1, or 2 for -1): at m = 4 or
    8 by kronecker at a lift y = x mod m, y = 1 mod f/m; at an odd prime (f
    is squarefree away from 2) by its squares, the non-squares signed by one
    kronecker at the smallest of them.  Each row is repeated to length f
    and multiplied into the product bytewise, mod 3, by one bytes.translate
    of the two rows packed into one integer; the kernel is where the
    product is 1."""
    chi = None
    for r, e in factorint(f).items():
        m = r**e
        rest = f // m
        if r == 2:
            row = bytes(kronecker(f, crt([x, 1], [m, rest])) % 3 if x % 2 else 0
                        for x in range(m))
        else:
            row = bytearray(b"\2") * m
            row[0] = 0
            for x in range(1, (m + 1) // 2):
                row[x * x % m] = 1
            sign = kronecker(f, crt([row.index(2), 1], [m, rest])) % 3
            row = row.replace(b"\2", bytes((sign,)))
        row *= rest
        if chi is not None:
            # both rows in one integer, byte a + 3 b at each x (at most 8: no carry)
            packed = int.from_bytes(chi, "little") + 3 * int.from_bytes(row, "little")
            row = packed.to_bytes(f, "little").translate(_MUL3)
        chi = row
    return tuple(compress(range(f), chi.translate(_ONES)))


@lru_cache(maxsize=4)
def _walk(f: int) -> tuple[tuple[int, ...], int, int]:
    """(the gaps from 0 of R+ = {r in R : 2 r < f} in increasing order, the
    largest gap, the sum of R+) for the chi_D-kernel R of the conductor
    f = f_K: R = -R, so R+ is the first half of R, and |R| = 2 |R+|."""
    kernel = _kernel(f)
    residues = kernel[:len(kernel) // 2]
    gaps = tuple(map(operator.sub, residues, (0,) + residues))
    return gaps, max(gaps), sum(residues)


def _mobius_rows(d: int, p_part: int, classed: bool) -> tuple[tuple[int, int, int], ...]:
    """The terms of EvalContext._mobius_table for Phi_d, as (e, power,
    exponent) triples: h_e read at x = c^power and raised to the sum of
    mu(d/e) over the divisors e of d with the same key; keys whose sum is 0
    are left out.

    Unclassed, the key is e itself, read at x = c^e: one term (e, e, mu(d/e))
    per divisor e with d/e squarefree.  Classed, the key is the class of
    +-e mod p^{m+1} = p_part, read at x = c: h_e depends on e only through
    s_e.  That needs every chain prime to have N_l >= max(level, m+1).  Then
    c -> c^e rotates each axis along sigma_l, which shifts the weights
    k -> k - j mod p^level (e = sigma_l^j), and each correction
    prod_{c in mu_l, c != 1} h_e(c y) = h_e(y^l) / h_e(y) (alpha^l = alpha)
    is a rotation of the other axes that cancels in turn, so up to a
    p^level-th power the weighted product of h_e(c^e) is that of h_e(c).  At
    n = 1 (one cell, c = 1) this is exact.  At p_part = 3 every e is +-1
    mod 3, and for d > 1 the one class sums to sum_{e | d} mu(d/e) = 0: no
    term."""
    primes = list(factorint(d))
    sums: dict = {}
    for picks in iter_product((0, 1), repeat=len(primes)):
        e = d // math.prod(compress(primes, picks))
        key = (min(e % p_part, -e % p_part), 1) if classed else (e, e)
        sums[key] = sums.get(key, 0) + (-1) ** sum(picks)
    return tuple(key + (total,) for key, total in sums.items() if total)


def splits_completely(ctx: AbelianFieldCtx, q: int, n: int, level: int) -> bool:
    """q = 1 mod f_K * p^max(level, m+1) * n: q has residue degree 1 in
    Q(mu_{f_K p^{m+1} n}), so it splits completely in F_m(mu_n) and every
    root of unity the engine needs lies in F_q, and q = 1 mod p^level."""
    return (q - 1) % (ctx.f_K * ctx.p ** max(level, ctx.m + 1) * n) == 0


class _ChainEvaluator:
    """What one derivative class (kind, param, aux_primes) at one level of
    the field ctx fixes in evaluate_kappa, at every evaluation prime: the
    expansion-size check (BudgetExhausted), the chain's _Support, the ring
    Z/p^level[G], the _multi_indices rows and the one grouping of the cells
    by merged weight that every conjugate reads (a Moebius table with its
    dlog halved, as h_e(1/x) = x^-2 h_e(x): see __call__), the unit's
    multiplier u and each conjugate's lift, and, when the class is the one
    at f_K, the conjugate whose dlog each partner reads and the partner's
    _mobius_rows terms of Phi_f (by class or per divisor).  Built once per
    chain and level by _chain_evaluator; a call at q does only the F_q work
    (see evaluate_kappa)."""

    def __init__(self, ctx: AbelianFieldCtx, kind: str, param: int,
                 aux_primes: tuple[KolyvaginPrime, ...], level: int):
        size = DerivativeOperator(aux_primes).expansion_size()
        if size > DEFAULT_DERIVATIVE_CAP:
            raise BudgetExhausted(f"derivative expansion of size {size}"
                                  f" exceeds cap {DEFAULT_DERIVATIVE_CAP}")
        self.ctx = ctx
        self.kind = kind
        self.param = param
        self.level = level
        self.aux = tuple(kp.ell for kp in aux_primes)
        self.support = _Support(ctx.group, ctx.p, ctx.m, ctx.f_K, self.aux)
        self.ring = ctx.ring if level == ctx.N else GroupRing(ctx.group, ctx.p, level)
        self.u = _unit_multipliers(kind, param, ctx.p, ctx.m, ctx.f_K, self.aux)[0]
        # the class at f_K: each conjugate with g[0] = 1 is read from its
        # partner with g[0] = 0, which elements() lists first, and the
        # Moebius table of Phi_f, the product of the two chi_D-cosets
        paired = kind == "d" and param == ctx.f_K
        classed = all(kp.N_ell >= max(level, ctx.m + 1) for kp in aux_primes)
        self.partner_rows = _mobius_rows(ctx.f_K, ctx.p ** (ctx.m + 1), classed)
        self.conjugates = tuple((g, lift, (0,) + g[1:] if paired and g[0] else None)
                                for g, lift in self.support.conjugates)
        self.rows, self.groups = _multi_indices(aux_primes, ctx.p**level)

    def __call__(self, q: int, h_twist: dict[int, int] | None) -> GroupRingElement:
        """kappa(n) at q, for q = 1 mod f_K p^max(level, m+1) n.

        A walked conjugate of the class at f_K reads prod_k P(c_k)^w(k),
        P(c) = kappa^2 c^|R| U(c) U(1/c) (_paired_orbit), as
        prod_j U(c_j)^(w(j) + w(j + h)) (the merged weights of
        _multi_indices): kappa has order dividing 2 f_K and c_j order
        dividing n, both prime to p, so their p-part dlog is 0.  Every other
        conjugate, and every partner with terms, reads a Moebius table T
        with the same weights and halves its dlog: T is a product of rows
        h_e(x) = 1 - x (s_e - x), h_e(1/x) = x^-2 h_e(x), and the cell
        j + h holds 1/c_j, so dlog T(c_(j+h)) = dlog T(c_j) and the merged
        sum is 2 sum_k w(k) dlog T(c_k) mod p^level (p is odd)."""
        ev = EvalContext(self.ctx, self.aux, q, self.support)
        M, rows, groups, level = ev.M, self.rows, self.groups, self.level
        half = (self.ctx.p**level + 1) // 2
        twist = ev.lift(h_twist) if h_twist else 1
        if math.gcd(twist, M) != 1:
            raise ConductorClash(f"h-twist {h_twist} is not prime to M = {M}")
        coeffs: dict = {}
        for g, lift, partner in self.conjugates:
            mult = lift * twist % M
            if partner:
                coeffs[g] = -coeffs[partner]
                if self.partner_rows:
                    table = ev._mobius_table(self.u * mult % M, self.partner_rows, rows)
                    coeffs[g] += half * ev.dlog(_orbit_value(q, table, groups), level)
            elif self.kind == "d" and self.param == self.ctx.f_K:
                walked = ev._paired_orbit(self.u * mult % M, rows), None
                coeffs[g] = ev.dlog(_orbit_value(q, walked, groups), level)
            else:
                table = ev.factor_orbit(self.kind, self.param, mult, rows)
                coeffs[g] = half * ev.dlog(_orbit_value(q, table, groups), level)
        return GroupRingElement(self.ring, coeffs)


# Chains kept: a sampler run at i <= 1 visits at most 1 + 6 chains
# (ideals._PER_LEVEL)
_chain_evaluator = lru_cache(maxsize=8)(_ChainEvaluator)


def evaluate_kappa(ctx: AbelianFieldCtx, cls: DerivativeClass, q: int,
                   level: int | None = None,
                   h_twist: dict[int, int] | None = None) -> GroupRingElement:
    """The conjugate vector of p-part dlogs of kappa(n) at q.

    Returns sum_g dlog(eval(g^{-1} . eta(n)^{D_n})) * g over Z/p^level[G]; the
    coefficient convention makes the map Galois-equivariant.  Requires
    q = 1 mod f_K * p^max(level, m+1) * n (splits_completely).  What the
    class and the level fix is read from the chain's _ChainEvaluator; the
    h-twist multiplies its lifts at every call and must be prime to M
    (ConductorClash otherwise).
    """
    ctx_level = ctx.N if level is None else level
    if not splits_completely(ctx, q, cls.n, ctx_level):
        raise NotSplit(f"q = {q} is not 1 mod f_K p^max(level, m+1) n"
                       f" (level {ctx_level}, n = {cls.n})")
    return _chain_evaluator(ctx, cls.kind, cls.param, cls.aux_primes, ctx_level)(q, h_twist)


def _orbit_value(q: int, orbit: tuple[list, list | None], groups) -> int:
    """prod_i cell_i^(weight_i) in F_q of a factor_orbit table, numerators
    over denominators, for the cells grouped by weight (_multi_indices)."""
    num, den = orbit
    val = _weighted_product(q, num, groups)
    if den is not None:
        val = val * pow(_weighted_product(q, den, groups), -1, q) % q
    return val


# Cells multiplied as integers before each reduction mod q
_CHUNK = 32


def _weighted_product(q: int, values: list[int], groups) -> int:
    """prod_i values[i]^(weight_i) in F_q over the (weight, indices) groups
    of _multi_indices (the order of the indices within a group does not
    matter), by decreasing weight w_1 > w_2 > ... > w_k > 0: with
    P_j the product of the first j classes, the value is
    prod_j P_j^(w_j - w_{j+1}), w_{k+1} = 0, one pow to a small exponent per
    class.  Each class is multiplied in C, _CHUNK cells at a time."""
    total = acc = 1
    for (weight, cells), (lower, _) in zip(groups, groups[1:] + ((0, ()),)):
        if len(cells) == 1:
            acc = acc * values[cells[0]] % q
        else:
            picked = operator.itemgetter(*cells)(values)
            for start in range(0, len(picked), _CHUNK):
                acc = acc * math.prod(picked[start:start + _CHUNK]) % q
        total = total * pow(acc, weight - lower, q) % q
    return total


def norm_relation_check(ctx: AbelianFieldCtx, kind: str, param: int,
                        aux_primes: tuple[KolyvaginPrime, ...], ell: int, q: int) -> bool:
    """Exact check of the Euler-system norm relation at ell | n:

        N_{F(mu_n)/F(mu_{n/ell})} eta(n)  =  eta(n/ell)^{1 - Frob_ell^{-1}}

    Both sides are expanded in F_q and compared exactly.  The norm is
    one factor_orbit table of eta(n) over the twists sigma in Gal(Q(mu_ell)/Q)
    (the residues 1 .. ell - 1 at ell, 1 at the other auxiliary primes), its
    cells multiplied together.  Each side of the quotient on the right is a
    one-cell table of eta(n/ell) in its own context, where q = 1 mod M
    gives q = 1 mod M / ell, and Frob_ell is the residue ell, prime to
    M / ell.
    """
    cls = derivative_class(ctx, kind, param, aux_primes)
    ells = cls.aux
    if ell not in ells:
        raise ValueError(f"ell = {ell} does not divide the auxiliary product")
    ev = EvalContext(ctx, ells, q)
    rows = [range(1, ell) if e == ell else [1] for e in ells]
    lhs = _orbit_value(q, ev.factor_orbit(kind, param, 1, rows), ((1, tuple(range(ell - 1))),))
    sub = EvalContext(ctx, tuple(e for e in ells if e != ell), q)
    cell = [[1]] * len(sub.aux)
    rhs = [_orbit_value(q, sub.factor_orbit(kind, param, mult, cell), _ONE_CELL)
           for mult in (1, pow(ell, -1, sub.M))]
    return lhs == rhs[0] * pow(rhs[1], -1, q) % q
