"""The pow-per-term evaluation engine, kept only as a reference for tests.

Every factor 1 - zeta^e costs its own modular exponentiation, every
norm-set element is CRT-lifted to a full multiplier modulo the master
modulus M, and a derivative class sums one discrete logarithm per
multi-index.  It is slow, and it shares none of the root tables, residue
norm sets, pairing or dlog folding of ``cycfit.units``; only the
EvalContext's prime q, root zeta_M and the Delta x Gamma residue convention
(``support.lifts``) are reused.

The per-cell helpers below (group_weights, multi_indices, scatter_cells,
chirp_picks, chirp_axis) are the bookkeeping that ``cycfit.units`` does by
residue class, written one cell or one coefficient at a time.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from itertools import product as iter_product

from cycfit.arith import crt
from cycfit.groupring import GroupRing, GroupRingElement


def mobius(n: int) -> int:
    """mu(n) by trial division."""
    out, r = 1, 2
    while r * r <= n:
        if n % r == 0:
            n //= r
            if n % r == 0:
                return 0
            out = -out
        r += 1
    return -out if n > 1 else out


def lift(ev, components: dict[int, int]) -> int:
    residues = [components.get(mod, 1) % mod for mod in ev.moduli]
    return crt(residues, ev.moduli)


def norm_set_d(ev, d: int) -> tuple[int, ...]:
    f = ev.ctx.f_K
    kernel = [x for x in range(1, f) if math.gcd(x, f) == 1 and ev.ctx.chi_d(x) == 1]
    vals = {
        crt([x % d, y] + [1] * len(ev.aux), [d, ev.p_part] + list(ev.aux))
        for x in kernel
        for y in (1, ev.p_part - 1)
    }
    return tuple(sorted(vals))


def term(ev, e: int) -> int:
    """1 - zeta^e in F_q."""
    return (1 - pow(ev.zeta, e % ev.M, ev.q)) % ev.q


def factor_value(ev, kind: str, param: int, aux_subset: tuple[int, ...], mult: int) -> int:
    q = ev.q
    n_sub = math.prod(aux_subset) if aux_subset else 1
    p_m = ev.ctx.p ** ev.ctx.m
    if kind == "d":
        d = param
        u = (ev.M // d) * pow(p_m, -1, d) + ev.M // (n_sub * ev.p_part)
        out = 1
        for t in norm_set_d(ev, d):
            out = out * term(ev, u * t * mult) % q
        return out
    u_n = 0 if n_sub == 1 else (ev.M // n_sub) * pow(p_m, -1, n_sub)
    u_p = ev.M // ev.p_part
    num = den = 1
    for w in (1, lift(ev, {ev.p_part: ev.p_part - 1})):
        num = num * term(ev, (u_n + u_p * param) * w * mult) % q
        den = den * term(ev, (u_n + u_p) * w * mult) % q
    return num * pow(den, -1, q) % q


def evaluate_kappa(ctx, cls, ev, level: int, h_twist: dict[int, int] | None = None):
    """sum_g sum_k weight(k) * dlog(value) * g with one dlog per multi-index."""
    pN = ctx.p**level
    twist = lift(ev, h_twist or {})
    ranges = [range(1, kp.ell - 1) for kp in cls.aux_primes]
    coeffs = {}
    for g in ctx.group.elements():
        t_g = ev.support.lifts[ctx.group.inv(g)] * twist % ev.M
        total = 0
        for k_vec in iter_product(*ranges):
            weight = 1
            comp = {}
            for kp, k in zip(cls.aux_primes, k_vec):
                weight = weight * k % pN
                comp[kp.ell] = pow(kp.s_ell, k, kp.ell)
            val = factor_value(ev, cls.kind, cls.param, cls.aux, t_g * lift(ev, comp) % ev.M)
            total = (total + weight * ev.dlog(val, level)) % pN
        coeffs[g] = total
    return GroupRingElement(GroupRing(ctx.group, ctx.p, level), coeffs)


def group_weights(weights) -> tuple[tuple[int, array], ...]:
    """The cell indices grouped by weight, as (weight, indices) pairs by
    decreasing weight, the indices in increasing order; cells of weight 0
    are left out."""
    groups = defaultdict(lambda: array("L"))
    for i, w in enumerate(weights):
        if w:
            groups[w].append(i)
    return tuple((w, groups[w]) for w in sorted(groups, reverse=True))


def multi_indices(aux_primes, pN: int):
    """(rows, groups) of units._multi_indices from its definition, one cell
    at a time: rows[i] = [sigma_l^k, 0 <= k <= l - 2] and every cell k
    weighed w(k) + w(k + h) mod pN, w(k) = prod_i k_i, h_i = (l_i - 1) / 2."""
    rows = tuple(tuple(pow(kp.s_ell, k, kp.ell) for k in range(kp.ell - 1))
                 for kp in aux_primes)
    cells = iter_product(*(range(kp.ell - 1) for kp in aux_primes))
    halves = [(kp.ell - 1) // 2 for kp in aux_primes]
    weights = [(math.prod(k) + math.prod((kj + h) % (2 * h) for kj, h in zip(k, halves))) % pN
               for k in cells]
    return rows, group_weights(weights)


def scatter_cells(full, a: int, d: int, t_p, p_part: int, ells, q: int) -> list:
    """The cells of EvalContext._paired_orbit before its transforms, one
    coefficient at a time: the coefficient of X^t of Q / kappa, times
    alpha^(t - d) = t_p[a (t - d) mod p_part], added mod q into the
    row-major cell (t mod l_1, ..., t mod l_r)."""
    cells = [0] * math.prod(ells)
    for t, coeff in enumerate(full):
        idx = 0
        for ell in ells:
            idx = idx * ell + t % ell
        cells[idx] = (cells[idx] + coeff * t_p[a * (t - d) % p_part]) % q
    return cells


def chirp_picks(lines, picks) -> list:
    """The read-out of units._chirp_axis: line[j] for j in picks, pick-major."""
    return [line[j] for j in picks for line in lines]


def chirp_axis(cells, table, picks, q: int) -> list:
    """units._chirp_axis by direct evaluation: each line of the last axis
    at every root w^j, w = table[1] of order l = len(table), read by
    chirp_picks."""
    ell = len(table)
    lines = [[sum(c * table[t * j % ell] for t, c in enumerate(cells[i:i + ell])) % q
              for j in range(ell)] for i in range(0, len(cells), ell)]
    return chirp_picks(lines, picks)
