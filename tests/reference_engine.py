"""The pow-per-term evaluation engine, kept only as a reference for tests.

Every factor 1 - zeta^e costs its own modular exponentiation, every
norm-set element is CRT-lifted to a full multiplier modulo the master
modulus M, and a derivative class sums one discrete logarithm per
multi-index.  It is slow, and it shares none of the root tables, residue
norm sets, pairing or dlog folding of ``cycfit.units``; only the
EvalContext's prime q, root zeta_M and the Delta x Gamma residue convention
(``delta_lift``) are reused.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

from cycfit.arith import crt
from cycfit.groupring import GroupRing, GroupRingElement


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
        t_g = ev.delta_lift(ctx.group.inv(g)) * twist % ev.M
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
