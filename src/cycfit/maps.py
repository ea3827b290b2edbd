"""The reciprocity coordinate on (F_m^x/p^N)_chi, plus the annihilation
integration test that ties it to the class group oracle.

The reciprocity coordinate phi_bar at ell is computed as the chi-projection
of the dlog conjugate vector of the class at q := ell.  The annihilation
suite runs at the evaluation primes ell = 1 mod f_K * p^N: they split in K
with residue degree 1 and N_ell >= N.  annihilation_check refuses any ell
with N_ell < N (PrecisionTooLow), so e is known mod p^N and, as p^N > |A|,
the check is exactly class_order | e, where class_order is the p-part of the
order of [lambda].  By Chebotarev the classes [lambda] still run over all
of A_p: the p-Hilbert class field of K meets K(mu_{f_K p^N}) only in K.
"""

from __future__ import annotations

import math
from itertools import islice

from .arith import make_field, val_p
from .classgroup import FormClassGroup, ideal_class_of_prime
from .errors import DividesAux, NegativeArgument, PrecisionTooLow
from .fields import AbelianFieldCtx, KolyvaginPrime, evaluation_primes
from .groupring import GroupRingElement, chi_project
from .units import DerivativeClass, derivative_class, evaluate_kappa


def phi_bar(ctx: AbelianFieldCtx, kp: KolyvaginPrime,
            cls: DerivativeClass) -> GroupRingElement:
    """Reciprocity coordinate at ell applied to kappa(n), in R_{m,eff,chi}
    with eff = min(N_ell, N).

    The dlog vector is taken at level eff and projected at that level by the
    sign of the K-coordinate (chi_project).  Defined when ell does not divide
    n (the class is a unit at ell).  The overall sign convention is
    ctx.conventions.phi_sign.
    """
    ell = kp.ell
    if cls.n % ell == 0:
        raise DividesAux(f"ell = {ell} divides the auxiliary product {cls.n}")
    eff = min(kp.N_ell, ctx.N)
    vec = evaluate_kappa(ctx, cls, ell, level=eff)
    proj = chi_project(vec)
    if ctx.conventions.phi_sign == -1:
        proj = -proj
    return proj


# ---------------------------------------------------------------------------
# Annihilation + convention coupling


class AnnihilationReport:
    """One auxiliary prime's annihilation check; its report entry is built
    from vars()."""

    def __init__(self, ell: int, N_eff: int, coupling_ok: bool, e: int,
                 e_valuation: int, class_order: int, annihilation_ok: bool):
        self.ell = ell
        self.N_eff = N_eff
        self.coupling_ok = coupling_ok
        self.e = e
        self.e_valuation = e_valuation
        self.class_order = class_order
        self.annihilation_ok = annihilation_ok

    @property
    def passed(self) -> bool:
        return self.coupling_ok and self.annihilation_ok


def tame_coupling_ok(kp: KolyvaginPrime) -> bool:
    """Verify the normalization coupling the tame generator to the residue
    arrangement at ell.

    With pi a uniformizer above ell in the maximal p-subextension inside the
    ell-th cyclotomic field, the defining congruence pi^{sigma_ell - 1} =
    zeta_{p^{N_ell}} reduces (each conjugate ratio (1-zeta^{st})/(1-zeta^t)
    collapses to s at the prime above ell) to

        s_ell^{(ell-1)/p^{N_ell}}  =  zeta_{p^{N_ell}}   in F_ell,

    with zeta taken from the canonical generator of F_ell^x.  Replacing
    sigma_ell by its inverse breaks this for every ell since p is odd.
    """
    ell, p, n_ell = kp.ell, kp.p, kp.N_ell
    fld = make_field(ell)
    idx = (ell - 1) // p**n_ell
    return pow(kp.s_ell, idx, ell) == pow(fld.g, idx, ell)


def annihilation_check(ctx: AbelianFieldCtx, kp: KolyvaginPrime,
                       oracle: FormClassGroup) -> AnnihilationReport:
    """PASS iff (a) the tame-generator coupling holds at ell and (b) the
    reciprocity value e = phi_bar(ell, eta) annihilates the class [lambda]
    of the distinguished prime above ell in A_p, i.e. class_order | e.

    (b) is the residue-side consequence of the divisor of kappa(ell) being
    supported above ell with coefficient e.  ell must be 1 mod f_K * p^{m+1}
    (evaluate_kappa at q = ell) and have N_ell >= N, so that e is known mod
    p^N; as p^N > |A|, e * [lambda] = 0 in A_p is then exact.
    """
    p, N = ctx.p, ctx.N
    a_order = p ** sum(oracle.p_part_divisors(p))
    if p**N <= a_order:
        raise PrecisionTooLow(f"need p^N > |A| = {a_order}")
    if kp.N_ell < N:
        raise PrecisionTooLow(f"N_ell = {kp.N_ell} at ell = {kp.ell} is below N = {N}")
    coupling = tame_coupling_ok(kp)
    eta = derivative_class(ctx, "d", ctx.f_K, ())
    e = phi_bar(ctx, kp, eta).scalar()
    # the p-part of the order of [lambda], i.e. the order of its A_p component
    # (p^N exceeds it, as it divides |A_p|)
    class_order = math.gcd(oracle.element_order(ideal_class_of_prime(kp.ell, ctx.D, oracle)),
                           p**N)
    return AnnihilationReport(
        ell=kp.ell,
        N_eff=N,
        coupling_ok=coupling,
        e=e,
        e_valuation=val_p(e, p, N),
        class_order=class_order,
        annihilation_ok=e % class_order == 0,
    )


def annihilation_suite(ctx: AbelianFieldCtx, oracle: FormClassGroup,
                       count: int) -> list[AnnihilationReport]:
    """Run annihilation_check at the first `count` evaluation primes
    ell = 1 mod f_K * p^N (fields.evaluation_primes)."""
    if count < 0:
        raise NegativeArgument(f"the number of annihilation primes {count} must be >= 0")
    flip = ctx.conventions.flip_sigma
    return [annihilation_check(ctx, KolyvaginPrime.build(ell, ctx.p, flip), oracle)
            for ell in islice(evaluation_primes(ctx), count)]
