"""Command-line orchestration: machine-readable JSON on stdout, human
progress on stderr, deterministic reports, CI-friendly exit codes.

Exit codes: 0 = all MATCH/PASS; 2 = INCONCLUSIVE present (needs more
budget); 3 = BUG-class failure (a sample escaped the oracle Fitting ideal,
the oracle's two Fitting routes disagree, or an exact identity failed);
4+ = input errors (see errors.EXIT_CODES).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .arith import is_prime
from .classgroup import class_number_band, narrow_class_group
from .config import (
    DEFAULT_PRIME_SEARCH_BUDGET,
    DEFAULT_SAMPLE_BUDGET,
    DEFAULT_STABILIZATION_WINDOW,
    Conventions,
)
from .errors import (BudgetExhausted, CycfitError, NegativeArgument, NotPrime, UsageError,
                     exit_code_for)
from .fields import build_field, chain_primes, kolyvagin_primes
from .fitting import diagonal_presentation, fitting_ideal, fitting_of_p_group
from .groupring import chi_project, scalar_ring
from .ideals import sample_cyclotomic_ideal
from .combined import check_combined_identities
from .maps import annihilation_suite
from .units import derivative_class, evaluate_kappa

_INT_LIMIT = 2**53
# Largest epsilon of the formal identity suite; `verify` and the `formal` default.
_FORMAL_EPS_MAX = 3
# Largest `formal --eps-max`.  The check at eps rewrites about eps * 2^eps terms
# (x_{nu,q} and its eps sublattices), so the suite up to E rewrites
# sum_{e <= E} e * 2^e = (E - 1) * 2^(E + 1) + 2 terms: 196 610 at E = 13 and
# 425 986 at E = 14.  Time and memory grow faster than the terms (about 2.3x
# per step; the check at eps = 13 alone took 1.8 s and 51 MB), so the suite
# stops where one `formal` run stays within a few seconds.
_FORMAL_EPS_CAP = 13


def _sanitize(obj):
    """Exact integers in reports: decimal strings beyond 2^53."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _INT_LIMIT else obj
    if isinstance(obj, (list, tuple)):
        return [_sanitize(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    return obj


def emit(report: dict) -> None:
    print(json.dumps(_sanitize(report), sort_keys=True, separators=(",", ":")))


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _ideal_desc(nf) -> dict:
    out = {"rows": [list(r) for r in nf.rows], "unit": nf.is_unit_ideal()}
    if nf.ring.group.order == 1:
        out["p_valuation"] = nf.principal_valuation()
    return out


def _unit_desc(unit) -> dict:
    """The fundamental unit (T + U sqrt(D)) / 2 with its norm."""
    T, U, norm = unit
    return {"T": T, "U": U, "norm": norm}


def _entries(reports) -> list:
    """One entry per suite report: its fields plus the derived `passed`."""
    return [{**vars(r), "passed": r.passed} for r in reports]


def auto_precision(divisors) -> int:
    """log_p |A| + 2, where |A| = p^{sum(divisors)}: the least N with
    p^N > |A| is log_p |A| + 1, and one more is kept for safety."""
    return sum(divisors) + 2


def run_verify(p: int, D: int, i_max: int = 2, N: int | None = None,
               budget: int = DEFAULT_SAMPLE_BUDGET,
               window: int = DEFAULT_STABILIZATION_WINDOW,
               seed: int = 0, flip_sigma: bool = False,
               anni_count: int = 3,
               quiet: bool = False) -> dict:
    """The flagship pipeline: oracle -> Fitting ideals -> sampled cyclotomic
    ideals -> per-index verdict, plus the annihilation and formal suites."""

    def say(msg):
        if not quiet:
            log(msg)

    _check_bound("--i-max", i_max)
    _check_bound("--annihilation", anni_count)
    _check_bound("--budget", budget)
    _check_bound("--window", window)
    _check_odd_prime(p)
    conventions = Conventions(flip_sigma=flip_sigma)
    say(f"[oracle] narrow class group of D = {D}")
    oracle = narrow_class_group(D)
    divisors = oracle.p_part_divisors(p)
    say(f"[oracle] h+ = {oracle.h_plus}, p-part divisors {divisors}")
    N_used = N if N is not None else auto_precision(divisors)
    ctx = build_field(p, D, 0, N_used, conventions)
    fitts, cross = _oracle_fittings(p, N_used, divisors, i_max)
    say(f"[fitting] N = {N_used}, ideals "
        + ", ".join(f"Fitt_{i}=p^{f.principal_valuation()}" for i, f in enumerate(fitts)))
    runs = {}
    verdicts = {}
    base = None
    for i in range(i_max + 1):
        say(f"[sample] cyclotomic ideal i = {i}")
        run = sample_cyclotomic_ideal(
            ctx, i, budget=budget, seed=seed, window=window,
            oracle_fitting=fitts[i], base_run=base,
        )
        runs[i] = run
        base = run
        if run.status == "BUG":
            verdicts[i] = "BUG"
        elif run.ideal == fitts[i]:
            verdicts[i] = "MATCH"
        elif fitts[i].contains_ideal(run.ideal):
            verdicts[i] = "INCONCLUSIVE"
        else:  # pragma: no cover - per-sample containment should catch first
            verdicts[i] = "BUG"
        say(f"[sample] i = {i}: {verdicts[i]} "
            f"(ideal p^{run.ideal.principal_valuation()}, {len(run.samples)} samples)")
    say(f"[annihilation] {anni_count} primes")
    anni = annihilation_suite(ctx, oracle, anni_count)
    say("[formal] combined-element identities")
    formal = _formal_reports()
    anni_ok = all(r.passed for r in anni)
    formal_ok = all(r.passed for r in formal)
    if (any(v == "BUG" for v in verdicts.values()) or not anni_ok or not formal_ok
            or not all(cross)):
        status = "BUG"
    elif any(v == "INCONCLUSIVE" for v in verdicts.values()):
        status = "INCONCLUSIVE"
    else:
        status = "OK"
    return {
        "version": __version__,
        "config": {
            "p": p, "D": D, "m": 0, "N": N_used, "i_max": i_max,
            "budget": budget, "window": window, "seed": seed,
            "flip_sigma": conventions.flip_sigma,
            "phi_sign": conventions.phi_sign,
        },
        "oracle": {
            "h_plus": oracle.h_plus,
            "p_part_divisors": list(divisors),
            "fundamental_unit": _unit_desc(oracle.unit),
        },
        "fitting": {str(i): _ideal_desc(f) for i, f in enumerate(fitts)},
        "fitting_minor_cross_check": {str(i): v for i, v in enumerate(cross)},
        "cyclotomic": {str(i): runs[i].to_dict() for i in runs},
        "verdicts": {str(i): verdicts[i] for i in verdicts},
        "annihilation": _entries(anni),
        "formal_identities": _entries(formal),
        "status": status,
    }


@functools.cache
def _oracle_fittings(p: int, N: int, divisors: tuple[int, ...], i_max: int) -> tuple:
    """(Fitt_0, ..., Fitt_{i_max}) over Z/p^N of the p-group with the given
    elementary divisors, and per index whether the minors of its diagonal
    presentation give the same ideal.  They depend on no field, so each key
    is computed once per process, on first use; an InsufficientPrecision is
    not cached and is raised again on every call."""
    fitts = tuple(fitting_of_p_group(p, N, divisors, i) for i in range(i_max + 1))
    diag = diagonal_presentation(scalar_ring(p, N), [p**d for d in divisors] or [1])
    return fitts, tuple(fitting_ideal(diag, i) == f for i, f in enumerate(fitts))


@functools.cache
def _formal_reports() -> tuple:
    """The formal suite up to _FORMAL_EPS_MAX for `verify`: it depends on no
    field, so it runs once per process, on first use."""
    return tuple(check_combined_identities(eps) for eps in range(_FORMAL_EPS_MAX + 1))


def _check_bound(flag: str, value: int) -> None:
    """A negative upper bound would check nothing and still report success."""
    if value < 0:
        raise NegativeArgument(f"{flag} = {value} must be >= 0")


def _check_odd_prime(p: int) -> None:
    """p is checked before the class group is built, which needs p prime."""
    if p < 3 or not is_prime(p):
        raise NotPrime(f"p = {p} must be an odd prime")


def _status_exit(report: dict) -> int:
    return {"OK": 0, "INCONCLUSIVE": 2, "BUG": 3}[report["status"]]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    report = run_verify(
        p=args.p, D=args.D, i_max=args.i_max, N=args.N, budget=args.budget,
        window=args.window, seed=args.seed, flip_sigma=args.flip_sigma,
        anni_count=args.annihilation, quiet=args.quiet,
    )
    emit(report)
    return _status_exit(report)


def cmd_classgroup(args) -> int:
    _check_odd_prime(args.p)
    grp = narrow_class_group(args.D)
    divisors = grp.p_part_divisors(args.p)
    band = class_number_band(args.D, grp.h_plus, grp.unit)
    report = {
        "D": args.D,
        "h_plus": grp.h_plus,
        "cycles": [[list(f) for f in cyc] for cyc in grp.cycles],
        "fundamental_unit": _unit_desc(grp.unit),
        "p": args.p,
        "p_part_divisors": list(divisors),
        "l_series_band": {"h_lo": band["h_lo"], "h_hi": band["h_hi"], "ok": band["ok"]},
    }
    emit(report)
    return 0 if band["ok"] else 3


def cmd_primes(args) -> int:
    _check_bound("--count", args.count)
    _check_bound("--budget", args.budget)
    ctx = build_field(args.p, args.D, 0, args.N)
    gen = kolyvagin_primes(ctx, extra_modulus=args.extra, budget=args.budget)
    out = []
    for _ in range(args.count):
        kp = next(gen)
        out.append({"ell": kp.ell, "N_ell": kp.N_ell, "s_ell": kp.s_ell})
    emit({"p": args.p, "D": args.D, "N": args.N, "extra": args.extra, "primes": out})
    return 0


def cmd_kappa(args) -> int:
    if not is_prime(args.q):
        raise NotPrime(f"q = {args.q} is not prime")
    ctx = build_field(args.p, args.D, 0, args.N)
    aux = chain_primes(ctx, args.chain or ())
    param = args.D if args.param is None else args.param
    cls = derivative_class(ctx, args.kind, param, aux)
    vec = evaluate_kappa(ctx, cls, args.q)
    proj = chi_project(vec)
    emit({
        "p": args.p, "D": args.D, "N": args.N, "n_factors": list(args.chain or ()),
        "q": args.q, "kind": args.kind, "param": param,
        "vector": list(vec.vector()), "chi_vector": list(proj.vector()),
    })
    return 0


def cmd_ideal(args) -> int:
    ctx = build_field(args.p, args.D, 0, args.N)
    run = sample_cyclotomic_ideal(ctx, args.i, budget=args.budget, seed=args.seed,
                                  window=args.window)
    emit(run.to_dict())
    return 0 if run.status == "OK" else (3 if run.status == "BUG" else 2)


def cmd_fitting(args) -> int:
    _check_bound("--i-max", args.i_max)
    divisors = tuple(args.divisors)
    out = {}
    for i in range(args.i_max + 1):
        nf = fitting_of_p_group(args.p, args.N, divisors, i)
        out[str(i)] = _ideal_desc(nf)
    emit({"p": args.p, "N": args.N, "divisors": list(divisors), "fitting": out})
    return 0


def cmd_formal(args) -> int:
    _check_bound("--eps-max", args.eps_max)
    if args.eps_max > _FORMAL_EPS_CAP:
        raise BudgetExhausted(f"--eps-max = {args.eps_max} exceeds {_FORMAL_EPS_CAP}: the checks"
                              f" up to eps rewrite (eps - 1) * 2^(eps + 1) + 2 terms")
    reports = [check_combined_identities(eps) for eps in range(args.eps_max + 1)]
    emit({
        "reports": _entries(reports),
        "all_passed": all(r.passed for r in reports),
    })
    return 0 if all(r.passed for r in reports) else 3


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2, the
    INCONCLUSIVE code; subparsers are built with the same class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cycfit",
        description="verify sampled cyclotomic ideals against class-group Fitting ideals",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="full verification pipeline")
    v.add_argument("-p", type=int, default=3)
    v.add_argument("-D", type=int, default=257)
    v.add_argument("--i-max", type=int, default=2)
    v.add_argument("-N", type=int, default=None)
    v.add_argument("--budget", type=int, default=DEFAULT_SAMPLE_BUDGET)
    v.add_argument("--window", type=int, default=DEFAULT_STABILIZATION_WINDOW)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--annihilation", type=int, default=3)
    v.add_argument("--flip-sigma", action="store_true",
                   help="run with the rejected tame-generator convention")
    v.add_argument("--quiet", action="store_true")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classgroup", help="narrow class group oracle")
    c.add_argument("-D", type=int, required=True)
    c.add_argument("-p", type=int, default=3)
    c.set_defaults(func=cmd_classgroup)

    pr = sub.add_parser("primes", help="auxiliary prime stream")
    pr.add_argument("-p", type=int, default=3)
    pr.add_argument("-D", type=int, default=257)
    pr.add_argument("-N", type=int, default=1)
    pr.add_argument("--extra", type=int, default=1)
    pr.add_argument("--count", type=int, default=10)
    pr.add_argument("--budget", type=int, default=DEFAULT_PRIME_SEARCH_BUDGET)
    pr.set_defaults(func=cmd_primes)

    k = sub.add_parser("kappa", help="evaluate one derivative class")
    k.add_argument("-p", type=int, default=3)
    k.add_argument("-D", type=int, default=257)
    k.add_argument("-N", type=int, default=1)
    k.add_argument("-q", type=int, required=True)
    k.add_argument("--chain", type=int, nargs="*", default=[])
    k.add_argument("--kind", choices=["d", "a"], default="d")
    k.add_argument("--param", type=int, default=None)
    k.set_defaults(func=cmd_kappa)

    idl = sub.add_parser("ideal", help="sample one cyclotomic ideal")
    idl.add_argument("-p", type=int, default=3)
    idl.add_argument("-D", type=int, default=257)
    idl.add_argument("-N", type=int, default=3)
    idl.add_argument("-i", type=int, default=0)
    idl.add_argument("--budget", type=int, default=DEFAULT_SAMPLE_BUDGET)
    idl.add_argument("--window", type=int, default=DEFAULT_STABILIZATION_WINDOW)
    idl.add_argument("--seed", type=int, default=0)
    idl.set_defaults(func=cmd_ideal)

    f = sub.add_parser("fitting", help="Fitting ideals of a finite p-module")
    f.add_argument("-p", type=int, default=3)
    f.add_argument("-N", type=int, default=5)
    f.add_argument("--i-max", type=int, default=3)
    f.add_argument("divisors", type=int, nargs="*")
    f.set_defaults(func=cmd_fitting)

    fo = sub.add_parser("formal", help="formal combined-element identities")
    fo.add_argument("--eps-max", type=int, default=_FORMAL_EPS_MAX)
    fo.set_defaults(func=cmd_formal)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CycfitError as exc:
        log(f"error: {type(exc).__name__}: {exc}")
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
