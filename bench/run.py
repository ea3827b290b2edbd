#!/usr/bin/env python3
"""cycfit benchmark: corpus scans and cold CLI verification.

Run from the root of a checkout:

    python3 bench/run.py --workload scan-trivial --seed 0 --seconds 25 --trace 0

One client drives a closed loop of whole passes over the workload's fields
until ``--seconds`` have elapsed; ``verify-cli`` runs one child process at a
time.  Every operation is checked (status, verdicts, exit code, the oracle's
p-part) and its canonical JSON report is hashed against ``golden.json``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  End-to-end times are scaled to a
reference host speed (see hostspeed.py).  A traced run follows each
untraced pass with a replay that records spans (see spans.py) and writes
them to ``bench/out/``.  Workloads, metrics and known defects are described
in NOTES.md.

Exit status: 0 after a completed run, 3 if any BUG verdict appeared,
2 if the checkout holds no cycfit sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

P = 3
# Criterion-2 settings of the acceptance suite.
SCAN_SETTINGS = dict(i_max=2, budget=500, window=50, anni_count=0)
# Corpus fields (fundamental D < 2000, D = 2 mod 3) whose 3-part is Z/3.
NONTRIVIAL = (257, 473, 761, 785, 1016, 1229, 1304, 1373, 1436, 1772, 1901, 1937)
# Those that fit one run: a seed-0 pass over all twelve takes 120-150 s.
SCAN_NONTRIVIAL = tuple(D for D in NONTRIVIAL if D < 1000)
CLI_FIELDS = (5, 8, 257, 473, 1229, 1937)
# The acceptance suite's sampler seed and the CLI default.  Other sampler
# seeds change a field's cost up to tenfold and some fields stop at
# INCONCLUSIVE (see NOTES.md), so the benchmark seed only orders a pass.
SAMPLER_SEED = 0
SETUP_REPEATS = 15
# An operation is scaled by the calibration samples taken during it; an
# in-process one shorter than this many samples reaches back to the last
# ones of its pass, a shorter child uses all samples of its pass.
CAL_MIN_SAMPLES = 5
START_PROBES = 5
CLI_TIMEOUT_S = 90
WORKLOADS = ("scan-trivial", "scan-nontrivial", "verify-cli")


@dataclass
class Workload:
    name: str
    fields: tuple[int, ...]
    divisors: tuple[int, ...] | None  # expected 3-part of every field
    golden: dict

    @property
    def is_cli(self) -> bool:
        return self.name == "verify-cli"

    def plan(self, seed: int, pass_no: int) -> list[int]:
        """The fields of one pass, in a seed-dependent order."""
        fields = list(self.fields)
        random.Random(f"{self.name}/{seed}/{pass_no}").shuffle(fields)
        return fields


@dataclass
class Op:
    D: int
    seconds: float  # wall time, calibration excluded
    ok: bool
    bug: bool
    changed: bool = False  # report digest differs from the recorded one
    scale: float = 1.0  # host-speed factor

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def golden_key(workload: Workload, D: int) -> str:
    return f"{'cli' if workload.is_cli else 'scan'} {D}"


def setup(name: str, fields: tuple[int, ...] | None = None,
          golden_path: Path = GOLDEN) -> Workload:
    """Import the package from the checkout and load inputs and digests."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cycfit.cli  # noqa: F401  (the import is part of set-up)
    from cycfit.classgroup import fundamental_discriminants

    if name == "scan-trivial":
        default = tuple(D for D in fundamental_discriminants(2000)
                        if D % P == 2 and D not in NONTRIVIAL)
        divisors = ()
    elif name == "scan-nontrivial":
        default, divisors = SCAN_NONTRIVIAL, (1,)
    else:
        default, divisors = CLI_FIELDS, None
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    return Workload(name, fields or default, divisors, golden)


def timed_setup(name: str, fields, golden_path: Path) -> tuple[Workload, float]:
    """Set up SETUP_REPEATS times, each from a fresh import of the package;
    returns the last workload and the median set-up time at reference speed."""
    times = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            for key in [k for k in sys.modules if k == "cycfit" or k.startswith("cycfit.")]:
                del sys.modules[key]
            gc.collect()  # free the previous import before measuring memory and time
            spent = speed.spent_s
            t0 = time.perf_counter()
            wl = setup(name, fields, golden_path)
            times.append(time.perf_counter() - t0 - (speed.spent_s - spent))
        samples = speed.samples or [hostspeed.calibrate()]
    return wl, statistics.median(times) * hostspeed.scale(samples)


def canonical_report(report: dict) -> str:
    """The exact line ``cycfit verify`` prints for this report."""
    cli = sys.modules["cycfit.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit(report)
    return buf.getvalue().rstrip("\n")


def digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()


def _judge(wl: Workload, report: dict) -> tuple[bool, bool]:
    verdicts = list(report.get("verdicts", {}).values())
    bug = report.get("status") == "BUG" or "BUG" in verdicts
    ok = (report.get("status") == "OK" and bool(verdicts)
          and all(v == "MATCH" for v in verdicts))
    if wl.divisors is not None:
        ok = ok and tuple(report["oracle"]["p_part_divisors"]) == wl.divisors
    return ok, bug


def scan_op(wl: Workload, D: int, speed: HostSpeed | None = None) -> tuple[Op, str | None]:
    """One in-process field verification; calibration ticks are not timed."""
    cli = sys.modules["cycfit.cli"]
    spent = speed.spent_s if speed else 0.0
    t0 = time.perf_counter()
    try:
        report = cli.run_verify(P, D, seed=SAMPLER_SEED, quiet=True, **SCAN_SETTINGS)
    except Exception as exc:  # one failed field must not end the scan
        report = None
        print(f"[bench] D={D} raised {type(exc).__name__}: {exc}\n"
              + traceback.format_exc(limit=-1), file=sys.stderr)
    dt = time.perf_counter() - t0 - ((speed.spent_s if speed else 0.0) - spent)
    if report is None:
        return Op(D, dt, False, False), None
    ok, bug = _judge(wl, report)
    return Op(D, dt, ok, bug), canonical_report(report)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_op(wl: Workload, D: int, tracer=None) -> tuple[Op, str | None, list[float]]:
    """One fresh ``cycfit verify`` process at CLI defaults, run through
    launcher.py: it records spans into `tracer` or, untraced, returns the
    child's own calibration samples."""
    child = OUT / f"child-{os.getpid()}.json"
    mode = "--trace-out" if tracer is not None else "--calibrate-out"
    cmd = [sys.executable, str(BENCH / "launcher.py"), mode, str(child),
           "verify", "-p", str(P), "-D", str(D), "--quiet"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[bench] D={D} timed out after {CLI_TIMEOUT_S} s", file=sys.stderr)
        child.unlink(missing_ok=True)
        return Op(D, time.perf_counter() - t0, False, False), None, []
    dt = time.perf_counter() - t0
    data = json.loads(child.read_text()) if child.is_file() else None
    child.unlink(missing_ok=True)
    samples = []
    if data and tracer is not None:
        tracer.merge(data)
    elif data:
        dt -= data["spent_s"]
        samples = data["samples"]
    line = proc.stdout.strip()
    try:
        report = json.loads(line)
    except json.JSONDecodeError:
        report = {}
    ok, bug = _judge(wl, report)
    ok = ok and proc.returncode == 0
    bug = bug or proc.returncode == 3
    if proc.returncode != 0:
        print(f"[bench] D={D} exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
    return Op(D, dt, ok, bug), line or None, samples


def clear_caches() -> None:
    """Empty every functools cache in the package: each pass is a fresh scan."""
    for key, mod in list(sys.modules.items()):
        if key == "cycfit" or key.startswith("cycfit."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def run_pass(wl: Workload, seed: int, pass_no: int, tracer=None,
             speed: HostSpeed | None = None) -> list[Op]:
    """One pass over the workload's fields.  Traced when `tracer` is given;
    otherwise times are scaled to the reference host, with samples from
    `speed` (scans) or from each child (verify-cli)."""
    ops: list[Op] = []
    unscaled: list[Op] = []
    pass_samples: list[float] = []
    if not wl.is_cli:
        clear_caches()
    first = len(speed.samples) if speed else 0
    for D in wl.plan(seed, pass_no):
        if wl.is_cli:
            op, line, samples = cli_op(wl, D, tracer)
            pass_samples += samples
        else:
            start = len(speed.samples) if speed else 0
            op, line = scan_op(wl, D, speed)
            if speed:
                pass_samples = speed.samples[first:]
                samples = speed.samples[max(first, min(start, len(speed.samples) - CAL_MIN_SAMPLES)):]
            else:
                samples = []
        expected = wl.golden.get(golden_key(wl, D))
        op.changed = bool(line and expected and digest(line) != expected)
        if len(samples) >= CAL_MIN_SAMPLES:
            op.scale = hostspeed.scale(samples)
        else:
            unscaled.append(op)
        ops.append(op)
    if tracer is None:
        factor = hostspeed.scale(pass_samples or [hostspeed.calibrate()])
        for op in unscaled:
            op.scale = factor
    return ops


def run_loop(wl: Workload, seed: int, seconds: float, tracer=None):
    """Whole passes until `seconds` have elapsed.  With a tracer, each pass
    is followed by its traced replay, so drift in host speed hits both."""
    ops: list[Op] = []
    traced: list[Op] = []
    start = time.perf_counter()
    passes = 0
    with contextlib.ExitStack() as stack:
        speed = None if tracer or wl.is_cli else stack.enter_context(HostSpeed())
        while passes == 0 or time.perf_counter() - start < seconds:
            ops += run_pass(wl, seed, passes, speed=speed)
            if tracer is not None:
                if not wl.is_cli:
                    tracer.install()
                traced += run_pass(wl, seed, passes, tracer)
                tracer.uninstall()
            passes += 1
    return ops, traced, passes


def timed_children(cmd: list[str], count: int) -> float:
    """Median wall time of `count` fresh processes running `cmd`.  Output is
    captured: with a timeout and no pipes to wait on, subprocess polls for
    the exit on a 50 ms grid."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=cli_env(), check=True, timeout=60,
                       capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl: Workload, ops: list[Op], setup_s: float) -> dict:
    """Percentiles are over fields, each at its median time over the run's
    passes: n = 218, 4 and 6 fields."""
    per_field: dict[int, list[float]] = {}
    for op in ops:
        per_field.setdefault(op.D, []).append(op.ref_seconds)
    times = sorted(statistics.median(v) for v in per_field.values())
    if wl.is_cli:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "fields_per_s": (len(ops) / sum(op.ref_seconds for op in ops), "1/s"),
        "verify_p50_s": (statistics.median(times), "s"),
        "verify_p95_s": (statistics.quantiles(times, n=20, method="inclusive")[18]
                         if len(times) > 1 else times[0], "s"),
        "verify_max_s": (times[-1], "s"),
        "ok_frac": (sum(op.ok for op in ops) / len(ops), "frac"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer, ops: list[Op], passes: int, overhead_s: float, start_s: float) -> dict:
    """Layer times and counts per traced pass (each field once), so they
    repeat whatever number of passes fits the run."""
    from spans import LAYERS

    t, c = tracer, tracer.counters
    per_pass = {
        "units.ctx_setup_s": (t.inclusive_s("units.EvalContext.__init__",
                                            "units.EvalContext.norm_set_d"), "s"),
        "units.norm_set_self_s": (t.self_s("units.EvalContext.norm_set_d"), "s"),
        "units.term_loop_self_s": (t.self_s("units.EvalContext.factor_value"), "s"),
        "units.symbol_value_calls": (t.calls("units.EvalContext.symbol_value"), "count"),
        "units.symbol_value_s": (t.inclusive_s("units.EvalContext.symbol_value"), "s"),
        "units.terms": (c["units.terms"], "count"),
        "units.kappa_calls": (t.calls("units.evaluate_kappa"), "count"),
        "units.kappa_s": (t.inclusive_s("units.evaluate_kappa"), "s"),
        "units.multi_indices": (c["units.multi_indices"], "count"),
        "units.dlog_calls": (t.calls("units.EvalContext.dlog"), "count"),
        "units.dlog_s": (t.inclusive_s("units.EvalContext.dlog"), "s"),
        "ideals.samples": (c["ideals.samples"], "count"),
        "ideals.pruned_chains": (c["ideals.pruned_chains"], "count"),
        "classgroup.narrow_class_group_s": (t.inclusive_s("classgroup.narrow_class_group"), "s"),
        "classgroup.class_of_prime_calls": (t.calls("classgroup.ideal_class_of_prime"), "count"),
        "fields.prime_search_s": (t.inclusive_s("fields.kolyvagin_primes",
                                                "fields.evaluation_primes"), "s"),
        "fields.aux_primes_yielded": (c["fields.aux_primes_yielded"], "count"),
        "arith.make_field_misses": (c["arith.make_field_misses"], "count"),
        "arith.make_field_ext_s": (c["arith.make_field_ext_ns"] / 1e9, "s"),
        "groupring.howell_s": (t.inclusive_s("groupring.ideal_normal_form",
                                             "groupring.ideal_join"), "s"),
        "groupring.chi_project_s": (t.inclusive_s("groupring.chi_project"), "s"),
        "maps.annihilation_s": (t.inclusive_s("maps.annihilation_suite"), "s"),
        "combined.formal_s": (t.inclusive_s("combined.check_combined_identities"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        per_pass[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
    metrics = {k: (v / passes, unit) for k, (v, unit) in per_pass.items()}
    samples = c["ideals.samples"]
    metrics.update({
        "ideals.useful_frac": (c["ideals.useful"] / samples if samples else 0.0, "frac"),
        "cli.process_start_s": (start_s, "s"),
        "cli.reports_changed": (sum(op.changed for op in ops), "count"),
        "fail_frac": (sum(not op.ok for op in ops) / len(ops), "frac"),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fields", type=lambda s: tuple(int(x) for x in s.split(",")),
                    default=None, help="override the workload's fields (smoke test)")
    ap.add_argument("--golden", type=Path, default=GOLDEN,
                    help="report digests to compare against (smoke test)")
    args = ap.parse_args(argv)

    if not (SRC / "cycfit" / "__init__.py").is_file():
        print(f"[bench] no cycfit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        from spans import Tracer

        wl = setup(args.workload, args.fields, args.golden)
        start_s = timed_children([sys.executable, "-m", "cycfit.cli", "--version"], START_PROBES)
        tracer = Tracer()
        ops, traced, passes = run_loop(wl, args.seed, args.seconds, tracer)
        overhead_s = sum(op.seconds for op in traced) - sum(op.seconds for op in ops)
        ops += traced
        metrics = per_layer(tracer, ops, passes, overhead_s, start_s)
        out = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(out)
        top = ", ".join(f"{n} {s:.3f}s" for n, s in tracer.top_self())
        print(f"[bench] largest self times: {top}; spans in {out.relative_to(ROOT)}",
              file=sys.stderr)
    else:
        wl, setup_s = timed_setup(args.workload, args.fields, args.golden)
        ops, _, passes = run_loop(wl, args.seed, args.seconds)
        metrics = end_to_end(wl, ops, setup_s)

    failed = sum(not op.ok for op in ops)
    bugs = sum(op.bug for op in ops)
    changed = sum(op.changed for op in ops)
    checked = sum(golden_key(wl, op.D) in wl.golden for op in ops)
    print(f"[bench] {args.workload} seed {args.seed}: {len(ops)} operations in {passes} "
          f"passes, failed {failed} (fail_frac {failed / len(ops):.4f}), BUG {bugs}, "
          f"reports changed {changed} of {checked} recorded, host-speed scale "
          f"{statistics.median(op.scale for op in ops):.3f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"[bench]   {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 3 if bugs else 0


if __name__ == "__main__":
    sys.exit(main())
