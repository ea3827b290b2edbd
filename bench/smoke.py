#!/usr/bin/env python3
"""Smoke test of the benchmark itself on tiny configurations (about 1 min).

    python3 bench/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json lists,
with tracing off and on; that a tampered report digest shows in
``cli.reports_changed`` without failing the run; that an operation that
raises (D = 12, where p = 3 ramifies) is counted as failed; and that a
directory holding only the benchmark files makes run.py exit nonzero
without printing a result.  Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TINY = {"scan-trivial": "5,8", "scan-nontrivial": "257", "verify-cli": "5"}


def bench(*args: str, root: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check(ok: bool, what: str) -> None:
    print(f"[smoke] {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def tiny(workload: str, trace: int, fields: str | None = None, *extra: str):
    return bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", str(trace), "--fields", fields or TINY[workload], *extra)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    OUT.mkdir(exist_ok=True)

    for workload in TINY:
        for trace in (0, 1):
            code, res = tiny(workload, trace)
            check(code == 0 and res is not None and res["correct"]
                  and set(res["metrics"]) == names[trace]
                  and all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                  f"{workload} --trace {trace} emits every metric")

    golden = json.loads((BENCH / "golden.json").read_text())
    golden["scan 5"] = "0" * 64
    tampered = OUT / "tampered-golden.json"
    tampered.write_text(json.dumps(golden))
    code, res = tiny("scan-trivial", 1, "5", "--golden", str(tampered))
    check(code == 0 and res["correct"]
          and res["metrics"]["cli.reports_changed"]["value"] >= 1,
          "a tampered digest shows in cli.reports_changed")
    code, res = tiny("scan-trivial", 1, "5")
    check(res["metrics"]["cli.reports_changed"]["value"] == 0,
          "the recorded digests match")

    for workload, trace, metric in (("scan-trivial", 0, "ok_frac"),
                                    ("scan-trivial", 1, "fail_frac"),
                                    ("verify-cli", 0, "ok_frac")):
        code, res = tiny(workload, trace, "5,12")
        value = res["metrics"][metric]["value"]
        check(code == 0 and not res["correct"] and 0 < res["failed"] < res["attempted"]
              and 0 < value < 1,
              f"{workload} --trace {trace}: a raising operation counts in {metric}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res = bench("--workload", "scan-trivial", "--seed", "0", "--seconds", "1",
                      "--trace", "0", root=bare)
    shutil.rmtree(bare)
    check(code != 0 and res is None, "without sources: nonzero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
