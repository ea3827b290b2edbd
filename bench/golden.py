#!/usr/bin/env python3
"""Record the SHA-256 of every canonical report the workloads produce.

    python3 bench/golden.py          # rewrite bench/golden.json (about 30 s)

Covers every field of every workload, at the benchmark's sampler seed.
Refuses to record if any operation fails, so the file only ever
holds digests of all-MATCH reports.  The digests pin the reports of the
commit that recorded them; run.py counts later differences as
``cli.reports_changed``.
"""

import json
import sys

import run


def main() -> int:
    digests = {}
    failed = []
    for name in run.WORKLOADS:
        wl = run.setup(name)
        run.clear_caches()
        for D in wl.fields:
            op, line = run.cli_op(wl, D)[:2] if wl.is_cli else run.scan_op(wl, D)
            if not op.ok:
                failed.append((name, D))
            elif line is not None:
                digests[run.golden_key(wl, D)] = run.digest(line)
        print(f"[golden] {name}: {len(digests)} digests so far", file=sys.stderr)
    if failed:
        print(f"[golden] not written, failed operations: {failed}", file=sys.stderr)
        return 1
    run.GOLDEN.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"[golden] wrote {len(digests)} digests to {run.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
