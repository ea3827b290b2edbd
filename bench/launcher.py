#!/usr/bin/env python3
"""One ``cycfit`` command in a fresh process, as the console script runs it.

    python3 bench/launcher.py --calibrate-out PATH verify -p 3 -D 257 --quiet
    python3 bench/launcher.py --trace-out PATH verify -p 3 -D 257 --quiet

Imports the package and calls ``cycfit.cli.main(argv)``; the report still
goes to stdout and the exit code is main's.  With ``--calibrate-out`` the
host-speed timer of hostspeed.py runs throughout and its samples and time
are written to PATH as JSON; with ``--trace-out`` the span wrappers of
spans.py are installed and the span dump is written to PATH.  PATH is
written even when the command fails.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MODES = ("--calibrate-out", "--trace-out")


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] not in MODES:
        print(f"usage: launcher.py {{{'|'.join(MODES)}}} PATH ARGS...", file=sys.stderr)
        return 2
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    if mode == "--calibrate-out":
        from hostspeed import HostSpeed

        with HostSpeed() as speed:
            try:
                import cycfit.cli

                return cycfit.cli.main(argv)
            finally:
                out.write_text(json.dumps({"samples": speed.samples, "spent_s": speed.spent_s}))
    import cycfit.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cycfit.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
