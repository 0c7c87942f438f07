"""Record one benchmark run as a ``BENCH_<label>.json`` file.

    python3 scripts/record_bench.py BENCH_after.json
    python3 scripts/record_bench.py BENCH_before.json --checkout ../parent-copy

Runs ``perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0`` in
the checkout (by default the one this script sits in) and writes the run's
last output line, the JSON result, together with the checkout's commit
(``git describe --always --dirty``, so a ``-dirty`` suffix marks
uncommitted changes on top of it), ``nproc``, the platform and the Python
version. The run's own output passes through; the exit code is the run's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

RUN_ARGS = ["--workload", "all", "--seed", "1", "--seconds", "30", "--trace", "0"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", type=Path, help="file to write, e.g. BENCH_after.json")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *RUN_ARGS],
        cwd=args.checkout, capture_output=True, text=True, check=False,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=args.checkout, capture_output=True, text=True, check=False,
    ).stdout.strip()
    record = {
        "command": "python3 perfbench/run.py " + " ".join(RUN_ARGS),
        "commit": commit or None,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "result": json.loads(lines[-1]),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
