"""Compare this checkout with a parent checkout on the benchmark, in alternating pairs.

    python3 scripts/ab_bench.py --parent ../parent-copy --workload garbled_runs --pairs 10

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in the parent checkout and once in this one; the side that runs first
alternates from pair to pair. For each end-to-end metric that
``BENCHMARK.json`` declares, it prints the parent's and the change's medians
with their quartiles, the relative change of the medians, how many pairs the
change won (judged by the metric's ``better``; a tie wins nothing), and
whether the change is worse than the metric's ``bound``. It exits 1 if any
run is not ``correct: true`` with 0 failed, else 3 if any metric is worse
than its bound, else 0. It reads nothing of the program but ``perfbench/``
and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` result; a run that prints no result counts as not correct."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=checkout,
                          capture_output=True, text=True, check=False)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "failed": None, "metrics": {}}


def ok(run: dict) -> bool:
    return run.get("correct") is True and run.get("failed") == 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric the paired runs report, in the runs' key order.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``. A metric
    key is ``<name>`` for one workload or ``<workload>.<name>`` for several.
    """
    specs = {spec["name"]: spec for spec in end_to_end}
    rows = []
    for key in parent[0]["metrics"]:
        spec = specs.get(key.rsplit(".", 1)[-1])
        if spec is None or any(key not in run["metrics"] for run in parent + change):
            continue
        p = [run["metrics"][key]["value"] for run in parent]
        c = [run["metrics"][key]["value"] for run in change]
        lower = spec["better"] == "lower"
        pq, cq = quartiles(p), quartiles(c)
        relative = (cq[1] - pq[1]) / pq[1] if pq[1] else None
        rows.append({
            "metric": key,
            "parent": pq,
            "change": cq,
            "relative": relative,
            "won": sum((b < a) if lower else (b > a) for a, b in zip(p, c)),
            "pairs": len(p),
            "over_bound": relative is not None and (relative if lower else -relative) > spec["bound"],
        })
    return rows


def render(rows: list[dict]) -> str:
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"

    lines = [f"{'metric':36s} {'parent median [quartiles]':28s} {'change median [quartiles]':28s} "
             f"{'change':>8s}  won"]
    for row in rows:
        relative = "n/a" if row["relative"] is None else f"{100 * row['relative']:+.1f}%"
        flag = "  worse than its bound" if row["over_bound"] else ""
        lines.append(f"{row['metric']:36s} {cell(row['parent']):28s} {cell(row['change']):28s} "
                     f"{relative:>8s}  {row['won']}/{row['pairs']}{flag}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="a checkout of the parent commit")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            run = run_once(sides[side], args.workload, args.seconds, args.seed)
            runs[side].append(run)
            print(f"# pair {i + 1}/{args.pairs} {side}: correct={run.get('correct')} failed={run.get('failed')}",
                  file=sys.stderr)
    rows = summarize(runs["parent"], runs["change"], end_to_end)
    print(render(rows))
    bad = [side for side, side_runs in runs.items() for run in side_runs if not ok(run)]
    if bad:
        print(f"{len(bad)} run(s) not correct with 0 failed: {', '.join(sorted(set(bad)))}", file=sys.stderr)
        return 1
    worse = [row["metric"] for row in rows if row["over_bound"]]
    if worse:
        print(f"worse than its bound: {', '.join(worse)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
