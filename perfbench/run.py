"""Benchmark of the histocr pipeline: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload newsprint --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For each workload it generates a seeded corpus with known ground truth under
``.perfbench_work/<workload>/``, then measures histocr in fresh processes
(``worker.py``): set-up time, repeated ``run_pipeline`` runs (``--trace 0``)
or traced passes (``--trace 1``). It checks the artifacts against the ground
truth and against each other, prints every metric by name with its unit, and
prints one JSON result as the last line. It exits with 1 when a correctness
check fails and with 2 when the checkout holds no histocr sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import corpus
import score

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
# limit per worker process, so a run ends within 180 seconds even if
# histocr hangs
TIMEOUT_S = 170

UNITS = {
    "pipeline_s": "s",
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "label_agreement": "share",
    "final_exact_share": "share",
    "failed_share": "share",
    "pipeline_wall_s": "s",
    "reference_s": "s",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def worker(mode: str, work: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, str(work), workload, str(seconds)],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        cwd=ROOT,
        # one fixed string-hash layout: on long texts the hash seed alone
        # moves the whole-text ratio's time by about a tenth between
        # processes (README.md); the set-up probes inherit it
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = corpus.WORKLOADS.get(name) or corpus.ROADMAP_BASELINE
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    paths = corpus.write_corpus(workload, seed, work)
    notes: dict[str, float] = {}
    if trace:
        result = worker("trace", work, name, seconds)
        metrics = result["per_layer"]
    else:
        result = worker("run", work, name, seconds)
        pipeline_s = statistics.median(result["pipeline_s"])
        metrics = {
            "pipeline_s": pipeline_s,
            "records_per_s": result["records_in"] / pipeline_s,
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "pipeline_wall_s": statistics.median(result["pipeline_wall_s"]),
            "reference_s": result["reference_s"],
            "pipeline_runs": len(result["pipeline_s"]),
        }
    truth = score.score_dir(paths["truth"], Path(result["out"]))
    if not trace:
        metrics["label_agreement"] = truth["label_agreement"]
        metrics["final_exact_share"] = truth["final_exact_share"]
    problems = list(result["problems"])
    if truth["failed"]:
        problems.append(f"{truth['failed']} records ended with another status than intended")
    return {
        "workload": name,
        "correct": not problems,
        "attempted": truth["attempted"],
        "failed": truth["failed"],
        "failed_share": truth["failed_share"],
        "problems": problems,
        "metrics": metrics,
        "notes": notes,
    }


def print_human(res: dict) -> None:
    print(f"# workload {res['workload']}: {res['attempted']} records, correct={res['correct']}")
    for problem in res["problems"]:
        print(f"#   check failed: {problem}")
    rows = {**res["metrics"], "failed_share": res["failed_share"], **res["notes"]}
    for key, value in rows.items():
        print(f"{res['workload']:14s} {key:40s} {value:>16.6g} {unit(key)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="a workload name, roadmap_baseline, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "histocr" / "__init__.py").is_file():
        print(f"no histocr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in corpus.WORKLOADS and name != corpus.ROADMAP_BASELINE.name:
            parser.error(f"unknown workload {name!r}")

    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_human(res)
        results.append(res)
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (key if len(results) == 1 else f"{r['workload']}.{key}"): {"value": value, "unit": unit(key)}
            for r in results
            for key, value in r["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
