"""Peak memory of one mock ``run_pipeline`` as the corpus grows, each size in a fresh process.

    python3 scripts/peak_rss_scale.py [--sizes 500 2000 8000] [--seed 1]

Writes ``newsprint``-shaped corpora with the generator of ``perfbench/corpus.py``
(the ``newsprint`` workload with only its record count changed), then runs
``run_pipeline`` once per size with the mock backend and ``newsprint``'s run
settings (one request thread, no backoff), each run in a fresh child
process. It prints, per size, the corpus file size, the child's peak RSS
before the run (after its imports) and after it, and the growth of the peak
from the smallest size. It sets no gate.

On Linux, ``ru_maxrss`` survives ``exec``: a child starts with the peak of the
process that started it. So the corpora are written by a child of their own,
and the script itself never holds one; each measuring child reads its own
baseline, which shows what it started with.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# argv: perfbench directory, output directory, seed, sizes...
GENERATE = """
import dataclasses, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import corpus
for size in sys.argv[4:]:
    workload = dataclasses.replace(corpus.WORKLOADS["newsprint"], records=int(size))
    corpus.write_corpus(workload, int(sys.argv[3]), Path(sys.argv[2]) / size)
"""

# argv: source directory, corpus directory; prints one JSON line
MEASURE = """
import json, resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from histocr.config import PipelineConfig
from histocr.pipeline import run_pipeline

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

baseline = peak_mb()
work = Path(sys.argv[2])
config = PipelineConfig(
    input=str(work / "corpus.jsonl"), output_dir=str(work / "out"), backend="mock",
    mock_fixtures=str(work / "fixtures.jsonl"), concurrency=1, backoff_base=0.0,
)
code = run_pipeline(config)
print(json.dumps({"exit": code, "baseline_mb": baseline, "peak_mb": peak_mb()}))
"""


def _python(code: str, *argv: object) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"child process failed:\n{proc.stderr}")
    return proc.stdout


def measure(sizes: list[int], seed: int, directory: Path) -> list[dict]:
    """One row per size, in the given order: records, corpus MB, baseline MB, peak MB, growth MB."""
    _python(GENERATE, ROOT / "perfbench", directory, seed, *sizes)
    rows = []
    for size in sizes:
        work = directory / str(size)
        result = json.loads(_python(MEASURE, ROOT / "src", work).splitlines()[-1])
        if result["exit"] != 0:
            raise SystemExit(f"run_pipeline exited with {result['exit']} at {size} records")
        rows.append({
            "records": size,
            "corpus_mb": (work / "corpus.jsonl").stat().st_size / 1e6,
            "baseline_mb": result["baseline_mb"],
            "peak_mb": result["peak_mb"],
        })
    smallest = min(rows, key=lambda row: row["records"])["peak_mb"]
    for row in rows:
        row["growth_mb"] = row["peak_mb"] - smallest
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'records':>8s} {'corpus MB':>10s} {'baseline MB':>12s} {'peak MB':>8s} {'growth MB':>10s}"]
    for row in rows:
        lines.append(f"{row['records']:8d} {row['corpus_mb']:10.2f} {row['baseline_mb']:12.1f} "
                     f"{row['peak_mb']:8.1f} {row['growth_mb']:10.1f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[500, 2000, 8000], help="records per corpus")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.sizes) < 1:
        parser.error("--sizes must be >= 1")
    with tempfile.TemporaryDirectory(prefix="peak_rss_scale.") as directory:
        print(render(measure(args.sizes, args.seed, Path(directory))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
