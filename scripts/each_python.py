"""Tier-1, the demos and a mock run on the four seed-1 corpora, under each interpreter of the CI matrix.

    python3 scripts/each_python.py

Finds the newest pyenv interpreter of each Python version the CI matrix
names (3.10 to 3.13) under ``$PYENV_ROOT/versions`` (default
``~/.pyenv/versions``). The other interpreters need no test packages of their
own: the script links the running interpreter's pure-Python test packages
(pytest, hypothesis and what they import) into a scratch directory and puts
it on ``PYTHONPATH`` after ``src``. It writes the four seed-1 corpora of
``perfbench/corpus.py`` in a child process, as ``scripts/peak_rss_scale.py``
does. Per interpreter it runs:
- Tier-1, ``python -m pytest -q -p no:cacheprovider --continue-on-collection-errors``;
- the three demos;
- ``histocr run`` with the mock backend and one attempt per record on each corpus.

It prints one line per interpreter: the test counts and failing test ids,
the demos that failed, and whether every artifact's sha256 equals the one
under 3.11. An interpreter that cannot import pytest is reported as not
running Tier-1, with the missing module named (3.10 needs the
``exceptiongroup`` backport, which 3.11 and later do not). It exits 1 if an
artifact differs from 3.11's, or a demo or a mock run fails; test failures
are only reported.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MATRIX = ("3.10", "3.11", "3.12", "3.13")
REFERENCE = "3.11"
# pytest, hypothesis and the pure-Python packages they import
TEST_PACKAGES = (
    "pytest", "_pytest", "pluggy", "iniconfig", "packaging", "pygments", "hypothesis", "_hypothesis_globals",
    "_hypothesis_pytestplugin", "attr", "attrs", "sortedcontainers", "py", "typing_extensions",
)
WORKLOADS = ("newsprint", "long_records", "garbled_runs", "slow_backend")
TIER1 = ("-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors")

# argv: perfbench directory, output directory, workload names...
GENERATE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import corpus
for name in sys.argv[3:]:
    corpus.write_corpus(corpus.WORKLOADS[name], 1, Path(sys.argv[2]) / name)
"""


def find_interpreters(versions: Path) -> dict[str, Path]:
    """The newest ``X.Y.Z`` interpreter of each minor version in :data:`MATRIX`, keyed by its full version."""
    newest: dict[str, tuple[int, ...]] = {}
    for entry in versions.iterdir() if versions.is_dir() else ():
        parts = entry.name.split(".")
        minor = ".".join(parts[:2])
        if len(parts) == 3 and all(p.isdigit() for p in parts) and minor in MATRIX and (entry / "bin/python").exists():
            newest[minor] = max(newest.get(minor, ()), tuple(map(int, parts)))
    ordered = sorted(newest.values())
    return {".".join(map(str, v)): versions / ".".join(map(str, v)) / "bin/python" for v in ordered}


def link_test_packages(directory: Path) -> list[str]:
    """Symlinks in ``directory`` to the running interpreter's test packages; returns those it lacks."""
    lacking = []
    for name in TEST_PACKAGES:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            lacking.append(name)
            continue
        origin = Path(spec.origin)
        target = origin.parent if origin.name == "__init__.py" else origin
        (directory / target.name).symlink_to(target)
    return lacking


def parse_pytest(output: str) -> dict:
    """The counts of the summary line of ``pytest -q -rfE`` output, and the ids it reports failed or in error."""
    summaries = [line for line in output.splitlines() if re.search(r"\d+ (passed|failed|errors?)\b.* in ", line)]
    counts = {"passed": 0, "failed": 0, "errors": 0}
    for number, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summaries[-1] if summaries else ""):
        counts["errors" if word.startswith("error") else word] += int(number)
    failing = [line.split()[1] for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return {**counts, "failing": failing}


def missing_module(stderr: str) -> str | None:
    found = re.search(r"No module named '([^']+)'", stderr)
    return found.group(1) if found else None


def differing(hashes: dict[str, str], reference: dict[str, str]) -> list[str]:
    """The artifacts whose sha256 is not the reference's."""
    return sorted(name for name in reference if hashes.get(name) != reference[name])


def render(version: str, result: dict, reference: dict[str, str] | None) -> str:
    """One interpreter's line."""
    tier1 = result["tier1"]
    if "missing" in tier1:
        tests = f"Tier-1 not run: pytest needs the module {tier1['missing']!r}, which this interpreter lacks"
    else:
        tests = f"Tier-1 {tier1['passed']} passed, {tier1['failed']} failed, {tier1['errors']} errors"
        tests += f" ({', '.join(tier1['failing'])})" if tier1["failing"] else ""
    demos = f"demos failed: {', '.join(result['demos_failed'])}" if result["demos_failed"] else "demos ok"
    if result["runs_failed"]:
        artifacts = f"mock run failed: {', '.join(result['runs_failed'])}"
    elif reference is None:
        artifacts = f"no {REFERENCE} run to compare artifacts with"
    else:
        differ = differing(result["hashes"], reference)
        artifacts = (f"artifacts differ from {REFERENCE}'s: {', '.join(differ)}" if differ
                     else f"all {len(reference)} artifacts equal {REFERENCE}'s")
    return f"{version}: {tests}; {demos}; {artifacts}"


def run_interpreter(python: Path, env: dict[str, str], corpora: Path, out: Path) -> dict:
    """Tier-1, the demos and the mock runs under ``python``."""
    def run(*argv: object) -> subprocess.CompletedProcess:
        return subprocess.run([str(python), *map(str, argv)], cwd=ROOT, env=env, capture_output=True, text=True)

    probe = run("-c", "import pytest")
    if probe.returncode != 0:
        tier1 = {"missing": missing_module(probe.stderr) or probe.stderr.strip().splitlines()[-1]}
    else:
        tier1 = parse_pytest(run(*TIER1).stdout)
    demos_failed = [demo.name for demo in sorted((ROOT / "demos").glob("*.py")) if run(demo).returncode != 0]
    hashes, runs_failed = {}, []
    for name in WORKLOADS:
        work = corpora / name
        backend = ("--backend", "mock", "--fixtures", work / "fixtures.jsonl", "--retry-attempts", "1")
        if run("-m", "histocr.cli", "run", "--input", work / "corpus.jsonl", "--output", out / name, *backend).returncode:
            runs_failed.append(name)
            continue
        for artifact in sorted((out / name).iterdir()):
            hashes[f"{name}/{artifact.name}"] = hashlib.sha256(artifact.read_bytes()).hexdigest()
    return {"tier1": tier1, "demos_failed": demos_failed, "hashes": hashes, "runs_failed": runs_failed}


def main() -> int:
    interpreters = find_interpreters(Path(os.environ.get("PYENV_ROOT", "~/.pyenv")).expanduser() / "versions")
    with tempfile.TemporaryDirectory(prefix="each_python_") as scratch:
        scratch = Path(scratch)
        links, corpora = scratch / "packages", scratch / "corpora"
        links.mkdir()
        lacking = link_test_packages(links)
        if lacking:
            print(f"# the running interpreter lacks: {', '.join(lacking)}", file=sys.stderr)
        subprocess.run([sys.executable, "-c", GENERATE, ROOT / "perfbench", corpora, *WORKLOADS], check=True)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(links)])}
        results = {}
        # the reference first, then the rest in version order
        for version in sorted(interpreters, key=lambda v: not v.startswith(REFERENCE + ".")):
            print(f"# running {version}", file=sys.stderr)
            results[version] = run_interpreter(interpreters[version], env, corpora, scratch / version)
    reference = next((r["hashes"] for v, r in results.items() if v.startswith(REFERENCE + ".")), None)
    for version in interpreters:
        print(render(version, results[version], reference))
    found = {".".join(v.split(".")[:2]) for v in interpreters}
    for minor in MATRIX:
        if minor not in found:
            print(f"{minor}: no pyenv interpreter found")
    bad = [r for r in results.values() if r["demos_failed"] or r["runs_failed"]]
    return 1 if bad or any(differing(r["hashes"], reference or {}) for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
