"""Scores pipeline artifacts against the generator's ground truth.

Reads only the artifacts' JSON rows, so it does not depend on the code
under test.
"""

from __future__ import annotations

import json
from pathlib import Path

from corpus import CLEANED_OUT, CORRECTED


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def score(truth: list[dict], final_rows: list[dict], removed_rows: list[dict]) -> dict:
    """Compare final statuses, labels and texts with the ground truth.

    - ``failed``: records whose final status differs from the intended one
      (a record missing from both outputs counts as failed);
    - ``label_agreement``: injected perturbations with a correction at the
      same original word span carrying the injected class, over all
      perturbations injected into records meant to be corrected;
    - ``final_exact_share``: records meant to be corrected whose
      ``text_final`` equals the expected text, over those records.
    """
    status = {row["id"]: CLEANED_OUT for row in removed_rows}
    status.update({row["id"]: row["status"] for row in final_rows})
    by_id = {row["id"]: row for row in final_rows}

    failed = sum(1 for t in truth if status.get(t["id"]) != t["status"])
    injected = agreed = corrected = exact = 0
    for t in truth:
        if t["status"] != CORRECTED:
            continue
        corrected += 1
        row = by_id.get(t["id"], {})
        labels = {
            (tuple(c["position"]), c["label"]) for c in row.get("corrections", [])
        }
        for p in t["perturbations"]:
            injected += 1
            agreed += (tuple(p["span"]), p["class"]) in labels
        exact += row.get("text_final") == t["final"]
    return {
        "attempted": len(truth),
        "failed": failed,
        "failed_share": failed / len(truth) if truth else 0.0,
        "perturbations": injected,
        "label_agreement": agreed / injected if injected else 1.0,
        "corrected_records": corrected,
        "final_exact_share": exact / corrected if corrected else 1.0,
    }


def score_dir(truth_path: Path, out_dir: Path) -> dict:
    return score(
        read_jsonl(truth_path),
        read_jsonl(out_dir / "final.jsonl"),
        read_jsonl(out_dir / "removed.jsonl"),
    )
