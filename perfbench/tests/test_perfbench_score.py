"""Scoring of artifacts against the ground truth."""

from __future__ import annotations

import pytest

from corpus import CLEANED_OUT, CORRECTED, INSERTION, LLM_FAILURE, OCR, REFUSED, SURFACE
from score import score


def _truth(rid, status, final=None, perturbations=()):
    return {
        "id": rid,
        "status": status,
        "final": final,
        "perturbations": [{"class": c, "span": list(s)} for c, s in perturbations],
    }


def _final(rid, status, text_final=None, corrections=()):
    return {
        "id": rid,
        "status": status,
        "text_final": text_final,
        "corrections": [{"position": list(p), "label": label} for p, label in corrections],
    }


TRUTH = [
    _truth("a", CORRECTED, "uno dos", [(OCR, (0, 1)), (SURFACE, (3, 4)), (INSERTION, (5, 5))]),
    _truth("b", CORRECTED, "tres", [(OCR, (2, 4))]),
    _truth("c", REFUSED),
    _truth("d", CLEANED_OUT),
    _truth("e", LLM_FAILURE),
]


def test_all_as_intended():
    final = [
        _final("a", CORRECTED, "uno dos", [((0, 1), OCR), ((3, 4), SURFACE), ((5, 5), INSERTION)]),
        _final("b", CORRECTED, "tres", [((2, 4), OCR)]),
        _final("c", REFUSED),
        _final("e", LLM_FAILURE),
    ]
    result = score(TRUTH, final, [{"id": "d"}])
    assert result["failed"] == 0
    assert result["attempted"] == 5
    assert result["label_agreement"] == 1.0
    assert result["final_exact_share"] == 1.0
    assert result["perturbations"] == 4
    assert result["corrected_records"] == 2


def test_wrong_status_missing_record_and_labels():
    final = [
        # right span, wrong label; a second correction at another span
        _final("a", CORRECTED, "uno dos", [((0, 1), SURFACE), ((3, 4), SURFACE), ((6, 6), INSERTION)]),
        # refused although meant to be corrected
        _final("b", REFUSED),
        _final("c", REFUSED),
        # e is missing from both outputs
    ]
    result = score(TRUTH, final, [{"id": "d"}])
    assert result["failed"] == 2
    assert result["failed_share"] == pytest.approx(2 / 5)
    assert result["label_agreement"] == pytest.approx(1 / 4)
    assert result["final_exact_share"] == pytest.approx(1 / 2)


def test_cleaned_out_record_kept_counts_as_failed():
    final = [_final("d", CORRECTED, "x")]
    result = score([_truth("d", CLEANED_OUT)], final, [])
    assert result["failed"] == 1
