"""Acceptance suite: one test per criterion, each at its stated tolerance.

A conftest hook prints one PASS/FAIL line per criterion as the suite runs:
run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import random
import time

import pytest

from conftest import (
    GOLDEN_CORRECTED,
    GOLDEN_OCR_PAIRS,
    GOLDEN_ORIGINAL,
    GOLDEN_SURFACE_PAIRS,
    build_cleaning_fixture,
    write_pipeline_fixture,
)
from histocr.applier import apply_corrections
from histocr.classify import (
    HALLUCINATION,
    OCR_ERROR,
    SURFACE_FORM,
    ClassifierConfig,
    classify_hunks,
    classify_pair,
    default_rules,
)
from histocr.cleaning import clean_corpus
from histocr.config import PipelineConfig
from histocr.diffing import diff_words, reconstruct_words, similarity_ratio, tokenize_words
from histocr.pipeline import ARTIFACTS, run_pipeline
from histocr.records import CorpusRecord, ProcessedRecord
from histocr.reporting import build_report
from test_diffing import brute_force_ratio

RULES = default_rules()
CONFIG = ClassifierConfig()


def test_criterion_1_similarity_ratio_anchors():
    """The two published ratio anchors, at +/-0.005 and exact zero."""
    started = time.perf_counter()
    assert similarity_ratio("ascripeión", "suscripción") == pytest.approx(0.76, abs=0.005)
    assert similarity_ratio("que", "como") == 0.0
    assert time.perf_counter() - started < 0.1  # milliseconds


def test_criterion_2_golden_example_labels():
    """Diff + classify over the worked example: 100% word-level label agreement."""
    started = time.perf_counter()
    hunks = diff_words(tokenize_words(GOLDEN_ORIGINAL), tokenize_words(GOLDEN_CORRECTED))
    corrections = classify_hunks(hunks, RULES, CONFIG)
    labels = {(c.original, c.corrected): c.label for c in corrections}

    agree = 0
    expected = []
    for pair in sorted(GOLDEN_SURFACE_PAIRS):
        expected.append((pair, SURFACE_FORM))
    for pair in sorted(GOLDEN_OCR_PAIRS):
        expected.append((pair, OCR_ERROR))
    for pair, want in expected:
        assert pair in labels, f"expected correction {pair} was not produced"
        assert labels[pair] == want, f"{pair}: got {labels[pair]}, want {want}"
        agree += 1
    assert agree == len(GOLDEN_SURFACE_PAIRS) + len(GOLDEN_OCR_PAIRS)
    # nothing in the example is a hallucination
    assert all(c.label != HALLUCINATION for c in corrections)
    assert time.perf_counter() - started < 1.0


def test_criterion_3_rule_table_self_test():
    """All 27 table rows classify as surface forms with their rule id."""
    assert len(RULES.surface_rows) == 27
    for row in RULES.surface_rows:
        got = classify_pair(row.example[0], row.example[1], RULES, CONFIG)
        assert got.label == SURFACE_FORM, f"{row.rule_id}: {row.example} -> {got.label}"
        assert row.rule_id in got.rule.split("+"), f"{row.rule_id}: fired {got.rule}"
    # the two equal-length misread examples are OCR errors
    for original, corrected in (("In", "la"), ("sefor", "señor")):
        got = classify_pair(original, corrected, RULES, CONFIG)
        assert got.label == OCR_ERROR, f"({original},{corrected}) -> {got.label}"


def test_criterion_4_cleaning_fixture_counts():
    """100-record fixture with known composition; exact counts, boundary kept."""
    records, expected = build_cleaning_fixture()
    kept, _removed, report = clean_corpus(records)
    assert report["total_rows"] == expected["total_rows"]
    assert report["removed_duplicate_or_empty"] == expected["removed_duplicate_or_empty"]
    assert report["removed_non_alpha"] == expected["removed_non_alpha"]
    assert report["removed_short"] == expected["removed_short"]
    assert report["surviving"] == expected["surviving"]
    assert any(r.text == "1234 abc 567 de fg" for r in kept)  # exact-50% row kept


# --- criterion 5: randomized reconstruction property ---

_VOCAB = [
    "la", "sesion", "sesión", "harà", "hará", "cada", "semana,", "se", "mana",
    "mui", "muy", "jeneral", "general", "que", "como", "ménos", "menos",
    "cuarto", ";", "cuarto;", "dore", "dos", "1845", "El", "Oso", "à", "a",
    "ocasion.", "ocasión.", "punto", "torre", "iglesia", "de", "y", "del",
]


def _mutate(rng: random.Random, words: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(words):
        roll = rng.random()
        if roll < 0.55:
            out.append(words[i])
            i += 1
        elif roll < 0.70:  # replace
            out.append(rng.choice(_VOCAB))
            i += 1
        elif roll < 0.78:  # delete
            i += 1
        elif roll < 0.86:  # insert
            out.append(rng.choice(_VOCAB))
        elif roll < 0.93 and i + 1 < len(words):  # merge two words
            out.append(words[i] + words[i + 1])
            i += 2
        else:  # split a word in half
            word = words[i]
            if len(word) >= 2:
                cut = rng.randrange(1, len(word))
                out.extend([word[:cut], word[cut:]])
            else:
                out.append(word)
            i += 1
    return out or [rng.choice(_VOCAB)]


def _noisy_join(rng: random.Random, words: list[str]) -> str:
    """Join with occasional double spaces/tabs; word sequence is unchanged."""
    parts = [words[0]]
    for word in words[1:]:
        parts.append(rng.choice([" ", " ", " ", "  ", " \t"]))
        parts.append(word)
    return "".join(parts)


def test_criterion_5_reconstruction_property():
    """1,000 randomized pairs: full reconstruction and byte conservation."""
    rng = random.Random(20260810)
    for case in range(1000):
        original_words = [rng.choice(_VOCAB) for _ in range(rng.randint(1, 30))]
        corrected_words = _mutate(rng, original_words)
        corrected_text = " ".join(corrected_words)

        hunks = diff_words(original_words, corrected_words)
        # applying every hunk over the original words reproduces the corrected text
        assert " ".join(reconstruct_words(original_words, hunks)) == corrected_text, case

        # applying only the OCR-error corrections leaves non-hunk bytes intact
        original_text = _noisy_join(rng, original_words)
        corrections = classify_hunks(hunks, RULES, CONFIG)
        applied = [c for c in corrections if c.label == OCR_ERROR]
        result = apply_corrections(original_text, corrections)

        # independent expectation: splice left-to-right on char spans
        import re

        spans = [m.span() for m in re.finditer(r"\S+", original_text)]
        expected = []
        cursor = 0
        for corr in sorted(applied, key=lambda c: c.original_span):
            start, end = corr.original_span
            expected.append(original_text[cursor : spans[start][0]])
            expected.append(corr.corrected_raw)
            cursor = spans[end - 1][1]
        expected.append(original_text[cursor:])
        assert result == "".join(expected), case
        # piecewise: every region outside the applied spans is byte-identical
        outside = []
        cursor = 0
        for corr in sorted(applied, key=lambda c: c.original_span):
            start, end = corr.original_span
            outside.append(original_text[cursor : spans[start][0]])
            cursor = spans[end - 1][1]
        outside.append(original_text[cursor:])
        for chunk in outside:
            assert chunk in result


def test_criterion_6_pipeline_determinism(tmp_path):
    """Two full mock-backend runs produce byte-identical artifacts."""
    corpus, fixtures = write_pipeline_fixture(tmp_path / "fixture")
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        config = PipelineConfig(
            input=str(corpus),
            output_dir=str(out),
            backend="mock",
            mock_fixtures=str(fixtures),
            concurrency=4,
            retry_attempts=2,
            backoff_base=0.0,
            max_chars=500,
        )
        assert run_pipeline(config) == 0
        outputs.append(out)
    for artifact in ARTIFACTS:
        a = (outputs[0] / artifact).read_bytes()
        b = (outputs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between runs"


def test_criterion_7_similarity_oracle_equivalence():
    """Exhaustive agreement with the brute-force oracle, tolerance 1e-9.

    All ordered pairs over a 3-letter alphabet with combined length up to 8
    (83,653 pairs).
    """
    alphabet = "abc"
    strings_by_len = {
        n: ["".join(p) for p in itertools.product(alphabet, repeat=n)] for n in range(9)
    }
    checked = 0
    for len_a in range(9):
        for len_b in range(9 - len_a):
            for a in strings_by_len[len_a]:
                for b in strings_by_len[len_b]:
                    assert abs(similarity_ratio(a, b) - brute_force_ratio(a, b)) <= 1e-9, (a, b)
                    checked += 1
    assert checked == 83653


def test_criterion_8_dataset_scale_figures_not_reproduced():
    """Published corpus-scale values need the licensed corpus and a live model.

    They are deliberately not asserted; the report is verified structurally:
    fields present, percentages within bounds and summing to 100, and the
    known-label arithmetic example.
    """
    corrections = []
    for i in range(6):
        corrections.append(classify_pair("que", f"com{chr(97 + i)}x", RULES, CONFIG))
    assert all(c.label == HALLUCINATION for c in corrections)
    for pair in (("se mana", "semana"), ("6rden", "órden")):
        corrections.append(classify_pair(*pair, RULES, CONFIG))
    assert all(c.label == OCR_ERROR for c in corrections[6:])
    for pair in (("hara", "hará"), ("mui", "muy")):
        corrections.append(classify_pair(*pair, RULES, CONFIG))

    record = ProcessedRecord(
        record=CorpusRecord(id="r1", newspaper="El Oso", country="Peru",
                            year=1845, text="texto de prueba"),
        status="corrected",
        text_llm="texto de prueba",
        text_final="texto de prueba",
        corrections=corrections,
    )
    report = build_report([record])
    assert report["total_corrections"] == 10
    assert report["pct_hallucination"] == pytest.approx(60.0)
    assert report["pct_ocr_error"] == pytest.approx(20.0)
    assert report["pct_surface_form"] == pytest.approx(20.0)
    total = report["pct_hallucination"] + report["pct_ocr_error"] + report["pct_surface_form"]
    assert total == pytest.approx(100.0, abs=0.01)
    assert sum(report["country_distribution"].values()) == pytest.approx(100.0, abs=0.01)
    for key in ("rows", "words", "tokens", "newspapers", "year_range",
                "total_corrections", "surface_forms", "non_accent_surface_forms",
                "pct_ocr_error", "pct_hallucination", "pct_surface_form",
                "pct_content_policy_excluded", "country_distribution",
                "decade_distribution"):
        assert key in report
