"""Generator determinism and ground-truth bookkeeping."""

from __future__ import annotations

import difflib
from collections import Counter
from dataclasses import replace

import pytest

import corpus
import vocab

TINY = corpus.Workload(
    name="tiny",
    why="test corpus",
    records=60,
    chars=(100, 600),
    density=corpus.GOLDEN_DENSITY,
    paired=corpus.GOLDEN_PAIRED,
    over_budget=2,
    fodder=corpus.NEWSPRINT_FODDER,
)
TINY_RUNS = replace(
    TINY, name="tiny_runs", density=0.02, paired=0.0, sentence_words=(22, 28), run_words=(5, 20), fodder={}
)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", [TINY, TINY_RUNS])
def test_same_seed_same_bytes(tmp_path, workload):
    corpus.write_corpus(workload, 7, tmp_path / "a")
    corpus.write_corpus(workload, 7, tmp_path / "b")
    corpus.write_corpus(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


def test_layout_is_seed_independent():
    """Word lengths and the perturbation plan repeat across seeds; words do
    not, and only the few perturbations the words rule out differ."""
    a, b = corpus.Generator(TINY, 1), corpus.Generator(TINY, 2)
    plain_a, plain_b = a.plain(2000).split(" "), b.plain(2000).split(" ")
    assert plain_a != plain_b
    assert [len(w) for w in plain_a] == [len(w) for w in plain_b]
    count_a, count_b = len(a.record(2000).perturbations), len(b.record(2000).perturbations)
    assert abs(count_a - count_b) <= 0.1 * count_a


def test_no_sentence_repeats():
    rows, _, _ = corpus.generate(TINY_RUNS, 3)
    sentences = [s for row in rows for s in row["text"].split(". ") if s]
    assert len(sentences) == len(set(sentences))


def _model_outputs(workload, seed):
    rows, fixtures, truth = corpus.generate(workload, seed)
    outputs = {f["input_hash"]: f["output"] for f in fixtures}
    return rows, truth, [outputs.get(corpus.sha256_hex(r["text"])) for r in rows]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_status_schedule(seed):
    rows, truth, outputs = _model_outputs(TINY, seed)
    counts = Counter(t["status"] for t in truth)
    shares = TINY.fodder
    n = TINY.records
    assert counts[corpus.CLEANED_OUT] == sum(
        round(shares[k] * n) for k in ("duplicate", "empty", "non_alpha", "short")
    )
    assert counts[corpus.REFUSED] == round(shares["refusal"] * n)
    assert counts[corpus.LLM_FAILURE] == (
        round(shares["transport_error"] * n) + round(shares["rewrite"] * n) + TINY.over_budget
    )
    assert sum(counts.values()) == len(rows) == n + counts[corpus.CLEANED_OUT] + TINY.over_budget
    seen: set[str] = set()
    for row, t, output in zip(rows, truth, outputs):
        text = row["text"]
        if t["status"] == corpus.REFUSED:
            assert output == corpus.REFUSAL_SENTINEL
        if t["status"] == corpus.LLM_FAILURE and output is not None:
            is_rewrite = output != corpus.TRANSPORT_ERROR_SENTINEL
            assert not is_rewrite or len(output) <= len(text) // 4
        if t["status"] == corpus.LLM_FAILURE and output is None:
            assert len(text) > corpus.MAX_CHARS
        if t["status"] == corpus.CORRECTED:
            assert len(text) <= corpus.MAX_CHARS
            assert text.strip() not in seen
        seen.add(text.strip())
    repeats = Counter(r["text"].strip() for r in rows if r["text"].strip())
    assert sum(c - 1 for c in repeats.values()) == round(shares["duplicate"] * n)
    # a duplicate shares its source's fixture entry instead of adding one
    _, fixtures, _ = corpus.generate(TINY, seed)
    assert len({f["input_hash"] for f in fixtures}) == len(fixtures)


def _rebuild(original: list[str], perturbations: list[dict], classes: set[str]) -> str:
    """The original with the model's words put in for perturbations of
    ``classes``."""
    out: list[str] = []
    at = 0
    for p in sorted(perturbations, key=lambda p: p["span"]):
        start, end = p["span"]
        out += original[at:start]
        out += p["model"] if p["class"] in classes else original[start:end]
        at = end
    return " ".join(out + original[at:])


@pytest.mark.parametrize("workload", [TINY, TINY_RUNS])
@pytest.mark.parametrize("seed", [1, 2])
def test_perturbations_match_an_independent_diff(workload, seed):
    """Each changed region of a word diff is covered exactly by injected
    perturbations; the perturbations rebuild the model's text, and the
    expected text applies the OCR ones only."""
    rows, truth, outputs = _model_outputs(workload, seed)
    checked = paired = 0
    surface_originals = {o for o, _ in vocab.SURFACE_PAIRS}
    for row, t, model in zip(rows, truth, outputs):
        if t["status"] != corpus.CORRECTED or model is None:
            continue
        original, model_words = row["text"].split(" "), model.split(" ")
        spans = [tuple(p["span"]) for p in t["perturbations"]]
        matcher = difflib.SequenceMatcher(None, original, model_words, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                continue
            inside = [s for s in spans if i1 <= s[0] and s[1] <= i2 and (s[0] < i2 or i1 == i2)]
            assert inside, (row["id"], tag, original[i1:i2], model_words[j1:j2])
            assert min(s[0] for s in inside) == i1 and max(s[1] for s in inside) == i2
            paired += len(inside) > 1
        for p in t["perturbations"]:
            if p["class"] == corpus.SURFACE:
                assert " ".join(original[slice(*p["span"])]) in surface_originals
        assert _rebuild(original, t["perturbations"], {corpus.OCR, corpus.SURFACE, corpus.INSERTION}) == model
        assert _rebuild(original, t["perturbations"], {corpus.OCR}) == t["final"]
        checked += 1
    assert checked > 10
    if workload.paired:
        assert paired > 0


def test_golden_density():
    """Sparse perturbations come about as often as in the golden fragment:
    28 edits in 24 hunks per 145 words."""
    gen = corpus.Generator(corpus.ROADMAP_BASELINE, 1)
    words = edits = hunks = 0
    for _ in range(40):
        rec = gen.record(950)
        words += len(rec.original)
        edits += len(rec.perturbations)
        matcher = difflib.SequenceMatcher(None, rec.original, rec.model, autojunk=False)
        hunks += sum(1 for op in matcher.get_opcodes() if op[0] != "equal")
    assert 25 <= edits / words * 145 <= 31
    assert 21 <= hunks / words * 145 <= 27
    assert 1.1 <= edits / hunks <= 1.25


def test_runs_are_adjacent_ocr_damage():
    rec = corpus.Generator(TINY_RUNS, 5).record(900, run_words=12)
    spans = [p["span"] for p in rec.perturbations if p["class"] == corpus.OCR]
    adjacent = sum(1 for a, b in zip(spans, spans[1:]) if a[1] == b[0])
    assert adjacent >= 4


def test_log_schedule_spans_the_range():
    lengths = corpus.log_schedule(10, 600, 11500)
    assert lengths[0] == 600 and lengths[-1] == 11500
    assert lengths == sorted(lengths)
    assert corpus.log_schedule(1, 5, 9) == [9]
