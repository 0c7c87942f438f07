import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histocr import applier
from histocr.applier import (
    SpanIntegrityError,
    SurfaceFormEntry,
    apply_corrections,
    emit_lexicon,
    write_lexicon,
)
from histocr.classify import (
    HALLUCINATION,
    OCR_ERROR,
    SURFACE_FORM,
    ClassifiedCorrection,
    ClassifierConfig,
    aggregate_frequencies,
    classify_hunks,
    default_rules,
)
from histocr.config import PipelineConfig
from histocr.diffing import diff_words, tokenize_words
from histocr.pipeline import run_pipeline
from histocr.records import load_processed

RULES = default_rules()
CONFIG = ClassifierConfig()


def corrections_for(original, corrected):
    hunks = diff_words(tokenize_words(original), tokenize_words(corrected))
    corrections = classify_hunks(hunks, RULES, CONFIG)
    aggregate_frequencies(corrections)
    return corrections


class TestApplyCorrections:
    def test_ocr_error_applied(self):
        original = "cada se mana, y constará"
        corrections = corrections_for(original, "cada semana, y constará")
        assert apply_corrections(original, corrections) == "cada semana, y constará"

    def test_surface_form_preserved(self):
        original = "se harà dos veces"
        corrections = corrections_for(original, "se hará dos veces")
        assert apply_corrections(original, corrections) == original

    def test_no_ocr_corrections_is_identity(self):
        original = "texto sin cambios"
        assert apply_corrections(original, []) == original

    def test_hallucinated_insert_not_applied(self):
        original = "un texto con una palabra extra"
        corrections = corrections_for(original, "un texto con una palabra añadida extra")
        assert apply_corrections(original, corrections) == original

    def test_mixed_labels_apply_only_ocr(self):
        original = "la sesion abrió á las dore en la tarde"
        corrections = corrections_for(original, "la sesión abrió a las dos en la tarde")
        # dore -> dos is the only OCR error; accent changes stay historical
        assert apply_corrections(original, corrections) == "la sesion abrió á las dos en la tarde"

    def test_modernize_also_applies_surface_forms(self):
        original = "la sesion abrió á las dore en la tarde"
        corrections = corrections_for(original, "la sesión abrió a las dos en la tarde")
        assert (
            apply_corrections(original, corrections, modernize=True)
            == "la sesión abrió a las dos en la tarde"
        )

    def test_casing_inside_hunk_comes_from_model(self):
        original = "vimos que En seguida llegó"
        corrections = corrections_for(original, "vimos que Enseguida llegó")
        assert apply_corrections(original, corrections) == "vimos que Enseguida llegó"

    def test_bytes_outside_spans_conserved(self):
        # double spaces and a newline survive outside the applied span
        original = "uno  dos\tcada se mana, y  constará\nfin"
        corrected = "uno dos cada semana, y constará fin"
        corrections = corrections_for(original, corrected)
        result = apply_corrections(original, corrections)
        assert result == "uno  dos\tcada semana, y  constará\nfin"

    def test_stale_correction_raises(self):
        original = "cada se mana, y constará"
        corrections = corrections_for(original, "cada semana, y constará")
        with pytest.raises(SpanIntegrityError, match="stale"):
            apply_corrections("otro texto totalmente distinto aqui", corrections)

    def test_span_outside_text_raises(self):
        original = "cada se mana, y constará"
        corrections = corrections_for(original, "cada semana, y constará")
        with pytest.raises(SpanIntegrityError):
            apply_corrections("cada", corrections)

    @staticmethod
    def ocr_error(original_span, original_raw, corrected_raw):
        return ClassifiedCorrection(
            original=original_raw, corrected=corrected_raw, label=OCR_ERROR, rule="ratio_threshold",
            ratio=0.6, accent_only=False, original_span=original_span, corrected_span=original_span,
            original_raw=original_raw, corrected_raw=corrected_raw,
        )

    def test_insertion_raises(self):
        insertion = self.ocr_error((1, 1), "", "nueva")
        with pytest.raises(SpanIntegrityError, match=r"cannot apply insertion/deletion at words \[1,1\)"):
            apply_corrections("cada se mana", [insertion])

    def test_overlapping_corrections_raise(self):
        corrections = [self.ocr_error((1, 3), "se mana", "semana"), self.ocr_error((0, 2), "cada se", "cadase")]
        with pytest.raises(SpanIntegrityError, match=r"overlapping correction at words \[0,2\)"):
            apply_corrections("cada se mana", corrections)

    def test_idempotent_fixpoint_on_fixture(self):
        original = "cada se mana la sesion abrió á las dore"
        llm = "cada semana la sesión abrió a las dos"
        first = apply_corrections(original, corrections_for(original, llm))
        again = apply_corrections(first, corrections_for(first, llm))
        assert again == first


def splice_each_correction(original, corrections, modernize=False):
    """The oracle: every word's span listed, then one whole-text copy per correction."""
    labels = {OCR_ERROR, SURFACE_FORM} if modernize else {OCR_ERROR}
    applicable = [c for c in corrections if c.label in labels]
    if not applicable:
        return original

    spans = [m.span() for m in re.finditer(r"\S+", original)]
    result = original
    last_start = len(spans) + 1
    for corr in sorted(applicable, key=lambda c: c.original_span, reverse=True):
        start, end = corr.original_span
        if not corr.original_raw or not corr.corrected_raw:
            raise SpanIntegrityError(
                f"cannot apply insertion/deletion at words [{start},{end})"
            )
        if not 0 <= start < end <= len(spans):
            raise SpanIntegrityError(f"word span [{start},{end}) outside text")
        if end > last_start:
            raise SpanIntegrityError(f"overlapping correction at words [{start},{end})")
        found = " ".join(original[s:e] for s, e in spans[start:end])
        if found != corr.original_raw:
            raise SpanIntegrityError(
                f"stale correction at words [{start},{end}): "
                f"expected {corr.original_raw!r}, found {found!r}"
            )
        char_start = spans[start][0]
        char_end = spans[end - 1][1]
        result = result[:char_start] + corr.corrected_raw + result[char_end:]
        last_start = start
    return result


def outcome(splice, original, corrections, modernize):
    """The text ``splice`` returns, or the type and message of what it raises."""
    try:
        return splice(original, corrections, modernize)
    except Exception as exc:  # noqa: BLE001 - any exception must be the oracle's too
        return type(exc), str(exc)


# words, the separators around them and the bounds of a span: small, past the end, negative
SPLICE_WORDS = st.lists(st.text("ab\u00f1\u0301.,_", min_size=1, max_size=4), min_size=1, max_size=8)
SEPARATORS = st.text(" \t\n\u3000\u2028", max_size=2)
BOUNDS = st.one_of(st.integers(-2, 9), st.sampled_from([10**9 - 1, 10**9]))


@st.composite
def spliced_corrections(draw):
    """A text and corrections on it: spans on cut points of its words (fitting, unless
    a bound or a form is redrawn) and spans drawn at random (overlapping, empty,
    reversed, negative or past the end), each with a true, stale or empty form."""
    words = draw(SPLICE_WORDS)
    text = "".join(draw(SEPARATORS) + word for word in words) + draw(SEPARATORS)
    text = text if text.split() == words else " ".join(words)  # no separator was drawn between two words
    cuts = sorted(draw(st.sets(st.integers(0, len(words)), min_size=2, max_size=6)))
    spans = list(zip(cuts, cuts[1:]))
    if draw(st.booleans()):  # the first fitting span widened by one word, so the two overlap
        spans.append((spans[0][0], spans[0][1] + 1))
    bounds = st.one_of(st.integers(0, len(words)), BOUNDS)
    spans += draw(st.one_of(st.just([]), st.lists(st.tuples(bounds, bounds), min_size=1, max_size=2)))
    corrections = []
    for start, end in draw(st.permutations(spans)):
        true_form = " ".join(words[max(start, 0):max(end, 0)]) or "a"
        original_raw = draw(st.sampled_from([true_form] * 9 + ["", "a", true_form + " b"]))
        corrected_raw = draw(st.sampled_from(["X", "Y z"] * 4 + [""]))
        label = draw(st.sampled_from([OCR_ERROR, OCR_ERROR, SURFACE_FORM, HALLUCINATION]))
        corrections.append(ClassifiedCorrection(
            original=original_raw, corrected=corrected_raw, label=label, rule="ratio_threshold",
            ratio=0.6, accent_only=False, original_span=(start, end), corrected_span=(start, end),
            original_raw=original_raw, corrected_raw=corrected_raw,
        ))
    return text, corrections


class TestApplyCorrectionsAgainstTheOracle:
    @given(spliced_corrections(), st.booleans())
    @settings(max_examples=600, deadline=None)
    @example(("", [TestApplyCorrections.ocr_error((0, 1), "a", "X")]), False)
    @example(("a b", [TestApplyCorrections.ocr_error((1, 10**9), "b", "X")]), False)
    @example(("a b", [TestApplyCorrections.ocr_error((-1, 1), "a", "X")]), False)
    @example(("a  b", [TestApplyCorrections.ocr_error((0, 2), "a b", "X"),
                       TestApplyCorrections.ocr_error((1, 2), "b", "Y")]), True)
    def test_same_text_or_same_exception(self, case, modernize):
        text, corrections = case
        expected = outcome(splice_each_correction, text, corrections, modernize)
        assert outcome(apply_corrections, text, corrections, modernize) == expected

    def test_a_span_past_the_end_costs_at_most_one_pass(self, monkeypatch):
        text = " ".join(["palabra"] * 50)
        drawn = []

        class CountingPattern:
            def finditer(self, string):
                drawn.append(0)
                for match in re.finditer(r"\S+", string):
                    drawn[-1] += 1
                    yield match

        monkeypatch.setattr(applier, "_WORD_SPAN_RE", CountingPattern())
        corrections = [
            TestApplyCorrections.ocr_error(span, "palabra", "voz")
            for span in [(3, 4), (10**9 - 1, 10**9), (40, 10**9), (7, 8)]
        ]
        with pytest.raises(SpanIntegrityError, match=r"word span \[999999999,1000000000\) outside text"):
            apply_corrections(text, corrections)
        assert drawn == [50]
        assert apply_corrections(text, corrections[:1] + corrections[3:]).split().count("voz") == 2
        assert drawn[1] == 8


class TestEmitLexicon:
    def test_full_and_non_accent_lists(self):
        corrections = []
        for _ in range(5):
            corrections.extend(corrections_for("se harà", "se hará"))
        for _ in range(2):
            corrections.extend(corrections_for("texto mui claro", "texto muy claro"))
        aggregate_frequencies(corrections)
        full, non_accent = emit_lexicon(corrections)
        assert len(full) == 2
        assert len(non_accent) == 1
        assert non_accent[0].original == "mui"
        assert non_accent[0].modern == "muy"
        assert non_accent[0].frequency == 2

    def test_empty_corpus(self):
        full, non_accent = emit_lexicon([])
        assert full == []
        assert non_accent == []

    def test_sublist_is_subset(self):
        corrections = corrections_for(
            "el jeneral dijo que la sesion era mui corta",
            "el general dijo que la sesión era muy corta",
        )
        full, non_accent = emit_lexicon(corrections)
        assert set(non_accent) <= set(full)
        assert all(not e.accent_only for e in non_accent)

    def test_ordering_frequency_desc_then_original(self):
        corrections = []
        corrections.extend(corrections_for("texto mui claro", "texto muy claro"))
        for _ in range(3):
            corrections.extend(corrections_for("se harà", "se hará"))
        corrections.extend(corrections_for("el jeneral", "el general"))
        full, _ = emit_lexicon(corrections)
        assert [(e.original, e.frequency) for e in full] == [
            ("harà", 3),
            ("jeneral", 1),
            ("mui", 1),
        ]

    def test_hallucinations_and_ocr_errors_excluded(self):
        corrections = corrections_for("cada se mana que como", "cada semana y pues")
        full, _ = emit_lexicon(corrections)
        assert full == []

    def test_the_fixture_run_gives_two_distinct_forms_seen_at_least_once(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = PipelineConfig(input=str(corpus), output_dir=str(tmp_path), backend="mock", mock_fixtures=str(fixtures))
        assert run_pipeline(config) == 0
        rows = load_processed(tmp_path / "final.jsonl").records
        full, non_accent = emit_lexicon(c for row in rows for c in row.corrections)
        assert full and non_accent
        assert all(type(e) is SurfaceFormEntry and e.original != e.modern and e.frequency >= 1 for e in full)


class TestLexiconFile:
    def test_header_and_stable_bytes(self, tmp_path):
        corrections = corrections_for("se harà", "se hará")
        full, _ = emit_lexicon(corrections)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_lexicon(full, a)
        write_lexicon(full, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "original\tmodern\trule\tfrequency\taccent_only"
        assert lines[1] == "harà\thará\taccent_only\t1\ttrue"
