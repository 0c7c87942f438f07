import pytest

from histocr.applier import (
    SpanIntegrityError,
    SurfaceFormEntry,
    apply_corrections,
    emit_lexicon,
    write_lexicon,
)
from histocr.classify import (
    OCR_ERROR,
    ClassifiedCorrection,
    ClassifierConfig,
    aggregate_frequencies,
    classify_hunks,
    default_rules,
)
from histocr.diffing import diff_words, tokenize_words

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

    def test_entry_invariants(self):
        with pytest.raises(ValueError):
            SurfaceFormEntry("x", "x", "accent_only", 1, True)
        with pytest.raises(ValueError):
            SurfaceFormEntry("x", "y", "accent_only", 0, True)


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
