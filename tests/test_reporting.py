import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOKEN_ALPHABET
from histocr.classify import ClassifiedCorrection
from histocr.cleaning import TOKENIZERS
from histocr.records import (
    STATUS_CLEANED_OUT,
    STATUS_CORRECTED,
    STATUS_EXCLUDED_CONTENT_POLICY,
    CorpusRecord,
    ProcessedRecord,
)
from histocr.reporting import build_report, render_text, write_report


# letters, digits, "_", combining marks, punctuation, astral letters, digits and symbols,
# and every str.isspace() character
REPORT_ALPHABET = st.sampled_from(
    list("aZ\xf1\u03a97\u0663_\u0301\u0327.,;-\"\u00bf\u200b\U0001d400\U0001d7ce\U0001f600\U00010140")
    + [chr(c) for c in range(0x3001) if chr(c).isspace()]  # the last is U+3000
)


def correction(label, original="x", corrected="y", accent_only=False):
    return ClassifiedCorrection(
        original=original,
        corrected=corrected,
        label=label,
        rule="accent_only" if accent_only else "ratio_threshold",
        ratio=None,
        accent_only=accent_only,
        original_span=(0, 1),
        corrected_span=(0, 1),
        original_raw=original,
        corrected_raw=corrected,
    )


def processed(
    rec_id,
    status=STATUS_CORRECTED,
    country="Mexico",
    year=1850,
    newspaper="El Diario",
    text="cuatro palabras de texto",
    corrections=(),
):
    record = CorpusRecord(
        id=rec_id, newspaper=newspaper, country=country, year=year, text=text
    )
    return ProcessedRecord(
        record=record,
        status=status,
        text_llm=text if status == STATUS_CORRECTED else None,
        text_final=text if status == STATUS_CORRECTED else None,
        corrections=list(corrections),
    )


class TestBuildReport:
    def test_label_percentages(self):
        corrections = (
            [correction("hallucination", f"h{i}") for i in range(6)]
            + [correction("ocr_error", f"o{i}") for i in range(2)]
            + [correction("surface_form", f"s{i}", accent_only=True) for i in range(2)]
        )
        report = build_report([processed("r1", corrections=corrections)])
        assert report["total_corrections"] == 10
        assert report["pct_hallucination"] == pytest.approx(60.0)
        assert report["pct_ocr_error"] == pytest.approx(20.0)
        assert report["pct_surface_form"] == pytest.approx(20.0)
        total = report["pct_hallucination"] + report["pct_ocr_error"] + report["pct_surface_form"]
        assert total == pytest.approx(100.0, abs=0.01)

    def test_single_country_distribution(self):
        report = build_report([processed("r1"), processed("r2")])
        assert report["country_distribution"] == {"Mexico": pytest.approx(100.0)}

    def test_country_percentages_sum_to_100(self):
        rows = [
            processed("r1", country="Mexico"),
            processed("r2", country="Mexico"),
            processed("r3", country="Peru"),
            processed("r4", country=""),  # buckets under unknown
        ]
        report = build_report(rows)
        assert sum(report["country_distribution"].values()) == pytest.approx(100.0, abs=0.01)
        assert report["country_distribution"]["unknown"] == pytest.approx(25.0)

    def test_decade_bucketing_and_unknown_years(self):
        rows = [
            processed("r1", year=1845),
            processed("r2", year=1849),
            processed("r3", year=1850),
            processed("r4", year=None),
        ]
        report = build_report(rows)
        assert report["decade_distribution"] == {"1840": 2, "1850": 1}
        assert report["rows_without_year"] == 1
        assert report["year_range"] == [1845, 1850]

    def test_cleaned_out_rows_ignored(self):
        rows = [
            processed("r1"),
            ProcessedRecord(
                record=CorpusRecord(id="r2", text="fuera"), status=STATUS_CLEANED_OUT
            ),
        ]
        report = build_report(rows)
        assert report["rows"] == 1

    def test_content_policy_percentage(self):
        rows = [processed(f"r{i}") for i in range(3)]
        rows.append(
            ProcessedRecord(
                record=CorpusRecord(id="r9", newspaper="El Faro", country="Peru",
                                    year=1860, text="texto"),
                status=STATUS_EXCLUDED_CONTENT_POLICY,
            )
        )
        report = build_report(rows)
        assert report["pct_content_policy_excluded"] == pytest.approx(25.0)

    def test_surface_form_pair_counts_are_distinct(self):
        corrections = [
            correction("surface_form", "hara", "hará", accent_only=True),
            correction("surface_form", "hara", "hará", accent_only=True),
            correction("surface_form", "mui", "muy"),
        ]
        report = build_report([processed("r1", corrections=corrections)])
        assert report["surface_forms"] == 2
        assert report["non_accent_surface_forms"] == 1

    def test_words_and_tokens_counted_on_final_text(self):
        row = processed("r1", text="uno dos tres, 45")
        report = build_report([row])
        assert report["words"] == 4  # whitespace tokens
        assert report["tokens"] == 4  # letter/digit runs
        assert report["tokenizer_id"] == "unicode_words"

    @given(st.lists(st.text(TOKEN_ALPHABET, max_size=40), max_size=6))
    @settings(max_examples=200, deadline=None)
    @example(["a b\u3000c\x1c", "\x85a_b\u0301c\xa0"])
    def test_tokens_are_the_sum_of_the_token_list_lengths(self, texts):
        # one @given test over both tokenizers: see conftest.pytest_pycollect_makeitem
        rows = [processed(f"r{i}", text=text) for i, text in enumerate(texts)]
        for name, tokenizer in TOKENIZERS.items():
            report = build_report(rows, tokenizer_id=name)
            assert report["tokens"] == sum(len(tokenizer(text)) for text in texts), name
            assert report["words"] == sum(len(text.split()) for text in texts), name

    @given(st.lists(st.text(REPORT_ALPHABET, max_size=60), max_size=4))
    @settings(max_examples=300, deadline=None)
    @example(["\U0001d400b,c\U0001f600 d_\u0301e\u3000", "9.5\x1f\xa0\u2029-"])
    def test_words_and_tokens_are_the_whitespace_split_and_the_pattern_count(self, texts):
        report = build_report([processed(f"r{i}", text=text) for i, text in enumerate(texts)])
        assert report["words"] == sum(len(text.split()) for text in texts)
        assert report["tokens"] == sum(re.subn(r"[^\W_]+", "", text)[1] for text in texts)

    def test_unknown_tokenizer_is_rejected(self):
        # counting with a fallback tokenizer would label the counts with a wrong id
        with pytest.raises(ValueError, match="unknown tokenizer 'bogus'"):
            build_report([], tokenizer_id="bogus")

    def test_newspapers_distinct(self):
        rows = [
            processed("r1", newspaper="El Oso"),
            processed("r2", newspaper="El Oso"),
            processed("r3", newspaper="La Gaceta"),
        ]
        assert build_report(rows)["newspapers"] == 2

    def test_empty_corpus(self):
        report = build_report([])
        assert report["rows"] == 0
        assert report["pct_ocr_error"] == 0.0
        assert report["year_range"] is None


class TestReportOutput:
    def test_structured_and_text_formats(self, tmp_path):
        report = build_report([processed("r1")])
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        write_report(report, json_path, fmt="structured")
        write_report(report, text_path, fmt="text")
        data = json.loads(json_path.read_text(encoding="utf-8"))
        assert data["rows"] == 1
        assert "decade_distribution" in data
        assert "country distribution" in text_path.read_text(encoding="utf-8")

    def test_unknown_format_rejected(self, tmp_path):
        report = build_report([])
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "x", fmt="pdf")

    def test_byte_identical_reports_for_same_input(self, tmp_path):
        rows = [processed("r1"), processed("r2", country="Peru", year=1860)]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(build_report(rows), a)
        write_report(build_report(rows), b)
        assert a.read_bytes() == b.read_bytes()

    def test_text_rendering_lists_distributions(self):
        rows = [processed("r1"), processed("r2", country="Peru", year=1863)]
        text = render_text(build_report(rows))
        assert "Mexico: 50.00" in text
        assert "Peru: 50.00" in text
        assert "1860: 1" in text

    def test_decades_in_numeric_order_in_both_formats(self, tmp_path):
        # as strings "995" would sort after "1840"; both files keep numeric order
        rows = [processed("r1", year=1845), processed("r2", year=995), processed("r3", year=1851)]
        report = build_report(rows)
        write_report(report, tmp_path / "report.json", fmt="structured")
        write_report(report, tmp_path / "report.txt", fmt="text")
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert list(data["decade_distribution"].items()) == [("990", 1), ("1840", 1), ("1850", 1)]
        assert data["year_range"] == [995, 1851]
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert text.endswith("decade distribution (rows):\n  990: 1\n  1840: 1\n  1850: 1\n")
        assert "years:                       995 - 1851\n" in text
