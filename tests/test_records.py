import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histocr.classify import HALLUCINATION, OCR_ERROR, SURFACE_FORM, ClassifiedCorrection
from histocr.records import (
    CLASSIFIED,
    CORPUS,
    CORRECTED,
    CORRECTION,
    FIELDS,
    OUTCOMES,
    PROCESSED,
    STATUS_CLEANED_OUT,
    STATUS_CORRECTED,
    STATUSES,
    CandidateRecord,
    CorpusError,
    CorpusRecord,
    LineDiagnostic,
    ProcessedRecord,
    encode_row,
    load_candidates,
    load_corpus,
    load_processed,
    lone_surrogate,
    write_corpus,
    write_processed,
    write_records,
)


def make_correction():
    return ClassifiedCorrection(
        original="harà",
        corrected="hará",
        label="surface_form",
        rule="accent_only",
        ratio=None,
        accent_only=True,
        original_span=(1, 2),
        corrected_span=(1, 2),
        original_raw="harà",
        corrected_raw="hará",
        frequency=2,
    )


def make_records(n=3):
    return [
        CorpusRecord(
            id=f"r{i}",
            newspaper="El Oso",
            country="Peru",
            city="Lima" if i % 2 else None,
            year=1845 + i,
            text=f"texto número {i} con acentos: harà, ménos",
        )
        for i in range(n)
    ]


class TestCorpusRecord:
    def test_decade_derivation(self):
        assert CorpusRecord(id="x", year=1845, text="t").decade == 1840
        assert CorpusRecord(id="x", year=1850, text="t").decade == 1850
        assert CorpusRecord(id="x", year=None, text="t").decade is None


class TestLoadCorpus:
    def test_well_formed_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(make_records(3), path)
        result = load_corpus(path)
        assert len(result.records) == 3
        assert result.diagnostics == []

    def test_malformed_line_reported_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps(json.loads(encode_row(r)), ensure_ascii=False) for r in make_records(2)]
        lines.append("{not json")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = load_corpus(path)
        assert len(result.records) == 2
        assert len(result.errors) == 1
        assert result.errors[0].line == 3

    def test_undecodable_line_skipped_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        first, second = (json.dumps(json.loads(encode_row(r)), ensure_ascii=False).encode() for r in make_records(2))
        path.write_bytes(first + b'\n{"id": "bad", "text": "caf\xff"}\n' + second + b"\n")
        result = load_corpus(path)
        assert [r.id for r in result.records] == ["r0", "r1"]
        assert [(d.line, d.severity) for d in result.diagnostics] == [(2, "error")]
        assert "'utf-8' codec can't decode byte 0xff" in result.errors[0].message

    def test_truncated_row_error_points_into_the_row(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps(json.loads(encode_row(make_records(1)[0])), ensure_ascii=False).encode()
        truncated = b'{"id": "x", "text": '
        path.write_bytes(truncated + b"\n" + good + b"\n" + truncated)  # the last line has no \n
        result = load_corpus(path)
        assert [r.id for r in result.records] == ["r0"]
        assert [str(d) for d in result.diagnostics] == [
            "line 1: error: Expecting value: line 1 column 21 (char 20)",
            "line 3: error: Expecting value: line 1 column 21 (char 20)",
        ]

    def test_crlf_line_ends_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = make_records(3)
        lines = [json.dumps(json.loads(encode_row(r)), ensure_ascii=False) for r in records]
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        result = load_corpus(path)
        assert result.records == records
        assert result.diagnostics == []

    def test_blank_lines_are_skipped_silently(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = make_records(2)
        first, second = (json.dumps(json.loads(encode_row(r)), ensure_ascii=False) for r in records)
        path.write_text(f"\n{first}\n  \t\n\n{second}\n \n", encoding="utf-8")
        result = load_corpus(path)
        assert result.records == records
        assert result.diagnostics == []

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        result = load_corpus(path)
        assert result.records == []
        assert result.diagnostics == []

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(CorpusError, match="nope.jsonl"):
            load_corpus(tmp_path / "nope.jsonl")

    def test_duplicate_ids_are_fatal(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = make_records(2)
        rows = [json.loads(encode_row(r)) for r in records] + [json.loads(encode_row(records[0]))]
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in rows), encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="duplicate id"):
            load_corpus(path)

    def test_year_out_of_range_flagged_but_kept(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = {"id": "x", "newspaper": "", "country": "", "city": None, "year": 1920, "text": "t"}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        result = load_corpus(path)
        assert len(result.records) == 1
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].severity == "warning"

    def test_missing_optional_metadata_accepted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "x", "text": "hola"}) + "\n", encoding="utf-8")
        result = load_corpus(path)
        assert result.records[0].city is None
        assert result.records[0].year is None

    @pytest.mark.parametrize("key", ["newspaper", "country"])
    @pytest.mark.parametrize("value", [["La", "Nacion"], {"name": "La Nacion"}, True, 0])
    def test_non_string_metadata_costs_its_line(self, tmp_path, key, value):
        path = tmp_path / "corpus.jsonl"
        rows = [{"id": "x", "text": "hola", key: value}, {"id": "y", "text": "hola", key: None}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        result = load_corpus(path)
        # null stays "", as an absent value does
        assert [(r.id, getattr(r, key)) for r in result.records] == [("y", "")]
        assert [str(d) for d in result.diagnostics] == [f"line 1: error: {key!r} must be a string, got {value!r}"]

    def test_nul_in_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "x", "text": "a\x00b"}) + "\n", encoding="utf-8")
        result = load_corpus(path)
        assert result.records == []
        assert "NUL" in result.errors[0].message

    def test_empty_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "", "text": "hola"}) + "\n", encoding="utf-8")
        result = load_corpus(path)
        assert result.records == []
        assert len(result.errors) == 1


class TestRoundTrips:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = make_records(4)
        write_corpus(records, path)
        assert load_corpus(path).records == records

    def test_corpus_write_is_deterministic(self, tmp_path):
        records = make_records(4)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(records, a)
        write_corpus(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_sequence_gives_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_corpus([], path)
        assert path.read_bytes() == b""

    def test_order_preserved(self, tmp_path):
        records = list(reversed(make_records(5)))
        path = tmp_path / "corpus.jsonl"
        write_corpus(records, path)
        assert [r.id for r in load_corpus(path).records] == [r.id for r in records]

    def test_line_separators_inside_text_survive(self, tmp_path):
        # json.dumps leaves U+2028, U+2029 and NEL unescaped; they must not end a row
        records = [
            CorpusRecord(id="a", text="uno\u2028dos"),
            CorpusRecord(id="b", text="tres\x85cuatro\u2029cinco"),
            CorpusRecord(id="c", text="seis"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(records, path)
        result = load_corpus(path)
        assert result.records == records
        assert result.diagnostics == []

    def test_candidate_round_trip(self, tmp_path):
        base = make_records(2)
        candidates = [
            CandidateRecord(base[0], "ok", "", "texto corregido", corrections=[make_correction()]),
            CandidateRecord(base[1], "transport_error", "exhausted 1 attempts: timeout"),
        ]
        path = tmp_path / "candidates.jsonl"
        write_records(candidates, path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        corpus_keys = ["id", "newspaper", "country", "city", "year", "text"]
        candidate_keys = corpus_keys + ["llm_outcome", "llm_detail", "text_llm"]
        assert list(rows[0]) == candidate_keys + ["corrections"]
        assert list(rows[1]) == candidate_keys  # not classified yet: no corrections key
        loaded = load_candidates(path)
        assert loaded.records == candidates
        assert loaded.diagnostics == []

    def test_candidate_rows_are_validated(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        good = json.loads(encode_row(CandidateRecord(make_records(1)[0], "ok", "", "texto")))
        rows = [
            {k: v for k, v in good.items() if k != "llm_outcome"},
            {**good, "text_llm": 5},
            {**good, "corrections": [["not", "a", "correction"]]},
            good,
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        result = load_candidates(path)
        assert result.records == [CandidateRecord(make_records(1)[0], "ok", "", "texto")]
        assert [d.line for d in result.errors] == [1, 2, 3]
        assert "llm_outcome" in result.errors[0].message

    def test_processed_round_trip(self, tmp_path):
        correction = make_correction()
        base = make_records(1)[0]
        processed = [
            ProcessedRecord(
                record=base,
                status=STATUS_CORRECTED,
                text_llm="texto corregido",
                text_final="texto final",
                corrections=[correction],
            ),
            ProcessedRecord(record=make_records(2)[1], status=STATUS_CLEANED_OUT),
        ]
        path = tmp_path / "processed.jsonl"
        write_processed(processed, path)
        loaded = load_processed(path).records
        assert loaded == processed

    def test_processed_schema_fields(self, tmp_path):
        processed = ProcessedRecord(record=make_records(1)[0], status=STATUS_CLEANED_OUT)
        path = tmp_path / "p.jsonl"
        write_processed([processed], path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        for key in ("id", "newspaper", "country", "city", "year", "text",
                    "status", "text_llm", "text_final", "corrections"):
            assert key in obj


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(make_records(2), path)
        before = path.read_bytes()

        def rows_then_failure():
            yield from make_records(3)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_corpus(rows_then_failure(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestProcessedInvariants:
    def test_text_final_requires_corrected_status(self):
        record = make_records(1)[0]
        with pytest.raises(ValueError):
            ProcessedRecord(record=record, status=STATUS_CLEANED_OUT, text_final="x")
        with pytest.raises(ValueError):
            ProcessedRecord(record=record, status=STATUS_CORRECTED)  # no text_final

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            ProcessedRecord(record=make_records(1)[0], status="weird")


class TestFieldTypes:
    def test_boolean_year_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "x", "year": True, "text": "t"}) + "\n",
                        encoding="utf-8")
        result = load_corpus(path)
        assert result.records == []
        assert "year" in result.errors[0].message

    @pytest.mark.parametrize(
        "field, value",
        [
            ("position", ["1", "2"]),
            ("position", [1, 2, 3]),
            ("position", [True, 2]),
            ("corrected_position", [1]),
            ("original", 5),
            ("corrected", None),
            ("original_raw", 1),
            ("corrected_raw", []),
            ("rule", None),
            ("label", "bogus"),
            ("ratio", "0.5"),
            ("ratio", True),
            ("accent_only", 1),
            ("frequency", 0),
            ("frequency", 1.0),
            ("frequency", True),
        ],
    )
    def test_malformed_correction_costs_its_line(self, tmp_path, field, value):
        good = json.loads(encode_row(ProcessedRecord(
            make_records(1)[0], STATUS_CORRECTED, "texto", "texto", [make_correction()]
        )))
        bad = {**good, "id": "bad", "corrections": [{**good["corrections"][0], field: value}]}
        path = tmp_path / "final.jsonl"
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        result = load_processed(path)
        assert [r.record.id for r in result.records] == ["r0"]
        (error,) = result.errors
        assert error.line == 1
        assert error.message.startswith(f"correction {field!r} must be "), error.message
        assert error.message.endswith(f", got {value!r}")

    @pytest.mark.parametrize(
        "value, message",
        [
            (5, "'corrections' must be a list, got 5"),
            ("ab", "'corrections' must be a list, got 'ab'"),
            ({"original": "x"}, "'corrections' must be a list, got {'original': 'x'}"),
            ([5], "'corrections' items must be objects, got 5"),
            (["ab"], "'corrections' items must be objects, got 'ab'"),
        ],
        ids=["int", "string", "object", "int-item", "string-item"],
    )
    @pytest.mark.parametrize(
        "load, row",
        [
            (load_candidates, CandidateRecord(make_records(1)[0], "ok", "", "texto", [make_correction()])),
            (load_processed, ProcessedRecord(make_records(1)[0], STATUS_CORRECTED, "texto", "texto", [make_correction()])),
        ],
        ids=["candidate", "processed"],
    )
    def test_malformed_corrections_list_costs_its_line(self, tmp_path, load, row, value, message):
        good = json.loads(encode_row(row))
        bad = {**good, "id": "bad", "corrections": value}
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        result = load(path)
        assert [r.record.id for r in result.records] == ["r0"]
        (error,) = result.errors
        assert (error.line, error.message) == (1, message)

    def test_correction_defaults_and_integer_ratio_load(self, tmp_path):
        row = json.loads(encode_row(ProcessedRecord(
            make_records(1)[0], STATUS_CORRECTED, "texto", "texto", [make_correction()]
        )))
        stored = row["corrections"][0]
        del stored["corrected_position"], stored["frequency"]
        stored["ratio"] = 1
        path = tmp_path / "final.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        (record,) = load_processed(path).records
        (correction,) = record.corrections
        assert (correction.corrected_span, correction.frequency, correction.ratio) == ((0, 0), 1, 1)

    @pytest.mark.parametrize("value", [0, True, 1.5, ["x"], {"a": 1}], ids=["int", "bool", "float", "list", "object"])
    @pytest.mark.parametrize(
        "load, row, key",
        [
            (load_processed, ProcessedRecord(make_records(1)[0], STATUS_CORRECTED, "texto", "texto"), "text_final"),
            (load_processed, ProcessedRecord(make_records(1)[0], STATUS_CORRECTED, "texto", "texto"), "text_llm"),
            (load_candidates, CandidateRecord(make_records(1)[0], "ok", "", "texto"), "text_llm"),
        ],
        ids=["processed-text_final", "processed-text_llm", "candidate-text_llm"],
    )
    def test_non_string_text_costs_its_line(self, tmp_path, load, row, key, value):
        good = json.loads(encode_row(row))
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({**good, "id": "bad", key: value}) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        result = load(path)
        assert [r.record.id for r in result.records] == ["r0"]
        (error,) = result.errors
        assert (error.line, error.message) == (1, f"{key!r} must be a string, got {value!r}")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("llm_outcome", 5, f"'llm_outcome' must be one of {OUTCOMES}, got 5"),
            ("llm_outcome", "bogus", f"'llm_outcome' must be one of {OUTCOMES}, got 'bogus'"),
            ("llm_outcome", None, f"'llm_outcome' must be one of {OUTCOMES}, got None"),
            ("llm_detail", ["x"], "'llm_detail' must be a string, got ['x']"),
            ("llm_detail", 5, "'llm_detail' must be a string, got 5"),
            ("llm_detail", None, "'llm_detail' must be a string, got None"),
        ],
    )
    def test_unknown_outcome_or_non_string_detail_costs_its_line(self, tmp_path, key, value, message):
        good = json.loads(encode_row(CandidateRecord(make_records(1)[0], "ok", "", "texto")))
        path = tmp_path / "corrected.jsonl"
        path.write_text(json.dumps({**good, "id": "bad", key: value}) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        result = load_candidates(path)
        assert [r.record.id for r in result.records] == ["r0"]
        (error,) = result.errors
        assert (error.line, error.message) == (1, message)

    def test_every_outcome_loads(self, tmp_path):
        # only classify gives global_hallucination, so its row carries classify's corrections
        rows = [CandidateRecord(make_records(1)[0], outcome, "", "texto" if outcome == "ok" else None,
                                [] if outcome == "global_hallucination" else None) for outcome in OUTCOMES]
        path = tmp_path / "classified.jsonl"
        write_records(rows, path)
        assert load_candidates(path).records == rows
        assert OUTCOMES == ("ok", "content_policy_refusal", "transport_error", "over_length", "global_hallucination")


# any text UTF-8 can encode, with the characters JSON escapes or that end lines elsewhere drawn often
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\r\x1f\x7f\x85\u2028\u2029\ufeff\U0001f600\U00010000'),
    st.characters(exclude_categories=("Cs",)),
))
MAYBE_TEXT = st.none() | TEXT
RATIO = st.none() | st.integers() | st.sampled_from([-0.0, 5e-324, 1e16]) | st.floats(allow_nan=False, allow_infinity=False)
SPAN = st.tuples(st.integers(), st.integers())
CORRECTIONS = st.lists(st.builds(
    ClassifiedCorrection, TEXT, TEXT, TEXT, TEXT, RATIO, st.booleans(), SPAN, SPAN, TEXT, TEXT, st.integers(),
), max_size=3)
CORPUS_ROWS = st.builds(CorpusRecord, TEXT, TEXT, TEXT, MAYBE_TEXT, st.none() | st.integers(), TEXT)


def reference(obj: object, keys: tuple[str, ...], nested: bool = False) -> dict:
    """The JSON object of ``keys`` read off ``obj`` attribute by attribute, as ``json.dumps`` is given it."""
    out = {}
    for key in keys:
        value = getattr(obj.record if nested and key in CORPUS else obj, FIELDS[key].attr or key)
        out[key] = [reference(c, CORRECTION) for c in value] if key == "corrections" and value is not None else value
    return out


def dumped(obj: object, keys: tuple[str, ...], nested: bool = False) -> str:
    return json.dumps(reference(obj, keys, nested), ensure_ascii=False) + "\n"


@st.composite
def candidate_rows(draw) -> tuple[CandidateRecord, tuple[str, ...]]:
    """A row in each projection, with the keys it is written under."""
    keys = draw(st.sampled_from([CORRECTED, CLASSIFIED, PROCESSED]))
    row = CandidateRecord(draw(CORPUS_ROWS), draw(TEXT), draw(TEXT), draw(MAYBE_TEXT))
    if keys is not CORRECTED:
        row.corrections = draw(st.none() | CORRECTIONS) if keys is PROCESSED else draw(CORRECTIONS)
    if keys is PROCESSED:
        row.status, row.text_final = draw(TEXT), draw(MAYBE_TEXT)
    return row, keys


class TestWriterBytes:
    """Every row is written with the bytes ``json.dumps(..., ensure_ascii=False)`` gives its JSON object."""

    @given(CORPUS_ROWS)
    @settings(max_examples=150)
    def test_corpus_rows(self, record):
        assert encode_row(record) == dumped(record, CORPUS)

    @given(candidate_rows())
    @settings(max_examples=200)
    def test_every_candidate_projection(self, drawn):
        row, keys = drawn
        assert encode_row(row) == dumped(row, keys, nested=True)

    class Text(str):
        pass

    @pytest.mark.parametrize(
        "ratio, text, year, span",
        [
            (math.nan, "a", 1850, (0, 1)),
            (math.inf, "a", 1850, (0, 1)),
            (-math.inf, "a", 1850, (0, 1)),
            (0.5, Text("a\u2028\"b"), 1850, (0, 1)),  # a str subclass
            (0.5, "a", True, (0, 1)),  # a bool where an integer goes
            (True, "a", None, [0, 1]),  # a list span
            (0.5, "a", 1850, (0, 1.5)),  # a span that holds a float
        ],
    )
    def test_other_values_fall_back_to_json_dumps(self, ratio, text, year, span):
        correction = ClassifiedCorrection(text, "b", "ocr_error", "r", ratio, False, span, (0, 0), text, "b", 1)
        row = CandidateRecord(CorpusRecord("a", text=text, year=year), "ok", "", text, [correction])
        assert encode_row(row) == dumped(row, CLASSIFIED, nested=True)


# the rows the stages build, drawn from the strategies above: a non-empty id, a year in
# the target range (else load_corpus warns), a text without NUL, known outcomes, statuses
# and labels, frequencies >= 1, and null in every key whose attribute may be None
LOADABLE_CORPUS_ROWS = CORPUS_ROWS.map(lambda record: record._replace(
    id=record.id or "x", year=None if record.year is None else 1800 + record.year % 100,
    text=record.text.replace("\x00", ""),
))
# a surface form is a lexicon row: two distinct forms of single-spaced words, a rule on one line
# with no tab (str.splitlines breaks at every line break)
SINGLE_SPACED = TEXT.map(lambda text: " ".join(text.split()))
ONE_FIELD = TEXT.filter(lambda rule: "\t" not in rule and len((rule + ".").splitlines()) == 1)
SURFACE_FORMS = st.builds(
    ClassifiedCorrection, SINGLE_SPACED, SINGLE_SPACED, st.just(SURFACE_FORM), ONE_FIELD, RATIO,
    st.booleans(), SPAN, SPAN, TEXT, TEXT, st.integers(min_value=1),
).filter(lambda correction: correction.original != correction.corrected)
LOADABLE_CORRECTIONS = st.lists(SURFACE_FORMS | st.builds(
    ClassifiedCorrection, TEXT, TEXT, st.sampled_from((OCR_ERROR, HALLUCINATION)), TEXT, RATIO,
    st.booleans(), SPAN, SPAN, TEXT, TEXT, st.integers(min_value=1),
), max_size=3)


@st.composite
def loadable_rows(draw) -> tuple[CorpusRecord | CandidateRecord, tuple[str, ...]]:
    """A row as a stage leaves it, with the keys it is written under."""
    keys = draw(st.sampled_from([CORPUS, CORRECTED, CLASSIFIED, PROCESSED]))
    record = draw(LOADABLE_CORPUS_ROWS)
    if keys is CORPUS:
        return record, keys
    if keys is PROCESSED:
        status = draw(st.sampled_from(STATUSES))
        text_final = draw(TEXT) if status == STATUS_CORRECTED else None
        return ProcessedRecord(record, status, draw(MAYBE_TEXT), text_final, draw(LOADABLE_CORRECTIONS)), keys
    corrections = draw(LOADABLE_CORRECTIONS) if keys is CLASSIFIED else None
    # only a classified row may read global_hallucination
    outcome = draw(st.sampled_from(OUTCOMES if keys is CLASSIFIED else OUTCOMES[:-1]))
    return CandidateRecord(record, outcome, draw(TEXT), draw(MAYBE_TEXT), corrections), keys


LOADERS = {CORPUS: load_corpus, CORRECTED: load_candidates, CLASSIFIED: load_candidates, PROCESSED: load_processed}


class TestLoadersReadWhatIsWritten:
    @given(loadable_rows())
    # null in every nullable key: city, year, text_llm and ratio; then text_final and corrections
    @example((CandidateRecord(CorpusRecord("a"), "ok", "", None, [make_correction()]), CLASSIFIED))
    @example((CandidateRecord(CorpusRecord("a"), "transport_error"), CORRECTED))
    @example((ProcessedRecord(CorpusRecord("a"), STATUS_CLEANED_OUT), PROCESSED))
    @settings(max_examples=300)
    def test_every_projection(self, drawn):
        row, keys = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl"
            write_records([row], path)
            assert list(json.loads(path.read_text(encoding="utf-8"))) == list(keys)
            result = LOADERS[keys](path)
        assert (result.records, result.diagnostics) == ([row], [])


# what each field must be, written out here independently of the code's table
MUST_BE = {
    "id": "a non-empty string", "newspaper": "a string", "country": "a string", "city": "a string",
    "year": "an integer", "text": "a string without NUL characters",
    "llm_outcome": f"one of {OUTCOMES}", "llm_detail": "a string", "text_llm": "a string",
    "corrections": "a list", "status": f"one of {STATUSES}", "text_final": "a string",
    "original": "a string", "corrected": "a string",
    "label": "one of ('surface_form', 'ocr_error', 'hallucination')", "rule": "a string", "ratio": "a number",
    "position": "two integers", "corrected_position": "two integers", "original_raw": "a string",
    "corrected_raw": "a string", "accent_only": "a bool", "frequency": "an integer >= 1",
}
# TestEveryWrongField's samples, with the lone surrogate at index 1
SAMPLES = {
    "null": None, "bool": True, "int": 0, "float": 1.5, "string": "x", "array": [], "object": {},
    "nan": math.nan, "lone-surrogate": "a\ud800",
}
# the samples each field admits; the string sample is admitted exactly where a lone surrogate gets its own message
ADMITS = {
    "id": {"string"}, "newspaper": {"null", "string"}, "country": {"null", "string"}, "city": {"null", "string"},
    "year": {"null", "int"}, "text": {"string"}, "llm_outcome": set(), "llm_detail": {"string"},
    "text_llm": {"null", "string"}, "corrections": {"null", "array"}, "status": set(), "text_final": {"null", "string"},
    "original": {"string"}, "corrected": {"string"}, "label": set(), "rule": {"string"},
    "ratio": {"null", "int", "float"}, "position": set(), "corrected_position": set(), "original_raw": {"string"},
    "corrected_raw": {"string"}, "accent_only": {"bool"}, "frequency": set(),
}


def wrong_value_cases():
    for key, admitted in ADMITS.items():
        name = f"correction {key!r}" if key in CORRECTION else repr(key)
        for sample, value in SAMPLES.items():
            if sample == "lone-surrogate" and "string" in admitted:
                message = f"{name} holds a lone surrogate at index 1, which UTF-8 cannot encode"
            elif sample not in admitted:
                message = f"{name} must be {MUST_BE[key]}, got {value!r}"
            else:
                continue
            yield pytest.param(key, name, value, message, id=f"{key}-{sample}")


def row_with(key: str, value: object) -> tuple[dict, object]:
    """A good row of the artifact that holds ``key``, with ``value`` under it, and its loader."""
    record = make_records(1)[0]
    if key in CORPUS:
        return {**json.loads(encode_row(record)), key: value}, load_corpus
    if key in ("status", "text_final") or key in CORRECTION:
        row = json.loads(encode_row(ProcessedRecord(record, STATUS_CORRECTED, "texto", "texto", [make_correction()])))
        loader = load_processed
    else:
        row = json.loads(encode_row(CandidateRecord(record, "ok", "", "texto", [make_correction()])))
        loader = load_candidates
    if key in CORRECTION:
        return {**row, "corrections": [{**row["corrections"][0], key: value}]}, loader
    return {**row, key: value}, loader


class TestWrongValueDiagnostics:
    """A value a field does not admit gets one exact message, from Field.check and from the loader alike."""

    def test_every_field_has_cases(self):
        assert set(MUST_BE) == set(ADMITS) == set(FIELDS)

    @pytest.mark.parametrize("key, name, value, message", wrong_value_cases())
    def test_check_and_line_diagnostic(self, tmp_path, key, name, value, message):
        with pytest.raises(ValueError) as raised:
            FIELDS[key].check(name, value)
        assert str(raised.value) == message
        row, load = row_with(key, value)
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        result = load(path)
        assert (result.records, result.diagnostics) == ([], [LineDiagnostic(1, message)])


# the patterns the two checks below replace, kept as their oracles
LONE_SURROGATE = re.compile("[\ud800-\udfff]")
TAB_OR_LINE_BREAK = re.compile("[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")
# ASCII, non-ASCII, astral, a tab, every line break str.splitlines knows, and near misses; then surrogates
RULE_TEXT = st.text(st.sampled_from(
    list("ab \x1f\xa0\xf1\u2027\u202a\U0001f600\U00100000\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029")
), max_size=12)
SURROGATE_TEXT = st.text(st.sampled_from(list("a\xf1\U0001f600\ud800\udbff\udc00\udfff")), max_size=12)


class TestChecksWithoutPatterns:
    @given(SURROGATE_TEXT)
    @example("a\U00010000")
    @example("\udfff")
    def test_lone_surrogate_is_the_first_surrogate_index(self, text):
        found = LONE_SURROGATE.search(text)
        assert lone_surrogate(text) == (found.start() if found else None)

    @given(RULE_TEXT)
    @example("a\r\nb")
    @example("\x1f")
    def test_a_surface_form_rule_is_refused_exactly_for_a_tab_or_line_break(self, rule):
        item = {"original": "har\xe0", "corrected": "har\xe1", "label": SURFACE_FORM, "rule": rule, "ratio": None,
                "position": [1, 2], "original_raw": "har\xe0", "corrected_raw": "har\xe1", "accent_only": True}
        if TAB_OR_LINE_BREAK.search(rule):
            with pytest.raises(ValueError, match="must hold no tab or line break"):
                FIELDS["corrections"].items(item)
        else:
            assert FIELDS["corrections"].items(item).rule == rule
