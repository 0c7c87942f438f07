"""Line-delimited records: the row schemas, loading, validation and persistence.

One JSON object per line, UTF-8, in one of three row schemas: corpus rows
(:class:`CorpusRecord`: the input corpus, ``cleaned.jsonl``), candidate rows
(:class:`CandidateRecord`: ``corrected.jsonl``, ``classified.jsonl``) and
processed rows (:class:`ProcessedRecord`: ``removed.jsonl``, ``final.jsonl``).
Field order is fixed so repeated writes of the same data are byte-identical.
Every artifact goes through :func:`write_artifact`, which writes a temporary
file beside the target and then renames it over the target, so a failed or
killed write never leaves a truncated file for the next stage.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .classify import HALLUCINATION, OCR_ERROR, SURFACE_FORM, ClassifiedCorrection

STATUS_CLEANED_OUT = "cleaned_out"
STATUS_EXCLUDED_CONTENT_POLICY = "excluded_content_policy"
STATUS_EXCLUDED_LLM_FAILURE = "excluded_llm_failure"
STATUS_CORRECTED = "corrected"
STATUSES = (
    STATUS_CLEANED_OUT,
    STATUS_EXCLUDED_CONTENT_POLICY,
    STATUS_EXCLUDED_LLM_FAILURE,
    STATUS_CORRECTED,
)

# a candidate's ``llm_outcome``: the four backend outcomes, then the one
# classify gives a wholesale rewrite (the client imports these from here)
OUTCOME_OK = "ok"
OUTCOME_CONTENT_POLICY = "content_policy_refusal"
OUTCOME_TRANSPORT_ERROR = "transport_error"
OUTCOME_OVER_LENGTH = "over_length"
OUTCOME_GLOBAL_HALLUCINATION = "global_hallucination"
OUTCOMES = (
    OUTCOME_OK,
    OUTCOME_CONTENT_POLICY,
    OUTCOME_TRANSPORT_ERROR,
    OUTCOME_OVER_LENGTH,
    OUTCOME_GLOBAL_HALLUCINATION,
)

YEAR_RANGE = (1800, 1899)


class CorpusError(Exception):
    """Unrecoverable corpus problem (unreadable file, duplicate ids)."""


@dataclass(frozen=True)
class LineDiagnostic:
    line: int
    message: str
    severity: str = "error"  # error = line skipped, warning = accepted but flagged

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class CorpusRecord:
    """One newspaper text fragment with provenance metadata."""

    id: str
    newspaper: str = ""
    country: str = ""
    city: str | None = None
    year: int | None = None
    text: str = ""

    @property
    def decade(self) -> int | None:
        if self.year is None:
            return None
        return self.year - self.year % 10

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "newspaper": self.newspaper,
            "country": self.country,
            "city": self.city,
            "year": self.year,
            "text": self.text,
        }


@dataclass
class CandidateRecord:
    """A corpus record with the model's outcome and candidate correction.

    ``corrections`` stays ``None`` until classify has diffed the candidate
    against the original; from then on the row carries the labeled list.
    """

    record: CorpusRecord
    outcome: str
    detail: str = ""
    text_llm: str | None = None
    corrections: list[ClassifiedCorrection] | None = None

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"'llm_outcome' must be one of {OUTCOMES}, got {self.outcome!r}")
        if not isinstance(self.detail, str):
            raise ValueError(f"'llm_detail' must be a string, got {self.detail!r}")
        _check_optional_str(self.text_llm, "text_llm")

    def to_json_dict(self) -> dict:
        out = self.record.to_json_dict()
        out["llm_outcome"] = self.outcome
        out["llm_detail"] = self.detail
        out["text_llm"] = self.text_llm
        if self.corrections is not None:
            out["corrections"] = [_correction_to_dict(c) for c in self.corrections]
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> CandidateRecord:
        corrections = obj.get("corrections")
        return cls(
            record=_parse_corpus_fields(obj),
            outcome=obj["llm_outcome"],
            detail=obj.get("llm_detail", ""),
            text_llm=obj.get("text_llm"),
            corrections=None if corrections is None else _corrections_from_list(corrections),
        )


@dataclass
class ProcessedRecord:
    """A corpus record after the pipeline, with exactly one status.

    ``text_final`` is present if and only if the record was corrected; it has
    the OCR errors applied and the surface forms left untouched.
    """

    record: CorpusRecord
    status: str
    text_llm: str | None = None
    text_final: str | None = None
    corrections: list[ClassifiedCorrection] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_optional_str(self.text_llm, "text_llm")
        _check_optional_str(self.text_final, "text_final")
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.text_final is not None) != (self.status == STATUS_CORRECTED):
            raise ValueError("text_final must be present exactly when status is corrected")

    def to_json_dict(self) -> dict:
        out = self.record.to_json_dict()
        out["status"] = self.status
        out["text_llm"] = self.text_llm
        out["text_final"] = self.text_final
        out["corrections"] = [_correction_to_dict(c) for c in self.corrections]
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> ProcessedRecord:
        return cls(
            record=_parse_corpus_fields(obj),
            status=obj["status"],
            text_llm=obj.get("text_llm"),
            text_final=obj.get("text_final"),
            corrections=_corrections_from_list(obj.get("corrections", [])),
        )


def _check_optional_str(value: object, key: str) -> None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string, got {value!r}")


def _correction_to_dict(c: ClassifiedCorrection) -> dict:
    return {
        "original": c.original,
        "corrected": c.corrected,
        "label": c.label,
        "rule": c.rule,
        "ratio": c.ratio,
        "position": list(c.original_span),
        "corrected_position": list(c.corrected_span),
        "original_raw": c.original_raw,
        "corrected_raw": c.corrected_raw,
        "accent_only": c.accent_only,
        "frequency": c.frequency,
    }


def _span(span: object, key: str) -> tuple[int, int]:
    if not (isinstance(span, list) and len(span) == 2 and all(type(i) is int for i in span)):
        raise ValueError(f"correction {key!r} must be two integers, got {span!r}")
    return tuple(span)


def _corrections_from_list(rows: object) -> list[ClassifiedCorrection]:
    """A row's stored corrections; anything but a list of objects is a ``ValueError`` that names the field."""
    if not isinstance(rows, list):
        raise ValueError(f"'corrections' must be a list, got {rows!r}")
    for d in rows:
        if not isinstance(d, dict):
            raise ValueError(f"'corrections' items must be objects, got {d!r}")
    return [_correction_from_dict(d) for d in rows]


def _correction_from_dict(d: dict) -> ClassifiedCorrection:
    """A stored correction; a field of the wrong type or value is a ``ValueError`` that names it."""
    for key in ("original", "corrected", "original_raw", "corrected_raw", "rule"):
        if not isinstance(d[key], str):
            raise ValueError(f"correction {key!r} must be a string, got {d[key]!r}")
    labels = (SURFACE_FORM, OCR_ERROR, HALLUCINATION)
    if d["label"] not in labels:
        raise ValueError(f"correction 'label' must be one of {labels}, got {d['label']!r}")
    if d["ratio"] is not None and type(d["ratio"]) not in (int, float):
        raise ValueError(f"correction 'ratio' must be null or a number, got {d['ratio']!r}")
    if type(d["accent_only"]) is not bool:
        raise ValueError(f"correction 'accent_only' must be a bool, got {d['accent_only']!r}")
    frequency = d.get("frequency", 1)
    if type(frequency) is not int or frequency < 1:
        raise ValueError(f"correction 'frequency' must be an integer >= 1, got {frequency!r}")
    return ClassifiedCorrection(
        original=d["original"],
        corrected=d["corrected"],
        label=d["label"],
        rule=d["rule"],
        ratio=d["ratio"],
        accent_only=d["accent_only"],
        original_span=_span(d["position"], "position"),
        corrected_span=_span(d.get("corrected_position", [0, 0]), "corrected_position"),
        original_raw=d["original_raw"],
        corrected_raw=d["corrected_raw"],
        frequency=frequency,
    )


@dataclass
class LoadResult:
    records: list  # CorpusRecord, CandidateRecord or ProcessedRecord
    diagnostics: list[LineDiagnostic]

    @property
    def errors(self) -> list[LineDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def _parse_corpus_fields(obj: dict) -> CorpusRecord:
    rec_id = obj.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise ValueError("missing or empty 'id'")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("missing or non-string 'text'")
    if "\x00" in text:
        raise ValueError("text contains NUL characters")
    year = obj.get("year")
    if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
        raise ValueError(f"'year' must be an integer, got {year!r}")
    for key in ("newspaper", "country", "city"):
        _check_optional_str(obj.get(key), key)
    return CorpusRecord(
        id=rec_id,
        newspaper=obj.get("newspaper") or "",
        country=obj.get("country") or "",
        city=obj.get("city"),
        year=year,
        text=text,
    )


def _read_rows(
    path: str | Path, kind: str, parse: Callable[[dict], object], diagnostics: list[LineDiagnostic]
) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, row)`` for each line that ``parse`` accepts.

    Other non-blank lines, undecodable ones too, go to ``diagnostics`` as errors in
    line order. The file is read one line at a time. Lines end at ``\\n`` only:
    JSON strings may hold U+2028 or NEL.
    """
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    # without its \n, a truncated row's error points into the row itself
                    line = raw.removesuffix(b"\n").decode("utf-8")
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("row is not an object")
                    row = parse(obj)
                except KeyError as exc:
                    diagnostics.append(LineDiagnostic(lineno, f"missing field {exc}"))
                except (ValueError, TypeError) as exc:
                    diagnostics.append(LineDiagnostic(lineno, str(exc)))
                else:
                    yield lineno, row
    except OSError as exc:
        raise CorpusError(f"cannot read {kind} file {path}: {exc}") from exc


def load_corpus(path: str | Path) -> LoadResult:
    """Load corpus records in file order.

    Malformed lines are reported with their line number and skipped; records
    with a year outside the target range are accepted with a warning.
    Duplicate ids abort the load (downstream joins would be ambiguous).
    """
    records: list[CorpusRecord] = []
    diagnostics: list[LineDiagnostic] = []
    seen: dict[str, int] = {}
    for lineno, record in _read_rows(path, "corpus", _parse_corpus_fields, diagnostics):
        if record.id in seen:
            raise CorpusError(
                f"{path}:{lineno}: duplicate id {record.id!r} (first seen on line {seen[record.id]})"
            )
        seen[record.id] = lineno
        if record.year is not None and not YEAR_RANGE[0] <= record.year <= YEAR_RANGE[1]:
            diagnostics.append(
                LineDiagnostic(
                    lineno,
                    f"year {record.year} outside target range {YEAR_RANGE[0]}-{YEAR_RANGE[1]}",
                    severity="warning",
                )
            )
        records.append(record)
    return LoadResult(records, diagnostics)


def load_candidates(path: str | Path) -> LoadResult:
    """Load candidate records (``corrected.jsonl`` or ``classified.jsonl``)."""
    diagnostics: list[LineDiagnostic] = []
    rows = _read_rows(path, "candidate", CandidateRecord.from_json_dict, diagnostics)
    return LoadResult([record for _, record in rows], diagnostics)


def load_processed(path: str | Path) -> LoadResult:
    """Load processed records (the pipeline output schema)."""
    diagnostics: list[LineDiagnostic] = []
    rows = _read_rows(path, "processed", ProcessedRecord.from_json_dict, diagnostics)
    return LoadResult([record for _, record in rows], diagnostics)


def write_artifact(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path`` as UTF-8 with ``\\n`` line ends, atomically.

    If writing fails, the previous file stays as it was and the temporary
    file beside it is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj: dict, path: str | Path) -> None:
    """One indented JSON document (reports)."""
    write_artifact(path, [json.dumps(obj, ensure_ascii=False, indent=2) + "\n"])


def encode_row(record) -> str:
    """One record as its artifact line: stable field order, byte-identical across runs."""
    return json.dumps(record.to_json_dict(), ensure_ascii=False) + "\n"


def write_records(records: Iterable, path: str | Path) -> None:
    """One record per line, in order (:func:`encode_row`)."""
    write_artifact(path, map(encode_row, records))


write_corpus = write_processed = write_records
