"""Line-delimited records: one row type, read and written through one field table.

A record is a frozen :class:`CorpusRecord` until cleaning keeps it. From
``correct`` on it is one mutable row, :class:`CandidateRecord`, that holds
the corpus record as ``record`` and that each stage fills in place:
``correct`` sets the outcome, detail and ``text_llm``, ``classify`` the
``corrections`` (and ``global_hallucination`` for a wholesale rewrite),
``apply`` the ``status`` and ``text_final``. :data:`FIELDS` gives each JSON
key its attribute, admitted JSON types and allowed values. Each artifact is
a projection of the row, a fixed key list over that table: :data:`CORPUS`
(the input, ``cleaned.jsonl``), :data:`CORRECTED`, :data:`CLASSIFIED` and
:data:`PROCESSED` (``removed.jsonl``, ``final.jsonl``), with
:data:`CORRECTION` for each correction. Each key list compiles one writer
from :data:`FIELDS`. It emits a row's JSON text in key order straight from
its attributes, with the bytes ``json.dumps`` would give its JSON object, so
the same data gives the same bytes; no dict is built on the way. The reader
is plain Python over one plan per key list: ``run`` reads only the corpus
file, never a stage artifact, so compiling it would not make a run faster.
It takes a row field by field through :meth:`Field.check`, so a wrong field
costs its own line. :func:`open_artifact` writes a temporary file beside
the target and renames it over the target, so a failed or killed write
never leaves a truncated file for the next stage.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

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


def lone_surrogate(text: str) -> int | None:
    """The index of the first lone surrogate in ``text``, if any: the code points UTF-8 cannot
    encode (JSON's ``"\\ud800"`` escape reads as one), so ``str.encode`` stops at the first."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        return exc.start
    return None


# JSON types, matched exactly (a bool is no integer, an integer is a number);
# a field's first type names it in diagnostics
STRING, INTEGER, NUMBER, BOOL, ARRAY, NULL = (str,), (int,), (float, int), (bool,), (list,), (type(None),)
_TYPE_WORDS = {str: "a string", int: "an integer", float: "a number", bool: "a bool", list: "a list"}
REQUIRED = object()  # the default of a key that must be present


class Where(NamedTuple):
    """The allowed values of a field: those that pass ``test``."""

    wording: str
    test: Callable[[object], bool]


def one_of(values: tuple) -> Where:
    return Where(f"one of {values}", values.__contains__)


def _shown(value: object) -> str:
    """``repr(value)``, cut to 80 characters: a diagnostic need not echo a whole text."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


class Field(NamedTuple):
    """One JSON key: its admitted JSON types, the attribute it fills (if not
    the key's name), its default (none: required; null, where admitted, reads
    as the default too), its allowed values and the reader of its items.
    """

    types: tuple[type, ...]
    attr: str | None = None
    default: object = REQUIRED
    allowed: Where | None = None
    items: Callable[[object], object] | None = None

    def check(self, name: str, value: object) -> None:
        """A ``ValueError`` naming ``name`` unless this field admits ``value``: a type not admitted,
        a non-finite float (JSON has none), a value not allowed, or a string with a lone surrogate."""
        kind, allowed = type(value), self.allowed
        if kind not in self.types or kind is float and not isfinite(value) or allowed and not allowed.test(value):
            wording = allowed.wording if allowed else _TYPE_WORDS[self.types[0]]
            raise ValueError(f"{name} must be {wording}, got {_shown(value)}")
        if kind is str and not value.isascii() and (at := lone_surrogate(value)) is not None:
            raise ValueError(f"{name} holds a lone surrogate at index {at}, which UTF-8 cannot encode")


# each artifact's keys, in the order its rows hold them
CORPUS = ("id", "newspaper", "country", "city", "year", "text")
CORRECTED = CORPUS + ("llm_outcome", "llm_detail", "text_llm")
CLASSIFIED = CORRECTED + ("corrections",)
PROCESSED = CORPUS + ("status", "text_llm", "text_final", "corrections")
CORRECTION = (
    "original", "corrected", "label", "rule", "ratio", "position", "corrected_position",
    "original_raw", "corrected_raw", "accent_only", "frequency",
)


@cache
def _reader(
    keys: tuple[str, ...], prefix: str = "", build: Callable[..., object] = dict, items: bool = True
) -> Callable[[dict], object]:
    """Reads ``keys`` off one JSON object into ``build``'s keyword arguments: an absent key takes
    its default (a required one is a ``KeyError``), a present value goes through ``Field.check``,
    null reads as the default (``None`` for a required key), a list as a tuple or, if ``items``,
    its items read."""
    plan = [(key, FIELDS[key], FIELDS[key].attr or key, prefix + repr(key)) for key in keys]

    def read(obj: dict) -> object:
        values = {}
        for key, f, attr, name in plan:
            if key in obj:
                value = obj[key]
                f.check(name, value)
                if value is None:
                    value = None if f.default is REQUIRED else f.default
                elif type(value) is list:
                    value = [f.items(item) for item in value] if f.items and items else tuple(value)
            elif f.default is REQUIRED:
                raise KeyError(key)
            else:
                value = f.default
            values[attr] = value
        return build(**values)

    return read


def _correction(item: object) -> ClassifiedCorrection:
    """One correction; a surface form must also fit a lexicon row (:func:`applier.write_lexicon`):
    two distinct forms, each its words joined by single spaces, and a rule with no tab or line break."""
    if type(item) is not dict:
        raise ValueError(f"'corrections' items must be objects, got {_shown(item)}")
    correction = _reader(CORRECTION, "correction ", ClassifiedCorrection)(item)
    if correction.label == SURFACE_FORM:
        original, corrected, rule = correction.original, correction.corrected, correction.rule
        if original == corrected:
            raise ValueError(f"correction 'original' of a surface form must differ from 'corrected', got {_shown(original)}")
        for name, form in (("'original'", original), ("'corrected'", corrected)):
            if " ".join(form.split()) != form:
                raise ValueError(f"correction {name} of a surface form must be single-spaced words, got {_shown(form)}")
        if "\t" in rule or "".join(rule.splitlines()) != rule:  # a tab, or a line break
            raise ValueError(f"correction 'rule' of a surface form must hold no tab or line break, got {_shown(rule)}")
    return correction


_SPAN = Where("two integers", lambda span: len(span) == 2 and type(span[0]) is type(span[1]) is int)
FIELDS = {
    # the corpus record
    "id": Field(STRING, allowed=Where("a non-empty string", bool)),
    "newspaper": Field(STRING + NULL, default=""),
    "country": Field(STRING + NULL, default=""),
    "city": Field(STRING + NULL, default=None),
    "year": Field(INTEGER + NULL, default=None),
    "text": Field(STRING, allowed=Where("a string without NUL characters", lambda text: "\x00" not in text)),
    # what correct, classify and apply add; corrections stay null until classify
    "llm_outcome": Field(STRING, "outcome", allowed=one_of(OUTCOMES)),
    "llm_detail": Field(STRING, "detail", default=""),
    "text_llm": Field(STRING + NULL, default=None),
    "corrections": Field(ARRAY + NULL, default=None, items=_correction),
    "status": Field(STRING, allowed=one_of(STATUSES)),
    "text_final": Field(STRING + NULL, default=None),
    # one correction
    "original": Field(STRING),
    "corrected": Field(STRING),
    "label": Field(STRING, allowed=one_of((SURFACE_FORM, OCR_ERROR, HALLUCINATION))),
    "rule": Field(STRING),
    "ratio": Field(NUMBER + NULL),
    "position": Field(ARRAY, "original_span", allowed=_SPAN),
    "corrected_position": Field(ARRAY, "corrected_span", default=(0, 0), allowed=_SPAN),
    "original_raw": Field(STRING),
    "corrected_raw": Field(STRING),
    "accent_only": Field(BOOL),
    "frequency": Field(INTEGER, default=1, allowed=Where("an integer >= 1", lambda n: n >= 1)),
}


def _json_text(f: Field, v: str) -> str:
    """The JSON text of the value named ``v`` as one expression: a fast path for each JSON type
    ``f`` admits, as ``json.dumps`` writes it, and ``json.dumps`` for any other value (a
    non-finite float, a subclass, an unexpected type). An int or a float is formatted as the
    f-string formats it, with ``int.__repr__`` or ``float.__repr__``; items go through ``item``."""
    fast = [(f"{v} is None", '"null"')] if type(None) in f.types else []  # the cheapest test first
    fast += [(f"type({v}) is str", f"string({v})")] if str in f.types else []
    fast += [(f"{v} is True", '"true"'), (f"{v} is False", '"false"')] if bool in f.types else []
    fast += [(f"type({v}) is float and isfinite({v})", v)] if float in f.types else []
    fast += [(f"type({v}) is int", v)] if int in f.types else []
    if f.items:
        fast += [(f"type({v}) is list", f'"[" + ", ".join(map(item, {v})) + "]"')]
    elif list in f.types:  # a span
        fast += [(f"type({v}) is tuple and len({v}) == 2 and type({v}[0]) is type({v}[1]) is int", f'f"[{{{v}[0]}}, {{{v}[1]}}]"')]
    return "".join(f"{text} if {test} else " for test, text in fast) + f"dumps({v}, ensure_ascii=False)"


@cache
def _writer(keys: tuple[str, ...], nested: bool = False, end: str = "") -> Callable[[object], str]:
    """Writes the attributes that ``keys`` fill off one object as its JSON object, then ``end``,
    with the bytes of ``json.dumps(..., ensure_ascii=False)``: one f-string compiled per key
    list. ``nested`` reads the corpus keys off the object's ``record``."""
    ns = {"dumps": json.dumps, "string": encode_basestring, "isfinite": isfinite}
    ns["item"] = _writer(CORRECTION) if "corrections" in keys else None
    code = ["def write(obj):"] + (["    record = obj.record"] if nested else [])
    parts = []
    for n, key in enumerate(keys):
        f = FIELDS[key]
        code += [f"    v{n} = {'record' if nested and key in CORPUS else 'obj'}.{f.attr or key}"]
        parts += [f'"{key}": {{{_json_text(f, f"v{n}")}}}']
    text = "{{" + ", ".join(parts) + "}}" + end.replace("\n", "\\n")
    exec("\n".join(code + [f"    return f'{text}'"]), ns)
    return ns["write"]


class CorpusError(Exception):
    """Unrecoverable corpus problem (unreadable file, duplicate ids)."""


class LineDiagnostic(NamedTuple):
    line: int
    message: str
    severity: str = "error"  # error = line skipped, warning = accepted but flagged

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


class CorpusRecord(NamedTuple):
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


@dataclass(slots=True)
class CandidateRecord:
    """One record from ``correct`` to ``report``: the corpus record and what each stage sets.

    ``corrections`` stays ``None`` until classify has diffed the candidate
    against the original, and ``status`` until apply has judged the row.
    """

    record: CorpusRecord
    outcome: str | None
    detail: str = ""
    text_llm: str | None = None
    corrections: list[ClassifiedCorrection] | None = None
    status: str | None = None
    text_final: str | None = None


def ProcessedRecord(
    record: CorpusRecord, status: str, text_llm: str | None = None, text_final: str | None = None,
    corrections: list[ClassifiedCorrection] | None = None,
) -> CandidateRecord:
    """A row as apply leaves it, with exactly one status.

    ``text_final`` is present if and only if the record was corrected; it has
    the OCR errors applied and the surface forms left untouched. No
    ``corrections`` is an empty list.
    """
    FIELDS["status"].check("'status'", status)
    if (text_final is not None) != (status == STATUS_CORRECTED):
        raise ValueError("text_final must be present exactly when status is corrected")
    return CandidateRecord(record, None, "", text_llm, [] if corrections is None else corrections, status, text_final)


class LoadResult(NamedTuple):
    records: list  # CorpusRecord or CandidateRecord
    diagnostics: list[LineDiagnostic]

    @property
    def errors(self) -> list[LineDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def _read_rows(
    path: str | Path, kind: str, parse: Callable[[dict], object], diagnostics: list[LineDiagnostic]
) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, row)`` for each line that ``parse`` accepts.

    Other non-blank lines, undecodable ones and ones nested past the JSON parser's
    recursion limit too, go to ``diagnostics`` as errors in line order. The file is
    read one line at a time. Lines end at ``\\n`` only: JSON strings may hold U+2028
    or NEL. A UTF-8 byte order mark opens line 1 only: anywhere else it stays in the
    line, and JSON refuses it.
    """
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    # without its \n, a truncated row's error points into the row itself
                    line = raw.removesuffix(b"\n").decode("utf-8")
                    if lineno == 1:
                        line = line.removeprefix("\ufeff")
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("row is not an object")
                    row = parse(obj)
                except KeyError as exc:
                    diagnostics.append(LineDiagnostic(lineno, f"missing field {exc}"))
                except (ValueError, TypeError, RecursionError) as exc:
                    diagnostics.append(LineDiagnostic(lineno, str(exc)))
                else:
                    yield lineno, row
    except OSError as exc:
        raise CorpusError(f"cannot read {kind} file {path}: {exc}") from exc


def _load(
    path: str | Path, kind: str, build: Callable[..., CandidateRecord], keys: tuple[str, ...], items: bool = True
) -> LoadResult:
    """The rows of ``keys`` in a file: each its corpus record, then the rest of ``keys``, for ``build``."""
    diagnostics: list[LineDiagnostic] = []
    corpus, read = _reader(CORPUS, "", CorpusRecord), _reader(keys[len(CORPUS):], "", dict, items)
    rows = _read_rows(path, kind, lambda obj: build(corpus(obj), **read(obj)), diagnostics)
    return LoadResult([row for _, row in rows], diagnostics)


def load_corpus(path: str | Path) -> LoadResult:
    """Load corpus records in file order.

    Malformed lines are reported with their line number and skipped; records
    with a year outside the target range are accepted with a warning.
    Duplicate ids abort the load (downstream joins would be ambiguous).
    """
    result = LoadResult([], [])
    seen: dict[str, int] = {}
    for lineno, record in _read_rows(path, "corpus", _reader(CORPUS, "", CorpusRecord), result.diagnostics):
        if record.id in seen:
            raise CorpusError(
                f"{path}:{lineno}: duplicate id {record.id!r} (first seen on line {seen[record.id]})"
            )
        seen[record.id] = lineno
        if record.year is not None and not YEAR_RANGE[0] <= record.year <= YEAR_RANGE[1]:
            message = f"year {record.year} outside target range {YEAR_RANGE[0]}-{YEAR_RANGE[1]}"
            result.diagnostics.append(LineDiagnostic(lineno, message, severity="warning"))
        result.records.append(record)
    return result


def _candidate(record: CorpusRecord, outcome: str, **rest) -> CandidateRecord:
    if outcome == OUTCOME_GLOBAL_HALLUCINATION and rest["corrections"] is None:
        raise ValueError(f"'llm_outcome' {outcome!r} comes from classify, but the row has no 'corrections'")
    return CandidateRecord(record, outcome, **rest)


def load_candidates(path: str | Path, check_corrections: bool = True) -> LoadResult:
    """Load candidate rows (``corrected.jsonl`` or ``classified.jsonl``).

    Only a classified row, one with ``corrections``, may read ``global_hallucination``.
    Without ``check_corrections`` (classify, which derives them again), ``corrections``
    must still be a list or null, but its items are neither checked nor read.
    """
    return _load(path, "candidate", _candidate, CLASSIFIED, check_corrections)


def load_processed(path: str | Path) -> LoadResult:
    """Load processed rows (the pipeline output schema)."""
    return _load(path, "processed", ProcessedRecord, PROCESSED)


@contextmanager
def open_artifact(path: str | Path) -> Iterator[TextIO]:
    """A text file that replaces ``path`` as UTF-8 with ``\\n`` line ends, atomically, when the block ends.

    If the block raises, the previous file stays as it was and the temporary
    file beside it is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path`` through :func:`open_artifact`."""
    with open_artifact(path) as fh:
        fh.writelines(chunks)


def write_json(obj: dict, path: str | Path) -> None:
    """One indented JSON document (reports)."""
    write_artifact(path, [json.dumps(obj, ensure_ascii=False, indent=2) + "\n"])


def encode_row(record: CorpusRecord | CandidateRecord) -> str:
    """One record as its artifact line, byte-identical across runs: a candidate row as the last
    artifact it has reached projects it, processed once it has a status, classified once it has
    corrections, else corrected."""
    if isinstance(record, CorpusRecord):
        return _writer(CORPUS, False, "\n")(record)
    keys = PROCESSED if record.status is not None else CLASSIFIED if record.corrections is not None else CORRECTED
    return _writer(keys, True, "\n")(record)


def write_records(records: Iterable, path: str | Path) -> None:
    """One record per line, in order (:func:`encode_row`)."""
    write_artifact(path, map(encode_row, records))


write_corpus = write_processed = write_records
