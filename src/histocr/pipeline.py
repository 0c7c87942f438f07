"""Stage orchestration: clean -> correct -> classify -> apply -> report.

The data flow is two per-record maps around one corpus barrier, then two
folds. The first map takes a record through clean's filters, the model call
and :func:`classify_candidate`. The barrier, in :func:`classify_records`,
needs the whole corpus: correction frequencies, promotion, then the
``classified.jsonl`` write. The second map, :func:`apply_row`, sets each
row's status and final text. The folds are the lexicons
(:func:`apply_records`) and the report (:func:`report_records`).
:func:`_each` is the one caller of both per-record functions. In
:func:`run_pipeline`, classify's map runs in correct's arrival loop, on each
candidate as its response arrives; the ``classify`` command maps the rows it
loads.

Each stage has a core (``clean_records`` ... ``report_records``) that takes
the previous stage's records, writes its artifacts and returns ``(records,
problems)`` (``correct``: records neither ``ok`` nor refused; ``classify``:
wholesale rewrites; ``apply``: rows left out; others: none). From
``correct`` on, a record is one :class:`CandidateRecord` row that each core
fills in place; each artifact is its projection onto the artifact's keys
(:mod:`histocr.records`). :func:`run_pipeline` chains the cores: it writes
every artifact and reads none back. ``_STAGES`` defines each stage: its
input loader, its core and its artifacts, in the order the core takes their
paths. Each stage command (``stage_clean`` ... ``stage_report``) reads its
input with the row's loader, logs the line diagnostics, runs the core and
returns the lines skipped plus the records failed; strict mode exits 2 on
any. :func:`run_stage` runs one by name into ``config.output_dir`` under the
names :func:`run_pipeline` uses, so the commands chained through one
directory write its bytes. ``correct`` judges nothing: every threshold is
applied by ``classify``, so re-tuning one never repeats a model call.

Artifacts: ``cleaned.jsonl`` (surviving corpus records), ``removed.jsonl``
(status ``cleaned_out``), ``cleaning_report.json`` (per-filter counts),
``corrected.jsonl`` (backend outcome and output), ``classified.jsonl`` (plus
labeled corrections; a wholesale rewrite reads ``global_hallucination``),
``final.jsonl`` (final text, one status each), ``lexicon.tsv`` and
``lexicon_nonaccent.tsv`` (surface forms; all, and not accent-only), and
``report.json`` / ``report.txt`` (run statistics).
"""

from __future__ import annotations

import heapq
import logging
import threading
import time
from collections import Counter
from contextlib import closing, nullcontext
from functools import partial
from pathlib import Path
from typing import Callable, ContextManager, Generator, Iterable, Iterator

from .applier import SpanIntegrityError, apply_corrections, emit_lexicon, write_lexicon
from .classify import (
    ClassifierConfig,
    RuleTable,
    aggregate_frequencies,
    apply_frequency_promotion,
    classify_hunks,
    default_rules,
    load_rules,
)
from .cleaning import TOKENIZERS, clean_corpus
from .client import (
    BackendResult,
    CorrectionBackend,
    HttpChatBackend,
    MockBackend,
    RetryPolicy,
    correction_attempts,
)
from .config import PipelineConfig
from .diffing import diff_words, similarity_below, tokenize_words
from .records import (
    OUTCOME_CONTENT_POLICY,
    OUTCOME_GLOBAL_HALLUCINATION,
    OUTCOME_OK,
    STATUS_CLEANED_OUT,
    STATUS_CORRECTED,
    STATUS_EXCLUDED_CONTENT_POLICY,
    STATUS_EXCLUDED_LLM_FAILURE,
    CandidateRecord,
    CorpusError,
    CorpusRecord,
    LoadResult,
    ProcessedRecord,
    encode_row,
    load_candidates,
    load_corpus,
    load_processed,
    open_artifact,
    write_json,
    write_records,
)
from .reporting import build_report, write_report

logger = logging.getLogger(__name__)

def make_backend(config: PipelineConfig) -> CorrectionBackend:
    if config.backend == "http":
        return HttpChatBackend(
            endpoint=config.endpoint,
            model=config.model,
            api_key=config.api_key,
            temperature=config.temperature,
        )
    return MockBackend(config.mock_fixtures if config.backend == "mock" else None)


def _opened(config: PipelineConfig, backend: CorrectionBackend | None) -> ContextManager[CorrectionBackend]:
    """The caller's ``backend``, left open, or one :func:`make_backend` builds, closed (if it has
    ``close``) when the block ends."""
    built = make_backend(config) if backend is None else None
    return closing(built) if hasattr(built, "close") else nullcontext(built or backend)


def classifier_config(config: PipelineConfig) -> ClassifierConfig:
    return ClassifierConfig(
        ratio_threshold=config.ratio_threshold,
        max_corrected_words=config.max_corrected_words,
        promote_min_frequency=config.promote_min_frequency,
    )


def rule_table(config: PipelineConfig) -> RuleTable:
    if config.rules_path:
        return load_rules(config.rules_path)
    return default_rules()


def _stage(load, core, config: PipelineConfig, input_path: str | Path, *args, **kwargs) -> tuple[list, int]:
    """``core`` on the records ``load`` reads, diagnostics logged; problems count skipped lines too."""
    loaded = load(input_path)
    for diag in loaded.diagnostics:
        logger.warning("%s: %s", input_path, diag)
    records, problems = core(config, loaded.records, *args, **kwargs)
    return records, len(loaded.errors) + problems


def _load_classified(path: str | Path) -> LoadResult:
    """:func:`load_candidates`, refusing a row without the corrections classify adds."""
    loaded = load_candidates(path)
    for candidate in loaded.records:
        if candidate.corrections is None:
            raise CorpusError(f"{path}: record {candidate.record.id!r} has no corrections; run classify first")
    return loaded


class RecordError(Exception):
    """An exception that escaped a per-record function, raised from it; the message names the stage and the record."""


def _each(stage: str, call: Callable[[CandidateRecord], object], rows: Iterable) -> Iterator[CandidateRecord]:
    """``call`` on each row in order, yielding the row after its call: the one caller of the per-record functions.

    A row whose call raises :class:`SpanIntegrityError` (a correction that does not fit its text) is
    left out, with a warning. Any other exception stops the calls but not the rows, so a source that
    writes each row as it comes finishes its file; it is then raised as a :class:`RecordError`.
    """
    fault = None
    for row in rows:
        if fault is not None:
            continue
        try:
            call(row)
        except SpanIntegrityError as exc:
            logger.warning("%s: record %s left out: %s", stage, row.record.id, exc)
        except Exception as exc:
            fault = RecordError(f"{stage} on record {row.record.id}: {type(exc).__name__}: {exc}")
            fault.__cause__ = exc
        else:
            yield row
    if fault is not None:
        raise fault


def clean_records(
    config: PipelineConfig, records: list[CorpusRecord], output_path: str | Path,
    removed_path: str | Path, report_path: str | Path,
) -> tuple[list[CorpusRecord], int]:
    """Filter corpus records; write survivors, removed records and the report.

    Returns the surviving records; a removed record is no problem.
    """
    kept, removed, report = clean_corpus(
        records,
        min_tokens=config.min_tokens,
        max_nonalpha=config.max_nonalpha,
        count_whitespace=config.count_whitespace,
        tokenizer=TOKENIZERS[config.tokenizer],
    )
    write_records(kept, output_path)
    write_records([ProcessedRecord(r, STATUS_CLEANED_OUT) for r, _reason in removed], removed_path)
    write_json(report, report_path)
    counts = report["total_rows"], report["surviving"], report["total_rows"] - report["surviving"]
    logger.info("cleaning: %d rows in, %d kept, %d removed", *counts)
    return kept, 0


def _scheduled_attempts(
    attempts: Callable[[CorpusRecord], Generator[float, None, BackendResult]],
    records: list[CorpusRecord],
    slots: int,
) -> Generator[BackendResult, None, None]:
    """Each record's attempts run on ``slots`` threads; yields the results in input order.

    A free thread takes the earliest retry that is due, else the next record
    not yet started, else waits for the earliest due time. A record waiting
    out a retry delay sits on a heap keyed by its due time and holds no
    thread, so at most ``slots`` calls are in flight and no thread idles
    while a call is due. A record's result, or the exception that escaped
    its attempts (raised here), waits in its slot of one list until taken.
    Once the generator is closed, no attempt is started: the calls in
    flight finish and their threads are joined before ``close`` returns.
    """
    pending = object()
    results: list = [pending] * len(records)
    due: list[tuple[float, int, Generator]] = []
    fresh, stopped = 0, False
    ready = threading.Condition()

    def work() -> None:
        nonlocal fresh
        while True:
            with ready:
                while True:
                    if stopped:
                        return
                    if due and due[0][0] <= time.monotonic():
                        _, i, steps = heapq.heappop(due)
                        break
                    if fresh < len(records):
                        i, steps, fresh = fresh, None, fresh + 1
                        break
                    if not due:
                        return
                    ready.wait(due[0][0] - time.monotonic())
            try:
                if steps is None:
                    steps = attempts(records[i])
                delay, result = next(steps), pending
            except StopIteration as done:
                result = done.value
            except BaseException as exc:
                result = exc
            with ready:
                if result is pending:
                    heapq.heappush(due, (time.monotonic() + delay, i, steps))
                else:
                    results[i] = result
                    ready.notify_all()  # the caller may be waiting for this slot

    threads = [threading.Thread(target=work, name=f"histocr-correct-{n}") for n in range(slots)]
    try:
        for thread in threads:
            thread.start()
        for i in range(len(records)):
            with ready:
                ready.wait_for(lambda: results[i] is not pending)
                result, results[i] = results[i], None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        with ready:
            stopped = True
            ready.notify_all()
        for thread in threads:
            if thread.ident is not None:
                thread.join()


def correct_records(
    config: PipelineConfig, records: list[CorpusRecord], output_path: str | Path,
    backend: CorrectionBackend | None = None, classify: Callable[[CandidateRecord], object] | None = None,
) -> tuple[list[CandidateRecord], int]:
    """Fetch a corrected candidate for every cleaned record and write it as returned.

    Requests run on ``min(concurrency, len(records))`` threads, at most
    one call each, and a record waiting out a retry delay holds none of
    them (:func:`_scheduled_attempts`). Responses are taken in input order as
    they arrive, and each candidate's row is written then, as returned.
    ``classify``, if given, is then mapped over the candidates
    (:func:`_each`) while later responses are still awaited. If it raises,
    every remaining response is still taken and the file written before the
    error propagates, so no paid response is lost. With no ``backend``
    given, it builds one and closes it. Returns the candidates and the
    number of records that ended in anything but ``ok`` or a content-policy
    refusal.
    """
    policy = RetryPolicy(max_attempts=config.retry_attempts, backoff_base=config.backoff_base)
    outcomes = Counter()

    def arrivals(responses: Iterator[BackendResult]) -> Iterator[CandidateRecord]:
        with open_artifact(output_path) as out:
            for record, res in zip(records, responses):
                candidate = CandidateRecord(record, res.outcome, res.detail, res.corrected_text)
                outcomes[res.outcome] += 1
                out.write(encode_row(candidate))  # the row as returned, before classify labels the candidate
                yield candidate

    def attempts(record: CorpusRecord) -> Generator[float, None, BackendResult]:
        return correction_attempts(record.text, backend, policy, max_chars=config.max_chars)

    # an unvalidated config's concurrency below 1 still gets one thread, so no record waits forever
    responses = _scheduled_attempts(attempts, records, min(max(config.concurrency, 1), len(records)))
    # ``attempts`` calls the backend bound here, which, if built here, closes after the last call;
    # an interrupt closes the arrivals before their file is complete, which removes it
    with _opened(config, backend) as backend, closing(responses), closing(arrivals(responses)) as arrived:
        candidates = list(arrived if classify is None else _each("classify", classify, arrived))
    logger.info("correction outcomes: %s", dict(sorted(outcomes.items())))
    failed = len(records) - outcomes[OUTCOME_OK] - outcomes[OUTCOME_CONTENT_POLICY]
    return candidates, failed


def classify_candidate(
    candidate: CandidateRecord, rules: RuleTable, cls_config: ClassifierConfig, threshold: float, shared: dict
) -> CandidateRecord:
    """Diff one corrected candidate against its original and label the changes.

    Sets the candidate's ``corrections`` and outcome in place and returns it.
    An ``ok`` or ``global_hallucination`` candidate whose whole-text similarity
    to the original is below ``threshold`` rewrote the record wholesale: it is
    marked ``global_hallucination`` with no corrections, else ``ok``. ``shared`` is
    the run's table of values: each correction's strings and spans are
    swapped for the first equal value the run has seen, so the run holds one
    object per distinct value and the candidate's own copies are freed.
    """
    candidate.corrections = []
    if candidate.outcome not in (OUTCOME_OK, OUTCOME_GLOBAL_HALLUCINATION) or candidate.text_llm is None:
        return candidate
    if similarity_below(candidate.record.text, candidate.text_llm, threshold):
        candidate.outcome = OUTCOME_GLOBAL_HALLUCINATION
        return candidate
    candidate.outcome = OUTCOME_OK
    hunks = diff_words(tokenize_words(candidate.record.text), tokenize_words(candidate.text_llm))
    candidate.corrections = classify_hunks(hunks, rules, cls_config)
    # strings and spans only: ``1 == 1.0 == True``, so a shared number or bool could come back as another type
    share = shared.setdefault
    for c in candidate.corrections:
        c.original, c.corrected = share(c.original, c.original), share(c.corrected, c.corrected)
        c.original_raw, c.corrected_raw = share(c.original_raw, c.original_raw), share(c.corrected_raw, c.corrected_raw)
        c.original_span = share(c.original_span, c.original_span)
        c.corrected_span = share(c.corrected_span, c.corrected_span)
        c.rule = share(c.rule, c.rule)
    return candidate


def _classifier(config: PipelineConfig) -> Callable[[CandidateRecord], CandidateRecord]:
    """:func:`classify_candidate` with the rules table, loaded now, and a table of shared values for one run."""
    rules, cls_config, threshold = rule_table(config), classifier_config(config), config.hallucination_threshold
    return partial(classify_candidate, rules=rules, cls_config=cls_config, threshold=threshold, shared={})


def classify_records(
    config: PipelineConfig, candidates: list[CandidateRecord], output_path: str | Path,
    classify: Callable[[CandidateRecord], object] | None = None,
) -> tuple[list[CandidateRecord], int]:
    """``classify`` mapped over the candidates (in ``run``, correct's arrival loop did that), then the barrier.

    Counts each correction's frequency across the corpus, promotes frequent ones, writes the
    rows and returns them with the number of candidates marked ``global_hallucination``.
    """
    if classify is not None:
        candidates = list(_each("classify", classify, candidates))
    all_corrections = [c for candidate in candidates for c in candidate.corrections]
    aggregate_frequencies(all_corrections)
    promoted = apply_frequency_promotion(all_corrections, classifier_config(config))
    if promoted:
        logger.info("frequency promotion: %d corrections relabeled", promoted)

    write_records(candidates, output_path)
    logger.info("classified %d corrections across %d rows", len(all_corrections), len(candidates))
    return candidates, sum(c.outcome == OUTCOME_GLOBAL_HALLUCINATION for c in candidates)


def apply_row(row: CandidateRecord, modernize: bool) -> CandidateRecord:
    """Set a classified row's status and final text (OCR errors applied) in place; returns it.

    An excluded row then keeps no corrections, and a refused one no ``text_llm``. A correction
    that does not fit the text raises :class:`SpanIntegrityError` before the row changes.
    """
    if row.outcome == OUTCOME_OK:
        row.status, row.text_final = STATUS_CORRECTED, apply_corrections(row.record.text, row.corrections, modernize)
    elif row.outcome == OUTCOME_CONTENT_POLICY:
        row.status, row.text_llm, row.corrections = STATUS_EXCLUDED_CONTENT_POLICY, None, []
    else:  # transport_error, over_length, global_hallucination
        row.status, row.corrections = STATUS_EXCLUDED_LLM_FAILURE, []
    return row


def apply_records(
    config: PipelineConfig, rows: list[CandidateRecord], output_path: str | Path,
    lexicon_path: str | Path, lexicon_nonaccent_path: str | Path,
) -> tuple[list[CandidateRecord], int]:
    """:func:`apply_row` on every row, then the lexicon fold; returns the rows written and the number left out.

    Every row must carry the corrections that classify adds. The lexicon counts those of the rows
    written, as ``report.json`` does, so an excluded row's count for nothing.
    """
    applied = list(_each("apply", partial(apply_row, modernize=config.modernize), rows))
    write_records(applied, output_path)
    full, non_accent = emit_lexicon(c for row in applied for c in row.corrections)
    write_lexicon(full, lexicon_path)
    write_lexicon(non_accent, lexicon_nonaccent_path)
    counts = len(applied), len(full), len(non_accent)
    logger.info("applied corrections: %d records, %d surface forms (%d non-accent)", *counts)
    return applied, len(rows) - len(applied)


def report_records(
    config: PipelineConfig, processed: list[CandidateRecord], json_path: str | Path, text_path: str | Path
) -> tuple[list[CandidateRecord], int]:
    """Compute run statistics over the final processed corpus; returns the records unchanged."""
    report = build_report(processed, tokenizer_id=config.tokenizer)
    write_report(report, json_path, fmt="structured")
    write_report(report, text_path, fmt="text")
    return processed, 0


# each stage: its input loader, its core, and its artifacts in the order the core takes their paths
_STAGES = {
    "clean": (load_corpus, clean_records, ("cleaned.jsonl", "removed.jsonl", "cleaning_report.json")),
    "correct": (load_corpus, correct_records, ("corrected.jsonl",)),
    "classify": (partial(load_candidates, check_corrections=False), classify_records, ("classified.jsonl",)),
    "apply": (_load_classified, apply_records, ("final.jsonl", "lexicon.tsv", "lexicon_nonaccent.tsv")),
    "report": (load_processed, report_records, ("report.json", "report.txt")),
}
ARTIFACTS = tuple(name for _load, _core, names in _STAGES.values() for name in names)


def _command(name: str, config: PipelineConfig, input_path: str | Path, *args, **kwargs) -> int:
    """Stage ``name``'s core on the records its loader reads from ``input_path``;
    the arguments after it go to the core. Returns the input lines skipped plus
    the records failed."""
    load, core, _artifacts = _STAGES[name]
    if name == "classify":  # a malformed rules table fails before the input is read
        kwargs["classify"] = _classifier(config)
    return _stage(load, core, config, input_path, *args, **kwargs)[1]


stage_clean = partial(_command, "clean")
stage_correct = partial(_command, "correct")
stage_classify = partial(_command, "classify")
stage_apply = partial(_command, "apply")
stage_report = partial(_command, "report")


def _paths(name: str, config: PipelineConfig) -> list[Path]:
    return [Path(config.output_dir) / artifact for artifact in _STAGES[name][2]]


def run_stage(name: str, config: PipelineConfig) -> int:
    """Stage command ``name`` (``"clean"`` ... ``"report"``) on ``config.input``,
    its artifacts written into ``config.output_dir``; returns its problem count."""
    return _command(name, config, config.input, *_paths(name, config))


def run_pipeline(config: PipelineConfig, backend: CorrectionBackend | None = None) -> int:
    """Run all stages; returns the process exit code (0, or 2 in strict mode on any problem).

    The rules table is loaded and the backend built first, so a bad rules
    table or fixture file raises before any model call or artifact. A
    backend built here is closed when the run ends; the caller's stays open.
    """
    classify = _classifier(config)
    with _opened(config, backend) as backend:
        records, problems = _stage(load_corpus, clean_records, config, config.input, *_paths("clean", config))
        for name, (_load, core, _artifacts) in list(_STAGES.items())[1:]:
            extra = {"backend": backend, "classify": classify} if name == "correct" else {}
            records, failed = core(config, records, *_paths(name, config), **extra)
            problems += failed
    return 2 if config.strict and problems else 0
