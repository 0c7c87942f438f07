"""In-memory span recorder, self time, and per-layer metric aggregation.

A span records its name, start, end, parent span and record id. Spans stay
in memory while the benchmark runs and are written out once at the end.
Spans open and close on a strict stack, so children never overlap; a span's
self time is its duration minus its children's durations.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the recorder's list
    record: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans from one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, record: str | None = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if record is None and parent is not None:
            record = self.spans[parent].record
        index = len(self.spans)
        span = Span(name, self.clock(), 0.0, parent, record)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def write(self, path: Path, **extra) -> None:
        """Append every span as one JSON line, with ``extra`` fields."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({**extra, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Layers whose self time is reported; "backend" is the mock behind the
# client and is reported as client.backend_wait_s instead.
LAYERS = ("records", "cleaning", "client", "diffing", "classify", "applier", "reporting")
STAGES = ("clean", "correct", "classify", "apply", "report")


def layer_metrics(spans: list[Span], counts: Counter[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counts`` holds what the replay counted rather than timed: bytes
    written, kept records, backend outcomes, hunks and decompositions.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        durations[span.name].append(span.duration)

    def total(*names: str) -> float:
        return sum(sum(durations[n]) for n in names)

    def ms(name: str) -> list[float]:
        return [d * 1000.0 for d in durations[name]]

    def share(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    m["records.load_s"] = total("records.load_corpus", "records.load_processed")
    m["records.write_s"] = total("records.write_corpus", "records.write_processed")
    m["records.bytes_written"] = counts["bytes_written"]
    m["cleaning.clean_corpus_s"] = total("cleaning.clean_corpus")
    m["cleaning.kept_share"] = share("kept", "rows")
    for name, pcts in (
        ("client.correct_text", (50, 99)),
        ("diffing.similarity_ratio", (50, 99)),
        ("diffing.diff_words", (50, 99)),
        ("classify.classify_hunks", (50, 99)),
        ("classify.classify_pair", (99,)),
        ("classify.align_groups", (50, 99)),
        ("applier.apply_corrections", (50, 99)),
    ):
        samples = ms(name)
        for q in pcts:
            m[f"{name}_ms.p{q}"] = percentile(samples, q)
        m[f"{name}_calls"] = len(samples)
        m[f"{name}_s"] = total(name)
    m["client.backend_wait_s"] = total("backend.complete")
    m["client.backend_calls"] = len(durations["backend.complete"])
    m["client.retries"] = m["client.backend_calls"] - counts["records_called"]
    m["client.ok_share"] = share("ok", "correct_calls")
    m["client.global_reject_share"] = share("global_rejects", "ok")
    m["diffing.hunks"] = counts["hunks"]
    m["classify.decomposed_share"] = share("decomposed", "multiword_replace")
    m["classify.corrections"] = counts["corrections"]
    m["classify.aggregate_s"] = total("classify.aggregate_frequencies")
    m["applier.emit_lexicon_s"] = total("applier.emit_lexicon")
    m["applier.lexicon_entries"] = counts["lexicon_entries"]
    m["reporting.build_report_s"] = total("reporting.build_report")
    m["reporting.write_report_s"] = total("reporting.write_report")

    selfs = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_layer[span.name.split(".", 1)[0]] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    # the replay's own per-record bookkeeping, outside every layer call
    m["trace.replay_self_s"] = by_layer["replay"]
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
