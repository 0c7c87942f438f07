"""Span recording, self-time arithmetic and aggregation."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from spans import SpanRecorder, layer_metrics, percentile, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("replay.record", record="r1"):
        clock.advance(1)
        with rec.span("client.correct_text"):
            clock.advance(2)
            with rec.span("backend.complete"):
                clock.advance(4)
            clock.advance(0.5)
        with rec.span("diffing.similarity_ratio"):
            clock.advance(3)
        clock.advance(0.25)
    names = [s.name for s in rec.spans]
    assert names == ["replay.record", "client.correct_text", "backend.complete", "diffing.similarity_ratio"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert {s.record for s in rec.spans} == {"r1"}  # children inherit the record id
    assert [s.duration for s in rec.spans] == [10.75, 6.5, 4, 3]
    assert self_times(rec.spans) == [1.25, 2.5, 4, 3]


def test_percentile():
    assert percentile([], 99) == 0.0
    assert percentile([7.0], 50) == 7.0
    values = [float(v) for v in range(1, 102)]
    assert percentile(values, 50) == pytest.approx(51.0)
    assert percentile(values, 99) == pytest.approx(100.0)


def test_span_closes_on_exception():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with pytest.raises(ValueError):
        with rec.span("diffing.diff_words"):
            clock.advance(2)
            raise ValueError
    with rec.span("classify.classify_hunks"):
        pass
    assert rec.spans[0].duration == 2
    assert rec.spans[1].parent is None


def test_write_appends_json_lines(tmp_path):
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("records.load_corpus"):
        clock.advance(1)
    path = tmp_path / "spans.jsonl"
    rec.write(path, trace_pass=0)
    rec.write(path, trace_pass=1)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["trace_pass"] for r in rows] == [0, 1]
    assert rows[0]["name"] == "records.load_corpus" and rows[0]["end"] == 1


def test_layer_metrics_from_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("pipeline.correct"):
        clock.advance(5)
    for rid, wait in (("r1", 0.002), ("r2", 0.004)):
        with rec.span("replay.record", record=rid):
            with rec.span("client.correct_text"):
                clock.advance(0.001)
                with rec.span("backend.complete"):
                    clock.advance(wait)
            with rec.span("backend.complete"):  # a retry outside correct_text
                clock.advance(0.5)
    counts = Counter(records_called=2, correct_calls=2, ok=2, global_rejects=1, rows=4, kept=3)
    m = layer_metrics(rec.spans, counts)
    assert m["pipeline.correct_s"] == 5
    assert m["client.correct_text_calls"] == 2
    assert m["client.correct_text_ms.p50"] == pytest.approx(4.0)
    assert m["client.backend_calls"] == 4
    assert m["client.retries"] == 2
    assert m["client.backend_wait_s"] == pytest.approx(1.006)
    assert m["client.self_s"] == pytest.approx(0.002)
    assert m["client.global_reject_share"] == 0.5
    assert m["cleaning.kept_share"] == 0.75
    assert m["trace.replay_self_s"] == pytest.approx(0.0)
    assert m["classify.align_groups_calls"] == 0 and m["classify.align_groups_ms.p99"] == 0.0
