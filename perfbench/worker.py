"""Runs histocr in a fresh process for one benchmark measurement.

Usage: ``python3 worker.py MODE WORKDIR WORKLOAD SECONDS`` where MODE is

- ``run``: time ``run_pipeline`` repeatedly for about SECONDS while sampling
  the host speed (see ``hostspeed.py``), checking that every rerun writes
  the same artifact bytes; after each run, start set-up probes
  (``setup_probe.py``), so they spread over the whole run;
- ``trace``: repeat passes of one untraced ``run_pipeline``, the same stages
  composed by hand inside spans, and a replay of the per-record layer calls
  inside spans, checking each against the one before.

The last line of standard output is one JSON object. ``run.py`` starts this
script; it is not meant to be called by hand.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import corpus
import hostspeed
from spans import SpanRecorder, layer_metrics, median_metrics

# the checkout this script sits in; histocr is imported from its sources
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"

import histocr  # noqa: E402
from histocr import pipeline  # noqa: E402
from histocr.applier import apply_corrections, emit_lexicon, write_lexicon  # noqa: E402
from histocr.classify import (  # noqa: E402
    _align_groups,
    aggregate_frequencies,
    apply_frequency_promotion,
    classify_hunks,
    classify_pair,
)
from histocr.cleaning import TOKENIZERS, clean_corpus  # noqa: E402
from histocr.client import (  # noqa: E402
    OUTCOME_CONTENT_POLICY,
    OUTCOME_OK,
    MockBackend,
    PromptTemplate,
    RetryPolicy,
    correct_text,
)
from histocr.config import PipelineConfig  # noqa: E402
from histocr.diffing import diff_words, similarity_ratio, tokenize_words  # noqa: E402
from histocr.records import (  # noqa: E402
    STATUS_CLEANED_OUT,
    STATUS_CORRECTED,
    STATUS_EXCLUDED_CONTENT_POLICY,
    STATUS_EXCLUDED_LLM_FAILURE,
    CorpusRecord,
    ProcessedRecord,
    load_corpus,
    load_processed,
    write_corpus,
    write_processed,
)
from histocr.reporting import build_report, write_report  # noqa: E402

ARTIFACTS = pipeline.ARTIFACTS
# set-up samples after each pipeline run: one per this many seconds of
# the run, at least one; and at least MIN_SETUP_PROBES in all
SETUP_EVERY_S = 2.5
MIN_SETUP_PROBES = 7


class BenchBackend:
    """The mock backend plus the workload's fixed per-call delay; with a
    recorder, each call is timed as a ``backend.complete`` span."""

    def __init__(self, inner: MockBackend, delay_s: float, recorder: SpanRecorder | None = None):
        self.inner = inner
        self.delay_s = delay_s
        self.recorder = recorder
        self.calls = 0  # read only where a single thread calls

    def complete(self, prompt: str, text: str) -> str:
        self.calls += 1
        if self.recorder is None:
            return self._call(prompt, text)
        with self.recorder.span("backend.complete"):
            return self._call(prompt, text)

    def _call(self, prompt: str, text: str) -> str:
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.inner.complete(prompt, text)


def make_config(workload: corpus.Workload, work: Path) -> PipelineConfig:
    concurrency = workload.concurrency or len(os.sched_getaffinity(0))
    return PipelineConfig(
        input=str(work / "corpus.jsonl"),
        backend="mock",
        mock_fixtures=str(work / "fixtures.jsonl"),
        concurrency=concurrency,
        backoff_base=workload.backoff_base,
    )


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def compare(expected: dict[str, bytes], out: Path, what: str, problems: list[str]) -> None:
    for name in ARTIFACTS:
        if not (out / name).exists():
            problems.append(f"{what}: {name} missing")
        elif (out / name).read_bytes() != expected[name]:
            problems.append(f"{what}: {name} differs")


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_pipeline(config: PipelineConfig, backend, out: Path) -> float:
    config = replace(config, output_dir=str(fresh(out)))
    start = time.perf_counter()
    code = pipeline.run_pipeline(config, backend=backend)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"run_pipeline exited with {code}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_probe(config: PipelineConfig) -> float:
    proc = subprocess.run(
        [
            sys.executable,
            str(SETUP_PROBE),
            str(ROOT / "src"),
            config.input,
            config.mock_fixtures,
            str(config.concurrency),
            str(config.backoff_base),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def mode_run(workload: corpus.Workload, work: Path, seconds: float) -> dict:
    config = make_config(workload, work)
    backend = BenchBackend(MockBackend(config.mock_fixtures), workload.call_delay_s)
    walls: list[float] = []
    references: list[float] = []
    times: list[float] = []
    setups: list[float] = []
    problems: list[str] = []
    first: dict[str, bytes] | None = None
    started = time.perf_counter()
    out = work / "out"
    while True:
        iteration_started = time.perf_counter()
        with hostspeed.Sampler() as sampler:
            cpu_started = time.process_time()
            wall = timed_pipeline(config, backend, out)
            cpu = time.process_time() - cpu_started
        if first is None:
            first = read_artifacts(out)
        else:
            compare(first, out, f"rerun {len(walls) + 1}", problems)
        # the run at the host speed sampled during it, less the sampling
        reference = statistics.median(sampler.samples) if sampler.samples else hostspeed.speed_now()
        wall -= sampler.spent_s
        walls.append(wall)
        references.append(reference)
        times.append(hostspeed.rescale(wall, cpu - sampler.spent_s, reference))
        setups += setup_probes(config, max(1, round(wall / SETUP_EVERY_S)))
        # stop where another run would end further past SECONDS than
        # stopping now ends before it, so runs average SECONDS
        now = time.perf_counter()
        if now - started + 0.5 * (now - iteration_started) > seconds:
            break
    if len(setups) < MIN_SETUP_PROBES:
        setups += setup_probes(config, MIN_SETUP_PROBES - len(setups))
    return {
        "pipeline_s": times,
        "pipeline_wall_s": walls,
        "reference_s": statistics.median(references),
        "setup_s": setups,
        "records_in": count_lines(out / "cleaned.jsonl"),
        "peak_rss_mb": peak_rss_mb(),
        "problems": problems,
        "out": str(out),
    }


def setup_probes(config: PipelineConfig, count: int) -> list[float]:
    """``count`` set-up times, each all CPU, at the host speed sampled just
    before it."""
    times = []
    for _ in range(count):
        reference = hostspeed.speed_now()
        setup = setup_probe(config)
        times.append(hostspeed.rescale(setup, setup, reference))
    return times


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def traced_stages(config: PipelineConfig, backend, out: Path, rec: SpanRecorder) -> None:
    """``run_pipeline``'s stage calls, one span each."""
    with rec.span("pipeline.clean"):
        pipeline.stage_clean(
            config,
            config.input,
            out / "cleaned.jsonl",
            removed_path=out / "removed.jsonl",
            report_path=out / "cleaning_report.json",
        )
    with rec.span("pipeline.correct"):
        pipeline.stage_correct(config, out / "cleaned.jsonl", out / "corrected.jsonl", backend=backend)
    with rec.span("pipeline.classify"):
        pipeline.stage_classify(config, out / "corrected.jsonl", out / "classified.jsonl")
    with rec.span("pipeline.apply"):
        pipeline.stage_apply(
            config,
            out / "classified.jsonl",
            out / "final.jsonl",
            lexicon_path=out / "lexicon.tsv",
            lexicon_nonaccent_path=out / "lexicon_nonaccent.tsv",
        )
    with rec.span("pipeline.report"):
        pipeline.stage_report(
            config, out / "final.jsonl", json_path=out / "report.json", text_path=out / "report.txt"
        )


def correction_key(c) -> tuple:
    return (tuple(c.original_span), c.original_raw, c.corrected_raw, c.label, c.rule)


def row_correction_key(d: dict) -> tuple:
    return (tuple(d["position"]), d["original_raw"], d["corrected_raw"], d["label"], d["rule"])


def replay(
    config: PipelineConfig,
    inner: MockBackend,
    delay_s: float,
    stages_out: Path,
    out: Path,
    rec: SpanRecorder,
    problems: list[str],
) -> Counter[str]:
    """The stages' per-record layer calls, in stage order, one span each.

    Checks every intermediate result against the stage artifacts in
    ``stages_out``; returns what it counted.
    """
    counts: Counter[str] = Counter()

    def same_file(name: str) -> None:
        if (out / name).read_bytes() != (stages_out / name).read_bytes():
            problems.append(f"replay: {name} differs from the stage composition")

    def written(name: str) -> None:
        counts["bytes_written"] += (out / name).stat().st_size
        same_file(name)

    # clean
    with rec.span("records.load_corpus"):
        loaded = load_corpus(config.input)
    with rec.span("cleaning.clean_corpus"):
        kept, removed, _report = clean_corpus(
            loaded.records,
            min_tokens=config.min_tokens,
            max_nonalpha=config.max_nonalpha,
            count_whitespace=config.count_whitespace,
            tokenizer=TOKENIZERS[config.tokenizer],
        )
    counts["rows"], counts["kept"] = len(loaded.records), len(kept)
    with rec.span("records.write_corpus"):
        write_corpus(kept, out / "cleaned.jsonl")
    written("cleaned.jsonl")
    with rec.span("records.write_processed"):
        write_processed(
            [ProcessedRecord(record=r, status=STATUS_CLEANED_OUT) for r, _ in removed],
            out / "removed.jsonl",
        )
    written("removed.jsonl")

    # correct and classify, record by record
    with rec.span("records.load_corpus"):
        records = load_corpus(out / "cleaned.jsonl").records
    backend = BenchBackend(inner, delay_s, rec)
    policy = RetryPolicy(max_attempts=config.retry_attempts, backoff_base=config.backoff_base)
    template = PromptTemplate.for_language("spanish")
    rules = pipeline.rule_table(config)
    cls_config = pipeline.classifier_config(config)
    results: list[tuple[CorpusRecord, str, str | None, list]] = []
    all_corrections = []
    for record in records:
        with rec.span("replay.record", record=record.id):
            calls_before = backend.calls
            with rec.span("client.correct_text"):
                result = correct_text(
                    record.text, backend, retry_policy=policy, template=template, max_chars=config.max_chars
                )
            counts["correct_calls"] += 1
            counts["records_called"] += backend.calls > calls_before
            outcome, text_llm = result.outcome, result.corrected_text
            corrections: list = []
            if outcome == OUTCOME_OK:
                counts["ok"] += 1
                with rec.span("diffing.similarity_ratio"):
                    ratio = similarity_ratio(record.text, text_llm or "")
                if ratio < config.hallucination_threshold:
                    counts["global_rejects"] += 1
                    outcome = pipeline.OUTCOME_GLOBAL_HALLUCINATION
            if outcome == OUTCOME_OK:
                with rec.span("diffing.diff_words"):
                    hunks = diff_words(tokenize_words(record.text), tokenize_words(text_llm))
                with rec.span("classify.classify_hunks"):
                    corrections = classify_hunks(hunks, rules, cls_config)
                counts["hunks"] += len(hunks)
                for hunk in hunks:
                    o_words = hunk.original_segment.split(" ")
                    c_words = hunk.corrected_segment.split(" ")
                    if hunk.kind != "replace" or (len(o_words) == 1 and len(c_words) == 1):
                        continue
                    counts["multiword_replace"] += 1
                    with rec.span("classify.align_groups"):
                        groups = _align_groups(o_words, c_words)
                    counts["decomposed"] += groups is not None
                for corr in corrections:
                    if corr.rule == "insert_delete":
                        continue
                    with rec.span("classify.classify_pair"):
                        again = classify_pair(
                            corr.original_raw, corr.corrected_raw, rules, cls_config,
                            corr.original_span, corr.corrected_span,
                        )
                    if again != corr:
                        problems.append(f"replay: classify_pair disagrees on {record.id} {corr.original_span}")
            results.append((record, outcome, text_llm, corrections))
            all_corrections += corrections
    counts["corrections"] = len(all_corrections)
    with rec.span("classify.aggregate_frequencies"):
        aggregate_frequencies(all_corrections)
    apply_frequency_promotion(all_corrections, cls_config)

    stage_rows = [json.loads(line) for line in (stages_out / "classified.jsonl").read_text(encoding="utf-8").splitlines()]
    if len(stage_rows) != len(results):
        problems.append("replay: row count differs from classified.jsonl")
    for row, (record, outcome, _text_llm, corrections) in zip(stage_rows, results):
        if row["id"] != record.id or row["llm_outcome"] != outcome:
            problems.append(f"replay: outcome of {record.id} differs from classified.jsonl")
        elif [row_correction_key(d) for d in row["corrections"]] != [correction_key(c) for c in corrections]:
            problems.append(f"replay: corrections of {record.id} differ from classified.jsonl")

    # apply
    processed: list[ProcessedRecord] = []
    for record, outcome, text_llm, corrections in results:
        if outcome == OUTCOME_OK:
            with rec.span("applier.apply_corrections", record=record.id):
                final = apply_corrections(record.text, corrections, modernize=config.modernize)
            processed.append(ProcessedRecord(record, STATUS_CORRECTED, text_llm, final, corrections))
        elif outcome == OUTCOME_CONTENT_POLICY:
            processed.append(ProcessedRecord(record, STATUS_EXCLUDED_CONTENT_POLICY))
        else:
            processed.append(ProcessedRecord(record, STATUS_EXCLUDED_LLM_FAILURE, text_llm))
    finals = {
        row["id"]: row["text_final"]
        for row in map(json.loads, (stages_out / "final.jsonl").read_text(encoding="utf-8").splitlines())
    }
    for item in processed:
        if finals.get(item.record.id) != item.text_final:
            problems.append(f"replay: final text of {item.record.id} differs from final.jsonl")
    with rec.span("records.write_processed"):
        write_processed(processed, out / "final.jsonl")
    written("final.jsonl")
    with rec.span("applier.emit_lexicon"):
        full, non_accent = emit_lexicon(all_corrections)
    counts["lexicon_entries"] = len(full)
    with rec.span("applier.write_lexicon"):
        write_lexicon(full, out / "lexicon.tsv")
        write_lexicon(non_accent, out / "lexicon_nonaccent.tsv")
    same_file("lexicon.tsv")
    same_file("lexicon_nonaccent.tsv")

    # report
    with rec.span("records.load_processed"):
        final_records = load_processed(out / "final.jsonl").records
    with rec.span("reporting.build_report"):
        report = build_report(final_records, tokenizer_id=config.tokenizer)
    with rec.span("reporting.write_report"):
        write_report(report, out / "report.json", fmt="structured")
        write_report(report, out / "report.txt", fmt="text")
    same_file("report.json")
    same_file("report.txt")
    return counts


def mode_trace(workload: corpus.Workload, work: Path, seconds: float) -> dict:
    config = make_config(workload, work)
    inner = MockBackend(config.mock_fixtures)
    backend = BenchBackend(inner, workload.call_delay_s)
    problems: list[str] = []
    passes: list[dict[str, float]] = []
    spans_path = work / "spans.jsonl"
    spans_path.unlink(missing_ok=True)
    recorders: list[SpanRecorder] = []
    started = time.perf_counter()
    untraced_out, stages_out, replay_out = work / "out", work / "stages", work / "replay"
    while True:
        pass_started = time.perf_counter()
        untraced = timed_pipeline(config, backend, untraced_out)
        expected = read_artifacts(untraced_out)
        rec = SpanRecorder()
        traced_stages(config, backend, fresh(stages_out), rec)
        compare(expected, stages_out, "stage composition", problems)
        counts = replay(config, inner, workload.call_delay_s, stages_out, fresh(replay_out), rec, problems)
        metrics = layer_metrics(rec.spans, counts)
        stage_total = sum(s.duration for s in rec.spans if s.name.startswith("pipeline."))
        metrics["trace.overhead_share"] = (stage_total - untraced) / untraced
        passes.append(metrics)
        recorders.append(rec)
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - pass_started) > seconds:
            break
    for index, rec in enumerate(recorders):
        rec.write(spans_path, trace_pass=index)
    per_layer = median_metrics(passes)
    per_layer["trace.passes"] = len(passes)
    return {"per_layer": per_layer, "problems": problems, "out": str(untraced_out)}


def main() -> None:
    mode, workdir, name, seconds = sys.argv[1:5]
    if not Path(histocr.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"histocr imported from {histocr.__file__}, outside {ROOT}")
    workload = corpus.WORKLOADS.get(name) or corpus.ROADMAP_BASELINE
    work = Path(workdir)
    seconds = float(seconds)
    if mode == "run":
        result = mode_run(workload, work, seconds)
    elif mode == "trace":
        result = mode_trace(workload, work, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
