import _thread
import hashlib
import importlib
import json
import math
import pkgutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import closing
from dataclasses import asdict, is_dataclass
from difflib import SequenceMatcher
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_CORRECTED, GOLDEN_ORIGINAL
import histocr
from histocr import client, pipeline, records
from histocr.classify import ClassifiedCorrection
from histocr.client import MockBackend
from histocr.config import PipelineConfig
from histocr.pipeline import ARTIFACTS, run_pipeline, stage_apply, stage_classify, stage_clean, stage_correct, stage_report
from histocr.records import (
    STATUS_CLEANED_OUT,
    STATUS_CORRECTED,
    STATUS_EXCLUDED_CONTENT_POLICY,
    STATUS_EXCLUDED_LLM_FAILURE,
    CandidateRecord,
    CorpusRecord,
    load_candidates,
    load_processed,
    write_records,
)


# sha256 of every artifact of the pipeline-fixture run; a deliberate change to
# the artifact bytes updates these and says so in CHANGES.md
ARTIFACT_SHA256 = {
    "cleaned.jsonl": "edc485b3b6c86c22f7bdeb753282679417643a89fc9cd43bbcda9f42831e7aba",
    "removed.jsonl": "e009b8b93989e943518aeb91f41f91508c6505fcbfb5757ed5e9bd8d73eb82c2",
    "cleaning_report.json": "afc7a83f9624791f51a402550df80fdb91874ba954e675165d4713331a4280c2",
    "corrected.jsonl": "3f3cf41c687a962843ac6bb09c7971c042ee724057e5a558d0b7598218717016",
    "classified.jsonl": "78ed14f23ee83e2353620d72c1e4164d892ac7c0e76a8c3ca7de8a0b1cd20670",
    "final.jsonl": "18ee8b048b088ba72c0994f71dff361fa91077792c95af401229bcb0343ddc6f",
    "lexicon.tsv": "f317c26997b0272ecad7b7ea1cac5bd43a52350acb6f5f3cbc870820c07bc8d4",
    "lexicon_nonaccent.tsv": "3a68f43e415b1dbae78adf640ec0c02d18adbaabaad447a50ea2701477cbb7f6",
    "report.json": "6d05d3497a27b1f8bdc66361a1d28b3358cc8f6ef55ddca79d051776795e43a1",
    "report.txt": "274d5912ccaeadd8bfb640b3fd6c03683748f465a62b5bfc5e4bc3fcca00a090",
}


def make_config(corpus, fixtures, out_dir, **overrides) -> PipelineConfig:
    values = dict(
        input=str(corpus),
        output_dir=str(out_dir),
        backend="mock",
        mock_fixtures=str(fixtures),
        concurrency=2,
        retry_attempts=2,
        backoff_base=0.0,
        max_chars=500,
        hallucination_threshold=0.5,
    )
    values.update(overrides)
    return PipelineConfig(**values)


@pytest.fixture
def run_dir(pipeline_fixture, tmp_path):
    corpus, fixtures = pipeline_fixture
    out = tmp_path / "out"
    config = make_config(corpus, fixtures, out)
    assert config.validate() == []
    code = run_pipeline(config)
    assert code == 0
    return out


class TestRunPipeline:
    def test_all_artifacts_written(self, run_dir):
        for name in ARTIFACTS:
            assert (run_dir / name).is_file(), name

    def test_statuses(self, run_dir):
        final = {p.record.id: p for p in load_processed(run_dir / "final.jsonl").records}
        assert len(final) == 16
        for rec_id in ("p01", "p02", "p03", "p07", "p08", "p09", "p10",
                       "p15", "p16", "p17", "p18", "p19"):
            assert final[rec_id].status == STATUS_CORRECTED, rec_id
        assert final["p04"].status == STATUS_EXCLUDED_CONTENT_POLICY
        for rec_id in ("p05", "p06", "p20"):
            assert final[rec_id].status == STATUS_EXCLUDED_LLM_FAILURE, rec_id

    def test_cleaned_out_records(self, run_dir):
        removed = load_processed(run_dir / "removed.jsonl").records
        assert {p.record.id for p in removed} == {"p11", "p12", "p13", "p14"}
        assert all(p.status == STATUS_CLEANED_OUT for p in removed)

    def test_final_texts_fix_ocr_and_keep_surface_forms(self, run_dir):
        final = {p.record.id: p for p in load_processed(run_dir / "final.jsonl").records}
        assert final["p01"].text_final == (
            "La publicacion se harà cada semana, sin falta alguna."
        )
        assert final["p02"].text_final == final["p02"].record.text  # surface forms only
        assert final["p08"].text_final == (
            "En órden al asunto pendiente se resolvió aplazar la vista."
        )
        assert final["p17"].text_final == final["p17"].record.text  # hallucination dropped
        assert final["p18"].text_final == (
            "La sesion abrió á las dos y un minuto de la noche."
        )

    def test_input_order_preserved(self, run_dir):
        ids = [p.record.id for p in load_processed(run_dir / "final.jsonl").records]
        assert ids == sorted(ids, key=lambda s: int(s[1:]))

    def test_lexicon_contents(self, run_dir):
        lines = (run_dir / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        body = [line.split("\t") for line in lines[1:]]
        pairs = {(row[0], row[1]) for row in body}
        assert ("jeneral", "general") in pairs
        assert ("cambiólo", "lo cambió") in pairs
        assert ("dore", "dos") not in pairs  # OCR errors are not surface forms
        non_accent = (run_dir / "lexicon_nonaccent.tsv").read_text(encoding="utf-8")
        assert "mui\tmuy" in non_accent
        assert "harà" not in non_accent  # accent-only stays out of the sublist

    def test_report_counts_the_lexicon_rows(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))

        def data_rows(name):
            return len((run_dir / name).read_text(encoding="utf-8").splitlines()) - 1

        assert report["surface_forms"] == data_rows("lexicon.tsv") > 0
        assert report["non_accent_surface_forms"] == data_rows("lexicon_nonaccent.tsv") > 0

    def test_cleaning_report(self, run_dir):
        report = json.loads((run_dir / "cleaning_report.json").read_text(encoding="utf-8"))
        assert report["total_rows"] == 20
        assert report["removed_duplicate_or_empty"] == 2
        assert report["removed_non_alpha"] == 1
        assert report["removed_short"] == 1
        assert report["surviving"] == 16

    def test_run_report(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        assert report["rows"] == 16
        assert report["total_corrections"] == 20
        assert report["pct_surface_form"] == pytest.approx(65.0)
        assert report["pct_ocr_error"] == pytest.approx(25.0)
        assert report["pct_hallucination"] == pytest.approx(10.0)
        assert report["pct_content_policy_excluded"] == pytest.approx(100.0 / 16)
        assert report["surface_forms"] == 13
        # non-accent: jeneral, mui, cambiólo, acercóse, méjico, urjía
        assert report["non_accent_surface_forms"] == 6
        assert report["decade_distribution"] == {"1840": 5, "1860": 5, "1870": 5}
        assert report["rows_without_year"] == 1

    def test_artifact_bytes_are_pinned(self, run_dir):
        assert set(ARTIFACT_SHA256) == set(ARTIFACTS)
        for name in ARTIFACTS:
            assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == ARTIFACT_SHA256[name], name
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(ARTIFACTS)  # no temporary files

    def test_byte_identical_across_runs(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(make_config(corpus, fixtures, out_a))
        run_pipeline(make_config(corpus, fixtures, out_b))
        for name in ARTIFACTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def run_stages(config: PipelineConfig, out: Path) -> None:
    """The stage commands chained through their files, as ``run_pipeline`` would run them."""
    out.mkdir()
    stage_clean(
        config, config.input, out / "cleaned.jsonl",
        removed_path=out / "removed.jsonl", report_path=out / "cleaning_report.json",
    )
    stage_correct(config, out / "cleaned.jsonl", out / "corrected.jsonl")
    stage_classify(config, out / "corrected.jsonl", out / "classified.jsonl")
    stage_apply(
        config, out / "classified.jsonl", out / "final.jsonl",
        lexicon_path=out / "lexicon.tsv", lexicon_nonaccent_path=out / "lexicon_nonaccent.tsv",
    )
    stage_report(config, out / "final.jsonl", json_path=out / "report.json", text_path=out / "report.txt")


class TestStageComposition:
    def test_stages_match_run(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        out_run, out_stages = tmp_path / "run", tmp_path / "stages"
        assert run_pipeline(make_config(corpus, fixtures, out_run)) == 0
        run_stages(make_config(corpus, fixtures, out_stages), out_stages)
        for name in ARTIFACTS:
            assert (out_run / name).read_bytes() == (out_stages / name).read_bytes(), name

    def test_stages_match_run_with_out_of_range_year(self, tmp_path, caplog):
        rows = [
            ("y1", 1795, "El jeneral llegó á la villa con su tropa y mui poca jente.",
             "El general llegó a la villa con su tropa y muy poca gente."),
            ("y2", 1850, "La publicacion se harà cada se mana sin falta alguna.",
             "La publicación se hará cada semana sin falta alguna."),
            ("y3", None, "Se dió cuenta del estado de la hacienda pública.", None),
        ]
        corpus, fixtures = tmp_path / "corpus.jsonl", tmp_path / "fixtures.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": rid, "year": year, "text": text}, ensure_ascii=False) + "\n"
            for rid, year, text, _ in rows
        ), encoding="utf-8")
        fixtures.write_text("".join(
            json.dumps({"input_hash": MockBackend.hash_text(text), "output": output}, ensure_ascii=False) + "\n"
            for _, _, text, output in rows if output is not None
        ), encoding="utf-8")
        out_run, out_stages = tmp_path / "run", tmp_path / "stages"
        assert run_pipeline(make_config(corpus, fixtures, out_run, strict=True)) == 0
        # the run reads its corpus once, so it warns about the year once
        assert caplog.text.count("year 1795 outside target range") == 1
        run_stages(make_config(corpus, fixtures, out_stages), out_stages)
        final = {p.record.id: p for p in load_processed(out_run / "final.jsonl").records}
        assert final["y1"].record.year == 1795
        assert all(p.status == STATUS_CORRECTED for p in final.values())
        for name in ARTIFACTS:
            assert (out_run / name).read_bytes() == (out_stages / name).read_bytes(), name

    def test_run_reads_none_of_its_own_artifacts(self, pipeline_fixture, tmp_path, monkeypatch):
        corpus, fixtures = pipeline_fixture
        opened = []
        read_rows = records._read_rows

        def recording_read_rows(path, *args):
            opened.append(Path(path))
            return read_rows(path, *args)

        # the stage loaders and the mock backend's fixture loader
        monkeypatch.setattr(records, "_read_rows", recording_read_rows)
        monkeypatch.setattr(client, "_read_rows", recording_read_rows)
        out = tmp_path / "out"
        assert run_pipeline(make_config(corpus, fixtures, out)) == 0
        assert sorted(opened) == sorted([Path(corpus), Path(fixtures)])
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)


class TestPerRecordCalls:
    @pytest.mark.parametrize("how", ["run", "stage-commands"])
    def test_each_per_record_function_runs_once_per_row(self, pipeline_fixture, tmp_path, monkeypatch, how):
        corpus, fixtures = pipeline_fixture
        calls = {"classify_candidate": [], "apply_row": []}
        for name, seen in calls.items():
            def recording(row, *args, real=getattr(pipeline, name), seen=seen, **kwargs):
                seen.append(row.record.id)
                return real(row, *args, **kwargs)

            monkeypatch.setattr(pipeline, name, recording)
        out = tmp_path / "out"
        config = make_config(corpus, fixtures, out)
        if how == "run":
            assert run_pipeline(config) == 0
        else:
            run_stages(config, out)
        ids = [c.record.id for c in load_candidates(out / "corrected.jsonl").records]
        assert calls == {"classify_candidate": ids, "apply_row": ids}


class OutOfOrderBackend(MockBackend):
    """Holds its first request until another has been answered, so responses finish out of order."""

    def __init__(self, fixture_path):
        super().__init__(fixture_path)
        self.first = None
        self.answered = threading.Event()
        self.finished = []  # texts, in the order their responses finished
        self.lock = threading.Lock()

    def complete(self, prompt: str, text: str) -> str:
        with self.lock:
            if self.first is None:
                self.first = text
        if text == self.first:
            assert self.answered.wait(10)
        try:
            return super().complete(prompt, text)
        finally:
            self.finished.append(text)
            if text != self.first:
                self.answered.set()


class TestSchedules:
    """Every schedule of the correct and classify work writes the pinned bytes."""

    @pytest.mark.parametrize("schedule", ["concurrency-1", "concurrency-4-out-of-order", "stage-commands"])
    def test_artifacts_are_the_pinned_bytes(self, pipeline_fixture, tmp_path, schedule):
        corpus, fixtures = pipeline_fixture
        out = tmp_path / "out"
        if schedule == "concurrency-1":
            assert run_pipeline(make_config(corpus, fixtures, out, concurrency=1)) == 0
        elif schedule == "concurrency-4-out-of-order":
            backend = OutOfOrderBackend(fixtures)
            assert run_pipeline(make_config(corpus, fixtures, out, concurrency=4), backend=backend) == 0
            assert backend.finished[0] != backend.first
        else:
            run_stages(make_config(corpus, fixtures, out), out)
        for name in ARTIFACTS:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == ARTIFACT_SHA256[name], name
        corrected = {c.record.id: c.outcome for c in load_candidates(out / "corrected.jsonl").records}
        classified = {c.record.id: c.outcome for c in load_candidates(out / "classified.jsonl").records}
        assert set(corrected.values()) == {"ok", "content_policy_refusal", "transport_error", "over_length"}
        # the wholesale rewrite is written as returned, and judged only in classified.jsonl
        assert (corrected["p06"], classified["p06"]) == ("ok", "global_hallucination")


def artifacts_of(lines: list[str], fixtures: Path) -> dict[str, object]:
    """Run the pipeline in-process on a corpus of ``lines``: each ``.jsonl`` artifact's
    rows sorted by id, and every other artifact's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "out"
        corpus.write_text("".join(lines), encoding="utf-8")
        assert run_pipeline(make_config(corpus, fixtures, out)) == 0
        return {
            name: sorted((json.loads(line) for line in (out / name).open(encoding="utf-8")), key=lambda r: r["id"])
            if name.endswith(".jsonl") else (out / name).read_bytes()
            for name in ARTIFACTS
        }


class TestInputOrder:
    # the duplicate filter keeps the first record of a text, so only a corpus of distinct
    # texts is order-free; the fixture is only read, so every example may share it
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_permuted_corpus_gives_the_same_rows_and_bytes(self, pipeline_fixture, data):
        corpus, fixtures = pipeline_fixture
        first_of_text = {}
        for line in corpus.read_text(encoding="utf-8").splitlines(keepends=True):
            first_of_text.setdefault(json.loads(line)["text"], line)
        lines = list(first_of_text.values())
        assert len(lines) == 19
        assert artifacts_of(data.draw(st.permutations(lines)), fixtures) == artifacts_of(lines, fixtures)


class RecordingBackend(MockBackend):
    def __init__(self, fixture_path):
        super().__init__(fixture_path)
        self.texts = []  # one entry per call

    def complete(self, prompt: str, text: str) -> str:
        self.texts.append(text)
        return super().complete(prompt, text)


class TestLoneSurrogateResponse:
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_costs_one_record(self, pipeline_fixture, tmp_path, concurrency):
        corpus, fixtures = pipeline_fixture
        ok, out = tmp_path / "ok", tmp_path / "out"
        # three attempts each: a response with a lone surrogate must not be retried
        clean_backend = RecordingBackend(fixtures)
        assert run_pipeline(make_config(corpus, fixtures, ok, concurrency=concurrency, retry_attempts=3), clean_backend) == 0
        rows = (ok / "corrected.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        target = next(i for i, line in enumerate(rows) if json.loads(line)["llm_outcome"] == "ok")
        text = json.loads(rows[target])["text"]
        # a later fixture row for the same text wins
        bad_fixtures = tmp_path / "fixtures.jsonl"
        entry = json.dumps({"input_hash": MockBackend.hash_text(text), "output": text + " \ud800"})
        bad_fixtures.write_text(fixtures.read_text(encoding="utf-8") + entry + "\n", encoding="utf-8")
        backend = RecordingBackend(bad_fixtures)
        config = make_config(corpus, bad_fixtures, out, concurrency=concurrency, retry_attempts=3)
        assert run_pipeline(config, backend=backend) == 0
        written = (out / "corrected.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert written[:target] + written[target + 1:] == rows[:target] + rows[target + 1:]
        row = json.loads(written[target])
        assert (row["llm_outcome"], row["text_llm"]) == ("transport_error", None)
        assert row["llm_detail"].startswith("not retried: response holds a lone surrogate at index ")
        assert Counter(backend.texts) == Counter(clean_backend.texts)
        assert Counter(backend.texts)[text] == 1
        assert set(ARTIFACTS) <= {p.name for p in out.iterdir()}


class TestClassifyErrorInRun:
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_no_paid_response_is_lost(self, pipeline_fixture, tmp_path, monkeypatch, concurrency):
        corpus, fixtures = pipeline_fixture
        # one attempt per record, so every record reaching the backend is one call
        ok, out = tmp_path / "ok", tmp_path / "failed"
        assert run_pipeline(make_config(corpus, fixtures, ok, concurrency=concurrency, retry_attempts=1)) == 0
        classify_calls = []

        def fails_on_the_second_record(hunks, *args):
            classify_calls.append(hunks)
            if len(classify_calls) == 2:
                raise ValueError("cascade failed")
            return classify_hunks(hunks, *args)

        classify_hunks = pipeline.classify_hunks
        monkeypatch.setattr(pipeline, "classify_hunks", fails_on_the_second_record)
        backend = RecordingBackend(fixtures)
        config = make_config(corpus, fixtures, out, concurrency=concurrency, retry_attempts=1)
        with pytest.raises(pipeline.RecordError, match=r"^classify on record \w+: ValueError: cascade failed$") as raised:
            run_pipeline(config, backend=backend)
        assert isinstance(raised.value.__cause__, ValueError)
        assert len(classify_calls) == 2  # classify stopped at the error
        assert (out / "corrected.jsonl").read_bytes() == (ok / "corrected.jsonl").read_bytes()
        candidates = load_candidates(out / "corrected.jsonl").records
        sent = [c.record.text for c in candidates if c.outcome != "over_length"]
        assert Counter(backend.texts) == Counter(sent)
        assert set(Counter(sent).values()) == {1}
        written = sorted(p.name for p in out.iterdir())
        assert written == ["cleaned.jsonl", "cleaning_report.json", "corrected.jsonl", "removed.jsonl"]

    def test_interrupt_sends_no_further_request(self, pipeline_fixture, tmp_path, monkeypatch):
        corpus, fixtures = pipeline_fixture
        config = make_config(corpus, fixtures, tmp_path / "out", concurrency=2, backoff_base=1.0)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        kept, _ = pipeline.clean_records(
            config, records.load_corpus(corpus).records, scratch / "c", scratch / "r", scratch / "j"
        )
        first, second = kept[0].text, kept[1].text

        def interrupted(hunks, *args):
            raise KeyboardInterrupt

        class SlowBackend(RecordingBackend):
            """The second record's first attempt fails at once, and the first
            record's response waits for that, so the interrupt comes while the
            second record waits out its backoff. Other calls take 50 ms."""

            failed = threading.Event()

            def complete(self, prompt: str, text: str) -> str:
                if text == second and not self.failed.is_set():
                    self.texts.append(text)
                    self.failed.set()
                    raise client.TransportError("busy")
                if text == first:
                    assert self.failed.wait(10)
                else:
                    time.sleep(0.05)
                return super().complete(prompt, text)

        monkeypatch.setattr(pipeline, "classify_hunks", interrupted)
        backend = SlowBackend(fixtures)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config, backend=backend)
        # the first candidate's classify is interrupted; only requests already running finish
        assert len(backend.texts) <= 4
        # and the record waiting out its backoff is not retried
        assert backend.texts.count(second) == 1


class InFlightBackend(MockBackend):
    """Counts the calls in flight; each text's first attempt fails with a retryable error."""

    def __init__(self, fixture_path):
        super().__init__(fixture_path)
        self.lock = threading.Lock()
        self.in_flight = self.most_in_flight = 0
        self.calls = Counter()

    def complete(self, prompt: str, text: str) -> str:
        with self.lock:
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            self.calls[text] += 1
            first_attempt = self.calls[text] == 1
        try:
            time.sleep(0.002)
            if first_attempt:
                raise client.TransportError("busy")
            return super().complete(prompt, text)
        finally:
            with self.lock:
                self.in_flight -= 1


class Halt(BaseException):
    """Not an ``Exception``: the client's per-record isolation does not catch it."""


class TestScheduledAttempts:
    """At every concurrency, a record waiting out a retry delay holds no request slot."""

    @pytest.mark.parametrize("concurrency", [1, 2, 3])
    def test_in_flight_calls_never_exceed_concurrency(self, pipeline_fixture, tmp_path, concurrency):
        corpus, fixtures = pipeline_fixture
        out = tmp_path / "out"
        backend = InFlightBackend(fixtures)
        config = make_config(corpus, fixtures, out, concurrency=concurrency, backoff_base=0.005)
        assert run_pipeline(config, backend=backend) == 0
        assert 1 <= backend.most_in_flight <= concurrency
        # every text sent failed once and was retried once (two attempts), and the bytes are the pinned ones
        assert set(backend.calls.values()) == {2}
        for name in ARTIFACTS:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == ARTIFACT_SHA256[name], name

    def test_a_record_in_backoff_holds_no_slot(self, tmp_path):
        texts = {
            "b": "La sesion se abrió á las dos de la tarde con asistencia de todos.",
            "a": "Se leyó y aprobó la acta de la Asamblea anterior sin observacion.",
            "c": "En seguida se dió cuenta de una nota del Ejecutivo sobre el ejército.",
        }
        both_in_flight = threading.Barrier(2, timeout=5)
        calls, met = Counter(), []

        class Backend:
            def complete(self, prompt: str, text: str) -> str:
                calls[text] += 1
                if text == texts["a"]:
                    raise client.TransportError("busy")  # then an 8 s backoff
                both_in_flight.wait()  # b and c at once, while a waits out its backoff
                met.append(text)
                return text

        def interrupt(candidate):
            raise KeyboardInterrupt

        config = make_config(tmp_path / "unused", tmp_path / "unused", tmp_path, concurrency=2, backoff_base=8.0)
        rows = [CorpusRecord(id=key, text=text) for key, text in texts.items()]
        with pytest.raises(KeyboardInterrupt):
            pipeline.correct_records(config, rows, tmp_path / "corrected.jsonl", backend=Backend(), classify=interrupt)
        assert sorted(met) == sorted([texts["b"], texts["c"]])
        # b's candidate was interrupted; a's retry, not yet due, was never sent
        assert calls == Counter(texts.values())

    def test_an_unvalidated_concurrency_below_one_takes_one_slot(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        backend, codes = InFlightBackend(fixtures), []
        config = make_config(corpus, fixtures, tmp_path / "out", concurrency=0, backoff_base=0.005)
        assert config.validate() == ["concurrency must be >= 1, got 0"]
        # a daemon, so a run that never returns fails this test and does not hold the process open
        thread = threading.Thread(target=lambda: codes.append(run_pipeline(config, backend=backend)), daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), "run_pipeline did not return"
        assert codes == [0]
        assert backend.most_in_flight == 1

    def test_one_slot_calls_the_next_record_while_a_record_waits(self, tmp_path):
        texts = {
            "a": "Se leyó y aprobó la acta de la Asamblea anterior sin observacion.",
            "b": "La sesion se abrió á las dos de la tarde con asistencia de todos.",
        }
        calls, a_calls_at_b = Counter(), []

        class Backend:
            def complete(self, prompt: str, text: str) -> str:
                calls[text] += 1
                if text == texts["a"] and calls[text] == 1:
                    raise client.TransportError("busy")  # then an 8 s backoff
                if text == texts["b"]:
                    a_calls_at_b.append(calls[texts["a"]])
                    _thread.interrupt_main()  # Ctrl-C, while a waits out its backoff
                return text

        config = make_config(tmp_path / "unused", tmp_path / "unused", tmp_path, concurrency=1, backoff_base=8.0)
        rows = [CorpusRecord(id=key, text=text) for key, text in texts.items()]
        with pytest.raises(KeyboardInterrupt):
            pipeline.correct_records(config, rows, tmp_path / "corrected.jsonl", backend=Backend())
        # b was called before a's retry (the order of the calls, not their times), and the
        # interrupt sent no retry and joined the request thread
        assert a_calls_at_b == [1]
        assert calls == Counter(texts.values())
        assert not [t for t in threading.enumerate() if t.name.startswith("histocr-correct")]
        assert not (tmp_path / "corrected.jsonl").exists()

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_a_corpus_cleaned_out_starts_no_request_thread(self, tmp_path, monkeypatch, concurrency):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
        rows = [{"id": f"s{n}", "text": "muy corta"} for n in range(3)]  # under min_tokens, every one
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(pipeline.threading, "Thread", Thread)
        config = make_config(corpus, None, out, backend="identity", mock_fixtures=None, concurrency=concurrency)
        assert run_pipeline(config) == 0
        assert [name for name in started if name.startswith("histocr-correct")] == []
        assert (out / "corrected.jsonl").read_bytes() == b""
        assert len(load_processed(out / "removed.jsonl").records) == 3
        assert set(ARTIFACTS) <= {p.name for p in out.iterdir()}

    def test_every_result_once_in_input_order_under_thread_switching(self):
        # more request threads than CPUs, switching as often as the interpreter allows
        records = [CorpusRecord(id=str(n), text="x") for n in range(400)]
        steps, got = [], []

        def attempts(record):
            for _ in range(int(record.id) % 3):  # retries due at once
                steps.append(record.id)
                yield 0.0
            steps.append(record.id)
            return int(record.id)

        def run():
            with closing(pipeline._scheduled_attempts(attempts, records, 8)) as results:
                got.extend(results)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "the scheduler did not finish"
        assert got == list(range(len(records)))
        assert Counter(steps) == {r.id: int(r.id) % 3 + 1 for r in records}
        assert not [t for t in threading.enumerate() if t.name.startswith("histocr-correct")]

    def test_a_base_exception_from_the_backend_reaches_the_caller(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        lines = corpus.read_text(encoding="utf-8").splitlines()
        halting = {MockBackend.hash_text(json.loads(line)["text"]) for line in lines[2:4]}

        class Halting(RecordingBackend):
            def complete(self, prompt: str, text: str) -> str:
                if self.hash_text(text) in halting:
                    raise Halt
                return super().complete(prompt, text)

        raised = []

        def run():
            try:
                run_pipeline(make_config(corpus, fixtures, tmp_path / "out", concurrency=2), backend=Halting(fixtures))
            except BaseException as exc:
                raised.append(exc)

        # a daemon, so a run that never returns fails this test and does not hold the process open
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), "run_pipeline did not return"
        assert [type(exc) for exc in raised] == [Halt]
        assert not (tmp_path / "out" / "corrected.jsonl").exists()


class TestModes:
    def test_identity_backend_dry_run_changes_nothing(self, pipeline_fixture, tmp_path):
        corpus, _ = pipeline_fixture
        out = tmp_path / "dry"
        config = make_config(corpus, None, out, backend="identity", mock_fixtures=None)
        assert run_pipeline(config) == 0
        final = load_processed(out / "final.jsonl").records
        for item in final:
            if item.status == STATUS_CORRECTED:
                assert item.text_final == item.record.text
                assert item.corrections == []
        # p20 still exceeds the character budget even on a dry run
        by_id = {p.record.id: p for p in final}
        assert by_id["p20"].status == STATUS_EXCLUDED_LLM_FAILURE

    def test_strict_mode_flags_partial_failures(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = make_config(corpus, fixtures, tmp_path / "strict", strict=True)
        assert run_pipeline(config) == 2  # transport failure and over-length rows

    def test_concurrency_one_equals_parallel(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        run_pipeline(make_config(corpus, fixtures, out_serial, concurrency=1))
        run_pipeline(make_config(corpus, fixtures, out_parallel, concurrency=8))
        for name in ARTIFACTS:
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()

    def test_modernize_applies_surface_forms(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        out = tmp_path / "modern"
        run_pipeline(make_config(corpus, fixtures, out, modernize=True))
        final = {p.record.id: p for p in load_processed(out / "final.jsonl").records}
        assert final["p02"].text_final == "El general dijo que la villa era muy vieja y pobre."


class TestLongRecord:
    def test_whole_text_check_matches_difflib_at_length(self, tmp_path):
        text = " ".join([GOLDEN_ORIGINAL] * 8)
        output = " ".join([GOLDEN_CORRECTED] * 8)
        assert len(text) >= 6000
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "long", "year": 1845, "text": text}, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text(
            json.dumps({"input_hash": MockBackend.hash_text(text), "output": output},
                       ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        # the threshold is difflib's ratio itself: a ratio one step below it
        # would drop the record as a wholesale rewrite
        reference = SequenceMatcher(None, text, output, autojunk=False).ratio()
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            config = make_config(corpus, fixtures, out, max_chars=12000,
                                 hallucination_threshold=reference)
            assert run_pipeline(config) == 0
        for name in ARTIFACTS:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        (final,) = load_processed(outs[0] / "final.jsonl").records
        assert final.status == STATUS_CORRECTED
        assert final.text_llm == output


def classify_one(tmp_path, original: str, candidate: str, threshold: float) -> tuple[int, CandidateRecord]:
    """Run the classify stage on one ``ok`` candidate at the given whole-text threshold."""
    corrected, classified = tmp_path / "corrected.jsonl", tmp_path / "classified.jsonl"
    write_records([CandidateRecord(CorpusRecord("a", text=original), "ok", text_llm=candidate)], corrected)
    config = PipelineConfig(hallucination_threshold=threshold)
    problems = stage_classify(config, corrected, classified)
    (row,) = load_candidates(classified).records
    return problems, row


class TestWholeTextCheck:
    """Classify discards a candidate whose whole-text ratio is below the threshold."""

    def test_identical_text_never_flags(self, tmp_path):
        problems, row = classify_one(tmp_path, "abcd efgh", "abcd efgh", 0.99)
        assert (problems, row.outcome, row.corrections) == (0, "ok", [])

    def test_unrelated_text_flags(self, tmp_path):
        problems, row = classify_one(tmp_path, "aaaa", "zzzz", 0.1)
        assert (problems, row.outcome, row.corrections) == (1, "global_hallucination", [])
        assert row.text_llm == "zzzz"  # the model output stays on the row

    def test_threshold_decides_borderline(self, tmp_path):
        # ratio("abcd efgh", "abcd zzzz") = 10/18 = 0.556, from the block oracle
        assert classify_one(tmp_path, "abcd efgh", "abcd zzzz", 0.8)[1].outcome == "global_hallucination"
        problems, row = classify_one(tmp_path, "abcd efgh", "abcd zzzz", 0.5)
        assert (problems, row.outcome) == (0, "ok")
        assert [(c.original, c.corrected) for c in row.corrections] == [("efgh", "zzzz")]

    def test_ratio_equal_to_threshold_is_kept(self, tmp_path):
        ratio = 10 / 18
        assert classify_one(tmp_path, "abcd efgh", "abcd zzzz", ratio)[1].outcome == "ok"
        above = math.nextafter(ratio, 1.0)
        assert classify_one(tmp_path, "abcd efgh", "abcd zzzz", above)[1].outcome == "global_hallucination"


class CountingBackend(MockBackend):
    def __init__(self, fixture_path):
        super().__init__(fixture_path)
        self.calls = 0

    def complete(self, prompt: str, text: str) -> str:
        self.calls += 1
        return super().complete(prompt, text)


class TestRethreshold:
    def test_classify_rethresholds_without_touching_model_output(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = make_config(corpus, fixtures, tmp_path)
        stage_clean(
            config, corpus, tmp_path / "cleaned.jsonl", tmp_path / "removed.jsonl", tmp_path / "cleaning_report.json"
        )
        backend = CountingBackend(fixtures)
        assert stage_correct(config, tmp_path / "cleaned.jsonl", tmp_path / "corrected.jsonl", backend=backend) == 2
        calls = backend.calls
        corrected_bytes = (tmp_path / "corrected.jsonl").read_bytes()
        assert {c.outcome for c in load_candidates(tmp_path / "corrected.jsonl").records} == {
            "ok", "content_policy_refusal", "transport_error", "over_length"
        }

        rewrites = {}
        for threshold in (0.5, 0.99):
            out = tmp_path / f"classified_{threshold}.jsonl"
            problems = stage_classify(
                make_config(corpus, fixtures, tmp_path, hallucination_threshold=threshold),
                tmp_path / "corrected.jsonl",
                out,
            )
            rewrites[threshold] = {
                c.record.id for c in load_candidates(out).records if c.outcome == "global_hallucination"
            }
            assert problems == len(rewrites[threshold])
        assert rewrites[0.5] == {"p06"}
        assert rewrites[0.99] > rewrites[0.5]  # lightly corrected records fall below 0.99 too
        assert backend.calls == calls
        assert (tmp_path / "corrected.jsonl").read_bytes() == corrected_bytes

    def test_classify_rejudges_its_own_rewrite_verdicts(self, pipeline_fixture, tmp_path):
        # classified.jsonl is a valid classify input: its global_hallucination
        # rows are judged again at the new threshold, like its ok rows
        corpus, fixtures = pipeline_fixture
        run_stages(make_config(corpus, fixtures, tmp_path / "run"), tmp_path / "run")
        corrected = tmp_path / "run" / "corrected.jsonl"
        strict, again, direct = (tmp_path / name for name in ("strict.jsonl", "again.jsonl", "direct.jsonl"))
        config = make_config(corpus, fixtures, tmp_path, hallucination_threshold=0.5)
        strict_config = make_config(corpus, fixtures, tmp_path, hallucination_threshold=0.97)
        flagged_strict = stage_classify(strict_config, corrected, strict)
        flagged_again = stage_classify(config, strict, again)
        assert stage_classify(config, corrected, direct) == flagged_again < flagged_strict
        assert again.read_bytes() == direct.read_bytes()


class TestBackendConstruction:
    def test_http_backend_wired_from_config(self, monkeypatch, pipeline_fixture):
        from histocr.client import HttpChatBackend
        from histocr.pipeline import make_backend

        monkeypatch.setenv("HISTOCR_API_KEY", "sekrit")
        config = PipelineConfig(backend="http", endpoint="https://example.test/v1",
                                model="modelo", temperature=0.0)
        backend = make_backend(config)
        assert isinstance(backend, HttpChatBackend)
        assert backend.endpoint == "https://example.test/v1"
        assert backend.model == "modelo"
        assert backend.api_key == "sekrit"
        assert isinstance(make_backend(PipelineConfig(backend="mock")), MockBackend)
        # identity is a mock that ignores its fixtures, so it echoes every text
        _corpus, fixtures = pipeline_fixture
        assert make_backend(PipelineConfig(backend="mock", mock_fixtures=str(fixtures))).table
        identity = make_backend(PipelineConfig(backend="identity", mock_fixtures=str(fixtures)))
        assert isinstance(identity, MockBackend)
        assert identity.table == {}

    def test_http_without_endpoint_fails_validation(self):
        config = PipelineConfig(backend="http")
        errors = config.validate()
        assert any("endpoint" in e for e in errors)
        assert any("model" in e for e in errors)


# one word pair at the same word position in two records: "sesion" -> "sesión", "mui" -> "muy"
SHARED_ROWS = [
    ("s1", "La sesion fue larga y mui tranquila.", "La sesión fue larga y muy tranquila."),
    ("s2", "La sesion era corta y mui agitada.", "La sesión era corta y muy agitada."),
]
SHARED_FIELDS = ("original", "corrected", "original_raw", "corrected_raw", "rule", "original_span", "corrected_span")


class TestSharedValues:
    """A run holds one object per distinct correction string and span, and only for as long as it runs."""

    @pytest.fixture
    def classified_run(self, tmp_path, monkeypatch):
        corpus, fixtures = tmp_path / "corpus.jsonl", tmp_path / "fixtures.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": rid, "text": text}, ensure_ascii=False) + "\n" for rid, text, _ in SHARED_ROWS
        ), encoding="utf-8")
        fixtures.write_text("".join(
            json.dumps({"input_hash": MockBackend.hash_text(text), "output": output}, ensure_ascii=False) + "\n"
            for _, text, output in SHARED_ROWS
        ), encoding="utf-8")
        (load, tail, names), runs = pipeline._STAGES["classify"], []

        def recording_tail(config, candidates, *args):
            runs[-1].extend(candidates)
            return tail(config, candidates, *args)

        monkeypatch.setitem(pipeline._STAGES, "classify", (load, recording_tail, names))

        def run() -> list[CandidateRecord]:
            """The candidates of one mock run, as classify leaves them."""
            runs.append([])
            assert run_pipeline(make_config(corpus, fixtures, tmp_path / f"out{len(runs)}")) == 0
            return runs[-1]

        return run

    def test_one_run_holds_each_value_once(self, classified_run):
        first, second = (c.corrections for c in classified_run())
        assert [(c.original, c.corrected) for c in first] == [("sesion", "sesión"), ("mui", "muy")]
        assert [(c.original, c.corrected) for c in second] == [("sesion", "sesión"), ("mui", "muy")]
        for a, b in zip(first, second):
            for name in SHARED_FIELDS:
                assert getattr(a, name) is getattr(b, name), name

    def test_two_runs_share_no_value(self, classified_run):
        # a table that outlived its run (a module-level dict, sys.intern) would hand the second run the first's
        before, after = classified_run(), classified_run()
        for a, b in zip([c for row in before for c in row.corrections], [c for row in after for c in row.corrections]):
            assert a == b
            for name in SHARED_FIELDS:
                if name != "rule":  # a rule name may be a constant of the code
                    assert getattr(a, name) is not getattr(b, name), name

    def test_rows_have_no_instance_dict(self, classified_run):
        candidate = classified_run()[0]
        for row in (candidate, candidate.record, candidate.corrections[0]):
            assert not hasattr(row, "__dict__"), type(row).__name__


def histocr_classes() -> list[type]:
    """Every class defined in a module of the ``histocr`` package."""
    modules = [importlib.import_module(f"histocr.{info.name}") for info in pkgutil.iter_modules(histocr.__path__)]
    return [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]


class TestValueTypes:
    # @dataclass compiles and execs about six generated functions per class, at every import. In
    # a fresh process (2-CPU container, Python 3.11.7, median of 40) it took 1.72 ms for
    # PipelineConfig, 0.59 for ClassifiedCorrection and 0.49 for CandidateRecord, and 0.32 to
    # 0.91 ms (7.7 ms in all) for each of the eleven value types that are NamedTuples instead,
    # which take 0.14 to 0.30 ms each. These three stay dataclasses: cli and config call
    # fields() and replace() on PipelineConfig, and the stages fill the other two in place.
    def test_only_the_mutable_rows_and_the_config_are_dataclasses(self):
        assert {c for c in histocr_classes() if is_dataclass(c)} == {
            PipelineConfig, CandidateRecord, ClassifiedCorrection,
        }

    def test_value_types_have_no_instance_dict(self):
        # a NamedTuple's subclass has one unless it declares __slots__ = ()
        tuples = [c for c in histocr_classes() if issubclass(c, tuple)]
        assert {c.__name__ for c in tuples} >= {"ChangeHunk", "RuleTable", "CorpusRecord", "RetryPolicy"}
        for c in tuples:
            assert c.__dictoffset__ == 0, c.__name__


COLD_START_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import histocr, histocr.cli
from histocr.config import PipelineConfig
from histocr.pipeline import run_pipeline
code = run_pipeline(PipelineConfig(**json.loads(sys.argv[2])))
print(json.dumps({"code": code, "loaded": [m for m in ("http.client", "ssl", "difflib") if m in sys.modules]}))
"""


class TestColdStart:
    def test_mock_run_loads_no_http_stack(self, pipeline_fixture, tmp_path):
        # this test process has imported http.client already, so ask a fresh interpreter
        corpus, fixtures = pipeline_fixture
        config = make_config(corpus, fixtures, tmp_path / "out")
        src = Path(client.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, str(src), json.dumps(asdict(config))],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
        assert (tmp_path / "out" / "final.jsonl").is_file()

    @pytest.mark.parametrize(
        "module, loaded", [("histocr", ["histocr"]), ("histocr.diffing", ["histocr", "histocr.diffing"])]
    )
    def test_a_leaf_module_loads_no_other_package_module(self, module, loaded):
        # the package re-exports nothing, so importing one module runs no other
        src = Path(client.__file__).resolve().parents[1]
        script = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script, str(src)], capture_output=True, text=True, check=True)
        assert sorted(m for m in proc.stdout.split() if m == "histocr" or m.startswith("histocr.")) == loaded
