import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import histocr
from conftest import GOLDEN_CORRECTED, GOLDEN_ORIGINAL
from histocr import pipeline
from histocr.cli import _build_config, build_parser, main
from histocr.classify import ClassifierConfig
from histocr.client import TRANSPORT_ERROR_SENTINEL, MockBackend, RetryPolicy
from histocr.config import PipelineConfig
from histocr.pipeline import ARTIFACTS


# the artifacts each stage command writes into its --output directory
STAGE_LAYOUT = {
    "clean": ("cleaned.jsonl", "removed.jsonl", "cleaning_report.json"),
    "correct": ("corrected.jsonl",),
    "classify": ("classified.jsonl",),
    "apply": ("final.jsonl", "lexicon.tsv", "lexicon_nonaccent.tsv"),
    "report": ("report.json", "report.txt"),
}
# the run artifact each stage command reads; clean reads the corpus
STAGE_INPUTS = {
    "clean": None,
    "correct": "cleaned.jsonl",
    "classify": "corrected.jsonl",
    "apply": "classified.jsonl",
    "report": "final.jsonl",
}


def write_config(path: Path, corpus: Path, fixtures: Path, **extra) -> Path:
    values = dict(
        backend="mock",
        mock_fixtures=str(fixtures),
        concurrency=2,
        retry_attempts=2,
        backoff_base=0.0,
        max_chars=500,
        hallucination_threshold=0.5,
    )
    values.update(extra)
    path.write_text(json.dumps(values), encoding="utf-8")
    return path


def nested(row: dict) -> str:
    """``row`` as a JSON line with one more key, whose value nests 100,000 arrays: past the
    recursion limit, the JSON parser raises ``RecursionError``, not ``ValueError``."""
    return json.dumps(row, ensure_ascii=False)[:-1] + ', "extra": ' + "[" * 100_000 + "]" * 100_000 + "}"


class TestRunCommand:
    def test_full_run_produces_artifacts(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out = tmp_path / "out"
        code = main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(out)])
        assert code == 0
        # corrected corpus, lexicon files, cleaning report, run report
        for name in ("final.jsonl", "lexicon.tsv", "cleaning_report.json", "report.json"):
            assert (out / name).is_file()

    def test_a_line_nested_too_deep_costs_one_line(self, pipeline_fixture, tmp_path, caplog):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        first, *rest = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        deep = tmp_path / "deep.jsonl"
        deep.write_text(first + nested({"id": "deep", "text": "x"}) + "\n" + "".join(rest), encoding="utf-8")
        for path, out in ((corpus, "plain"), (deep, "deep")):
            argv = ["--config", str(config), "run", "--input", str(path), "--output", str(tmp_path / out)]
            assert main(argv) == 0
        warnings = [message for message in caplog.messages if str(deep) in message]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{deep}: line 2: error: maximum recursion depth exceeded")
        for name in ARTIFACTS:
            assert (tmp_path / "deep" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    def test_missing_input_fails_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--input", str(tmp_path / "missing.jsonl"),
                     "--output", str(out)])
        assert code == 1
        assert "not found" in capsys.readouterr().err
        assert not out.exists()

    def test_config_errors_reported_all_at_once(self, pipeline_fixture, tmp_path, capsys):
        corpus, _ = pipeline_fixture
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"ratio_threshold": 3.0, "backend": "carrier-pigeon",
                        "concurrency": 0}),
            encoding="utf-8",
        )
        code = main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "ratio_threshold" in err
        assert "backend" in err
        assert "concurrency" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("concurrency", "4"),
            ("ratio_threshold", "0.5"),
            ("rules_path", 5),
            ("concurrency", True),  # a bool is no int
            ("max_nonalpha", False),  # nor a float
            ("max_chars", 500.0),  # a float is no int
            ("strict", 1),
            ("mock_fixtures", ["a.jsonl"]),
            ("backoff_base", math.nan),  # json.dumps writes NaN, which is not JSON
            ("temperature", math.inf),
            ("ratio_threshold", -math.inf),
        ],
    )
    def test_wrong_typed_config_value_is_config_error(
        self, pipeline_fixture, tmp_path, capsys, key, value
    ):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures, **{key: value})
        out = tmp_path / "out"
        code = main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: {key} must be" in err
        assert repr(value) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, expected",
        [
            ({"max_nonalpha": 1.5}, "config error: max_nonalpha must be in [0, 1], got 1.5"),
            ({"hallucination_threshold": -0.1}, "config error: hallucination_threshold must be in [0, 1], got -0.1"),
            ({"min_tokens": -1}, "config error: min_tokens must be >= 0, got -1"),
            ({"retry_attempts": 0}, "config error: retry_attempts must be >= 1, got 0"),
            ({"max_chars": 0}, "config error: max_chars must be >= 1, got 0"),
            ({"tokenizer": "bpe"}, "config error: tokenizer must be one of ['unicode_words', 'whitespace'], got 'bpe'"),
            ({"backend": "mock", "mock_fixtures": "TMP/missing.jsonl"},
             "config error: mock_fixtures file not found: TMP/missing.jsonl"),
            ({"rules_path": "TMP/missing.tsv"}, "config error: rules_path file not found: TMP/missing.tsv"),
            (["max_chars", 0], "error: TMP/config.json: config must be a JSON object"),
        ],
        ids=["max_nonalpha", "hallucination_threshold", "min_tokens", "retry_attempts", "max_chars",
             "tokenizer", "mock_fixtures", "rules_path", "not-an-object"],
    )
    def test_out_of_range_config_value_is_config_error(self, pipeline_fixture, tmp_path, capsys, content, expected):
        corpus, _ = pipeline_fixture
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content).replace("TMP", str(tmp_path)), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--config", str(config), "run", "--input", str(corpus), "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [expected.replace("TMP", str(tmp_path))]
        assert not out.exists()

    @pytest.mark.parametrize(
        "endpoint", ["example.com/v1", "localhost:8000/v1", "ftp://example.com/v1", "http:///v1",
                     "https://example.com:99999/v1", "http://[::1/v1"],
    )
    def test_endpoint_that_is_no_web_url_is_config_error(self, pipeline_fixture, tmp_path, capsys, endpoint):
        # left to the backend, every record would fail all its attempts and the run would still exit 0
        corpus, _ = pipeline_fixture
        out = tmp_path / "out"
        code = main(["run", "--input", str(corpus), "--output", str(out),
                     "--backend", "http", "--endpoint", endpoint, "--model", "m"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: endpoint must be an http:// or https:// URL with a host, got {endpoint!r}"
        ]
        assert not out.exists()

    def test_int_accepted_where_float_expected(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures,
                              backoff_base=0, max_nonalpha=1, temperature=0)
        assert main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(tmp_path / "out")]) == 0

    def test_unknown_config_key_rejected(self, pipeline_fixture, tmp_path, capsys):
        corpus, _ = pipeline_fixture
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ratio_treshold": 0.5}), encoding="utf-8")
        code = main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"concurrency": 2,}', None),  # json's own message, which differs between Python versions
            (b'{"concurrency": \xff}', "can't decode byte 0xff"),
        ],
        ids=["malformed", "undecodable"],
    )
    def test_bad_config_file_is_named(self, pipeline_fixture, tmp_path, capsys, content, message):
        if message is None:
            with pytest.raises(json.JSONDecodeError) as parsed:
                json.loads(content.decode("utf-8"))
            message = str(parsed.value)
        corpus, _ = pipeline_fixture
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = tmp_path / "out"
        code = main(["--config", str(config), "run", "--input", str(corpus), "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"three\tfields\tonly\n", "expected 7 tab-separated fields"),
            (b"r1\t\xff\n", "can't decode byte 0xff"),
        ],
        ids=["malformed", "undecodable"],
    )
    def test_bad_rules_table_fails_before_any_model_call(
        self, pipeline_fixture, tmp_path, monkeypatch, capsys, content, message
    ):
        corpus, fixtures = pipeline_fixture
        rules = tmp_path / "rules.tsv"
        rules.write_bytes(content)
        calls = []

        class CountingBackend(MockBackend):
            def complete(self, prompt, text):
                calls.append(text)
                return super().complete(prompt, text)

        monkeypatch.setattr(pipeline, "make_backend", lambda config: CountingBackend(config.mock_fixtures))
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        run = ["--config", str(config), "run", "--input", str(corpus)]
        out = tmp_path / "out"
        assert main(run + ["--output", str(out), "--rules", str(rules)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rules}")
        assert message in err
        assert calls == []
        assert not out.exists()
        # the same run with the shipped table does reach the backend
        assert main(run + ["--output", str(tmp_path / "good")]) == 0
        assert calls

    def test_undecodable_corpus_line_costs_one_line(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        good = json.dumps({"id": "a", "text": "cinco palabras bien formadas aqui"}).encode()
        corpus.write_bytes(b'{"id": "b", "text": "caf\xff"}\n' + good + b"\n")
        run = ["run", "--input", str(corpus), "--output", str(tmp_path / "out"), "--backend", "identity"]
        assert main(run) == 0
        assert f"{corpus}: line 1: error: 'utf-8' codec can't decode byte 0xff" in caplog.text
        (row,) = (tmp_path / "out" / "final.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(row)["id"] == "a"
        assert main(["--strict"] + run) == 2

    def test_lone_surrogate_in_a_corpus_row_costs_its_line(self, pipeline_fixture, tmp_path, caplog):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        with_bad_row = tmp_path / "corpus.jsonl"
        bad = json.dumps({"id": "bad", "text": "la sesion \ud800 era corta"})
        with_bad_row.write_text(bad + "\n" + corpus.read_text(encoding="utf-8"), encoding="utf-8")
        out, reference = tmp_path / "out", tmp_path / "reference"
        assert main(["--config", str(config), "run", "--input", str(with_bad_row), "--output", str(out)]) == 0
        assert f"{with_bad_row}: line 1: error: 'text' holds a lone surrogate at index 10" in caplog.text
        assert main(["--config", str(config), "run", "--input", str(corpus), "--output", str(reference)]) == 0
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_byte_order_mark_opens_the_corpus_only(self, tmp_path, caplog):
        rows = [json.dumps({"id": i, "text": f"cinco palabras bien formadas aqui {i}"}).encode() for i in "ab"]
        corpus, with_bom = tmp_path / "corpus.jsonl", tmp_path / "bom.jsonl"
        corpus.write_bytes(rows[0] + b"\n" + rows[1] + b"\n")
        with_bom.write_bytes(b"\xef\xbb\xbf" + corpus.read_bytes())
        run = ["--strict", "run", "--backend", "identity", "--output"]
        out, reference = tmp_path / "out", tmp_path / "reference"
        assert main(run + [str(out), "--input", str(with_bom)]) == 0
        assert main(run + [str(reference), "--input", str(corpus)]) == 0
        assert "BOM" not in caplog.text
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name
        assert [json.loads(row)["id"] for row in (out / "final.jsonl").read_text(encoding="utf-8").splitlines()] == ["a", "b"]
        # on any later line a BOM is no line start: it costs that line
        with_bom.write_bytes(rows[0] + b"\n\xef\xbb\xbf" + rows[1] + b"\n")
        assert main(run + [str(tmp_path / "late"), "--input", str(with_bom)]) == 2
        assert f"{with_bom}: line 2: error: Unexpected UTF-8 BOM" in caplog.text

    @pytest.mark.parametrize("flag", ["--rules", "--config"])
    def test_byte_order_mark_on_the_rules_table_or_config_file(self, pipeline_fixture, tmp_path, flag):
        corpus, fixtures = pipeline_fixture
        files = {
            "--rules": Path(histocr.__file__).parent / "data" / "rules.tsv",
            "--config": write_config(tmp_path / "config.json", corpus, fixtures),
        }
        with_bom = tmp_path / f"bom{files[flag].suffix}"
        with_bom.write_bytes(b"\xef\xbb\xbf" + files[flag].read_bytes())
        out, reference = tmp_path / "out", tmp_path / "reference"
        for output, given in ((out, with_bom), (reference, files[flag])):
            paths = {**files, flag: given}
            assert main(["--config", str(paths["--config"]), "run", "--input", str(corpus),
                         "--output", str(output), "--rules", str(paths["--rules"])]) == 0
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_malformed_fixture_file_fails_before_any_artifact(self, pipeline_fixture, tmp_path, capsys):
        corpus, _ = pipeline_fixture
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text('{"input_hash": "abc"}\n', encoding="utf-8")
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out = tmp_path / "out"
        assert main(["--config", str(config), "run", "--input", str(corpus), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {fixtures}: line 1: error: missing field 'output'")
        assert not out.exists()

    def test_non_finite_flag_value_is_config_error(self, pipeline_fixture, tmp_path, capsys):
        corpus, _ = pipeline_fixture
        out = tmp_path / "out"
        code = main(["run", "--input", str(corpus), "--output", str(out), "--ratio-threshold", "nan"])
        assert code == 1
        assert "config error: ratio_threshold must be a number, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", str(config), "run", "--input", str(corpus),
                         "--output", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_dry_run_uses_identity_backend(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out = tmp_path / "dry"
        assert main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(out), "--backend", "identity"]) == 0
        final = (out / "final.jsonl").read_text(encoding="utf-8")
        for line in final.splitlines():
            row = json.loads(line)
            if row["status"] == "corrected":
                assert row["text_llm"] == row["text"]

    def test_classify_error_is_one_error_line_after_every_response(self, pipeline_fixture, tmp_path, monkeypatch, capsys):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures, concurrency=4)
        classify_hunks = pipeline.classify_hunks

        def fails_on_p02(hunks, *args):
            if any(hunk.original_segment == "jeneral" for hunk in hunks):  # only p02 holds this word
                raise ValueError("cascade failed")
            return classify_hunks(hunks, *args)

        monkeypatch.setattr(pipeline, "classify_hunks", fails_on_p02)
        out = tmp_path / "out"
        assert main(["--config", str(config), "run", "--input", str(corpus), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        expected = "error: internal error in classify on record p02: ValueError: cascade failed"
        assert [line for line in err.splitlines() if line.startswith("error:")] == [expected]
        assert "Traceback" not in err
        cleaned = (out / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()
        corrected = (out / "corrected.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in corrected] == [json.loads(line)["id"] for line in cleaned]
        assert not (out / "classified.jsonl").exists()


class TestStageCommands:
    def test_stagewise_composition_matches_run(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out_run, out_st = tmp_path / "run", tmp_path / "stages"
        assert main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(out_run)]) == 0

        # each stage reads the file the stage before it wrote into the one --output directory
        for command, stage_in in STAGE_INPUTS.items():
            assert main(["--config", str(config), command, "--output", str(out_st), "--input",
                         str(corpus if stage_in is None else out_st / stage_in)]) == 0, command
        assert sorted(p.name for p in out_st.iterdir()) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert (out_run / name).read_bytes() == (out_st / name).read_bytes(), name

    def test_each_stage_writes_exactly_its_artifacts(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        run = tmp_path / "run"
        assert main(["--config", str(config), "run", "--input", str(corpus), "--output", str(run)]) == 0
        assert tuple(name for names in STAGE_LAYOUT.values() for name in names) == ARTIFACTS
        for command, stage_in in STAGE_INPUTS.items():
            out = tmp_path / command
            out.mkdir()
            argv = ["--config", str(config), command, "--output", str(out), "--input",
                    str(corpus if stage_in is None else run / stage_in)]
            assert main(argv) == 0, command
            # the stage's artifacts under the names run gives them, and no temporary file
            assert sorted(p.name for p in out.iterdir()) == sorted(STAGE_LAYOUT[command]), command

    def test_clean_strict_exit_on_malformed_lines(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "a", "text": "cinco palabras bien formadas aqui"})
            + "\n{broken\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["clean", "--input", str(corpus), "--output", str(out)]) == 0
        assert main(["--strict", "clean", "--input", str(corpus), "--output", str(out)]) == 2
        assert "line 2" in caplog.text

    def test_clean_prints_each_diagnostic_once(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "a", "text": "cinco palabras bien formadas aqui"})
            + "\n{broken\n",
            encoding="utf-8",
        )
        src = Path(histocr.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "histocr.cli", "clean", "--input", str(corpus),
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert proc.stderr.count("line 2: error") == 1

    def test_clean_flags(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "text": "uno dos tres cuatro cinco"},
            {"id": "b", "text": "uno dos tres"},
        ]
        corpus.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["clean", "--input", str(corpus), "--output", str(out),
                     "--min-tokens", "2"]) == 0
        kept = (out / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(kept) == 2  # three tokens clears a min-tokens of 2
        assert json.loads((out / "cleaning_report.json").read_text(encoding="utf-8"))["surviving"] == 2


class TestDiffCommand:
    def test_prints_one_hunk_per_line(self, tmp_path, capsys):
        original = tmp_path / "original.txt"
        corrected = tmp_path / "corrected.txt"
        original.write_text(GOLDEN_ORIGINAL, encoding="utf-8")
        corrected.write_text(GOLDEN_CORRECTED, encoding="utf-8")
        assert main(["diff", "--original", str(original),
                     "--corrected", str(corrected)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "[5,6) replace 'harà' -> 'hará'" in lines
        assert "[9,11) replace 'se mana,' -> 'semana,'" in lines
        assert all(") " in line for line in lines)

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        original = tmp_path / "original.txt"
        corrected = tmp_path / "corrected.txt"
        original.write_text("mismo texto", encoding="utf-8")
        corrected.write_bytes(b"mismo t\xffexto")
        assert main(["diff", "--original", str(original), "--corrected", str(corrected)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot decode {corrected} as UTF-8: ")
        assert "0xff" in err

    def test_identical_files_print_nothing(self, tmp_path, capsys):
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        path_a.write_text("mismo texto", encoding="utf-8")
        path_b.write_text("mismo  texto", encoding="utf-8")  # whitespace only
        assert main(["diff", "--original", str(path_a), "--corrected", str(path_b)]) == 0
        assert capsys.readouterr().out == ""

    def test_byte_order_mark_is_no_change(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text("la sesion era mui corta\n", encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["diff", "--original", str(plain), "--corrected", str(bom)]) == 0
        assert main(["diff", "--original", str(bom), "--corrected", str(plain)]) == 0
        assert capsys.readouterr().out == ""

    def test_rules_flag_sets_the_printed_labels(self, tmp_path, capsys):
        original = tmp_path / "original.txt"
        corrected = tmp_path / "corrected.txt"
        original.write_text("la sesion era mui corta", encoding="utf-8")
        corrected.write_text("la sesión era muy corta", encoding="utf-8")
        shipped = Path("src/histocr/data/rules.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        without_i_y = tmp_path / "rules.tsv"
        without_i_y.write_text("".join(l for l in shipped if not l.startswith("table_i_y\t")), encoding="utf-8")
        argv = ["diff", "--verbose", "--original", str(original), "--corrected", str(corrected)]
        assert main(argv) == 0
        assert "  'mui' -> 'muy': surface_form via table_i_y" in capsys.readouterr().out.splitlines()
        assert main(argv + ["--rules", str(without_i_y)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  'mui' -> 'muy': ocr_error via equal_length" in lines
        assert "  'sesion' -> 'sesión': surface_form via accent_only" in lines


class TestClassifyCommand:
    def corrected_row(self, tmp_path):
        row = {
            "id": "a", "newspaper": "", "country": "", "city": None, "year": 1850,
            "text": "la sesion era mui corta",
            "llm_outcome": "ok", "llm_detail": "",
            "text_llm": "la sesión era muy corta",
        }
        path = tmp_path / "corrected.jsonl"
        path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        return path

    def test_threshold_and_rules_flags(self, tmp_path):
        corrected = self.corrected_row(tmp_path)
        out = tmp_path / "out"
        rules_copy = tmp_path / "rules.tsv"
        rules_copy.write_text(
            Path("src/histocr/data/rules.tsv").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main(["classify", "--input", str(corrected), "--output", str(out),
                     "--rules", str(rules_copy), "--ratio-threshold", "0.6",
                     "--max-words", "3"]) == 0
        rows = [json.loads(l) for l in (out / "classified.jsonl").read_text(encoding="utf-8").splitlines()]
        labels = {c["original"]: c["label"] for c in rows[0]["corrections"]}
        assert labels == {"sesion": "surface_form", "mui": "surface_form"}

    def test_malformed_rules_file_is_a_clean_failure(self, tmp_path, capsys):
        corrected = self.corrected_row(tmp_path)
        bad_rules = tmp_path / "bad.tsv"
        bad_rules.write_text("three\tfields\tonly\n", encoding="utf-8")
        code = main(["classify", "--input", str(corrected),
                     "--output", str(tmp_path / "out"),
                     "--rules", str(bad_rules)])
        assert code == 1
        assert "expected 7" in capsys.readouterr().err

    def test_undecodable_rules_file_is_named(self, tmp_path, capsys):
        corrected = self.corrected_row(tmp_path)
        bad_rules = tmp_path / "bad.tsv"
        bad_rules.write_bytes(b"# rules\nr1\tcaf\xff\n")
        out = tmp_path / "out"
        code = main(["classify", "--input", str(corrected), "--output", str(out), "--rules", str(bad_rules)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_rules}: ")
        assert "can't decode byte 0xff" in err
        assert not out.exists()

    def test_malformed_rules_file_fails_before_the_input_is_read(self, tmp_path):
        # classify parses the rules table first: the input's line warning is never reached
        stage_in, out = tmp_path / "corrected.jsonl", tmp_path / "out"
        stage_in.write_text('{"id": 5}\n' + json.dumps(CORRECTED_ROW, ensure_ascii=False) + "\n", encoding="utf-8")
        bad_rules = tmp_path / "bad.tsv"
        bad_rules.write_text("three\tfields\tonly\n", encoding="utf-8")
        src = Path(histocr.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "histocr.cli", "classify", "--input", str(stage_in),
             "--output", str(out), "--rules", str(bad_rules)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        (error,) = proc.stderr.splitlines()
        assert error.startswith(f"error: {bad_rules}:1: expected 7")
        assert not out.exists()

    def test_rewrite_outcome_needs_corrections(self, tmp_path, caplog):
        # only classify gives global_hallucination; a corrected.jsonl row claiming it was never judged
        stage_in, out = tmp_path / "corrected.jsonl", tmp_path / "out"
        rows = [{**CORRECTED_ROW, "llm_outcome": "global_hallucination"},
                {**CORRECTED_ROW, "id": "b", "llm_outcome": "global_hallucination", "corrections": None}]
        stage_in.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        assert main(["classify", "--input", str(stage_in), "--output", str(out)]) == 0
        message = "'llm_outcome' 'global_hallucination' comes from classify, but the row has no 'corrections'"
        assert f"{stage_in}: line 1: error: {message}" in caplog.text
        assert f"{stage_in}: line 2: error: {message}" in caplog.text
        assert (out / "classified.jsonl").read_text(encoding="utf-8") == ""

    def test_apply_on_stale_classified_file_leaves_the_row_out(self, tmp_path, capsys, caplog):
        corrected = self.corrected_row(tmp_path)
        classified, out = tmp_path / "classified.jsonl", tmp_path / "out"
        assert main(["classify", "--input", str(corrected), "--output", str(tmp_path)]) == 0
        row = json.loads(classified.read_text(encoding="utf-8"))
        row["text"] = row["text"].replace("mui", "muy")  # text edited after classify
        classified.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        args = ["apply", "--input", str(classified), "--output", str(out), "--modernize"]
        assert main(args) == 0
        assert main(["--strict"] + args) == 2
        assert "apply: record a left out: stale correction at words [3,4): expected 'mui', found 'muy'" in caplog.text
        assert capsys.readouterr().err == ""
        assert (out / "final.jsonl").read_text(encoding="utf-8") == ""
        assert (out / "lexicon.tsv").read_text(encoding="utf-8").splitlines()[1:] == []

    def test_apply_on_unclassified_file_is_a_clean_failure(self, tmp_path, capsys):
        corrected = self.corrected_row(tmp_path)
        final = tmp_path / "final.jsonl"
        code = main(["apply", "--input", str(corrected), "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no corrections; run classify first" in err
        assert not final.exists()

    def test_clean_max_nonalpha_flag(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "text": "cinco palabras limpias aqui mismo"},
            {"id": "b", "text": "uno 1 dos 2 tres 3 cuatro 4"},  # 7/22 non-alpha
        ]
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["clean", "--input", str(corpus), "--output", str(out),
                     "--max-nonalpha", "0.1"]) == 0
        kept = [json.loads(l)["id"] for l in (out / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()]
        assert kept == ["a"]


CORRECTED_ROW = {
    "id": "a", "newspaper": "", "country": "", "city": None, "year": 1850,
    "text": "la sesion era mui corta",
    "llm_outcome": "ok", "llm_detail": "",
    "text_llm": "la sesión era muy corta",
}
PROCESSED_ROW = {
    "id": "a", "newspaper": "", "country": "", "city": None, "year": 1850,
    "text": "la sesion era mui corta",
    "status": "corrected", "text_llm": "la sesión era muy corta",
    "text_final": "la sesion era mui corta", "corrections": [],
}


# classify's two surface forms of CORRECTED_ROW, as classified.jsonl stores them
SESION = {
    "original": "sesion", "corrected": "sesión", "label": "surface_form", "rule": "accent_only",
    "ratio": None, "position": [1, 2], "corrected_position": [1, 2],
    "original_raw": "sesion", "corrected_raw": "sesión", "accent_only": True, "frequency": 1,
}
MUI = {
    **SESION, "original": "mui", "corrected": "muy", "rule": "table_i_y", "position": [3, 4],
    "corrected_position": [3, 4], "original_raw": "mui", "corrected_raw": "muy", "accent_only": False,
}
# the same span labeled an OCR error, so apply rewrites it
MUI_OCR = {**MUI, "label": "ocr_error"}


def without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


def classified_line(*corrections: dict) -> str:
    return json.dumps({**CORRECTED_ROW, "corrections": list(corrections)}, ensure_ascii=False)


def processed_line(*corrections: dict) -> str:
    return json.dumps({**PROCESSED_ROW, "corrections": list(corrections)}, ensure_ascii=False)


MALFORMED_STAGE_ROWS = pytest.mark.parametrize(
    "command, good_row, bad_line",
    [
        ("classify", CORRECTED_ROW, json.dumps(without(CORRECTED_ROW, "text"))),
        ("apply", {**CORRECTED_ROW, "corrections": []}, json.dumps(without(CORRECTED_ROW, "id"))),
        ("apply", {**CORRECTED_ROW, "corrections": []}, "[1,2]"),
        ("report", PROCESSED_ROW, "[1,2]"),
        ("apply", {**CORRECTED_ROW, "corrections": []}, classified_line({**MUI_OCR, "position": ["3", "4"]})),
        ("apply", {**CORRECTED_ROW, "corrections": []}, classified_line({**MUI_OCR, "position": [3, 4, 5]})),
        ("report", PROCESSED_ROW, processed_line(SESION, {**MUI, "original": 5})),
        ("report", PROCESSED_ROW, processed_line({**MUI, "label": "bogus"})),
        *(("report", PROCESSED_ROW, json.dumps({**PROCESSED_ROW, "text_final": value}))
          for value in (0, True, 1.5, ["x"], {"a": 1})),
        ("report", PROCESSED_ROW, json.dumps({**PROCESSED_ROW, "text_llm": {"a": 1}})),
        ("classify", CORRECTED_ROW, json.dumps({**CORRECTED_ROW, "llm_outcome": 5})),
        ("classify", CORRECTED_ROW, json.dumps({**CORRECTED_ROW, "llm_detail": ["x"]})),
        ("apply", {**CORRECTED_ROW, "corrections": []}, json.dumps({**CORRECTED_ROW, "llm_outcome": "bogus", "corrections": []})),
        ("classify", CORRECTED_ROW, json.dumps({**CORRECTED_ROW, "llm_outcome": "global_hallucination"})),
        ("classify", CORRECTED_ROW, nested(CORRECTED_ROW)),
    ],
    ids=["classify-no-text", "apply-no-id", "apply-array", "report-array", "apply-string-position",
         "apply-three-int-position", "report-int-original", "report-unknown-label",
         "report-int-text_final", "report-bool-text_final", "report-float-text_final", "report-list-text_final",
         "report-object-text_final", "report-object-text_llm", "classify-int-outcome", "classify-list-detail",
         "apply-unknown-outcome", "classify-rewrite-before-classify", "classify-nested-too-deep"],
)


def stage_argv(tmp_path: Path, command: str, good_row: dict, bad_line: str) -> list[str]:
    """A stage command whose input holds one malformed line, then one good row ``b``."""
    stage_in = tmp_path / "in.jsonl"
    good = json.dumps({**good_row, "id": "b"}, ensure_ascii=False)
    stage_in.write_text(bad_line + "\n" + good + "\n", encoding="utf-8")
    return [command, "--input", str(stage_in), "--output", str(tmp_path / "out")]


class TestMalformedStageRows:
    """A malformed row costs its own line, never the command."""

    @MALFORMED_STAGE_ROWS
    def test_bad_line_is_skipped_and_logged(self, tmp_path, caplog, command, good_row, bad_line):
        stage_in, out = tmp_path / "in.jsonl", tmp_path / "out"
        assert main(stage_argv(tmp_path, command, good_row, bad_line)) == 0
        assert f"{stage_in}: line 1: error: " in caplog.text
        if command == "report":
            assert json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"] == 1
        else:
            written = (out / STAGE_LAYOUT[command][0]).read_text(encoding="utf-8")
            assert [json.loads(line)["id"] for line in written.splitlines()] == ["b"]

    @MALFORMED_STAGE_ROWS
    def test_bad_line_exits_2_in_strict_mode(self, tmp_path, command, good_row, bad_line):
        assert main(["--strict"] + stage_argv(tmp_path, command, good_row, bad_line)) == 2


# one value of each JSON type, then the two that JSON text cannot hold: a
# non-finite number and a lone surrogate (json.dumps writes NaN and "\ud800")
WRONG_VALUE_SAMPLES = {
    "null": None, "bool": True, "int": 0, "float": 1.5, "string": "x", "array": [], "object": {},
    "nan": math.nan, "lone-surrogate": "\ud800",
}
# the samples each field admits, written out here independently of the code's table;
# every other sample must cost its line
CORPUS_ADMITS = {
    "id": {"string"}, "newspaper": {"null", "string"}, "country": {"null", "string"},
    "city": {"null", "string"}, "year": {"null", "int"}, "text": {"string"},
}
CANDIDATE_ADMITS = {**CORPUS_ADMITS, "llm_outcome": set(), "llm_detail": {"string"}, "text_llm": {"null", "string"}}
# a null corrections is an unclassified row, which apply refuses as a whole file
CLASSIFIED_ADMITS = {**CANDIDATE_ADMITS, "corrections": {"null", "array"}}
# text_final must be a string in PROCESSED_ROW, whose status is corrected
PROCESSED_ADMITS = {
    **CORPUS_ADMITS, "status": set(), "text_llm": {"null", "string"}, "text_final": {"string"},
    "corrections": {"null", "array"},
}
CORRECTION_ADMITS = {
    "original": {"string"}, "corrected": {"string"}, "label": set(), "rule": {"string"},
    "ratio": {"null", "int", "float"}, "position": set(), "corrected_position": set(),
    "original_raw": {"string"}, "corrected_raw": {"string"}, "accent_only": {"bool"}, "frequency": set(),
}
CORPUS_ROW = {key: CORRECTED_ROW[key] for key in CORPUS_ADMITS}
CLASSIFIED_ROW = {**CORRECTED_ROW, "corrections": []}


def wrong_field_cases():
    schemas = [
        ("corpus", "clean", CORPUS_ROW, CORPUS_ADMITS, None),
        ("candidate", "classify", CORRECTED_ROW, CANDIDATE_ADMITS, None),
        ("classified", "apply", CLASSIFIED_ROW, CLASSIFIED_ADMITS, None),
        ("processed", "report", PROCESSED_ROW, PROCESSED_ADMITS, None),
        ("classified-correction", "apply", {**CORRECTED_ROW, "corrections": [MUI_OCR]}, CORRECTION_ADMITS, MUI_OCR),
        ("processed-correction", "report", {**PROCESSED_ROW, "corrections": [MUI]}, CORRECTION_ADMITS, MUI),
    ]
    for schema, command, row, admits, correction in schemas:
        for key, admitted in admits.items():
            for sample, value in WRONG_VALUE_SAMPLES.items():
                if sample in admitted:
                    continue
                if correction is None:
                    bad = {**row, key: value}
                else:
                    bad = {**row, "corrections": [{**correction, key: value}]}
                good = row if correction is None else {**row, "corrections": []}
                yield pytest.param(command, key, good, json.dumps(bad), id=f"{schema}-{key}-{sample}")


class TestEveryWrongField:
    """Every field of every row schema, set to every value it does not admit, costs its own line."""

    @pytest.mark.parametrize("command, key, good_row, bad_line", wrong_field_cases())
    def test_costs_its_line(self, tmp_path, caplog, capsys, command, key, good_row, bad_line):
        out = tmp_path / "out"
        assert main(["--strict"] + stage_argv(tmp_path, command, good_row, bad_line)) == 2
        diagnostics = [line for line in caplog.text.splitlines() if f"{tmp_path / 'in.jsonl'}: line 1: error: " in line]
        assert len(diagnostics) == 1 and key in diagnostics[0], caplog.text
        assert "Traceback" not in capsys.readouterr().err
        if command == "report":
            assert json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"] == 1
        else:
            written = (out / STAGE_LAYOUT[command][0]).read_text(encoding="utf-8")
            assert [json.loads(line)["id"] for line in written.splitlines()] == ["b"]


class TestApplyKeepsRowBytes:
    """apply writes the final row of any row the reader accepts as it always has."""

    def test_excluded_rows_and_a_correction_without_defaults(self, tmp_path):
        base = {"id": "a", "newspaper": None, "country": "Peru", "city": None, "year": 1850, "text": "la sesion era mui corta"}
        rows = [
            {**base, "id": "refused", "llm_outcome": "content_policy_refusal", "llm_detail": "flagged",
             "text_llm": "la sesión era muy corta", "corrections": [MUI]},
            {**base, "id": "failed", "llm_outcome": "transport_error", "llm_detail": "boom",
             "text_llm": "la sesión era muy corta", "corrections": [MUI]},
            {**base, "id": "rewrite", "llm_outcome": "global_hallucination", "text_llm": "otra cosa",
             "corrections": [{**MUI, "ratio": 1, "frequency": 3}]},
            {**base, "id": "ok", "llm_outcome": "ok", "text_llm": None, "extra": 1,
             "corrections": [without({**MUI_OCR, "ratio": 0.5}, "corrected_position")]},
        ]
        classified = tmp_path / "classified.jsonl"
        classified.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        assert main(["--strict", "apply", "--input", str(classified), "--output", str(tmp_path)]) == 0
        expected = [
            ("refused", "excluded_content_policy", None, None, []),
            ("failed", "excluded_llm_failure", "la sesión era muy corta", None, []),
            ("rewrite", "excluded_llm_failure", "otra cosa", None, []),
            ("ok", "corrected", None, "la sesion era muy corta", [{**MUI_OCR, "ratio": 0.5, "corrected_position": [0, 0]}]),
        ]
        expected = [
            {**base, "id": rid, "newspaper": "", "status": status, "text_llm": text_llm, "text_final": text_final,
             "corrections": corrections}
            for rid, status, text_llm, text_final, corrections in expected
        ]
        # json.dumps keeps each dict's key order, so this pins the bytes
        lines = (tmp_path / "final.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines == [json.dumps(row, ensure_ascii=False) for row in expected]
        # the lexicon counts the corrections of the rows written, so the excluded rows' surface form is no entry
        lexicon = (tmp_path / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        assert lexicon == ["original\tmodern\trule\tfrequency\taccent_only"]

    def test_lexicon_rows_are_the_report_surface_forms(self, tmp_path):
        # the excluded row's surface form is one the kept row does not have
        failed = {**CORRECTED_ROW, "id": "failed", "llm_outcome": "transport_error", "corrections": [MUI]}
        classified = tmp_path / "classified.jsonl"
        classified.write_text(classified_line(SESION) + "\n" + json.dumps(failed) + "\n", encoding="utf-8")
        assert main(["apply", "--input", str(classified), "--output", str(tmp_path)]) == 0
        assert main(["report", "--input", str(tmp_path / "final.jsonl"), "--output", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        for name, key in (("lexicon.tsv", "surface_forms"), ("lexicon_nonaccent.tsv", "non_accent_surface_forms")):
            rows = (tmp_path / name).read_text(encoding="utf-8").splitlines()[1:]
            assert len(rows) == report[key], name


class TestFaults:
    """A code fault is one error line naming its stage and record, exit 1; a stale correction costs one row."""

    @pytest.fixture
    def run_out(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out = tmp_path / "run"
        assert main(["--config", str(config), "run", "--input", str(corpus), "--output", str(out)]) == 0
        return out

    @staticmethod
    def fails_on_p02(monkeypatch, name, error):
        """``pipeline.<name>`` raises ``error`` on the call whose first argument holds p02's word."""
        real = getattr(pipeline, name)

        def fails(first, *args, **kwargs):
            if "jeneral" in str(first):  # only p02 holds this word
                raise error
            return real(first, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, fails)

    @pytest.mark.parametrize(
        "stage, patched, input_name",
        [("classify", "classify_hunks", "corrected.jsonl"), ("apply", "apply_corrections", "classified.jsonl")],
    )
    def test_a_fault_is_one_error_line(self, run_out, tmp_path, monkeypatch, capsys, stage, patched, input_name):
        self.fails_on_p02(monkeypatch, patched, RuntimeError("boom"))
        args = [stage, "--input", str(run_out / input_name), "--output", str(tmp_path / "o")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: internal error in {stage} on record p02: RuntimeError: boom"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_logs_the_traceback_in_a_configured_process(self, run_out, tmp_path, monkeypatch, caplog, verbose):
        # the test runner has configured logging already, so the CLI's basicConfig does nothing here
        self.fails_on_p02(monkeypatch, "apply_corrections", RuntimeError("boom"))
        args = ["apply", "--input", str(run_out / "classified.jsonl"), "--output", str(tmp_path / "o")]
        assert main(["--verbose"] * verbose + args) == 1
        logged = [r for r in caplog.records if r.name == "histocr.cli" and r.levelno == logging.DEBUG]
        assert [r.getMessage() for r in logged] == ["internal error"] * verbose
        assert all(isinstance(r.exc_info[1], pipeline.RecordError) for r in logged)

    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_logs_the_traceback(self, run_out, tmp_path, verbose):
        # a process of its own, whose logging the CLI configures, as the console script's is
        script = f"""
import sys
from histocr import cli, pipeline
real = pipeline.apply_corrections
def fails(original, *args, **kwargs):
    if "jeneral" in original:
        raise RuntimeError("boom")
    return real(original, *args, **kwargs)
pipeline.apply_corrections = fails
sys.exit(cli.main({["--verbose"] * verbose + ["apply", "--input", str(run_out / "classified.jsonl"), "--output", str(tmp_path / "o")]!r}))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(histocr.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert lines[-1] == "error: internal error in apply on record p02: RuntimeError: boom"
        # the traceback, the original exception's included, only in the debug log
        assert ("Traceback (most recent call last):" in lines) == verbose
        assert ('RuntimeError: boom' in lines) == verbose
        if not verbose:
            assert len(lines) == 1

    def test_a_fault_outside_any_record_names_the_command(self, run_out, tmp_path, monkeypatch, capsys):
        def fails(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "emit_lexicon", fails)
        args = ["apply", "--input", str(run_out / "classified.jsonl"), "--output", str(tmp_path / "o")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: internal error in apply: RuntimeError: boom"]

    @pytest.mark.parametrize("command", ["run", "classify"])
    def test_an_interrupt_exits_130(self, pipeline_fixture, run_out, tmp_path, monkeypatch, capsys, command):
        corpus, fixtures = pipeline_fixture
        self.fails_on_p02(monkeypatch, "classify_hunks", KeyboardInterrupt())
        args = ["--config", str(write_config(tmp_path / "config.json", corpus, fixtures)), command,
                "--input", str(corpus if command == "run" else run_out / "corrected.jsonl"),
                "--output", str(tmp_path / "o")]
        assert main(args) == 130
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: interrupted"]

    def test_a_stale_correction_costs_its_row(self, run_out, tmp_path, capsys, caplog):
        rows = [json.loads(line) for line in (run_out / "classified.jsonl").read_text(encoding="utf-8").splitlines()]
        stale = next(i for i, row in enumerate(rows) if any(c["label"] == "ocr_error" for c in row["corrections"]))
        correction = next(c for c in rows[stale]["corrections"] if c["label"] == "ocr_error")
        correction["position"] = [p + 1 for p in correction["position"]]  # one word later
        probe, without = tmp_path / "probe.jsonl", tmp_path / "without.jsonl"
        probe.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        without.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for i, r in enumerate(rows) if i != stale), encoding="utf-8"
        )
        args = ["apply", "--input", str(probe), "--output", str(tmp_path / "probe")]
        assert main(args) == 0
        assert main(["--strict"] + args) == 2
        assert f"apply: record {rows[stale]['id']} left out: stale correction at words" in caplog.text
        assert "error:" not in capsys.readouterr().err
        final = (run_out / "final.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert (tmp_path / "probe" / "final.jsonl").read_text(encoding="utf-8") == "".join(final[:stale] + final[stale + 1:])
        # the lexicons count only the rows written, as the report does
        assert main(["apply", "--input", str(without), "--output", str(tmp_path / "without")]) == 0
        for name in ("final.jsonl", "lexicon.tsv", "lexicon_nonaccent.tsv"):
            assert (tmp_path / "probe" / name).read_bytes() == (tmp_path / "without" / name).read_bytes(), name


class TestStrictCorrect:
    def test_failed_records_exit_2_in_strict_mode(self, tmp_path):
        text = "la sesion era mui corta y sin acuerdo alguno"
        corpus = tmp_path / "cleaned.jsonl"
        corpus.write_text(json.dumps({"id": "a", "text": text}) + "\n", encoding="utf-8")
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text(
            json.dumps({"input_hash": MockBackend.hash_text(text), "output": TRANSPORT_ERROR_SENTINEL})
            + "\n",
            encoding="utf-8",
        )
        args = ["correct", "--input", str(corpus), "--output", str(tmp_path),
                "--backend", "mock", "--fixtures", str(fixtures), "--retry-attempts", "1"]
        assert main(args) == 0
        assert main(["--strict"] + args) == 2
        row = json.loads((tmp_path / "corrected.jsonl").read_text(encoding="utf-8"))
        assert row["llm_outcome"] == "transport_error"

    def test_empty_text_row_costs_one_record(self, tmp_path):
        corpus = tmp_path / "cleaned.jsonl"
        rows = [{"id": "a", "text": "la sesion era mui corta"}, {"id": "b", "text": ""}]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "corrected.jsonl"
        args = ["correct", "--input", str(corpus), "--output", str(tmp_path), "--backend", "identity"]
        assert main(args) == 0
        assert main(["--strict"] + args) == 2
        written = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["id"], r["llm_outcome"]) for r in written] == [("a", "ok"), ("b", "transport_error")]
        assert written[0]["text_llm"] == rows[0]["text"]
        assert "empty text" in written[1]["llm_detail"]

    def test_backend_exception_costs_one_record(self, tmp_path, monkeypatch):
        texts = ["la sesion era mui corta", "el prefecto llego tarde", "sin acuerdo alguno"]
        corpus = tmp_path / "cleaned.jsonl"
        corpus.write_text(
            "".join(json.dumps({"id": str(i), "text": t}) + "\n" for i, t in enumerate(texts)),
            encoding="utf-8",
        )

        class CrashesOnce:
            def complete(self, prompt, text):
                if text == texts[1]:
                    raise RuntimeError("boom")
                return text

        monkeypatch.setattr(pipeline, "make_backend", lambda config: CrashesOnce())
        out = tmp_path / "corrected.jsonl"
        args = ["correct", "--input", str(corpus), "--output", str(tmp_path), "--concurrency", "2"]
        assert main(args) == 0
        assert main(["--strict"] + args) == 2
        written = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["llm_outcome"] for r in written] == ["ok", "transport_error", "ok"]
        assert [r["text_llm"] for r in written] == [texts[0], None, texts[2]]
        assert written[1]["llm_detail"] == "not retried: RuntimeError: boom"


class TestStrictWholeTextReject:
    """A wholesale rewrite is judged by classify, so strict mode fails there, not in correct."""

    TEXT = "Cronica de la visita del prefecto a las escuelas del distrito."
    REWRITE = "El gobierno anuncia hoy una reforma completa de todos los tributos."

    def write_inputs(self, tmp_path: Path) -> tuple[Path, Path]:
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "a", "year": 1846, "text": self.TEXT}) + "\n", encoding="utf-8")
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text(
            json.dumps({"input_hash": MockBackend.hash_text(self.TEXT), "output": self.REWRITE}) + "\n",
            encoding="utf-8",
        )
        return corpus, fixtures

    def test_correct_passes_and_classify_fails(self, tmp_path):
        corpus, fixtures = self.write_inputs(tmp_path)
        corrected, classified = tmp_path / "corrected.jsonl", tmp_path / "classified.jsonl"
        assert main(["--strict", "correct", "--input", str(corpus), "--output", str(tmp_path),
                     "--backend", "mock", "--fixtures", str(fixtures)]) == 0
        assert json.loads(corrected.read_text(encoding="utf-8"))["llm_outcome"] == "ok"
        classify = ["classify", "--input", str(corrected), "--output", str(tmp_path)]
        assert main(classify) == 0
        assert main(["--strict"] + classify) == 2
        assert json.loads(classified.read_text(encoding="utf-8"))["llm_outcome"] == "global_hallucination"

    def test_run_strict_exits_2_on_a_rewrite_alone(self, tmp_path):
        corpus, fixtures = self.write_inputs(tmp_path)
        run = ["run", "--input", str(corpus), "--output", str(tmp_path / "out"),
               "--backend", "mock", "--fixtures", str(fixtures)]
        assert main(run) == 0
        assert main(["--strict"] + run) == 2
        (row,) = (tmp_path / "out" / "final.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(row)["status"] == "excluded_llm_failure"


class TestMalformedFixtures:
    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ('{"input_hash": "x"}', "missing field 'output'"),
            ("[1]", "row is not an object"),
            ("{bad", "Expecting property name"),
            ('{"input_hash": "x", "output": "caf\xff"}', "can't decode byte 0xff"),
            ('{"input_hash": 5, "output": "x"}', "'input_hash' and 'output' must be strings"),
            ('{"input_hash": "x", "output": null}', "'input_hash' and 'output' must be strings"),
            (nested({"input_hash": "x", "output": "x"}), "maximum recursion depth exceeded"),
        ],
        ids=["missing-output", "array", "broken-json", "not-utf-8", "number-hash", "null-output", "nested-too-deep"],
    )
    def test_bad_fixture_row_is_a_clean_failure(self, tmp_path, capsys, bad_line, message):
        corpus = tmp_path / "cleaned.jsonl"
        corpus.write_text(json.dumps({"id": "a", "text": "la sesion era mui corta"}) + "\n", encoding="utf-8")
        fixtures = tmp_path / "fixtures.jsonl"
        good = json.dumps({"input_hash": MockBackend.hash_text("otro"), "output": "otro"})
        # latin-1 writes "\xff" as the one byte 0xff and every other character here as itself
        fixtures.write_bytes((good + "\n" + bad_line + "\n").encode("latin-1"))
        out = tmp_path / "corrected.jsonl"
        code = main(["correct", "--input", str(corpus), "--output", str(tmp_path),
                     "--backend", "mock", "--fixtures", str(fixtures)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fixtures}: line 2: error: ")
        assert message in err
        assert not out.exists()


RUN = ["run", "--input", "corpus.jsonl", "--output", "out"]


class TestConfigOverrides:
    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (["--strict"] + RUN, "strict", True),
            (RUN + ["--backend", "mock"], "backend", "mock"),
            (RUN + ["--fixtures", "fixtures.jsonl"], "mock_fixtures", "fixtures.jsonl"),
            (RUN + ["--endpoint", "https://example.test/v1"], "endpoint", "https://example.test/v1"),
            (RUN + ["--model", "modelo"], "model", "modelo"),
            (RUN + ["--api-key-env", "OTRA_CLAVE"], "api_key_env", "OTRA_CLAVE"),
            (RUN + ["--concurrency", "7"], "concurrency", 7),
            (RUN + ["--retry-attempts", "5"], "retry_attempts", 5),
            (RUN + ["--max-chars", "900"], "max_chars", 900),
            (RUN + ["--count-whitespace"], "count_whitespace", True),
            (RUN + ["--min-tokens", "2"], "min_tokens", 2),
            (RUN + ["--max-nonalpha", "0.3"], "max_nonalpha", 0.3),
            (RUN + ["--modernize"], "modernize", True),
            (RUN + ["--rules", "rules.tsv"], "rules_path", "rules.tsv"),
            (RUN + ["--ratio-threshold", "0.6"], "ratio_threshold", 0.6),
            (RUN + ["--max-words", "2"], "max_corrected_words", 2),
            (["clean", "--input", "corpus.jsonl", "--output", "out", "--count-whitespace"],
             "count_whitespace", True),
            (RUN + ["--strict"], "strict", True),
            (["clean", "--input", "corpus.jsonl", "--output", "out", "--strict"], "strict", True),
        ],
    )
    def test_flag_lands_in_its_field(self, argv, field, value):
        config = _build_config(build_parser().parse_args(argv))
        # --input and --output set input and output_dir; nothing else moves
        base = PipelineConfig(input="corpus.jsonl", output_dir="out")
        assert config == replace(base, **{field: value})

    def test_unset_flag_overrides_no_config_value(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"count_whitespace": True, "modernize": True, "min_tokens": 2, "strict": True}))
        # --config before the command and after it
        for argv in (["--config", str(config)] + RUN, RUN + ["--config", str(config)]):
            assert _build_config(build_parser().parse_args(argv)) == PipelineConfig(
                input="corpus.jsonl", output_dir="out", count_whitespace=True, modernize=True, min_tokens=2,
                strict=True,
            ), argv

    def test_defaults_are_the_stage_settings_defaults(self):
        # PipelineConfig writes these defaults out: on the NamedTuples RetryPolicy and
        # ClassifierConfig, a class attribute such as ClassifierConfig.ratio_threshold is the
        # field's accessor, not its default
        config, policy, thresholds = PipelineConfig(), RetryPolicy(), ClassifierConfig()
        assert (config.retry_attempts, config.backoff_base) == (policy.max_attempts, policy.backoff_base)
        assert (config.ratio_threshold, config.max_corrected_words, config.promote_min_frequency) == (
            thresholds.ratio_threshold, thresholds.max_corrected_words, thresholds.promote_min_frequency
        )
        assert pipeline.classifier_config(config) == thresholds


COMMANDS = {
    **{command: ["--input", "in.jsonl", "--output", "out"] for command in ["run", *STAGE_LAYOUT]},
    "diff": ["--original", "a.txt", "--corrected", "b.txt"],
}


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_global_flags_after_the_command(self, command):
        after = [command, *COMMANDS[command], "--verbose", "--strict"]
        # given before the command, a global flag is not reset by its absence after it
        before = ["--verbose", "--strict", command, *COMMANDS[command]]
        for argv in (after, before):
            args = build_parser().parse_args(argv)
            assert "verbose" in args and _build_config(args).strict is True, argv

    def test_run_takes_every_stage_flag(self):
        (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
        run_flags = {s for a in commands["run"]._actions for s in a.option_strings}
        for command in STAGE_LAYOUT:
            flags = {s for a in commands[command]._actions for s in a.option_strings}
            assert flags - {"-h", "--help", "--input", "--output"} <= run_flags, command
