import json
from pathlib import Path

import pytest

from conftest import GOLDEN_CORRECTED, GOLDEN_ORIGINAL
from histocr.cli import main
from histocr.pipeline import ARTIFACTS


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

    def test_unknown_config_key_rejected(self, pipeline_fixture, tmp_path, capsys):
        corpus, _ = pipeline_fixture
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ratio_treshold": 0.5}), encoding="utf-8")
        code = main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

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
                     "--output", str(out), "--dry-run"]) == 0
        final = (out / "final.jsonl").read_text(encoding="utf-8")
        for line in final.splitlines():
            row = json.loads(line)
            if row["status"] == "corrected":
                assert row["text_llm"] == row["text"]


class TestStageCommands:
    def test_stagewise_composition_matches_run(self, pipeline_fixture, tmp_path):
        corpus, fixtures = pipeline_fixture
        config = write_config(tmp_path / "config.json", corpus, fixtures)
        out_run, out_st = tmp_path / "run", tmp_path / "stages"
        assert main(["--config", str(config), "run", "--input", str(corpus),
                     "--output", str(out_run)]) == 0

        out_st.mkdir()
        base = ["--config", str(config)]
        assert main(base + ["clean", "--input", str(corpus),
                            "--output", str(out_st / "cleaned.jsonl"),
                            "--removed", str(out_st / "removed.jsonl"),
                            "--report", str(out_st / "cleaning_report.json")]) == 0
        assert main(base + ["correct", "--input", str(out_st / "cleaned.jsonl"),
                            "--output", str(out_st / "corrected.jsonl")]) == 0
        assert main(base + ["classify", "--input", str(out_st / "corrected.jsonl"),
                            "--output", str(out_st / "classified.jsonl")]) == 0
        assert main(base + ["apply", "--input", str(out_st / "classified.jsonl"),
                            "--output", str(out_st / "final.jsonl"),
                            "--lexicon", str(out_st / "lexicon.tsv"),
                            "--lexicon-nonaccent", str(out_st / "lexicon_nonaccent.tsv")]) == 0
        assert main(base + ["report", "--input", str(out_st / "final.jsonl"),
                            "--out", str(out_st / "report.json")]) == 0
        assert main(base + ["report", "--input", str(out_st / "final.jsonl"),
                            "--format", "text", "--out", str(out_st / "report.txt")]) == 0
        for name in ARTIFACTS:
            assert (out_run / name).read_bytes() == (out_st / name).read_bytes(), name

    def test_clean_strict_exit_on_malformed_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "a", "text": "cinco palabras bien formadas aqui"})
            + "\n{broken\n",
            encoding="utf-8",
        )
        out = tmp_path / "cleaned.jsonl"
        assert main(["clean", "--input", str(corpus), "--output", str(out)]) == 0
        assert main(["--strict", "clean", "--input", str(corpus), "--output", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_clean_flags(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "text": "uno dos tres cuatro cinco"},
            {"id": "b", "text": "uno dos tres"},
        ]
        corpus.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        out = tmp_path / "cleaned.jsonl"
        report = tmp_path / "cleaning.json"
        assert main(["clean", "--input", str(corpus), "--output", str(out),
                     "--min-tokens", "2", "--report", str(report)]) == 0
        kept = out.read_text(encoding="utf-8").splitlines()
        assert len(kept) == 2  # three tokens clears a min-tokens of 2
        assert json.loads(report.read_text(encoding="utf-8"))["surviving"] == 2


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

    def test_identical_files_print_nothing(self, tmp_path, capsys):
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        path_a.write_text("mismo texto", encoding="utf-8")
        path_b.write_text("mismo  texto", encoding="utf-8")  # whitespace only
        assert main(["diff", "--original", str(path_a), "--corrected", str(path_b)]) == 0
        assert capsys.readouterr().out == ""


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
        out = tmp_path / "classified.jsonl"
        rules_copy = tmp_path / "rules.tsv"
        rules_copy.write_text(
            Path("src/histocr/data/rules.tsv").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main(["classify", "--input", str(corrected), "--output", str(out),
                     "--rules", str(rules_copy), "--ratio-threshold", "0.6",
                     "--max-words", "3"]) == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        labels = {c["original"]: c["label"] for c in rows[0]["corrections"]}
        assert labels == {"sesion": "surface_form", "mui": "surface_form"}

    def test_malformed_rules_file_is_a_clean_failure(self, tmp_path, capsys):
        corrected = self.corrected_row(tmp_path)
        bad_rules = tmp_path / "bad.tsv"
        bad_rules.write_text("three\tfields\tonly\n", encoding="utf-8")
        code = main(["classify", "--input", str(corrected),
                     "--output", str(tmp_path / "out.jsonl"),
                     "--rules", str(bad_rules)])
        assert code == 1
        assert "expected 7" in capsys.readouterr().err

    def test_apply_on_stale_classified_file_is_a_clean_failure(self, tmp_path, capsys):
        corrected = self.corrected_row(tmp_path)
        classified = tmp_path / "classified.jsonl"
        assert main(["classify", "--input", str(corrected), "--output", str(classified)]) == 0
        row = json.loads(classified.read_text(encoding="utf-8"))
        row["text"] = row["text"].replace("mui", "muy")  # text edited after classify
        classified.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        code = main(["apply", "--input", str(classified),
                     "--output", str(tmp_path / "final.jsonl"), "--modernize"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stale correction")
        assert "Traceback" not in err

    def test_clean_max_nonalpha_flag(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "text": "cinco palabras limpias aqui mismo"},
            {"id": "b", "text": "uno 1 dos 2 tres 3 cuatro 4"},  # 7/22 non-alpha
        ]
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        out = tmp_path / "cleaned.jsonl"
        assert main(["clean", "--input", str(corpus), "--output", str(out),
                     "--max-nonalpha", "0.1"]) == 0
        kept = [json.loads(l)["id"] for l in out.read_text(encoding="utf-8").splitlines()]
        assert kept == ["a"]
