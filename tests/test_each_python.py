import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "each_python", Path(__file__).resolve().parents[1] / "scripts" / "each_python.py"
)
each_python = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(each_python)

PYTEST_OUTPUT = """\
........F.......E
=========================== short test summary info ============================
FAILED tests/test_pipeline.py::TestBackendConstruction::test_http_backend_wired_from_config - ModuleNotFoundError: No module named 'hypothesis'
ERROR tests/test_client.py - ModuleNotFoundError: No module named 'hypothesis'
1 failed, 1196 passed, 1 error in 41.20s
"""


def test_newest_patch_of_each_matrix_version(tmp_path):
    for name in ("3.10.13", "3.11.2", "3.11.7", "3.12.1", "3.9.18", "3.13.0", "3.13.0t", "2.7.18", "3.12.0"):
        (tmp_path / name / "bin").mkdir(parents=True)
        (tmp_path / name / "bin" / "python").touch()
    (tmp_path / "3.13.1").mkdir()  # no interpreter inside
    found = each_python.find_interpreters(tmp_path)
    assert list(found) == ["3.10.13", "3.11.7", "3.12.1", "3.13.0"]
    assert found["3.11.7"] == tmp_path / "3.11.7" / "bin" / "python"
    assert each_python.find_interpreters(tmp_path / "absent") == {}


def test_counts_and_failing_ids():
    assert each_python.parse_pytest(PYTEST_OUTPUT) == {
        "passed": 1196,
        "failed": 1,
        "errors": 1,
        "failing": [
            "tests/test_pipeline.py::TestBackendConstruction::test_http_backend_wired_from_config",
            "tests/test_client.py",
        ],
    }
    assert each_python.parse_pytest("1290 passed in 40.00s\n") == {"passed": 1290, "failed": 0, "errors": 0, "failing": []}
    # a run that printed no summary line counts nothing
    assert each_python.parse_pytest("") == {"passed": 0, "failed": 0, "errors": 0, "failing": []}


def test_missing_module_is_named():
    stderr = "Traceback (most recent call last):\n  ...\nModuleNotFoundError: No module named 'exceptiongroup'\n"
    assert each_python.missing_module(stderr) == "exceptiongroup"
    assert each_python.missing_module("SyntaxError: invalid syntax") is None


def test_one_line_per_interpreter():
    reference = {"newsprint/final.jsonl": "a", "newsprint/report.json": "b"}
    same = {"tier1": each_python.parse_pytest(PYTEST_OUTPUT), "demos_failed": [], "hashes": dict(reference),
            "runs_failed": []}
    line = each_python.render("3.12.1", same, reference)
    assert line == (
        "3.12.1: Tier-1 1196 passed, 1 failed, 1 errors (tests/test_pipeline.py::TestBackendConstruction::"
        "test_http_backend_wired_from_config, tests/test_client.py); demos ok; all 2 artifacts equal 3.11's"
    )
    other = {"tier1": {"missing": "exceptiongroup"}, "demos_failed": ["02_clean_corpus.py"],
             "hashes": {**reference, "newsprint/report.json": "c"}, "runs_failed": []}
    assert each_python.render("3.10.13", other, reference) == (
        "3.10.13: Tier-1 not run: pytest needs the module 'exceptiongroup', which this interpreter lacks; "
        "demos failed: 02_clean_corpus.py; artifacts differ from 3.11's: newsprint/report.json"
    )
    assert each_python.differing(other["hashes"], reference) == ["newsprint/report.json"]
    assert each_python.render("3.13.0", {**same, "runs_failed": ["newsprint"]}, None).endswith(
        "; mock run failed: newsprint"
    )
