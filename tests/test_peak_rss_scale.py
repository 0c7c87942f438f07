import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "peak_rss_scale", Path(__file__).resolve().parents[1] / "scripts" / "peak_rss_scale.py"
)
peak_rss_scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_rss_scale)


def test_small_sizes_measure_a_fresh_run_each(tmp_path):
    rows = peak_rss_scale.measure([40, 20], 1, tmp_path)
    assert [row["records"] for row in rows] == [40, 20]
    for row in rows:
        assert row["corpus_mb"] > 0
        assert 0 < row["baseline_mb"] <= row["peak_mb"]
        assert (tmp_path / str(row["records"]) / "out" / "final.jsonl").is_file()
    # growth is measured from the smallest size, wherever it is listed
    assert rows[1]["growth_mb"] == 0.0
    assert rows[0]["growth_mb"] == rows[0]["peak_mb"] - rows[1]["peak_mb"]
    table = peak_rss_scale.render(rows).splitlines()
    assert table[0].split() == ["records", "corpus", "MB", "baseline", "MB", "peak", "MB", "growth", "MB"]
    assert [line.split()[0] for line in table[1:]] == ["40", "20"]
