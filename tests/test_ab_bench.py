import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab_bench", Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

END_TO_END = [
    {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "records_per_s", "unit": "records/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.06},
]


def run(**values):
    """A made-up ``perfbench/run.py`` result for two workloads."""
    metrics = {key.replace("__", "."): {"value": value, "unit": "x"} for key, value in values.items()}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


class TestSummarize:
    def test_medians_quartiles_change_and_wins(self):
        parent = [run(a__pipeline_s=s, a__records_per_s=10 / s, a__peak_rss_mb=30.0, a__reference_s=1.0)
                  for s in (1.0, 2.0, 3.0, 4.0, 5.0)]
        change = [run(a__pipeline_s=s, a__records_per_s=10 / s, a__peak_rss_mb=m, a__reference_s=1.0)
                  for s, m in ((0.5, 30.0), (2.5, 31.0), (2.0, 32.0), (3.0, 33.0), (5.0, 34.0))]
        rows = {row["metric"]: row for row in ab_bench.summarize(parent, change, END_TO_END)}
        assert list(rows) == ["a.pipeline_s", "a.records_per_s", "a.peak_rss_mb"]  # reference_s is no end-to-end metric
        time = rows["a.pipeline_s"]
        assert time["parent"] == (2.0, 3.0, 4.0)
        assert time["change"] == (2.0, 2.5, 3.0)
        assert time["relative"] == pytest.approx(-1 / 6)
        # pairs 1, 3 and 4 are faster; pair 5 ties, which wins nothing
        assert (time["won"], time["pairs"], time["over_bound"]) == (3, 5, False)
        # a higher-is-better metric wins where it is higher: the same pairs
        assert rows["a.records_per_s"]["won"] == 3
        rss = rows["a.peak_rss_mb"]
        assert (rss["won"], rss["relative"], rss["over_bound"]) == (0, pytest.approx(32 / 30 - 1), True)

    def test_one_workload_keys_and_one_pair(self):
        rows = ab_bench.summarize([run(pipeline_s=2.0)], [run(pipeline_s=2.4)], END_TO_END)
        assert [(r["metric"], r["parent"], r["change"], r["won"]) for r in rows] == [
            ("pipeline_s", (2.0, 2.0, 2.0), (2.4, 2.4, 2.4), 0)]
        assert rows[0]["relative"] == pytest.approx(0.2)
        assert rows[0]["over_bound"] is False

    def test_higher_is_better_falling_past_its_bound(self):
        rows = ab_bench.summarize([run(records_per_s=100.0)], [run(records_per_s=70.0)], END_TO_END)
        assert rows[0]["over_bound"] is True
        assert "-30.0%  0/1  worse than its bound" in ab_bench.render(rows)

    def test_a_run_without_results_is_not_ok(self):
        assert ab_bench.ok(run(pipeline_s=1.0))
        assert not ab_bench.ok({**run(pipeline_s=1.0), "failed": 1})
        assert not ab_bench.ok({"correct": False, "failed": None, "metrics": {}})
        # a metric missing from one run is left out rather than compared on fewer pairs
        assert ab_bench.summarize([run(pipeline_s=1.0)], [{"metrics": {}}], END_TO_END) == []


class TestExitCode:
    def main(self, monkeypatch, tmp_path, parent: dict, change: dict) -> int:
        """``main`` over two pairs whose runs are ``parent`` and ``change``, with no benchmark run."""
        monkeypatch.setattr(ab_bench, "run_once", lambda checkout, *_: change if checkout == ab_bench.ROOT else parent)
        return ab_bench.main(["--parent", str(tmp_path), "--pairs", "2", "--seconds", "0"])

    def test_within_every_bound_exits_0(self, monkeypatch, tmp_path, capsys):
        assert self.main(monkeypatch, tmp_path, run(pipeline_s=1.0), run(pipeline_s=1.2)) == 0
        assert "worse than its bound" not in capsys.readouterr().out

    def test_a_metric_worse_than_its_bound_exits_3(self, monkeypatch, tmp_path, capsys):
        assert self.main(monkeypatch, tmp_path, run(pipeline_s=1.0, peak_rss_mb=30.0),
                         run(pipeline_s=1.0, peak_rss_mb=32.0)) == 3
        out, err = capsys.readouterr()
        assert "peak_rss_mb" in out and "worse than its bound" in out
        assert "worse than its bound: peak_rss_mb" in err

    def test_an_incorrect_run_exits_1_even_when_worse_than_a_bound(self, monkeypatch, tmp_path):
        change = {**run(pipeline_s=2.0), "correct": False}
        assert self.main(monkeypatch, tmp_path, run(pipeline_s=1.0), change) == 1
