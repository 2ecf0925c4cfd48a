"""Run records and the pairwise diff: schema, round-trip, regressions."""

import numpy as np
import pytest

from repro.obs.runrecord import (RUN_RECORD_SCHEMA, bench_record_path,
                                 load_run_record, make_run_record,
                                 write_run_record)
from repro.obs.trajectory import compare_main as main
from repro.obs.trajectory import diff_records, summarize_run_records


def _record(name="base", fwd=0.10, new_allocs=0, **kw):
    return make_run_record(
        name,
        stage_seconds={"forward": fwd, "backward": 2 * fwd},
        counters={"new_allocs_per_step": new_allocs, "claims_failed": 0},
        metrics=[{"step": 1, "loss": 4.0, "num_tokens": 16, "wall_s": 0.5,
                  "applied": True, "new_allocs": new_allocs,
                  "comm_exposed_s": 0.0}],
        **kw)


class TestRunRecord:
    def test_envelope(self):
        rec = _record(headers=["a"], rows=[[1]], config={"scale": "quick"},
                      notes="hi")
        assert rec["schema"] == RUN_RECORD_SCHEMA
        assert rec["name"] == "base"
        assert "python" in rec["environment"]
        assert rec["table"] == {"headers": ["a"], "rows": [[1]]}
        assert rec["config"] == {"scale": "quick"}
        assert rec["notes"] == "hi"

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_run_record(path, _record())
        loaded = load_run_record(path)
        assert loaded["stage_seconds"]["forward"] == pytest.approx(0.10)
        assert loaded["counters"]["new_allocs_per_step"] == 0

    def test_numpy_scalars_coerced(self, tmp_path):
        rec = _record(headers=["x"], rows=[[np.float64(1.5), np.int64(2)]])
        path = str(tmp_path / "np.json")
        write_run_record(path, rec)
        assert load_run_record(path)["table"]["rows"] == [[1.5, 2]]

    def test_write_rejects_non_record(self, tmp_path):
        with pytest.raises(ValueError, match="make_run_record"):
            write_run_record(str(tmp_path / "x.json"), {"name": "x"})

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"schema": "other/v9"}')
        with pytest.raises(ValueError, match="other/v9"):
            load_run_record(str(path))

    def test_bench_paths(self, tmp_path):
        assert bench_record_path("out", "fig01").endswith("BENCH_fig01.json")
        write_run_record(bench_record_path(str(tmp_path), "a"), _record("a"))
        write_run_record(bench_record_path(str(tmp_path), "b"), _record("b"))
        (tmp_path / "unrelated.json").write_text("{}")
        found = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        assert found == ["BENCH_a.json", "BENCH_b.json"]


class TestSummarize:
    def test_no_regression_when_identical(self):
        report, n = summarize_run_records(_record(), _record("cur"))
        assert n == 0
        assert "no regressions" in report
        assert "forward" in report and "new_allocs_per_step" in report

    def test_stage_slowdown_flagged(self):
        report, n = summarize_run_records(_record(), _record("cur", fwd=0.2))
        assert n == 2          # forward and backward both doubled
        assert "REGRESSION" in report
        assert "2 regression(s)" in report

    def test_slowdown_within_threshold_ok(self):
        _, n = summarize_run_records(_record(), _record("cur", fwd=0.102))
        assert n == 0

    def test_lower_is_better_counter_growth_flagged(self):
        report, n = summarize_run_records(_record(), _record(new_allocs=3))
        assert n == 1
        assert "new_allocs_per_step" in report and "REGRESSION" in report

    def test_empty_baseline_stages_raise(self, tmp_path, capsys):
        empty = make_run_record("base", stage_seconds={})
        with pytest.raises(ValueError, match="empty stage_seconds"):
            diff_records(empty, _record("cur"))
        base, cur = str(tmp_path / "b.json"), str(tmp_path / "c.json")
        write_run_record(base, empty)
        write_run_record(cur, _record("cur"))
        assert main([base, cur]) == 2
        assert "empty stage_seconds" in capsys.readouterr().err

    def test_missing_current_stage_is_a_hard_regression(self):
        # a stage the candidate never ran must fail, not pass with ratio 0
        # (a renamed/dropped stage would otherwise slip through the gate)
        diff = diff_records(
            make_run_record("b", stage_seconds={"forward": 0.1}),
            make_run_record("c", stage_seconds={}))
        (row,) = diff["stages"]
        assert row["missing"] and row["regression"]
        assert row["current_s"] is None and row["ratio"] is None
        assert diff["regressions"] == 1

    def test_main_exit_codes(self, tmp_path, capsys):
        base, cur = str(tmp_path / "b.json"), str(tmp_path / "c.json")
        write_run_record(base, _record())
        write_run_record(cur, _record("cur"))
        assert main([base, cur]) == 0
        write_run_record(cur, _record("cur", fwd=0.5))
        assert main([base, cur]) == 1
        assert main([base, cur, "--threshold", "5.0"]) == 0
        assert main([base, str(tmp_path / "missing.json")]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "error:" not in captured.out
