"""Machine-readable run-record diffs: diff_records + `compare --json`."""

import json

from repro.obs.runrecord import make_run_record, write_run_record
from repro.obs.trajectory import compare_main as main
from repro.obs.trajectory import diff_records, summarize_run_records


def _rec(name="t", *, stages=None, counters=None, metrics=None):
    return make_run_record(name, stage_seconds=stages, counters=counters,
                           metrics=metrics)


class TestDiffRecords:
    def test_structure(self):
        base = _rec(stages={"forward": 1.0}, counters={"anomalies": 0})
        cur = _rec(stages={"forward": 1.02}, counters={"anomalies": 0})
        d = diff_records(base, cur)
        assert d["schema"] == "repro.obs.summarize/v1"
        assert d["baseline"]["provenance"] and d["current"]["provenance"]
        assert d["regressions"] == 0
        (row,) = d["stages"]
        assert row["stage"] == "forward" and not row["regression"]
        (crow,) = d["counters"]
        assert crow["counter"] == "anomalies" and not crow["regression"]

    def test_stage_regression_counted(self):
        d = diff_records(_rec(stages={"fwd": 1.0}),
                         _rec(stages={"fwd": 1.2}), threshold=0.05)
        assert d["regressions"] == 1 and d["stages"][0]["regression"]

    def test_anomaly_counter_growth_is_regression(self):
        d = diff_records(_rec(counters={"anomalies": 0}),
                         _rec(counters={"anomalies": 2}))
        assert d["regressions"] == 1

    def test_neutral_counter_growth_ignored(self):
        d = diff_records(_rec(counters={"elapsed_s": 1.0}),
                         _rec(counters={"elapsed_s": 99.0}))
        assert d["regressions"] == 0

    def test_metrics_pairs_informational(self):
        rows = [{"step": 1, "loss": 2.0, "num_tokens": 4, "wall_s": 0.5,
                 "applied": True}]
        d = diff_records(_rec(metrics=rows), _rec(metrics=rows))
        assert d["metrics"]["tokens_per_s"]["baseline"] == \
            d["metrics"]["tokens_per_s"]["current"] == 8.0
        assert d["regressions"] == 0

    def test_text_report_matches_diff(self):
        base = _rec(stages={"fwd": 1.0})
        cur = _rec(stages={"fwd": 2.0})
        text, n = summarize_run_records(base, cur)
        assert n == diff_records(base, cur)["regressions"] == 1
        assert "REGRESSION" in text


class TestMissingStage:
    """A stage present in the baseline but absent from the candidate is a
    *hard* failure — the old behaviour treated it as 0.0s (ratio 0, a free
    pass), which let a renamed or silently-dropped stage sail through."""

    def test_missing_stage_is_regression(self):
        d = diff_records(_rec(stages={"fwd": 1.0, "bwd": 2.0}),
                         _rec(stages={"fwd": 1.0}))
        assert d["regressions"] == 1
        (row,) = [r for r in d["stages"] if r["stage"] == "bwd"]
        assert row["regression"] and row["missing"]
        assert row["current_s"] is None and row["ratio"] is None

    def test_missing_stage_json_stays_strict(self):
        d = diff_records(_rec(stages={"bwd": 2.0}), _rec(stages={}))
        # json.dumps would emit non-standard NaN/Infinity tokens otherwise
        doc = json.loads(json.dumps(d, allow_nan=False))
        assert doc["regressions"] == 1

    def test_missing_stage_text_report(self):
        text, n = summarize_run_records(_rec(stages={"fwd": 1.0, "bwd": 2.0}),
                                        _rec(stages={"fwd": 1.0}))
        assert n == 1
        assert "(missing)" in text and "REGRESSION" in text

    def test_present_zero_stage_still_passes(self):
        # an explicitly-recorded 0.0 is data, not absence: ratio 0, no flag
        d = diff_records(_rec(stages={"fwd": 1.0}),
                         _rec(stages={"fwd": 0.0}))
        assert d["regressions"] == 0
        assert not d["stages"][0]["missing"]


class TestCLI:
    def _paths(self, tmp_path, base, cur):
        bp, cp = tmp_path / "b.json", tmp_path / "c.json"
        write_run_record(str(bp), base)
        write_run_record(str(cp), cur)
        return str(bp), str(cp)

    def test_json_flag(self, tmp_path, capsys):
        bp, cp = self._paths(tmp_path, _rec(stages={"fwd": 1.0}),
                             _rec(stages={"fwd": 1.0}))
        assert main([bp, cp, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.summarize/v1"
        assert doc["regressions"] == 0

    def test_json_regression_exit_one(self, tmp_path, capsys):
        bp, cp = self._paths(tmp_path, _rec(counters={"anomalies": 0}),
                             _rec(counters={"anomalies": 1}))
        assert main([bp, cp, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["regressions"] == 1


class TestMemoryCounters:
    """Memory-observatory counters diff lower-is-better: peak/waste/
    capacity/mem growth regresses, while OOM-boundary flags (where 1.0 is
    the *desired* measured outcome, e.g. fused_ooms_at_budget) stay
    neutral."""

    def test_peak_bytes_growth_is_regression(self):
        d = diff_records(_rec(counters={"arena_peak_bytes": 100.0}),
                         _rec(counters={"arena_peak_bytes": 200.0}))
        assert d["regressions"] == 1

    def test_waste_and_capacity_growth_is_regression(self):
        d = diff_records(
            _rec(counters={"waste_bytes": 10.0, "capacity_mib": 36.0}),
            _rec(counters={"waste_bytes": 40.0, "capacity_mib": 72.0}))
        assert d["regressions"] == 2

    def test_memory_token_gated(self):
        d = diff_records(_rec(counters={"peak_mem_mb": 10.0}),
                         _rec(counters={"peak_mem_mb": 20.0}))
        assert d["regressions"] == 1

    def test_oom_boundary_flag_stays_neutral(self):
        # fused_ooms_at_budget flipping 0 -> 1 is the *measured claim*
        # (the budget really splits fused from tiled), not a regression
        d = diff_records(_rec(counters={"fused_ooms_at_budget": 0.0}),
                         _rec(counters={"fused_ooms_at_budget": 1.0}))
        assert d["regressions"] == 0

    def test_arena_peak_in_metrics_summary(self):
        rows = [{"step": 1, "loss": 2.0, "num_tokens": 4, "wall_s": 0.5,
                 "applied": True, "arena_peak_bytes": 4096}]
        d = diff_records(_rec(metrics=rows), _rec(metrics=rows))
        assert d["metrics"]["arena_peak_bytes"]["baseline"] == 4096
        assert d["regressions"] == 0
