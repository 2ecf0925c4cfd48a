"""Observability plane hardening: truncated/corrupt inputs, the
comm-retry detector, and fault-plan provenance stamps."""

import json

import pytest

from repro.obs.health import (EXIT_SKIPPED_LINES, CommRetryDetector,
                              analyze_rows)
from repro.obs.health import main as health_main
from repro.obs.metrics import (MetricsRecorder, StepMetrics, read_jsonl,
                               read_jsonl_tolerant)
from repro.obs.numerics import StepNumerics
from repro.obs.provenance import provenance
from repro.obs.runrecord import load_run_record


def _write_stream(path, *, torn=False):
    rows = [
        {"event": "header", "schema": "repro.obs.metrics/v2",
         "git_sha": None, "config_hash": "abc"},
    ]
    for step in (1, 2, 3):
        rows.append({"step": step, "loss": 8.0, "num_tokens": 64,
                     "wall_s": 0.01, "applied": True})
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
        if torn:
            f.write('{"step": 4, "loss": 8.0, "num_tok')   # crash mid-write


class TestTolerantJsonl:
    def test_strict_reader_rejects_torn_stream(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_stream(p, torn=True)
        with pytest.raises(ValueError, match="one-JSON-object-per-line"):
            read_jsonl(str(p))

    def test_tolerant_reader_skips_and_counts(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_stream(p, torn=True)
        rows, skipped = read_jsonl_tolerant(str(p))
        assert skipped == 1
        assert [r.get("step") for r in rows if "event" not in r] == [1, 2, 3]

    def test_clean_stream_skips_nothing(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_stream(p)
        rows, skipped = read_jsonl_tolerant(str(p))
        assert skipped == 0 and len(rows) == 4


class TestHealthCli:
    def test_torn_stream_warns_and_exits_4(self, tmp_path, capsys):
        p = tmp_path / "m.jsonl"
        _write_stream(p, torn=True)
        rc = health_main([str(p)])
        captured = capsys.readouterr()
        assert rc == EXIT_SKIPPED_LINES == 4
        assert "skipped 1 unparseable line" in captured.err
        assert "HEALTHY" in captured.out     # surviving rows still triaged

    def test_clean_stream_still_exits_0(self, tmp_path, capsys):
        p = tmp_path / "m.jsonl"
        _write_stream(p)
        assert health_main([str(p)]) == 0

    def test_json_report_carries_skipped_count(self, tmp_path, capsys):
        p = tmp_path / "m.jsonl"
        _write_stream(p, torn=True)
        assert health_main([str(p), "--json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["skipped_lines"] == 1

    def test_unreadable_input_still_exits_2(self, tmp_path, capsys):
        assert health_main([str(tmp_path / "absent.jsonl")]) == 2


class TestCorruptRunRecord:
    def test_truncated_record_raises_clear_error(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text('{"schema": "repro.obs.run_record/v1", "name": "x"')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_run_record(str(p))


class TestCommRetryDetector:
    def _rec(self, step, retries):
        return StepNumerics(step=step, comm_retries=retries)

    def test_quiet_run_is_silent(self):
        assert CommRetryDetector().observe(self._rec(1, 0)) == []

    def test_recovered_retry_warns(self):
        found = CommRetryDetector().observe(self._rec(3, 1))
        assert len(found) == 1
        a = found[0]
        assert a.kind == "comm_retry" and a.severity == "warn"
        assert a.step == 3

    def test_retry_storm_is_an_error(self):
        found = CommRetryDetector(storm_limit=4).observe(self._rec(5, 4))
        assert found[0].kind == "comm_retry_storm"
        assert found[0].severity == "error"

    def test_step_rows_feed_the_detector(self):
        rows = [{"step": 1, "loss": 8.0, "num_tokens": 64, "applied": True,
                 "comm_retries": 2}]
        report = analyze_rows(rows)
        assert any(a.kind == "comm_retry" for a in report.anomalies)

    def test_numerics_round_trips_comm_retries(self):
        rec = StepNumerics(step=2, comm_retries=3)
        assert StepNumerics.from_dict(rec.as_dict()).comm_retries == 3


class TestStepMetricsResilienceFields:
    def test_observe_step_records_retry_and_fault_stats(self):
        class Stats:
            step_retries = 2
            step_backoff_s = 1.5e-3

        class Injector:
            injections = [object(), object(), object()]

        rec = MetricsRecorder(provenance=False)
        m = rec.observe_step(step=1, loss=1.0, num_tokens=10, wall_s=0.1,
                             retry_stats=Stats(), faults=Injector())
        assert m.comm_retries == 2
        assert m.comm_retry_s == pytest.approx(1.5e-3)
        assert m.faults_injected == 3
        assert rec.records == [m]

    def test_defaults_stay_zero(self):
        m = StepMetrics(step=1, loss=0.0, num_tokens=1, wall_s=0.1)
        assert m.comm_retries == 0 and m.faults_injected == 0
        assert "comm_retries" in m.as_dict()


class TestFaultPlanProvenance:
    def test_fault_keys_surface_by_name(self):
        block = provenance({"fault_plan": "plan.json",
                            "fault_plan_digest": "abc123def456",
                            "fault_seed": 7, "lr": 5e-4})
        assert block["fault_plan_digest"] == "abc123def456"
        assert block["fault_seed"] == 7
        assert block["fault_plan"] == "plan.json"

    def test_clean_runs_not_stamped(self):
        block = provenance({"fault_plan": None, "lr": 5e-4})
        assert "fault_plan" not in block
        assert "fault_plan_digest" not in block
