"""Anomaly detectors, engine, halt-and-dump, and the health triage CLI."""

import json

import numpy as np
import pytest

from repro.obs.health import (Anomaly, AnomalyEngine, AnomalyHalted,
                              DeadLayerDetector, GradNormSpikeDetector,
                              LossSpikeDetector, NonFiniteDetector,
                              SaturationDetector, SkipStreakDetector,
                              analyze_rows, default_detectors, main)
from repro.obs.metrics import MetricsRecorder
from repro.obs.numerics import NumericsCollector, StepNumerics, use_collector


def _rec(step=1, *, loss=1.0, tokens=1, applied=True, scale=None,
         norm=0.0, streak=0, groups=None, acts=None):
    return StepNumerics(step=step, loss=loss, num_tokens=tokens,
                        applied=applied, loss_scale=scale,
                        global_grad_norm=norm, skip_streak=streak,
                        groups=groups or {}, activations=acts or {})


class TestNonFiniteDetector:
    def test_attributes_first_bad_layer_in_group_order(self):
        det = NonFiniteDetector()
        groups = {"embed": {"grad_nan": 0, "grad_inf": 0, "grad_n": 8},
                  "enc0": {"grad_nan": 2, "grad_inf": 1, "grad_n": 8},
                  "enc1": {"grad_nan": 1, "grad_inf": 0, "grad_n": 8}}
        out = det.observe(_rec(groups=groups))
        assert [a.layer for a in out] == ["enc0", "enc1"]
        assert out[0].kind == "nonfinite_grad"
        assert out[0].severity == "error"          # applied step: emergency
        assert "nan=2" in out[0].detail

    def test_scaler_caught_overflow_is_warn(self):
        det = NonFiniteDetector()
        out = det.observe(_rec(applied=False,
                               groups={"ffn": {"grad_inf": 3,
                                               "grad_n": 8}}))
        assert out[0].severity == "warn"

    def test_activation_taps_checked(self):
        det = NonFiniteDetector()
        out = det.observe(_rec(acts={"enc0.out": {"nan": 4, "inf": 0}}))
        assert out[0].kind == "nonfinite_activation"
        assert out[0].layer == "enc0.out"

    def test_clean_step_silent(self):
        assert NonFiniteDetector().observe(
            _rec(groups={"a": {"grad_nan": 0, "grad_inf": 0}})) == []


class TestGradNormSpikeDetector:
    def test_spike_after_warmup(self):
        det = GradNormSpikeDetector(warmup=3, factor=10.0)
        for s in range(1, 4):
            assert det.observe(_rec(s, norm=1.0)) == []
        out = det.observe(_rec(4, norm=50.0))
        assert out and out[0].kind == "grad_norm_spike"
        assert out[0].severity == "warn"

    def test_silent_during_warmup(self):
        det = GradNormSpikeDetector(warmup=5)
        assert det.observe(_rec(1, norm=1e9)) == []

    def test_zero_norm_not_in_history(self):
        det = GradNormSpikeDetector(warmup=2, factor=2.0)
        det.observe(_rec(1, norm=0.0))
        det.observe(_rec(2, norm=1.0))
        det.observe(_rec(3, norm=1.0))
        # median over {1.0, 1.0}: a 3.0 spikes; with 0.0 polluting the
        # history the median would be lower and this would still fire,
        # so assert the converse: 1.5 stays quiet
        assert det.observe(_rec(4, norm=1.5)) == []


class TestLossSpikeDetector:
    def test_nonfinite_loss_is_error(self):
        out = LossSpikeDetector().observe(_rec(loss=float("nan")))
        assert out[0].kind == "nonfinite_loss"
        assert out[0].severity == "error"

    def test_spike_is_warn(self):
        det = LossSpikeDetector(warmup=3, factor=10.0)
        for s in range(1, 4):
            det.observe(_rec(s, loss=2.0, tokens=2))
        out = det.observe(_rec(4, loss=30.0, tokens=2))
        assert out and out[0].kind == "loss_spike"
        assert out[0].severity == "warn"


class TestDeadLayerDetector:
    def test_fires_once_after_patience(self):
        det = DeadLayerDetector(patience=3)
        dead = {"ffn": {"grad_l2": 0.0, "grad_nan": 0, "grad_inf": 0}}
        assert det.observe(_rec(1, groups=dead)) == []
        assert det.observe(_rec(2, groups=dead)) == []
        out = det.observe(_rec(3, groups=dead))
        assert out and out[0].kind == "dead_layer" and out[0].layer == "ffn"
        assert det.observe(_rec(4, groups=dead)) == []     # fired already

    def test_revival_resets(self):
        det = DeadLayerDetector(patience=2)
        dead = {"l": {"grad_l2": 0.0, "grad_nan": 0, "grad_inf": 0}}
        live = {"l": {"grad_l2": 1.0, "grad_nan": 0, "grad_inf": 0}}
        det.observe(_rec(1, groups=dead))
        det.observe(_rec(2, groups=dead))          # fires
        det.observe(_rec(3, groups=live))          # revives
        det.observe(_rec(4, groups=dead))
        out = det.observe(_rec(5, groups=dead))
        assert out                                  # can fire again

    def test_nonfinite_zero_l2_is_not_dead(self):
        det = DeadLayerDetector(patience=1)
        nan_group = {"l": {"grad_l2": 0.0, "grad_nan": 4, "grad_inf": 0}}
        assert det.observe(_rec(1, groups=nan_group)) == []


class TestSaturationDetector:
    def test_saturation_pressure(self):
        det = SaturationDetector(sat_limit=0.01)
        out = det.observe(_rec(scale=1024.0,
                               groups={"l": {"grad_sat_frac": 0.05}}))
        assert out and out[0].kind == "fp16_saturation"

    def test_underflow_pressure(self):
        det = SaturationDetector(sub_limit=0.5)
        out = det.observe(_rec(scale=2.0,
                               groups={"l": {"grad_sub_frac": 0.9,
                                             "grad_l2": 0.1}}))
        assert out and out[0].kind == "fp16_underflow"

    def test_inactive_without_loss_scale(self):
        det = SaturationDetector(sat_limit=0.0)
        assert det.observe(_rec(scale=None,
                                groups={"l": {"grad_sat_frac": 1.0}})) == []


class TestSkipStreakDetector:
    def test_fires_once_at_limit(self):
        det = SkipStreakDetector(limit=3)
        assert det.observe(_rec(1, streak=2)) == []
        out = det.observe(_rec(2, streak=3))
        assert out and out[0].kind == "loss_scale_skip_streak"
        assert det.observe(_rec(3, streak=4)) == []


class TestEngine:
    def test_default_catalog(self):
        kinds = {d.name for d in default_detectors()}
        assert {"nonfinite", "grad_norm_spike", "loss_spike", "dead_layer",
                "fp16_saturation", "skip_streak"} <= kinds

    def test_accumulates_and_first_bad_prefers_errors(self):
        eng = AnomalyEngine()
        eng.observe(_rec(2, streak=8, scale=2.0))            # warn-ish error
        eng.observe(_rec(5, loss=float("inf")))              # error
        eng.anomalies.append(Anomaly("x", step=1, severity="warn"))
        fb = eng.first_bad
        assert fb.severity == "error"
        assert fb.step == min(a.step for a in eng.anomalies
                              if a.severity == "error")
        assert any(a.severity == "error" for a in eng.anomalies)

    def test_anomaly_roundtrip(self):
        a = Anomaly("k", 3, layer="l", detail="d", severity="warn", t_s=1.5)
        assert Anomaly.from_dict(a.as_dict()) == a
        assert "step 3 [warn] k l: d" == str(a)


class TestHaltAndDump:
    def test_halt_on_error_dumps_snapshot(self, tmp_path):
        dump = tmp_path / "dump.json"
        col = NumericsCollector(1, halt_on_anomaly=True,
                                dump_path=str(dump))
        col.begin_step(1)
        with pytest.raises(AnomalyHalted) as ei:
            col.finish_step(loss=float("nan"), num_tokens=1)
        assert ei.value.anomaly.kind == "nonfinite_loss"
        snap = json.loads(dump.read_text())
        assert snap["schema"] == "repro.obs.numerics_dump/v1"
        assert snap["records"] and snap["anomalies"]
        assert "provenance" in snap

    def test_warns_do_not_halt(self):
        col = NumericsCollector(1, halt_on_anomaly=True)
        col.begin_step(1)
        # scaler-skipped nonfinite grad: warn severity, must not raise
        col._groups = {}
        rec = col.finish_step(loss=1.0, num_tokens=1, applied=False)
        assert rec.step == 1


class TestAnalyzeRows:
    def _rows(self):
        metrics = MetricsRecorder(config={"t": 1})
        col = NumericsCollector(1, metrics=metrics)
        with use_collector(col):
            for s in range(1, 4):
                col.begin_step(s)
                col.observe_activation("enc.out",
                                       np.ones(4, np.float32))
                loss = float("nan") if s == 3 else 1.0
                col.finish_step(loss=loss, num_tokens=2)
        return metrics.events

    def test_merges_recorded_and_recomputed(self):
        report = analyze_rows(self._rows())
        assert not report.healthy
        assert report.numerics_records == 3
        assert report.first_bad.step == 3
        assert report.first_bad.kind == "nonfinite_loss"
        # recorded anomaly events and the re-run engine found the same
        # thing — dedup must keep exactly one
        kinds = [(a.kind, a.step) for a in report.anomalies]
        assert kinds.count(("nonfinite_loss", 3)) == 1

    def test_header_carried(self):
        report = analyze_rows(self._rows())
        assert report.header and "config_hash" in report.header

    def test_step_rows_alone_support_skip_triage(self):
        rows = [{"step": s, "loss": 1.0, "num_tokens": 1,
                 "applied": False, "loss_scale": 2.0}
                for s in range(1, 10)]
        report = analyze_rows(rows)
        assert any(a.kind == "loss_scale_skip_streak"
                   for a in report.anomalies)
        assert report.steps == 9 and report.numerics_records == 0

    def test_empty_rows_healthy(self):
        report = analyze_rows([])
        assert report.healthy and report.steps == 0


class TestCLI:
    def _write(self, tmp_path, rows):
        p = tmp_path / "m.jsonl"
        with open(p, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
        return str(p)

    def test_healthy_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            {"step": 1, "loss": 1.0, "num_tokens": 2, "applied": True}])
        assert main([path]) == 0
        assert "HEALTHY" in capsys.readouterr().out

    def test_anomalies_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            {"event": "anomaly", "kind": "nonfinite_grad", "step": 2,
             "layer": "enc0.ffn", "severity": "error", "detail": "boom"}])
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "FIRST BAD STEP: 2" in out and "enc0.ffn" in out

    def test_json_output(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            {"step": 1, "loss": 1.0, "num_tokens": 2, "applied": True}])
        assert main([path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.health_report/v1"
        assert doc["healthy"] is True

    def test_run_record_input(self, tmp_path, capsys):
        from repro.obs.runrecord import make_run_record, write_run_record
        rec = make_run_record("t", metrics=[
            {"step": 1, "loss": 1.0, "num_tokens": 2, "applied": True}])
        p = tmp_path / "BENCH_t.json"
        write_run_record(str(p), rec)
        assert main([str(p)]) == 0

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 2
