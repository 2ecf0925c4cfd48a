"""MetricsRecorder: step records, JSONL round-trip, append-only semantics."""

import json

import pytest

from repro.backend.profiler import count_fresh_alloc, reset_alloc_counters
from repro.obs.metrics import (METRICS_SCHEMA, MetricsRecorder, StepMetrics,
                               read_jsonl)
from repro.obs.runrecord import make_run_record
from repro.obs.trajectory import metric_values
from repro.precision.loss_scaler import DynamicLossScaler
from repro.sim.timeline import BucketSchedule


def test_basic_step_record():
    rec = MetricsRecorder()
    m = rec.observe_step(step=1, loss=12.0, num_tokens=48, wall_s=0.5)
    assert m.loss_per_token == pytest.approx(0.25)
    assert m.tokens_per_s == pytest.approx(96.0)
    assert m.applied and not m.overflow
    assert m.loss_scale is None
    assert rec.steps == 1


def test_scaler_arena_comm_sections():
    class FakeArena:
        reservations = 2
        capacity = 1 << 20

    scaler = DynamicLossScaler(init_scale=2.0 ** 8)
    sched = BucketSchedule(ready_s=(0.1,), start_s=(0.1,), finish_s=(0.3,),
                           comm_total_s=0.2, exposed_s=0.05, backward_s=0.25)
    rec = MetricsRecorder()
    m = rec.observe_step(step=3, loss=1.0, num_tokens=10, wall_s=0.1,
                         applied=False, scaler=scaler, arena=FakeArena(),
                         comm=sched)
    assert m.overflow and not m.applied
    assert m.loss_scale == 2.0 ** 8
    assert m.arena_reservations == 2
    assert m.arena_capacity_bytes == 1 << 20
    assert m.comm_hidden_s == pytest.approx(0.15)
    assert m.comm_exposed_s == pytest.approx(0.05)


def test_alloc_delta_is_per_step():
    reset_alloc_counters()
    rec = MetricsRecorder()
    count_fresh_alloc(100)
    m1 = rec.observe_step(step=1, loss=0.0, num_tokens=1, wall_s=0.1)
    m2 = rec.observe_step(step=2, loss=0.0, num_tokens=1, wall_s=0.1)
    assert m1.new_allocs == 1 and m1.new_alloc_bytes == 100
    assert m2.new_allocs == 0          # delta resets between steps
    reset_alloc_counters()


def test_streaming_jsonl_one_object_per_line(tmp_path):
    path = str(tmp_path / "m.jsonl")
    rec = MetricsRecorder(path=path)
    for step in range(1, 4):
        rec.observe_step(step=step, loss=float(step), num_tokens=8,
                         wall_s=0.1)
    raw = open(path).read()
    lines = raw.splitlines()
    assert len(lines) == 4             # header event + 3 steps
    for line in lines:
        json.loads(line)               # each line is a standalone object
    steps = [r for r in read_jsonl(path) if "event" not in r]
    assert [m["step"] for m in steps] == [1, 2, 3]
    assert all("tokens_per_s" in m and "loss_per_token" in m for m in steps)


def test_write_jsonl_appends(tmp_path):
    path = str(tmp_path / "m.jsonl")
    first = MetricsRecorder()
    first.observe_step(step=1, loss=1.0, num_tokens=8, wall_s=0.1)
    first.write_jsonl(path)
    second = MetricsRecorder()
    second.observe_step(step=2, loss=1.0, num_tokens=8, wall_s=0.1)
    second.write_jsonl(path)           # append-only trajectory
    assert [m["step"] for m in read_jsonl(path) if "event" not in m] == [
        1, 2]


def test_header_event_carries_provenance(tmp_path):
    path = str(tmp_path / "m.jsonl")
    MetricsRecorder(path=path, config={"preset": "x"})
    rows = read_jsonl(path)
    assert len(rows) == 1
    header = rows[0]
    assert header["event"] == "header"
    assert header["schema"] == METRICS_SCHEMA
    assert "config_hash" in header and "git_sha" in header


def test_provenance_header_can_be_disabled():
    rec = MetricsRecorder(provenance=False)
    assert rec.events == []


def test_observe_event_streams(tmp_path):
    path = str(tmp_path / "m.jsonl")
    rec = MetricsRecorder(path=path, provenance=False)
    rec.observe_event("anomaly", kind="nonfinite_grad", step=7)
    rec.observe_step(step=7, loss=1.0, num_tokens=8, wall_s=0.1)
    rows = read_jsonl(path)
    assert [r.get("event") for r in rows] == ["anomaly", None]
    assert rows[0]["kind"] == "nonfinite_grad" and rows[0]["step"] == 7


def test_scaler_dynamics_columns():
    scaler = DynamicLossScaler(init_scale=2.0 ** 8, scale_window=1)
    rec = MetricsRecorder(provenance=False)
    scaler.update(True)                # backoff
    m = rec.observe_step(step=1, loss=1.0, num_tokens=8, wall_s=0.1,
                         applied=False, scaler=scaler)
    assert m.scale_backoffs == 1 and m.skip_streak == 1
    scaler.update(False)               # growth (window=1)
    m = rec.observe_step(step=2, loss=1.0, num_tokens=8, wall_s=0.1,
                         scaler=scaler)
    assert m.scale_growths == 1 and m.skip_streak == 0


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"step": 1}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        read_jsonl(str(path))


def _metrics_values(rec):
    """The step-row aggregates a run record of ``rec`` carries."""
    values = metric_values(make_run_record(
        "t", metrics=[r.as_dict() for r in rec.records]))
    return {k[len("metrics."):]: v for k, v in values.items()
            if k.startswith("metrics.")}


def test_summary_aggregates():
    rec = MetricsRecorder()
    rec.observe_step(step=1, loss=4.0, num_tokens=10, wall_s=0.5)
    rec.observe_step(step=2, loss=6.0, num_tokens=10, wall_s=0.5,
                     applied=False)
    s = _metrics_values(rec)
    assert s["tokens_per_s"] == pytest.approx(20.0)
    assert s["mean_loss_per_token"] == pytest.approx(0.5)
    assert s["skipped_steps"] == 1
    assert _metrics_values(MetricsRecorder()) == {}


def test_zero_wall_clock_is_defined():
    m = StepMetrics(step=1, loss=1.0, num_tokens=10, wall_s=0.0)
    assert m.tokens_per_s == 0.0


def test_arena_memory_columns():
    class FakeArena:
        reservations = 1
        capacity = 1 << 20
        peak_demand = 900_000
        demand = 800_000

    rec = MetricsRecorder()
    m = rec.observe_step(step=1, loss=0.5, num_tokens=8, wall_s=0.1,
                         arena=FakeArena())
    assert m.arena_peak_bytes == 900_000
    assert m.arena_step_demand_bytes == 800_000
    assert m.arena_waste_bytes == (1 << 20) - 800_000
    assert _metrics_values(rec)["arena_peak_bytes"] == 900_000
