"""Perfetto exporters: trace_event schema, stream layout, JSON round-trip."""

import json

import pytest

from repro.backend.device import Device, use_device
from repro.obs.perfetto import (COMM_TID, COMPUTE_TID, HOST_PID, SIM_PID,
                                kernel_events, perfetto_trace,
                                schedule_events, span_events, write_trace)
from repro.obs.spans import SpanRecorder, span, use_recorder
from repro.sim.gpu_specs import V100
from repro.sim.timeline import BucketSchedule


def _slices(events):
    return [e for e in events if e["ph"] == "X"]


def _recorded_spans():
    rec = SpanRecorder()
    with use_recorder(rec):
        with span("step"):
            with span("fwd"):
                sum(range(100))
            with span("bwd"):
                sum(range(100))
    return rec.spans


def _trace_with_sync():
    dev = Device()
    with use_device(dev):
        with dev.stage_scope("forward"):
            dev.record("gemm_fwd", 1000, 1000, flops=2000, family="gemm")
            dev.record("softmax_fwd", 500, 500, family="softmax")
        with dev.stage_scope("backward"):
            dev.record("gemm_bwd", 1000, 1000, flops=4000, family="gemm")
        with dev.stage_scope("sync"):
            dev.record("allreduce", 4096, 4096, family="reduction")
    return dev.launches


def test_events_follow_trace_event_schema():
    events = span_events(_recorded_spans())
    for e in events:
        assert e["ph"] in ("X", "M")
        assert "pid" in e and "name" in e
        if e["ph"] == "X":
            for key in ("ts", "dur", "tid", "cat"):
                assert key in e, key
            assert e["dur"] > 0           # Perfetto drops zero-width slices


def test_span_events_carry_counter_args():
    events = _slices(span_events(_recorded_spans()))
    assert {e["name"] for e in events} == {"step", "fwd", "bwd"}
    for e in events:
        assert e["pid"] == HOST_PID
        for key in ("launches", "new_allocs", "arena_hits", "depth"):
            assert key in e["args"], key


def test_span_slices_nest_without_overlap():
    """Child slice intervals sit inside the parent's in trace time."""
    events = {e["name"]: e for e in _slices(span_events(_recorded_spans()))}
    outer = events["step"]
    for name in ("fwd", "bwd"):
        inner = events[name]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6


def test_kernel_events_split_compute_and_comm_threads():
    events = kernel_events(_trace_with_sync(), V100)
    kernels = [e for e in events if e.get("cat") == "kernel"]
    assert len(kernels) == 4
    by_name = {e["name"]: e for e in kernels}
    assert by_name["allreduce"]["tid"] == COMM_TID
    for name in ("gemm_fwd", "softmax_fwd", "gemm_bwd"):
        assert by_name[name]["tid"] == COMPUTE_TID
    # compute kernels run back-to-back on their stream
    comp = sorted((e for e in kernels if e["tid"] == COMPUTE_TID),
                  key=lambda e: e["ts"])
    for prev, nxt in zip(comp, comp[1:]):
        assert nxt["ts"] == pytest.approx(prev["ts"] + prev["dur"])
    # kernel slices carry the roofline inputs as args
    for e in kernels:
        for key in ("stage", "bytes", "flops", "family", "dtype_bytes",
                    "lib"):
            assert key in e["args"], key


def test_kernel_events_group_stages():
    events = kernel_events(_trace_with_sync(), V100)
    stages = [e for e in events if e.get("cat") == "stage"]
    assert [e["args"]["stage"] for e in stages] == [
        "forward", "backward", "sync"]
    fwd = stages[0]
    contained = [e for e in events if e.get("cat") == "kernel"
                 and e["args"]["stage"] == "forward"]
    for k in contained:
        assert fwd["ts"] <= k["ts"]
        assert k["ts"] + k["dur"] <= fwd["ts"] + fwd["dur"] + 1e-6


def test_kernel_events_thread_metadata():
    events = kernel_events(_trace_with_sync(), V100)
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("thread_name", "compute stream") in names
    assert ("thread_name", "comm stream") in names
    # no comm metadata when the trace has no sync-stage kernels
    no_sync = kernel_events(_trace_with_sync()[:3], V100)
    assert all(e["args"]["name"] != "comm stream"
               for e in no_sync if e["ph"] == "M")


def test_schedule_events_expose_overlap():
    sched = BucketSchedule(ready_s=(0.1, 0.2), start_s=(0.1, 0.25),
                           finish_s=(0.25, 0.45), comm_total_s=0.35,
                           exposed_s=0.15, backward_s=0.3)
    events = schedule_events(sched, pid=7)
    comm = [e for e in events if e.get("cat") == "comm"]
    assert [e["name"] for e in comm] == ["bucket0/allreduce",
                                        "bucket1/allreduce"]
    assert all(e["tid"] == COMM_TID and e["pid"] == 7 for e in comm)
    assert comm[0]["args"]["hidden"] is True
    assert comm[1]["args"]["hidden"] is False
    exposed = [e for e in events if e.get("cat") == "exposed"]
    assert len(exposed) == 1
    assert exposed[0]["args"]["exposed_s"] == pytest.approx(0.15)
    backward = [e for e in events if e.get("cat") == "stage"]
    assert backward[0]["tid"] == COMPUTE_TID


def test_perfetto_trace_roundtrips_through_json(tmp_path):
    sched = BucketSchedule(ready_s=(0.1,), start_s=(0.1,), finish_s=(0.2,),
                           comm_total_s=0.1, exposed_s=0.0, backward_s=0.3)
    trace = perfetto_trace(spans=_recorded_spans(),
                           kernels=_trace_with_sync(), spec=V100,
                           schedule=sched, metadata={"task": "unit"})
    path = tmp_path / "t.json"
    write_trace(str(path), trace)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(trace))
    assert loaded["displayTimeUnit"] == "ms"
    assert loaded["otherData"]["task"] == "unit"
    assert loaded["otherData"]["exporter"] == "repro.obs.perfetto"
    pids = {e["pid"] for e in loaded["traceEvents"]}
    assert {HOST_PID, SIM_PID, SIM_PID + 1} <= pids


def test_kernels_without_spec_rejected():
    with pytest.raises(ValueError, match="GPUSpec"):
        perfetto_trace(kernels=_trace_with_sync())


def test_empty_trace_is_valid():
    trace = perfetto_trace()
    assert trace["traceEvents"] == []
    json.dumps(trace)


# -- counter tracks (roofline + per-step metrics) ----------------------------


def _counters(events, name=None):
    return [e for e in events if e["ph"] == "C"
            and (name is None or e["name"] == name)]


def test_roofline_counter_tracks():
    from repro.obs.perfetto import roofline_counter_events
    trace = _trace_with_sync()
    events = roofline_counter_events(trace, V100)
    names = {e["name"] for e in events}
    assert names == {"roofline: intensity (FLOP/B)",
                     "roofline: achieved/peak",
                     "roofline: bound (0=mem 1=flop 2=launch)"}
    # one sample per track per kernel, on the simulated clock
    assert len(events) == 3 * len(trace)
    for e in events:
        assert e["pid"] == SIM_PID
        assert e["args"]["value"] >= 0
    bounds = _counters(events, "roofline: bound (0=mem 1=flop 2=launch)")
    assert all(e["args"]["value"] in (0, 1, 2) for e in bounds)


def test_metric_counter_tracks():
    from types import SimpleNamespace
    from repro.obs.perfetto import metric_counter_events
    steps = [
        SimpleNamespace(wall_s=0.1, arena_capacity_bytes=1 << 20,
                        loss_scale=1024.0, comm_retries=0),
        SimpleNamespace(wall_s=0.1, arena_capacity_bytes=2 << 20,
                        loss_scale=512.0, comm_retries=2),
    ]
    events = metric_counter_events(steps)
    arena = _counters(events, "arena bytes in use")
    assert [e["args"]["value"] for e in arena] == [1 << 20, 2 << 20]
    # steps land on a cumulative wall clock
    assert arena[1]["ts"] > arena[0]["ts"]
    retries = _counters(events, "comm retries (cumulative)")
    assert [e["args"]["value"] for e in retries] == [0, 2]
    assert [e["args"]["value"]
            for e in _counters(events, "loss scale")] == [1024.0, 512.0]


def test_loss_scale_track_skipped_for_fp32():
    from types import SimpleNamespace
    from repro.obs.perfetto import metric_counter_events
    steps = [SimpleNamespace(wall_s=0.1, arena_capacity_bytes=0,
                             loss_scale=None, comm_retries=0)]
    assert _counters(metric_counter_events(steps), "loss scale") == []


def test_perfetto_trace_emits_counters_with_kernels():
    trace = perfetto_trace(kernels=_trace_with_sync(), spec=V100)
    assert _counters(trace["traceEvents"])
    quiet = perfetto_trace(kernels=_trace_with_sync(), spec=V100,
                           counters=False)
    assert not _counters(quiet["traceEvents"])


def test_kernel_slices_roundtrip_through_args():
    from repro.obs.perfetto import trace_kernels
    launches = _trace_with_sync()
    doc = perfetto_trace(kernels=launches, spec=V100)
    assert trace_kernels(doc) == list(launches)


def test_memory_counter_tracks():
    from repro.backend.arena import (ActivationArena, mem_scope,
                                     use_memory_tracer)
    from repro.obs.memory import MemoryTracer
    from repro.obs.perfetto import memory_counter_events
    tracer = MemoryTracer()
    arena = ActivationArena()
    with use_memory_tracer(tracer):
        for _ in range(2):
            arena.begin_step()
            with mem_scope("m.block0.attn"):
                arena.request((64, 64))
            with mem_scope("m.block0.ffn"):
                arena.request((32, 32))
    events = memory_counter_events(tracer)
    occ = _counters(events, "arena occupancy (bytes)")
    vals = [e["args"]["value"] for e in occ]
    # the sawtooth: cumulative within a step, reset at step boundaries
    assert vals.count(0) == 2                   # one reset per begin_step
    peak = max(vals)
    assert vals[-1] == peak and peak > 0
    # per-family tracks carry the attributed bytes
    fams = {e["name"] for e in _counters(events)} - {
        "arena occupancy (bytes)"}
    assert {"arena bytes: attention", "arena bytes: ffn"} <= fams


def test_memory_oom_instant_event():
    from repro.backend.arena import ActivationArena, ArenaOOM, \
        use_memory_tracer
    from repro.obs.memory import MemoryTracer
    from repro.obs.perfetto import memory_counter_events
    tracer = MemoryTracer()
    arena = ActivationArena(max_bytes=256)
    with use_memory_tracer(tracer):
        arena.begin_step()
        with pytest.raises(ArenaOOM):
            arena.request((1024, 1024))
    (oom,) = [e for e in memory_counter_events(tracer)
              if e.get("ph") == "i"]
    assert oom["name"] == "arena OOM"
    assert oom["args"]["requested_bytes"] == 1024 * 1024 * 4
