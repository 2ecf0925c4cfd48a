"""Chrome/Perfetto ``trace_event`` exporters.

Renders the flight recorder's three time sources into one trace JSON that
https://ui.perfetto.dev (or ``chrome://tracing``) opens directly:

* **host spans** (wall clock) — pid 0, one row per recording thread;
* **simulated GPU kernels** (roofline-model time) — pid 1, with compute
  and comm as *separate threads*: every kernel launch becomes a slice
  carrying its bytes/FLOPs as args, sync-stage kernels run on the comm
  thread, and consecutive same-stage kernels are wrapped in enclosing
  stage slices (the Fig.-4 scopes);
* **two-stream overlap schedule** (:class:`repro.sim.timeline
  .BucketSchedule`) — per-bucket all-reduce slices on the comm thread plus
  the backward pass on the compute thread, making the hidden-vs-exposed
  split of Fig. 11 visible as overlap.

All events use the ``"X"`` (complete) phase with microsecond timestamps —
the minimal, universally-supported subset of the trace_event format.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from ..backend.device import FAMILIES, LIBS, STAGES, KernelLaunch
from ..sim.costmodel import kernel_time
from ..sim.gpu_specs import GPUSpec
from ..sim.timeline import BucketSchedule
from .roofline import analyze_launch
from .schema import (ABSENT, BOOL, INT, POSITIVE, STR, ListOf, Nullable,
                     Record, SchemaError, declare, one_of)
from .spans import Span

#: trace_event timestamps are microseconds.
_US = 1e6

HOST_PID = 0
SIM_PID = 1
COMPUTE_TID = 0
COMM_TID = 1


def _event(name: str, cat: str, ts_s: float, dur_s: float, pid: int,
           tid: int, args: Optional[Dict[str, object]] = None
           ) -> Dict[str, object]:
    ev: Dict[str, object] = {
        "name": name, "cat": cat, "ph": "X",
        "ts": ts_s * _US, "dur": max(dur_s * _US, 1e-3),
        "pid": pid, "tid": tid,
    }
    if args:
        ev["args"] = args
    return ev


def _thread_meta(pid: int, tid: int, name: str) -> Dict[str, object]:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def _process_meta(pid: int, name: str) -> Dict[str, object]:
    return {"name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name}}


def span_events(spans: Iterable[Span], pid: int = HOST_PID
                ) -> List[Dict[str, object]]:
    """Host wall-clock spans, one Perfetto row per recording thread."""
    events: List[Dict[str, object]] = []
    tids = set()
    for s in spans:
        tids.add(s.tid)
        events.append(_event(s.name, "span", s.start_s, s.dur_s, pid, s.tid,
                             args={"launches": s.launches,
                                   "new_allocs": s.alloc.new_allocs,
                                   "new_alloc_bytes": s.alloc.new_alloc_bytes,
                                   "arena_hits": s.alloc.arena_hits,
                                   "depth": s.depth}))
    events.append(_process_meta(pid, "host (wall clock)"))
    for tid in sorted(tids):
        events.append(_thread_meta(pid, tid, f"spans (thread {tid})"))
    return events


def kernel_events(trace: Sequence[KernelLaunch], spec: GPUSpec, *,
                  pid: int = SIM_PID, offset_s: float = 0.0
                  ) -> List[Dict[str, object]]:
    """Simulated kernel launches as slices, compute and comm on separate
    threads, with enclosing stage scopes.

    Kernel times come from the roofline model; compute kernels run
    back-to-back on the compute thread, sync-stage kernels advance the
    comm thread's own cursor (started at the moment the sync is reached),
    so overlap structure recorded by the device survives into the trace.
    """
    events: List[Dict[str, object]] = []
    #: (stage, tid, start_s, end_s) of the currently-open stage group
    open_group: Optional[List[object]] = None
    t_comp = t_comm = offset_s
    saw_comm = False

    def close_group() -> None:
        nonlocal open_group
        if open_group is not None:
            stage, tid, s0, s1 = open_group
            events.append(_event(f"stage:{stage}", "stage", s0, s1 - s0,
                                 pid, tid, args={"stage": stage}))
            open_group = None

    for k in trace:
        dt = kernel_time(k, spec)
        if k.stage == "sync":
            tid = COMM_TID
            saw_comm = True
            start = max(t_comm, t_comp)
            t_comm = start + dt
        else:
            tid = COMPUTE_TID
            start = t_comp
            t_comp = start + dt
        end = start + dt
        if open_group is not None and (open_group[0] != k.stage
                                       or open_group[1] != tid):
            close_group()
        if open_group is None:
            open_group = [k.stage, tid, start, end]
        else:
            open_group[3] = end
        # elems_read/elems_written make kernel slices *round-trippable*:
        # read_trace() rebuilds the exact KernelLaunch list from them,
        # which is how the profile CLI re-analyzes a saved trace.
        events.append(_event(k.name, "kernel", start, dt, pid, tid, args={
            "stage": k.stage, "bytes": k.bytes_moved, "flops": k.flops,
            "family": k.family, "dtype_bytes": k.dtype_bytes, "lib": k.lib,
            "elems_read": k.elems_read, "elems_written": k.elems_written,
        }))
    close_group()
    events.append(_process_meta(pid, f"sim GPU ({spec.name})"))
    events.append(_thread_meta(pid, COMPUTE_TID, "compute stream"))
    if saw_comm:
        events.append(_thread_meta(pid, COMM_TID, "comm stream"))
    return events


def _counter(name: str, ts_s: float, value: float, pid: int,
             tid: int = 0) -> Dict[str, object]:
    """A Perfetto "C" (counter) sample: the UI draws these as tracks."""
    return {"name": name, "cat": "counter", "ph": "C", "ts": ts_s * _US,
            "pid": pid, "tid": tid, "args": {"value": value}}


def roofline_counter_events(trace: Sequence[KernelLaunch], spec: GPUSpec, *,
                            pid: int = SIM_PID, offset_s: float = 0.0
                            ) -> List[Dict[str, object]]:
    """Roofline counter tracks aligned with :func:`kernel_events`.

    Three tracks sampled at every kernel boundary on the same simulated
    clock the kernel slices use: arithmetic intensity (FLOP/byte),
    achieved-vs-peak fraction of the binding resource, and the binding
    resource itself (0 = memory, 1 = compute, 2 = launch) — the
    Fig.-17-style utilization story lined up under the kernels causing it.
    """
    events: List[Dict[str, object]] = []
    bound_code = {"memory": 0, "compute": 1, "launch": 2}
    t_comp = t_comm = offset_s
    for k in trace:
        r = analyze_launch(k, spec)
        if k.stage == "sync":
            start = max(t_comm, t_comp)
            t_comm = start + r.time_s
        else:
            start = t_comp
            t_comp = start + r.time_s
        events.append(_counter("roofline: intensity (FLOP/B)", start,
                               r.intensity, pid))
        events.append(_counter("roofline: achieved/peak", start,
                               r.achieved_fraction, pid))
        events.append(_counter("roofline: bound (0=mem 1=flop 2=launch)",
                               start, bound_code[r.bound], pid))
    return events


def metric_counter_events(metrics: Iterable[object], *,
                          pid: int = HOST_PID, tid: int = 0
                          ) -> List[Dict[str, object]]:
    """Per-step counter tracks from :class:`repro.obs.metrics.StepMetrics`.

    Emits arena bytes-in-use, loss scale, and cumulative comm retries on
    the host (wall-clock) timeline, one sample per step at the step's end
    — the quantities that previously existed only in the metrics JSONL
    now line up under the host spans and the roofline tracks.  Steps are
    placed on a cumulative ``wall_s`` clock (the recorder stores
    durations, not absolute times).
    """
    events: List[Dict[str, object]] = []
    t = 0.0
    retries = 0
    for m in metrics:
        t += float(getattr(m, "wall_s", 0.0))
        retries += int(getattr(m, "comm_retries", 0))
        events.append(_counter("arena bytes in use", t,
                               int(getattr(m, "arena_capacity_bytes", 0)),
                               pid, tid))
        scale = getattr(m, "loss_scale", None)
        if scale is not None:
            events.append(_counter("loss scale", t, float(scale), pid, tid))
        events.append(_counter("comm retries (cumulative)", t, retries,
                               pid, tid))
    return events


def memory_counter_events(events_in: Iterable[object], *,
                          pid: int = HOST_PID, tid: int = 0,
                          top_families: int = 4
                          ) -> List[Dict[str, object]]:
    """Arena occupancy + per-family byte tracks from a memory tracer.

    ``events_in`` is a :class:`repro.obs.memory.MemoryTracer` event
    stream (or its ``events`` list).  Emits one **occupancy** track (the
    cumulative step demand, sampled at every request's wall-clock time
    and reset to zero at each step boundary — the sawtooth whose crest is
    the slab high-water mark) plus one cumulative-bytes track per tensor
    family for the ``top_families`` biggest families, so "where did the
    peak come from" is readable straight off the trace.  Timestamps share
    the span recorder's epoch when the tracer was built with one, so the
    sawtooth lines up under the host spans.
    """
    from .memory import tensor_family
    evs = getattr(events_in, "events", events_in)
    evs = list(evs)
    fam_totals: Dict[str, int] = {}
    for e in evs:
        if getattr(e, "kind", None) == "request":
            fam = tensor_family(getattr(e, "site", None))
            fam_totals[fam] = fam_totals.get(fam, 0) + e.rounded
    families = [f for f, _ in sorted(fam_totals.items(),
                                     key=lambda kv: -kv[1])[:top_families]]
    out: List[Dict[str, object]] = []
    fam_run = {f: 0 for f in families}
    for e in evs:
        kind = getattr(e, "kind", None)
        if kind == "step":
            out.append(_counter("arena occupancy (bytes)", e.t_s, 0,
                                pid, tid))
            for f in families:
                fam_run[f] = 0
                out.append(_counter(f"arena bytes: {f}", e.t_s, 0,
                                    pid, tid))
        elif kind == "request":
            out.append(_counter("arena occupancy (bytes)", e.t_s,
                                e.demand_bytes, pid, tid))
            fam = tensor_family(e.site)
            if fam in fam_run:
                fam_run[fam] += e.rounded
                out.append(_counter(f"arena bytes: {fam}", e.t_s,
                                    fam_run[fam], pid, tid))
        elif kind == "oom":
            out.append({
                "name": "arena OOM", "cat": "memory", "ph": "i", "s": "g",
                "ts": e.t_s * _US, "pid": pid, "tid": tid,
                "args": {"requested_bytes": e.nbytes, "site": e.site,
                         "demand_bytes": e.demand_bytes},
            })
    return out


def schedule_events(sched: BucketSchedule, *, pid: int = SIM_PID,
                    offset_s: float = 0.0) -> List[Dict[str, object]]:
    """The two-stream overlap schedule: backward on the compute thread,
    per-bucket collectives on the comm thread, exposed tail marked."""
    events: List[Dict[str, object]] = [
        _event("backward (compute)", "stage", offset_s, sched.backward_s,
               pid, COMPUTE_TID, args={"backward_s": sched.backward_s}),
        _process_meta(pid, "two-stream overlap"),
        _thread_meta(pid, COMPUTE_TID, "compute stream"),
        _thread_meta(pid, COMM_TID, "comm stream"),
    ]
    for i, (label, start, finish) in enumerate(sched.slices()):
        events.append(_event(label, "comm", offset_s + start, finish - start,
                             pid, COMM_TID,
                             args={"ready_s": sched.ready_s[i],
                                   "hidden": finish <= sched.backward_s}))
    if sched.exposed_s > 0:
        events.append(_event("exposed sync", "exposed",
                             offset_s + sched.backward_s, sched.exposed_s,
                             pid, COMM_TID,
                             args={"exposed_s": sched.exposed_s,
                                   "hidden_s": sched.hidden_s}))
    return events


def anomaly_events(anomalies: Iterable[object], *, pid: int = HOST_PID,
                   tid: int = 0) -> List[Dict[str, object]]:
    """Numerics-observatory anomalies as global instant events.

    Instants ("ph": "i", global scope) draw as full-height markers in the
    Perfetto UI, so a NaN burst or loss spike lines up visually with the
    host spans of the step that produced it.  ``anomalies`` is any
    iterable of :class:`repro.obs.health.Anomaly` (duck-typed: ``kind``,
    ``step``, ``layer``, ``detail``, ``severity``, ``t_s``).
    """
    events: List[Dict[str, object]] = []
    for a in anomalies:
        events.append({
            "name": f"anomaly:{a.kind}", "cat": "anomaly", "ph": "i",
            "s": "g", "ts": float(getattr(a, "t_s", 0.0)) * _US,
            "pid": pid, "tid": tid,
            "args": {"step": a.step, "layer": a.layer, "detail": a.detail,
                     "severity": a.severity},
        })
    return events


def perfetto_trace(*, spans: Optional[Iterable[Span]] = None,
                   kernels: Optional[Sequence[KernelLaunch]] = None,
                   spec: Optional[GPUSpec] = None,
                   schedule: Optional[BucketSchedule] = None,
                   schedule_pid: int = SIM_PID + 1,
                   anomalies: Optional[Iterable[object]] = None,
                   metrics: Optional[Iterable[object]] = None,
                   memory: Optional[object] = None,
                   counters: bool = True,
                   metadata: Optional[Dict[str, object]] = None
                   ) -> Dict[str, object]:
    """Assemble a complete Perfetto-loadable trace dict.

    With ``counters`` (default), kernel export also emits the roofline
    counter tracks, ``metrics`` (an iterable of
    :class:`~repro.obs.metrics.StepMetrics`) adds the arena/loss-scale/
    comm-retry tracks on the host timeline, and ``memory`` (a
    :class:`~repro.obs.memory.MemoryTracer` or its event list) adds the
    per-request arena occupancy sawtooth and per-family byte tracks.
    """
    events: List[Dict[str, object]] = []
    if spans is not None:
        events.extend(span_events(spans))
    if kernels is not None:
        if spec is None:
            raise ValueError("kernel export needs a GPUSpec to price slices")
        events.extend(kernel_events(kernels, spec))
        if counters:
            events.extend(roofline_counter_events(kernels, spec))
    if schedule is not None:
        events.extend(schedule_events(schedule, pid=schedule_pid))
    if anomalies is not None:
        events.extend(anomaly_events(anomalies))
    if metrics is not None and counters:
        events.extend(metric_counter_events(metrics))
    if memory is not None and counters:
        events.extend(memory_counter_events(memory))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}, exporter="repro.obs.perfetto"),
    }


def write_trace(path: str, trace: Dict[str, object]) -> None:
    """Write a trace dict produced by :func:`perfetto_trace` to disk."""
    with open(path, "w") as f:
        json.dump(trace, f)


#: the attention geometry ``repro.train`` stamps into a trace's
#: ``otherData`` and a memory report's what-if base; absent keys are
#: unknown, and each reader picks its own fallback.
ATTN = Record({k: (kind, ABSENT) for k, kind in (
    ("head_dim", POSITIVE), ("tile_q", POSITIVE), ("tile_k", POSITIVE),
    ("causal", BOOL), ("attn_impl", STR), ("mask_elems", INT))})

#: what ``repro.obs profile`` reads of a trace: the events (kernel slices
#: are parsed by :func:`trace_kernels`) and the step-model stamps.
TRACE = Record({
    "traceEvents": ListOf(Record({})),
    "otherData": (Record({"gpu": (STR, "V100"),
                          "world_size": (POSITIVE, 1),
                          "grad_elems": (INT, 0), "itemsize": (POSITIVE, 4),
                          "attn": (Nullable(ATTN), None)}), {}),
}, title="trace_event document")

#: a kernel slice: its args are the :class:`KernelLaunch` description,
#: whose stage, library and family the cost model looks up
KERNEL_ARGS = declare(KernelLaunch, exclude=("name",),
                      stage=(one_of(*STAGES), "forward"),
                      lib=(one_of(*LIBS), "lightseq2"),
                      family=one_of(*FAMILIES))
KERNEL_SLICE = Record({"name": STR, "args": KERNEL_ARGS})


def read_trace(path: str) -> Dict[str, object]:
    """Load and parse a Perfetto trace JSON written by :func:`write_trace`
    (:data:`TRACE`, and every kernel slice as :func:`trace_kernels` reads
    it), so a skewed field is refused naming the file."""
    trace = TRACE.load(path)
    try:
        trace_kernels(trace)
    except SchemaError as e:
        raise SchemaError(f"{path}: not a {TRACE.title}: {e}") from None
    return trace


def trace_kernels(trace: Dict[str, object]
                  ) -> List[KernelLaunch]:
    """Rebuild the kernel-launch list from an exported trace.

    The inverse of :func:`kernel_events` for the launch *description*
    (names, families, element counts, FLOPs, stages — everything the cost
    model prices; the simulated timestamps are derived and discarded).
    Event order in ``traceEvents`` is trace order, so the reconstructed
    list replays identically.  A kernel slice of the wrong shape raises
    :class:`~repro.obs.schema.SchemaError` naming its event.
    """
    out: List[KernelLaunch] = []
    for i, ev in enumerate(trace["traceEvents"]):
        if ev.get("cat") == "kernel":
            ev = KERNEL_SLICE.parse(ev, f"traceEvents[{i}]")
            out.append(KERNEL_ARGS.make(ev["args"], name=ev["name"]))
    return out
