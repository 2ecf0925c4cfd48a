"""Observability: the training flight recorder.

Every time-and-memory claim in this reproduction (Fig. 4 stage splits,
Fig. 11 hidden-vs-exposed comm, §3.2 trainer-time reduction, §3.3
steady-state allocations) flows through this zero-dependency subsystem
instead of ad-hoc printouts:

* :mod:`~repro.obs.spans` — nestable, thread-safe ``span("fwd/encoder")``
  context managers capturing wall-clock plus kernel-launch and
  allocation-counter deltas, threaded through the training loop, the
  trainers, data-parallel sync, and the activation arena.
* :mod:`~repro.obs.metrics` — a per-step :class:`MetricsRecorder`
  appending loss / tokens-per-second / loss-scale / skip events /
  allocation deltas / arena and comm statistics to one-object-per-line
  JSONL.
* :mod:`~repro.obs.perfetto` — exporters rendering spans, the
  :class:`~repro.backend.device.Device` kernel trace, stage scopes, and
  the :mod:`repro.sim.timeline` two-stream overlap schedule as a
  Chrome/Perfetto ``trace_event`` JSON (open at https://ui.perfetto.dev).
* :mod:`~repro.obs.runrecord` — the structured ``BENCH_*.json`` run
  records every bench emits.
* :mod:`~repro.obs.numerics` / :mod:`~repro.obs.health` — the numerics
  observatory: a sampling per-layer tensor-health collector (grad norms,
  FP16 saturation, update ratios, activation taps), a pluggable anomaly
  engine, and the ``python -m repro.obs health`` triage CLI.
* :mod:`~repro.obs.provenance` — git SHA / config hash / history
  order-key stamps making telemetry streams comparable across commits.
* :mod:`~repro.obs.roofline` / :mod:`~repro.obs.critpath` — the
  performance observatory: per-kernel compute- vs memory-bound roofline
  attribution, the step's critical path read off its two-stream
  schedule, and what-if re-costing ("comm is free", "attn_impl=tiled",
  "world=16", "gpu=H100"), surfaced by ``python -m repro.obs profile``.
* :mod:`~repro.obs.trajectory` — the one run-record comparer:
  ``python -m repro.obs trajectory DIR`` orders a directory of run
  records by commit history and applies budget-based regression
  detection across the whole series; ``python -m repro.obs compare A B``
  is its two-record case.
* :mod:`~repro.obs.memory` — the memory observatory: arena lifetime
  timelines (peak bitwise-equal to the reserved high-water mark),
  peak attribution by layer/stage/tensor family, waste accounting,
  OOM forensics, and the what-if capacity engine, surfaced by
  ``python -m repro.obs memory`` (and ``repro.train --memory-out``).

With no recorder installed every hook is a near-free no-op, so the
instrumentation can stay permanently threaded through the hot paths.
"""

from .metrics import METRICS_SCHEMA, MetricsRecorder, StepMetrics, read_jsonl
from .numerics import (NUMERICS_SCHEMA, NumericsCollector, StepNumerics,
                       TensorStats, current_collector, saturation_histogram,
                       tap_activation, tensor_stats, use_collector)
from .critpath import (CriticalPath, Projection, attribute_critical_path,
                       critical_path, tiled_attention_trace, whatif)
from .perfetto import (anomaly_events, kernel_events, memory_counter_events,
                       metric_counter_events, perfetto_trace, read_trace,
                       roofline_counter_events, schedule_events, span_events,
                       trace_kernels, write_trace)
from .provenance import config_hash, git_sha, order_key, provenance
from .roofline import (LaunchRoofline, RooflineReport, analyze_launch,
                       roofline_report)
from .runrecord import (RUN_RECORD_SCHEMA, bench_record_path,
                        load_run_record, make_run_record, record_order_key,
                        write_run_record)
from .spans import Span, SpanRecorder, current_recorder, span, use_recorder
from .health import (Anomaly, AnomalyEngine, AnomalyHalted, HealthReport,
                     analyze_rows, default_detectors)
from .memory import (MEMORY_SCHEMA, MemoryReport, MemoryTracer,
                     load_memory_report, max_fit, mem_scope, memory_report,
                     oom_forensics, project_capacity, use_memory_tracer,
                     write_memory_report)
from .trajectory import Trajectory, load_trajectory, summarize_run_records

__all__ = [
    "Span", "SpanRecorder", "current_recorder", "span", "use_recorder",
    "METRICS_SCHEMA", "MetricsRecorder", "StepMetrics", "read_jsonl",
    "NUMERICS_SCHEMA", "NumericsCollector", "StepNumerics", "TensorStats",
    "current_collector", "use_collector", "tap_activation", "tensor_stats",
    "saturation_histogram",
    "Anomaly", "AnomalyEngine", "AnomalyHalted", "HealthReport",
    "analyze_rows", "default_detectors",
    "provenance", "git_sha", "config_hash", "order_key",
    "anomaly_events", "kernel_events", "memory_counter_events",
    "metric_counter_events",
    "perfetto_trace", "read_trace", "roofline_counter_events",
    "schedule_events", "span_events", "trace_kernels", "write_trace",
    "RUN_RECORD_SCHEMA", "bench_record_path", "load_run_record",
    "make_run_record", "record_order_key", "write_run_record",
    "summarize_run_records",
    "LaunchRoofline", "RooflineReport", "analyze_launch", "roofline_report",
    "CriticalPath", "Projection", "attribute_critical_path",
    "critical_path", "tiled_attention_trace", "whatif",
    "Trajectory", "load_trajectory",
    "MEMORY_SCHEMA", "MemoryTracer", "MemoryReport", "memory_report",
    "write_memory_report", "load_memory_report", "project_capacity",
    "max_fit", "oom_forensics", "use_memory_tracer", "mem_scope",
]
