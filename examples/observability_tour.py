#!/usr/bin/env python
"""Tour of the training flight recorder (spans, metrics, Perfetto export).

Trains a tiny Transformer for a few steps with the full observability
stack switched on: host wall-clock spans around every training-loop stage,
a per-step metrics sink streaming JSONL, and the simulated-GPU kernel
trace — then renders all three time sources (plus the two-stream overlap
schedule for a simulated 4-GPU sync) into one Chrome/Perfetto trace you
can drop onto https://ui.perfetto.dev.  Finally it captures a baseline
run record from the naive (unfused) trainer, a current record from the
fused LightSeq2-style trainer, and prints the ``repro.obs compare``
diff between them — the same diff CI uses as a perf-regression gate.

Run:  python examples/observability_tour.py
"""

import tempfile
import time
from pathlib import Path

from repro.backend.device import Device, use_device
from repro.backend.profiler import alloc_counters, reset_alloc_counters
from repro.bench.tracegen import fixed_shape_mt_batch
from repro.config import get_config
from repro.models import TransformerModel
from repro.obs import (MetricsRecorder, SpanRecorder, perfetto_trace,
                       summarize_run_records, use_recorder, write_trace)
from repro.obs.runrecord import make_run_record
from repro.sim import V100
from repro.sim.comm import partition_buckets
from repro.sim.costmodel import stage_seconds
from repro.sim.timeline import overlap_schedule
from repro.training import OptimizerSpec, make_trainer, train_step

STEPS = 3
CFG = get_config("transformer-base", max_batch_tokens=256, max_seq_len=16,
                 hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=101,
                 num_encoder_layers=2, num_decoder_layers=2)


def run_instrumented(trainer_kind: str):
    """A few training steps with spans + metrics + kernel tracing on."""
    model = TransformerModel(CFG, seed=0)
    trainer = make_trainer(trainer_kind, model, OptimizerSpec(lr=1e-3))
    batch = fixed_shape_mt_batch(4, 16, CFG.vocab_size, seed=1)
    reset_alloc_counters()          # before MetricsRecorder takes its base
    recorder, metrics = SpanRecorder(), MetricsRecorder()
    dev = Device(lib="lightseq2" if trainer_kind == "lightseq" else "pytorch")
    with use_device(dev), use_recorder(recorder):
        for step in range(1, STEPS + 1):
            t0 = time.perf_counter()
            res = train_step(model, trainer, batch)
            metrics.observe_step(step=step, loss=res.loss,
                                 num_tokens=res.num_tokens,
                                 wall_s=time.perf_counter() - t0,
                                 applied=res.applied)
    return model, recorder, metrics, dev.launches


def run_record_for(name: str, trainer_kind: str):
    """One trainer variant -> a structured run record."""
    _, recorder, metrics, launches = run_instrumented(trainer_kind)
    per_stage = {k: v / STEPS
                 for k, v in stage_seconds(launches, V100).items()}
    return make_run_record(
        name,
        stage_seconds=per_stage,
        counters={"launches_per_step": len(launches) / STEPS,
                  "new_allocs_total": alloc_counters().new_allocs},
        metrics=[m.as_dict() for m in metrics.records],
        config={"trainer": trainer_kind, "steps": STEPS},
        notes=f"{STEPS} tiny-MT steps on the {trainer_kind} trainer")


def main() -> int:
    out = Path(tempfile.mkdtemp(prefix="obs_tour_"))

    # -- 1. one instrumented run: spans + metrics + kernel trace ----------
    model, recorder, metrics, launches = run_instrumented("lightseq")
    print(f"instrumented {STEPS} steps on the fused trainer:")
    print(f"  spans recorded: {len(recorder.spans)} "
          f"({', '.join(sorted({s.name for s in recorder.spans})[:5])}, ...)")
    print(f"  kernel launches: {len(launches)}")
    for m in metrics.records:
        print(f"  step {m.step}: loss/tok {m.loss_per_token:.3f}  "
              f"tok/s {m.tokens_per_s:,.0f}  new allocs {m.new_allocs}")

    # -- 2. the two-stream overlap schedule for a simulated 4-GPU sync ----
    per_stage = stage_seconds(launches, V100)
    buckets = partition_buckets(
        [(p.name, p.size) for p in model.parameters()], itemsize=4)
    sched = overlap_schedule(buckets, 4, per_stage["backward"] / STEPS,
                             world_size=4, spec=V100)
    print(f"simulated 4-GPU sync: {len(buckets)} buckets, "
          f"{sched.hidden_s * 1e3:.2f} ms hidden / "
          f"{sched.exposed_s * 1e3:.2f} ms exposed")

    # -- 3. render everything into one Perfetto trace + a metrics file ----
    trace_path = out / "tour.trace.json"
    write_trace(str(trace_path), perfetto_trace(
        spans=recorder.spans, kernels=launches, spec=V100, schedule=sched,
        metadata={"example": "observability_tour"}))
    metrics_path = out / "tour.metrics.jsonl"
    metrics.write_jsonl(str(metrics_path))
    print(f"trace written to {trace_path} (open at https://ui.perfetto.dev)")
    print(f"metrics written to {metrics_path}")

    # -- 4. capture run records and diff fused against the naive baseline -
    baseline = run_record_for("naive-trainer", "naive")
    current = run_record_for("fused-trainer", "lightseq")
    report, regressions = summarize_run_records(baseline, current,
                                                threshold=0.05)
    print("\nrun-record diff (naive baseline -> fused current):")
    print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
