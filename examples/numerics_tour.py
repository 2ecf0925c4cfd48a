#!/usr/bin/env python
"""Tour of the numerics observatory (tensor health, anomalies, triage).

The §3.2 trainer keeps every parameter and gradient permanently in FP16
with no FP32 master copy, so value-level failures — overflow, underflow,
a NaN born in one layer — are silent until the loss curve dies.  This
tour shows the instrumentation that makes them loud:

1. a **healthy instrumented run** — a NumericsCollector samples per-layer
   gradient norms, FP16 saturation histograms, update/param ratios, and
   activation taps every step, and the health report reads "HEALTHY";
2. a **fault injection** — a NaN is poisoned into one layer's gradient
   mid-run; the anomaly engine catches it on that step, attributes it to
   that layer, and the halt-on-anomaly collector stops the run;
3. **offline triage** — ``python -m repro.obs health`` reads the recorded
   metrics JSONL back and prints the first-bad-step report, exiting
   non-zero exactly as the CI gate does.

Run:  python examples/numerics_tour.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.config import get_config
from repro.models import TransformerModel
from repro.obs import MetricsRecorder, NumericsCollector, use_collector
from repro.obs.health import AnomalyEngine, AnomalyHalted, analyze_rows
from repro.obs.metrics import read_jsonl
from repro.obs.numerics import group_of, saturation_histogram
from repro.precision import DynamicLossScaler
from repro.training import LSFusedTrainer, OptimizerSpec, train_step

STEPS = 4
CFG = get_config("transformer-base", max_batch_tokens=256, max_seq_len=16,
                 hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=64,
                 num_encoder_layers=1, num_decoder_layers=1,
                 fp16=True, fused=True)


def build(seed=0):
    model = TransformerModel(CFG, seed=seed)
    # a conservative init scale: no warmup overflows to wade through
    trainer = LSFusedTrainer(model, OptimizerSpec(lr=1e-3),
                             scaler=DynamicLossScaler(init_scale=128.0))
    return model, trainer


def batches(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.integers(4, 64, (2, 8)), rng.integers(4, 64, (2, 8)),
               rng.integers(4, 64, (2, 8)))


def main() -> int:
    out = Path(tempfile.mkdtemp(prefix="numerics_tour_"))
    jsonl = out / "healthy.metrics.jsonl"

    # -- 1. a healthy run, fully instrumented -----------------------------
    model, trainer = build()
    metrics = MetricsRecorder(str(jsonl), config={"example": "tour"})
    collector = NumericsCollector(1, metrics=metrics,
                                  engine=AnomalyEngine())
    with use_collector(collector):
        for batch in batches(STEPS):
            train_step(model, trainer, batch)

    rec = collector.records[-1]
    print(f"healthy run: {STEPS} steps, {len(rec.groups)} parameter "
          f"groups, {len(rec.activations)} activation taps per step")
    print(f"  global grad norm {rec.global_grad_norm:.3f} at loss scale "
          f"{rec.loss_scale:g}")
    worst = max(rec.groups.items(),
                key=lambda kv: kv[1]["grad_absmax"])
    print(f"  hottest gradient: {worst[0]} "
          f"(absmax {worst[1]['grad_absmax']:.3g}, "
          f"sat {worst[1]['grad_sat_frac']:.1%}, "
          f"sub {worst[1]['grad_sub_frac']:.1%})")
    name, g = next(iter(trainer.named_grads()))
    hist = saturation_histogram(g)
    print(f"  FP16 range histogram for {name}: "
          + "  ".join(f"{k} {v:.0%}" for k, v in hist.items()))
    print(f"  anomalies: {len(collector.engine.anomalies)}")

    # -- 2. poison one layer's gradient mid-run, with halt-on-anomaly -----
    # fp32, no loss scaler: nothing downstream will catch the NaN, so the
    # observatory is the only line of defence (on the fp16 path the
    # scaler skips the step and the same anomaly is a warning instead)
    cfg32 = get_config("transformer-base", max_batch_tokens=256,
                       max_seq_len=16, hidden_dim=32, nhead=4, ffn_dim=64,
                       vocab_size=64, num_encoder_layers=1,
                       num_decoder_layers=1, fused=True)
    model = TransformerModel(cfg32, seed=1)
    trainer = LSFusedTrainer(model, OptimizerSpec(lr=1e-3))
    target = [n for n, _ in trainer.named_grads()][5]
    counter = [0]
    orig_backward = model.backward

    def poisoned_backward(*args, **kwargs):
        r = orig_backward(*args, **kwargs)
        counter[0] += 1
        if counter[0] == 3:
            dict(trainer.named_grads())[target][...] = np.nan
        return r

    model.backward = poisoned_backward
    collector = NumericsCollector(1, engine=AnomalyEngine(),
                                  halt_on_anomaly=True,
                                  dump_path=str(out / "dump.json"))
    print(f"\ninjecting NaN into {target} gradients at step 3...")
    try:
        with use_collector(collector):
            for batch in batches(STEPS, seed=1):
                train_step(model, trainer, batch)
    except AnomalyHalted as e:
        print(f"  run HALTED: {e.anomaly}")
        print(f"  attributed layer: {e.anomaly.layer} "
              f"(expected {group_of(target)})")
        print(f"  diagnostic snapshot dumped to {out / 'dump.json'}")

    # -- 3. offline triage of the healthy run's JSONL ----------------------
    report = analyze_rows(read_jsonl(str(jsonl)))
    print(f"\noffline triage of {jsonl}:")
    print("\n".join("  " + line for line in report.format().splitlines()))
    print("\n(the same report, as a CI gate: "
          f"python -m repro.obs health {jsonl})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
