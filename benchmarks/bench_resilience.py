"""Resilience benchmark: crash-safe checkpointing must be near-free.

Fault tolerance is only usable if its steady-state cost is negligible:
nobody enables periodic checkpointing that eats a visible slice of every
step.  This bench prices the full crash-safety stack (serialize to one
CRC-checked npz, temp+fsync+rename commit) against the training step it
protects, and then actually exercises the recovery paths it exists for.
Gates, asserted rather than eyeballed:

1. **overhead** — amortised checkpoint cost per step at the documented
   cadence (``--checkpoint-every 50``) stays under 5% of the step time.
   The run record stores the dimensionless ``ckpt_overhead_per_step``
   ratio so CI compares ratios across machines, not milliseconds;
2. **bit-identical recovery** — a kill/resume drill (save at step k,
   lose the process, ``resume_auto``, finish) lands bitwise equal to an
   uninterrupted run, dropout and fp16 loss scaling on;
3. **torn-write fallback** — a checkpoint torn mid-write is never
   committed and auto-resume falls back to the previous good one.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.obs.runrecord import make_run_record, write_run_record

from conftest import gate_main
from repro.precision import DynamicLossScaler
from repro.resilience import (CheckpointStore, FaultInjector, FaultPlan,
                              FaultSpec, TornWrite, use_faults)
from repro.training import OptimizerSpec, make_trainer, train_step

#: amortised checkpoint cost per step must stay under this fraction of
#: the step itself at the benched cadence.  5% is the bar DESIGN §13
#: promises for the documented default cadence.
_OVERHEAD_BUDGET = 0.05

_EVERY = 50         # benched cadence (steps between checkpoints)
_STEPS = 10         # timed steps per chunk (min over repeats taken)
_REPEATS = 3        # chunks per path; min amortises machine-load jitter
_SAVES = 3          # timed checkpoint commits (min taken)

_V = 256


def _make_pair(seed=0):
    cfg = get_config("transformer-base", max_batch_tokens=2048,
                     max_seq_len=64, hidden_dim=64, nhead=4, ffn_dim=128,
                     vocab_size=_V, num_encoder_layers=2,
                     num_decoder_layers=2, fp16=True,
                     dropout=0.1, attn_dropout=0.1)
    model = TransformerModel(cfg, seed=seed)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                           DynamicLossScaler(init_scale=64.0))
    return model, trainer


def _batch(seed, b=8, l=32):
    rng = np.random.default_rng(seed)
    return (rng.integers(4, _V, (b, l)), rng.integers(4, _V, (b, l)),
            rng.integers(4, _V, (b, l)))


def _time_steps(model, trainer):
    batch = _batch(0)
    for _ in range(3):                                   # warm-up
        train_step(model, trainer, batch)
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(_STEPS):
            train_step(model, trainer, batch)
        best = min(best, (time.perf_counter() - t0) / _STEPS)
    return best


def _time_saves(model, trainer, directory):
    store = CheckpointStore(directory, keep=2)
    best = float("inf")
    for i in range(_SAVES):
        t0 = time.perf_counter()
        store.save(model, trainer, step=i + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def _recovery_drill(directory):
    """Kill at step 5, resume from the step-4 checkpoint, finish at 8:
    returns (resume seconds, bitwise-identical flag)."""
    steps, kill_at = 8, 5
    ref_model, ref_tr = _make_pair(seed=1)
    for s in range(1, steps + 1):
        train_step(ref_model, ref_tr, _batch(s))

    model, trainer = _make_pair(seed=1)
    store = CheckpointStore(directory)
    for s in range(1, kill_at):
        train_step(model, trainer, _batch(s))
        if s % 2 == 0:
            store.save(model, trainer, step=s, extra={"loop_step": s})
    del model, trainer                                   # the "kill"

    model2, trainer2 = _make_pair(seed=777)              # wrong init on purpose
    t0 = time.perf_counter()
    manifest = store.resume_auto(model2, trainer2)
    resume_s = time.perf_counter() - t0
    start = int(manifest["extra"]["loop_step"])
    for s in range(start + 1, steps + 1):
        train_step(model2, trainer2, _batch(s))

    identical = all(
        np.array_equal(np.asarray(pr.data), np.asarray(pz.data))
        for pr, pz in zip(ref_model.parameters(), model2.parameters()))
    identical = identical and np.array_equal(ref_tr.m, trainer2.m)
    identical = identical and (ref_tr.scaler.state_dict()
                               == trainer2.scaler.state_dict())
    return resume_s, identical


def _torn_fallback_drill(directory):
    """Tear the second save mid-write: it must never commit, and
    auto-resume must land on the first (still checksum-valid) one."""
    model, trainer = _make_pair(seed=2)
    train_step(model, trainer, _batch(0))
    store = CheckpointStore(directory)
    store.save(model, trainer, step=1)
    train_step(model, trainer, _batch(1))
    plan = FaultPlan([FaultSpec("checkpoint.write", "torn", fraction=0.5)])
    with use_faults(FaultInjector(plan)):
        try:
            store.save(model, trainer, step=2)
            return False                                 # fault did not fire
        except TornWrite:
            pass
    model2, trainer2 = _make_pair(seed=9)
    manifest = store.resume_auto(model2, trainer2)
    return (store.steps() == [1] and store.validate(1) == []
            and manifest is not None and manifest["step"] == 1)


def run_comparison():
    model, trainer = _make_pair()
    step_s = _time_steps(model, trainer)
    with tempfile.TemporaryDirectory() as d:
        save_s = _time_saves(model, trainer, Path(d) / "timing")
        resume_s, identical = _recovery_drill(Path(d) / "recovery")
        torn_ok = _torn_fallback_drill(Path(d) / "torn")
    return {
        "step_ms": step_s * 1e3,
        "save_ms": save_s * 1e3,
        "resume_ms": resume_s * 1e3,
        "every": _EVERY,
        "ckpt_overhead_per_step": save_s / _EVERY / step_s,
        "resume_bitwise": 1.0 if identical else 0.0,
        "torn_fallback_ok": 1.0 if torn_ok else 0.0,
    }


def run_record(results=None):
    """The bench as a ``BENCH_resilience.json`` run record (§13 gates)."""
    r = results or run_comparison()
    return make_run_record(
        "resilience",
        counters={k: r[k] for k in
                  ("step_ms", "save_ms", "resume_ms", "every",
                   "resume_bitwise", "torn_fallback_ok")},
        stage_seconds={"ckpt_overhead_per_step": r["ckpt_overhead_per_step"]},
        notes="crash-safe checkpoint cost vs the fp16 training step it "
              "protects, plus kill/resume and torn-write drills; "
              "stage_seconds holds the dimensionless amortised "
              "overhead-per-step ratio at the benched cadence so the CI "
              "gate compares ratios across machines, not milliseconds")


@pytest.mark.benchmark(group="resilience-step")
def test_step_plain(benchmark):
    model, trainer = _make_pair()
    batch = _batch(0)
    train_step(model, trainer, batch)                    # warm-up
    benchmark(lambda: train_step(model, trainer, batch))


@pytest.mark.benchmark(group="resilience-step")
def test_checkpoint_save(benchmark, tmp_path):
    model, trainer = _make_pair()
    store = CheckpointStore(tmp_path, keep=2)
    counter = iter(range(1, 10_000))
    benchmark(lambda: store.save(model, trainer, step=next(counter)))


def test_resilience_smoke(tmp_path):
    """CI gate: checkpoint overhead within budget, kill/resume lands
    bit-identical, torn writes fall back — all captured in the emitted
    run record."""
    r = run_comparison()
    assert r["resume_bitwise"] == 1.0
    assert r["torn_fallback_ok"] == 1.0
    assert r["ckpt_overhead_per_step"] < _OVERHEAD_BUDGET, (
        f"checkpoint overhead {r['ckpt_overhead_per_step']:.1%} of step "
        f"time at every={_EVERY} exceeds the {_OVERHEAD_BUDGET:.0%} budget "
        f"(step {r['step_ms']:.2f} ms, save {r['save_ms']:.2f} ms)")
    from repro.obs.runrecord import load_run_record
    path = tmp_path / "BENCH_resilience.json"
    write_run_record(str(path), run_record(r))
    rec = load_run_record(str(path))
    assert rec["counters"]["resume_bitwise"] == 1.0
    assert rec["stage_seconds"]["ckpt_overhead_per_step"] == \
        r["ckpt_overhead_per_step"]


def _report(r):
    print("crash-safe checkpointing vs fp16 training step "
          "(hidden 64, 2+2 layers, batch 8x32)")
    print(f"  step    : {r['step_ms']:7.2f} ms")
    print(f"  save    : {r['save_ms']:7.2f} ms (serialize one npz + fsync "
          f"+ rename)")
    print(f"  resume  : {r['resume_ms']:7.2f} ms (validate checksums + "
          f"restore)")
    print(f"  overhead: {r['ckpt_overhead_per_step']:7.2%} of step time "
          f"at --checkpoint-every {r['every']} "
          f"(budget {_OVERHEAD_BUDGET:.0%})")
    print(f"  recovery: bit-identical resume "
          f"{'OK' if r['resume_bitwise'] else 'FAILED'}, torn-write "
          f"fallback {'OK' if r['torn_fallback_ok'] else 'FAILED'}")


def main(argv=None):
    return gate_main(run_comparison, _report, run_record, argv)


if __name__ == "__main__":
    raise SystemExit(main())
