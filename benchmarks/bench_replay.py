"""Capture-replay benchmark: host dispatch time, flat replay vs layer graph.

One BERT fwd+bwd training step runs two ways on the same shapes, both
arena-backed so the comparison isolates *dispatch* (graph traversal vs the
flat kernel program) rather than allocation:

* **eager** — the layer graph walks every module's forward/backward with
  saved-activation bookkeeping, tap checks and Python attribute traffic.
* **replay** — a :class:`~repro.training.CaptureReplayEngine` past its
  capture step: the same kernel sequence dispatched from the flat program
  (DESIGN §11), no layer code on the hot path.

The paper's §3.1 claim is that removing per-step host work matters once
kernels are fast; on the numpy substrate the kernels are the same objects
either way, so the measured gap *is* the host overhead.  Gates, asserted
rather than eyeballed:

1. lockstep parity first — five steps, losses/grads bit-identical between
   the two paths (a fast replay that drifts is worthless);
2. identical kernel structure (``launch_ratio == 1.0``): replay changes
   how kernels are dispatched, never which kernels run;
3. the replayed step is **not slower** than the eager one (interleaved
   best-of-N wallclock, small tolerance for timer noise).  The run record
   stores the dimensionless ``replay_per_eager`` ratio so CI compares
   ratios, not machine-dependent milliseconds.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_replay.py
"""

import sys
import time

import numpy as np
import pytest

from repro.backend.arena import ActivationArena
from repro.backend.device import Device, use_device
from repro.backend.profiler import (compare, replay_counters,
                                    reset_replay_counters)
from repro.config import get_config
from repro.models import BertModel
from repro.obs.runrecord import make_run_record, write_run_record

from conftest import flag_path
from repro.training import CaptureReplayEngine
from repro.training.loop import staged_forward_backward

#: replay may trail eager by at most this factor before we call it a
#: regression.  Replay should *win* (it skips the whole layer graph), but
#: shared CI runners jitter step times — the hard bars are the bit-parity
#: and launch-ratio asserts, which have no tolerance.
_WALLCLOCK_TOLERANCE = 1.20

_STEPS = 30         # timed steps per chunk (steps are sub-ms: amortise)
_REPEATS = 5        # interleaved chunk pairs (min per path taken)
_PARITY_STEPS = 5   # lockstep bit-parity steps before any timing

#: deliberately host-dominated dims: tiny tensors, four layers.  With big
#: tensors the numpy kernels swamp dispatch and the two paths tie (just as
#: the paper's host overhead only matters once kernels are fast); here the
#: per-step host work is the measurement.
_V = 64


def _make_model(seed=0):
    cfg = get_config("bert-base", max_batch_tokens=512, max_seq_len=32,
                     hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=_V,
                     num_encoder_layers=4, fused=True)
    return BertModel(cfg, seed=seed)


def _make_batch():
    rng = np.random.default_rng(0)
    return rng.integers(1, _V, (2, 8)), rng.integers(0, 2, 2)


def _prepare(seed=0):
    """Warmed eager-step and replay-step closures over twin models, after a
    lockstep bit-parity phase (which doubles as scan + capture warm-up)."""
    batch = _make_batch()
    eager_m = _make_model(seed)
    eager_arena = ActivationArena()
    eager_m.set_arena(eager_arena)
    replay_m = _make_model(seed)
    engine = CaptureReplayEngine(replay_m, arena=ActivationArena())

    def eager_step():
        return staged_forward_backward(eager_m, batch, 1.0, eager_arena)

    def replay_step():
        return engine.forward_backward(*batch)

    reset_replay_counters()
    for i in range(_PARITY_STEPS):
        loss_e, ntok_e = eager_step()
        loss_r, ntok_r = replay_step()
        assert loss_r == loss_e and ntok_r == ntok_e, \
            f"parity broke at lockstep step {i}"
        for pe, pr in zip(eager_m.parameters(), replay_m.parameters()):
            assert np.array_equal(pe.grad, pr.grad), \
                f"step {i}: grad mismatch for {pe.name}"
    warmup = replay_counters().snapshot()
    assert warmup.captures == 1 and warmup.replays == _PARITY_STEPS - 2
    return eager_step, replay_step, engine


def _time_chunk(one_step):
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        one_step()
    return (time.perf_counter() - t0) / _STEPS


def _step_trace(one_step):
    """One step's kernel trace (the paths must differ only in dispatch)."""
    dev = Device()
    with use_device(dev):
        one_step()
    return dev.launches


def run_comparison():
    eager_step, replay_step, engine = _prepare()
    # replay must change *how* kernels are dispatched, never which kernels
    # run: compare() raises ValueError on an empty baseline (tracing off),
    # which would mean this check silently checked nothing.
    trace_diff = compare(_step_trace(eager_step), _step_trace(replay_step))
    counters = replay_counters()
    base = counters.snapshot()
    # interleave the timed chunks, alternating which path leads each pair,
    # so machine-load and warm-up drift hit both paths symmetrically
    eager_s = replay_s = float("inf")
    for i in range(_REPEATS):
        pair = ((eager_step, replay_step) if i % 2 == 0
                else (replay_step, eager_step))
        for step_fn in pair:
            t = _time_chunk(step_fn)
            if step_fn is eager_step:
                eager_s = min(eager_s, t)
            else:
                replay_s = min(replay_s, t)
    timed = counters.since(base)
    return {
        "eager_ms": eager_s * 1e3,
        "replay_ms": replay_s * 1e3,
        "speedup": eager_s / replay_s,
        "replay_per_eager": replay_s / eager_s,
        "launch_ratio": trace_diff.launch_ratio,
        "timed_replays": timed.replays,
        "timed_fallbacks": timed.eager_fallbacks,
        "cached_programs": len(engine.programs),
    }, engine


def run_record(results=None):
    """The bench as a ``BENCH_replay.json`` run record (§3.1 gate ratios)."""
    r = results or run_comparison()[0]
    return make_run_record(
        "replay",
        counters={k: r[k] for k in
                  ("launch_ratio", "timed_fallbacks", "cached_programs",
                   "eager_ms", "replay_ms")},
        stage_seconds={"replay_per_eager": r["replay_per_eager"]},
        notes="BERT fwd+bwd step, flat program replay vs layer-graph "
              "dispatch (both arena-backed); stage_seconds holds the "
              "dimensionless replay/eager wallclock ratio so the CI gate "
              "compares ratios across machines, not milliseconds")


@pytest.mark.benchmark(group="replay-step")
def test_step_eager(benchmark):
    eager_step, _, _ = _prepare()
    benchmark(eager_step)


@pytest.mark.benchmark(group="replay-step")
def test_step_replay(benchmark):
    _, replay_step, _ = _prepare()
    benchmark(replay_step)


def test_replay_smoke(tmp_path):
    """CI gate: bit-parity, identical kernel structure, every timed step a
    replay, and no host wallclock regression — all captured in the emitted
    run record."""
    r, engine = run_comparison()
    assert r["launch_ratio"] == 1.0            # replay never changes kernels
    assert r["timed_fallbacks"] == 0           # steady state stayed steady
    assert r["timed_replays"] >= _STEPS * _REPEATS
    assert r["cached_programs"] == 1
    assert r["replay_ms"] <= r["eager_ms"] * _WALLCLOCK_TOLERANCE, (
        f"replayed step slower than eager: {r['replay_ms']:.2f} ms vs "
        f"{r['eager_ms']:.2f} ms")
    from repro.obs.runrecord import load_run_record
    path = tmp_path / "BENCH_replay.json"
    write_run_record(str(path), run_record(r))
    rec = load_run_record(str(path))
    assert rec["counters"]["launch_ratio"] == 1.0
    assert rec["stage_seconds"]["replay_per_eager"] == r["replay_per_eager"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    record_path = flag_path(argv, "--record")
    dump_path = flag_path(argv, "--dump-program")
    r, engine = run_comparison()
    print("BERT fwd+bwd step (fused, hidden 32, 4 layers, batch 2x8), "
          "arena-backed")
    print(f"  eager  : {r['eager_ms']:7.2f} ms/step (layer-graph dispatch)")
    print(f"  replay : {r['replay_ms']:7.2f} ms/step "
          f"({r['timed_replays']} replays, {r['cached_programs']} cached "
          f"program)")
    print(f"  speedup: {r['speedup']:.2f}x "
          f"(launch ratio {r['launch_ratio']:.2f}, "
          f"replay/eager {r['replay_per_eager']:.3f})")
    if record_path:
        write_run_record(record_path, run_record(r))
        print(f"  run record written to {record_path}")
    if dump_path:
        with open(dump_path, "w") as f:
            f.write(engine.describe() + "\n")
        print(f"  captured program dump written to {dump_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
