"""Numerics-observatory overhead benchmark: taps must be free when off.

The tensor-health collector (:mod:`repro.obs.numerics`) instruments the
hot path twice: activation taps compiled into every layer's ``forward``,
and the pre/post-update workspace walks in ``train_step``.  The design
contract is that with **no collector installed** the only residue is the
taps' ``if not COLLECTORS.stack: return`` guard — a handful of nanoseconds
per layer call.

This bench is the acceptance gate for that contract, asserted rather than
eyeballed:

1. the per-call cost of an uninstalled tap, times the number of tap sites
   that fire in one training step, must stay under **3%** of a traced
   step's wallclock (the issue's regression budget);
2. informationally, it also times a fully-instrumented step (collector
   installed, ``every=1``) so the *opt-in* cost is visible in the record.

The extrapolation gate is deliberately load-independent: a direct A/B of
two full step timings on a shared CI runner jitters by more than 3%, but
"tap cost × tap count ≪ step time" is stable because both sides are
measured back-to-back on the same machine.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_numerics_overhead.py [--record P]
"""

import time

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.obs import (MetricsRecorder, NumericsCollector, SpanRecorder,
                       use_collector, use_recorder)
from repro.obs.health import AnomalyEngine
from repro.obs.numerics import tap_activation
from repro.obs.runrecord import make_run_record, write_run_record

from conftest import gate_main
from repro.training import LSFusedTrainer, OptimizerSpec, train_step

#: uninstalled-tap overhead budget, as a fraction of step wallclock.
_BUDGET = 0.03

_TAP_CALLS = 200_000    # no-op tap timing loop
_STEPS = 3              # timed steps per chunk
_REPEATS = 5            # best-of-N chunks


def _make_run(seed=0):
    cfg = get_config("transformer-base", max_batch_tokens=512,
                     max_seq_len=32, hidden_dim=64, nhead=4, ffn_dim=128,
                     vocab_size=128, num_encoder_layers=2,
                     num_decoder_layers=2, fused=True)
    model = TransformerModel(cfg, seed=seed)
    trainer = LSFusedTrainer(model, OptimizerSpec(lr=1e-3))
    rng = np.random.default_rng(0)
    batch = (rng.integers(4, 128, (2, 8)), rng.integers(4, 128, (2, 8)),
             rng.integers(4, 128, (2, 8)))
    return model, trainer, batch


def _time_noop_tap():
    """Per-call seconds of ``tap_activation`` with no collector installed."""
    x = np.ones(16, dtype=np.float32)
    t0 = time.perf_counter()
    for _ in range(_TAP_CALLS):
        tap_activation("bench.noop", x)
    return (time.perf_counter() - t0) / _TAP_CALLS


def _taps_per_step(model, trainer, batch):
    """How many tap sites fire in one step (counted, not guessed)."""
    calls = [0]
    collector = NumericsCollector(1, metrics=MetricsRecorder(),
                                  engine=AnomalyEngine())
    orig = collector.observe_activation

    def counting(name, x):
        calls[0] += 1
        orig(name, x)

    collector.observe_activation = counting
    with use_collector(collector):
        train_step(model, trainer, batch)
    return calls[0]


def _time_step(model, trainer, batch, collector=None):
    """Best-of-N traced-step wallclock, optionally fully instrumented."""
    def one_step():
        with use_recorder(SpanRecorder()):
            if collector is None:
                train_step(model, trainer, batch)
            else:
                with use_collector(collector):
                    train_step(model, trainer, batch)

    one_step()                          # warm-up
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(_STEPS):
            one_step()
        best = min(best, (time.perf_counter() - t0) / _STEPS)
    return best


def run_comparison():
    model, trainer, batch = _make_run()
    taps = _taps_per_step(model, trainer, batch)
    tap_s = _time_noop_tap()
    step_s = _time_step(model, trainer, batch)
    instrumented = NumericsCollector(1, metrics=MetricsRecorder(),
                                     engine=AnomalyEngine())
    step_instr_s = _time_step(model, trainer, batch, collector=instrumented)
    return {
        "taps_per_step": taps,
        "noop_tap_ns": tap_s * 1e9,
        "step_ms": step_s * 1e3,
        "step_instrumented_ms": step_instr_s * 1e3,
        "uninstalled_overhead_frac": (taps * tap_s) / step_s,
        "instrumented_ratio": step_instr_s / step_s,
    }


def run_record(results=None):
    r = results or run_comparison()
    return make_run_record(
        "numerics_overhead",
        counters={k: r[k] for k in
                  ("taps_per_step", "noop_tap_ns",
                   "uninstalled_overhead_frac", "instrumented_ratio")},
        stage_seconds={"step": r["step_ms"] / 1e3,
                       "step_instrumented": r["step_instrumented_ms"] / 1e3},
        notes="uninstalled-tap overhead gate: taps_per_step x noop_tap "
              "cost must stay under 3% of traced step wallclock")


@pytest.mark.benchmark(group="numerics-step")
def test_step_uninstalled(benchmark):
    model, trainer, batch = _make_run()
    train_step(model, trainer, batch)
    benchmark(train_step, model, trainer, batch)


@pytest.mark.benchmark(group="numerics-step")
def test_step_instrumented(benchmark):
    model, trainer, batch = _make_run()
    collector = NumericsCollector(1, metrics=MetricsRecorder(),
                                  engine=AnomalyEngine())

    def run():
        with use_collector(collector):
            train_step(model, trainer, batch)

    run()
    benchmark(run)


def test_numerics_overhead_smoke():
    """CI gate: uninstalled taps cost <3% of a traced step, and every tap
    site actually fires when a collector is installed."""
    r = run_comparison()
    assert r["taps_per_step"] > 0, "no tap sites fired — taps unwired?"
    assert r["uninstalled_overhead_frac"] < _BUDGET, (
        f"uninstalled taps cost {r['uninstalled_overhead_frac']:.1%} of a "
        f"traced step ({r['taps_per_step']} taps x "
        f"{r['noop_tap_ns']:.0f} ns vs {r['step_ms']:.2f} ms step) — "
        f"budget is {_BUDGET:.0%}")


def _report(r):
    print("numerics observatory overhead (2+2-layer fused MT step)")
    print(f"  tap sites per step     : {r['taps_per_step']}")
    print(f"  no-op tap cost         : {r['noop_tap_ns']:7.0f} ns/call")
    print(f"  traced step            : {r['step_ms']:7.2f} ms")
    print(f"  instrumented (every=1) : {r['step_instrumented_ms']:7.2f} ms "
          f"({r['instrumented_ratio']:.2f}x)")
    print(f"  uninstalled overhead   : {r['uninstalled_overhead_frac']:.3%} "
          f"of step (budget {_BUDGET:.0%})")


def main(argv=None):
    return gate_main(run_comparison, _report, run_record, argv)


if __name__ == "__main__":
    raise SystemExit(main())
