"""Performance-observatory overhead benchmark: tracing must be near-free.

The profiler's hot-path residue is :meth:`repro.backend.device.Device
.record` — one ``KernelLaunch`` dataclass append per kernel call while a
tracing device is active (and a bare ``if not trace_enabled: return``
guard when it is not).  Everything else the observatory does — roofline
attribution, the critical path, what-if re-costing
(:mod:`repro.obs.profile`) — happens *offline* on the saved trace, after
the step.

This bench is the acceptance gate for that split, asserted rather than
eyeballed:

1. the per-launch cost of a traced ``record`` call, times the number of
   launches one training step makes, must stay under **3%** of the traced
   step's wallclock (the issue's regression budget);
2. informationally, it also times the full offline analysis (roofline +
   critical path + comm-free and tiled what-ifs) so the post-hoc cost is
   visible in the record — it is allowed to cost whole milliseconds,
   because it runs zero times in the training loop.

The gate is deliberately load-independent: a direct A/B of two full step
timings on a shared CI runner jitters by more than 3%, but "record cost
x launch count << step time" is stable because both sides are measured
back-to-back on the same machine.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_profile_overhead.py [--record P]
"""

import time

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.config import get_config
from repro.models import GPTModel
from repro.obs.profile import analyze
from repro.obs.runrecord import make_run_record, write_run_record
from repro.sim.timeline import StepInputs
from repro.training.loop import staged_forward_backward

from conftest import gate_main
from repro.sim.gpu_specs import GPUS

#: traced-record overhead budget, as a fraction of step wallclock.
_BUDGET = 0.03

_RECORD_CALLS = 100_000   # record() timing loop
_STEPS = 3                # timed steps per chunk
_REPEATS = 5              # best-of-N chunks
_L = 512


def _make_run(seed=0):
    cfg = get_config(
        "gpt2-small", max_batch_tokens=max(_L, 512), max_seq_len=_L,
        hidden_dim=64, nhead=2, ffn_dim=128, vocab_size=128,
        num_decoder_layers=2, fused=True, dropout=0.0, attn_dropout=0.0)
    model = GPTModel(cfg, seed=seed)
    rng = np.random.default_rng(0)
    toks = rng.integers(1, 128, (1, _L))
    return model, (toks, np.roll(toks, -1, axis=1))


def _time_record(trace):
    """Per-call seconds of ``Device.record`` with tracing on or off."""
    dev = Device(trace=trace)
    t0 = time.perf_counter()
    for _ in range(_RECORD_CALLS):
        dev.record("gemm_bench", 4096, 4096, flops=1 << 20, family="gemm")
    return (time.perf_counter() - t0) / _RECORD_CALLS


def _traced_step(model, batch):
    """One step's kernel trace (and its launch count)."""
    dev = Device()
    with use_device(dev):
        staged_forward_backward(model, batch, 1.0)
    return tuple(dev.launches)


def _time_step(model, batch, trace):
    """Best-of-N step wallclock under a tracing or non-tracing device."""
    dev = Device(trace=trace)

    def one_step():
        dev.launches.clear()
        with use_device(dev):
            staged_forward_backward(model, batch, 1.0)

    one_step()                          # warm-up
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(_STEPS):
            one_step()
        best = min(best, (time.perf_counter() - t0) / _STEPS)
    return best


def _time_analysis(trace, attn):
    """Wallclock of the full offline observatory over one step's trace."""
    inputs = StepInputs(trace=trace, spec=GPUS["V100"], attn=attn)
    scenarios = ("comm_free", "attn_impl=tiled")
    analyze(inputs, scenarios)          # warm-up
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        analyze(inputs, scenarios)
        best = min(best, time.perf_counter() - t0)
    return best


def run_comparison():
    model, batch = _make_run()
    trace = _traced_step(model, batch)
    rec_on = _time_record(True)
    rec_off = _time_record(False)
    step_s = _time_step(model, batch, trace=True)
    attn = {"head_dim": 32, "tile_q": 128, "tile_k": 128, "causal": True}
    analysis_s = _time_analysis(trace, attn)
    added = max(0.0, rec_on - rec_off)
    return {
        "launches_per_step": len(trace),
        "record_traced_ns": rec_on * 1e9,
        "record_untraced_ns": rec_off * 1e9,
        "step_ms": step_s * 1e3,
        "analysis_ms": analysis_s * 1e3,
        "tracing_overhead_frac": (len(trace) * added) / step_s,
    }


def run_record(results=None):
    r = results or run_comparison()
    return make_run_record(
        "profile_overhead",
        counters={k: r[k] for k in
                  ("launches_per_step", "record_traced_ns",
                   "record_untraced_ns", "tracing_overhead_frac")},
        stage_seconds={"step": r["step_ms"] / 1e3,
                       "analysis": r["analysis_ms"] / 1e3},
        notes="profiler overhead gate: launches_per_step x traced-record "
              "cost must stay under 3% of traced step wallclock; the "
              "roofline/critical-path analysis itself is offline")


@pytest.mark.benchmark(group="profile-step")
def test_step_traced(benchmark):
    model, batch = _make_run()
    dev = Device(trace=True)

    def run():
        dev.launches.clear()
        with use_device(dev):
            staged_forward_backward(model, batch, 1.0)

    run()
    benchmark(run)


@pytest.mark.benchmark(group="profile-step")
def test_step_untraced(benchmark):
    model, batch = _make_run()
    dev = Device(trace=False)

    def run():
        with use_device(dev):
            staged_forward_backward(model, batch, 1.0)

    run()
    benchmark(run)


def test_profile_overhead_smoke():
    """CI gate: traced kernel recording costs <3% of a traced step, and
    the offline analysis runs on the step's own trace."""
    r = run_comparison()
    assert r["launches_per_step"] > 0, "no launches traced — device unwired?"
    assert r["tracing_overhead_frac"] < _BUDGET, (
        f"tracing costs {r['tracing_overhead_frac']:.1%} of a traced step "
        f"({r['launches_per_step']} launches x "
        f"{r['record_traced_ns'] - r['record_untraced_ns']:.0f} ns vs "
        f"{r['step_ms']:.2f} ms step) — budget is {_BUDGET:.0%}")
    assert r["analysis_ms"] > 0


def _report(r):
    print("performance observatory overhead (2-layer fused GPT step, "
          f"L={_L})")
    print(f"  launches per step     : {r['launches_per_step']}")
    print(f"  record() traced       : {r['record_traced_ns']:7.0f} ns/call")
    print(f"  record() untraced     : {r['record_untraced_ns']:7.0f} "
          f"ns/call")
    print(f"  traced step           : {r['step_ms']:7.2f} ms")
    print(f"  offline analysis      : {r['analysis_ms']:7.2f} ms "
          f"(roofline + critical path + 2 what-ifs)")
    print(f"  tracing overhead      : {r['tracing_overhead_frac']:.3%} "
          f"of step (budget {_BUDGET:.0%})")


def main(argv=None):
    return gate_main(run_comparison, _report, run_record, argv)


if __name__ == "__main__":
    raise SystemExit(main())
