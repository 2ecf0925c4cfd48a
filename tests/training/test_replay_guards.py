"""Guard tests: a stale or mismatched program can never silently execute.

The capture-replay engine has exactly two gates in front of the flat
dispatch loop: the *signature* (batch shapes/dtypes + loss scale + mode)
keying the program cache, and the *validity* check (arena generation +
parameter link epoch) run on every cache hit.  These tests force each gate
individually — shape change, dtype change, scale change, arena overflow,
parameter re-link, an actively-sampling numerics collector — and assert
the engine falls back to eager, recaptures cleanly, accounts the outcome
in :func:`repro.backend.profiler.replay_counters`, and keeps bit-parity
throughout.
"""

import numpy as np
import pytest

from repro.backend.arena import ActivationArena
from repro.backend.device import Device, use_device
from repro.backend.profiler import (alloc_counters, replay_counters,
                                    reset_replay_counters)
from repro.config import get_config
from repro.models import BertModel
from repro.obs import (NumericsCollector, SpanRecorder, use_collector,
                       use_recorder)
from repro.precision import DynamicLossScaler
from repro.training import (CaptureReplayEngine, OptimizerSpec, make_trainer,
                            train_step, train_step_accumulated)
from repro.training.loop import staged_forward_backward

HID, NHEAD, FFN, V = 32, 4, 64, 61


def _cfg(**over):
    base = dict(max_batch_tokens=256, max_seq_len=32, hidden_dim=HID,
                nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                num_encoder_layers=2)
    base.update(over)
    return get_config("bert-base", **base)


def _batch(rng, b, l, dtype=None):
    toks = rng.integers(1, V, (b, l))
    if dtype is not None:
        toks = toks.astype(dtype)
    return toks, rng.integers(0, 2, b)


def _warm_engine(seed=0, steps=3):
    """An engine past its scan + capture steps, replaying steadily."""
    reset_replay_counters()
    m = BertModel(_cfg(), seed=seed)
    engine = CaptureReplayEngine(m, arena=ActivationArena())
    rng = np.random.default_rng(seed)
    batch = _batch(rng, 2, 8)
    for _ in range(steps):
        engine.forward_backward(*batch)
    return engine, batch


def test_shape_change_is_cache_miss_not_invalidation():
    engine, batch = _warm_engine()
    counters = replay_counters()
    base = counters.snapshot()
    rng = np.random.default_rng(7)
    engine.forward_backward(*_batch(rng, 2, 6))    # smaller: slab still fits
    d = counters.since(base)
    assert d.captures == 1 and d.replays == 0      # fresh program, no stale
    assert d.invalidations == 0
    assert len(engine.programs) == 2               # both signatures cached


def test_dtype_change_is_cache_miss():
    engine, (toks, labels) = _warm_engine()
    counters = replay_counters()
    base = counters.snapshot()
    engine.forward_backward(toks.astype(np.int32), labels)
    d = counters.since(base)
    assert d.captures == 1 and d.replays == 0
    assert d.invalidations == 0
    # and the int32 signature now replays on its own program
    engine.forward_backward(toks.astype(np.int32), labels)
    assert counters.since(base).replays == 1


def test_loss_scale_change_is_cache_miss():
    """A loss-scaler skip step changes grad_scale next step — that must
    key a different program, never replay the old scale's one."""
    engine, batch = _warm_engine()
    counters = replay_counters()
    base = counters.snapshot()
    engine.forward_backward(*batch, grad_scale=2.0)
    d = counters.since(base)
    assert d.captures == 1 and d.replays == 0 and d.invalidations == 0
    engine.forward_backward(*batch, grad_scale=2.0)
    assert counters.since(base).replays == 1
    assert len(engine.programs) == 2


def test_arena_overflow_invalidates_and_recaptures():
    """A batch outgrowing the slab regrows the arena; the regrow bumps the
    generation and the old program must be detected stale.

    The regrow lands one step late by design: the oversized step itself
    runs with miss-fallback buffers (capture aborts), and the *next* eager
    step's ``begin_step`` re-reserves.  Until that happens the old slab is
    untouched, so the old program replaying in between is still sound.
    """
    engine, batch = _warm_engine()
    old_prog = next(iter(engine.programs.values()))
    counters = replay_counters()
    base = counters.snapshot()
    rng = np.random.default_rng(9)
    big = _batch(rng, 4, 16)
    engine.forward_backward(*big)      # misses mid-step: eager, no capture
    assert counters.since(base).eager_fallbacks == 1
    engine.forward_backward(*big)      # begin_step regrew: captures now
    assert counters.since(base).captures == 1
    old_replays = old_prog.replays
    engine.forward_backward(*batch)    # old sig, stale program: invalidate
    d = counters.since(base)
    assert d.invalidations == 1
    assert old_prog.replays == old_replays         # stale never dispatched
    assert old_prog not in engine.programs.values()
    engine.forward_backward(*batch)                # recaptured → replays
    assert counters.since(base).replays >= 1


def test_parameter_relink_invalidates():
    """Re-linking parameter storage (workspace build) bumps the link epoch;
    programs baked the old arrays in and must not touch them again."""
    engine, batch = _warm_engine()
    counters = replay_counters()
    base = counters.snapshot()
    p = next(engine.model.parameters())
    p.link(p.data.copy(), p.grad.copy())           # same values, new memory
    engine.forward_backward(*batch)
    d = counters.since(base)
    assert d.invalidations == 1 and d.replays == 0
    engine.forward_backward(*batch)                # clean recapture → replay
    assert counters.since(base).replays == 1


def test_invalidation_preserves_parity_with_eager_twin():
    seed = 4
    reset_replay_counters()
    eager = BertModel(_cfg(), seed=seed)
    m = BertModel(_cfg(), seed=seed)
    engine = CaptureReplayEngine(m, arena=ActivationArena())
    rng = np.random.default_rng(21)
    shapes = [(2, 8)] * 3 + [(4, 16)] * 2 + [(2, 8)] * 2
    for i, (b, l) in enumerate(shapes):
        batch = _batch(np.random.default_rng(100 + i), b, l)
        loss_e, _ = staged_forward_backward(eager, batch, 1.0)
        loss_r, _ = engine.forward_backward(*batch)
        assert loss_r == loss_e
        for pe, pr in zip(eager.parameters(), m.parameters()):
            assert np.array_equal(pe.grad, pr.grad), pe.name
    assert replay_counters().invalidations >= 1


def test_replayed_step_allocates_nothing():
    """A replayed step serves every kernel output from a baked buffer: no
    fresh numpy allocation, no arena miss (the criterion's nested
    log-softmax scratch used to leak one per step) — and the loss and
    grads stay bit-equal to an eager twin's."""
    seed = 6
    eager = BertModel(_cfg(), seed=seed)
    m = BertModel(_cfg(), seed=seed)
    reset_replay_counters()
    engine = CaptureReplayEngine(m, arena=ActivationArena())
    batch = _batch(np.random.default_rng(seed), 2, 8)
    for _ in range(3):                             # scan, capture, replay
        staged_forward_backward(eager, batch, 1.0)
        engine.forward_backward(*batch)
    loss_e, _ = staged_forward_backward(eager, batch, 1.0)
    replays = replay_counters().replays
    base = alloc_counters().snapshot()
    loss_r, _ = engine.forward_backward(*batch)
    assert replay_counters().replays == replays + 1
    assert alloc_counters().since(base).new_allocs == 0
    assert loss_r == loss_e
    for pe, pr in zip(eager.parameters(), m.parameters()):
        assert np.array_equal(pe.grad, pr.grad), pe.name


def test_active_collector_forces_eager():
    """While the numerics observatory is sampling, steps must run eagerly
    so per-layer taps fire — replay skips layer code entirely."""
    reset_replay_counters()
    m = BertModel(_cfg(), seed=0)
    trainer = make_trainer("lightseq", m, OptimizerSpec(lr=1e-3))
    engine = CaptureReplayEngine(m, trainer, arena=ActivationArena())
    col = NumericsCollector(1)                     # sample every step
    rng = np.random.default_rng(0)
    batch = _batch(rng, 2, 8)
    with use_collector(col):
        for _ in range(4):
            engine.step(batch)
    counters = replay_counters()
    assert counters.replays == 0
    assert counters.eager_fallbacks == 4
    assert len(col.records) == 4                   # every step observed


def test_replayed_steps_emit_stage_spans():
    engine, batch = _warm_engine()
    rec = SpanRecorder()
    with use_device(Device()), use_recorder(rec):
        engine.forward_backward(*batch)            # a replay
    assert replay_counters().replays >= 2
    replay_spans = [s for s in rec.spans if s.attrs.get("replay")]
    assert {s.name for s in replay_spans} == {"train/forward",
                                              "train/backward"}
    assert all(s.launches > 0 for s in replay_spans)
    assert any("attrs" in s.as_dict() for s in replay_spans)


class _SpyCollector(NumericsCollector):
    """Logs the step-lifecycle calls the step body makes on the collector."""

    def __init__(self, every):
        super().__init__(every)
        self.calls = []

    def begin_step(self, step):
        self.calls.append("begin_step")
        return super().begin_step(step)

    def collect_pre_update(self, trainer, **kw):
        self.calls.append("collect_pre_update")
        super().collect_pre_update(trainer, **kw)

    def collect_post_update(self, trainer):
        self.calls.append("collect_post_update")
        super().collect_post_update(trainer)

    def finish_step(self, **kw):
        self.calls.append("finish_step")
        return super().finish_step(**kw)


def _run_step_path(path, every, steps=3):
    """``steps`` FP16 steps of one batch down one of the step entry points;
    returns everything the single step body is responsible for."""
    reset_replay_counters()
    m = BertModel(_cfg(fp16=True), seed=11)
    # an init scale high enough that one of the steps overflows, so the
    # scaler's skip path is part of what is compared
    t = make_trainer("lightseq", m, OptimizerSpec(lr=1e-3),
                     DynamicLossScaler(init_scale=2.0 ** 15))
    batch = _batch(np.random.default_rng(3), 2, 8)
    if path == "train_step":
        step = lambda: train_step(m, t, batch)
    elif path == "train_step_arena":
        arena = ActivationArena()
        step = lambda: train_step(m, t, batch, arena=arena)
    elif path == "accumulated":
        step = lambda: train_step_accumulated(m, t, [batch])
    else:
        engine = CaptureReplayEngine(m, t, arena=ActivationArena())
        step = lambda: engine.step(batch)
    col, rec = _SpyCollector(every), SpanRecorder()
    with use_device(Device()), use_collector(col), use_recorder(rec):
        results = [step() for _ in range(steps)]
    return {
        "results": [(r.loss, r.num_tokens, r.applied) for r in results],
        # arena/reserve is the slab growing, not the step protocol
        "spans": [s.name for s in sorted(rec.spans, key=lambda s: s.start_s)
                  if s.name != "arena/reserve"],
        "collector": col.calls,
        "params": [p.data.copy() for p in m.parameters()],
        "moments": (t.m.copy(), t.v.copy()),
        "scaler": t.scaler.state_dict(),
        "replays": replay_counters().replays,
    }


@pytest.mark.parametrize("path,every", [
    ("train_step_arena", 2),
    ("accumulated", 2),
    ("engine_eager", 1),          # sampling every step forces eager
    ("engine_replayed", 100),     # never sampling: scan, capture, replay
], ids=lambda v: v if isinstance(v, str) else f"every{v}")
def test_step_entry_points_match_train_step(path, every):
    """Drift gate for the single step body: every entry point — arena-scoped
    ``train_step``, ``train_step_accumulated`` with one micro-batch, and
    ``engine.step`` both eager and replayed — emits the same span-name
    sequence, drives the numerics collector through the same call sequence
    and leaves parameters, Adam moments and loss-scaler state bit-identical
    to plain ``train_step`` after 3 FP16 steps."""
    ref = _run_step_path("train_step", every)
    got = _run_step_path(path, every)
    assert (got.pop("replays") > 0) == (path == "engine_replayed")
    assert ref.pop("replays") == 0
    for key in ("results", "spans", "collector", "scaler"):
        assert got[key] == ref[key], key
    for a, b in zip(got["params"] + list(got["moments"]),
                    ref["params"] + list(ref["moments"])):
        assert np.array_equal(a, b)
    assert ref["collector"][:2] == ["begin_step"] + (
        ["collect_pre_update"] if every == 1 else ["finish_step"])
    assert not all(applied for _, _, applied in ref["results"])
