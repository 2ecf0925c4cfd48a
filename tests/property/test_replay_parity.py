"""Property tests: replayed steps are bit-identical to eager ones.

The capture-replay engine (§3.1 flat dispatch, DESIGN §11) changes *how*
the kernel sequence is dispatched — a flat program instead of the layer
graph — never what it computes.  For every model family we build two
identically-seeded twins, drive one through a
:class:`~repro.training.CaptureReplayEngine` (arena-backed, so captured
programs bake slab views in), and step both in lockstep on the same
batches: losses, token counts and every parameter gradient must be
``np.array_equal`` (bit-identical, not approx) at every step — including
the steps that replayed a captured program.

Lockstep matters doubly here: dropout draws from the layers' own RNG
streams, and replayed steps re-draw masks through the *same* baked
Generator references, so the eager twin must consume exactly as many draws
as the engine twin.

Shape sequences repeat so replays actually happen, and the
shrink-then-grow run forces an arena re-reservation mid-run — the captured
program is invalidated, the engine recaptures, and parity must survive the
whole fallback-and-recapture cycle.

The last group pins write-first gradients: a gradient's first contribution
after a clear is *written*, and replay, micro-batch accumulation and the
MT model's tied table must give exactly the bits of the add-only rule
(:func:`_add_only`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.arena import ActivationArena
from repro.backend.profiler import replay_counters, reset_replay_counters
from repro.config import get_config
from repro.layers.base import Parameter
from repro.models import BertModel, GPTModel, TransformerModel, ViTModel
from repro.training import (CaptureReplayEngine, OptimizerSpec, make_trainer,
                            train_step_accumulated)
from repro.training.loop import staged_forward_backward

HID, NHEAD, FFN, V = 32, 4, 64, 61


def _assert_replay_lockstep(make_model, make_batch, shapes, seed, *,
                            arena=True):
    """Step an eager twin and an engine-driven twin over ``shapes``;
    require bit-identical losses, token counts and parameter grads at
    every step.  Returns the engine and this run's counter deltas."""
    reset_replay_counters()
    eager = make_model(seed)
    replayed = make_model(seed)
    engine = CaptureReplayEngine(
        replayed, arena=ActivationArena() if arena else None)
    for i, shape in enumerate(shapes):
        batch_rng = np.random.default_rng(1000 + 31 * seed + i)
        batch = make_batch(batch_rng, *shape)
        loss_e, ntok_e = staged_forward_backward(eager, batch, 1.0)
        loss_r, ntok_r = engine.forward_backward(*batch)
        assert loss_r == loss_e                     # float equality, no tol
        assert ntok_r == ntok_e
        for pe, pr in zip(eager.parameters(), replayed.parameters()):
            assert np.array_equal(pe.grad, pr.grad), \
                f"step {i}: grad mismatch for {pe.name}"
    return engine, replay_counters()


#: constant-shape runs so the steady state is reached: with an arena the
#: first step is the allocation scan (eager fallback), the second captures,
#: and every later step must replay.
def _replay_runs(max_b, max_l):
    return st.sampled_from([
        [(2, max_l // 2)] * 4,
        [(max_b, max_l)] * 4,
        [(1, max_l)] * 5,
    ])


def _assert_steady_state(counters, n_steps):
    assert counters.captures == 1
    assert counters.replays == n_steps - 2      # scan + capture, then replay
    assert counters.eager_fallbacks == 1        # the arena scan step
    assert counters.invalidations == 0


@given(seed=st.integers(0, 50), shapes=_replay_runs(4, 12))
@settings(max_examples=8, deadline=None)
def test_bert_replay_bit_identical(seed, shapes):
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    _, counters = _assert_replay_lockstep(
        lambda s: BertModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(1, V, (b, l)),
                           rng.integers(0, 2, b)),
        shapes, seed)
    _assert_steady_state(counters, len(shapes))


@given(seed=st.integers(0, 50), shapes=_replay_runs(3, 10),
       fused=st.booleans())
@settings(max_examples=8, deadline=None)
def test_gpt_replay_bit_identical(seed, shapes, fused):
    cfg = get_config("gpt2-small", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_decoder_layers=2, fused=fused)
    _, counters = _assert_replay_lockstep(
        lambda s: GPTModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(4, V, (b, l)),
                           rng.integers(4, V, (b, l))),
        shapes, seed)
    _assert_steady_state(counters, len(shapes))


@given(seed=st.integers(0, 50), shapes=_replay_runs(3, 8),
       fused=st.booleans())
@settings(max_examples=8, deadline=None)
def test_transformer_replay_bit_identical(seed, shapes, fused):
    cfg = get_config("transformer-base", max_batch_tokens=256,
                     max_seq_len=24, hidden_dim=HID, nhead=NHEAD,
                     ffn_dim=FFN, vocab_size=V, num_encoder_layers=2,
                     num_decoder_layers=2, fused=fused)
    _, counters = _assert_replay_lockstep(
        lambda s: TransformerModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(4, V, (b, l)),
                           rng.integers(4, V, (b, l)),
                           rng.integers(4, V, (b, l))),
        shapes, seed)
    _assert_steady_state(counters, len(shapes))


@given(seed=st.integers(0, 50), batches=st.sampled_from([
    [2] * 4, [3] * 4, [1] * 5]))
@settings(max_examples=6, deadline=None)
def test_vit_replay_bit_identical(seed, batches):
    cfg = get_config("vit-b-32", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN,
                     num_encoder_layers=2, image_size=64, patch_size=32)
    _, counters = _assert_replay_lockstep(
        lambda s: ViTModel(cfg, seed=s),
        lambda rng, b: (rng.standard_normal((b, 3, 64, 64),
                                            ).astype(np.float32),
                        rng.integers(0, 10, b)),
        [(b,) for b in batches], seed)
    _assert_steady_state(counters, len(batches))


@given(seed=st.integers(0, 20))
@settings(max_examples=6, deadline=None)
def test_no_arena_replay_bit_identical(seed):
    """Without an arena there is no scan step: the engine captures on the
    very first step and replays everything after."""
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    _, counters = _assert_replay_lockstep(
        lambda s: BertModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(1, V, (b, l)),
                           rng.integers(0, 2, b)),
        [(2, 8)] * 4, seed, arena=False)
    assert counters.captures == 1
    assert counters.replays == 3
    assert counters.eager_fallbacks == 0
    assert counters.invalidations == 0


@given(seed=st.integers(0, 20))
@settings(max_examples=6, deadline=None)
def test_shrink_then_grow_recaptures_with_parity(seed):
    """A batch outgrowing the slab mid-run re-reserves the arena, which
    invalidates every captured program (their baked slab views are stale).
    The engine must detect this, fall back to eager, recapture, and keep
    bit-parity through the whole cycle."""
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    shapes = [(2, 8)] * 3 + [(4, 16)] * 2 + [(2, 8)] * 2
    engine, counters = _assert_replay_lockstep(
        lambda s: BertModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(1, V, (b, l)),
                           rng.integers(0, 2, b)),
        shapes, seed)
    # (2,8): scan-fallback, capture, replay.  (4,16): outgrows the slab →
    # eager + regrow, then capture.  (2,8) again: the regrow invalidated
    # the old program → recapture, then replay.
    assert counters.invalidations >= 1
    assert counters.replays >= 2
    assert counters.captures >= 3
    assert engine.arena.reservations >= 2


def test_replayed_step_skips_layer_graph():
    """The point of the exercise: a replayed step dispatches the flat
    program — the model's forward is never entered.  (Guarded by probing,
    not timing: monkeypatch the model's forward to fail.)"""
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    reset_replay_counters()
    m = BertModel(cfg, seed=0)
    engine = CaptureReplayEngine(m, arena=ActivationArena())
    rng = np.random.default_rng(0)
    batch = (rng.integers(1, V, (2, 8)), rng.integers(0, 2, 2))
    for _ in range(2):                  # scan + capture
        engine.forward_backward(*batch)

    def boom(*a, **k):                  # pragma: no cover - must not run
        raise AssertionError("layer graph entered during replay")

    m.forward = boom
    loss, ntok = engine.forward_backward(*batch)
    assert np.isfinite(loss) and ntok > 0
    assert replay_counters().replays == 1


# -- write-first gradients ---------------------------------------------------

def _add_only(self, g, rows=None):
    """The rule write-first replaces: every contribution, the first after a
    clear included, is added densely at storage dtype."""
    with np.errstate(over="ignore", invalid="ignore"):
        self.grad += g.astype(self.grad.dtype)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _mt_cfg(fp16):
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=HID, nhead=NHEAD,
                      ffn_dim=FFN, vocab_size=V, num_encoder_layers=1,
                      num_decoder_layers=1, fp16=fp16)


def _mt_batch(rng, cfg, b=3, l=7):
    """Repeated tokens and trailing padding, so the tied table's row
    scatter meets both."""
    src, tgt_in, tgt = (rng.integers(4, 12, (b, l)) for _ in range(3))
    src[0, -2:] = tgt_in[1, -3:] = tgt[1, -3:] = cfg.padding_idx
    return src, tgt_in, tgt


_MODELS = {
    "bert": (lambda s: BertModel(get_config(
        "bert-base", max_batch_tokens=256, max_seq_len=32, hidden_dim=HID,
        nhead=NHEAD, ffn_dim=FFN, vocab_size=V, num_encoder_layers=2,
        fp16=True), seed=s),
             lambda rng: (rng.integers(1, V, (2, 8)), rng.integers(0, 2, 2))),
    "mt": (lambda s: TransformerModel(_mt_cfg(True), seed=s),
           lambda rng: _mt_batch(rng, _mt_cfg(True))),
}


@pytest.mark.parametrize("family", sorted(_MODELS))
def test_replayed_passes_without_zero_grad_add_up(family):
    """Two and three forward+backwards without a ``zero_grad`` between them
    must add up exactly as the eager, add-only twin does, on replayed
    steps too.  The program captured after a clear writes each first
    contribution; replayed onto gradients that already hold one, it would
    overwrite them — so freshness keys the signature, and a replay leaves
    no parameter marked fresh that it wrote."""
    make_model, make_batch = _MODELS[family]
    reset_replay_counters()
    eager, replayed = make_model(0), make_model(0)
    engine = CaptureReplayEngine(replayed, arena=ActivationArena())
    batch = make_batch(np.random.default_rng(3))
    calls = [1, 1, 1, 2, 3, 3]      # passes after each clear
    for n in calls:
        for p in eager.parameters():
            p.grad[...] = 0         # a clear that leaves grad_fresh False
        replayed.zero_grad()
        for _ in range(n):
            le = staged_forward_backward(eager, batch, 1.0)
            lr = engine.forward_backward(*batch)
            assert le == lr
            for pe, pr in zip(eager.parameters(), replayed.parameters()):
                assert _bits(pe.grad) == _bits(pr.grad), pe.name
    counters = replay_counters()
    # one program after a clear, one onto held gradients; all else replays
    assert counters.captures == 2 and counters.invalidations == 0
    assert counters.replays == sum(calls) - 3


def test_accumulated_step_matches_add_only(monkeypatch):
    """``train_step_accumulated``: the first micro-batch writes, the rest
    add — parameters, gradients, Adam moments and losses bitwise equal to
    the add-only rule over two FP16 steps of three micro-batches."""
    cfg = _mt_cfg(True)
    rng = np.random.default_rng(5)
    steps = [[_mt_batch(rng, cfg) for _ in range(3)] for _ in range(2)]

    def run():
        model = TransformerModel(cfg, seed=4)
        trainer = make_trainer("lightseq", model, OptimizerSpec())
        losses = [train_step_accumulated(model, trainer, mbs).loss
                  for mbs in steps]
        return model, trainer, losses

    with monkeypatch.context() as m:
        m.setattr(Parameter, "accumulate_grad", _add_only)
        ref_model, ref_trainer, ref_losses = run()
    model, trainer, losses = run()
    assert losses == ref_losses
    for name in ("params", "grads"):
        assert _bits(getattr(trainer.workspace, name)) == \
            _bits(getattr(ref_trainer.workspace, name))
    assert _bits(trainer.m) == _bits(ref_trainer.m)
    assert _bits(trainer.v) == _bits(ref_trainer.v)


@pytest.mark.parametrize("fp16", [True, False])
def test_mt_tied_table_three_contributions(fp16, monkeypatch):
    """The MT table gets the output projection's dense gradient, then the
    target and source embeddings' row scatters.  After a clear the first
    is written, and only the batch's rows of the other two are added:
    the bits equal three dense adds onto the cleared table."""
    cfg = _mt_cfg(fp16)
    batch = _mt_batch(np.random.default_rng(8), cfg)

    def table_grad(record=None):
        model = TransformerModel(cfg, seed=6)
        model.zero_grad()
        table = model.src_embed.table
        if record is not None:
            land = table.accumulate_grad
            table.accumulate_grad = lambda g, rows=None: (
                record.append(rows is None), land(g, rows))
        staged_forward_backward(model, batch, 1024.0)
        return table.grad

    with monkeypatch.context() as m:
        m.setattr(Parameter, "accumulate_grad", _add_only)
        want = table_grad()
    landed = []
    got = table_grad(landed)
    assert landed == [True, False, False]    # dense, then two row scatters
    assert _bits(got) == _bits(want)
