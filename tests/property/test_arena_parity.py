"""Property tests: arena-backed execution is bit-identical to fresh.

The §3.3 arena only changes *where* kernel outputs live — a slab view
instead of a fresh numpy buffer — never what they contain.  For every model
family (BERT, GPT, Transformer, ViT) we build two identically-seeded twins,
thread an :class:`ActivationArena` through one of them, and step both in
lockstep on the same batches: losses and every parameter gradient must be
``np.array_equal`` (bit-identical, not approx) at every step.

Lockstep matters: dropout draws from the layers' own RNG streams, so the
fresh twin must consume exactly as many draws as the arena twin — one
reference step per arena step, same batch.

Batch sequences deliberately shrink then grow so the re-reservation path
(batch outgrows the scanned slab → misses → slab regrown next step) is
exercised, not just the happy steady state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.arena import ActivationArena
from repro.backend.profiler import alloc_counters, reset_alloc_counters
from repro.config import get_config
from repro.models import BertModel, GPTModel, TransformerModel, ViTModel
from repro.training.loop import staged_forward_backward

HID, NHEAD, FFN, V = 32, 4, 64, 61


def _assert_lockstep_identical(make_model, make_batch, shapes, seed):
    """Step a fresh twin and an arena twin over ``shapes``; require
    bit-identical losses and parameter grads at every step."""
    fresh = make_model(seed)
    arena_m = make_model(seed)
    arena = ActivationArena()
    arena_m.set_arena(arena)
    for i, shape in enumerate(shapes):
        batch_rng = np.random.default_rng(1000 + 31 * seed + i)
        batch = make_batch(batch_rng, *shape)
        loss_f, ntok_f = staged_forward_backward(fresh, batch, 1.0)
        loss_a, ntok_a = staged_forward_backward(arena_m, batch, 1.0, arena)
        assert loss_a == loss_f                     # float equality, no tol
        assert ntok_a == ntok_f
        for pf, pa in zip(fresh.parameters(), arena_m.parameters()):
            assert np.array_equal(pf.grad, pa.grad), \
                f"step {i}: grad mismatch for {pf.name}"
    return arena


#: shrink-then-grow (batch, seq) sequences: the largest step comes *after*
#: smaller ones, forcing at least one mid-training re-reservation.
def _shape_runs(max_b, max_l):
    return st.sampled_from([
        [(2, max_l // 2), (1, 2), (max_b, max_l)],
        [(max_b, max_l), (1, 2), (max_b, max_l)],
        [(1, max_l), (max_b, 2), (2, max_l // 2), (max_b, max_l)],
    ])


@given(seed=st.integers(0, 50), shapes=_shape_runs(4, 12))
@settings(max_examples=8, deadline=None)
def test_bert_arena_bit_identical(seed, shapes):
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    arena = _assert_lockstep_identical(
        lambda s: BertModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(1, V, (b, l)),
                           rng.integers(0, 2, b)),
        shapes, seed)
    assert arena.reservations >= 1


@given(seed=st.integers(0, 50), shapes=_shape_runs(3, 10),
       fused=st.booleans())
@settings(max_examples=8, deadline=None)
def test_gpt_arena_bit_identical(seed, shapes, fused):
    cfg = get_config("gpt2-small", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_decoder_layers=2, fused=fused)
    _assert_lockstep_identical(
        lambda s: GPTModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(4, V, (b, l)),
                           rng.integers(4, V, (b, l))),
        shapes, seed)


@given(seed=st.integers(0, 50), shapes=_shape_runs(3, 8),
       fused=st.booleans())
@settings(max_examples=8, deadline=None)
def test_transformer_arena_bit_identical(seed, shapes, fused):
    cfg = get_config("transformer-base", max_batch_tokens=256,
                     max_seq_len=24, hidden_dim=HID, nhead=NHEAD,
                     ffn_dim=FFN, vocab_size=V, num_encoder_layers=2,
                     num_decoder_layers=2, fused=fused)
    _assert_lockstep_identical(
        lambda s: TransformerModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(4, V, (b, l)),
                           rng.integers(4, V, (b, l)),
                           rng.integers(4, V, (b, l))),
        shapes, seed)


@given(seed=st.integers(0, 50), batches=st.sampled_from([
    [2, 1, 3], [3, 1, 3], [1, 2, 1, 3]]))
@settings(max_examples=6, deadline=None)
def test_vit_arena_bit_identical(seed, batches):
    cfg = get_config("vit-b-32", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN,
                     num_encoder_layers=2, image_size=64, patch_size=32)
    _assert_lockstep_identical(
        lambda s: ViTModel(cfg, seed=s),
        lambda rng, b: (rng.standard_normal((b, 3, 64, 64),
                                            ).astype(np.float32),
                        rng.integers(0, 10, b)),
        [(b,) for b in batches], seed)


def test_regrown_slab_still_bit_identical():
    """The overflow path itself must be bit-identical: step 2 is larger than
    the scanned step 1, so some requests miss mid-step and the slab mixes
    views with fresh fallbacks."""
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    arena = _assert_lockstep_identical(
        lambda s: BertModel(cfg, seed=s),
        lambda rng, b, l: (rng.integers(1, V, (b, l)),
                           rng.integers(0, 2, b)),
        [(1, 4), (4, 16), (4, 16)], 3)
    assert arena.reservations >= 2      # grew after the oversized step


def test_steady_state_step_allocates_nothing():
    """The tentpole acceptance bar: after warm-up a full forward+backward
    training step performs zero numpy buffer allocations for kernel
    outputs — every request is an arena hit."""
    cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                     hidden_dim=HID, nhead=NHEAD, ffn_dim=FFN, vocab_size=V,
                     num_encoder_layers=2)
    m = BertModel(cfg, seed=0)
    arena = ActivationArena()
    m.set_arena(arena)
    rng = np.random.default_rng(0)
    batch = (rng.integers(1, V, (4, 16)), rng.integers(0, 2, 4))
    staged_forward_backward(m, batch, 1.0, arena)   # scan step: all misses
    for _ in range(3):                  # steady state: zero new allocations
        reset_alloc_counters()
        staged_forward_backward(m, batch, 1.0, arena)
        c = alloc_counters()
        assert c.new_allocs == 0, (
            f"steady-state step allocated: {c.fresh} fresh + "
            f"{c.arena_misses} misses")
        assert c.arena_hits > 0
