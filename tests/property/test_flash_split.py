"""The (batch, head) block split of the tiled attention kernels is invisible.

``flash_attn_forward``/``flash_attn_backward`` split their multi-tile
loops into contiguous ranges of the flattened ``B*N`` blocks, one range on
the caller and one per kernel worker, and run every tile op into scratch
buffers allocated once per range.  Whatever the worker count (forced here
to 0, 1 and 3 through :func:`repro.backend.workers.worker_count`, with the
minimum range size lifted so that small tiles split too), the outputs
must be ``np.array_equal`` to the serial loops below — the tile loops as
they ran before the split, kept as the reference.  Ranged dropout
regeneration must equal the slice of the full-width draw.
"""

from contextlib import ExitStack
from math import ceil
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64

from repro.backend import workers
from repro.backend.arena import ActivationArena
from repro.backend.kernels import flash
from repro.backend.kernels.elementwise import bernoulli_keep

_NEG = np.float32(-1e9)
WORKER_COUNTS = (0, 1, 3)


def _reference_forward(q, k, v, scale, mask, p, seed, causal, tile_q,
                       tile_k):
    """The multi-tile forward loop, serial over all (batch, head) blocks."""
    b, n, lq, dh = q.shape
    lk = k.shape[2]
    o = np.empty_like(q)
    stats = np.empty((b, n, lq, 2), q.dtype)
    keep = np.float32(1.0 / (1.0 - p)) if p > 0 else np.float32(1.0)
    kt = np.swapaxes(k, -1, -2)
    for i in range(ceil(lq / tile_q)):
        i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
        q_i = q[:, :, i0:i1, :]
        drow = (flash.regen_dropout_mask(seed, i, (b, n, i1 - i0, lk), p)
                if p > 0 else None)
        m_run = np.full((b, n, i1 - i0, 1), -np.inf, dtype=q.dtype)
        l_run = np.zeros((b, n, i1 - i0, 1), dtype=q.dtype)
        acc = np.zeros((b, n, i1 - i0, dh), dtype=q.dtype)
        for j in range(ceil(lk / tile_k)):
            k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
            if flash._skip_tile(causal, i1, k0):
                break
            s = np.matmul(q_i, kt[:, :, :, k0:k1]) * np.float32(scale)
            tm = flash._mask_tile(mask, causal, i0, i1, k0, k1, lq, lk)
            if tm is not None:
                s = s + tm
            m_new = np.maximum(m_run, s.max(axis=-1, keepdims=True))
            alpha = np.exp(m_run - m_new)
            e = np.exp(s - m_new)
            ed = e if drow is None else e * (drow[:, :, :, k0:k1] * keep)
            l_run = l_run * alpha + e.sum(axis=-1, keepdims=True)
            acc = acc * alpha + np.matmul(ed, v[:, :, k0:k1, :])
            m_run = m_new
        np.divide(acc, l_run, out=o[:, :, i0:i1, :])
        stats[:, :, i0:i1, 0] = m_run[..., 0]
        stats[:, :, i0:i1, 1] = l_run[..., 0]
    return o, stats


def _reference_backward(d_o, q, k, v, o, stats, scale, mask, p, seed,
                        causal, tile_q, tile_k):
    """The multi-tile backward loop, serial over all (batch, head)
    blocks."""
    b, n, lq, dh = q.shape
    lk = k.shape[2]
    dq, dk, dv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    keep = np.float32(1.0 / (1.0 - p)) if p > 0 else np.float32(1.0)
    kt, vt = np.swapaxes(k, -1, -2), np.swapaxes(v, -1, -2)
    delta = (d_o * o).sum(axis=-1, keepdims=True)
    for i in range(ceil(lq / tile_q)):
        i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
        q_i, d_o_i = q[:, :, i0:i1, :], d_o[:, :, i0:i1, :]
        delta_i = delta[:, :, i0:i1, :]
        m_i, l_i = stats[:, :, i0:i1, 0:1], stats[:, :, i0:i1, 1:2]
        drow = (flash.regen_dropout_mask(seed, i, (b, n, i1 - i0, lk), p)
                if p > 0 else None)
        dq_i = np.zeros((b, n, i1 - i0, dh), dtype=q.dtype)
        for j in range(ceil(lk / tile_k)):
            k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
            if flash._skip_tile(causal, i1, k0):
                break
            s = np.matmul(q_i, kt[:, :, :, k0:k1]) * np.float32(scale)
            tm = flash._mask_tile(mask, causal, i0, i1, k0, k1, lq, lk)
            if tm is not None:
                s = s + tm
            pr = np.exp(s - m_i) / l_i
            dblk = None if drow is None else drow[:, :, :, k0:k1] * keep
            pd = pr if dblk is None else pr * dblk
            dv[:, :, k0:k1, :] += np.matmul(np.swapaxes(pd, -1, -2), d_o_i)
            dp = np.matmul(d_o_i, vt[:, :, :, k0:k1])
            g = dp if dblk is None else dp * dblk
            ds = (pr * (g - delta_i)) * np.float32(scale)
            dq_i += np.matmul(ds, k[:, :, k0:k1, :])
            dk[:, :, k0:k1, :] += np.matmul(np.swapaxes(ds, -1, -2), q_i)
        dq[:, :, i0:i1, :] = dq_i
    return dq, dk, dv


@st.composite
def _cases(draw):
    b, n = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1),
                                 (1, 5), (5, 1), (2, 4), (4, 2), (8, 1)]))
    causal = draw(st.booleans())
    lq = draw(st.integers(2, 40))
    # causal attention is self-attention: key length must equal query length
    lk = lq if causal else draw(st.integers(2, 40))
    # ragged tiles, at most ~6 per axis; at least two key tiles, so both
    # kernels take their multi-tile loops
    tile_q = draw(st.integers(max(1, lq // 6), lq))
    tile_k = draw(st.integers(max(1, lk // 6), lk - 1))
    mask = draw(st.sampled_from(["none", "padding", "per_head"]))
    p = draw(st.sampled_from([0.0, 0.3]))
    arena = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return b, n, lq, lk, causal, tile_q, tile_k, mask, p, arena, seed


def _mask(kind, rng, b, n, lq, lk):
    if kind == "none":
        return None
    shape = (b, 1, 1, lk) if kind == "padding" else (b, n, lq, lk)
    blocked = rng.random(shape) < 0.3
    blocked[..., 0] = False          # every row keeps one visible key
    return np.where(blocked, _NEG, np.float32(0.0)).astype(np.float32)


def _run(q, k, v, d_o, scale, mask, p, seed, causal, tile_q, tile_k,
         arena):
    """Forward then backward; with ``arena`` every output and ``ws`` is
    served by an :class:`ActivationArena` on its second (hitting) step."""
    b, n, lq, _ = q.shape
    lk = k.shape[2]
    kw = dict(causal=causal, tile_q=tile_q, tile_k=tile_k)
    slab = ActivationArena() if arena else None
    for _ in range(2 if arena else 1):
        with ExitStack() as stack:
            ws = None
            if slab is not None:
                stack.enter_context(slab.step())
                ws = slab.request((b, n, min(tile_q, lq), min(tile_k, lk)))
            o, stats, out_seed = flash.flash_attn_forward(
                q, k, v, scale, mask, p, np.random.default_rng(seed), **kw)
            grads = flash.flash_attn_backward(
                d_o, q, k, v, o, stats, out_seed, scale, mask, p, ws=ws,
                **kw)
            got = [a.copy() for a in (o, stats, out_seed, *grads)]
    return got


@given(_cases())
@settings(max_examples=40, deadline=None)
def test_split_is_bitwise_the_serial_loops(case):
    b, n, lq, lk, causal, tile_q, tile_k, mask_kind, p, arena, seed = case
    rng = np.random.default_rng(seed)
    dh = 4
    q = rng.standard_normal((b, n, lq, dh)).astype(np.float32)
    k = rng.standard_normal((b, n, lk, dh)).astype(np.float32)
    v = rng.standard_normal((b, n, lk, dh)).astype(np.float32)
    d_o = rng.standard_normal((b, n, lq, dh)).astype(np.float32)
    mask = _mask(mask_kind, rng, b, n, lq, lk)
    scale = 1.0 / np.sqrt(dh)

    runs = []
    for count in WORKER_COUNTS:
        # tiles this small would stay serial on their own
        with mock.patch.object(workers, "worker_count", lambda: count), \
                mock.patch.object(flash, "_MIN_RANGE_ELEMS", 1):
            runs.append(_run(q, k, v, d_o, scale, mask, p, seed, causal,
                             tile_q, tile_k, arena))
    o, stats, out_seed = runs[0][:3]
    dropout_seed = int(out_seed[0])
    ref = _reference_forward(q, k, v, scale, mask, p, dropout_seed, causal,
                             tile_q, tile_k)
    ref += _reference_backward(d_o, q, k, v, o, stats, scale, mask, p,
                               dropout_seed, causal, tile_q, tile_k)
    for got in runs:
        assert np.array_equal(got[2], out_seed)
        for a, r in zip(got[:2] + got[3:], ref):
            assert np.array_equal(a, r)


@given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
       st.data())
@settings(max_examples=40, deadline=None)
def test_ranged_regeneration_is_the_slice_of_the_full_draw(bn, rows, lk,
                                                           data):
    s = data.draw(st.integers(0, bn - 1))
    e = data.draw(st.integers(s + 1, bn))
    seed = data.draw(st.integers(0, 2 ** 63 - 1))
    full = bernoulli_keep(PCG64([seed, 3]), (bn, rows, lk), 0.4)
    part = flash.regen_dropout_mask(seed, 3, (e - s, rows, lk), 0.4,
                                    start=s * rows * lk)
    assert np.array_equal(part, full[s:e])


def test_ranged_regeneration_at_even_and_odd_offsets():
    full = bernoulli_keep(PCG64([99, 0]), (60,), 0.5)
    for start in (0, 1, 2, 15, 16, 17, 59):
        got = flash.regen_dropout_mask(99, 0, (60 - start,), 0.5,
                                       start=start)
        assert np.array_equal(got, full[start:]), start
