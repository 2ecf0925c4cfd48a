"""Tiled (FlashAttention-style) attention kernels — O(L) activation memory.

The fused attention path (``gemm_qk -> ls_attn_softmax_dropout -> gemm_pv``)
materialises the full ``(B, N, Lq, Lk)`` score/probability tensors, so both
activation memory and HBM traffic grow quadratically in sequence length.
The two kernels here stream K/V tiles through the online-softmax recurrence
of FlashAttention-2 instead, keeping every score tile in "registers" (a
tile-sized temporary) and writing back only what the backward needs:

* **forward** — for each query tile, a running row-max ``m`` and row-sum
  ``l`` are folded across key tiles (rescaling the output accumulator by
  ``exp(m_old - m_new)`` whenever the max moves); the residuals are the
  output ``O``, the factored logsumexp statistics ``(m, l)`` — one pair of
  scalars per row, O(L) — and a single dropout seed.  The ``L x L`` probs
  tensor never exists.
* **backward** — recomputes each probability tile from ``q, k, (m, l)``
  (one extra QK^T matmul per tile, the classic recompute-vs-store trade)
  and accumulates ``dq/dk/dv`` tile-wise.  The softmax dot-product term
  uses the ``D = rowsum(dO * O)`` identity, which stays valid under
  dropout because ``sum_j Pdrop_ij * dP_ij = sum_j P_ij * dPdrop_ij``.

Dropout never stores a mask: the forward draws one 64-bit seed (written to
a tiny output buffer so capture/replay rebinds it like any other product)
and both passes regenerate identical keep-masks per *query tile* from
``PCG64([seed, tile_index])`` — the counter-based-RNG idiom of the CUDA
kernels, where Philox state is recomputed from (seed, offset).  Each
keep/drop decision costs one 32-bit word of that stream, as a curand draw
does (:func:`~.elementwise.bernoulli_keep`).

Bitwise-parity contract: when a single tile covers the whole problem
(``Lq <= tile_q and Lk <= tile_k``) both kernels replay the *exact*
operation order of the fused path (``gemm_qk`` + scale + mask-add + stable
softmax + dropout multiply, and its backward), so small-sequence results
are bit-identical to ``attn_softmax_dropout_{forward,backward}_fused`` —
the property the parity tests pin.  Multi-tile results agree to rounding
(the summation tree differs, nothing else).

With ``causal=True`` no mask is ever materialised at ``(Lq, Lk)``: tiles
entirely above the diagonal are *skipped* (never computed, never priced)
and diagonal tiles apply a small memoized tile-local triangle.

Each pass records ONE launch whose traffic follows the FlashAttention-2
reload model: Q is read once, K/V are re-read once per *processed* query
tile, and only O + stats (+ seed) are written — this is the bytes_moved
reduction the roofline cost model prices (family "attention").
:func:`flash_launch_cost` is that model, written once: both kernels
record its result, and the ``attn_impl=tiled`` what-if of
:mod:`repro.obs.critpath` builds its projected launches from it.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil
from typing import Optional, Tuple

import numpy as np
from numpy.random import PCG64

from . import capturable, out_buffer, record
from .elementwise import bernoulli_keep

#: additive mask value for disallowed positions (matches layers.attention).
_NEG_INF = np.float32(-1e9)

#: default tile edge (rows/cols of the on-chip score block).
DEFAULT_TILE = 128


@lru_cache(maxsize=256)
def _causal_tile(tq: int, tk: int, col_offset: int) -> Optional[np.ndarray]:
    """Additive causal mask for a (tq, tk) tile whose global column index
    exceeds its global row index by ``col_offset`` at the tile origin.

    Returns None when the tile is entirely on/below the diagonal (nothing
    masked).  Cached per (shape, offset) — only diagonal-straddling tiles
    ever materialise a (small) triangle, and only once per geometry.
    """
    rows = np.arange(tq)[:, None]
    cols = np.arange(tk)[None, :] + col_offset
    if (cols <= rows).all():
        return None
    m = np.where(cols > rows, _NEG_INF, np.float32(0.0)).astype(np.float32)
    m = m[None, None]
    m.setflags(write=False)
    return m


def _skip_tile(causal: bool, i1: int, k0: int) -> bool:
    """Tile rows end at i1 (exclusive); cols start at k0.  Fully masked
    when every column index is greater than every row index."""
    return causal and k0 >= i1


def _mask_tile(mask: Optional[np.ndarray], causal: bool,
               i0: int, i1: int, k0: int, k1: int,
               lq: int, lk: int) -> Optional[np.ndarray]:
    """The additive mask restricted to one score tile.

    Combination order is causal-then-padding, matching
    ``combine_masks(causal_mask(L), padding_mask(...))`` bit-for-bit.
    """
    tm = _causal_tile(i1 - i0, k1 - k0, k0 - i0) if causal else None
    if mask is not None:
        ms = mask
        if ms.shape[-2] == lq:
            ms = ms[..., i0:i1, :]
        if ms.shape[-1] == lk:
            ms = ms[..., k0:k1]
        tm = ms if tm is None else tm + ms
    return tm


def flash_launch_cost(direction: str, bn: int, lq: int, lk: int, dh: int, *,
                      tile_q: int, tile_k: int, causal: bool,
                      mask_elems: int) -> Tuple[int, int, int]:
    """``(elems_read, elems_written, flops)`` of one flash launch.

    Walks the kernels' tile loop: every processed ``tq x tk`` score tile
    drives the FLOPs, and its key columns are re-read (K and V) once per
    query tile.  Causal tiles wholly above the diagonal are skipped, as
    the kernels skip them; the single-tile fast paths there process the
    same tiles this loop counts.  ``direction`` is ``"fwd"`` or ``"bwd"``,
    ``bn`` is batch x heads, ``mask_elems`` the size of the additive mask
    read (0 without one).
    """
    tile_elems = kv_cols = 0
    for i in range(ceil(lq / tile_q)):
        i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
        for j in range(ceil(lk / tile_k)):
            k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
            if _skip_tile(causal, i1, k0):
                break
            tile_elems += (i1 - i0) * (k1 - k0)
            kv_cols += k1 - k0
    kv_reload = 2 * bn * kv_cols * dh
    q_elems = bn * lq * dh
    stats_elems = bn * lq * 2
    if direction == "fwd":
        # reads Q, the K/V reloads, the mask; writes O, stats, seed
        return (q_elems + kv_reload + mask_elems, q_elems + stats_elems + 2,
                bn * tile_elems * (4 * dh + 8))
    if direction == "bwd":
        # reads dO, O, Q, stats, the K/V reloads, the mask; writes dQ/dK/dV
        return (3 * q_elems + stats_elems + kv_reload + mask_elems,
                q_elems + 2 * bn * lk * dh,
                bn * tile_elems * (10 * dh + 12))
    raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")


def regen_dropout_mask(seed: int, qtile: int, shape: Tuple[int, ...],
                       p: float) -> np.ndarray:
    """Regenerate the keep-mask rows of one query tile (counter-based RNG).

    The mask is :func:`~.elementwise.bernoulli_keep` over a fresh
    ``PCG64([seed, qtile])``: one 32-bit word per decision, so the stream
    depends only on ``(seed, qtile)``.  ``shape`` is ``(B, N, tile_rows,
    Lk)`` — a *full-width* row block, so the draw is independent of
    key-tile size and iteration order (and of causal tile skipping, which
    merely slices columns out of it).
    """
    return bernoulli_keep(PCG64([int(seed), int(qtile)]), shape, p)


def _dtype(q, k, v):
    return np.result_type(q, k, v)


@capturable({"out": 0, "out_stats": 1, "out_seed": 2})
def flash_attn_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                       scale: float, mask: Optional[np.ndarray],
                       p: float, rng, *, causal: bool = False,
                       tile_q: int = DEFAULT_TILE, tile_k: int = DEFAULT_TILE,
                       fp16: bool = False, out=None, out_stats=None,
                       out_seed=None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blockwise attention forward: ``softmax(scale*QK^T + mask)`` with
    attention dropout, streamed over K/V tiles.  ONE launch.

    ``q``: (B, N, Lq, Dh); ``k``/``v``: (B, N, Lk, Dh); ``mask`` additive,
    broadcastable to (B, N, Lq, Lk) (pass ``causal=True`` instead of a
    materialised causal mask).  Returns ``(o, stats, seed)`` where
    ``stats[..., 0]`` is the per-row softmax max ``m`` and
    ``stats[..., 1]`` the row sum ``l`` (factored logsumexp, O(L)), and
    ``seed`` is a (2,) uint64 buffer ``[seed_value, dropout_active]`` the
    backward regenerates dropout masks from.
    """
    b, n, lq, dh = q.shape
    lk = k.shape[2]
    dt = _dtype(q, k, v)
    o = out_buffer(out, q.shape, dt)
    stats = out_buffer(out_stats, (b, n, lq, 2), dt)
    seed = out_buffer(out_seed, (2,), np.uint64)
    if p > 0:
        if rng is None:
            raise ValueError("flash_attn_forward: dropout needs an rng")
        seed[0] = np.uint64(int(rng.integers(0, 2 ** 63)))
        seed[1] = np.uint64(1)
    else:
        seed[0] = seed[1] = np.uint64(0)
    keep = np.float32(1.0 / (1.0 - p)) if p > 0 else np.float32(1.0)
    n_qt = ceil(lq / tile_q)
    n_kt = ceil(lk / tile_k)
    kt = np.swapaxes(k, -1, -2)

    for i in range(n_qt):
        i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
        q_i = q[:, :, i0:i1, :]
        drow = (regen_dropout_mask(seed[0], i, (b, n, i1 - i0, lk), p)
                if p > 0 else None)
        if n_kt == 1:
            # single key tile: exact fused op order -> bitwise parity with
            # attn_softmax_dropout_forward_fused at small L
            s = np.matmul(q_i, kt)
            s = s * np.float32(scale)
            tm = _mask_tile(mask, causal, i0, i1, 0, lk, lq, lk)
            if tm is not None:
                s = s + tm
            smax = s.max(axis=-1, keepdims=True)
            e = np.exp(s - smax)
            l = e.sum(axis=-1, keepdims=True)
            probs = e / l
            pd = probs if drow is None else probs * (drow * keep)
            np.matmul(pd, v, out=o[:, :, i0:i1, :])
            stats[:, :, i0:i1, 0] = smax[..., 0]
            stats[:, :, i0:i1, 1] = l[..., 0]
            continue
        m_run = np.full((b, n, i1 - i0, 1), -np.inf, dtype=dt)
        l_run = np.zeros((b, n, i1 - i0, 1), dtype=dt)
        acc = np.zeros((b, n, i1 - i0, dh), dtype=dt)
        for j in range(n_kt):
            k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
            if _skip_tile(causal, i1, k0):
                break            # later tiles are even further above diag
            s = np.matmul(q_i, kt[:, :, :, k0:k1]) * np.float32(scale)
            tm = _mask_tile(mask, causal, i0, i1, k0, k1, lq, lk)
            if tm is not None:
                s = s + tm
            m_new = np.maximum(m_run, s.max(axis=-1, keepdims=True))
            alpha = np.exp(m_run - m_new)   # 0 on the first tile (m=-inf)
            e = np.exp(s - m_new)
            ed = e if drow is None else e * (drow[:, :, :, k0:k1] * keep)
            l_run = l_run * alpha + e.sum(axis=-1, keepdims=True)
            acc = acc * alpha + np.matmul(ed, v[:, :, k0:k1, :])
            m_run = m_new
        np.divide(acc, l_run, out=o[:, :, i0:i1, :])
        stats[:, :, i0:i1, 0] = m_run[..., 0]
        stats[:, :, i0:i1, 1] = l_run[..., 0]

    read, written, flops = flash_launch_cost(
        "fwd", b * n, lq, lk, dh, tile_q=tile_q, tile_k=tile_k,
        causal=causal, mask_elems=mask.size if mask is not None else 0)
    record("ls_flash_attn_fwd", read, written, flops=flops, is_gemm=True,
           fp16=fp16)
    return o, stats, seed


@capturable({"out_dq": 0, "out_dk": 1, "out_dv": 2})
def flash_attn_backward(d_o: np.ndarray, q: np.ndarray, k: np.ndarray,
                        v: np.ndarray, o: np.ndarray, stats: np.ndarray,
                        seed: np.ndarray, scale: float,
                        mask: Optional[np.ndarray], p: float, *,
                        causal: bool = False, tile_q: int = DEFAULT_TILE,
                        tile_k: int = DEFAULT_TILE, fp16: bool = False,
                        ws=None, out_dq=None, out_dk=None, out_dv=None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blockwise attention backward: recompute probs per tile, accumulate
    ``dq/dk/dv``.  ONE launch; the only extra storage over the forward is
    the tile-sized working set (``ws``, optionally a lifetime-planned
    arena view replacing the old quadratic ``d_probs_scores`` slot).
    """
    b, n, lq, dh = q.shape
    lk = k.shape[2]
    dt = _dtype(q, k, v)
    dq = out_buffer(out_dq, q.shape, dt)
    dk = out_buffer(out_dk, k.shape, dt)
    dv = out_buffer(out_dv, v.shape, dt)
    dk[...] = 0
    dv[...] = 0
    dropout = p > 0 and int(seed[1]) != 0
    keep = np.float32(1.0 / (1.0 - p)) if dropout else np.float32(1.0)
    n_qt = ceil(lq / tile_q)
    n_kt = ceil(lk / tile_k)
    kt = np.swapaxes(k, -1, -2)
    vt = np.swapaxes(v, -1, -2)

    def ws_view(tq_cur, tk_cur):
        if ws is None or ws.dtype != dt:
            return None
        return ws[:, :, :tq_cur, :tk_cur]

    if n_qt == 1 and n_kt == 1:
        # exact fused backward op order (recompute probs the way the fused
        # forward produced them) -> bitwise parity at small L
        drow = (regen_dropout_mask(seed[0], 0, (b, n, lq, lk), p)
                if dropout else None)
        wsv = ws_view(lq, lk)
        s = np.matmul(q, kt) if wsv is None else np.matmul(q, kt, out=wsv)
        s = s * np.float32(scale)
        tm = _mask_tile(mask, causal, 0, lq, 0, lk, lq, lk)
        if tm is not None:
            s = s + tm
        smax = s.max(axis=-1, keepdims=True)
        e = np.exp(s - smax)
        probs = e / e.sum(axis=-1, keepdims=True)
        pd = probs if drow is None else probs * (drow * keep)
        d_pd = np.matmul(d_o, vt)
        np.matmul(np.swapaxes(pd, -1, -2), d_o, out=dv)
        d_probs = d_pd if drow is None else d_pd * (drow * keep)
        dot = (d_probs * probs).sum(axis=-1, keepdims=True)
        ds = (probs * (d_probs - dot)) * np.float32(scale)
        np.matmul(ds, k, out=dq)
        np.matmul(np.swapaxes(ds, -1, -2), q, out=dk)
    else:
        # D_i = rowsum(dO * O): the softmax dot term, O(L) to hold
        delta = (d_o * o).sum(axis=-1, keepdims=True)
        for i in range(n_qt):
            i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
            q_i = q[:, :, i0:i1, :]
            d_o_i = d_o[:, :, i0:i1, :]
            delta_i = delta[:, :, i0:i1, :]
            m_i = stats[:, :, i0:i1, 0:1]
            l_i = stats[:, :, i0:i1, 1:2]
            drow = (regen_dropout_mask(seed[0], i, (b, n, i1 - i0, lk), p)
                    if dropout else None)
            dq_i = np.zeros((b, n, i1 - i0, dh), dtype=dt)
            for j in range(n_kt):
                k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
                if _skip_tile(causal, i1, k0):
                    break
                wsv = ws_view(i1 - i0, k1 - k0)
                kt_j = kt[:, :, :, k0:k1]
                s = (np.matmul(q_i, kt_j) if wsv is None
                     else np.matmul(q_i, kt_j, out=wsv))
                if wsv is None:
                    s = s * np.float32(scale)
                else:
                    np.multiply(s, np.float32(scale), out=s)
                tm = _mask_tile(mask, causal, i0, i1, k0, k1, lq, lk)
                if tm is not None:
                    if wsv is None:
                        s = s + tm
                    else:
                        np.add(s, tm, out=s)
                pr = np.exp(s - m_i) / l_i
                dblk = None if drow is None else drow[:, :, :, k0:k1] * keep
                pd = pr if dblk is None else pr * dblk
                dv[:, :, k0:k1, :] += np.matmul(
                    np.swapaxes(pd, -1, -2), d_o_i)
                dp = np.matmul(d_o_i, vt[:, :, :, k0:k1])
                g = dp if dblk is None else dp * dblk
                ds = (pr * (g - delta_i)) * np.float32(scale)
                dq_i += np.matmul(ds, k[:, :, k0:k1, :])
                dk[:, :, k0:k1, :] += np.matmul(
                    np.swapaxes(ds, -1, -2), q_i)
            dq[:, :, i0:i1, :] = dq_i

    read, written, flops = flash_launch_cost(
        "bwd", b * n, lq, lk, dh, tile_q=tile_q, tile_k=tile_k,
        causal=causal, mask_elems=mask.size if mask is not None else 0)
    record("ls_flash_attn_bwd", read, written, flops=flops, is_gemm=True,
           fp16=fp16)
    return dq, dk, dv
