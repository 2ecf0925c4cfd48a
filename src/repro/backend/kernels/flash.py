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

The multi-tile loops run on every host core, as a GPU runs a launch's
(batch, head) thread blocks on many SMs (FlashAttention-2's parallelism
over batch x heads): the ``B*N`` blocks are split into contiguous ranges,
the caller runs one and the process-wide kernel workers of
:mod:`repro.backend.workers` run the others.  Each block is computed by
exactly the same ops whatever range it falls in, and a range regenerates
exactly its slice of the full-width dropout draw, so the outputs are
bit-identical for any worker count.  Every tile op writes into buffers
allocated once per range.  The single-tile fast paths stay serial.

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
from math import ceil, prod
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.random import PCG64

from .. import workers
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
                       p: float, start: int = 0) -> np.ndarray:
    """Regenerate the keep-mask rows of one query tile (counter-based RNG).

    The mask is :func:`~.elementwise.bernoulli_keep` over a fresh
    ``PCG64([seed, qtile])``: one 32-bit word per decision, so the stream
    depends only on ``(seed, qtile)``.  ``shape`` is ``(B, N, tile_rows,
    Lk)`` — a *full-width* row block, so the draw is independent of
    key-tile size and iteration order (and of causal tile skipping, which
    merely slices columns out of it).

    ``start`` draws a part of that block: the ``prod(shape)`` decisions
    beginning at flat element ``start``.  Flat blocks ``s:e`` of a
    ``(B, N, rows, Lk)`` tile are ``shape=(e - s, rows, Lk)`` at ``start=s
    * rows * Lk``, and equal that slice of the full draw: the stream is
    advanced ``start // 2`` words, and an odd ``start`` drops the low half
    of the first.
    """
    bitgen = PCG64([int(seed), int(qtile)])
    bitgen.advance(start // 2)
    return bernoulli_keep(bitgen, shape, p, skip=start & 1)


def _blocks(a: np.ndarray) -> np.ndarray:
    """``a`` (B, N, ...) with its leading axes merged into one block axis.

    A view for every array the kernels write through it: those come from
    :func:`~..kernels.out_buffer` or a planned arena slot, both
    contiguous.
    """
    return a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:])


def _mask_blocks(mask: Optional[np.ndarray], b: int, n: int, s: int,
                 e: int) -> Optional[np.ndarray]:
    """The additive mask of flat (batch, head) blocks ``s:e``, with one
    leading block axis (or none, when every block shares it).

    A per-head mask is sliced; a mask broadcast over heads or batch is
    gathered per block — ``(e - s)`` rows of a padding mask.
    """
    if mask is None:
        return None
    mask = mask[(None,) * (4 - mask.ndim)]
    if mask.shape[:2] == (b, n):
        return _blocks(mask)[s:e]
    f = np.arange(s, e)
    return mask[f // n if mask.shape[0] > 1 else 0,
                f % n if mask.shape[1] > 1 else 0]


def _tile(buf: np.ndarray, *shape: int) -> np.ndarray:
    """A contiguous ``shape`` view of the front of a flat scratch buffer."""
    return buf[:prod(shape)].reshape(shape)


#: score elements per tile op a block range must have before the split
#: pays: the GIL passes between the threads at every numpy call, so smaller
#: ops lose more to the handoffs than the second core gains.  Measured on
#: a 2-core host (1 x {2, 4} x 4T x 32, causal, T x T tiles, p = 0.1), the
#: split took 2.3x the serial time at 4K elements per range, 1.25x at 16K,
#: 0.79x at 32K and 0.62x at 64K.
_MIN_RANGE_ELEMS = 32768


def _split_blocks(part: Callable[[int, int], None], bn: int,
                  tile_elems: int) -> None:
    """Run ``part(s, e)`` over contiguous ranges covering ``bn`` flat
    (batch, head) blocks: one range on the caller, one per kernel worker
    (:func:`~repro.backend.workers.worker_count`), and only as many ranges
    as keep ``_MIN_RANGE_ELEMS`` score elements (of ``tile_elems`` per
    block) in each range's tile ops."""
    ranges = min(bn, workers.worker_count() + 1,
                 bn * tile_elems // _MIN_RANGE_ELEMS)
    jobs = workers.kernel_workers(max(0, ranges - 1))
    parts = len(jobs) + 1
    bounds = [bn * i // parts for i in range(parts + 1)]
    workers.run_parts(lambda i: part(bounds[i], bounds[i + 1]), jobs)


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
    scale32 = np.float32(scale)
    n_qt = ceil(lq / tile_q)
    n_kt = ceil(lk / tile_k)

    if n_kt == 1:
        # single key tile: exact fused op order -> bitwise parity with
        # attn_softmax_dropout_forward_fused at small L
        kt = np.swapaxes(k, -1, -2)
        for i in range(n_qt):
            i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
            drow = (regen_dropout_mask(seed[0], i, (b, n, i1 - i0, lk), p)
                    if p > 0 else None)
            s = np.matmul(q[:, :, i0:i1, :], kt)
            s = s * scale32
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
    else:
        q3, k3, v3 = _blocks(q), _blocks(k), _blocks(v)
        o3, st3 = _blocks(o), _blocks(stats)

        def blocks(s0: int, s1: int) -> None:
            """Flat (batch, head) blocks ``s0:s1``, every query tile."""
            r = s1 - s0
            tq = min(tile_q, lq)
            kt = np.swapaxes(k3[s0:s1], -1, -2)
            msk = _mask_blocks(mask, b, n, s0, s1)
            # scores / keep products / P.V, and the running statistics
            score = np.empty(r * tq * tile_k, dt)
            kprod = np.empty(r * tq * tile_k, dt) if p > 0 else None
            pv = np.empty(r * tq * dh, dt)
            accb = np.empty(r * tq * dh, dt)
            rowb = np.empty((6, r * tq), dt)
            for i in range(n_qt):
                i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
                rows = i1 - i0
                q_i = q3[s0:s1, i0:i1]
                drow = (regen_dropout_mask(seed[0], i, (r, rows, lk), p,
                                           start=s0 * rows * lk)
                        if p > 0 else None)
                m_run, m_new, alpha, rmax, rsum, l_run = (
                    _tile(x, r, rows, 1) for x in rowb)
                acc = _tile(accb, r, rows, dh)
                m_run.fill(-np.inf)
                l_run.fill(0)
                acc.fill(0)
                for j in range(n_kt):
                    k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
                    if _skip_tile(causal, i1, k0):
                        break    # later tiles are even further above diag
                    sc = _tile(score, r, rows, k1 - k0)
                    np.matmul(q_i, kt[:, :, k0:k1], out=sc)
                    np.multiply(sc, scale32, out=sc)
                    tm = _mask_tile(msk, causal, i0, i1, k0, k1, lq, lk)
                    if tm is not None:
                        np.add(sc, tm, out=sc)
                    np.max(sc, axis=-1, keepdims=True, out=rmax)
                    np.maximum(m_run, rmax, out=m_new)
                    # alpha is 0 on the first tile (m = -inf)
                    np.exp(np.subtract(m_run, m_new, out=alpha), out=alpha)
                    np.exp(np.subtract(sc, m_new, out=sc), out=sc)
                    ed = sc
                    if drow is not None:
                        ed = _tile(kprod, r, rows, k1 - k0)
                        np.multiply(drow[:, :, k0:k1], keep, out=ed)
                        np.multiply(sc, ed, out=ed)
                    np.multiply(l_run, alpha, out=l_run)
                    np.add(l_run, np.sum(sc, axis=-1, keepdims=True,
                                         out=rsum), out=l_run)
                    np.multiply(acc, alpha, out=acc)
                    np.add(acc, np.matmul(ed, v3[s0:s1, k0:k1],
                                          out=_tile(pv, r, rows, dh)),
                           out=acc)
                    m_run, m_new = m_new, m_run
                np.divide(acc, l_run, out=o3[s0:s1, i0:i1])
                st3[s0:s1, i0:i1, 0] = m_run[..., 0]
                st3[s0:s1, i0:i1, 1] = l_run[..., 0]

        _split_blocks(blocks, b * n, min(tile_q, lq) * min(tile_k, lk))

    read, written, flops = flash_launch_cost(
        "fwd", b * n, lq, lk, dh, tile_q=tile_q, tile_k=tile_k,
        causal=causal, mask_elems=mask.size if mask is not None else 0)
    record("ls_flash_attn_fwd", read, written, flops=flops, fp16=fp16,
           family="attention")
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
    ws_ok = ws is not None and ws.dtype == dt

    if n_qt == 1 and n_kt == 1:
        # exact fused backward op order (recompute probs the way the fused
        # forward produced them) -> bitwise parity at small L
        kt = np.swapaxes(k, -1, -2)
        drow = (regen_dropout_mask(seed[0], 0, (b, n, lq, lk), p)
                if dropout else None)
        s = (np.matmul(q, kt, out=ws[:, :, :lq, :lk]) if ws_ok
             else np.matmul(q, kt))
        s = s * np.float32(scale)
        tm = _mask_tile(mask, causal, 0, lq, 0, lk, lq, lk)
        if tm is not None:
            s = s + tm
        smax = s.max(axis=-1, keepdims=True)
        e = np.exp(s - smax)
        probs = e / e.sum(axis=-1, keepdims=True)
        pd = probs if drow is None else probs * (drow * keep)
        d_pd = np.matmul(d_o, np.swapaxes(v, -1, -2))
        np.matmul(np.swapaxes(pd, -1, -2), d_o, out=dv)
        d_probs = d_pd if drow is None else d_pd * (drow * keep)
        dot = (d_probs * probs).sum(axis=-1, keepdims=True)
        ds = (probs * (d_probs - dot)) * np.float32(scale)
        np.matmul(ds, k, out=dq)
        np.matmul(np.swapaxes(ds, -1, -2), q, out=dk)
    else:
        q3, k3, v3, d_o3, o3 = (_blocks(a) for a in (q, k, v, d_o, o))
        st3, dq3, dk3, dv3 = (_blocks(a) for a in (stats, dq, dk, dv))
        ws3 = _blocks(ws) if ws_ok else None
        scale32 = np.float32(scale)

        def blocks(s0: int, s1: int) -> None:
            """Flat (batch, head) blocks ``s0:s1``, every query tile."""
            r = s1 - s0
            tq, tk = min(tile_q, lq), min(tile_k, lk)
            q_r, k_r, d_o_r = q3[s0:s1], k3[s0:s1], d_o3[s0:s1]
            kt = np.swapaxes(k_r, -1, -2)
            vt = np.swapaxes(v3[s0:s1], -1, -2)
            dk_r, dv_r = dk3[s0:s1], dv3[s0:s1]
            msk = _mask_blocks(mask, b, n, s0, s1)
            # D_i = rowsum(dO * O): the softmax dot term, O(L) to hold
            delta = (d_o_r * o3[s0:s1]).sum(axis=-1, keepdims=True)
            # scores (unless ws holds them) / probs / keep products /
            # dP, and the dV-or-dK and dQ GEMM products
            score = None if ws_ok else np.empty(r * tq * tk, dt)
            prb = np.empty(r * tq * tk, dt)
            kprod = np.empty(r * tq * tk, dt) if dropout else None
            gb = np.empty(r * tq * tk, dt)
            kvb = np.empty(r * tk * dh, dt)
            qb = np.empty(r * tq * dh, dt)
            for i in range(n_qt):
                i0, i1 = i * tile_q, min(lq, (i + 1) * tile_q)
                rows = i1 - i0
                q_i, d_o_i = q_r[:, i0:i1], d_o_r[:, i0:i1]
                delta_i = delta[:, i0:i1]
                m_i = st3[s0:s1, i0:i1, 0:1]
                l_i = st3[s0:s1, i0:i1, 1:2]
                drow = (regen_dropout_mask(seed[0], i, (r, rows, lk), p,
                                           start=s0 * rows * lk)
                        if dropout else None)
                dq_i = dq3[s0:s1, i0:i1]
                dq_i[...] = 0
                for j in range(n_kt):
                    k0, k1 = j * tile_k, min(lk, (j + 1) * tile_k)
                    if _skip_tile(causal, i1, k0):
                        break
                    cols = k1 - k0
                    sc = (ws3[s0:s1, :rows, :cols] if ws_ok
                          else _tile(score, r, rows, cols))
                    np.matmul(q_i, kt[:, :, k0:k1], out=sc)
                    np.multiply(sc, scale32, out=sc)
                    tm = _mask_tile(msk, causal, i0, i1, k0, k1, lq, lk)
                    if tm is not None:
                        np.add(sc, tm, out=sc)
                    pr = _tile(prb, r, rows, cols)
                    np.subtract(sc, m_i, out=pr)
                    np.divide(np.exp(pr, out=pr), l_i, out=pr)
                    pd, dblk = pr, None
                    if drow is not None:
                        dblk = _tile(kprod, r, rows, cols)
                        np.multiply(drow[:, :, k0:k1], keep, out=dblk)
                        pd = np.multiply(pr, dblk, out=_tile(gb, r, rows,
                                                             cols))
                    dv_j, dk_j = dv_r[:, k0:k1], dk_r[:, k0:k1]
                    kv = _tile(kvb, r, cols, dh)
                    np.matmul(np.swapaxes(pd, -1, -2), d_o_i, out=kv)
                    np.add(dv_j, kv, out=dv_j)
                    # g = dP (dropped), then ds = pr * (g - D) * scale
                    g = _tile(gb, r, rows, cols)
                    np.matmul(d_o_i, vt[:, :, k0:k1], out=g)
                    if dblk is not None:
                        np.multiply(g, dblk, out=g)
                    np.subtract(g, delta_i, out=g)
                    np.multiply(pr, g, out=g)
                    np.multiply(g, scale32, out=g)
                    qd = _tile(qb, r, rows, dh)
                    np.add(dq_i, np.matmul(g, k_r[:, k0:k1], out=qd),
                           out=dq_i)
                    np.matmul(np.swapaxes(g, -1, -2), q_i, out=kv)
                    np.add(dk_j, kv, out=dk_j)

        _split_blocks(blocks, b * n, min(tile_q, lq) * min(tile_k, lk))

    read, written, flops = flash_launch_cost(
        "bwd", b * n, lq, lk, dh, tile_q=tile_q, tile_k=tile_k,
        causal=causal, mask_elems=mask.size if mask is not None else 0)
    record("ls_flash_attn_bwd", read, written, flops=flops, fp16=fp16,
           family="attention")
    return dq, dk, dv
