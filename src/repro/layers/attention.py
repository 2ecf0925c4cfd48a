"""Multi-head attention with hand-written backward — fused & naive paths.

Covers both attention flavours the paper needs:

* **self-attention** (encoder, and decoder with a causal mask) — packed QKV
  projection: one parameter matrix ``w_qkv`` of shape (3H, H).  The fused
  path runs a single QKV GEMM whose bias-add + head-split epilogue is one
  custom kernel; the naive path launches three GEMMs on the packed weight's
  slices plus separate bias/transpose kernels, as framework modules do.
* **cross-attention** (decoder over encoder output) — separate ``w_q``,
  ``w_k``, ``w_v``; this is the computation DeepSpeed cannot express and the
  reason LightSeq2 extends fusion to the decoder.

The output projection GEMM is bias-*free* here: its bias is folded into the
enclosing sublayer's fused ``bias + dropout + residual`` kernel (Fig. 5), or
added by a separate naive kernel at that level.

Masks are additive FP32 tensors broadcastable to (B, N, Lq, Lk); helpers
:func:`padding_mask` and :func:`causal_mask` build them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..backend.kernels import elementwise as ew
from ..backend.kernels import flash, gemm, softmax, transform
from ..backend.program import capturable
from ..config import LSConfig
from . import initializers as init
from .base import Layer

#: additive mask value for disallowed positions (safe under FP32 compute).
NEG_INF = np.float32(-1e9)


# The mask builders are host ops but depend on the step's token batch, so
# they are capturable: replay re-executes them against the rebound tokens.

@capturable()
def padding_mask(tokens: np.ndarray, padding_idx: int) -> np.ndarray:
    """(B, L) token ids -> (B, 1, 1, L) additive key-padding mask."""
    return np.where(tokens == padding_idx, NEG_INF, np.float32(0.0)
                    )[:, None, None, :].astype(np.float32)


@lru_cache(maxsize=64)
def _causal_mask_cached(seq_len: int) -> np.ndarray:
    m = np.triu(np.full((seq_len, seq_len), NEG_INF, dtype=np.float32), k=1)
    m = m[None, None, :, :]
    m.setflags(write=False)     # shared across steps: callers must not mutate
    return m


@capturable()
def causal_mask(seq_len: int) -> np.ndarray:
    """(1, 1, L, L) additive future mask (decoder self-attention).

    Memoized per ``seq_len`` — the O(L^2) triangle is built once, not per
    forward.  The returned array is read-only; the tiled attention path
    avoids it entirely (pass ``causal=True`` to the kernels instead).
    """
    return _causal_mask_cached(int(seq_len))


@capturable()
def combine_masks(*masks: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Sum additive masks, ignoring Nones.

    Accumulates into ONE broadcast-shaped buffer (a single allocation)
    instead of allocating a fresh array per addend; a lone mask is passed
    through untouched.
    """
    present = [m for m in masks if m is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    shape = np.broadcast_shapes(*(m.shape for m in present))
    out = np.empty(shape, np.result_type(*present))
    np.copyto(out, present[0])
    for m in present[1:]:
        out += m
    return out


class MultiHeadAttention(Layer):
    """Self- or cross-attention with manual backward."""

    def __init__(self, config: LSConfig, name: str = "attn", *,
                 is_cross: bool = False, seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        h = config.hidden_dim
        self.is_cross = is_cross
        self.scale = float(config.head_dim) ** -0.5
        if is_cross:
            self.w_q = self.add_param("w_q", init.xavier_uniform(self.rng, (h, h)))
            self.b_q = self.add_param("b_q", init.zeros(h))
            self.w_k = self.add_param("w_k", init.xavier_uniform(self.rng, (h, h)))
            self.b_k = self.add_param("b_k", init.zeros(h))
            self.w_v = self.add_param("w_v", init.xavier_uniform(self.rng, (h, h)))
            self.b_v = self.add_param("b_v", init.zeros(h))
        else:
            self.w_qkv = self.add_param(
                "w_qkv", init.xavier_uniform(self.rng, (3 * h, h)))
            self.b_qkv = self.add_param("b_qkv", init.zeros(3 * h))
        self.w_o = self.add_param("w_o", init.xavier_uniform(self.rng, (h, h)))

    # -- forward ---------------------------------------------------------------

    def forward(self, x: np.ndarray, kv: Optional[np.ndarray] = None,
                mask: Optional[np.ndarray] = None,
                causal: bool = False) -> np.ndarray:
        """Attention output *before* the out-proj bias.

        ``x``: query input (B, Lq, H).  ``kv``: key/value input for
        cross-attention (B, Lk, H); must be None for self-attention.
        ``mask``: additive mask broadcastable to (B, N, Lq, Lk).
        ``causal``: apply the future mask without requiring the caller to
        materialise it — the tiled path skips above-diagonal tiles, the
        dense paths fold a (memoized) :func:`causal_mask` into ``mask``.
        """
        if self.is_cross and kv is None:
            raise ValueError(f"{self.name}: cross-attention requires kv input")
        if not self.is_cross and kv is not None:
            raise ValueError(f"{self.name}: self-attention takes no kv input")
        if causal and self.is_cross:
            raise ValueError(f"{self.name}: causal cross-attention is "
                             "not a thing")
        cfg = self.config
        impl = cfg.resolved_attn_impl
        fused = cfg.fused
        fp16 = cfg.fp16
        nhead = cfg.nhead
        p_attn = self.attn_dropout_p

        if self.is_cross:
            q, k, v = self._project_cross(x, kv, fused, fp16, nhead)
        else:
            q, k, v = self._project_self(x, fused, fp16, nhead)

        if impl == "tiled":
            ctx, stats, seed = flash.flash_attn_forward(
                q, k, v, self.scale, mask, p_attn, self.rng, causal=causal,
                tile_q=cfg.attn_tile_q, tile_k=cfg.attn_tile_k, fp16=fp16)
            merged = transform.merge_heads_naive(ctx, fp16=fp16)
            out = gemm.linear_forward(merged, self.w_o.compute(), fp16=fp16,
                                      name="gemm_out_proj")
            self.tap("out", out)
            self.save(x=x, kv=kv if self.is_cross else x, q=q, k=k, v=v,
                      ctx=ctx, stats=stats, seed=seed, mask=mask,
                      merged=merged)
            self._tiled_causal = causal
            self._tiled_p = p_attn
            self._had_dropout = p_attn > 0
            return out

        if causal:
            # dense paths need the materialised triangle; memoized, and
            # combined causal-first to match the models' historical order
            mask = combine_masks(causal_mask(x.shape[1]), mask)

        # scores, softmax and attention dropout
        kt = np.swapaxes(k, -1, -2)
        scores = gemm.batched_matmul(q, kt, fp16=fp16, name="gemm_qk")
        if impl == "fused":
            # ONE kernel: scale + mask + softmax + dropout (probs never
            # round-trip through memory undropped); dmask is None if p == 0
            probs_d, probs, dmask = \
                softmax.attn_softmax_dropout_forward_fused(
                    scores, self.scale, mask, p_attn, self.rng, fp16=fp16)
        else:
            probs = softmax.attn_softmax_forward_naive(
                scores, self.scale, mask, fp16=fp16)
            if p_attn > 0:
                probs_d, dmask = ew.dropout_forward_naive(
                    probs, p_attn, self.rng, fp16=fp16)
            else:
                probs_d, dmask = probs, None

        ctx = gemm.batched_matmul(probs_d, v, fp16=fp16, name="gemm_pv")
        merged = transform.merge_heads_naive(ctx, fp16=fp16)
        out = gemm.linear_forward(merged, self.w_o.compute(), fp16=fp16,
                                  name="gemm_out_proj")
        self.tap("out", out)
        self.save(x=x, kv=kv if self.is_cross else x, q=q, k=k, v=v,
                  probs=probs, probs_d=probs_d, merged=merged)
        if dmask is not None:
            self.save(dmask=dmask)
        self._had_dropout = dmask is not None
        return out

    def _project_self(self, x, fused, fp16, nhead):
        h = self.config.hidden_dim
        if fused:
            qkv = gemm.linear_forward(x, self.w_qkv.compute(), fp16=fp16,
                                      name="gemm_qkv_packed")
            q, k, v = transform.qkv_bias_split_heads_fused(
                qkv, self.b_qkv.compute(), nhead, fp16=fp16)
        else:
            w = self.w_qkv.compute()
            b = self.b_qkv.compute()
            parts = []
            for i, tag in enumerate(("q", "k", "v")):
                y = gemm.linear_forward(x, w[i * h:(i + 1) * h], fp16=fp16,
                                        name=f"gemm_{tag}_proj")
                y = ew.bias_add_naive(y, b[i * h:(i + 1) * h], fp16=fp16)
                parts.append(transform.split_heads_naive(y, nhead, fp16=fp16))
            q, k, v = parts
        return q, k, v

    def _project_cross(self, x, kv, fused, fp16, nhead):
        pairs = ((self.w_q, self.b_q, x, "q"), (self.w_k, self.b_k, kv, "k"),
                 (self.w_v, self.b_v, kv, "v"))
        outs = []
        for w, b, inp, tag in pairs:
            y = gemm.linear_forward(inp, w.compute(), fp16=fp16,
                                    name=f"gemm_{tag}_proj")
            if fused:
                outs.append(transform.bias_split_heads_fused(
                    y, b.compute(), nhead, fp16=fp16))
            else:
                y = ew.bias_add_naive(y, b.compute(), fp16=fp16)
                outs.append(transform.split_heads_naive(y, nhead, fp16=fp16))
        return tuple(outs)

    # -- backward ----------------------------------------------------------------

    def backward(self, d_out: np.ndarray
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Backward through the whole attention block.

        Returns ``(d_x, d_kv)``; ``d_kv`` is None for self-attention (the
        kv gradient is already folded into ``d_x``).
        """
        cfg = self.config
        impl = cfg.resolved_attn_impl
        fused = cfg.fused
        fp16 = cfg.fp16
        p_attn = self.attn_dropout_p
        x = self.saved("x")
        q, k, v = self.saved("q"), self.saved("k"), self.saved("v")
        merged = self.saved("merged")
        nhead = cfg.nhead
        plan = self._backward_plan(q, k, fused, tiled=impl == "tiled")

        def buf(key):
            return plan[key] if plan is not None else None

        # out projection
        d_merged, dw_o = gemm.linear_backward(
            merged, self.w_o.compute(), d_out, fp16=fp16,
            name="gemm_out_proj", out_dx=buf("d_merged"))
        self.w_o.accumulate_grad(dw_o)
        d_ctx = transform.split_heads_naive(d_merged, nhead, fp16=fp16,
                                            out=buf("d_ctx"))

        if impl == "tiled":
            d_q, d_k, d_v = flash.flash_attn_backward(
                d_ctx, q, k, v, self.saved("ctx"), self.saved("stats"),
                self.saved("seed"), self.scale, self.saved("mask"),
                self._tiled_p, causal=self._tiled_causal,
                tile_q=cfg.attn_tile_q, tile_k=cfg.attn_tile_k, fp16=fp16,
                ws=buf("flash_ws"), out_dq=buf("d_q"), out_dk=buf("d_k"),
                out_dv=buf("d_v"))
            if self.is_cross:
                return self._backward_cross(x, d_q, d_k, d_v, fused, fp16,
                                            nhead)
            return self._backward_self(x, d_q, d_k, d_v, fused, fp16,
                                       nhead, plan), None

        probs, probs_d = self.saved("probs"), self.saved("probs_d")
        # probs @ v — d_probs lands in the lifetime-shared probs/scores slot
        d_probs_d = gemm.batched_matmul(
            d_ctx, np.swapaxes(v, -1, -2), fp16=fp16, name="gemm_pv_dprobs",
            out=buf("d_probs_scores"))
        d_v = gemm.batched_matmul(
            np.swapaxes(probs_d, -1, -2), d_ctx, fp16=fp16,
            name="gemm_pv_dv", out=buf("d_v"))

        # attention dropout + softmax (+scale) backward.  The scores
        # gradient overwrites the probs gradient *in place* (the Fig. 8
        # reuse): the kernels finish their row reductions over dy before
        # writing, so aliasing out with d_probs_d is safe.
        if impl == "fused":
            dmask = self.saved("dmask") if self._had_dropout else None
            d_scores = softmax.attn_softmax_dropout_backward_fused(
                d_probs_d, probs, dmask, self.scale,
                p_attn if self._had_dropout else 0.0, fp16=fp16,
                out=buf("d_probs_scores"))
        else:
            if self._had_dropout and p_attn > 0:
                d_probs = ew.dropout_backward_naive(
                    d_probs_d, self.saved("dmask"), p_attn, fp16=fp16)
            else:
                d_probs = d_probs_d
            d_scores = softmax.attn_softmax_backward_naive(
                d_probs, probs, self.scale, fp16=fp16,
                out=buf("d_probs_scores"))

        # q @ k^T
        d_q = gemm.batched_matmul(d_scores, k, fp16=fp16, name="gemm_qk_dq",
                                  out=buf("d_q"))
        d_k = gemm.batched_matmul(
            np.swapaxes(d_scores, -1, -2), q, fp16=fp16, name="gemm_qk_dk",
            out=buf("d_k"))

        if self.is_cross:
            return self._backward_cross(x, d_q, d_k, d_v, fused, fp16, nhead)
        return self._backward_self(x, d_q, d_k, d_v, fused, fp16, nhead,
                                   plan), None

    def _backward_plan(self, q: np.ndarray, k: np.ndarray, fused: bool,
                       tiled: bool = False):
        """Lifetime-shared slab views for the backward's intermediates.

        Execution steps: 0 out-proj dx, 1 head split, 2 dprobs GEMM,
        3 dv GEMM, 4 softmax(+dropout) backward (in-place over the dprobs
        buffer), 5 dq GEMM, 6 dk GEMM, 7 QKV merge, 8 input-grad GEMM.
        ``d_probs`` and ``d_scores`` share one slot by design (step 4 is
        the paper's in-place rewrite); disjoint-lifetime tensors (e.g.
        ``d_merged`` and everything after step 2) share offsets via
        :func:`~repro.backend.allocator.plan_offsets`.  Requires float32
        compute (always true under COMPUTE_DTYPE) — with no arena threaded
        returns None and every kernel falls back transparently.

        ``tiled=True`` is the O(L) plan: steps 2–6 collapse into one flash
        backward launch, and the quadratic ``d_probs_scores`` slot is
        replaced by ``flash_ws`` — a single score-tile working set of
        ``min(tile_q, Lq) x min(tile_k, Lk)`` per (batch, head) — so the
        dry-run scan reserves a slab that stays flat in sequence length.
        """
        arena = self.arena
        if arena is None:
            return None
        b, n, lq, dh = q.shape
        lk = k.shape[2]
        h = n * dh
        f32 = np.dtype(np.float32)
        if tiled:
            tq = min(self.config.attn_tile_q, lq)
            tk = min(self.config.attn_tile_k, lk)
            entries = [
                ("d_merged", (b, lq, h), f32, 0, 2),
                ("d_ctx", (b, n, lq, dh), f32, 1, 3),
                ("flash_ws", (b, n, tq, tk), f32, 2, 3),
                ("d_v", (b, n, lk, dh), f32, 2, 8),
                ("d_q", (b, n, lq, dh), f32, 2, 8),
                ("d_k", (b, n, lk, dh), f32, 2, 8),
            ]
        else:
            entries = [
                ("d_merged", (b, lq, h), f32, 0, 2),
                ("d_ctx", (b, n, lq, dh), f32, 1, 4),
                ("d_probs_scores", (b, n, lq, lk), f32, 2, 7),
                ("d_v", (b, n, lk, dh), f32, 3, 8),
                ("d_q", (b, n, lq, dh), f32, 5, 8),
                ("d_k", (b, n, lk, dh), f32, 6, 8),
            ]
        if fused and not self.is_cross:
            entries += [
                ("d_qkv", (b, lq, 3 * h), f32, 7, 9),
                # d_x escapes to the caller: give it a lifetime past every
                # other tensor so only dead slots are shared with it
                ("d_x", (b, lq, h), f32, 8, 10),
            ]
        return arena.request_plan(entries)

    def _backward_self(self, x, d_q, d_k, d_v, fused, fp16, nhead, plan=None):
        h = self.config.hidden_dim
        if fused:
            d_qkv, d_bias = transform.qkv_merge_heads_fused(
                d_q, d_k, d_v, fp16=fp16,
                out=plan["d_qkv"] if plan is not None else None)
            self.b_qkv.accumulate_grad(d_bias)
            d_x, dw = gemm.linear_backward(
                x, self.w_qkv.compute(), d_qkv, fp16=fp16,
                name="gemm_qkv_packed",
                out_dx=plan["d_x"] if plan is not None else None)
            self.w_qkv.accumulate_grad(dw)
            return d_x
        w = self.w_qkv.compute()
        d_x = None
        # scratch products: every row range is overwritten via out= slices
        # below, keeping the packed-grad assembly replayable
        dw_full = transform.scratch_buffer(w.shape, w.dtype)
        db_full = transform.scratch_buffer((3 * h,), np.float32)
        for i, (dhead, tag) in enumerate(
                zip((d_q, d_k, d_v), ("q", "k", "v"))):
            dflat = transform.merge_heads_naive(dhead, fp16=fp16)
            ew.bias_grad_naive(dflat, fp16=fp16,
                               out=db_full[i * h:(i + 1) * h])
            dxi, _ = gemm.linear_backward(
                x, w[i * h:(i + 1) * h], dflat, fp16=fp16,
                name=f"gemm_{tag}_proj", out_dw=dw_full[i * h:(i + 1) * h])
            if d_x is None:
                d_x = dxi
            else:
                d_x = ew.residual_add_naive(d_x, dxi, fp16=fp16)
        self.w_qkv.accumulate_grad(dw_full)
        self.b_qkv.accumulate_grad(db_full)
        return d_x

    def _backward_cross(self, x, d_q, d_k, d_v, fused, fp16, nhead):
        kv = self.saved("kv")
        d_x = None
        d_kv = None
        for (w, b, inp, dhead, is_query) in (
                (self.w_q, self.b_q, x, d_q, True),
                (self.w_k, self.b_k, kv, d_k, False),
                (self.w_v, self.b_v, kv, d_v, False)):
            dflat = transform.merge_heads_naive(dhead, fp16=fp16)
            if fused:
                # bias grad folded into the merge kernel on the GPU; here
                # the reduction is explicit but recorded with the merge
                db = transform.reduce_sum_axis0(
                    dflat.reshape(-1, dflat.shape[-1]))
            else:
                db = ew.bias_grad_naive(dflat, fp16=fp16)
            b.accumulate_grad(db)
            dinp, dw = gemm.linear_backward(inp, w.compute(), dflat,
                                            fp16=fp16, name="gemm_cross_proj")
            w.accumulate_grad(dw)
            if is_query:
                d_x = dinp
            elif d_kv is None:
                d_kv = dinp
            else:
                d_kv = ew.residual_add_naive(d_kv, dinp, fp16=fp16)
        return d_x, d_kv
