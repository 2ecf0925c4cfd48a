"""Softmax kernels — 3-step numerically-stable forward, fused variants.

The paper's Softmax (§3.1.1) uses the standard overflow-safe recipe:

1. reduce: ``x' = max_j x_j``
2. reduce: ``Z = sum_j exp(x_j - x')``
3. element-wise: ``y_i = exp(x_i - x') / Z``

* The **naive** path is PyTorch-faithful: softmax itself is ONE generic
  kernel, but it makes separate max/sum passes over global memory (~3x
  element traffic) and, in attention, the *scale* and *mask add* ops are
  separate kernels in front of it.
* The **fused** path does everything (and, for attention, the 1/sqrt(d)
  scaling and additive mask) in one shape-specialised launch with a
  CUB-style block reduce holding intermediates in registers (~2x traffic).

The criterion layer reuses step 3 "with additional logarithmic operations":
:func:`log_softmax_forward_fused` emits ``log q`` directly.

Backward: ``dx_i = y_i * (dy_i - sum_j dy_j y_j)`` — one reduction plus one
element-wise apply (naive: 2 launches; fused: 1, with "four warps per block
to run synchronizations in parallel" per the paper).

All kernels accept ``out*=`` buffers (arena slab views); the final producing
operation writes straight into the buffer, so the arena path costs no extra
copies.  ``attn_softmax_dropout_backward_fused`` additionally tolerates
``out`` aliasing ``dy`` — the in-place gradient trick from the paper's
attention backward (Fig. 8) — because the row reduction is consumed before
the buffer is overwritten.  When attention dropout is disabled (``p == 0``)
no dropout mask is materialised at all: ``dmask`` is returned/accepted as
``None`` and the (bitwise identity) multiply-by-one pass is skipped.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import capturable, out_buffer, record


@capturable({"out": 0})
def softmax_forward_naive(x: np.ndarray, *, axis: int = -1,
                          fp16: bool = False, out=None) -> np.ndarray:
    """Framework softmax: ONE generic kernel, multi-pass traffic.

    The three numerical steps (max reduce, exp+sum reduce, normalize) make
    separate passes over global memory — ~2 extra element reads compared
    with the register-resident fused kernel.
    """
    xmax = x.max(axis=axis, keepdims=True)
    e = np.exp(x - xmax)
    y = out_buffer(out, x.shape, e.dtype)
    np.divide(e, e.sum(axis=axis, keepdims=True), out=y)
    record("softmax_fwd", 2 * x.size, 2 * y.size, flops=5 * x.size,
           fp16=fp16, family="softmax")
    return y


@capturable({"out": 0})
def softmax_forward_fused(x: np.ndarray, *, axis: int = -1,
                          fp16: bool = False, out=None) -> np.ndarray:
    """All three steps in one launch (CUB block reduce analog)."""
    xmax = x.max(axis=axis, keepdims=True)
    e = np.exp(x - xmax)
    y = out_buffer(out, x.shape, e.dtype)
    np.divide(e, e.sum(axis=axis, keepdims=True), out=y)
    record("ls_softmax_fwd", x.size, y.size, flops=5 * x.size, fp16=fp16,
           family="softmax")
    return y


@capturable({"out": 0})
def softmax_backward_naive(dy: np.ndarray, y: np.ndarray, *, axis: int = -1,
                           fp16: bool = False, out=None) -> np.ndarray:
    """Framework softmax backward: one kernel, dot-reduce pass + apply
    pass over global memory."""
    dot = (dy * y).sum(axis=axis, keepdims=True)
    dx = out_buffer(out, dy.shape, np.result_type(dy, y))
    np.multiply(y, dy - dot, out=dx)
    record("softmax_bwd", 2 * (dy.size + y.size), dx.size,
           flops=4 * dx.size, fp16=fp16, family="softmax")
    return dx


@capturable({"out": 0})
def softmax_backward_fused(dy: np.ndarray, y: np.ndarray, *, axis: int = -1,
                           fp16: bool = False, out=None) -> np.ndarray:
    """Single launch, parallel warp reductions."""
    dot = (dy * y).sum(axis=axis, keepdims=True)
    dx = out_buffer(out, dy.shape, np.result_type(dy, y))
    np.multiply(y, dy - dot, out=dx)
    record("ls_softmax_bwd", dy.size + y.size, dx.size, flops=4 * dx.size,
           fp16=fp16, family="softmax")
    return dx


# ---------------------------------------------------------------------------
# attention-score softmax:  softmax(scale * scores + mask)
# ---------------------------------------------------------------------------


@capturable({"out": 0})
def attn_softmax_forward_naive(scores: np.ndarray, scale: float,
                               mask: Optional[np.ndarray], *,
                               fp16: bool = False, out=None) -> np.ndarray:
    """Baseline attention softmax: scale kernel, mask-add kernel, 3-step
    softmax — up to 5 launches total."""
    s = scores * np.float32(scale)
    record("attn_scale", scores.size, s.size, flops=scores.size, fp16=fp16,
           family="elementwise")
    if mask is not None:
        s = s + mask
        record("attn_mask_add", s.size + mask.size, s.size, flops=s.size,
               fp16=fp16, family="elementwise")
    return softmax_forward_naive(s, fp16=fp16, out=out)


@capturable({"out": 0})
def attn_softmax_backward_naive(dy: np.ndarray, y: np.ndarray, scale: float,
                                *, fp16: bool = False, out=None) -> np.ndarray:
    """Baseline: softmax backward (2 launches) + un-scale kernel."""
    ds = softmax_backward_naive(dy, y, fp16=fp16)
    dscores = out_buffer(out, ds.shape, ds.dtype)
    np.multiply(ds, np.float32(scale), out=dscores)
    record("attn_unscale", ds.size, dscores.size, flops=ds.size, fp16=fp16,
           family="elementwise")
    return dscores


# ---------------------------------------------------------------------------
# log-softmax (criterion step-3 modification)
# ---------------------------------------------------------------------------


@capturable({"out_logq": 0, "out_q": 1})
def log_softmax_forward_fused(x: np.ndarray, *, axis: int = -1,
                              fp16: bool = False, out_logq=None, out_q=None
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Fused stable log-softmax: returns (log_q, q).

    "We can slightly modify the last step with additional logarithmic
    operations" — same two reductions, the final element-wise step emits
    ``x - x' - log Z`` (and ``q`` for the backward) in one launch.
    """
    # both outputs double as the pass's scratch, so no logits-sized
    # temporary is allocated: logq holds x - x' and q holds exp(x - x')
    # until log Z is known, then both are finished in place.  The dtype is
    # the one exp(x - x') computes in (x's own, for floating x).
    xmax = x.max(axis=axis, keepdims=True)
    logq = out_buffer(out_logq, x.shape, np.result_type(x, np.float16))
    np.subtract(x, xmax, out=logq)
    q = out_buffer(out_q, x.shape, logq.dtype)
    np.exp(logq, out=q)
    lz = np.log(q.sum(axis=axis, keepdims=True))
    np.subtract(logq, lz, out=logq)
    np.exp(logq, out=q)
    record("ls_log_softmax_fwd", x.size, logq.size + q.size,
           flops=6 * x.size, fp16=fp16, family="softmax")
    return logq, q


@capturable({"out_logq": 0, "out_q": 1})
def log_softmax_forward_naive(x: np.ndarray, *, axis: int = -1,
                              fp16: bool = False, out_logq=None, out_q=None
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Baseline log-softmax: softmax (3 launches) then log kernel."""
    q = softmax_forward_naive(x, axis=axis, fp16=fp16, out=out_q)
    logq = out_buffer(out_logq, q.shape, q.dtype)
    np.log(np.maximum(q, np.finfo(np.float32).tiny), out=logq)
    record("log_kernel", q.size, logq.size, flops=q.size, fp16=fp16,
           family="criterion")
    return logq, q


# ---------------------------------------------------------------------------
# fused attention softmax + dropout (LightSeq2 attention epilogue)
# ---------------------------------------------------------------------------


@capturable({"out": 0, "out_probs": 1})
def attn_softmax_dropout_forward_fused(scores: np.ndarray, scale: float,
                                       mask: Optional[np.ndarray],
                                       p: float, rng, *,
                                       fp16: bool = False,
                                       dmask: Optional[np.ndarray] = None,
                                       out=None, out_probs=None
                                       ) -> Tuple[np.ndarray, np.ndarray,
                                                  Optional[np.ndarray]]:
    """Scale + mask + stable softmax + attention dropout in ONE launch.

    The LightSeq2 attention kernel keeps the softmax probabilities in
    registers and applies dropout before writing back, saving a full
    round-trip of the (B, N, L, L) tensor.  Returns
    ``(dropped_probs, probs, dropout_mask)`` — probs are saved for the
    backward, as the CUDA kernel stores them.  With ``p == 0`` no mask is
    drawn or stored (``dropout_mask`` is None) and ``dropped_probs`` *is*
    ``probs`` unless a distinct ``out`` buffer forces a copy.
    """
    from .elementwise import make_dropout_mask
    s = scores * np.float32(scale)
    if mask is not None:
        s = s + mask
    smax = s.max(axis=-1, keepdims=True)
    e = np.exp(s - smax)
    probs = out_buffer(out_probs, scores.shape, e.dtype)
    np.divide(e, e.sum(axis=-1, keepdims=True), out=probs)
    if dmask is None and p > 0:
        dmask = make_dropout_mask(probs.shape, p, rng)
    if dmask is None:
        # p == 0: dropout is the identity — skip the mask multiply entirely
        dropped = probs if out is None else out_buffer(out, probs.shape,
                                                       probs.dtype)
        if dropped is not probs:
            np.copyto(dropped, probs)
    else:
        keep = 1.0 / (1.0 - p) if p > 0 else 1.0
        dropped = out_buffer(out, probs.shape, probs.dtype)
        np.multiply(probs, dmask * np.float32(keep), out=dropped)
    nread = scores.size + (mask.size if mask is not None else 0)
    mask_traffic = dmask.size // 4 + 1 if dmask is not None else 0
    record("ls_attn_softmax_dropout_fwd", nread + mask_traffic,
           dropped.size + probs.size, flops=9 * scores.size, fp16=fp16,
           family="softmax")
    return dropped, probs, dmask


@capturable({"out": 0})
def attn_softmax_dropout_backward_fused(dy: np.ndarray, probs: np.ndarray,
                                        dmask: Optional[np.ndarray],
                                        scale: float, p: float, *,
                                        fp16: bool = False,
                                        out=None) -> np.ndarray:
    """Fused backward of dropout∘softmax∘scale: one launch.

    ``d_probs = dy * m/(1-p)``, then the softmax backward with the scale
    folded in — all without materialising the intermediate gradient.
    ``out`` may alias ``dy`` (the in-place Fig.-8 plan): the row reduction
    over ``dy`` completes before ``out`` is written.  ``dmask=None`` means
    dropout was disabled — the identity un-dropout pass is skipped.
    """
    if dmask is None:
        d_probs = dy
    else:
        keep = 1.0 / (1.0 - p) if p > 0 else 1.0
        d_probs = dy * (dmask * np.float32(keep))
    dot = (d_probs * probs).sum(axis=-1, keepdims=True)
    tmp = probs * (d_probs - dot)
    d_scores = out_buffer(out, dy.shape, tmp.dtype)
    np.multiply(tmp, np.float32(scale), out=d_scores)
    mask_traffic = dmask.size // 4 + 1 if dmask is not None else 0
    record("ls_attn_softmax_dropout_bwd",
           dy.size + probs.size + mask_traffic, d_scores.size,
           flops=7 * dy.size, fp16=fp16, family="softmax")
    return d_scores
