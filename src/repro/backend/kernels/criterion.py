"""Criterion kernels (§3.1.3): label-smoothed cross-entropy.

With decoder output ``y`` (logits, length ``V``), one-hot ground truth ``z``,
smoothing ``alpha``::

    p = (1 - alpha) * z + alpha / V
    q = Softmax(y)
    L = -sum_i p_i log q_i
      = -(1 - alpha) * log q_gt - (alpha / V) * sum_i log q_i

and the gradient w.r.t. logits is *element-wise* in ``q``::

    dy_i = q_i - alpha/V - (1 - alpha) * [i == gt]

(The paper prints ``-q_i ...``; the sign is flipped — see DESIGN.md errata.
The finite-difference test pins the correct form.)

Padding positions (``ignore_index``) contribute neither loss nor gradient,
matching fairseq's label_smoothed_cross_entropy with ``reduction='sum'``.

* naive path: log-softmax (4 launches) + NLL gather + smooth-term reduce
  forward; one-hot subtract + mask kernels backward — framework style.
* fused path: one launch forward (the paper's "modify the last [softmax]
  step with additional logarithmic operations"), one element-wise launch
  backward ("bias adding ... executed in parallel").

The backward's (N, V) logit gradient is the single largest activation in a
training step, so both backward kernels take an ``out=`` buffer and build
the gradient in place (subtract, fancy-index subtract, mask+scale) — the
arena serves it from the slab.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import capturable, out_buffer, record
from .softmax import log_softmax_forward_fused, log_softmax_forward_naive


def _flatten(logits: np.ndarray, targets: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    v = logits.shape[-1]
    return logits.reshape(-1, v), targets.reshape(-1)


@capturable({"out_q": 2}, loss_source=True)
def criterion_forward_naive(logits: np.ndarray, targets: np.ndarray,
                            alpha: float, *, ignore_index: int = -100,
                            fp16: bool = False, out_q=None
                            ) -> Tuple[float, int, np.ndarray]:
    """Baseline label-smoothed CE. Returns (loss_sum, n_valid_tokens, q).

    ``q`` (softmax probabilities) is cached for backward, as PyTorch does.
    """
    x, t = _flatten(logits, targets)
    n, v = x.shape
    if out_q is not None:
        out_q = out_q.reshape(x.shape)
    logq, q = log_softmax_forward_naive(x, fp16=fp16, out_q=out_q)
    valid = t != ignore_index
    safe_t = np.where(valid, t, 0)
    # launch: NLL gather
    nll = -logq[np.arange(n), safe_t]
    record("nll_gather", logq.size, nll.size, flops=n, fp16=fp16,
           family="criterion")
    # launch: smoothing term reduce
    smooth = -logq.sum(axis=-1)
    record("smooth_reduce", logq.size, smooth.size, flops=logq.size,
           fp16=fp16, family="reduction")
    # launch: combine + mask + total reduce
    per_tok = (1.0 - alpha) * nll + (alpha / v) * smooth
    loss = float(np.where(valid, per_tok, 0.0).sum())
    record("loss_combine", 2 * n, 1, flops=4 * n, fp16=fp16,
           family="criterion")
    return loss, int(valid.sum()), q.reshape(logits.shape)


@capturable({"out": 0})
def criterion_backward_naive(q: np.ndarray, targets: np.ndarray,
                             alpha: float, *, ignore_index: int = -100,
                             grad_scale: float = 1.0,
                             fp16: bool = False, out=None) -> np.ndarray:
    """Baseline backward: 3 launches (smooth subtract, one-hot, mask)."""
    qf, t = _flatten(q, targets)
    n, v = qf.shape
    dout = out_buffer(out, q.shape, qf.dtype)
    d = dout.reshape(n, v)
    # launch: q - alpha/V
    np.subtract(qf, np.float32(alpha / v), out=d)
    record("ce_smooth_sub", qf.size, d.size, flops=qf.size, fp16=fp16,
           family="criterion")
    # launch: subtract (1 - alpha) at ground-truth index
    valid = t != ignore_index
    safe_t = np.where(valid, t, 0)
    d[np.arange(n), safe_t] -= np.float32(1.0 - alpha)
    record("ce_onehot_sub", d.size + n, d.size, flops=n, fp16=fp16,
           family="criterion")
    # launch: zero padding rows + scale
    np.multiply(np.where(valid[:, None], d, 0.0), np.float32(grad_scale),
                out=d)
    record("ce_mask_scale", d.size + n, d.size, flops=2 * d.size, fp16=fp16,
           family="criterion")
    return dout


@capturable({"out_q": 2}, loss_source=True)
def criterion_forward_fused(logits: np.ndarray, targets: np.ndarray,
                            alpha: float, *, ignore_index: int = -100,
                            fp16: bool = False, out_q=None, out_logq=None
                            ) -> Tuple[float, int, np.ndarray]:
    """LightSeq2 fused forward: one launch on top of the shared softmax
    reductions. Returns (loss_sum, n_valid_tokens, q).

    ``out_logq`` is scratch for the nested log-softmax's ``log q`` (not
    returned); a replayed step has no ambient arena, so a caller that wants
    it allocation-free passes the buffer in.
    """
    x, t = _flatten(logits, targets)
    n, v = x.shape
    if out_q is not None:
        out_q = out_q.reshape(x.shape)
    if out_logq is not None:
        out_logq = out_logq.reshape(x.shape)
    logq, q = log_softmax_forward_fused(x, fp16=fp16, out_logq=out_logq,
                                        out_q=out_q)
    valid = t != ignore_index
    safe_t = np.where(valid, t, 0)
    nll = -logq[np.arange(n), safe_t]
    smooth = -logq.sum(axis=-1)
    per_tok = (1.0 - alpha) * nll + (alpha / v) * smooth
    loss = float(np.where(valid, per_tok, 0.0).sum())
    record("ls_criterion_fwd", logq.size + n, 1, flops=3 * logq.size,
           fp16=fp16, family="criterion")
    return loss, int(valid.sum()), q.reshape(logits.shape)


@capturable({"out": 0})
def criterion_backward_fused(q: np.ndarray, targets: np.ndarray,
                             alpha: float, *, ignore_index: int = -100,
                             grad_scale: float = 1.0,
                             fp16: bool = False, out=None) -> np.ndarray:
    """Fused element-wise backward: dy = q - alpha/V - (1-alpha)*onehot,
    padding masked, loss-scale folded in — one launch."""
    qf, t = _flatten(q, targets)
    n, v = qf.shape
    valid = t != ignore_index
    safe_t = np.where(valid, t, 0)
    dout = out_buffer(out, q.shape, qf.dtype)
    d = dout.reshape(n, v)
    np.subtract(qf, np.float32(alpha / v), out=d)
    d[np.arange(n), safe_t] -= np.float32(1.0 - alpha)
    d[~valid] = 0.0
    np.multiply(d, np.float32(grad_scale), out=d)
    record("ls_criterion_bwd", qf.size + n, d.size, flops=3 * qf.size,
           fp16=fp16, family="criterion")
    return dout
