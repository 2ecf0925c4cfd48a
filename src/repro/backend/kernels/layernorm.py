"""LayerNorm kernels — naive two-pass vs LightSeq2 fused one-pass.

Forward: ``y_i = w_i * (x_i - mu) / sigma + b_i`` with statistics over the
last (feature) dimension of size ``m``.

* The **naive** forward mimics "a native implementation [that] introduces two
  sequential thread synchronizations": one reduction kernel for ``mu``, a
  second (dependent) one for ``sigma``, then the normalize kernel — 3
  launches.
* The **fused** forward uses the TurboTransformers single-pass identity
  ``sigma = sqrt(mu(x^2) - mu(x)^2)`` so both statistics come from one pass —
  1 launch.

Backward: with ``g_i = w_i * dy_i`` the standard gradient is::

    dx_i = (1/sigma) * (g_i - mean(g) - xhat_i * mean(g * xhat))

* The **naive** backward runs its reductions sequentially across separate
  kernels (parameter-grad reduction, two input-grad reductions, element-wise
  apply) — 3 launches.
* The **fused** backward uses the paper's rearrangement in which the two
  batch reductions ``s1 = sum_j w_j dy_j`` and ``s2 = sum_j w_j dy_j x_j``
  are independent (run "in parallel" on the GPU)::

      dx_i = w_i dy_i / sigma + alpha_i * s1 + beta_i * s2
      alpha_i = ((x_i - mu) mu - sigma^2) / (m sigma^3)
      beta_i  = (mu - x_i) / (m sigma^3)

  (The paper prints ``- sigma`` in alpha's numerator; the algebra requires
  ``- sigma^2`` — see DESIGN.md errata.  Tests verify the fused form equals
  the naive form and finite differences.)  1 launch for dx + the fused
  dgamma/dbeta reduction.

Per the paper, LayerNorm keeps FP16 *storage* but computes in FP32; the
module-wide COMPUTE_DTYPE policy already guarantees that.

All kernels accept ``out*=`` buffers (arena slab views); each output's final
producing operation writes directly into its buffer, so the arena path adds
no extra copies over the fresh-allocation path.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import capturable, out_buffer, record


def _check(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    if w.shape != (x.shape[-1],) or b.shape != (x.shape[-1],):
        raise ValueError(
            f"LayerNorm param shape {w.shape}/{b.shape} does not match "
            f"feature dim {x.shape[-1]}")


def _stat_shape(x: np.ndarray) -> tuple:
    return x.shape[:-1] + (1,)


@capturable({"out": 0, "out_mu": 1, "out_rstd": 2})
def layernorm_forward_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray, *,
                            eps: float = 1e-5, fp16: bool = False,
                            out=None, out_mu=None, out_rstd=None
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-pass LayerNorm forward: 3 kernel launches. Returns (y, mu, rstd)."""
    _check(x, w, b)
    mu = out_buffer(out_mu, _stat_shape(x), x.dtype)
    rstd = out_buffer(out_rstd, _stat_shape(x), x.dtype)
    y = out_buffer(out, x.shape, np.result_type(x, w))
    # launch 1: mean reduction
    x.mean(axis=-1, keepdims=True, out=mu)
    record("layernorm_mean", x.size, mu.size, flops=x.size, fp16=fp16,
           family="layernorm")
    # launch 2: variance reduction (depends on mu -> sequential sync)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    record("layernorm_var", x.size + mu.size, var.size, flops=3 * x.size,
           fp16=fp16, family="layernorm")
    # launch 3: normalize + affine
    np.divide(1.0, np.sqrt(var + eps), out=rstd)
    xhat = (x - mu) * rstd
    np.multiply(xhat, w, out=y)
    np.add(y, b, out=y)
    record("layernorm_affine", x.size + mu.size + var.size + 2 * w.size,
           y.size, flops=4 * x.size, fp16=fp16, family="layernorm")
    return y, mu, rstd


@capturable({"out": 0, "out_mu": 1, "out_rstd": 2})
def layernorm_forward_fused(x: np.ndarray, w: np.ndarray, b: np.ndarray, *,
                            eps: float = 1e-5, fp16: bool = False,
                            out=None, out_mu=None, out_rstd=None
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-pass fused forward using ``var = E[x^2] - E[x]^2``: 1 launch."""
    _check(x, w, b)
    mu = out_buffer(out_mu, _stat_shape(x), x.dtype)
    rstd = out_buffer(out_rstd, _stat_shape(x), x.dtype)
    y = out_buffer(out, x.shape, np.result_type(x, w))
    x.mean(axis=-1, keepdims=True, out=mu)
    # independent second moment -> both reductions run in the same pass
    mu2 = (x * x).mean(axis=-1, keepdims=True)
    var = np.maximum(mu2 - mu * mu, 0.0)
    np.divide(1.0, np.sqrt(var + eps), out=rstd)
    xhat = (x - mu) * rstd
    np.multiply(xhat, w, out=y)
    np.add(y, b, out=y)
    record("ls_layernorm_fwd", x.size + 2 * w.size, y.size,
           flops=7 * x.size, fp16=fp16, family="layernorm")
    return y, mu, rstd


@capturable({"out_dx": 0, "out_dw": 1, "out_db": 2})
def layernorm_backward_naive(dy: np.ndarray, x: np.ndarray, w: np.ndarray,
                             mu: np.ndarray, rstd: np.ndarray, *,
                             fp16: bool = False, out_dx=None, out_dw=None,
                             out_db=None
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential-reduction backward: 3 launches. Returns (dx, dw, db)."""
    m = x.shape[-1]
    dt = np.result_type(dy, x)
    xhat = (x - mu) * rstd
    g = dy * w
    # launch 1: parameter gradients (reductions over all rows)
    dw = out_buffer(out_dw, (m,), dt)
    db = out_buffer(out_db, (m,), dt)
    (dy * xhat).reshape(-1, m).sum(axis=0, out=dw)
    dy.reshape(-1, m).sum(axis=0, out=db)
    record("layernorm_param_grad", dy.size + x.size, dw.size + db.size,
           flops=4 * dy.size, fp16=fp16, family="layernorm")
    # launch 2: row reductions for dx (sequential: mean(g) then mean(g*xhat))
    mg = g.mean(axis=-1, keepdims=True)
    mgx = (g * xhat).mean(axis=-1, keepdims=True)
    record("layernorm_dx_reduce", 2 * g.size, mg.size + mgx.size,
           flops=4 * g.size, fp16=fp16, family="layernorm")
    # launch 3: element-wise apply
    dx = out_buffer(out_dx, x.shape, dt)
    np.multiply(rstd, g - mg - xhat * mgx, out=dx)
    record("layernorm_dx_apply", g.size + mg.size + mgx.size, dx.size,
           flops=5 * dx.size, fp16=fp16, family="layernorm")
    return dx, dw, db


@capturable({"out_dx": 0, "out_dw": 1, "out_db": 2})
def layernorm_backward_fused(dy: np.ndarray, x: np.ndarray, w: np.ndarray,
                             mu: np.ndarray, rstd: np.ndarray, *,
                             fp16: bool = False, out_dx=None, out_dw=None,
                             out_db=None
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paper's parallel-reduction backward: 1 fused launch.

    Implements exactly the rearranged formula (with the sigma^2 erratum
    fixed).  ``s1`` and ``s2`` are independent reductions; on the GPU they
    run concurrently, here we simply note they share one kernel.
    """
    m = x.shape[-1]
    dt = np.result_type(dy, x)
    sigma = 1.0 / rstd                           # sigma = sqrt(var + eps)
    g = dy * w                                   # w_i * dy_i
    s1 = g.sum(axis=-1, keepdims=True)           # sum_j w_j dy_j
    s2 = (g * x).sum(axis=-1, keepdims=True)     # sum_j w_j dy_j x_j
    sigma3 = sigma ** 3
    alpha = ((x - mu) * mu - sigma ** 2) / (m * sigma3)
    beta = (mu - x) / (m * sigma3)
    dx = out_buffer(out_dx, x.shape, dt)
    np.add(g / sigma + alpha * s1, beta * s2, out=dx)
    # fused dgamma/dbeta in the same launch
    xhat = (x - mu) * rstd
    dw = out_buffer(out_dw, (m,), dt)
    db = out_buffer(out_db, (m,), dt)
    (dy * xhat).reshape(-1, m).sum(axis=0, out=dw)
    dy.reshape(-1, m).sum(axis=0, out=db)
    record("ls_layernorm_bwd", dy.size + x.size + w.size,
           dx.size + dw.size + db.size, flops=14 * dy.size, fp16=fp16,
           family="layernorm")
    return dx, dw, db
