"""Element-wise kernels: naive singles and LightSeq2 fused chains.

The paper (§3.1.1) classifies non-GEMM kernels into element-wise ones
(Dropout, ReLU, reshape, bias add) whose element independence allows
multi-kernel fusion, and batch-reduction ones (LayerNorm, Softmax) handled in
their own modules.  Here:

* ``*_naive`` functions launch **one kernel per op** — the PyTorch baseline.
* fused functions implement whole chains (e.g. the last kernel of the
  self-attention sublayer: *bias add + dropout + residual* in one launch,
  exactly the example in the paper) with **one record** each.

Dropout follows the standard *inverted* convention: during training
``y = x * m / (1-p)`` with ``m ~ Bernoulli(1-p)``; the mask is stored as
``uint8`` (1 byte/elem traffic, like the CUDA kernels) and reused verbatim in
backward so fused and naive paths are bit-identical given the same mask.
Every keep/drop decision spends one 32-bit word of the generator, as
curand does (:func:`bernoulli_keep`).

With ``p == 0`` dropout is the identity: the kernels neither draw nor
materialise a mask (``mask`` stays ``None``), skip the multiply-by-one pass,
and drop the mask term from the traffic accounting.  Multiplying by exactly
1.0 is a bitwise identity in IEEE arithmetic, so results are unchanged.

All kernels accept ``out*=`` buffers (arena slab views); each output's final
producing operation writes directly into its buffer.
"""

from __future__ import annotations

from math import ceil, prod
from typing import Optional, Tuple

import numpy as np

from . import capturable, out_buffer, record

# ---------------------------------------------------------------------------
# naive single-op kernels (PyTorch-style: one launch each)
# ---------------------------------------------------------------------------


@capturable({"out": 0})
def bias_add_naive(x: np.ndarray, bias: np.ndarray, *,
                   fp16: bool = False, out=None) -> np.ndarray:
    """One kernel: broadcast bias add over the last dimension."""
    y = out_buffer(out, x.shape, np.result_type(x, bias))
    np.add(x, bias, out=y)
    record("bias_add", x.size + bias.size, y.size, flops=y.size, fp16=fp16,
           family="elementwise")
    return y


@capturable({"out": 0})
def bias_grad_naive(dy: np.ndarray, *, fp16: bool = False,
                    out=None) -> np.ndarray:
    """One kernel: reduce dy over all leading dims -> dbias."""
    db = out_buffer(out, (dy.shape[-1],), dy.dtype)
    dy.reshape(-1, dy.shape[-1]).sum(axis=0, out=db)
    record("bias_grad", dy.size, db.size, flops=dy.size, fp16=fp16,
           family="reduction")
    return db


def bernoulli_keep(bitgen: np.random.BitGenerator, shape: Tuple[int, ...],
                   p: float, skip: int = 0) -> np.ndarray:
    """Bernoulli(1-p) keep-mask as uint8, one 32-bit word per element.

    Draws ``ceil(n/2)`` raw 64-bit words from ``bitgen``, reads them as
    ``n`` uint32 values ``u`` (low half first on little-endian hosts) and
    keeps element *i* iff ``u_i >= ceil(p * 2**32)``.  Since ``u`` is an
    integer this is exactly ``u_i * 2**-32 >= p``: an exact Bernoulli(1-p)
    with ``p`` quantised to 2**-32, the granularity of curand's 32-bit
    draws.  When ``p`` is within 2**-32 of 1 the threshold is 2**32, which
    NumPy compares by value, so every element is dropped.  The boolean
    result is returned viewed as uint8 (no copy).  ``skip`` (0 or 1)
    discards the first 32-bit value, so a draw can begin on a word's high
    half.
    """
    n = prod(shape)
    # the long-lived mask is allocated before the raw-word temporary, so
    # freeing the temporary does not leave a hole beneath it in the heap
    keep = np.empty(n, np.bool_)
    u = bitgen.random_raw((skip + n + 1) // 2).view(np.uint32)[skip:skip + n]
    np.greater_equal(u, ceil(p * 4294967296.0), out=keep)
    return keep.view(np.uint8).reshape(shape)


def make_dropout_mask(shape: Tuple[int, ...], p: float,
                      rng: np.random.Generator) -> Optional[np.ndarray]:
    """Bernoulli(1-p) keep-mask as uint8 (curand analog, not a launch).

    Drawn by :func:`bernoulli_keep` from ``rng``'s bit generator, so it
    advances ``rng`` by ``ceil(size/2)`` 64-bit words.  ``p == 0`` returns
    None — dropout is the identity and no mask bytes are materialised or
    moved.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if p == 0.0:
        return None
    return bernoulli_keep(rng.bit_generator, shape, p)


def _mask_traffic(mask: Optional[np.ndarray]) -> int:
    """uint8 mask read cost in dtype elements (0 when dropout is off)."""
    return mask.size // 4 + 1 if mask is not None else 0


@capturable({"out": 0})
def dropout_forward_naive(x: np.ndarray, p: float, rng: np.random.Generator,
                          *, fp16: bool = False,
                          mask: Optional[np.ndarray] = None, out=None
                          ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One kernel: inverted dropout. Returns (y, mask); mask None if p==0."""
    if mask is None:
        mask = make_dropout_mask(x.shape, p, rng)
    if mask is None:
        y = x if out is None else out_buffer(out, x.shape, x.dtype)
        if y is not x:
            np.copyto(y, x)
    else:
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        y = out_buffer(out, x.shape, x.dtype)
        np.multiply(x, mask * np.float32(scale), out=y)
    record("dropout_fwd", x.size + _mask_traffic(mask), y.size,
           flops=2 * y.size, fp16=fp16, family="dropout")
    return y, mask


@capturable({"out": 0})
def dropout_backward_naive(dy: np.ndarray, mask: Optional[np.ndarray],
                           p: float, *, fp16: bool = False,
                           out=None) -> np.ndarray:
    """One kernel: dx = dy * mask / (1-p) (identity pass-through if off)."""
    if mask is None:
        dx = dy if out is None else out_buffer(out, dy.shape, dy.dtype)
        if dx is not dy:
            np.copyto(dx, dy)
    else:
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        dx = out_buffer(out, dy.shape, dy.dtype)
        np.multiply(dy, mask * np.float32(scale), out=dx)
    record("dropout_bwd", dy.size + _mask_traffic(mask), dx.size,
           flops=2 * dx.size, fp16=fp16, family="dropout")
    return dx


@capturable({"out": 0})
def relu_forward_naive(x: np.ndarray, *, fp16: bool = False,
                       out=None) -> np.ndarray:
    y = out_buffer(out, x.shape, x.dtype)
    np.maximum(x, 0.0, out=y)
    record("relu_fwd", x.size, y.size, flops=x.size, fp16=fp16,
           family="elementwise")
    return y


@capturable({"out": 0})
def relu_backward_naive(dy: np.ndarray, x: np.ndarray, *,
                        fp16: bool = False, out=None) -> np.ndarray:
    dx = out_buffer(out, dy.shape, dy.dtype)
    np.multiply(dy, x > 0.0, out=dx)
    record("relu_bwd", dy.size + x.size, dx.size, flops=2 * dx.size, fp16=fp16,
           family="elementwise")
    return dx


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_A = np.float32(0.044715)


def _gelu_inner(x: np.ndarray) -> np.ndarray:
    """The tanh argument ``C * (x + A * x**3)`` of tanh-GeLU, every step
    written in place into one fresh buffer.

    The one GeLU cube in the package, evaluated as ``(x * x) * x``: two
    vector multiplies, where numpy runs a power of 3 as scalar ``powf``
    (~100x slower on float32), at most 1.29 ulp from the exact cube
    against ``powf``'s 1 (``tests/kernels/test_gelu_residual.py`` bounds
    this function's cube and result, and the activation, against float64).
    """
    out = np.empty(x.shape, np.result_type(x, _GELU_C))
    np.multiply(x, x, out=out)
    np.multiply(out, x, out=out)
    np.multiply(_GELU_A, out, out=out)
    np.add(x, out, out=out)
    np.multiply(_GELU_C, out, out=out)
    return out


@capturable({"out": 0})
def gelu_forward_naive(x: np.ndarray, *, fp16: bool = False,
                       out=None) -> np.ndarray:
    """tanh-approximation GeLU (the variant BERT and its CUDA kernels use)."""
    t = _gelu_inner(x)
    np.tanh(t, out=t)
    y = out_buffer(out, x.shape, t.dtype)
    np.multiply(0.5 * x, 1.0 + t, out=y)
    record("gelu_fwd", x.size, y.size, flops=8 * x.size, fp16=fp16,
           family="elementwise")
    return y


@capturable({"out": 0})
def gelu_backward_naive(dy: np.ndarray, x: np.ndarray, *,
                        fp16: bool = False, out=None) -> np.ndarray:
    t = _gelu_inner(x)
    np.tanh(t, out=t)
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)
    dx = out_buffer(out, dy.shape, np.result_type(dy, t))
    np.multiply(dy, 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner,
                out=dx)
    record("gelu_bwd", dy.size + x.size, dx.size, flops=12 * dx.size,
           fp16=fp16, family="elementwise")
    return dx


@capturable({"out": 0})
def tanh_forward_naive(x: np.ndarray, *, fp16: bool = False,
                       out=None) -> np.ndarray:
    """One kernel: tanh (BERT pooler activation)."""
    y = out_buffer(out, x.shape, x.dtype)
    np.tanh(x, out=y)
    record("tanh_fwd", x.size, y.size, flops=4 * x.size, fp16=fp16,
           family="elementwise")
    return y


@capturable({"out": 0})
def tanh_backward_naive(dy: np.ndarray, y: np.ndarray, *,
                        fp16: bool = False, out=None) -> np.ndarray:
    """One kernel: dx = dy * (1 - y^2), using the saved output."""
    dx = out_buffer(out, dy.shape, np.result_type(dy, y))
    np.multiply(dy, 1.0 - y * y, out=dx)
    record("tanh_bwd", dy.size + y.size, dx.size, flops=3 * dx.size,
           fp16=fp16, family="elementwise")
    return dx


@capturable({"out": 0})
def bias_tanh_forward_fused(x: np.ndarray, bias: np.ndarray, *,
                            fp16: bool = False, out=None) -> np.ndarray:
    """Fused ``tanh(x + b)`` in one launch (LS pooler epilogue)."""
    y = out_buffer(out, x.shape, np.result_type(x, bias))
    np.tanh(x + bias, out=y)
    record("ls_bias_tanh_fwd", x.size + bias.size, y.size,
           flops=5 * x.size, fp16=fp16, family="elementwise")
    return y


@capturable({"out_dx": 0, "out_dbias": 1})
def bias_tanh_backward_fused(dy: np.ndarray, y: np.ndarray, *,
                             fp16: bool = False, out_dx=None, out_dbias=None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Fused backward of ``tanh(x + b)``: (dx, dbias) in one launch."""
    dx = out_buffer(out_dx, dy.shape, np.result_type(dy, y))
    np.multiply(dy, 1.0 - y * y, out=dx)
    dbias = out_buffer(out_dbias, (dx.shape[-1],), dx.dtype)
    dx.reshape(-1, dx.shape[-1]).sum(axis=0, out=dbias)
    record("ls_bias_tanh_bwd", dy.size + y.size, dx.size + dbias.size,
           flops=4 * dx.size, fp16=fp16, family="elementwise")
    return dx, dbias


@capturable({"out": 0})
def residual_add_naive(x: np.ndarray, residual: np.ndarray, *,
                       fp16: bool = False, out=None) -> np.ndarray:
    y = out_buffer(out, x.shape, np.result_type(x, residual))
    np.add(x, residual, out=y)
    record("residual_add", x.size + residual.size, y.size, flops=y.size,
           fp16=fp16, family="elementwise")
    return y


# ---------------------------------------------------------------------------
# fused chains (LightSeq2-style: one launch per chain)
# ---------------------------------------------------------------------------


@capturable({"out": 0})
def bias_dropout_residual_forward(x: np.ndarray, bias: np.ndarray,
                                  residual: np.ndarray, p: float,
                                  rng: np.random.Generator, *,
                                  fp16: bool = False,
                                  mask: Optional[np.ndarray] = None,
                                  out=None
                                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Fused ``dropout(x + b) + residual`` — the paper's flagship example.

    Replaces three naive launches (bias add, dropout, residual) and two
    intermediate tensors with a single kernel.
    """
    if mask is None:
        mask = make_dropout_mask(x.shape, p, rng)
    y = out_buffer(out, x.shape, np.result_type(x, bias, residual))
    if mask is None:
        np.add(x + bias, residual, out=y)
    else:
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        np.add((x + bias) * (mask * np.float32(scale)), residual, out=y)
    record("ls_bias_dropout_residual_fwd",
           x.size + bias.size + residual.size + _mask_traffic(mask), y.size,
           flops=4 * y.size, fp16=fp16, family="dropout")
    return y, mask


@capturable({"out_dx": 0, "out_dbias": 1})
def bias_dropout_residual_backward(dy: np.ndarray,
                                   mask: Optional[np.ndarray],
                                   p: float, *, fp16: bool = False,
                                   out_dx=None, out_dbias=None
                                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused backward: returns (dx, dbias, dresidual) in one launch.

    ``dresidual`` is ``dy`` itself (no extra traffic on the GPU; here we
    return the same array, mirroring the in-place reuse of Fig. 8).  With
    dropout off, ``dx`` is also ``dy`` unless ``out_dx`` forces a copy.
    """
    if mask is None:
        dx = dy if out_dx is None else out_buffer(out_dx, dy.shape, dy.dtype)
        if dx is not dy:
            np.copyto(dx, dy)
    else:
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        dx = out_buffer(out_dx, dy.shape, dy.dtype)
        np.multiply(dy, mask * np.float32(scale), out=dx)
    dbias = out_buffer(out_dbias, (dx.shape[-1],), dx.dtype)
    dx.reshape(-1, dx.shape[-1]).sum(axis=0, out=dbias)
    record("ls_bias_dropout_residual_bwd",
           dy.size + _mask_traffic(mask), dx.size + dbias.size,
           flops=3 * dx.size, fp16=fp16, family="dropout")
    return dx, dbias, dy


def _gelu_saving_derivative(pre: np.ndarray, out) -> np.ndarray:
    """tanh-GeLU of ``pre`` into the ``out`` buffer; ``pre`` becomes d act/d pre.

    The derivative ``0.5*(1+t) + 0.5*pre*(1-t**2)*dinner`` is evaluated with
    the operations, association and dtypes of :func:`gelu_backward_naive`, so
    ``da * pre`` afterwards is bit-identical to recomputing the chain from
    the pre-activation — while the cube and ``tanh`` run once per element
    per step instead of twice.  Beyond three call-local scratch tensors
    (``t``, ``half``, ``s``) every step writes in place (``out=``) — no more
    live temporaries than the bare forward expression holds.
    """
    t = _gelu_inner(pre)
    np.tanh(t, out=t)
    half = 0.5 * pre
    s = np.add(1.0, t)
    y = out_buffer(out, pre.shape, s.dtype)
    np.multiply(half, s, out=y)              # act = 0.5*pre * (1 + t)
    # dinner = C * (1 + 3A * pre**2), in place over pre when the storage
    # dtype is the compute dtype (always, for the layers' FP32 compute)
    dinner = pre if pre.dtype == t.dtype else np.empty_like(t)
    np.square(pre, out=dinner)
    np.multiply(3.0 * _GELU_A, dinner, out=dinner)
    np.add(1.0, dinner, out=dinner)
    np.multiply(_GELU_C, dinner, out=dinner)
    np.multiply(0.5, s, out=s)               # 0.5 * (1 + t)
    np.square(t, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(half, t, out=t)
    np.multiply(t, dinner, out=t)            # 0.5*pre * (1 - t**2) * dinner
    np.add(s, t, out=pre)
    return y


@capturable({"out": 0, "out_pre": 2})
def bias_act_dropout_forward(x: np.ndarray, bias: np.ndarray, p: float,
                             rng: np.random.Generator, *,
                             activation: str = "relu", fp16: bool = False,
                             mask: Optional[np.ndarray] = None,
                             out=None, out_pre=None
                             ) -> Tuple[np.ndarray, Optional[np.ndarray],
                                        np.ndarray]:
    """Fused FFN inner chain: ``dropout(act(x + b))`` in one launch.

    Returns ``(y, mask, residual)``.  ``residual`` is what
    :func:`bias_act_dropout_backward` needs to turn ``d act`` into ``d x``,
    written to the ``out_pre`` buffer (shape and dtype of ``x + b``): for
    ReLU the pre-activation ``x + b`` itself, as the CUDA kernel saves; for
    GeLU the activation derivative at ``x + b``, which the forward already
    holds every piece of (see :func:`_gelu_saving_derivative`).  ``mask`` is
    None when ``p == 0`` (no all-ones mask is materialised).
    """
    pre = out_buffer(out_pre, x.shape, np.result_type(x, bias))
    np.add(x, bias, out=pre)
    if activation == "relu":
        y = out_buffer(out, x.shape, pre.dtype)
        np.maximum(pre, 0.0, out=y)
    elif activation == "gelu":
        y = _gelu_saving_derivative(pre, out)
    else:
        raise ValueError(f"unknown activation {activation!r}")
    if mask is None:
        mask = make_dropout_mask(x.shape, p, rng)
    if mask is not None:
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        np.multiply(y, mask * np.float32(scale), out=y)
    record("ls_bias_act_dropout_fwd",
           x.size + bias.size + _mask_traffic(mask), y.size + pre.size,
           flops=10 * y.size, fp16=fp16, family="dropout")
    return y, mask, pre


@capturable({"out_dx": 0, "out_dbias": 1})
def bias_act_dropout_backward(dy: np.ndarray, mask: Optional[np.ndarray],
                              residual: np.ndarray, p: float, *,
                              activation: str = "relu", fp16: bool = False,
                              out_dx=None, out_dbias=None
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Fused backward of ``dropout(act(x + b))``: (dx, dbias), one launch.

    ``residual`` is the third return of :func:`bias_act_dropout_forward` for
    the same ``activation``: the pre-activation for ReLU, the saved
    activation derivative for GeLU (one multiply, nothing recomputed).
    """
    if mask is None:
        da = dy
    else:
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        da = dy * (mask * np.float32(scale))
    dx = out_buffer(out_dx, dy.shape, np.result_type(da, residual))
    if activation == "relu":
        np.multiply(da, residual > 0.0, out=dx)
    elif activation == "gelu":
        np.multiply(da, residual, out=dx)
    else:
        raise ValueError(f"unknown activation {activation!r}")
    dbias = out_buffer(out_dbias, (dx.shape[-1],), dx.dtype)
    dx.reshape(-1, dx.shape[-1]).sum(axis=0, out=dbias)
    record("ls_bias_act_dropout_bwd",
           dy.size + _mask_traffic(mask) + residual.size,
           dx.size + dbias.size, flops=14 * dx.size, fp16=fp16,
           family="dropout")
    return dx, dbias
