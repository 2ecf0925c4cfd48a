"""GEMM kernels — the cuBLAS analog.

The paper leaves GEMM to cuBLAS ("GEMM has already been handled by the cuBLAS
library efficiently") and fuses only non-GEMM kernels, so both the baseline
and the LightSeq2 execution paths share these wrappers.  Each call records a
single launch of family ``gemm``, whatever name the layer gives it; the cost
model prices those with (tensor-core) FLOP throughput instead of a
bandwidth-efficiency curve.

Shapes follow numpy ``matmul`` semantics, including batched GEMM with leading
broadcast dimensions (the attention score/context products).

Every kernel takes optional ``out=`` buffers (``out_dx``/``out_dw`` for the
two-output backward) so the activation arena can serve results from its
pre-reserved slab — cuBLAS's ``C`` operand, in paper terms.
"""

from __future__ import annotations

import numpy as np

from . import capturable, out_buffer, record


def _gemm_flops(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> int:
    """2*M*N*K flops for (possibly batched) a @ b."""
    k = a.shape[-1]
    return int(2 * out.size * k)


def _mm_shape(a: np.ndarray, b: np.ndarray) -> tuple:
    """Broadcasted output shape of ``a @ b``."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return lead + (a.shape[-2], b.shape[-1])


@capturable({"out": 0})
def matmul(a: np.ndarray, b: np.ndarray, *, fp16: bool = False,
           name: str = "gemm", out=None) -> np.ndarray:
    """``a @ b`` as one cuBLAS GEMM launch."""
    out = out_buffer(out, _mm_shape(a, b), np.result_type(a, b))
    np.matmul(a, b, out=out)
    record(name, a.size + b.size, out.size,
           flops=_gemm_flops(a, b, out), fp16=fp16, family="gemm")
    return out


@capturable({"out": 0})
def linear_forward(x: np.ndarray, w: np.ndarray, *, fp16: bool = False,
                   name: str = "gemm_linear", out=None) -> np.ndarray:
    """Linear transform ``x @ w.T`` (fairseq weight layout: (out, in)).

    Bias addition is *not* included: in the naive path it is a separate
    element-wise kernel; in the fused path it is folded into the next
    custom kernel (e.g. ``bias_dropout_residual``).  Keeping GEMM bias-free
    makes the two paths share identical GEMM traces, as in the paper.
    """
    out = out_buffer(out, x.shape[:-1] + (w.shape[0],), np.result_type(x, w))
    np.matmul(x, w.T, out=out)
    record(name, x.size + w.size, out.size,
           flops=_gemm_flops(x, w.T, out), fp16=fp16, family="gemm")
    return out


@capturable({"out_dx": 0, "out_dw": 1})
def linear_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, *,
                    fp16: bool = False, name: str = "gemm_linear",
                    out_dx=None, out_dw=None) -> tuple:
    """Backward of ``y = x @ w.T``: returns (dx, dw).

    Two GEMM launches, matching cuBLAS usage in every training framework:
    ``dx = dy @ w`` and ``dw = dy^T @ x`` (flattened over batch dims).
    """
    dx = out_buffer(out_dx, dy.shape[:-1] + (w.shape[1],),
                    np.result_type(dy, w))
    np.matmul(dy, w, out=dx)
    record(name + "_dx", dy.size + w.size, dx.size,
           flops=_gemm_flops(dy, w, dx), fp16=fp16, family="gemm")

    dy2 = dy.reshape(-1, dy.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    dw = out_buffer(out_dw, (dy2.shape[1], x2.shape[1]),
                    np.result_type(dy, x))
    np.matmul(dy2.T, x2, out=dw)
    record(name + "_dw", dy2.size + x2.size, dw.size,
           flops=_gemm_flops(dy2.T, x2, dw), fp16=fp16, family="gemm")
    return dx, dw


@capturable({"out": 0})
def batched_matmul(a: np.ndarray, b: np.ndarray, *, fp16: bool = False,
                   name: str = "gemm_batched", out=None) -> np.ndarray:
    """Batched GEMM (attention QK^T and probs@V). One strided-batch launch."""
    out = out_buffer(out, _mm_shape(a, b), np.result_type(a, b))
    np.matmul(a, b, out=out)
    record(name, a.size + b.size, out.size,
           flops=_gemm_flops(a, b, out), fp16=fp16, family="gemm")
    return out
