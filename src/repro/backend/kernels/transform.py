"""Reshape/transpose kernels for multi-head attention.

On the GPU these layout changes are real copy kernels (PyTorch launches a
``transpose``/``contiguous`` pair per head split).  LightSeq2 folds the bias
add of the QKV projection into the head-split transpose, and packs Q, K, V
into one tensor so the projection is a single GEMM.

Shapes: hidden ``(B, L, H)`` <-> heads ``(B, N, L, D)`` with ``H = N * D``.

All kernels accept ``out*=`` buffers; the copy that a transpose kernel *is*
lands directly in the buffer (strided read, contiguous write — the same
access pattern as the CUDA kernels).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import capturable, out_buffer, record


@capturable({"out": 0})
def split_heads_naive(x: np.ndarray, nhead: int, *,
                      fp16: bool = False, out=None) -> np.ndarray:
    """(B, L, H) -> (B, N, L, D): one transpose-copy launch."""
    b, l, h = x.shape
    if h % nhead:
        raise ValueError(f"hidden {h} not divisible by nhead {nhead}")
    d = h // nhead
    y = out_buffer(out, (b, nhead, l, d), x.dtype)
    y[...] = x.reshape(b, l, nhead, d).transpose(0, 2, 1, 3)
    record("transpose_split_heads", x.size, y.size, fp16=fp16,
           family="transpose")
    return y


@capturable({"out": 0})
def merge_heads_naive(x: np.ndarray, *, fp16: bool = False,
                      out=None) -> np.ndarray:
    """(B, N, L, D) -> (B, L, H): one transpose-copy launch."""
    b, n, l, d = x.shape
    y = out_buffer(out, (b, l, n * d), x.dtype)
    y.reshape(b, l, n, d)[...] = x.transpose(0, 2, 1, 3)
    record("transpose_merge_heads", x.size, y.size, fp16=fp16,
           family="transpose")
    return y


@capturable({"out": 0})
def bias_split_heads_fused(x: np.ndarray, bias: np.ndarray, nhead: int, *,
                           fp16: bool = False, out=None) -> np.ndarray:
    """Fused ``(x + bias)`` + head split in one launch (LS QKV epilogue)."""
    b, l, h = x.shape
    d = h // nhead
    y = out_buffer(out, (b, nhead, l, d), np.result_type(x, bias))
    y[...] = (x + bias).reshape(b, l, nhead, d).transpose(0, 2, 1, 3)
    record("ls_bias_split_heads", x.size + bias.size, y.size,
           flops=x.size, fp16=fp16, family="transpose")
    return y


@capturable({"out_q": 0, "out_k": 1, "out_v": 2})
def qkv_bias_split_heads_fused(qkv: np.ndarray, bias: np.ndarray,
                               nhead: int, *, fp16: bool = False,
                               out_q=None, out_k=None, out_v=None
                               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused epilogue of the packed QKV GEMM: add bias, split into Q/K/V,
    split heads — one launch producing three head-major tensors.

    ``qkv``: (B, L, 3H); ``bias``: (3H,).
    """
    b, l, h3 = qkv.shape
    if h3 % 3:
        raise ValueError(f"packed QKV last dim {h3} not divisible by 3")
    h = h3 // 3
    if h % nhead:
        raise ValueError(f"hidden {h} not divisible by nhead {nhead}")
    d = h // nhead
    y = (qkv + bias).reshape(b, l, 3, nhead, d).transpose(2, 0, 3, 1, 4)
    shape = (b, nhead, l, d)
    q = out_buffer(out_q, shape, y.dtype)
    k = out_buffer(out_k, shape, y.dtype)
    v = out_buffer(out_v, shape, y.dtype)
    np.copyto(q, y[0])
    np.copyto(k, y[1])
    np.copyto(v, y[2])
    record("ls_qkv_bias_split_heads", qkv.size + bias.size, qkv.size,
           flops=qkv.size, fp16=fp16, family="transpose")
    return q, k, v


@capturable({"out": 0, "out_dbias": 1})
def qkv_merge_heads_fused(dq: np.ndarray, dk: np.ndarray, dv: np.ndarray, *,
                          fp16: bool = False, out=None, out_dbias=None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`qkv_bias_split_heads_fused`: repack head-major
    dQ/dK/dV into a (B, L, 3H) gradient plus the fused bias gradient —
    one launch."""
    b, n, l, d = dq.shape
    h = n * d
    dqkv = out_buffer(out, (b, l, 3 * h), dq.dtype)
    dqkv[:, :, :h] = dq.transpose(0, 2, 1, 3).reshape(b, l, h)
    dqkv[:, :, h:2 * h] = dk.transpose(0, 2, 1, 3).reshape(b, l, h)
    dqkv[:, :, 2 * h:] = dv.transpose(0, 2, 1, 3).reshape(b, l, h)
    dbias = out_buffer(out_dbias, (3 * h,), dqkv.dtype)
    dqkv.reshape(-1, 3 * h).sum(axis=0, out=dbias)
    record("ls_qkv_merge_heads_bwd", dq.size + dk.size + dv.size,
           dqkv.size + dbias.size, flops=dqkv.size, fp16=fp16,
           family="transpose")
    return dqkv, dbias


# ---------------------------------------------------------------------------
# host-side glue ops — capturable so models stay replayable
# ---------------------------------------------------------------------------
#
# These are not modelled GPU launches (no ``record``): they stand in for the
# bits of host glue (zero-fill scatter, gradient reductions, scratch
# staging) that models would otherwise do with raw numpy expressions.  Routing
# them through the kernel funnel makes every model's backward a pure kernel
# sequence, which is what step capture & replay requires.


@capturable({"out": 0})
def cls_grad_scatter(d_cls: np.ndarray, seq_shape: Tuple[int, ...], *,
                     out=None) -> np.ndarray:
    """Scatter a (B, H) classifier gradient into position 0 of a zeroed
    (B, L, H) sequence gradient."""
    d_x = out_buffer(out, seq_shape, np.float32)
    d_x.fill(0.0)
    d_x[:, 0, :] = d_cls
    return d_x


@capturable({"out": 0})
def reduce_sum_axis0(a: np.ndarray, *, out=None) -> np.ndarray:
    """Sum over the leading axis (parameter-gradient reductions)."""
    buf = out_buffer(out, a.shape[1:], a.dtype)
    np.sum(a, axis=0, out=buf)
    return buf


@capturable({"out": 0})
def scratch_buffer(shape: Tuple[int, ...], dtype=np.float32, *,
                   out=None) -> np.ndarray:
    """Allocate (or re-serve) a scratch output buffer through the funnel.

    Callers overwrite every element before reading, so replay can hand the
    captured buffer back without initialisation.
    """
    return out_buffer(out, shape, dtype)
