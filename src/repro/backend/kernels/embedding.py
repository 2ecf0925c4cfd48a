"""Embedding kernels (§3.1.2).

Forward for token ``w`` at position ``p``::

    y = Dropout(s * E_w + P_p)

with token table ``E``, *sinusoidal* positional table ``P`` (not trained) and
embedding scale ``s`` (``sqrt(d_model)`` in fairseq).

Backward accumulates, for each vocabulary row ``w``::

    dE_w = s * sum_{i : W_i = w} m_i ⊙ dy_i

i.e. a scatter-add over every occurrence of the token.  The CUDA kernel uses
``atomicAdd`` so different positions of the same token never race; the numpy
analog is ``np.add.at`` (unbuffered ufunc.at), which has identical
accumulate-in-place semantics.

* naive path: gather, scale, positional add, dropout — 4 launches forward;
  dropout-bwd, un-scale, scatter-add — 3 launches backward.
* fused path: 1 launch each way.

Dropout masks follow the module-wide convention: ``p == 0`` means no mask is
materialised (``mask`` is/returns ``None``) and the identity multiply is
skipped.  All kernels accept ``out=`` buffers from the activation arena.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import capturable, out_buffer, record
from .elementwise import _mask_traffic, make_dropout_mask


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Standard "Attention is All You Need" sinusoidal table, shape (L, D).

    Matches fairseq's implementation: sin on the first half of the channels,
    cos on the second half, log-spaced frequencies.
    """
    if dim % 2 != 0:
        raise ValueError(f"sinusoidal dim must be even, got {dim}")
    half = dim // 2
    freq = np.exp(np.arange(half, dtype=np.float64)
                  * -(np.log(10000.0) / max(half - 1, 1)))
    pos = np.arange(max_len, dtype=np.float64)[:, None] * freq[None, :]
    out = np.empty((max_len, dim), dtype=np.float32)
    out[:, :half] = np.sin(pos)
    out[:, half:] = np.cos(pos)
    return out


def _validate(tokens: np.ndarray, table: np.ndarray,
              pos_table: np.ndarray) -> None:
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be (batch, seq), got {tokens.shape}")
    if tokens.shape[1] > pos_table.shape[0]:
        raise ValueError(
            f"sequence length {tokens.shape[1]} exceeds positional table "
            f"{pos_table.shape[0]}")
    if np.any(tokens < 0) or np.any(tokens >= table.shape[0]):
        raise ValueError("token id out of vocabulary range")


@capturable({"out": 0})
def embedding_forward_naive(tokens: np.ndarray, table: np.ndarray,
                            pos_table: np.ndarray, scale: float, p: float,
                            rng: np.random.Generator, *, fp16: bool = False,
                            pad_idx: Optional[int] = None,
                            mask: Optional[np.ndarray] = None, out=None
                            ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Baseline 4-launch embedding forward. Returns (y, dropout_mask)."""
    _validate(tokens, table, pos_table)
    b, l = tokens.shape
    h = table.shape[1]
    # launch 1: gather
    emb = table[tokens]
    record("embed_gather", emb.size + tokens.size, emb.size, fp16=fp16,
           family="embedding")
    # launch 2: scale
    emb = emb * np.float32(scale)
    record("embed_scale", emb.size, emb.size, flops=emb.size, fp16=fp16,
           family="embedding")
    # launch 3: positional add
    emb = emb + pos_table[:l][None, :, :]
    record("embed_pos_add", emb.size + l * h, emb.size, flops=emb.size,
           fp16=fp16, family="embedding")
    if pad_idx is not None:
        emb = np.where((tokens == pad_idx)[..., None], 0.0, emb)
    # launch 4: dropout
    if mask is None:
        mask = make_dropout_mask(emb.shape, p, rng)
    y = out_buffer(out, (b, l, h), np.float32)
    if mask is None:
        np.copyto(y, emb)
    else:
        keep = 1.0 / (1.0 - p) if p > 0 else 1.0
        np.multiply(emb, mask * np.float32(keep), out=y)
    record("dropout_fwd", emb.size + _mask_traffic(mask), y.size,
           flops=2 * y.size, fp16=fp16, family="dropout")
    return y, mask


@capturable({"out": 0})
def embedding_forward_fused(tokens: np.ndarray, table: np.ndarray,
                            pos_table: np.ndarray, scale: float, p: float,
                            rng: np.random.Generator, *, fp16: bool = False,
                            pad_idx: Optional[int] = None,
                            mask: Optional[np.ndarray] = None, out=None
                            ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Fused 1-launch forward: gather + scale + pos add + dropout."""
    _validate(tokens, table, pos_table)
    b, l = tokens.shape
    h = table.shape[1]
    if mask is None:
        mask = make_dropout_mask((b, l, h), p, rng)
    emb = table[tokens] * np.float32(scale) + pos_table[:l][None, :, :]
    if pad_idx is not None:
        emb = np.where((tokens == pad_idx)[..., None], 0.0, emb)
    y = out_buffer(out, (b, l, h), np.float32)
    if mask is None:
        np.copyto(y, emb)
    else:
        keep = 1.0 / (1.0 - p) if p > 0 else 1.0
        np.multiply(emb, mask * np.float32(keep), out=y)
    record("ls_embedding_fwd",
           b * l * h + tokens.size + l * h + _mask_traffic(mask), y.size,
           flops=4 * y.size, fp16=fp16, family="embedding")
    return y, mask


@capturable({"out": 0})
def embedding_backward_naive(dy: np.ndarray, tokens: np.ndarray,
                             mask: Optional[np.ndarray], scale: float,
                             p: float, vocab_size: int, *,
                             fp16: bool = False,
                             pad_idx: Optional[int] = None,
                             out=None) -> np.ndarray:
    """Baseline 3-launch backward. Returns dE of shape (V, H)."""
    # launch 1: dropout backward
    if mask is None:
        d = dy
    else:
        keep = 1.0 / (1.0 - p) if p > 0 else 1.0
        d = dy * (mask * np.float32(keep))
    record("dropout_bwd", dy.size + _mask_traffic(mask), d.size,
           flops=2 * d.size, fp16=fp16, family="dropout")
    # launch 2: un-scale
    d = d * np.float32(scale)
    record("embed_unscale", d.size, d.size, flops=d.size, fp16=fp16,
           family="embedding")
    if pad_idx is not None:
        d = np.where((tokens == pad_idx)[..., None], 0.0, d)
    # launch 3: scatter-add (index_put_ with accumulate)
    grad = out_buffer(out, (vocab_size, dy.shape[-1]), np.float32)
    grad.fill(0.0)
    np.add.at(grad, tokens.reshape(-1), d.reshape(-1, dy.shape[-1]))
    record("embed_scatter_add", d.size + tokens.size, grad.size,
           flops=d.size, fp16=fp16, family="embedding")
    return grad


@capturable({"out": 0})
def embedding_backward_fused(dy: np.ndarray, tokens: np.ndarray,
                             mask: Optional[np.ndarray], scale: float,
                             p: float, vocab_size: int, *,
                             fp16: bool = False,
                             pad_idx: Optional[int] = None,
                             out=None) -> np.ndarray:
    """Fused 1-launch backward: dropout-bwd, scale and atomicAdd scatter."""
    if mask is None:
        d = dy * np.float32(scale)
    else:
        keep = 1.0 / (1.0 - p) if p > 0 else 1.0
        d = dy * (mask * np.float32(keep)) * np.float32(scale)
    if pad_idx is not None:
        d = np.where((tokens == pad_idx)[..., None], 0.0, d)
    grad = out_buffer(out, (vocab_size, dy.shape[-1]), np.float32)
    grad.fill(0.0)
    np.add.at(grad, tokens.reshape(-1), d.reshape(-1, dy.shape[-1]))
    record("ls_embedding_bwd",
           dy.size + _mask_traffic(mask) + tokens.size, grad.size,
           flops=3 * dy.size, fp16=fp16, family="embedding")
    return grad
