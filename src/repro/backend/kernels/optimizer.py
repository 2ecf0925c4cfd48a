"""Optimizer (trainer) kernels — §3.2.

Three trainer kernel families, ordered by increasing fusion:

1. **naive** (Fairseq/PyTorch style): per parameter tensor, three launches —
   convert the FP16 gradient to an FP32 copy, run Adam on the FP32 master
   weight, copy the FP32 master back to the FP16 weight.  "Numerous pieces
   of gradients/weights lead to multiple fast-returning GPU kernels."
2. **apex-like**: a multi-tensor Adam that updates a *chunk* of tensors per
   launch, but still maintains FP32 master copies of weights and reads FP32
   gradients (converted in a separate launch per chunk).
3. **lightseq fused**: ONE launch for the whole model.  Parameters and
   gradients live in contiguous FP16 workspaces; the kernel loads FP16,
   widens to FP32 *in registers* (here: a fixed scratch tile), updates,
   and narrows back to FP16 on store.  No FP32 copies exist — Adam's
   ``m``/``v`` state stays FP32, as on the GPU.

All three run the op sequence of :func:`adam_math_into` (the fused kernel
one scratch tile at a time) so their parameter trajectories are identical
up to FP16 rounding of storage — the paper's "without hurting accuracy"
claim, enforced by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import record


@dataclass(frozen=True)
class AdamHParams:
    """Adam hyper-parameters (fairseq defaults for Transformer-big)."""

    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.0


def adam_math(p32: np.ndarray, g32: np.ndarray, m: np.ndarray,
              v: np.ndarray, step: int, hp: AdamHParams) -> np.ndarray:
    """Bias-corrected Adam step in FP32. Mutates m, v; returns updated p32.

    Weight decay is L2-style (added to the gradient), matching fairseq's
    ``adam`` optimizer.
    """
    out = p32.copy()
    adam_math_into(out, g32, m, v, step, hp, np.empty_like(out),
                   np.empty_like(out))
    return out


def adam_math_into(p32: np.ndarray, g32: np.ndarray, m: np.ndarray,
                   v: np.ndarray, step: int, hp: AdamHParams,
                   t1: np.ndarray, t2: np.ndarray) -> None:
    """The Adam op sequence of :func:`adam_math`, in place: mutates
    ``m``/``v``, writes the updated parameter into ``p32`` and uses
    ``t1``/``t2`` (same shape, FP32) as its only temporaries."""
    if step < 1:
        raise ValueError(f"Adam step must be >= 1, got {step}")
    g = g32
    if hp.weight_decay != 0.0:
        g = np.add(g32, np.multiply(p32, hp.weight_decay, out=t1), out=t1)
    m *= hp.beta1
    m += np.multiply(g, 1.0 - hp.beta1, out=t2)
    v *= hp.beta2
    v += np.multiply(np.multiply(g, g, out=t2), 1.0 - hp.beta2, out=t2)
    bc1 = 1.0 - hp.beta1 ** step
    bc2 = 1.0 - hp.beta2 ** step
    denom = np.add(np.sqrt(np.divide(v, bc2, out=t2), out=t2), hp.eps,
                   out=t2)
    upd = np.multiply(np.divide(m, bc1, out=t1), hp.lr, out=t1)
    np.subtract(p32, np.divide(upd, denom, out=t1), out=p32)


def sgd_math(p32: np.ndarray, g32: np.ndarray, mom: np.ndarray,
             lr: float, momentum: float = 0.0,
             weight_decay: float = 0.0) -> np.ndarray:
    """Plain/momentum SGD step in FP32. Mutates mom; returns updated p32."""
    g = g32 if weight_decay == 0.0 else g32 + weight_decay * p32
    if momentum > 0.0:
        mom *= momentum
        mom += g
        g = mom
    return p32 - lr * g


# ---------------------------------------------------------------------------
# 1. naive per-tensor trainer kernels
# ---------------------------------------------------------------------------


def adam_update_fp32_naive(param: np.ndarray, grad: np.ndarray,
                           m: np.ndarray, v: np.ndarray, step: int,
                           hp: AdamHParams,
                           grad_scale: float = 1.0) -> None:
    """Full-precision per-tensor Adam: ONE launch per tensor (no copies).

    The FP32 baseline path — still a launch storm across hundreds of
    tensors, but without the mixed-precision copy kernels.
    """
    g32 = grad * np.float32(grad_scale) if grad_scale != 1.0 else grad
    param[...] = adam_math(param, g32, m, v, step, hp)
    record("adam_update_fp32", 3 * param.size + g32.size, 3 * param.size,
           flops=12 * param.size, fp16=False, family="optimizer")


def adam_update_naive(param_fp16: np.ndarray, grad_fp16: np.ndarray,
                      master_fp32: np.ndarray, m: np.ndarray, v: np.ndarray,
                      step: int, hp: AdamHParams,
                      grad_scale: float = 1.0) -> None:
    """Three launches for ONE parameter tensor (grad copy, update, copyback).

    ``grad_scale`` (1/loss-scale × gradient normalisation) is folded into
    the conversion kernel, as mixed-precision trainers do.  Mutates
    ``master_fp32``, ``m``, ``v`` and ``param_fp16`` in place.
    """
    # launch 1: FP16 grad -> FP32 grad copy (+ unscale)
    g32 = grad_fp16.astype(np.float32) * np.float32(grad_scale)
    record("grad_fp16_to_fp32_copy", grad_fp16.size, g32.size,
           fp16=False, family="memcpy")  # writes FP32
    # launch 2: FP32 Adam on the master weight
    master_fp32[...] = adam_math(master_fp32, g32, m, v, step, hp)
    record("adam_update_fp32",
           3 * master_fp32.size + g32.size, 3 * master_fp32.size,
           flops=12 * master_fp32.size, fp16=False, family="optimizer")
    # launch 3: FP32 master -> FP16 weight copy
    param_fp16[...] = master_fp32.astype(param_fp16.dtype)
    record("weight_fp32_to_fp16_copy", master_fp32.size, param_fp16.size,
           fp16=True, family="memcpy")


def sgd_update_naive(param_fp16: np.ndarray, grad_fp16: np.ndarray,
                     master_fp32: np.ndarray, mom: np.ndarray,
                     lr: float, momentum: float = 0.0,
                     weight_decay: float = 0.0) -> None:
    """Naive SGD trainer: same 3-launch structure as Adam."""
    g32 = grad_fp16.astype(np.float32)
    record("grad_fp16_to_fp32_copy", grad_fp16.size, g32.size, fp16=False,
           family="memcpy")
    master_fp32[...] = sgd_math(master_fp32, g32, mom, lr, momentum,
                                weight_decay)
    record("sgd_update_fp32", 2 * master_fp32.size + g32.size,
           2 * master_fp32.size, flops=4 * master_fp32.size, fp16=False,
           family="optimizer")
    param_fp16[...] = master_fp32.astype(param_fp16.dtype)
    record("weight_fp32_to_fp16_copy", master_fp32.size, param_fp16.size,
           fp16=True, family="memcpy")


# ---------------------------------------------------------------------------
# 2. apex-like multi-tensor trainer kernel
# ---------------------------------------------------------------------------

#: tensors per multi_tensor_apply chunk (apex's default is 320-ish entries;
#: the exact value only shifts constants, not shapes).
APEX_CHUNK_TENSORS = 320


def adam_update_apex(params_fp16: Sequence[np.ndarray],
                     grads_fp16: Sequence[np.ndarray],
                     masters_fp32: Sequence[np.ndarray],
                     ms: Sequence[np.ndarray], vs: Sequence[np.ndarray],
                     step: int, hp: AdamHParams,
                     grad_scale: float = 1.0) -> None:
    """Apex ``multi_tensor_adam`` analog: one fused launch per chunk of
    tensors, FP32 masters retained.

    Per chunk, the launch reads FP16 grads + FP32 masters + m + v, writes
    masters/m/v and the FP16 weights.
    """
    n = len(params_fp16)
    if not (n == len(grads_fp16) == len(masters_fp32) == len(ms) == len(vs)):
        raise ValueError("apex update: tensor list lengths differ")
    for lo in range(0, n, APEX_CHUNK_TENSORS):
        hi = min(lo + APEX_CHUNK_TENSORS, n)
        chunk_elems = 0
        for i in range(lo, hi):
            g32 = grads_fp16[i].astype(np.float32) * np.float32(grad_scale)
            masters_fp32[i][...] = adam_math(
                masters_fp32[i], g32, ms[i], vs[i], step, hp)
            params_fp16[i][...] = masters_fp32[i].astype(params_fp16[i].dtype)
            chunk_elems += params_fp16[i].size
        # one multi-tensor launch: fp16 grad in, fp32 master/m/v in+out,
        # fp16 weight out.  Count FP32 traffic (dominant).
        record("apex_multi_tensor_adam", 4 * chunk_elems, 4 * chunk_elems,
               flops=12 * chunk_elems, fp16=False, family="optimizer")


# ---------------------------------------------------------------------------
# 3. LightSeq2 fused workspace trainer kernel
# ---------------------------------------------------------------------------


#: elements per pass of the fused Adam kernel through its FP32 scratch tile
#: (four 128 KiB buffers: the "registers" of Fig. 7 right).
ADAM_TILE = 32768


def adam_update_ls_fused(ws_param: np.ndarray, ws_grad: np.ndarray,
                         m: np.ndarray, v: np.ndarray, step: int,
                         hp: AdamHParams, *, fp16: bool = True,
                         grad_scale: float = 1.0) -> None:
    """ONE launch updating the entire model workspace.

    ``ws_param``/``ws_grad`` are the contiguous (FP16 when ``fp16``) 1-D
    workspaces; ``m``/``v`` are FP32 state of the same length.  The kernel
    walks the workspace in :data:`ADAM_TILE`-element slices: each slice's
    loads are widened into a fixed FP32 scratch tile, updated in FP32 and
    narrowed back on store — no FP32 master copy is ever materialised, and
    the scratch stays the same size whatever the model (the on-the-fly
    register conversion of §3.2, Fig. 7 right).  Adam is elementwise, so
    the result is bitwise that of :func:`adam_math` on the whole widened
    arrays.
    """
    if ws_param.shape != ws_grad.shape or ws_param.ndim != 1:
        raise ValueError("workspace arrays must be equal-length 1-D")
    scratch = np.empty((4, min(ADAM_TILE, ws_param.size)), np.float32)
    scale = np.float32(grad_scale)
    for lo in range(0, ws_param.size, ADAM_TILE):
        hi = min(lo + ADAM_TILE, ws_param.size)
        p32, g32, t1, t2 = scratch[:, :hi - lo]
        np.copyto(p32, ws_param[lo:hi])          # widen (registers)
        np.copyto(g32, ws_grad[lo:hi])
        g32 *= scale
        adam_math_into(p32, g32, m[lo:hi], v[lo:hi], step, hp, t1, t2)
        np.copyto(ws_param[lo:hi], p32)          # narrow on store
    # traffic: fp16 param+grad read, fp16 param written (2B/elem) plus fp32
    # m/v read+write (4B/elem).  Record as two element streams at their own
    # widths via a weighted count at the fp16 width.
    half_elems = 3 * ws_param.size
    fp32_equiv = (4 * m.size * 4) // (2 if fp16 else 4)
    record("ls_fused_adam", half_elems + fp32_equiv // 2,
           half_elems - ws_param.size + fp32_equiv // 2,
           flops=12 * ws_param.size, fp16=fp16, family="optimizer")


def sgd_update_ls_fused(ws_param: np.ndarray, ws_grad: np.ndarray,
                        mom: np.ndarray, lr: float, momentum: float = 0.0,
                        weight_decay: float = 0.0, *,
                        fp16: bool = True) -> None:
    """One-launch fused SGD over the whole workspace."""
    if ws_param.shape != ws_grad.shape or ws_param.ndim != 1:
        raise ValueError("workspace arrays must be equal-length 1-D")
    p32 = ws_param.astype(np.float32)
    g32 = ws_grad.astype(np.float32)
    p32 = sgd_math(p32, g32, mom, lr, momentum, weight_decay)
    ws_param[...] = p32.astype(ws_param.dtype)
    record("ls_fused_sgd", 2 * ws_param.size + mom.size,
           ws_param.size + mom.size, flops=4 * ws_param.size, fp16=fp16,
           family="optimizer")
