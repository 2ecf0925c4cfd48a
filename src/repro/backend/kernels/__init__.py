"""Numpy "CUDA kernels": real math + simulated launch records.

Two parallel kernel families live here, mirroring the paper's comparison:

* **naive** kernels — one launch per fine-grained op (separate bias add,
  dropout, residual, two-pass LayerNorm, per-tensor optimizer updates …).
  These model the PyTorch/Fairseq baseline's op-per-kernel execution.
* **fused** kernels — one launch per coarse-grained chain (e.g.
  ``bias + dropout + residual`` in a single kernel, one-pass LayerNorm
  statistics, fused log-softmax criterion, single whole-model Adam).
  These model the LightSeq2 CUDA kernels.

Both families compute *identical* math (tests enforce bit-equality in FP32),
so the only differences a cost model can see are launch counts, bytes moved,
and storage precision — which is exactly the paper's claim.

All kernels record onto :func:`repro.backend.device.current_device`, and
each record site declares its launch's kernel family as a string literal
(``tests/test_family_declarations.py`` enforces that), so the cost model
never guesses a family from a kernel's name.
"""

from __future__ import annotations

import numpy as np

from ..arena import current_arena
from ..device import current_device
from ..dtypes import itemsize
from ..profiler import count_fresh_alloc
from ..program import capturable  # noqa: F401  (the launch-interception hook
#                                  every kernel module decorates through)


def record(name: str, elems_read: int, elems_written: int, *, family: str,
           flops: int = 0, fp16: bool = False) -> None:
    """Record one kernel launch of ``family`` on the active device.

    Thin wrapper so every kernel module shares the precision→bytes policy.
    """
    current_device().record(
        name, elems_read, elems_written, flops=flops,
        dtype_bytes=itemsize(fp16), family=family)


def elems(*arrays: np.ndarray) -> int:
    """Total element count across arrays (for traffic accounting)."""
    return int(sum(a.size for a in arrays))


def out_buffer(out, shape, dtype=np.float32) -> np.ndarray:
    """Resolve a kernel's output buffer — the §3.3 allocation funnel.

    Priority: an explicit ``out=`` from the caller (e.g. a lifetime-planned
    slab view), else a bump allocation from the installed
    :class:`~repro.backend.arena.ActivationArena`, else a fresh numpy
    buffer counted by the profiler.  Kernels overwrite every element of the
    returned buffer, so all three sources are bit-identical.
    """
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    if out is not None:
        if out.shape != shape:
            raise ValueError(
                f"out buffer shape {out.shape} != kernel output {shape}")
        if out.dtype != dtype:
            raise ValueError(
                f"out buffer dtype {out.dtype} != kernel output {dtype}")
        return out
    arena = current_arena()
    if arena is not None:
        return arena.request(shape, dtype)
    n = 1
    for s in shape:
        n *= s
    count_fresh_alloc(n * dtype.itemsize)
    return np.empty(shape, dtype)


from . import (  # noqa: E402  (re-export after helpers they depend on)
    criterion,
    elementwise,
    embedding,
    flash,
    gemm,
    layernorm,
    optimizer,
    padding,
    softmax,
    transform,
)

__all__ = [
    "record", "elems", "out_buffer", "capturable", "gemm", "elementwise",
    "layernorm", "softmax", "embedding", "criterion", "transform",
    "optimizer", "padding", "flash",
]
