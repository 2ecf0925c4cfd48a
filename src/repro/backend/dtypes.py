"""Precision policy helpers.

LightSeq2 stores parameters and activations in FP16 when mixed precision is
enabled, but performs every arithmetic operation in FP32 ("on-the-fly
conversion"): values are loaded as FP16, widened to FP32 in registers,
computed, and narrowed back to FP16 on store.  On the numpy substrate we
mirror that contract exactly: *storage* dtype is ``np.float16`` or
``np.float32``; *compute* dtype is always ``np.float32``.

These helpers centralise the policy so kernels never hand-roll casts.
"""

from __future__ import annotations

import numpy as np

#: dtype used for all arithmetic, regardless of storage precision.
COMPUTE_DTYPE = np.float32

#: storage dtype in mixed-precision (fp16) mode.
HALF_DTYPE = np.float16

#: storage dtype in full-precision mode.
FULL_DTYPE = np.float32


def storage_dtype(fp16: bool) -> np.dtype:
    """Return the storage dtype for the given precision mode."""
    return np.dtype(HALF_DTYPE if fp16 else FULL_DTYPE)


def to_compute(x: np.ndarray) -> np.ndarray:
    """Widen ``x`` to the compute dtype (no copy if already FP32)."""
    if x.dtype == COMPUTE_DTYPE:
        return x
    return x.astype(COMPUTE_DTYPE)


def to_storage(x: np.ndarray, fp16: bool) -> np.ndarray:
    """Narrow ``x`` to the storage dtype for the given precision mode."""
    dt = storage_dtype(fp16)
    if x.dtype == dt:
        return x
    return x.astype(dt)


def itemsize(fp16: bool) -> int:
    """Bytes per element in storage."""
    return 2 if fp16 else 4


def nbytes(shape, fp16: bool) -> int:
    """Bytes needed to store an array of ``shape`` at the given precision."""
    n = 1
    for s in shape:
        n *= int(s)
    return n * itemsize(fp16)


_HALF_EXPONENT = 0x7C00


def has_overflow(x: np.ndarray) -> bool:
    """Cheap overflow probe (any NaN/Inf) used by dynamic loss scaling.

    A float16 is NaN or Inf exactly when its five exponent bits are all
    ones, so FP16 arrays are probed on their ``uint16`` bits — one integer
    AND and a max, several times faster than ``np.isfinite`` on half
    precision.  Other dtypes keep ``np.isfinite``.
    """
    if x.dtype == HALF_DTYPE:
        if x.size == 0:
            return False
        exponents = np.bitwise_and(x.view(np.uint16), _HALF_EXPONENT)
        return int(exponents.max()) == _HALF_EXPONENT
    return not bool(np.all(np.isfinite(x)))
