"""FP16 numerics helpers: range constants and rounding diagnostics.

Mixed-precision correctness hinges on a few FP16 facts this module makes
explicit (and tests pin down):

* max normal value 65504 — attention masks must stay additive in FP32 or
  use a representable large-negative constant;
* values below ~6e-8 flush to zero — the reason loss scaling exists;
* FP16 has 10 mantissa bits, so a round-trip through storage quantises to
  ~3 decimal digits — the tolerance used by fused-vs-naive FP16 tests.
"""

from __future__ import annotations

import numpy as np

#: largest finite FP16 value.
FP16_MAX = float(np.finfo(np.float16).max)          # 65504.0
#: smallest positive normal FP16 value.
FP16_TINY = float(np.finfo(np.float16).tiny)        # ~6.1e-5
#: smallest positive subnormal FP16 value.
FP16_SMALLEST_SUBNORMAL = float(
    np.finfo(np.float16).smallest_subnormal)        # ~6.0e-8
#: FP16 relative rounding step (2^-10).
FP16_EPS = float(np.finfo(np.float16).eps)          # ~9.77e-4


def quantize_fp16(x: np.ndarray) -> np.ndarray:
    """Round-trip through FP16 storage (stays FP32 dtype).

    Models exactly what a store-to-workspace + load-to-register pair does
    to a value in the fused trainer.
    """
    return x.astype(np.float16).astype(np.float32)
