"""Mixed-precision machinery: FP16 numerics and loss scaling."""

from .half import (FP16_EPS, FP16_MAX, FP16_SMALLEST_SUBNORMAL, FP16_TINY,
                   quantize_fp16)
from .loss_scaler import DynamicLossScaler, StaticLossScaler

__all__ = [
    "FP16_MAX", "FP16_TINY", "FP16_EPS", "FP16_SMALLEST_SUBNORMAL",
    "quantize_fp16",
    "StaticLossScaler", "DynamicLossScaler",
]
