"""FP16 numerics helpers and loss scalers."""

import numpy as np
import pytest

from repro.precision import (DynamicLossScaler, StaticLossScaler,
                             quantize_fp16)
from repro.precision.half import FP16_MAX, FP16_SMALLEST_SUBNORMAL


class TestHalf:
    def test_quantize_roundtrip_dtype(self):
        x = np.array([1.0, 2.5], dtype=np.float32)
        q = quantize_fp16(x)
        assert q.dtype == np.float32
        np.testing.assert_array_equal(q, x)   # exactly representable

    def test_quantization_error_bounded(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        err = np.max(np.abs(quantize_fp16(x) - x))
        assert 0 < err < 1e-2

    def test_fits_fp16(self):
        assert np.isfinite(quantize_fp16(np.float32(FP16_MAX)))
        with np.errstate(over="ignore"):
            assert np.isinf(quantize_fp16(np.float32(FP16_MAX * 2)))

    def test_underflow_fraction(self):
        """Below half the smallest subnormal, a value flushes to zero."""
        x = np.array([1.0, FP16_SMALLEST_SUBNORMAL / 10,
                      FP16_SMALLEST_SUBNORMAL], dtype=np.float32)
        np.testing.assert_array_equal(quantize_fp16(x) == 0,
                                      [False, True, False])


class TestStaticScaler:
    def test_fixed_scale(self):
        s = StaticLossScaler(128.0)
        assert s.scale == 128.0
        s.update(overflow=True)
        assert s.scale == 128.0

    def test_overflow_detection(self):
        s = StaticLossScaler()
        assert not s.check_overflow([np.ones(3, np.float32)])
        assert s.check_overflow([np.ones(3), np.array([np.nan])])
        assert s.overflows == 1

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            StaticLossScaler(0.0)


class TestDynamicScaler:
    def test_backoff_on_overflow(self):
        s = DynamicLossScaler(init_scale=1024, scale_factor=2)
        s.update(overflow=True)
        assert s.scale == 512
        s.update(overflow=True)
        assert s.scale == 256

    def test_growth_after_window(self):
        s = DynamicLossScaler(init_scale=64, scale_factor=2, scale_window=3)
        for _ in range(3):
            s.update(overflow=False)
        assert s.scale == 128
        # window counter resets
        s.update(overflow=False)
        assert s.scale == 128

    def test_overflow_resets_window(self):
        s = DynamicLossScaler(init_scale=64, scale_factor=2, scale_window=2)
        s.update(overflow=False)
        s.update(overflow=True)
        s.update(overflow=False)
        assert s.scale == 32       # halved once, not yet regrown

    def test_bounds(self):
        s = DynamicLossScaler(init_scale=2, scale_factor=2, min_scale=1,
                              max_scale=4, scale_window=1)
        s.update(True)
        s.update(True)
        assert s.scale == 1        # clamped at min
        for _ in range(5):
            s.update(False)
        assert s.scale == 4        # clamped at max

    def test_validations(self):
        with pytest.raises(ValueError):
            DynamicLossScaler(init_scale=0)
        with pytest.raises(ValueError):
            DynamicLossScaler(scale_factor=1.0)
