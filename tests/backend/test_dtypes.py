"""Precision policy helpers."""

import numpy as np

from repro.backend import dtypes as dt


def test_storage_dtype():
    assert dt.storage_dtype(True) == np.float16
    assert dt.storage_dtype(False) == np.float32


def test_to_compute_no_copy_for_fp32():
    x = np.zeros(4, dtype=np.float32)
    assert dt.to_compute(x) is x


def test_to_compute_widens_fp16():
    x = np.zeros(4, dtype=np.float16)
    y = dt.to_compute(x)
    assert y.dtype == np.float32


def test_to_storage_roundtrip():
    x = np.array([1.0, 2.5], dtype=np.float32)
    h = dt.to_storage(x, fp16=True)
    assert h.dtype == np.float16
    assert dt.to_storage(h, fp16=True) is h


def test_itemsize_and_nbytes():
    assert dt.itemsize(True) == 2
    assert dt.itemsize(False) == 4
    assert dt.nbytes((2, 3, 4), True) == 48
    assert dt.nbytes((), False) == 4



def test_has_overflow():
    assert not dt.has_overflow(np.ones(3))
    assert dt.has_overflow(np.array([np.inf, 1.0]))


def test_has_overflow_fp16_bit_probe_is_isfinite_exhaustively():
    """The FP16 exponent-bit probe agrees with ``np.isfinite`` on every one
    of the 65 536 half-precision bit patterns, alone and in an array."""
    halves = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    probed = [dt.has_overflow(h) for h in halves[:, None]]
    assert probed == list(~np.isfinite(halves))
    finite = halves[np.isfinite(halves)]
    assert not dt.has_overflow(finite)
    assert dt.has_overflow(halves)
    assert not dt.has_overflow(np.empty(0, np.float16))
    # strided (non-contiguous) views are probed in place
    mixed = np.stack([finite[:4], halves[-4:]], axis=1)
    assert not dt.has_overflow(mixed[:, 0]) and dt.has_overflow(mixed[:, 1])
