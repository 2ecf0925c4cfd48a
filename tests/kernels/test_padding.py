"""Padding waste accounting for the ablation bench."""

import numpy as np
import pytest

from repro.backend.kernels.padding import padding_stats


def test_padding_stats():
    s = padding_stats(np.array([6, 2, 4]), 6)
    assert s["valid_tokens"] == 12
    assert s["padded_tokens"] == 6
    assert s["waste_fraction"] == pytest.approx(1 / 3)
