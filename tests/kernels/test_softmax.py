"""Softmax kernels: stability, fused==naive, gradients, attention variant."""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.backend.kernels import softmax as smx

from ..conftest import assert_grad_close, numerical_grad


def _fused_probs(scores, scale, mask):
    """The attention epilogue with dropout off: scaled, masked softmax."""
    return smx.attn_softmax_dropout_forward_fused(scores, scale, mask, 0.0,
                                                  None)[1]


def test_forward_fused_matches_naive(rng):
    x = rng.standard_normal((3, 4, 10)).astype(np.float32)
    np.testing.assert_allclose(smx.softmax_forward_naive(x),
                               smx.softmax_forward_fused(x), atol=1e-6)


def test_rows_sum_to_one(rng):
    x = (rng.standard_normal((5, 17)) * 10).astype(np.float32)
    y = smx.softmax_forward_fused(x)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-5)
    assert np.all(y >= 0)


def test_overflow_safety():
    """The 3-step max-subtraction recipe must survive huge logits."""
    x = np.array([[1e4, 1e4 - 1, 0.0]], dtype=np.float32)
    for fn in (smx.softmax_forward_naive, smx.softmax_forward_fused):
        y = fn(x)
        assert np.all(np.isfinite(y))
        assert y[0, 0] > y[0, 1] > y[0, 2]


def test_shift_invariance(rng):
    x = rng.standard_normal((2, 9)).astype(np.float32)
    np.testing.assert_allclose(smx.softmax_forward_fused(x),
                               smx.softmax_forward_fused(x + 100.0),
                               atol=1e-5)


def test_backward_fused_matches_naive(rng):
    x = rng.standard_normal((3, 8)).astype(np.float32)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    y = smx.softmax_forward_fused(x)
    np.testing.assert_allclose(smx.softmax_backward_naive(dy, y),
                               smx.softmax_backward_fused(dy, y), atol=1e-6)


def test_backward_finite_differences(rng):
    x = rng.standard_normal((2, 6)).astype(np.float32)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    y = smx.softmax_forward_fused(x)
    dx = smx.softmax_backward_fused(dy, y)

    def loss(xv):
        return float((smx.softmax_forward_fused(xv) * dy).sum())

    assert_grad_close(dx, numerical_grad(loss, x))


def test_attention_softmax_fused_matches_naive(rng):
    scores = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    mask = np.where(rng.random((1, 1, 5, 5)) > 0.7, -1e9, 0.0
                    ).astype(np.float32)
    a = smx.attn_softmax_forward_naive(scores, 0.25, mask)
    b = _fused_probs(scores, 0.25, mask)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_attention_softmax_respects_mask(rng):
    scores = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
    mask = np.zeros((1, 1, 3, 3), dtype=np.float32)
    mask[..., 2] = -1e9
    y = _fused_probs(scores, 1.0, mask)
    np.testing.assert_allclose(y[..., 2], 0.0, atol=1e-12)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-5)


def test_attention_backward_includes_scale(rng):
    """d(scores) must carry the 1/sqrt(d) factor: check vs finite diff."""
    scores = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
    dy = rng.standard_normal(scores.shape).astype(np.float32)
    scale = 0.5
    y = _fused_probs(scores, scale, None)
    d_naive = smx.attn_softmax_backward_naive(dy, y, scale)
    d_fused = smx.attn_softmax_dropout_backward_fused(dy, y, None, scale, 0.0)
    np.testing.assert_allclose(d_naive, d_fused, atol=1e-6)

    def loss(sv):
        return float((_fused_probs(sv, scale, None) * dy).sum())

    assert_grad_close(d_fused, numerical_grad(loss, scores))


def test_log_softmax_fused_matches_naive(rng):
    x = rng.standard_normal((4, 12)).astype(np.float32)
    lq1, q1 = smx.log_softmax_forward_naive(x)
    lq2, q2 = smx.log_softmax_forward_fused(x)
    np.testing.assert_allclose(lq1, lq2, atol=1e-5)
    np.testing.assert_allclose(q1, q2, atol=1e-6)
    np.testing.assert_allclose(np.exp(lq2), q2, atol=1e-6)


def test_launch_counts(rng):
    x = rng.standard_normal((3, 7)).astype(np.float32)
    dev = Device()
    with use_device(dev):
        smx.softmax_forward_naive(x)
    assert dev.launch_count() == 1     # PyTorch softmax is one kernel
    dev.reset()
    with use_device(dev):
        smx.softmax_forward_fused(x)
    assert dev.launch_count() == 1
    # ...but the naive kernel moves ~2x the traffic of the fused one
    naive_bytes = Device()
    with use_device(naive_bytes):
        smx.softmax_forward_naive(x)
    fused_bytes = Device()
    with use_device(fused_bytes):
        smx.softmax_forward_fused(x)
    assert naive_bytes.total_bytes() > 1.5 * fused_bytes.total_bytes()
    dev.reset()
    with use_device(dev):
        smx.attn_softmax_forward_naive(x[None, None], 0.5,
                                       np.zeros_like(x)[None, None])
    assert dev.launch_count() == 3     # scale + mask + softmax kernels
    dev.reset()
    with use_device(dev):
        _fused_probs(x[None, None], 0.5, np.zeros_like(x)[None, None])
    assert dev.launch_count() == 1


class TestFusedSoftmaxDropout:
    """The single-launch scale+mask+softmax+dropout attention epilogue."""

    def test_matches_unfused_chain(self, rng):
        from repro.backend.kernels import elementwise as ew
        scores = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        mask = np.where(rng.random((1, 1, 6, 6)) > 0.8, -1e9, 0.0
                        ).astype(np.float32)
        dmask = ew.make_dropout_mask(scores.shape, 0.2, rng)
        dropped, probs, _ = smx.attn_softmax_dropout_forward_fused(
            scores, 0.5, mask, 0.2, rng, dmask=dmask)
        ref_probs = smx.attn_softmax_forward_naive(scores, 0.5, mask)
        ref_dropped, _ = ew.dropout_forward_naive(ref_probs, 0.2, rng,
                                                  mask=dmask)
        np.testing.assert_allclose(probs, ref_probs, atol=1e-6)
        np.testing.assert_allclose(dropped, ref_dropped, atol=1e-6)

    def test_backward_matches_chain(self, rng):
        from repro.backend.kernels import elementwise as ew
        scores = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        dmask = ew.make_dropout_mask(scores.shape, 0.3, rng)
        _, probs, _ = smx.attn_softmax_dropout_forward_fused(
            scores, 0.25, None, 0.3, rng, dmask=dmask)
        dy = rng.standard_normal(scores.shape).astype(np.float32)
        d_fused = smx.attn_softmax_dropout_backward_fused(
            dy, probs, dmask, 0.25, 0.3)
        d_probs = ew.dropout_backward_naive(dy, dmask, 0.3)
        d_ref = smx.attn_softmax_backward_naive(d_probs, probs, 0.25)
        np.testing.assert_allclose(d_fused, d_ref, atol=1e-6)

    def test_p_zero_equals_plain_softmax(self, rng):
        scores = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        dropped, probs, dmask = smx.attn_softmax_dropout_forward_fused(
            scores, 1.0, None, 0.0, rng)
        np.testing.assert_array_equal(dropped, probs)
        # p == 0 materialises no mask; backward passes dy straight through
        assert dmask is None
        dy = rng.standard_normal(scores.shape).astype(np.float32)
        d_off = smx.attn_softmax_dropout_backward_fused(
            dy, probs, None, 1.0, 0.0)
        d_ref = smx.attn_softmax_backward_naive(dy, probs, 1.0)
        np.testing.assert_array_equal(d_off, d_ref)

    def test_single_launch_each_way(self, rng):
        from repro.backend.device import Device, use_device
        scores = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        dev = Device()
        with use_device(dev):
            dropped, probs, dmask = smx.attn_softmax_dropout_forward_fused(
                scores, 1.0, None, 0.1, rng)
        assert dev.launch_count() == 1
        dev.reset()
        with use_device(dev):
            smx.attn_softmax_dropout_backward_fused(
                np.ones_like(dropped), probs, dmask, 1.0, 0.1)
        assert dev.launch_count() == 1
