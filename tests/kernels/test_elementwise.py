"""Element-wise kernels: fused chains == naive sequences, gradients,
dropout semantics, launch accounting."""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.backend.kernels import elementwise as ew

from ..conftest import assert_grad_close, numerical_grad


def test_dropout_mask_statistics(rng):
    mask = ew.make_dropout_mask((2000,), 0.3, rng)
    assert mask.dtype == np.uint8
    assert abs(mask.mean() - 0.7) < 0.05


def test_dropout_zero_p_identity(rng):
    x = rng.standard_normal((10, 4)).astype(np.float32)
    y, mask = ew.dropout_forward_naive(x, 0.0, rng)
    np.testing.assert_array_equal(y, x)
    # p == 0 materialises no mask at all (and backward passes through)
    assert mask is None
    dx = ew.dropout_backward_naive(y, mask, 0.0)
    np.testing.assert_array_equal(dx, x)


def test_dropout_inverted_scaling(rng):
    """Kept elements are scaled by 1/(1-p): E[y] == E[x]."""
    x = np.ones((100_000,), dtype=np.float32)
    y, mask = ew.dropout_forward_naive(x, 0.5, rng)
    kept = y[mask.astype(bool)]
    np.testing.assert_allclose(kept, 2.0)
    assert abs(y.mean() - 1.0) < 0.02


def test_dropout_invalid_p(rng):
    for p in (1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ew.make_dropout_mask((4,), p, rng)
    assert ew.make_dropout_mask((4,), 0.0, rng) is None


def test_dropout_backward_uses_same_mask(rng):
    x = rng.standard_normal((8, 8)).astype(np.float32)
    y, mask = ew.dropout_forward_naive(x, 0.25, rng)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    dx = ew.dropout_backward_naive(dy, mask, 0.25)
    np.testing.assert_allclose(dx[mask == 0], 0.0)
    np.testing.assert_allclose(dx[mask == 1], dy[mask == 1] / 0.75,
                               rtol=1e-6)


def test_bias_dropout_residual_fused_matches_naive(rng):
    x = rng.standard_normal((4, 6, 8)).astype(np.float32)
    bias = rng.standard_normal(8).astype(np.float32)
    res = rng.standard_normal(x.shape).astype(np.float32)
    mask = ew.make_dropout_mask(x.shape, 0.2, rng)
    y_f, _ = ew.bias_dropout_residual_forward(x, bias, res, 0.2, rng,
                                              mask=mask)
    xb = ew.bias_add_naive(x, bias)
    xd, _ = ew.dropout_forward_naive(xb, 0.2, rng, mask=mask)
    y_n = ew.residual_add_naive(xd, res)
    np.testing.assert_allclose(y_f, y_n, atol=1e-6)


def test_bias_dropout_residual_backward(rng):
    dy = rng.standard_normal((3, 5, 8)).astype(np.float32)
    mask = ew.make_dropout_mask(dy.shape, 0.1, rng)
    dx, dbias, dres = ew.bias_dropout_residual_backward(dy, mask, 0.1)
    # residual grad is dy itself
    np.testing.assert_array_equal(dres, dy)
    # bias grad reduces dx over batch rows
    np.testing.assert_allclose(dbias, dx.reshape(-1, 8).sum(0), rtol=1e-5)
    # dropped positions get zero gradient
    np.testing.assert_allclose(dx[mask == 0], 0.0)


@pytest.mark.parametrize("act", ["relu", "gelu"])
def test_bias_act_dropout_fused_matches_naive(act, rng):
    x = rng.standard_normal((2, 4, 8)).astype(np.float32)
    bias = rng.standard_normal(8).astype(np.float32)
    mask = ew.make_dropout_mask(x.shape, 0.3, rng)
    y_f, _, residual = ew.bias_act_dropout_forward(x, bias, 0.3, rng,
                                                   activation=act, mask=mask)
    pre = ew.bias_add_naive(x, bias)
    a = (ew.relu_forward_naive(pre) if act == "relu"
         else ew.gelu_forward_naive(pre))
    y_n, _ = ew.dropout_forward_naive(a, 0.3, rng, mask=mask)
    # bitwise: both paths share one GeLU chain, so an edit to one copy
    # that is not made to the other fails here
    assert np.array_equal(y_f, y_n)
    # third return: the pre-activation (ReLU) / activation derivative (GeLU)
    saved = (pre if act == "relu"
             else ew.gelu_backward_naive(np.ones_like(pre), pre))
    assert np.array_equal(residual, saved)


@pytest.mark.parametrize("act", ["relu", "gelu"])
def test_bias_act_dropout_backward_finite_differences(act, rng):
    x = rng.standard_normal((2, 3, 6)).astype(np.float32) + 0.1
    bias = rng.standard_normal(6).astype(np.float32)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    mask = np.ones(x.shape, dtype=np.uint8)      # p=0 keeps f differentiable
    _, _, residual = ew.bias_act_dropout_forward(x, bias, 0.0, rng,
                                                 activation=act, mask=mask)
    dx, dbias = ew.bias_act_dropout_backward(dy, mask, residual, 0.0,
                                             activation=act)

    def loss_x(xv):
        y, _, _ = ew.bias_act_dropout_forward(xv, bias, 0.0, rng,
                                              activation=act, mask=mask)
        return float((y * dy).sum())

    assert_grad_close(dx, numerical_grad(loss_x, x))

    def loss_b(bv):
        y, _, _ = ew.bias_act_dropout_forward(x, bv, 0.0, rng,
                                              activation=act, mask=mask)
        return float((y * dy).sum())

    assert_grad_close(dbias, numerical_grad(loss_b, bias))


def test_gelu_matches_reference(rng):
    """tanh-GeLU against the exact erf form (they agree to ~1e-3)."""
    from scipy.special import erf
    x = rng.standard_normal(1000).astype(np.float32)
    y = ew.gelu_forward_naive(x)
    exact = 0.5 * x * (1 + erf(x / np.sqrt(2)))
    np.testing.assert_allclose(y, exact, atol=2e-3)


def test_relu_backward(rng):
    x = rng.standard_normal((5, 5)).astype(np.float32)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    dx = ew.relu_backward_naive(dy, x)
    np.testing.assert_array_equal(dx[x <= 0], 0.0)
    np.testing.assert_array_equal(dx[x > 0], dy[x > 0])


def test_tanh_fused_matches_naive(rng):
    x = rng.standard_normal((4, 8)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    y_f = ew.bias_tanh_forward_fused(x, b)
    y_n = ew.tanh_forward_naive(ew.bias_add_naive(x, b))
    np.testing.assert_allclose(y_f, y_n, atol=1e-6)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    dx_f, db_f = ew.bias_tanh_backward_fused(dy, y_f)
    dx_n = ew.tanh_backward_naive(dy, y_n)
    np.testing.assert_allclose(dx_f, dx_n, atol=1e-6)
    np.testing.assert_allclose(db_f, dx_n.reshape(-1, 8).sum(0), rtol=1e-5)


def test_fused_chain_launch_counts(rng):
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    bias = np.zeros(4, dtype=np.float32)
    res = np.zeros_like(x)
    dev = Device()
    with use_device(dev):
        ew.bias_dropout_residual_forward(x, bias, res, 0.1, rng)
    assert dev.launch_count() == 1
    dev.reset()
    with use_device(dev):
        xb = ew.bias_add_naive(x, bias)
        xd, _ = ew.dropout_forward_naive(xb, 0.1, rng)
        ew.residual_add_naive(xd, res)
    assert dev.launch_count() == 3


def test_fused_chain_reduces_bytes(rng):
    """Fusion removes intermediate-tensor traffic, not arithmetic."""
    from repro.backend.profiler import compare
    x = rng.standard_normal((8, 16, 32)).astype(np.float32)
    bias = np.zeros(32, dtype=np.float32)
    res = np.zeros_like(x)
    mask = ew.make_dropout_mask(x.shape, 0.1, rng)
    d1, d2 = Device(), Device()
    with use_device(d1):
        xb = ew.bias_add_naive(x, bias)
        xd, _ = ew.dropout_forward_naive(xb, 0.1, rng, mask=mask)
        ew.residual_add_naive(xd, res)
    with use_device(d2):
        ew.bias_dropout_residual_forward(x, bias, res, 0.1, rng, mask=mask)
    diff = compare(d1.launches, d2.launches)
    assert diff.launch_ratio == pytest.approx(1 / 3)
    assert diff.bytes_ratio < 0.75
