"""Criterion kernels: label-smoothed CE value, gradient (paper erratum),
padding exclusion."""

import tracemalloc

import numpy as np
import pytest

from repro.backend.arena import ActivationArena
from repro.backend.kernels import criterion as crit

from ..conftest import assert_grad_close, numerical_grad


@pytest.fixture
def setup(rng):
    n, v = 6, 11
    logits = rng.standard_normal((n, v)).astype(np.float32)
    targets = rng.integers(0, v, n)
    return logits, targets


def _reference_loss(logits, targets, alpha, ignore=-100):
    """Independent float64 reference implementation."""
    x = logits.astype(np.float64)
    x = x - x.max(-1, keepdims=True)
    logq = x - np.log(np.exp(x).sum(-1, keepdims=True))
    v = x.shape[-1]
    total = 0.0
    for i, t in enumerate(targets):
        if t == ignore:
            continue
        p = np.full(v, alpha / v)
        p[t] += 1 - alpha
        total += -(p * logq[i]).sum()
    return total


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
def test_forward_matches_reference(setup, alpha):
    logits, targets = setup
    for fn in (crit.criterion_forward_naive, crit.criterion_forward_fused):
        loss, ntok, _ = fn(logits, targets, alpha)
        assert ntok == len(targets)
        assert loss == pytest.approx(
            _reference_loss(logits, targets, alpha), rel=1e-4)


def test_fused_matches_naive(setup):
    logits, targets = setup
    l1, n1, q1 = crit.criterion_forward_naive(logits, targets, 0.1)
    l2, n2, q2 = crit.criterion_forward_fused(logits, targets, 0.1)
    assert l1 == pytest.approx(l2, rel=1e-5)
    assert n1 == n2
    np.testing.assert_allclose(q1, q2, atol=1e-6)
    g1 = crit.criterion_backward_naive(q1, targets, 0.1)
    g2 = crit.criterion_backward_fused(q2, targets, 0.1)
    np.testing.assert_allclose(g1, g2, atol=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_gradient_finite_differences(setup, alpha):
    """Pins the corrected sign: dy_i = q_i - alpha/V - (1-alpha)[i==gt]
    (the paper prints -q_i, which fails this check)."""
    logits, targets = setup
    _, _, q = crit.criterion_forward_fused(logits, targets, alpha)
    g = crit.criterion_backward_fused(q, targets, alpha)

    def loss(lv):
        l, _, _ = crit.criterion_forward_fused(lv, targets, alpha)
        return l

    assert_grad_close(g, numerical_grad(loss, logits))


def test_gradient_closed_form(setup):
    logits, targets = setup
    alpha = 0.2
    v = logits.shape[-1]
    _, _, q = crit.criterion_forward_fused(logits, targets, alpha)
    g = crit.criterion_backward_fused(q, targets, alpha)
    expect = q - alpha / v
    expect[np.arange(len(targets)), targets] -= (1 - alpha)
    np.testing.assert_allclose(g, expect, atol=1e-6)


def test_gradient_rows_sum_to_zero(setup):
    """CE-with-smoothing gradients sum to zero over the vocab per token."""
    logits, targets = setup
    _, _, q = crit.criterion_forward_fused(logits, targets, 0.1)
    g = crit.criterion_backward_fused(q, targets, 0.1)
    np.testing.assert_allclose(g.sum(-1), 0.0, atol=1e-5)


def test_padding_excluded(rng):
    logits = rng.standard_normal((4, 7)).astype(np.float32)
    targets = np.array([3, -100, 5, -100])
    loss, ntok, q = crit.criterion_forward_fused(logits, targets, 0.1,
                                                 ignore_index=-100)
    assert ntok == 2
    ref = _reference_loss(logits, targets, 0.1)
    assert loss == pytest.approx(ref, rel=1e-4)
    g = crit.criterion_backward_fused(q, targets, 0.1, ignore_index=-100)
    np.testing.assert_allclose(g[1], 0.0)
    np.testing.assert_allclose(g[3], 0.0)
    assert np.abs(g[0]).max() > 0


def test_grad_scale_folded(setup):
    logits, targets = setup
    _, _, q = crit.criterion_forward_fused(logits, targets, 0.1)
    g1 = crit.criterion_backward_fused(q, targets, 0.1, grad_scale=1.0)
    g2 = crit.criterion_backward_fused(q, targets, 0.1, grad_scale=0.25)
    np.testing.assert_allclose(g2, 0.25 * g1, rtol=1e-6)


def test_3d_logits(rng):
    """(B, L, V) shapes flatten correctly."""
    logits = rng.standard_normal((2, 3, 9)).astype(np.float32)
    targets = rng.integers(0, 9, (2, 3))
    loss, ntok, q = crit.criterion_forward_fused(logits, targets, 0.1)
    assert q.shape == logits.shape
    assert ntok == 6
    flat_loss, _, _ = crit.criterion_forward_fused(
        logits.reshape(6, 9), targets.reshape(6), 0.1)
    assert loss == pytest.approx(flat_loss, rel=1e-6)


def test_alpha_zero_is_plain_nll(setup):
    logits, targets = setup
    loss, _, _ = crit.criterion_forward_fused(logits, targets, 0.0)
    x = logits - logits.max(-1, keepdims=True)
    logq = x - np.log(np.exp(x).sum(-1, keepdims=True))
    nll = -logq[np.arange(len(targets)), targets].sum()
    assert loss == pytest.approx(float(nll), rel=1e-5)


# -- the in-place log-softmax and backward mask, pinned bitwise ---------------
# The two functions below are the math of the fused forward's log-softmax
# and of the fused backward as they were before both became in-place, kept
# verbatim (minus launch records and output-buffer routing) as the oracle.


def _prior_log_softmax(x, axis=-1):
    xmax = x.max(axis=axis, keepdims=True)
    shifted = x - xmax
    lz = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    logq = np.empty(x.shape, np.result_type(shifted, lz))
    np.subtract(shifted, lz, out=logq)
    q = np.empty(x.shape, logq.dtype)
    np.exp(logq, out=q)
    return logq, q


def _prior_criterion_forward(logits, targets, alpha, ignore_index=-100):
    x, t = logits.reshape(-1, logits.shape[-1]), targets.reshape(-1)
    n, v = x.shape
    logq, q = _prior_log_softmax(x)
    valid = t != ignore_index
    safe_t = np.where(valid, t, 0)
    nll = -logq[np.arange(n), safe_t]
    smooth = -logq.sum(axis=-1)
    per_tok = (1.0 - alpha) * nll + (alpha / v) * smooth
    loss = float(np.where(valid, per_tok, 0.0).sum())
    return loss, int(valid.sum()), q.reshape(logits.shape)


def _prior_criterion_backward(q, targets, alpha, ignore_index=-100,
                              grad_scale=1.0):
    qf, t = q.reshape(-1, q.shape[-1]), targets.reshape(-1)
    n, v = qf.shape
    valid = t != ignore_index
    safe_t = np.where(valid, t, 0)
    d = np.empty((n, v), qf.dtype)
    np.subtract(qf, np.float32(alpha / v), out=d)
    d[np.arange(n), safe_t] -= np.float32(1.0 - alpha)
    np.multiply(np.where(valid[:, None], d, 0.0), np.float32(grad_scale),
                out=d)
    return d.reshape(q.shape)


def _logits(rng, kind, shape=(3, 5, 37)):
    x = (4.0 * rng.standard_normal(shape)).astype(np.float32)
    if kind == "fp16_rounded":
        x = x.astype(np.float16).astype(np.float32)
    elif kind == "fp16":
        x = x.astype(np.float16)
    return x


def _targets(rng, shape, v):
    t = rng.integers(0, v, shape)
    t.reshape(-1)[::4] = -100                  # ignore_index rows
    return t


@pytest.mark.parametrize("kind", ["fp32", "fp16_rounded", "fp16"])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("grad_scale", [1.0, 3.0 / 1024])
def test_inplace_criterion_is_bitwise_the_prior_math(rng, kind, alpha,
                                                     grad_scale):
    logits = _logits(rng, kind)
    targets = _targets(rng, logits.shape[:-1], logits.shape[-1])
    loss0, ntok0, q0 = _prior_criterion_forward(logits, targets, alpha)
    d0 = _prior_criterion_backward(q0, targets, alpha,
                                   grad_scale=grad_scale)

    def check(loss, ntok, q, d):
        assert loss == loss0 and ntok == ntok0
        assert q.dtype == q0.dtype and np.array_equal(q, q0)
        assert d.dtype == d0.dtype and np.array_equal(d, d0)

    loss, ntok, q = crit.criterion_forward_fused(logits, targets, alpha)
    check(loss, ntok, q, crit.criterion_backward_fused(
        q, targets, alpha, grad_scale=grad_scale))

    # explicit out= buffers, poisoned so every element must be written
    bufs = [np.full(logits.shape, np.nan, logits.dtype) for _ in range(3)]
    loss, ntok, q = crit.criterion_forward_fused(
        logits, targets, alpha, out_q=bufs[0], out_logq=bufs[1])
    check(loss, ntok, q, crit.criterion_backward_fused(
        q, targets, alpha, grad_scale=grad_scale, out=bufs[2]))

    # arena-served buffers: the scan step misses, the next one hits
    arena = ActivationArena()
    for _ in range(3):
        with arena.step():
            loss, ntok, q = crit.criterion_forward_fused(logits, targets,
                                                         alpha)
            d = crit.criterion_backward_fused(q, targets, alpha,
                                              grad_scale=grad_scale)
            check(loss, ntok, q, d)
    assert arena.capacity > 0


def test_forward_allocates_at_most_two_logits_buffers(rng):
    """log q and q are the only logits-sized buffers: the softmax's
    shifted and exponentiated temporaries live in them."""
    logits = rng.standard_normal((256, 1000)).astype(np.float32)
    targets = _targets(rng, (256,), 1000)
    crit.criterion_forward_fused(logits, targets, 0.1)      # warm imports
    tracemalloc.start()
    try:
        crit.criterion_forward_fused(logits, targets, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * logits.nbytes + logits.nbytes // 8, \
        peak / logits.nbytes
