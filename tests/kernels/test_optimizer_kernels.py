"""Optimizer kernels: Adam math, trajectory equality across the three
trainer kernel families, launch accounting."""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.backend.kernels import optimizer as opt


@pytest.fixture
def hp():
    return opt.AdamHParams(lr=1e-2, beta1=0.9, beta2=0.98, eps=1e-8)


def test_adam_math_reference(hp):
    """First step: m = (1-b1)g, v = (1-b2)g^2, bias-corrected update."""
    p = np.array([1.0, -2.0], dtype=np.float32)
    g = np.array([0.5, 0.5], dtype=np.float32)
    m = np.zeros(2, dtype=np.float32)
    v = np.zeros(2, dtype=np.float32)
    p2 = opt.adam_math(p.copy(), g, m, v, 1, hp)
    # after bias correction, step-1 update is -lr * g/(|g| + eps') ~ -lr*sign
    np.testing.assert_allclose(p2, p - hp.lr * np.sign(g), atol=1e-4)
    np.testing.assert_allclose(m, 0.1 * g, rtol=1e-6)
    np.testing.assert_allclose(v, 0.02 * g * g, rtol=1e-5)


def test_adam_step_validation(hp):
    z = np.zeros(2, dtype=np.float32)
    with pytest.raises(ValueError):
        opt.adam_math(z, z, z.copy(), z.copy(), 0, hp)


def test_adam_weight_decay(hp):
    hp_wd = opt.AdamHParams(lr=hp.lr, weight_decay=0.1)
    p = np.ones(3, dtype=np.float32)
    g = np.zeros(3, dtype=np.float32)
    m = np.zeros(3, dtype=np.float32)
    v = np.zeros(3, dtype=np.float32)
    p2 = opt.adam_math(p.copy(), g, m, v, 1, hp_wd)
    assert np.all(p2 < p)          # L2 decay pulls weights toward zero


def _adam_expr(p32, g32, m, v, step, hp):
    """The Adam step written as whole-array expressions (the original
    form of ``adam_math``): the reference its in-place op sequence must
    reproduce bit for bit."""
    g = g32 if hp.weight_decay == 0.0 else g32 + hp.weight_decay * p32
    m *= hp.beta1
    m += (1.0 - hp.beta1) * g
    v *= hp.beta2
    v += (1.0 - hp.beta2) * (g * g)
    bc1 = 1.0 - hp.beta1 ** step
    bc2 = 1.0 - hp.beta2 ** step
    denom = np.sqrt(v / bc2) + hp.eps
    return p32 - hp.lr * (m / bc1) / denom


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", [np.float16, np.float32])
@pytest.mark.parametrize("shard", [False, True], ids=["whole", "zero1"])
def test_fused_adam_tiles_bitwise(dtype, weight_decay, shard):
    """The fused kernel walks the workspace through a fixed FP32 scratch
    tile; the result is bitwise ``adam_math`` on the whole widened arrays,
    which is itself bitwise the expression form — over several steps, on a
    length that is not a multiple of the tile, and on a ZeRO-1 shard
    slice (sliced state, neighbours untouched)."""
    hp = opt.AdamHParams(lr=1e-2, weight_decay=weight_decay)
    n = 2 * opt.ADAM_TILE + 123
    lo, hi = (opt.ADAM_TILE // 3, n - 7) if shard else (0, n)
    rng = np.random.default_rng(3)
    ws = (rng.standard_normal(n) * 0.1).astype(dtype)
    ref = ws[lo:hi].astype(np.float32)
    expr = ref.copy()
    state = [np.zeros(hi - lo, np.float32) for _ in range(6)]
    for step in range(1, 4):
        grads = rng.standard_normal(n).astype(dtype)
        before = ws.copy()
        opt.adam_update_ls_fused(ws[lo:hi], grads[lo:hi], state[0],
                                 state[1], step, hp,
                                 fp16=dtype == np.float16, grad_scale=0.5)
        g32 = grads[lo:hi].astype(np.float32) * np.float32(0.5)
        ref = opt.adam_math(ref, g32, state[2], state[3], step, hp)
        expr = _adam_expr(expr, g32, state[4], state[5], step, hp)
        assert np.array_equal(ref, expr)
        assert np.array_equal(ws[lo:hi], ref.astype(dtype))
        ref = ws[lo:hi].astype(np.float32)   # the kernel stores narrowed
        expr = ref.copy()
        assert np.array_equal(ws[:lo], before[:lo])
        assert np.array_equal(ws[hi:], before[hi:])
    for a, b in ((0, 2), (2, 4), (1, 3), (3, 5)):
        assert np.array_equal(state[a], state[b])


def test_sgd_math_momentum():
    p = np.array([1.0], dtype=np.float32)
    g = np.array([1.0], dtype=np.float32)
    mom = np.zeros(1, dtype=np.float32)
    p1 = opt.sgd_math(p, g, mom, lr=0.1, momentum=0.9)
    np.testing.assert_allclose(p1, 0.9)
    p2 = opt.sgd_math(p1, g, mom, lr=0.1, momentum=0.9)
    # velocity = 0.9*1 + 1 = 1.9
    np.testing.assert_allclose(p2, p1 - 0.1 * 1.9, rtol=1e-6)


def test_naive_and_fused_trajectories_match(rng, hp):
    """The three kernel families apply identical math: running them on the
    same fp16 param/grad stream stays within fp16 rounding."""
    n = 64
    p0 = (rng.standard_normal(n) * 0.1).astype(np.float16)
    steps = 5

    # naive per-tensor path
    p_naive = p0.copy()
    master = p_naive.astype(np.float32)
    m1 = np.zeros(n, dtype=np.float32)
    v1 = np.zeros(n, dtype=np.float32)
    # fused workspace path
    p_fused = p0.copy()
    m2 = np.zeros(n, dtype=np.float32)
    v2 = np.zeros(n, dtype=np.float32)

    g_rng = np.random.default_rng(7)
    for step in range(1, steps + 1):
        g = (g_rng.standard_normal(n) * 0.01).astype(np.float16)
        opt.adam_update_naive(p_naive, g, master, m1, v1, step, hp)
        opt.adam_update_ls_fused(p_fused, g, m2, v2, step, hp, fp16=True)
    # fused stores fp16 between steps; masters keep extra precision —
    # difference must stay within a few fp16 ulps
    np.testing.assert_allclose(p_fused.astype(np.float32),
                               p_naive.astype(np.float32), atol=2e-3)
    np.testing.assert_allclose(m1, m2, atol=1e-5)


def test_apex_matches_naive_exactly(rng, hp):
    n = 32
    p_a = (rng.standard_normal(n) * 0.1).astype(np.float16)
    p_b = p_a.copy()
    master_a = p_a.astype(np.float32)
    master_b = p_b.astype(np.float32)
    state = [np.zeros(n, dtype=np.float32) for _ in range(4)]
    g = (rng.standard_normal(n) * 0.01).astype(np.float16)
    opt.adam_update_naive(p_a, g, master_a, state[0], state[1], 1, hp)
    opt.adam_update_apex([p_b], [g], [master_b], [state[2]], [state[3]],
                         1, hp)
    np.testing.assert_array_equal(p_a, p_b)
    np.testing.assert_array_equal(master_a, master_b)


def test_grad_scale_equivalent_to_prescaled(rng, hp):
    n = 16
    p1 = (rng.standard_normal(n) * 0.1).astype(np.float16)
    p2 = p1.copy()
    m1, v1 = np.zeros(n, np.float32), np.zeros(n, np.float32)
    m2, v2 = np.zeros(n, np.float32), np.zeros(n, np.float32)
    g = (rng.standard_normal(n).astype(np.float32))
    opt.adam_update_ls_fused(p1, (g * 0.5).astype(np.float16), m1, v1, 1,
                             hp, fp16=True)
    opt.adam_update_ls_fused(p2, g.astype(np.float16), m2, v2, 1, hp,
                             fp16=True, grad_scale=0.5)
    np.testing.assert_allclose(p1.astype(np.float32),
                               p2.astype(np.float32), atol=1e-3)


def test_launch_counts(rng, hp):
    """naive = 3 launches/tensor; fused = 1 launch total."""
    n = 8
    p = np.zeros(n, dtype=np.float16)
    g = np.ones(n, dtype=np.float16)
    master = p.astype(np.float32)
    m, v = np.zeros(n, np.float32), np.zeros(n, np.float32)
    dev = Device()
    with use_device(dev):
        opt.adam_update_naive(p, g, master, m, v, 1, hp)
    assert dev.launch_count() == 3
    dev.reset()
    with use_device(dev):
        opt.adam_update_ls_fused(p, g, m, v, 2, hp, fp16=True)
    assert dev.launch_count() == 1


def test_apex_chunking(rng, hp):
    """More tensors than the chunk size -> multiple multi-tensor launches."""
    count = opt.APEX_CHUNK_TENSORS + 5
    ps = [np.zeros(2, dtype=np.float16) for _ in range(count)]
    gs = [np.ones(2, dtype=np.float16) for _ in range(count)]
    masters = [p.astype(np.float32) for p in ps]
    ms = [np.zeros(2, np.float32) for _ in range(count)]
    vs = [np.zeros(2, np.float32) for _ in range(count)]
    dev = Device()
    with use_device(dev):
        opt.adam_update_apex(ps, gs, masters, ms, vs, 1, hp)
    assert dev.launch_count() == 2


def test_fused_workspace_validation(hp):
    with pytest.raises(ValueError):
        opt.adam_update_ls_fused(np.zeros((2, 2), dtype=np.float16),
                                 np.zeros((2, 2), dtype=np.float16),
                                 np.zeros(4, np.float32),
                                 np.zeros(4, np.float32), 1, hp)
