"""Multi-head attention: fused==naive, masks, gradients, cross-attention."""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.layers.attention import (MultiHeadAttention, causal_mask,
                                    combine_masks, padding_mask)

from ..conftest import assert_grad_close, numerical_grad


def _twins(cfg, is_cross=False, seed=3):
    """Same-seed fused/naive layers (identical params and dropout streams)."""
    a = MultiHeadAttention(cfg.with_overrides(fused=True), name="attn",
                           is_cross=is_cross, seed=seed)
    b = MultiHeadAttention(cfg.with_overrides(fused=False), name="attn",
                           is_cross=is_cross, seed=seed)
    return a, b


class TestMasks:
    def test_padding_mask(self):
        toks = np.array([[4, 5, 1], [1, 1, 6]])
        m = padding_mask(toks, padding_idx=1)
        assert m.shape == (2, 1, 1, 3)
        assert m[0, 0, 0, 2] < -1e8 and m[0, 0, 0, 0] == 0

    def test_causal_mask(self):
        m = causal_mask(4)
        assert m.shape == (1, 1, 4, 4)
        assert m[0, 0, 0, 1] < -1e8     # can't see the future
        assert m[0, 0, 3, 0] == 0       # can see the past

    def test_combine(self):
        assert combine_masks(None, None) is None
        a, b = causal_mask(3), np.zeros((1, 1, 3, 3), np.float32)
        np.testing.assert_array_equal(combine_masks(a, b, None), a)

    def test_combine_single_mask_passes_through(self):
        a = causal_mask(4)
        assert combine_masks(a, None) is a

    def test_combine_accumulates_in_one_buffer(self, rng):
        """N masks fold into ONE broadcast-shaped output (no intermediate
        per-pair temporaries), bitwise-equal to the naive left-fold sum."""
        a = causal_mask(5)
        b = (-1e9 * (rng.random((2, 1, 1, 5)) < 0.4)).astype(np.float32)
        c = np.zeros((1, 1, 5, 5), np.float32)
        got = combine_masks(a, b, c)
        assert got.shape == (2, 1, 5, 5)
        np.testing.assert_array_equal(got, (a + b) + c)

    def test_causal_mask_is_memoized_and_readonly(self):
        m1, m2 = causal_mask(6), causal_mask(6)
        assert m1 is m2
        assert not m1.flags.writeable
        with pytest.raises(ValueError):
            m1[0, 0, 0, 0] = 1.0


class TestSelfAttention:
    def test_fused_matches_naive(self, tiny_config, rng):
        f, n = _twins(tiny_config)
        x = rng.standard_normal((2, 6, 32)).astype(np.float32)
        mask = causal_mask(6)
        yf = f.forward(x, mask=mask)
        yn = n.forward(x, mask=mask)
        np.testing.assert_allclose(yf, yn, atol=1e-4)
        dy = rng.standard_normal(yf.shape).astype(np.float32)
        dxf, _ = f.backward(dy)
        dxn, _ = n.backward(dy)
        np.testing.assert_allclose(dxf, dxn, atol=1e-3)
        for pf, pn in zip(f.parameters(), n.parameters()):
            np.testing.assert_allclose(pf.grad, pn.grad, atol=1e-3)

    def test_causal_mask_blocks_future(self, tiny_config, rng):
        layer = MultiHeadAttention(tiny_config, seed=0).train(False)
        x = rng.standard_normal((1, 5, 32)).astype(np.float32)
        y1 = layer.forward(x, mask=causal_mask(5))
        x2 = x.copy()
        x2[0, 4] += 10.0                          # perturb the LAST position
        y2 = layer.forward(x2, mask=causal_mask(5))
        np.testing.assert_allclose(y1[0, :4], y2[0, :4], atol=1e-5)
        assert np.abs(y1[0, 4] - y2[0, 4]).max() > 1e-3

    def test_input_gradient_finite_differences(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(attn_dropout=0.0, dropout=0.0)
        layer = MultiHeadAttention(cfg, seed=1)
        x = rng.standard_normal((1, 4, 32)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        layer.forward(x)
        dx, _ = layer.backward(dy)

        def loss(xv):
            return float((layer.forward(xv) * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x))

    def test_param_gradient_finite_differences(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(attn_dropout=0.0, dropout=0.0,
                                         hidden_dim=8, nhead=2, ffn_dim=16)
        layer = MultiHeadAttention(cfg, seed=1)
        x = rng.standard_normal((1, 3, 8)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        layer.forward(x)
        layer.backward(dy)
        analytic = layer.w_o.grad.copy()

        def loss(wv):
            orig = layer.w_o.data.copy()
            layer.w_o.data[...] = wv
            out = float((layer.forward(x) * dy).sum())
            layer.w_o.data[...] = orig
            return out

        assert_grad_close(analytic, numerical_grad(loss, layer.w_o.data))

    def test_rejects_kv_input(self, tiny_config, rng):
        layer = MultiHeadAttention(tiny_config, seed=0)
        x = rng.standard_normal((1, 3, 32)).astype(np.float32)
        with pytest.raises(ValueError):
            layer.forward(x, kv=x)

    def test_fused_fewer_launches(self, tiny_config, rng):
        f, n = _twins(tiny_config)
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        df, dn = Device(lib="lightseq2"), Device(lib="pytorch")
        with use_device(df):
            f.forward(x)
        with use_device(dn):
            n.forward(x)
        assert df.launch_count() < dn.launch_count()


class TestCrossAttention:
    def test_fused_matches_naive(self, tiny_config, rng):
        f, n = _twins(tiny_config, is_cross=True)
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        kv = rng.standard_normal((2, 7, 32)).astype(np.float32)
        yf = f.forward(x, kv=kv)
        yn = n.forward(x, kv=kv)
        np.testing.assert_allclose(yf, yn, atol=1e-4)
        dy = rng.standard_normal(yf.shape).astype(np.float32)
        dxf, dkvf = f.backward(dy)
        dxn, dkvn = n.backward(dy)
        np.testing.assert_allclose(dxf, dxn, atol=1e-3)
        np.testing.assert_allclose(dkvf, dkvn, atol=1e-3)

    def test_kv_gradient_finite_differences(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(attn_dropout=0.0, dropout=0.0,
                                         hidden_dim=8, nhead=2, ffn_dim=16)
        layer = MultiHeadAttention(cfg, is_cross=True, seed=2)
        x = rng.standard_normal((1, 2, 8)).astype(np.float32)
        kv = rng.standard_normal((1, 3, 8)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        layer.forward(x, kv=kv)
        _, dkv = layer.backward(dy)

        def loss(kvv):
            return float((layer.forward(x, kv=kvv) * dy).sum())

        assert_grad_close(dkv, numerical_grad(loss, kv))

    def test_requires_kv(self, tiny_config, rng):
        layer = MultiHeadAttention(tiny_config, is_cross=True, seed=0)
        x = rng.standard_normal((1, 3, 32)).astype(np.float32)
        with pytest.raises(ValueError):
            layer.forward(x)

    def test_different_kv_length(self, tiny_config, rng):
        """Cross attention handles Lq != Lk (the MT case)."""
        layer = MultiHeadAttention(tiny_config, is_cross=True, seed=0)
        x = rng.standard_normal((2, 3, 32)).astype(np.float32)
        kv = rng.standard_normal((2, 9, 32)).astype(np.float32)
        y = layer.forward(x, kv=kv)
        assert y.shape == x.shape
        dx, dkv = layer.backward(np.ones_like(y))
        assert dx.shape == x.shape and dkv.shape == kv.shape


class TestTiledAttention:
    """attn_impl="tiled" routes scores through the flash kernels; at small
    L (one tile) the whole layer is bit-identical to the fused path."""

    def _twins_tiled(self, cfg, is_cross=False, seed=3):
        base = cfg.with_overrides(fused=True, attn_dropout=0.0, dropout=0.0)
        f = MultiHeadAttention(base, name="attn", is_cross=is_cross,
                               seed=seed)
        t = MultiHeadAttention(base.with_overrides(attn_impl="tiled"),
                               name="attn", is_cross=is_cross, seed=seed)
        return f, t

    def test_self_bitwise_at_small_l(self, tiny_config, rng):
        f, t = self._twins_tiled(tiny_config)
        x = rng.standard_normal((2, 6, 32)).astype(np.float32)
        mask = padding_mask(np.array([[5, 5, 5, 5, 1, 1],
                                      [5, 5, 5, 5, 5, 5]]), 1)
        yf = f.forward(x, mask=mask)
        yt = t.forward(x, mask=mask)
        np.testing.assert_array_equal(yf, yt)
        dy = rng.standard_normal(yf.shape).astype(np.float32)
        dxf, _ = f.backward(dy)
        dxt, _ = t.backward(dy)
        np.testing.assert_array_equal(dxf, dxt)
        for pf, pt in zip(f.parameters(), t.parameters()):
            np.testing.assert_array_equal(pf.grad, pt.grad)

    def test_self_causal_matches_dense_mask(self, tiny_config, rng):
        """Tiled causal=True == fused with the materialised triangle."""
        f, t = self._twins_tiled(tiny_config)
        x = rng.standard_normal((1, 8, 32)).astype(np.float32)
        yf = f.forward(x, mask=causal_mask(8))
        yt = t.forward(x, causal=True)
        np.testing.assert_array_equal(yf, yt)

    def test_cross_bitwise_at_small_l(self, tiny_config, rng):
        f, t = self._twins_tiled(tiny_config, is_cross=True)
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        kv = rng.standard_normal((2, 7, 32)).astype(np.float32)
        np.testing.assert_array_equal(f.forward(x, kv=kv),
                                      t.forward(x, kv=kv))
        dy = rng.standard_normal(x.shape).astype(np.float32)
        dxf, dkvf = f.backward(dy)
        dxt, dkvt = t.backward(dy)
        np.testing.assert_array_equal(dxf, dxt)
        np.testing.assert_array_equal(dkvf, dkvt)

    def test_multi_tile_matches_to_rounding(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(attn_tile_q=4, attn_tile_k=4)
        f, t = self._twins_tiled(cfg)
        x = rng.standard_normal((1, 12, 32)).astype(np.float32)
        yf = f.forward(x, mask=causal_mask(12))
        yt = t.forward(x, causal=True)
        np.testing.assert_allclose(yf, yt, rtol=1e-4, atol=1e-5)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        dxf, _ = f.backward(dy)
        dxt, _ = t.backward(dy)
        np.testing.assert_allclose(dxf, dxt, rtol=1e-3, atol=1e-4)

    def test_dense_causal_kwarg_folds_the_mask(self, tiny_config, rng):
        """causal=True on the dense paths == passing causal_mask(L)."""
        layer = MultiHeadAttention(
            tiny_config.with_overrides(attn_dropout=0.0, dropout=0.0),
            seed=0)
        x = rng.standard_normal((1, 5, 32)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x, causal=True),
                                      layer.forward(x, mask=causal_mask(5)))

    def test_causal_cross_attention_rejected(self, tiny_config, rng):
        layer = MultiHeadAttention(tiny_config, is_cross=True, seed=0)
        x = rng.standard_normal((1, 3, 32)).astype(np.float32)
        with pytest.raises(ValueError):
            layer.forward(x, kv=x, causal=True)

    def test_tiled_plan_smaller_than_dense_at_long_l(self, tiny_config):
        """The backward plan swaps the quadratic d_probs_scores slot for a
        tile-sized working set: the arena demand of the tiled plan is a
        small fraction of the dense one at L well past one tile."""
        from repro.backend.arena import ActivationArena
        cfg = tiny_config.with_overrides(attn_dropout=0.0, dropout=0.0,
                                         attn_impl="tiled")
        b, n, L, dh = 2, cfg.nhead, 512, cfg.head_dim
        q = np.zeros((b, n, L, dh), np.float32)

        def plan_demand(tiled):
            layer = MultiHeadAttention(cfg, seed=0)
            arena = ActivationArena()
            layer.set_arena(arena)
            arena.begin_step()
            plan = layer._backward_plan(q, q, fused=True, tiled=tiled)
            assert ("flash_ws" in plan) == tiled
            assert ("d_probs_scores" in plan) == (not tiled)
            return arena.demand

        assert plan_demand(True) < plan_demand(False) / 4
