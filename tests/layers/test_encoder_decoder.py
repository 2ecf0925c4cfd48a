"""Encoder/decoder layers and FFN: fused==naive, gradients, pre/post-LN."""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.layers.attention import causal_mask
from repro.layers.decoder import LSTransformerDecoderLayer
from repro.layers.encoder import LSTransformerEncoderLayer
from repro.layers.ffn import FeedForward

from ..conftest import assert_grad_close, numerical_grad


def _twins(cls, cfg, seed=3, **kw):
    return (cls(cfg.with_overrides(fused=True), seed=seed, **kw),
            cls(cfg.with_overrides(fused=False), seed=seed, **kw))


class TestFFN:
    @pytest.mark.parametrize("act", ["relu", "gelu"])
    def test_fused_matches_naive(self, tiny_config, rng, act):
        cfg = tiny_config.with_overrides(activation=act,
                                         activation_dropout=0.1)
        f, n = _twins(FeedForward, cfg)
        x = rng.standard_normal((2, 5, 32)).astype(np.float32)
        np.testing.assert_allclose(f.forward(x), n.forward(x), atol=1e-4)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        np.testing.assert_allclose(f.backward(dy), n.backward(dy),
                                   atol=1e-3)
        for pf, pn in zip(f.parameters(), n.parameters()):
            np.testing.assert_allclose(pf.grad, pn.grad, atol=1e-3,
                                       err_msg=pf.name)

    def test_gradient_finite_differences(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(hidden_dim=8, nhead=2, ffn_dim=12,
                                         activation_dropout=0.0)
        layer = FeedForward(cfg, seed=1)
        x = rng.standard_normal((1, 3, 8)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        layer.forward(x)
        dx = layer.backward(dy)

        def loss(xv):
            return float((layer.forward(xv) * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x))

    def test_eval_mode_disables_dropout(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(activation_dropout=0.5)
        layer = FeedForward(cfg, seed=1).train(False)
        x = rng.standard_normal((1, 3, 32)).astype(np.float32)
        y1 = layer.forward(x)
        y2 = layer.forward(x)
        np.testing.assert_array_equal(y1, y2)


class TestEncoderLayer:
    @pytest.mark.parametrize("pre_ln", [True, False])
    def test_fused_matches_naive(self, tiny_config, rng, pre_ln):
        cfg = tiny_config.with_overrides(pre_layer_norm=pre_ln)
        f, n = _twins(LSTransformerEncoderLayer, cfg)
        x = rng.standard_normal((2, 6, 32)).astype(np.float32)
        np.testing.assert_allclose(f.forward(x), n.forward(x), atol=1e-4)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        np.testing.assert_allclose(f.backward(dy), n.backward(dy),
                                   atol=2e-3)
        for pf, pn in zip(f.parameters(), n.parameters()):
            np.testing.assert_allclose(pf.grad, pn.grad, atol=2e-3,
                                       err_msg=pf.name)

    @pytest.mark.parametrize("pre_ln", [True, False])
    def test_full_layer_gradcheck(self, tiny_config, rng, pre_ln):
        cfg = tiny_config.with_overrides(
            hidden_dim=8, nhead=2, ffn_dim=12, dropout=0.0,
            attn_dropout=0.0, activation_dropout=0.0, pre_layer_norm=pre_ln)
        layer = LSTransformerEncoderLayer(cfg, seed=1)
        x = rng.standard_normal((1, 3, 8)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        layer.forward(x)
        dx = layer.backward(dy)

        def loss(xv):
            return float((layer.forward(xv) * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x))

    def test_output_shape_and_finiteness(self, tiny_config, rng):
        layer = LSTransformerEncoderLayer(tiny_config, seed=0)
        x = rng.standard_normal((3, 10, 32)).astype(np.float32)
        y = layer.forward(x)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))

    def test_get_config_api(self):
        """Fig.-10 usage: class-level get_config constructs the layer."""
        cfg = LSTransformerEncoderLayer.get_config(
            model="transformer-big", max_batch_tokens=4096, max_seq_len=256,
            fp16=True, local_rank=0)
        assert cfg.hidden_dim == 1024 and cfg.fp16
        layer = LSTransformerEncoderLayer(cfg)
        assert layer.num_parameters() > 12_000_000

    def test_fused_launch_reduction(self, tiny_config, rng):
        f, n = _twins(LSTransformerEncoderLayer, tiny_config)
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        df, dn = Device(lib="lightseq2"), Device(lib="pytorch")
        with use_device(df):
            y = f.forward(x)
            f.backward(np.ones_like(y))
        with use_device(dn):
            y = n.forward(x)
            n.backward(np.ones_like(y))
        assert df.launch_count() < 0.6 * dn.launch_count()


class TestDecoderLayer:
    @pytest.mark.parametrize("pre_ln", [True, False])
    def test_fused_matches_naive(self, tiny_config, rng, pre_ln):
        cfg = tiny_config.with_overrides(pre_layer_norm=pre_ln)
        f, n = _twins(LSTransformerDecoderLayer, cfg)
        x = rng.standard_normal((2, 5, 32)).astype(np.float32)
        enc = rng.standard_normal((2, 8, 32)).astype(np.float32)
        m = causal_mask(5)
        np.testing.assert_allclose(f.forward(x, enc, self_mask=m),
                                   n.forward(x, enc, self_mask=m),
                                   atol=1e-4)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        dxf, denf = f.backward(dy)
        dxn, denn = n.backward(dy)
        np.testing.assert_allclose(dxf, dxn, atol=2e-3)
        np.testing.assert_allclose(denf, denn, atol=2e-3)

    def test_enc_gradient_finite_differences(self, tiny_config, rng):
        cfg = tiny_config.with_overrides(
            hidden_dim=8, nhead=2, ffn_dim=12, dropout=0.0,
            attn_dropout=0.0, activation_dropout=0.0)
        layer = LSTransformerDecoderLayer(cfg, seed=2)
        x = rng.standard_normal((1, 2, 8)).astype(np.float32)
        enc = rng.standard_normal((1, 3, 8)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        layer.forward(x, enc)
        _, denc = layer.backward(dy)

        def loss(ev):
            return float((layer.forward(x, ev) * dy).sum())

        assert_grad_close(denc, numerical_grad(loss, enc))

    def test_causality(self, tiny_config, rng):
        layer = LSTransformerDecoderLayer(tiny_config, seed=0).train(False)
        x = rng.standard_normal((1, 5, 32)).astype(np.float32)
        enc = rng.standard_normal((1, 4, 32)).astype(np.float32)
        m = causal_mask(5)
        y1 = layer.forward(x, enc, self_mask=m)
        x2 = x.copy()
        x2[0, 4] += 5.0
        y2 = layer.forward(x2, enc, self_mask=m)
        np.testing.assert_allclose(y1[0, :4], y2[0, :4], atol=1e-4)
