"""Gradient accumulation and activation checkpointing."""

import numpy as np
import pytest

from repro.config import get_config
from repro.layers.encoder import LSTransformerEncoderLayer
from repro.models import TransformerModel
from repro.training import (CheckpointedLayer, OptimizerSpec, make_trainer,
                            train_step, train_step_accumulated)


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1, dropout=0.0, attn_dropout=0.0)


def _batch(rng, b=4, l=8, v=80):
    return (rng.integers(4, v, (b, l)), rng.integers(4, v, (b, l)),
            rng.integers(4, v, (b, l)))


class TestAccumulation:
    def test_matches_single_big_batch(self, cfg, rng):
        """2 microbatches of B=2 == 1 batch of B=4, exactly (SGD)."""
        batch = _batch(rng, b=4)
        micro = [tuple(a[:2] for a in batch), tuple(a[2:] for a in batch)]
        spec = OptimizerSpec(kind="sgd", lr=1e-2)

        big = TransformerModel(cfg, seed=5)
        big_tr = make_trainer("naive", big, spec)
        res_big = train_step(big, big_tr, batch)

        acc = TransformerModel(cfg, seed=5)
        acc_tr = make_trainer("naive", acc, spec)
        res_acc = train_step_accumulated(acc, acc_tr, micro)

        assert res_acc.num_tokens == res_big.num_tokens
        assert res_acc.loss == pytest.approx(res_big.loss, rel=1e-5)
        for pb, pa in zip(big.parameters(), acc.parameters()):
            np.testing.assert_allclose(np.asarray(pb.data),
                                       np.asarray(pa.data), atol=1e-6,
                                       err_msg=pb.name)

    def test_empty_microbatches_rejected(self, cfg):
        m = TransformerModel(cfg, seed=0)
        tr = make_trainer("naive", m, OptimizerSpec())
        with pytest.raises(ValueError):
            train_step_accumulated(m, tr, [])

    def test_loss_sums_over_microbatches(self, cfg, rng):
        m = TransformerModel(cfg, seed=0)
        tr = make_trainer("lightseq", m, OptimizerSpec(lr=1e-4))
        micro = [_batch(rng, b=1), _batch(rng, b=1), _batch(rng, b=1)]
        res = train_step_accumulated(m, tr, micro)
        assert res.num_tokens == 3 * 8
        assert res.applied


class TestCheckpointing:
    def test_activations_freed_after_forward(self, cfg, rng):
        layer = LSTransformerEncoderLayer(cfg, seed=0)
        ck = CheckpointedLayer(layer)
        x = rng.standard_normal((2, 6, 32)).astype(np.float32)
        ck.forward(x)
        assert ck.saved_nbytes() == 0
        # the plain layer would be holding megabytes of activations
        plain = LSTransformerEncoderLayer(cfg, seed=0)
        plain.forward(x)
        assert plain.saved_nbytes() > 0

    def test_gradients_identical_with_dropout(self, cfg, rng):
        """RNG restore makes the recompute draw the SAME dropout masks, so
        checkpointed gradients are bit-compatible with the plain path."""
        cfg_d = cfg.with_overrides(dropout=0.3, attn_dropout=0.2)
        plain = LSTransformerEncoderLayer(cfg_d, name="L", seed=9)
        ckpt = CheckpointedLayer(
            LSTransformerEncoderLayer(cfg_d, name="L", seed=9))
        x = rng.standard_normal((2, 5, 32)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)

        y1 = plain.forward(x)
        dx1 = plain.backward(dy)
        y2 = ckpt.forward(x)
        dx2 = ckpt.backward(dy)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_allclose(dx1, dx2, atol=1e-6)
        for p1, p2 in zip(plain.parameters(), ckpt.parameters()):
            np.testing.assert_allclose(p1.grad, p2.grad, atol=1e-6,
                                       err_msg=p1.name)

    def test_backward_before_forward_raises(self, cfg, rng):
        ck = CheckpointedLayer(LSTransformerEncoderLayer(cfg, seed=0))
        with pytest.raises(RuntimeError):
            ck.backward(np.zeros((1, 2, 32), np.float32))

    def test_stack_helpers(self, cfg, rng):
        layers = [LSTransformerEncoderLayer(cfg, name=f"l{i}", seed=i)
                  for i in range(3)]
        ck = [CheckpointedLayer(layer) for layer in layers]
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        y = x
        for layer in ck:
            y = layer.forward(y)
        assert y.shape == x.shape
        assert sum(c.saved_nbytes() for c in ck) == 0
        dx = np.ones_like(y)
        for layer in reversed(ck):
            dx = layer.backward(dx)
        assert dx.shape == x.shape
        assert np.all(np.isfinite(dx))

    def test_recompute_doubles_forward_kernels(self, cfg, rng):
        """Checkpointing's cost: forward kernels run twice per step."""
        from repro.backend.device import Device, use_device
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        plain = LSTransformerEncoderLayer(cfg, name="L", seed=0)
        d1 = Device()
        with use_device(d1):
            y = plain.forward(x)
            plain.backward(np.ones_like(y))
        ck = CheckpointedLayer(
            LSTransformerEncoderLayer(cfg, name="L", seed=0))
        d2 = Device()
        with use_device(d2):
            y = ck.forward(x)
            ck.backward(np.ones_like(y))
        fwd_plain = d1.launch_count() - 0
        assert len(d2.launches) > len(d1.launches)


class TestRngStates:
    def test_snapshot_restore_roundtrip(self, cfg, rng):
        layer = LSTransformerEncoderLayer(cfg.with_overrides(dropout=0.5),
                                          seed=1)
        snap = layer.rng_states()
        x = rng.standard_normal((1, 4, 32)).astype(np.float32)
        y1 = layer.forward(x)
        layer.set_rng_states(snap)
        y2 = layer.forward(x)
        np.testing.assert_array_equal(y1, y2)
