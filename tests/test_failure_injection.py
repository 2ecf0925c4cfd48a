"""Failure injection: the system must degrade loudly or recover cleanly.

Covers the recovery paths a long training run depends on: FP16 overflow
mid-run (skip + rescale + continue), corrupted/truncated checkpoints,
under-scanned static memory, and trace-model misuse.
"""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.training import OptimizerSpec, make_trainer, train_step


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, fp16=True, hidden_dim=32, nhead=4,
                      ffn_dim=64, vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1)


def _batch(seed, v=80):
    rng = np.random.default_rng(seed)
    return (rng.integers(4, v, (2, 8)), rng.integers(4, v, (2, 8)),
            rng.integers(4, v, (2, 8)))


class TestOverflowRecovery:
    def test_injected_inf_skips_then_training_continues(self, cfg):
        """Poison one step's gradients with inf: that step is skipped, the
        scale halves, parameters are untouched, and the next clean step
        applies normally."""
        model = TransformerModel(cfg, seed=3)
        scaler = DynamicLossScaler(init_scale=64.0)
        trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                               scaler)
        res = train_step(model, trainer, _batch(0))
        assert res.applied
        snapshot = trainer.workspace.params.copy()

        # inject a poisoned gradient directly (as a kernel NaN bug would)
        trainer.zero_grad()
        trainer.workspace.grads[5] = np.float16(np.inf)
        assert not trainer.step()
        np.testing.assert_array_equal(trainer.workspace.params, snapshot)
        assert scaler.scale == 32.0
        assert trainer.skipped_steps == 1

        res = train_step(model, trainer, _batch(1))
        assert res.applied
        assert not np.array_equal(trainer.workspace.params, snapshot)

    def test_repeated_overflow_drives_scale_to_floor(self, cfg):
        model = TransformerModel(cfg, seed=3)
        scaler = DynamicLossScaler(init_scale=8.0, min_scale=1.0)
        trainer = make_trainer("naive", model, OptimizerSpec(), scaler)
        for _ in range(6):
            trainer.zero_grad()
            for p in model.parameters():
                p.grad[...] = np.float16(np.inf)
            assert not trainer.step()
        assert scaler.scale == 1.0
        assert trainer.skipped_steps == 6


class TestCheckpointCorruption:
    def test_truncated_file_raises(self, cfg, tmp_path):
        from repro.resilience import CheckpointCorrupt, CheckpointStore
        model = TransformerModel(cfg, seed=0)
        trainer = make_trainer("lightseq", model, OptimizerSpec())
        store = CheckpointStore(tmp_path)
        path = store.save(model, trainer, step=1)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorrupt):
            store.load(model, trainer, 1)

    def test_wrong_task_checkpoint_rejected(self, cfg, tmp_path):
        from repro.models import GPTModel
        from repro.resilience import CheckpointMismatch, CheckpointStore
        mt = TransformerModel(cfg, seed=0)
        store = CheckpointStore(tmp_path)
        store.save(mt, make_trainer("naive", mt, OptimizerSpec()), step=1)
        gpt = GPTModel(get_config(
            "gpt2-small", max_batch_tokens=256, max_seq_len=24,
            hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=80,
            num_decoder_layers=1), seed=0)
        with pytest.raises(CheckpointMismatch):
            store.load(gpt, make_trainer("naive", gpt, OptimizerSpec()), 1)


class TestMisuseErrors:
    def test_backward_without_forward(self, cfg):
        model = TransformerModel(cfg, seed=0)
        with pytest.raises(RuntimeError, match="backward before forward"):
            model.backward()

    def test_trace_model_interpolates_between_collected_depths(self):
        """Multiplicities are affine in depth for ALL integers, so even a
        depth strictly between the collected ones is exact — stronger than
        a grid restriction."""
        from collections import Counter

        from repro.bench.tracegen import (SYSTEMS, _full_key,
                                          depth_synthesis_model, step_trace)
        c = get_config("transformer-base", max_batch_tokens=512,
                       max_seq_len=16, hidden_dim=16, nhead=2, ffn_dim=32,
                       vocab_size=60, num_encoder_layers=2,
                       num_decoder_layers=2)

        def make(d):
            return step_trace(c.with_overrides(
                num_encoder_layers=d, num_decoder_layers=d),
                SYSTEMS["lightseq2"], 2, 8)

        model = depth_synthesis_model(make(1), make(3), 1, 3)
        assert Counter(map(_full_key, model(2))) == \
            Counter(map(_full_key, make(2)))
