"""Training loop, LR schedules, and end-to-end convergence."""

import numpy as np
import pytest

from repro.config import get_config
from repro.data import SyntheticTranslationCorpus, batch_by_tokens
from repro.models import TransformerModel
from repro.training import (ConstantSchedule, InverseSqrtSchedule,
                            LinearDecaySchedule, OptimizerSpec, make_trainer,
                            train_epoch)


class TestSchedules:
    def test_inverse_sqrt(self):
        s = InverseSqrtSchedule(peak_lr=1.0, warmup_steps=100)
        assert s.lr(1) == pytest.approx(0.01)
        assert s.lr(100) == pytest.approx(1.0)
        assert s.lr(400) == pytest.approx(0.5)
        assert s.lr(101) < 1.0
        with pytest.raises(ValueError):
            s.lr(0)

    def test_linear_decay(self):
        s = LinearDecaySchedule(peak_lr=1.0, warmup_steps=10,
                                total_steps=110)
        assert s.lr(5) == pytest.approx(0.5)
        assert s.lr(10) == pytest.approx(1.0)
        assert s.lr(60) == pytest.approx(0.5)
        assert s.lr(110) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            LinearDecaySchedule(total_steps=5, warmup_steps=10)

    def test_constant(self):
        s = ConstantSchedule(3e-4)
        assert s.lr(1) == s.lr(10 ** 6) == 3e-4


class TestConvergence:
    def _setup(self, fused, seed=9):
        cfg = get_config("transformer-base", max_batch_tokens=192,
                         max_seq_len=20, hidden_dim=32, nhead=4, ffn_dim=64,
                         vocab_size=64, num_encoder_layers=1,
                         num_decoder_layers=1, fused=fused)
        corpus = SyntheticTranslationCorpus(64, max_len=18, seed=3)
        # learnable task: target is an exact copy of the source, so the
        # loss has low irreducible entropy and drops fast
        from repro.data.synthetic import SentencePair
        pairs = [SentencePair(source=q.source, target=q.source.copy())
                 for q in corpus.sample(48)]
        batches = [b.as_tuple() for b in batch_by_tokens(pairs, 192)]
        model = TransformerModel(cfg, seed=seed)
        trainer = make_trainer("lightseq" if fused else "naive", model,
                               OptimizerSpec(lr=3e-3))
        return model, trainer, batches

    def test_loss_decreases(self):
        model, trainer, batches = self._setup(fused=True)
        curve = [train_epoch(model, trainer, batches).mean_loss_per_token
                 for _ in range(5)]
        # steady optimisation: every epoch improves, ≥15% total in 5 epochs
        assert all(b < a for a, b in zip(curve, curve[1:])), curve
        assert curve[-1] < 0.85 * curve[0]

    def test_fused_and_naive_converge_alike(self):
        """LightSeq2's core promise: same training behaviour.  Same seed,
        same data -> the two paths' loss curves agree closely in FP32."""
        mf, tf_, bat = self._setup(fused=True, seed=4)
        mn, tn, _ = self._setup(fused=False, seed=4)
        for _ in range(3):
            ef = train_epoch(mf, tf_, bat)
            en = train_epoch(mn, tn, bat)
            assert ef.mean_loss_per_token == pytest.approx(
                en.mean_loss_per_token, rel=2e-3)

    def test_epoch_stats(self):
        model, trainer, batches = self._setup(fused=True)
        stats = train_epoch(model, trainer, batches,
                            lr_fn=InverseSqrtSchedule(1e-3, 4).lr)
        assert stats.steps == len(batches)
        assert stats.tokens > 0
        assert np.isfinite(stats.mean_loss_per_token)


class TestOptimizerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerSpec(kind="rmsprop")
        with pytest.raises(ValueError):
            OptimizerSpec(lr=0)

    def test_adam_hparams_override(self):
        spec = OptimizerSpec(lr=1.0, beta2=0.95)
        hp = spec.adam_hparams(lr=0.5)
        assert hp.lr == 0.5 and hp.beta2 == 0.95
