"""Checkpoint round trip of the trainer's numerics state.

The §3.2 overflow protocol is stateful — scale value, good-step counter,
growth/backoff/skip tallies — and a resume that resets any of it changes
the training trajectory.  These tests drive a scaler through overflows
and growths, round-trip it through a ``CheckpointStore``, and assert the
state (and the continued trajectory) is bit-exact.
"""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler, StaticLossScaler
from repro.resilience import CheckpointStore
from repro.training import OptimizerSpec, make_trainer, train_step

_FIELDS = ("_scale", "_good_steps", "overflows", "growths", "backoffs",
           "skip_streak", "max_skip_streak")


def _exercise(scaler):
    """Drive the policy through backoffs, a streak, and growths."""
    bad = [np.array([np.inf], dtype=np.float32)]
    good = [np.array([1.0], dtype=np.float32)]
    for _ in range(3):                       # 3-skip streak, 3 backoffs
        scaler.update(scaler.check_overflow(bad))
    for _ in range(scaler.scale_window if hasattr(scaler, "scale_window")
                   else 4):                  # enough clean steps to grow
        scaler.update(scaler.check_overflow(good))


class TestScalerStateDict:
    def test_dynamic_round_trip_bit_exact(self):
        src = DynamicLossScaler(init_scale=2.0 ** 10, scale_window=4)
        _exercise(src)
        assert src.backoffs == 3 and src.growths == 1     # state is rich
        dst = DynamicLossScaler()
        dst.load_state_dict(src.state_dict())
        for f in _FIELDS:
            assert getattr(dst, f) == getattr(src, f), f

    def test_static_round_trip(self):
        src = StaticLossScaler(scale=64.0)
        _exercise(src)
        assert src.max_skip_streak == 3
        dst = StaticLossScaler()
        dst.load_state_dict(src.state_dict())
        assert dst.scale == 64.0
        assert dst.overflows == src.overflows
        assert dst.skip_streak == src.skip_streak
        assert dst.max_skip_streak == src.max_skip_streak

    def test_continued_trajectory_identical(self):
        src = DynamicLossScaler(init_scale=2.0 ** 8, scale_window=2)
        _exercise(src)
        # state_dict carries *state*; hyperparameters (window, factor)
        # come from config, so the resumed scaler is built the same way
        dst = DynamicLossScaler(scale_window=2)
        dst.load_state_dict(src.state_dict())
        rng = np.random.default_rng(0)
        for _ in range(20):                  # same mixed overflow pattern
            overflow = bool(rng.random() < 0.3)
            src.update(overflow)
            dst.update(overflow)
            assert dst.scale == src.scale
            assert dst.skip_streak == src.skip_streak
        assert dst.state_dict() == src.state_dict()


def _fp16_setup(seed=0):
    cfg = get_config("transformer-base", max_batch_tokens=256,
                     max_seq_len=16, hidden_dim=32, nhead=4, ffn_dim=64,
                     vocab_size=64, num_encoder_layers=1,
                     num_decoder_layers=1, fp16=True, fused=True)
    model = TransformerModel(cfg, seed=seed)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                           scaler=DynamicLossScaler(init_scale=2.0 ** 15))
    return model, trainer


def test_trainer_checkpoint_preserves_scaler_numerics(tmp_path):
    model, trainer = _fp16_setup()
    rng = np.random.default_rng(0)
    for _ in range(4):                       # init scale 2^15 forces skips
        batch = (rng.integers(4, 64, (2, 8)), rng.integers(4, 64, (2, 8)),
                 rng.integers(4, 64, (2, 8)))
        train_step(model, trainer, batch)
    before = trainer.scaler.state_dict()
    assert before["backoffs"] > 0            # the run really backed off

    store = CheckpointStore(tmp_path)
    store.save(model, trainer, step=4)
    fresh, resumed = _fp16_setup(seed=1)     # different fresh state
    store.load(fresh, resumed, 4)

    assert resumed.scaler.state_dict() == before
    for f in _FIELDS:
        assert getattr(resumed.scaler, f) == getattr(trainer.scaler, f), f
