"""CheckpointedLayer pass-throughs: the full Layer surface must survive
wrapping, so checkpointed stacks compose with trainers, the activation
arena, serialization, RNG snapshot/restore, and the numerics taps."""

import numpy as np
import pytest

from repro.backend.arena import ActivationArena
from repro.config import get_config
from repro.layers import LSTransformerEncoderLayer
from repro.training.checkpointing import CheckpointedLayer


@pytest.fixture
def layer():
    cfg = get_config("transformer-base", max_batch_tokens=128,
                     max_seq_len=16, hidden_dim=32, nhead=4, ffn_dim=64,
                     vocab_size=64, dropout=0.1, attn_dropout=0.1)
    return LSTransformerEncoderLayer(cfg, seed=3)


@pytest.fixture
def wrapped(layer):
    return CheckpointedLayer(layer)


class TestParameterSurface:
    def test_parameters_and_names_delegate(self, layer, wrapped):
        assert [p.name for p in wrapped.parameters()] == \
            [p.name for p in layer.parameters()]
        assert list(wrapped.parameters()) == list(layer.parameters())
        assert wrapped.num_parameters() == layer.num_parameters()

    def test_zero_grad_delegates(self, layer, wrapped):
        for p in layer.parameters():
            p.grad[...] = 1.0
        wrapped.zero_grad()
        assert all(np.all(p.grad == 0) for p in layer.parameters())


class TestArenaAndSaved:
    def test_set_arena_recurses_and_chains(self, layer, wrapped):
        arena = ActivationArena()
        assert wrapped.set_arena(arena) is wrapped      # chainable
        assert layer.arena is arena
        assert wrapped.arena is arena                   # property mirrors

    def test_clear_saved_delegates(self, layer, wrapped):
        x = np.random.default_rng(0).normal(
            size=(2, 8, 32)).astype(np.float32)
        wrapped.layer.forward(x)                        # populate saved
        assert wrapped.saved_nbytes() > 0
        wrapped.clear_saved()
        assert wrapped.saved_nbytes() == 0


class TestRngAndMode:
    def test_rng_states_round_trip(self, layer, wrapped):
        states = wrapped.rng_states()
        assert states == layer.rng_states()
        # advance the streams, then restore via the wrapper
        x = np.random.default_rng(0).normal(
            size=(2, 8, 32)).astype(np.float32)
        wrapped.forward(x)
        wrapped.set_rng_states(states)
        assert layer.rng_states() == states

    def test_train_eval_and_training_flag(self, layer, wrapped):
        assert wrapped.train(False) is wrapped
        assert layer.training is False
        assert wrapped.training is False
        wrapped.train()
        assert wrapped.training is True and layer.training is True

    def test_name_and_config_mirror(self, layer, wrapped):
        assert wrapped.name == layer.name
        assert wrapped.config is layer.config

    def test_capture_constants_delegates(self, layer, wrapped):
        assert wrapped.capture_constants() == layer.capture_constants()


class TestRecomputeStillExact:
    def test_wrapped_gradients_match_plain(self, layer):
        """The added pass-throughs must not disturb the recompute path."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 8, 32)).astype(np.float32)
        dy = rng.normal(size=(2, 8, 32)).astype(np.float32)

        layer.zero_grad()
        states = layer.rng_states()
        y_ref = layer.forward(x)
        layer.backward(dy)
        ref_grads = {p.name: p.grad.copy() for p in layer.parameters()}

        layer.zero_grad()
        layer.set_rng_states(states)
        wrapped = CheckpointedLayer(layer)
        y = wrapped.forward(x)
        np.testing.assert_array_equal(y, y_ref)
        assert layer.saved_nbytes() == 0                # freed after forward
        wrapped.backward(dy)
        for p in layer.parameters():
            np.testing.assert_array_equal(p.grad, ref_grads[p.name],
                                          err_msg=p.name)
