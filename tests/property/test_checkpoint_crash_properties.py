"""Property-based crash safety (hypothesis): a checkpoint write torn at
ANY byte offset never corrupts the previous good checkpoint — and
``resume_auto`` always lands on a checksum-valid one."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_config
from repro.models import TransformerModel
from repro.resilience import (CheckpointStore, FaultInjector, FaultPlan,
                              FaultSpec, TornWrite, use_faults)
from repro.training import OptimizerSpec, make_trainer, train_step

_CFG = get_config("transformer-base", max_batch_tokens=128, max_seq_len=16,
                  hidden_dim=16, nhead=2, ffn_dim=32, vocab_size=32,
                  num_encoder_layers=1, num_decoder_layers=1,
                  dropout=0.0, attn_dropout=0.0)


def _pair(seed=1):
    model = TransformerModel(_CFG, seed=seed)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3))
    return model, trainer


def _batch(seed, v=32):
    rng = np.random.default_rng(seed)
    return (rng.integers(4, v, (2, 6)), rng.integers(4, v, (2, 6)),
            rng.integers(4, v, (2, 6)))


def _latest_valid(store):
    """Newest step whose checkpoint passes ``validate``, or None."""
    return max((s for s in store.steps() if not store.validate(s)),
               default=None)


@given(fraction=st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_torn_write_never_corrupts_previous_checkpoint(fraction):
    """Tear the one write of the second save at an arbitrary byte
    fraction: checkpoint 1 stays valid, the torn checkpoint 2 is never
    committed, and auto-resume restores checkpoint 1's exact
    parameters."""
    model, trainer = _pair()
    train_step(model, trainer, _batch(0))
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(Path(d))
        store.save(model, trainer, step=1)
        good = {p.name: p.data.copy() for p in model.parameters()}

        train_step(model, trainer, _batch(1))
        plan = FaultPlan([FaultSpec("checkpoint.write", "torn",
                                    fraction=fraction)])
        with use_faults(FaultInjector(plan)):
            try:
                store.save(model, trainer, step=2)
                committed = True
            except TornWrite:
                committed = False
        assert not committed

        assert store.validate(1) == []                  # old one intact
        assert _latest_valid(store) == 1
        model2, trainer2 = _pair(seed=9)
        manifest = store.resume_auto(model2, trainer2)
        assert manifest is not None and manifest["step"] == 1
        for p in model2.parameters():
            np.testing.assert_array_equal(p.data, good[p.name])

        # and the store recovers: the next clean save commits normally
        store.save(model2, trainer2, step=2)
        assert _latest_valid(store) == 2


@given(fraction=st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=10, deadline=None)
def test_torn_first_save_leaves_empty_store(fraction):
    """With no previous checkpoint, a torn first save leaves the store
    cleanly empty — resume_auto reports None instead of loading junk."""
    model, trainer = _pair()
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(Path(d))
        plan = FaultPlan([FaultSpec("checkpoint.write", "torn",
                                    fraction=fraction)])
        with use_faults(FaultInjector(plan)):
            try:
                store.save(model, trainer, step=1)
            except TornWrite:
                pass
        assert store.steps() == []
        assert store.resume_auto(*_pair(seed=9)) is None
