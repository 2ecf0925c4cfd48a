"""Skewed checkpoint manifests: ``resume_auto`` restores or refuses, whole.

A ``__manifest`` member that parses as JSON but has a field of the wrong
type is a corrupt checkpoint like a torn one: ``validate`` reports one
problem and ``resume_auto`` falls back to the older valid checkpoint.  A
skew the declaration accepts but the trainer does not fit (a null shard,
another loss scaler) raises :class:`CheckpointMismatch` with nothing
changed.
"""

import json

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.resilience import (CheckpointCorrupt, CheckpointMismatch,
                              CheckpointStore)
from repro.resilience.checkpoint import MANIFEST
from repro.training import OptimizerSpec, make_trainer, train_step

from ..ckpt_file import manifest, rewrite_manifest
from ..schema_fuzz import skewed


def _pair(seed=1):
    cfg = get_config("transformer-base", max_batch_tokens=128,
                     max_seq_len=16, hidden_dim=16, nhead=2, ffn_dim=32,
                     vocab_size=40, num_encoder_layers=1,
                     num_decoder_layers=1, fp16=True)
    model = TransformerModel(cfg, seed=seed)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                           DynamicLossScaler(init_scale=64.0))
    return model, trainer


def _state(model, trainer):
    return ([p.data.copy() for p in model.parameters()],
            trainer.m.copy(), trainer.v.copy(), trainer.step_count,
            trainer.skipped_steps, trainer.scaler.state_dict(),
            model.rng_states())


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Checkpoints at steps 1 and 2 (different weights); the states they
    hold ride along as ``store.saved``."""
    model, trainer = _pair()
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    rng = np.random.default_rng(0)
    store.saved = {}
    for step in (1, 2):
        batch = tuple(rng.integers(4, 40, (2, 6)) for _ in range(3))
        train_step(model, trainer, batch)
        store.save(model, trainer, step=step, extra={"loop_step": step})
        store.saved[step] = _state(model, trainer)
    store.good = json.dumps(manifest(store.paths(2)["checkpoint"]))
    return store


def _resume_with(store, manifest_text):
    """``resume_auto`` into a fresh pair with step 2's manifest replaced:
    (manifest or the CheckpointMismatch raised, fresh state before,
    state after)."""
    path = store.paths(2)["checkpoint"]
    rewrite_manifest(path, manifest_text)
    try:
        model, trainer = _pair(seed=9)
        fresh = _state(model, trainer)
        try:
            out = store.resume_auto(model, trainer)
        except CheckpointMismatch as e:
            out = e
    finally:
        rewrite_manifest(path, store.good)
    return out, fresh, _state(model, trainer)


def _same(a, b):
    params_a, *rest_a = a
    params_b, *rest_b = b
    return (all(np.array_equal(x, y) for x, y in zip(params_a, params_b))
            and all(np.array_equal(x, y) if isinstance(x, np.ndarray)
                    else x == y for x, y in zip(rest_a, rest_b)))


def _skew(text, edit):
    doc = json.loads(text)
    return json.dumps(edit(doc))


@pytest.mark.parametrize("edit", [
    lambda m: {**m, "trainer": [m["trainer"]]},
    lambda m: {**m, "trainer": {**m["trainer"], "step_count": "x"}},
    lambda m: [m],
], ids=["trainer_is_a_list", "step_count_is_a_string", "manifest_is_a_list"])
def test_skewed_manifest_falls_back_bit_for_bit(store, edit):
    """The newest checkpoint is skipped with one problem naming the field
    and step 1 is restored exactly."""
    manifest, _, state = _resume_with(store, _skew(store.good, edit))
    assert manifest["step"] == 1
    (problem,) = manifest["skipped"]["2"]
    assert "ckpt.npz" in problem
    assert _same(state, store.saved[1])


def test_refused_rng_leaves_the_model_untouched(store):
    """RNG states the model cannot take (they pass the declaration: the
    generator's name is a string) refuse the checkpoint before anything
    is restored, so a run that finds no other checkpoint starts fresh."""
    path = store.paths(2)["checkpoint"]
    doc = json.loads(store.good)
    layer = next(iter(doc["rng"]))
    doc["rng"][layer]["bit_generator"] = "MT19937"
    rewrite_manifest(path, json.dumps(doc))
    try:
        model, trainer = _pair(seed=9)
        fresh = _state(model, trainer)
        with pytest.raises(CheckpointCorrupt, match="manifest rng"):
            store.load(model, trainer, 2)
    finally:
        rewrite_manifest(path, store.good)
    assert _same(_state(model, trainer), fresh)


def test_manifest_fuzz(store):
    """Every declared manifest field set to every wrong value: resume_auto
    restores some checkpoint bitwise (step 2 when the skew leaves it
    loadable), or raises CheckpointMismatch with nothing changed, and
    raises nothing else."""
    good = json.loads(store.good)
    for label, doc in skewed(MANIFEST, good):
        out, fresh, state = _resume_with(store, json.dumps(doc))
        if isinstance(out, CheckpointMismatch):
            assert _same(state, fresh), label
            continue
        assert out is not None and out["step"] in (1, 2), label
        assert _same(state, store.saved[out["step"]]), label
        if out["step"] == 1:
            assert out["skipped"]["2"], label
