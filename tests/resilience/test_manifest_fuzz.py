"""Skewed checkpoint manifests: ``resume_auto`` skips, never raises.

A manifest that parses as JSON but has a field of the wrong type is a
corrupt checkpoint like a torn one: ``validate`` reports one "manifest"
problem and ``resume_auto`` falls back to the older valid checkpoint.
"""

import json

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.resilience import CheckpointCorrupt, CheckpointStore
from repro.resilience.checkpoint import MANIFEST
from repro.training import OptimizerSpec, make_trainer, train_step

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
            model.rng_states())


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Checkpoints at steps 1 and 2 (different weights); the state of
    step 1 rides along as ``store.step1``."""
    model, trainer = _pair()
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    rng = np.random.default_rng(0)
    for step in (1, 2):
        batch = tuple(rng.integers(4, 40, (2, 6)) for _ in range(3))
        train_step(model, trainer, batch)
        store.save(model, trainer, step=step, extra={"loop_step": step})
        if step == 1:
            store.step1 = _state(model, trainer)
    store.good = store.paths(2)["manifest"].read_text()
    return store


def _resume_with(store, manifest_text):
    path = store.paths(2)["manifest"]
    path.write_text(manifest_text)
    try:
        model, trainer = _pair(seed=9)
        manifest = store.resume_auto(model, trainer)
    finally:
        path.write_text(store.good)
    return manifest, model, trainer


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
    lambda m: {**m, "files": list(m["files"])},
    lambda m: {**m, "files": {k: {**v, "nbytes": "x"}
                              for k, v in m["files"].items()}},
    lambda m: [m],
], ids=["files_is_a_list", "nbytes_is_a_string", "manifest_is_a_list"])
def test_skewed_manifest_falls_back_bit_for_bit(store, edit):
    """Each of these raised AttributeError or ValueError out of
    ``resume_auto`` before; now the newest checkpoint is skipped with one
    "manifest" problem and step 1 is restored exactly."""
    manifest, model, trainer = _resume_with(store, _skew(store.good, edit))
    assert manifest["step"] == 1
    (problem,) = manifest["skipped"]["2"]
    assert problem.startswith("manifest")
    assert _same(_state(model, trainer), store.step1)


def test_refused_rng_leaves_the_model_untouched(store):
    """RNG states the model cannot take (they pass the declaration: the
    generator's name is a string) refuse the checkpoint before anything
    is restored, so a run that finds no other checkpoint starts fresh."""
    path = store.paths(2)["manifest"]
    doc = json.loads(store.good)
    layer = next(iter(doc["rng"]))
    doc["rng"][layer]["bit_generator"] = "MT19937"
    path.write_text(json.dumps(doc))
    try:
        model, trainer = _pair(seed=9)
        fresh = _state(model, trainer)
        with pytest.raises(CheckpointCorrupt, match="manifest rng"):
            store.load(model, trainer, 2)
    finally:
        path.write_text(store.good)
    assert _same(_state(model, trainer), fresh)


def test_manifest_fuzz(store):
    """Every declared manifest field set to every wrong value: resume_auto
    restores some checkpoint (step 2 when the skew leaves it loadable)
    and never raises."""
    good = json.loads(store.good)
    for label, doc in skewed(MANIFEST, good):
        manifest, _, _ = _resume_with(store, json.dumps(doc))
        assert manifest is not None and manifest["step"] in (1, 2), label
        if manifest["step"] == 1:
            assert manifest["skipped"]["2"], label
