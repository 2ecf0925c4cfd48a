"""Crash-safe checkpoint store: atomicity, validation, retention, resume."""

import json

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.resilience import (CheckpointCorrupt, CheckpointStore,
                              FaultInjector, FaultPlan, FaultSpec,
                              PeriodicCheckpointer, TornWrite,
                              atomic_write_bytes, use_faults)
from repro.training import OptimizerSpec, make_trainer, train_step


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1, fp16=True)


def _batch(seed, v=80):
    rng = np.random.default_rng(seed)
    return (rng.integers(4, v, (2, 8)), rng.integers(4, v, (2, 8)),
            rng.integers(4, v, (2, 8)))


def _pair(cfg, seed=1):
    model = TransformerModel(cfg, seed=seed)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                           DynamicLossScaler(init_scale=64.0))
    return model, trainer


class TestAtomicWrite:
    def test_writes_bytes_durably(self, tmp_path):
        p = tmp_path / "x.bin"
        atomic_write_bytes(p, b"hello")
        assert p.read_bytes() == b"hello"
        assert not list(tmp_path.glob("*.tmp"))

    def test_torn_fault_leaves_final_name_untouched(self, tmp_path):
        p = tmp_path / "x.bin"
        atomic_write_bytes(p, b"previous good contents")
        inj = FaultInjector(FaultPlan(
            [FaultSpec("checkpoint.write", "torn", fraction=0.25)]))
        with use_faults(inj):
            with pytest.raises(TornWrite):
                atomic_write_bytes(p, b"new contents that get torn")
        assert p.read_bytes() == b"previous good contents"


class TestCheckpointStore:
    def test_save_validate_load_round_trip(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        for s in range(3):
            train_step(model, trainer, _batch(s))
        store = CheckpointStore(tmp_path)
        store.save(model, trainer, step=3, extra={"loop_step": 3})
        assert store.steps() == [3]
        assert store.validate(3) == []

        model2, trainer2 = _pair(cfg, seed=99)          # wrong init on purpose
        manifest = store.load(model2, trainer2, 3)
        assert manifest["extra"]["loop_step"] == 3
        for pa, pb in zip(model.parameters(), model2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert trainer2.step_count == trainer.step_count
        assert trainer2.scaler.scale == trainer.scaler.scale
        # RNG streams restored: identical dropout draws after resume
        assert model.rng_states() == model2.rng_states()

    def test_corrupt_payload_detected_and_refused(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        store.save(model, trainer, step=1)
        mpath = store.paths(1)["model"]
        blob = bytearray(mpath.read_bytes())
        blob[len(blob) // 2] ^= 0xFF                    # flip one byte
        mpath.write_bytes(bytes(blob))
        problems = store.validate(1)
        assert problems and "CRC32" in problems[0]
        with pytest.raises(CheckpointCorrupt, match="step 1"):
            store.load(model, trainer, 1)

    def test_resume_auto_falls_back_past_corrupt(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        train_step(model, trainer, _batch(0))
        store.save(model, trainer, step=1)
        good = {p.name: p.data.copy() for p in model.parameters()}
        train_step(model, trainer, _batch(1))
        store.save(model, trainer, step=2)
        # newest checkpoint torn after commit (e.g. disk corruption)
        tpath = store.paths(2)["trainer"]
        tpath.write_bytes(tpath.read_bytes()[:100])

        model2, trainer2 = _pair(cfg, seed=7)
        manifest = store.resume_auto(model2, trainer2)
        assert manifest is not None and manifest["step"] == 1
        assert "2" in manifest["skipped"]
        for p in model2.parameters():
            np.testing.assert_array_equal(p.data, good[p.name])

    def test_torn_save_never_commits(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        store.save(model, trainer, step=1)
        inj = FaultInjector(FaultPlan(
            [FaultSpec("checkpoint.write", "torn", after=1)]))
        with use_faults(inj):
            with pytest.raises(TornWrite):
                store.save(model, trainer, step=2)
        assert store.steps() == [1]                     # no manifest for 2
        assert store.validate(1) == []                  # previous untouched
        assert [s for s in store.steps() if not store.validate(s)] == [1]

    def test_retention_keeps_newest(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            store.save(model, trainer, step=step)
        assert store.steps() == [3, 4]
        assert not list(tmp_path.glob("step-00000001*"))

    def test_resume_auto_empty_dir(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        assert CheckpointStore(tmp_path).resume_auto(model, trainer) is None

    def test_foreign_manifest_schema_rejected(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        store.save(model, trainer, step=1)
        mpath = store.paths(1)["manifest"]
        manifest = json.loads(mpath.read_text())
        manifest["schema"] = "somebody.else/v9"
        mpath.write_text(json.dumps(manifest))
        problems = store.validate(1)
        assert problems and "schema" in problems[0]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)


class TestPeriodicCheckpointer:
    def test_saves_on_cadence_with_loop_step(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        ck = PeriodicCheckpointer(store, every=2)
        for step in range(1, 6):
            ck.after_step(model, trainer, step=step)
        assert store.steps() == [2, 4]
        assert ck.saves == 2 and ck.overhead_s > 0
        assert store.read_manifest(4)["extra"]["loop_step"] == 4

    def test_bad_cadence_rejected(self, cfg, tmp_path):
        with pytest.raises(ValueError, match="every"):
            PeriodicCheckpointer(CheckpointStore(tmp_path), every=0)
