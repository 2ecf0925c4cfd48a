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

from ..ckpt_file import manifest, rewrite_manifest


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
        path = store.paths(1)["checkpoint"]
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF                    # flip one byte
        path.write_bytes(bytes(blob))
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
        path = store.paths(2)["checkpoint"]
        path.write_bytes(path.read_bytes()[:100])

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
            [FaultSpec("checkpoint.write", "torn", fraction=0.5)]))
        with use_faults(inj):
            with pytest.raises(TornWrite):
                store.save(model, trainer, step=2)
        assert store.steps() == [1]                     # no file for 2
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
        path = store.paths(1)["checkpoint"]
        doc = manifest(path)
        doc["schema"] = "somebody.else/v9"
        rewrite_manifest(path, json.dumps(doc))
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
        assert manifest(store.paths(4)["checkpoint"])["extra"] == {
            "loop_step": 4}

    def test_bad_cadence_rejected(self, cfg, tmp_path):
        with pytest.raises(ValueError, match="every"):
            PeriodicCheckpointer(CheckpointStore(tmp_path), every=0)


class TestOneFile:
    def test_one_save_is_one_atomic_write_of_one_file(self, cfg, tmp_path,
                                                      monkeypatch):
        from repro.resilience import checkpoint
        writes = []
        real = checkpoint.atomic_write_bytes
        monkeypatch.setattr(checkpoint, "atomic_write_bytes",
                            lambda path, data: (writes.append(path),
                                                real(path, data)))
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        path = store.save(model, trainer, step=5)
        assert writes == [path]
        assert [p.name for p in tmp_path.iterdir()] == [
            "step-00000005.ckpt.npz"]
        assert list(store.paths(5).values()) == [path]

    def test_torn_temp_is_cleared_by_the_next_save(self, cfg, tmp_path):
        model, trainer = _pair(cfg)
        store = CheckpointStore(tmp_path)
        with use_faults(FaultInjector(FaultPlan(
                [FaultSpec("checkpoint.write", "torn", fraction=0.3)]))):
            with pytest.raises(TornWrite):
                store.save(model, trainer, step=1)
        assert [p.suffix for p in tmp_path.iterdir()] == [".tmp"]
        store.save(model, trainer, step=2)
        assert [p.name for p in tmp_path.iterdir()] == [
            "step-00000002.ckpt.npz"]

    def test_three_file_layout_is_not_read(self, cfg, tmp_path):
        """Checkpoints of the old layout (two payloads and a JSON
        manifest per step) are neither listed nor loaded, nor deleted."""
        old = ["step-00000002.model.npz", "step-00000002.trainer.npz",
               "step-00000002.manifest.json"]
        for name in old:
            (tmp_path / name).write_bytes(b"{}")
        store = CheckpointStore(tmp_path)
        assert store.steps() == []
        assert store.resume_auto(*_pair(cfg)) is None
        store.save(*_pair(cfg), step=3)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            old + ["step-00000003.ckpt.npz"])


def _snapshot(model, trainer):
    """Everything a load may write: parameters, RNG streams, moments and
    masters, counters, loss-scaler state."""
    arrays = [p.data.copy() for p in model.parameters()]
    for name in ("m", "v", "masters"):
        value = getattr(trainer, name, None)
        if value is not None:
            arrays += [np.array(a) for a in
                       (value if isinstance(value, list) else [value])]
    scaler = trainer.scaler.state_dict() if trainer.scaler else None
    return (arrays, model.rng_states(), trainer.step_count,
            trainer.skipped_steps, scaler)


def _same(a, b):
    return (len(a[0]) == len(b[0])
            and all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
            and a[1:] == b[1:])


def _refusal(name, cfg):
    """(saved model, saved trainer, fresh model, fresh trainer, error,
    message) of one refusal."""
    from repro.resilience import CheckpointMismatch
    spec = OptimizerSpec(lr=1e-3)
    if name in ("other_rank", "sharded_into_unsharded"):
        from repro.training import DataParallel, shard_batch
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                          "lightseq", spec, zero1=True)
        for s in range(2):
            rng = np.random.default_rng(s)
            dp.train_step(shard_batch(
                [rng.integers(4, 80, (4, 8)) for _ in range(3)], 2))
        model = TransformerModel(cfg, seed=9)
        if name == "other_rank":
            return (dp.replicas[1], dp.trainers[1], model,
                    make_trainer("zero1", model, spec, rank=0, world_size=2),
                    CheckpointMismatch, "shard")
        return (dp.replicas[0], dp.trainers[0], model,
                make_trainer("lightseq", model, spec), CheckpointMismatch,
                "shard")
    if name == "kind":
        model = TransformerModel(cfg, seed=9)
        return (*_pair(cfg), model,
                make_trainer("naive", model, spec,
                             DynamicLossScaler(init_scale=64.0)),
                CheckpointMismatch, "kind")
    if name == "scaler":
        model = TransformerModel(cfg, seed=9)
        return (*_pair(cfg), model, make_trainer("lightseq", model, spec),
                CheckpointMismatch, "loss scaler")
    if name == "refused_rng":
        return (*_pair(cfg), *_pair(cfg, seed=9), CheckpointCorrupt,
                "manifest rng")
    # name and shape checks: per-tensor trainers, whose layout follows
    # the model's parameters
    small = cfg
    big = {"missing_parameter": cfg.with_overrides(num_encoder_layers=2),
           "extra_parameter": cfg, "wrong_shape": cfg.with_overrides(
               ffn_dim=128)}[name]
    if name == "extra_parameter":
        small, big = cfg.with_overrides(num_encoder_layers=2), cfg
    saved = TransformerModel(small, seed=1)
    fresh = TransformerModel(big, seed=9)
    message = {"missing_parameter": "missing \\['model/",
               "extra_parameter": "unexpected \\['model/",
               "wrong_shape": "has shape"}[name]
    return (saved, make_trainer("naive", saved, spec), fresh,
            make_trainer("naive", fresh, spec), CheckpointMismatch, message)


@pytest.mark.parametrize("name", [
    "kind", "other_rank", "sharded_into_unsharded", "missing_parameter",
    "extra_parameter", "wrong_shape", "scaler", "refused_rng"])
def test_refused_checkpoint_changes_nothing(cfg, tmp_path, name):
    """Every refusal leaves the model's parameters and RNG streams and the
    trainer's moments, counters and loss scaler bitwise as they were.
    (A ZeRO-1 rank-1 checkpoint resumed into rank 0 once overwrote every
    parameter before the shard check refused it.)"""
    model, trainer, fresh, fresh_trainer, error, match = _refusal(name, cfg)
    store = CheckpointStore(tmp_path)
    path = store.save(model, trainer, step=3)
    if name == "refused_rng":
        doc = manifest(path)
        doc["rng"][next(iter(doc["rng"]))]["bit_generator"] = "MT19937"
        rewrite_manifest(path, json.dumps(doc))
    before = _snapshot(fresh, fresh_trainer)
    with pytest.raises(error, match=match):
        store.load(fresh, fresh_trainer, 3)
    assert _same(_snapshot(fresh, fresh_trainer), before)
    if error is CheckpointCorrupt:              # skipped: nothing to resume
        assert store.resume_auto(fresh, fresh_trainer) is None
    else:                                       # refused, not skipped
        with pytest.raises(error, match=match):
            store.resume_auto(fresh, fresh_trainer)
    assert _same(_snapshot(fresh, fresh_trainer), before)
