"""Checkpoint save/load through :class:`CheckpointStore`: payload
round trips, refusals, and exact training-trajectory resume."""

import json

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.training import OptimizerSpec, make_trainer, train_step
from repro.resilience import (CheckpointCorrupt, CheckpointMismatch,
                              CheckpointStore)

from ..ckpt_file import manifest, members, rewrite_manifest


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1, dropout=0.0, attn_dropout=0.0)


def _batch(seed, b=2, l=8, v=80):
    rng = np.random.default_rng(seed)
    return (rng.integers(4, v, (b, l)), rng.integers(4, v, (b, l)),
            rng.integers(4, v, (b, l)))


def _save(tmp_path, model, kind="naive", scaler=None):
    """A store holding ``model`` (and a fresh ``kind`` trainer) at step 1."""
    store = CheckpointStore(tmp_path)
    store.save(model, make_trainer(kind, model, OptimizerSpec(), scaler),
               step=1)
    return store


def _load(store, model, kind="naive", scaler=None):
    trainer = make_trainer(kind, model, OptimizerSpec(), scaler)
    store.load(model, trainer, 1)
    return trainer


class TestModelRoundTrip:
    def test_save_load_identical(self, cfg, tmp_path):
        a = TransformerModel(cfg, seed=1)
        b = TransformerModel(cfg, seed=2)        # different init
        _load(_save(tmp_path, a), b)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_strict_mismatch_rejected(self, cfg, tmp_path):
        store = _save(tmp_path, TransformerModel(cfg, seed=1))
        bigger = TransformerModel(
            cfg.with_overrides(num_encoder_layers=2), seed=1)
        with pytest.raises(CheckpointMismatch, match="missing"):
            _load(store, bigger)

    def test_shape_conflict_rejected(self, cfg, tmp_path):
        store = _save(tmp_path, TransformerModel(cfg, seed=1))
        other = TransformerModel(cfg.with_overrides(ffn_dim=128), seed=1)
        with pytest.raises(CheckpointMismatch, match="has shape"):
            _load(store, other)

    def test_fp16_storage_preserved(self, cfg, tmp_path):
        a = TransformerModel(cfg.with_overrides(fp16=True), seed=1)
        store = _save(tmp_path, a)
        arrays = members(store.paths(1)["checkpoint"])
        params = [k for k in arrays if k.startswith("model/")]
        assert len(params) == len(list(a.parameters()))
        assert all(arrays[k].dtype == np.float16 for k in params)


@pytest.mark.parametrize("kind", ["naive", "apex", "lightseq"])
class TestResumeExactness:
    def test_resume_equals_uninterrupted(self, cfg, tmp_path, kind):
        """train 2 steps, checkpoint, train 2 more == train 4 straight."""
        spec = OptimizerSpec(lr=1e-3)
        cfg16 = cfg.with_overrides(fp16=True)

        ref = TransformerModel(cfg16, seed=5)
        ref_tr = make_trainer(kind, ref, spec)
        for s in range(4):
            train_step(ref, ref_tr, _batch(s))

        part = TransformerModel(cfg16, seed=5)
        part_tr = make_trainer(kind, part, spec)
        for s in range(2):
            train_step(part, part_tr, _batch(s))
        store = CheckpointStore(tmp_path)
        store.save(part, part_tr)

        resumed = TransformerModel(cfg16, seed=123)    # wrong init on purpose
        resumed_tr = make_trainer(kind, resumed, spec)
        store.load(resumed, resumed_tr, 2)
        assert resumed_tr.step_count == 2
        for s in range(2, 4):
            train_step(resumed, resumed_tr, _batch(s))

        for pr, pz in zip(ref.parameters(), resumed.parameters()):
            np.testing.assert_array_equal(
                np.asarray(pr.data), np.asarray(pz.data), err_msg=pr.name)


class TestTrainerState:
    def test_kind_mismatch_rejected(self, cfg, tmp_path):
        store = _save(tmp_path, TransformerModel(cfg, seed=1))
        with pytest.raises(CheckpointMismatch, match="trainer kind"):
            _load(store, TransformerModel(cfg, seed=1), "lightseq")

    def test_scaler_state_round_trip(self, cfg, tmp_path):
        m = TransformerModel(cfg.with_overrides(fp16=True), seed=1)
        scaler = DynamicLossScaler(init_scale=1024)
        scaler.update(overflow=True)                 # scale -> 512
        store = _save(tmp_path, m, "lightseq", scaler)
        m2 = TransformerModel(cfg.with_overrides(fp16=True), seed=1)
        s2 = DynamicLossScaler(init_scale=1024)
        _load(store, m2, "lightseq", s2)
        assert s2.scale == 512
        assert s2.state_dict() == scaler.state_dict()

    def test_workspace_links_survive_load(self, cfg, tmp_path):
        cfg16 = cfg.with_overrides(fp16=True)
        m = TransformerModel(cfg16, seed=1)
        tr = make_trainer("lightseq", m, OptimizerSpec(lr=1e-3))
        train_step(m, tr, _batch(0))
        store = CheckpointStore(tmp_path)
        store.save(m, tr)
        m2 = TransformerModel(cfg16, seed=9)
        tr2 = make_trainer("lightseq", m2, OptimizerSpec(lr=1e-3))
        store.load(m2, tr2, 1)
        for p in m2.parameters():
            assert tr2.workspace.is_linked(p.data), p.name
        # loaded values actually reached the workspace
        l_ref, _ = m.forward(*_batch(42))
        l_new, _ = m2.forward(*_batch(42))
        assert l_ref == pytest.approx(l_new, rel=1e-5)


class TestSchemaStamp:
    """A checkpoint's ``__manifest`` carries the schema tag; a file without
    it, or with another tag, is refused before anything is read."""

    def test_unstamped_file_rejected_clearly(self, cfg, tmp_path):
        m = TransformerModel(cfg, seed=1)
        store = CheckpointStore(tmp_path)
        # a foreign npz under a checkpoint's name: raw arrays, no manifest
        np.savez(store.paths(1)["checkpoint"],
                 **{p.name: np.asarray(p.data) for p in m.parameters()})
        assert store.validate(1) == [
            "step-00000001.ckpt.npz: no __manifest member"]
        with pytest.raises(CheckpointCorrupt, match="no __manifest"):
            _load(store, m)

    def test_wrong_schema_version_rejected(self, cfg, tmp_path):
        store = _save(tmp_path, TransformerModel(cfg, seed=1))
        path = store.paths(1)["checkpoint"]
        doc = manifest(path)
        doc["schema"] = "repro.resilience.checkpoint/v1"
        rewrite_manifest(path, json.dumps(doc))
        (problem,) = store.validate(1)
        assert "'repro.resilience.checkpoint/v1'" in problem
        with pytest.raises(CheckpointCorrupt, match="checkpoint/v1"):
            _load(store, TransformerModel(cfg, seed=1))


class TestShardStamp:
    """A ZeRO-1 trainer's moments cover one shard: the file names it, and
    a trainer owning another shard refuses it."""

    @staticmethod
    def _trained_dp(cfg):
        from repro.training import DataParallel, shard_batch
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                          "lightseq", OptimizerSpec(lr=1e-3), zero1=True)
        for s in range(2):
            dp.train_step(shard_batch(list(_batch(s, b=4)), 2))
        return dp

    def test_other_rank_rejected(self, cfg, tmp_path):
        dp = self._trained_dp(cfg)
        store = CheckpointStore(tmp_path)
        store.save(dp.replicas[1], dp.trainers[1], step=2)
        model = TransformerModel(cfg, seed=5)
        rank0 = make_trainer("zero1", model, OptimizerSpec(lr=1e-3), rank=0,
                             world_size=2)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(CheckpointMismatch, match="trainer shard"):
            store.resume_auto(model, rank0)
        assert rank0.step_count == 0 and not rank0.m.any()
        for a, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(a.data, b)

    def test_sharded_into_unsharded_rejected(self, cfg, tmp_path):
        dp = self._trained_dp(cfg)
        store = CheckpointStore(tmp_path)
        store.save(dp.replicas[0], dp.trainers[0], step=2)
        model = TransformerModel(cfg, seed=5)
        whole = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3))
        with pytest.raises(CheckpointMismatch, match="trainer shard"):
            store.load(model, whole, 2)

    def test_rank0_world2_round_trip(self, cfg, tmp_path):
        """The benchmark's resume check: rank 0 of world 2 restores into a
        fresh rank-0/world-2 twin bit for bit."""
        dp = self._trained_dp(cfg)
        store = CheckpointStore(tmp_path)
        store.save(dp.replicas[0], dp.trainers[0], step=2)
        model = TransformerModel(cfg, seed=9)
        twin = make_trainer("zero1", model, OptimizerSpec(lr=1e-3), rank=0,
                            world_size=2)
        assert store.resume_auto(model, twin) is not None
        ref = dp.trainers[0]
        assert twin.shard == ref.shard and twin.step_count == 2
        assert np.array_equal(twin.m, ref.m)
        assert np.array_equal(twin.v, ref.v)
        for a, b in zip(model.parameters(), dp.replicas[0].parameters()):
            assert np.array_equal(a.data, b.data)
