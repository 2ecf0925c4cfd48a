"""Checkpoint save/load: exact training-trajectory resume."""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.training import OptimizerSpec, make_trainer, train_step
from repro.resilience import CheckpointStore
from repro.training.serialization import (load_model, load_trainer,
                                          save_model, save_trainer)


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


class TestModelRoundTrip:
    def test_save_load_identical(self, cfg, tmp_path):
        a = TransformerModel(cfg, seed=1)
        b = TransformerModel(cfg, seed=2)        # different init
        save_model(a, tmp_path / "m.npz")
        load_model(b, tmp_path / "m.npz")
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_strict_mismatch_rejected(self, cfg, tmp_path):
        a = TransformerModel(cfg, seed=1)
        bigger = TransformerModel(
            cfg.with_overrides(num_encoder_layers=2), seed=1)
        save_model(a, tmp_path / "m.npz")
        with pytest.raises(ValueError, match="mismatch"):
            load_model(bigger, tmp_path / "m.npz")
        # non-strict loads the intersection
        load_model(bigger, tmp_path / "m.npz", strict=False)

    def test_shape_conflict_rejected(self, cfg, tmp_path):
        a = TransformerModel(cfg, seed=1)
        save_model(a, tmp_path / "m.npz")
        other = TransformerModel(
            cfg.with_overrides(ffn_dim=128), seed=1)
        with pytest.raises(ValueError):
            load_model(other, tmp_path / "m.npz", strict=False)

    def test_fp16_storage_preserved(self, cfg, tmp_path):
        a = TransformerModel(cfg.with_overrides(fp16=True), seed=1)
        save_model(a, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            assert all(data[k].dtype == np.float16
                       for k in data.files if k != "__meta")


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
        m = TransformerModel(cfg, seed=1)
        tr = make_trainer("naive", m, OptimizerSpec())
        save_trainer(tr, tmp_path / "t.npz")
        tr2 = make_trainer("lightseq", TransformerModel(cfg, seed=1),
                           OptimizerSpec())
        with pytest.raises(ValueError, match="kind mismatch"):
            load_trainer(tr2, tmp_path / "t.npz")

    def test_scaler_state_round_trip(self, cfg, tmp_path):
        m = TransformerModel(cfg.with_overrides(fp16=True), seed=1)
        scaler = DynamicLossScaler(init_scale=1024)
        scaler.update(overflow=True)                 # scale -> 512
        tr = make_trainer("lightseq", m, OptimizerSpec(), scaler)
        save_trainer(tr, tmp_path / "t.npz")
        m2 = TransformerModel(cfg.with_overrides(fp16=True), seed=1)
        s2 = DynamicLossScaler(init_scale=1024)
        tr2 = make_trainer("lightseq", m2, OptimizerSpec(), s2)
        load_trainer(tr2, tmp_path / "t.npz")
        assert s2.scale == 512

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
    """Every payload carries a schema stamp; loaders check it first."""

    def test_unstamped_file_rejected_clearly(self, cfg, tmp_path):
        m = TransformerModel(cfg, seed=1)
        # simulate a pre-schema checkpoint: raw arrays, no __meta
        np.savez(tmp_path / "old.npz",
                 **{p.name: np.asarray(p.data) for p in m.parameters()})
        with pytest.raises(ValueError, match="no __meta stamp"):
            load_model(m, tmp_path / "old.npz")

    def test_wrong_schema_version_rejected(self, cfg, tmp_path):
        import json
        m = TransformerModel(cfg, seed=1)
        meta = np.frombuffer(
            json.dumps({"schema": 99, "payload": "model"}).encode(),
            dtype=np.uint8)
        np.savez(tmp_path / "future.npz", __meta=meta,
                 **{p.name: np.asarray(p.data) for p in m.parameters()})
        with pytest.raises(ValueError, match="schema 99"):
            load_model(m, tmp_path / "future.npz")

    def test_swapped_payloads_named_in_error(self, cfg, tmp_path):
        m = TransformerModel(cfg, seed=1)
        tr = make_trainer("lightseq", m, OptimizerSpec())
        save_model(m, tmp_path / "m.npz")
        save_trainer(tr, tmp_path / "t.npz")
        with pytest.raises(ValueError, match="'trainer' checkpoint"):
            load_model(m, tmp_path / "t.npz")
        with pytest.raises(ValueError, match="'model' checkpoint"):
            load_trainer(tr, tmp_path / "m.npz")

    def test_file_objects_round_trip(self, cfg, tmp_path):
        import io
        m = TransformerModel(cfg, seed=1)
        tr = make_trainer("lightseq", m, OptimizerSpec())
        buf = io.BytesIO()
        save_model(m, buf)
        buf.seek(0)
        m2 = TransformerModel(cfg, seed=2)
        load_model(m2, buf)
        for pa, pb in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


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
        save_trainer(dp.trainers[1], tmp_path / "t.npz")
        rank0 = make_trainer("zero1", TransformerModel(cfg, seed=5),
                             OptimizerSpec(lr=1e-3), rank=0, world_size=2)
        with pytest.raises(ValueError, match="shard mismatch"):
            load_trainer(rank0, tmp_path / "t.npz")
        assert rank0.step_count == 0 and not rank0.m.any()

    def test_sharded_into_unsharded_rejected(self, cfg, tmp_path):
        dp = self._trained_dp(cfg)
        save_trainer(dp.trainers[0], tmp_path / "t.npz")
        whole = make_trainer("lightseq", TransformerModel(cfg, seed=5),
                             OptimizerSpec(lr=1e-3))
        with pytest.raises(ValueError, match="shard mismatch"):
            load_trainer(whole, tmp_path / "t.npz")

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
