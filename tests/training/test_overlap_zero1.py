"""Overlapped bucketed gradient sync and the ZeRO-1 sharded trainer."""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision.loss_scaler import DynamicLossScaler
from repro.sim.gpu_specs import V100
from repro.training import (DataParallel, OptimizerSpec, make_trainer,
                            shard_batch)
from repro.training.loop import staged_forward_backward


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1, dropout=0.0, attn_dropout=0.0,
                      fp16=False)


def _batch(rng, b=4, l=8, v=80):
    return (rng.integers(4, v, (b, l)), rng.integers(4, v, (b, l)),
            rng.integers(4, v, (b, l)))


def _run_steps(dp, seed=7, steps=3):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        dp.train_step(shard_batch(_batch(rng), dp.world_size))
    return np.concatenate([p.data.reshape(-1)
                           for p in dp.replicas[0].parameters()])


class TestOverlappedSync:
    def test_buckets_cover_model(self, cfg):
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                          "lightseq", OptimizerSpec(lr=1e-3),
                          overlap_grad_sync=True, bucket_bytes=4096)
        total = sum(p.size for p in dp.replicas[0].parameters())
        assert len(dp.buckets) > 1
        assert dp.buckets[0].start == 0
        assert dp.buckets[-1].stop == total

    def test_overlapped_sync_keeps_replicas_identical(self, cfg):
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                          "lightseq", OptimizerSpec(lr=1e-3),
                          overlap_grad_sync=True, bucket_bytes=4096)
        _run_steps(dp)
        assert dp.parameters_in_sync()

    def test_bucketwise_allreduce_averages_gradients(self, cfg):
        """Per-bucket all-reduce yields the exact cross-replica mean (each
        bucket's ring is exact), matching a numpy mean to FP32 tolerance."""
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                          "lightseq", OptimizerSpec(lr=1e-3),
                          overlap_grad_sync=True, bucket_bytes=4096)
        rng = np.random.default_rng(3)
        shards = shard_batch(_batch(rng), 2)
        for t in dp.trainers:
            t.zero_grad()
        for model, shard in zip(dp.replicas, shards):
            staged_forward_backward(model, shard, 1.0)
        expect = np.mean([np.concatenate(
            [p.grad.astype(np.float32).reshape(-1)
             for p in r.parameters()]) for r in dp.replicas], axis=0)
        dp.sync_gradients()
        for r in dp.replicas:
            got = np.concatenate([p.grad.astype(np.float32).reshape(-1)
                                  for p in r.parameters()])
            np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_sync_timeline_hides_comm_only_with_overlap(self, cfg):
        def make(overlap):
            return DataParallel(lambda: TransformerModel(cfg, seed=5), 4,
                                "lightseq", OptimizerSpec(lr=1e-3),
                                overlap_grad_sync=overlap,
                                bucket_bytes=4096)
        backward_s = 0.01
        off = make(False).sync_timeline(V100, backward_s)
        on = make(True).sync_timeline(V100, backward_s)
        assert off.exposed_s == pytest.approx(off.comm_total_s)
        assert on.exposed_s < off.exposed_s         # strictly better
        assert on.hidden_s > 0.0


class TestZeRO1:
    def test_bitwise_matches_unsharded_lightseq(self, cfg):
        ref = _run_steps(DataParallel(
            lambda: TransformerModel(cfg, seed=5), 2, "lightseq",
            OptimizerSpec(lr=1e-3)))
        got = _run_steps(DataParallel(
            lambda: TransformerModel(cfg, seed=5), 2, "lightseq",
            OptimizerSpec(lr=1e-3), zero1=True))
        np.testing.assert_array_equal(ref, got)

    def test_replicas_identical_after_allgather(self, cfg):
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 4,
                          "lightseq", OptimizerSpec(lr=1e-3), zero1=True)
        _run_steps(dp)
        assert dp.parameters_in_sync()

    def test_optimizer_state_sharded(self, cfg):
        full = DataParallel(lambda: TransformerModel(cfg, seed=5), 1,
                            "lightseq", OptimizerSpec(lr=1e-3))
        n = full.trainers[0].workspace.total_elems
        assert full.optimizer_state_bytes() == 8 * n
        for world in (2, 4):
            dp = DataParallel(lambda: TransformerModel(cfg, seed=5), world,
                              "lightseq", OptimizerSpec(lr=1e-3),
                              zero1=True)
            per_rank = dp.optimizer_state_bytes()
            # max shard is within one element of n/world
            assert per_rank <= 8 * (n // world + 1)
            assert sum(t.extra_state_bytes()
                       for t in dp.trainers) == 8 * n
            # the headline claim: (world-1)/world of the state is gone
            saved = 1 - per_rank / (8 * n)
            assert saved == pytest.approx((world - 1) / world, abs=1e-3)

    def test_trainer_shards_tile_workspace(self, cfg):
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 3,
                          "lightseq", OptimizerSpec(lr=1e-3), zero1=True)
        n = dp.trainers[0].workspace.total_elems
        spans = [t.shard for t in dp.trainers]
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo

    def test_requires_lightseq_trainer(self, cfg):
        with pytest.raises(ValueError):
            DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                         "naive", OptimizerSpec(lr=1e-3), zero1=True)

    def test_make_trainer_zero1_kind(self, cfg):
        t = make_trainer("zero1", TransformerModel(cfg, seed=5),
                         OptimizerSpec(lr=1e-3), rank=1, world_size=4)
        assert t.world_size == 4
        lo, hi = t.shard
        assert t.extra_state_bytes() == 8 * (hi - lo)
        with pytest.raises(ValueError):
            make_trainer("zero1", TransformerModel(cfg, seed=5),
                         OptimizerSpec(lr=1e-3), rank=4, world_size=4)
        with pytest.raises(ValueError):
            make_trainer("naive", TransformerModel(cfg, seed=5),
                         OptimizerSpec(lr=1e-3), rank=0, world_size=2)


class TestScalerAgreement:
    def test_overflow_override_skips_without_local_check(self, cfg):
        model = TransformerModel(cfg, seed=5)
        t = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                         DynamicLossScaler(init_scale=4.0))
        t.zero_grad()
        before = t.workspace.params.copy()
        assert not t.step(overflow_override=True)    # forced global skip
        assert t.skipped_steps == 1
        assert t.scaler.scale == 2.0                 # policy still advanced
        np.testing.assert_array_equal(t.workspace.params, before)

    def test_zero1_ranks_agree_on_skip(self, cfg):
        """If any rank's shard overflows, every rank skips — scales and
        parameters stay in sync."""
        dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                          "lightseq", OptimizerSpec(lr=1e-3),
                          scaler_factory=lambda: DynamicLossScaler(
                              init_scale=4.0), zero1=True)
        rng = np.random.default_rng(3)
        shards = shard_batch(_batch(rng), 2)
        for trainer in dp.trainers:
            trainer.zero_grad()
        for model, shard in zip(dp.replicas, shards):
            staged_forward_backward(model, shard, 1.0)
        # poison ONE rank's shard only, post-sync: inject after reduce
        dp.sync_gradients()
        lo, hi = dp.trainers[0].shard
        dp.trainers[0].workspace.grads[lo] = np.inf
        overflow = dp._global_overflow()
        assert overflow
        for trainer in dp.trainers:
            assert not trainer.step(grad_scale=1.0,
                                    overflow_override=overflow)
        assert {t.scaler.scale for t in dp.trainers} == {2.0}
        assert dp.parameters_in_sync()
