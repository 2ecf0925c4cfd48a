"""Data parallelism: replica sync, equivalence to single-device training."""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.training import (DataParallel, NaiveMPTrainer, OptimizerSpec,
                            make_trainer, shard_batch, train_step)
from repro.training.loop import staged_forward_backward


@pytest.fixture
def cfg():
    # dropout off so single-device and sharded runs are comparable
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1, dropout=0.0, attn_dropout=0.0)


def _batch(rng, b=4, l=8, v=80):
    return (rng.integers(4, v, (b, l)), rng.integers(4, v, (b, l)),
            rng.integers(4, v, (b, l)))


def test_shard_batch():
    arrays = [np.arange(8).reshape(4, 2), np.arange(4)]
    shards = shard_batch(arrays, 2)
    assert len(shards) == 2
    np.testing.assert_array_equal(shards[0][0], arrays[0][:2])
    np.testing.assert_array_equal(shards[1][1], arrays[1][2:])
    with pytest.raises(ValueError):
        shard_batch([np.zeros((1, 2))], 2)


def test_replicas_start_identical(cfg):
    dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                      "naive", OptimizerSpec(lr=1e-3))
    assert dp.parameters_in_sync()


def test_mismatched_factory_rejected(cfg):
    seeds = iter([1, 2])

    def factory():
        return TransformerModel(cfg, seed=next(seeds))

    with pytest.raises(ValueError):
        DataParallel(factory, 2, "naive", OptimizerSpec())


@pytest.mark.parametrize("trainer_kind", ["naive", "lightseq"])
def test_replicas_stay_in_sync(cfg, rng, trainer_kind):
    dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                      trainer_kind, OptimizerSpec(lr=1e-3))
    for step in range(3):
        batch = _batch(np.random.default_rng(step))
        shards = shard_batch(list(batch), 2)
        loss, ntok = dp.train_step(shards)
        assert loss > 0 and ntok > 0
    assert dp.parameters_in_sync()


def test_matches_single_device(cfg, rng):
    """2-way DP on a batch == 1 device on the whole batch (same math).

    Uses SGD: the update is linear in the gradient, so the only difference
    is FP32 reassociation of the per-shard partial sums (~1e-6).  (Adam
    amplifies reassociation noise on near-zero gradients to O(lr) because
    its step-1 update is ~lr*sign(g), which would test the optimizer, not
    the data parallelism.)
    """
    batch = _batch(rng, b=4)
    spec = OptimizerSpec(kind="sgd", lr=1e-2)

    single = TransformerModel(cfg, seed=5)
    tr = NaiveMPTrainer(single, spec)
    tr.zero_grad()
    loss_s, ntok_s = staged_forward_backward(single, batch, 1.0)
    tr.step(grad_scale=1.0 / ntok_s)

    dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                      "naive", spec)
    loss_d, ntok_d = dp.train_step(shard_batch(list(batch), 2))

    assert ntok_d == ntok_s
    assert loss_d == pytest.approx(loss_s, rel=1e-5)
    for ps, pd in zip(single.parameters(), dp.replicas[0].parameters()):
        np.testing.assert_allclose(np.asarray(ps.data),
                                   np.asarray(pd.data), atol=1e-6,
                                   err_msg=ps.name)


def test_loss_scale_matches_train_step(cfg):
    """A world-1 FP16 DataParallel with a loss scaler takes train_step's
    exact steps: backward on the scaled loss, ``1/scale`` folded into the
    update — parameters, Adam moments and scaler state bit-identical."""
    c = cfg.with_overrides(fp16=True)
    spec = OptimizerSpec(lr=1e-3)

    def scaler():
        return DynamicLossScaler(init_scale=2.0 ** 15)

    twin = TransformerModel(c, seed=5)
    ref = make_trainer("lightseq", twin, spec, scaler())
    dp = DataParallel(lambda: TransformerModel(c, seed=5), 1, "lightseq",
                      spec, scaler_factory=scaler)
    for step in range(3):
        batch = _batch(np.random.default_rng(step))
        train_step(twin, ref, batch)
        dp.train_step([batch])
    got = dp.trainers[0]
    assert got.scaler.state_dict() == ref.scaler.state_dict()
    for a, b in zip([p.data for p in dp.replicas[0].parameters()]
                    + [got.m, got.v],
                    [p.data for p in twin.parameters()] + [ref.m, ref.v]):
        assert np.array_equal(a, b)


def test_sync_gradients_averages(cfg, rng):
    dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                      "naive", OptimizerSpec())
    # give the replicas different gradients by hand
    for i, r in enumerate(dp.replicas):
        for p in r.parameters():
            p.grad[...] = float(i + 1)
    dp.sync_gradients()
    for r in dp.replicas:
        for p in r.parameters():
            np.testing.assert_allclose(np.asarray(p.grad), 1.5, atol=1e-6)


#: sync modes of the cross-path test; "naive" cannot shard, so its ZeRO-1
#: reference is the plain all-reduce (the reduce-scatter shares its exact
#: reduction schedule, so every owned shard must match it bitwise)
SYNC_MODES = {
    "plain": {},
    "overlap": {"overlap_grad_sync": True, "bucket_bytes": 4096},
    "zero1": {"zero1": True},
}


@pytest.mark.parametrize("fp16", [False, True], ids=["fp32", "fp16"])
@pytest.mark.parametrize("mode", sorted(SYNC_MODES))
def test_inplace_sync_matches_gathered_copy(cfg, rng, monkeypatch, mode,
                                            fp16):
    """The workspace trainer's in-place sync == the per-tensor trainer's
    gather/scatter sync, bit for bit; in FP32 the ring reduces the
    workspace itself."""
    from repro.training import data_parallel as dp_mod
    c = cfg.with_overrides(fp16=fp16)
    opts = SYNC_MODES[mode]
    ls = DataParallel(lambda: TransformerModel(c, seed=5), 2, "lightseq",
                      OptimizerSpec(), **opts)
    ref = DataParallel(lambda: TransformerModel(c, seed=5), 2, "naive",
                       OptimizerSpec(),
                       **{k: v for k, v in opts.items() if k != "zero1"})
    shards = shard_batch(list(_batch(rng)), 2)
    for dp in (ls, ref):
        for trainer in dp.trainers:
            trainer.zero_grad()
        for model, shard in zip(dp.replicas, shards):
            staged_forward_backward(model, shard, 1.0)

    reduced = []
    for name in ("ring_allreduce", "ring_reduce_scatter"):
        def spy(buffers, *args, _op=getattr(dp_mod, name), **kwargs):
            reduced.append(list(buffers))
            return _op(buffers, *args, **kwargs)
        monkeypatch.setattr(dp_mod, name, spy)
    ls.sync_gradients()
    monkeypatch.undo()
    ref.sync_gradients()

    assert reduced
    if not fp16:
        for buffers in reduced:
            for r, buf in enumerate(buffers):
                assert np.shares_memory(buf, ls.trainers[r].workspace.grads)
    for r in range(2):
        got = np.concatenate([p.grad.reshape(-1)
                              for p in ls.replicas[r].parameters()])
        want = np.concatenate([p.grad.reshape(-1)
                               for p in ref.replicas[r].parameters()])
        assert got.dtype == want.dtype == (np.float16 if fp16
                                           else np.float32)
        lo, hi = ls.trainers[r].shard
        assert np.array_equal(got[lo:hi], want[lo:hi])
        if mode != "zero1":
            assert (lo, hi) == (0, got.size)


def test_wrong_shard_count(cfg, rng):
    dp = DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                      "naive", OptimizerSpec())
    with pytest.raises(ValueError):
        dp.train_step([_batch(rng)])
