"""Concurrent data-parallel ranks: one host thread per simulated GPU.

``DataParallel`` runs every rank's forward/backward and optimizer step on
a host thread of its own.  These tests hold it to a hand-serial twin built from the
public pieces (bitwise, state and kernel trace), and pin how exceptions,
spans and the two refused process-wide observers behave.
"""

import gc
import threading

import numpy as np
import pytest

from repro.backend import workers
from repro.backend.device import Device, current_device, use_device
from repro.backend.kernels import flash
from repro.backend.program import CaptureSession, capturing
from repro.config import get_config
from repro.models import TransformerModel
from repro.obs import NumericsCollector, SpanRecorder, use_collector
from repro.obs.spans import use_recorder
from repro.precision import DynamicLossScaler
from repro.sim.comm import ring_allgather
from repro.training import DataParallel, OptimizerSpec, shard_batch
from repro.training.data_parallel import ConcurrentRanksRefused
from repro.training.loop import staged_forward_backward

STEPS = 3
MODES = {"plain": {}, "overlap": {"overlap_grad_sync": True},
         "zero1": {"zero1": True}}


def _cfg(fp16):
    # dropout on: every replica draws from its own RNG streams
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1, dropout=0.1, attn_dropout=0.1,
                      fp16=fp16)


def _make_dp(world, fp16, mode):
    cfg = _cfg(fp16)
    return DataParallel(
        lambda: TransformerModel(cfg, seed=5), world, "lightseq",
        OptimizerSpec(lr=1e-3),
        scaler_factory=(lambda: DynamicLossScaler(init_scale=2.0 ** 10))
        if fp16 else None,
        bucket_bytes=4096, **MODES[mode])


def _shards(step, world):
    rng = np.random.default_rng(100 + step)
    batch = [rng.integers(4, 80, (8, 8)) for _ in range(3)]
    return shard_batch(batch, world)


def _serial_step(dp, shards):
    """``DataParallel.train_step`` with the ranks run one after another,
    from public pieces only."""
    world = dp.world_size
    for trainer in dp.trainers:
        trainer.zero_grad()
    scaler = dp.trainers[0].scaler
    scale = scaler.scale if scaler is not None else 1.0
    total_loss, total_tokens = 0.0, 0
    for model, shard in zip(dp.replicas, shards):
        loss, ntok = staged_forward_backward(model, shard, scale)
        total_loss += loss
        total_tokens += ntok
    dp.sync_gradients()
    gs = 1.0 / (scale * max(total_tokens, 1)) * world
    overflow = None
    if dp.zero1 and scaler is not None:
        overflow = any(
            t.scaler.check_overflow([t.flat_grad()[slice(*t.shard)]])
            for t in dp.trainers)
    for trainer in dp.trainers:
        trainer.step(grad_scale=gs, overflow_override=overflow)
    if dp.zero1:                 # the parameter all-gather, recorded alike
        slabs = [t.workspace.params for t in dp.trainers]
        ring_allgather(slabs)
        dev = current_device()
        with dev.stage_scope("sync"):
            dev.record("allgather_params", slabs[0].size,
                       slabs[0].size * world,
                       dtype_bytes=slabs[0].dtype.itemsize,
                       family="reduction")
    return total_loss, total_tokens


def _state(dp):
    """Everything a step can move, per rank."""
    out = []
    for model, trainer in zip(dp.replicas, dp.trainers):
        out.append((
            [p.data.copy() for p in model.parameters()],
            trainer.m.copy(), trainer.v.copy(), trainer.step_count,
            dict(vars(trainer.scaler)) if trainer.scaler else None))
    return out


def _assert_same_state(a, b):
    assert len(a) == len(b)
    for (pa, ma, va, na, sa), (pb, mb, vb, nb, sb) in zip(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(pa, pb))
        assert np.array_equal(ma, mb) and np.array_equal(va, vb)
        assert na == nb and sa == sb


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("fp16", [False, True], ids=["fp32", "fp16"])
@pytest.mark.parametrize("world", [2, 4])
def test_concurrent_step_is_bitwise_the_serial_twin(world, fp16, mode):
    dp, twin = _make_dp(world, fp16, mode), _make_dp(world, fp16, mode)
    for step in range(STEPS):
        shards = _shards(step, world)
        assert dp.train_step(shards) == _serial_step(twin, shards)
        _assert_same_state(_state(dp), _state(twin))
    assert dp.parameters_in_sync()


@pytest.mark.parametrize("mode", ["plain", "zero1"])
def test_trace_is_the_serial_twins_in_order(mode):
    world = 4
    dp, twin = _make_dp(world, True, mode), _make_dp(world, True, mode)
    dev, twin_dev = Device(), Device()
    rng = np.random.default_rng(3)
    for step in range(2):
        # rank r gets r + 1 rows, so launches tell the ranks apart
        shards = [tuple(rng.integers(4, 80, (r + 1, 8)) for _ in range(3))
                  for r in range(world)]
        with use_device(dev):
            dp.train_step(shards)
        with use_device(twin_dev):
            _serial_step(twin, shards)

    def rows(d):
        return [(k.name, k.stage, k.elems_read, k.elems_written, k.flops,
                 k.dtype_bytes) for k in d.launches]

    assert len(dev.launches) > 100
    assert rows(dev) == rows(twin_dev)
    assert dev.launches == twin_dev.launches


def test_tiled_attention_ranks_split_flash_on_the_kernel_workers(
        monkeypatch):
    """Both ranks' multi-tile flash launches share the kernel workers: rank
    threads are callers of :func:`repro.backend.workers.run_parts` too,
    and world 2 stays bitwise the serial twin."""
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    monkeypatch.setattr(flash, "_MIN_RANGE_ELEMS", 1)
    cfg = _cfg(False).with_overrides(attn_impl="tiled", attn_tile_q=4,
                                     attn_tile_k=4)

    def make():
        return DataParallel(lambda: TransformerModel(cfg, seed=5), 2,
                            "lightseq", OptimizerSpec(lr=1e-3),
                            bucket_bytes=4096)

    dp, twin = make(), make()
    for step in range(STEPS):
        shards = _shards(step, 2)       # L = 8: two tiles per axis
        assert dp.train_step(shards) == _serial_step(twin, shards)
        _assert_same_state(_state(dp), _state(twin))
    assert "kernel/worker1" in {t.name for t in threading.enumerate()}


def test_microbatched_step_traces_like_world_one():
    """The micro-batch loop runs per rank; its launches still arrive in
    global micro-batch order, so world 2 records world 1's trace."""
    traces = []
    for world in (1, 2):
        dp = _make_dp(world, False, "plain")
        dev = Device()
        micro = _shards(0, 4)
        with use_device(dev):
            dp.train_step_microbatched(micro)
        traces.append([k for k in dev.launches
                       if k.stage in ("forward", "backward")])
    assert len(traces[0]) > 100
    assert traces[0] == traces[1]


@pytest.mark.parametrize("failing", [(1,), (1, 2), (0, 3)])
def test_rank_exception_is_raised_after_every_rank_finishes(failing):
    dp = _make_dp(4, False, "plain")

    def boom(rank):
        def forward(*args):
            raise RuntimeError(f"rank {rank} failed")
        return forward

    for rank in failing:
        dp.replicas[rank].forward = boom(rank)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"rank {min(failing)} failed"):
        dp.train_step(_shards(0, 4))
    assert threading.active_count() == before


def test_worker_ranks_run_on_their_own_threads():
    dp = _make_dp(2, False, "plain")
    rec = SpanRecorder()
    with use_recorder(rec):
        dp.train_step(_shards(0, 2))
    (step,) = rec.by_name("dp/step")
    (rank0,) = rec.by_name("dp/rank0")
    (rank1,) = rec.by_name("dp/rank1")
    assert rank0.tid == step.tid
    assert rank1.tid != step.tid


def test_rank_threads_live_and_die_with_the_data_parallel():
    before = set(threading.enumerate())
    dp = _make_dp(4, False, "plain")
    threads = {t.name: t for t in set(threading.enumerate()) - before}
    assert sorted(threads) == ["dp/rank1", "dp/rank2", "dp/rank3"]
    dp.drop_rank(1)                         # the last rank's thread stops
    stopped = threads.pop("dp/rank3")
    stopped.join(timeout=10)
    assert not stopped.is_alive()
    dp.train_step(_shards(0, 3))
    assert all(t.is_alive() for t in threads.values())
    del dp
    gc.collect()
    for t in threads.values():
        t.join(timeout=10)
        assert not t.is_alive()


def test_worker_ranks_inherit_the_callers_errstate():
    dp = _make_dp(4, False, "plain")
    with np.errstate(over="raise", under="ignore"):
        seen = dp._each_rank(lambda rank: np.geterr())
    assert [(e["over"], e["under"]) for e in seen] \
        == [("raise", "ignore")] * 4


def _params(dp):
    return [p.data.copy() for p in dp.replicas[0].parameters()]


def test_step_under_a_capture_session_is_refused():
    dp = _make_dp(2, False, "plain")
    before = _params(dp)
    with capturing(CaptureSession()):
        with pytest.raises(ConcurrentRanksRefused, match="capture"):
            dp.train_step(_shards(0, 2))
        with pytest.raises(ConcurrentRanksRefused, match="capture"):
            dp.train_step_microbatched(_shards(0, 2))
    assert all(np.array_equal(a, b) for a, b in zip(before, _params(dp)))
    assert dp.step_no == 0


def test_step_under_a_numerics_collector_is_refused():
    dp = _make_dp(2, False, "plain")
    before = _params(dp)
    with use_collector(NumericsCollector(every=1)):
        with pytest.raises(ConcurrentRanksRefused, match="numerics"):
            dp.train_step(_shards(0, 2))
    assert issubclass(ConcurrentRanksRefused, ValueError)
    assert all(np.array_equal(a, b) for a, b in zip(before, _params(dp)))
    dp.train_step(_shards(0, 2))            # fine once it is gone
