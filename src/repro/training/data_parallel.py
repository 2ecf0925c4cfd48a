"""Data-parallel training (Fig. 3): replicas + real ring all-reduce.

Simulates N-GPU data parallelism in-process: N model replicas built from
the same seed (so initial states match, as DDP guarantees via broadcast),
each computes forward/backward on its shard of the batch, gradients are
averaged with the real chunked ring all-reduce from :mod:`repro.sim.comm`,
and every replica's trainer applies the same update — after which all
replicas hold identical parameters, which tests assert.

The ring reduces each trainer's own :meth:`~repro.training.trainer.
TrainerBase.flat_grad`: in FP32 the LightSeq2 gradient workspace itself, in
place (§3.2, Fig. 7; FP16 is widened and narrowed back once), and a
gathered copy for the per-tensor baselines.

Two orthogonal extensions ride on the contiguous gradient workspace:

* ``overlap_grad_sync`` — the flat gradient buffer is partitioned into
  parameter-aligned DDP buckets, and each bucket's ring all-reduce is
  launched (in reverse workspace order, the order backward produces
  gradients) as soon as its gradients are complete.  Data movement here is
  per-bucket; the hidden/exposed *time* split comes from
  :func:`repro.sim.timeline.overlap_schedule` via :meth:`sync_timeline`.
* ``zero1`` — ZeRO stage-1: gradients are ring reduce-scattered so each
  replica receives only its shard, the fused Adam update runs on that
  shard alone (sharded ``m``/``v``), and updated parameters are ring
  all-gathered.  Because the reduce-scatter shares the all-reduce's exact
  reduction schedule and the fused update is elementwise, trajectories are
  bit-identical to the unsharded trainer at the same world size.

The sync *time* for the Fig.-11 experiment comes from the alpha–beta model
in :mod:`repro.sim.comm`; the data movement here is for correctness.

The replicas compute at the same time, as N GPUs do: every per-rank part
of a step (forward/backward, the micro-batch loop, the optimizer step) runs
on one host thread per simulated GPU (:meth:`DataParallel._each_rank`);
numpy releases the GIL inside its kernels, so the ranks overlap.  Only the
cross-rank parts (zero-grad, the overflow agreement, the collectives) run
serially, in rank order.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..backend.device import Device, current_device, use_device
from ..backend.program import CAPTURE
from ..backend.workers import run_parts, start_worker, stop_workers
from ..layers.base import Layer
from ..obs.numerics import COLLECTORS
from ..obs.spans import span
from ..resilience.faults import ReplicaCrash, current_injector
from ..resilience.recovery import (CommRetryStats, RetryPolicy,
                                   retry_collective)
from ..sim.comm import (DDP_BUCKET_BYTES, GradBucket, deterministic_allreduce,
                        partition_buckets, reduce_scatter_seconds,
                        ring_allgather, ring_allreduce, ring_allreduce_seconds,
                        ring_reduce_scatter, shard_bounds)
from ..sim.gpu_specs import GPUSpec
from ..sim.timeline import (BucketSchedule, overlap_schedule,
                            with_extra_exposed)
from .loop import staged_forward_backward
from .optimizers import OptimizerSpec
from .trainer import TrainerBase, make_trainer

_T = TypeVar("_T")


class ConcurrentRanksRefused(ValueError):
    """A data-parallel step refused to run its ranks concurrently.

    Raised when a capture session (``capturing``) or a numerics collector
    (``use_collector``) is installed: both are process-wide observers that
    expect one ordered stream of events, which the rank threads would
    interleave.
    """


def _refuse_process_wide_observers() -> None:
    if CAPTURE.stack:
        raise ConcurrentRanksRefused(
            "DataParallel cannot step inside a capture session: its ranks "
            "run on concurrent threads, whose kernel calls would "
            "interleave in one program")
    if COLLECTORS.stack:
        raise ConcurrentRanksRefused(
            "DataParallel cannot step under a numerics collector: its "
            "ranks run on concurrent threads, whose activation taps would "
            "interleave in one step record")


class DataParallel:
    """N replicas of a model + trainer, synchronised per step."""

    def __init__(self, model_factory: Callable[[], Layer], world_size: int,
                 trainer_kind: str, spec: OptimizerSpec,
                 scaler_factory: Optional[Callable[[], object]] = None,
                 overlap_grad_sync: bool = False,
                 bucket_bytes: int = DDP_BUCKET_BYTES,
                 zero1: bool = False,
                 retry_policy: Optional[RetryPolicy] = None):
        """``overlap_grad_sync``: bucket the flat gradient buffer and launch
        per-bucket all-reduces as backward produces them.  ``zero1``:
        shard the optimizer ZeRO-1 style (requires the "lightseq"
        workspace trainer).  ``retry_policy``: bounded deterministic-
        backoff retry for transient collective faults (armed only while a
        fault injector is installed; default :class:`RetryPolicy`)."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if zero1 and trainer_kind != "lightseq":
            raise ValueError("zero1 requires the 'lightseq' workspace "
                             f"trainer, got {trainer_kind!r}")
        self.world_size = world_size
        self.overlap_grad_sync = overlap_grad_sync
        self.zero1 = zero1
        self.replicas: List[Layer] = [model_factory()
                                      for _ in range(world_size)]
        # ZeRO-1: each replica's trainer owns one shard of its workspace
        self.trainers: List[TrainerBase] = [
            make_trainer(trainer_kind, m, spec,
                         scaler_factory() if scaler_factory else None,
                         **(dict(rank=r, world_size=world_size) if zero1
                            else {}))
            for r, m in enumerate(self.replicas)]
        # parameter-aligned DDP buckets over the flat FP32 gradient buffer
        self.buckets: List[GradBucket] = partition_buckets(
            [(p.name, p.size) for p in self.replicas[0].parameters()],
            itemsize=4, bucket_bytes=bucket_bytes)
        # -- resilience plane (all no-ops unless a fault injector or a
        #    drop_rank() call brings them into play) ------------------------
        self.retry_policy = retry_policy or RetryPolicy()
        self.retry_stats = CommRetryStats()
        self.step_no = 0                      # step *attempts*, fault scoping
        self.straggler_delay_s = 0.0          # this step's injected delay
        self.dropped_ranks: List[int] = []    # ranks lost to elastic drops
        self._check_replicas_identical()
        #: job queues of the host threads of ranks 1..N-1 (rank 0 runs on
        #: the caller's); the threads stop when this object is collected
        self._rank_jobs = [start_worker(f"dp/rank{r}")
                           for r in range(1, world_size)]
        weakref.finalize(self, stop_workers, self._rank_jobs)

    def _check_replicas_identical(self) -> None:
        ref = list(self.replicas[0].parameters())
        for r in self.replicas[1:]:
            for p0, p in zip(ref, r.parameters()):
                if not np.array_equal(p0.data, p.data):
                    raise ValueError(
                        f"replica init mismatch on {p.name}: the model "
                        f"factory must produce identical initial states")

    # -- gradient synchronisation ------------------------------------------------

    def _guarded(self, site: str, op: Callable[[], None],
                 buffers: Sequence[np.ndarray]) -> None:
        """Run an in-place collective behind the retry policy.

        With no fault injector installed this is a direct call (no
        snapshot cost).  Under injection, transient drops/bit-flips are
        retried with pristine restored inputs and deterministic backoff
        (:func:`repro.resilience.recovery.retry_collective`); exhausting
        the budget raises :class:`CommRetryError`.
        """
        if current_injector() is None:
            op()
            return
        retry_collective(op, buffers, policy=self.retry_policy,
                         stats=self.retry_stats, site=site)

    def _maybe_crash(self, stage: str) -> None:
        """Consult the ``replica.crash`` fault site for every live rank."""
        injector = current_injector()
        if injector is None:
            return
        for rank in range(self.world_size):
            if injector.fire("replica.crash", rank=rank, stage=stage):
                raise ReplicaCrash(rank, self.step_no, stage)

    def sync_gradients(self) -> int:
        """Synchronise gradients across replicas (real data movement).

        Plain mode: one whole-buffer ring all-reduce of each trainer's
        :meth:`flat_grad` (in place on an FP32 workspace).  Overlapped mode:
        one ring all-reduce per DDP bucket, launched in reverse workspace
        order (the order backward completes them).  ZeRO-1 mode: a ring
        reduce-scatter — each replica ends up with only its reduced shard
        valid.  Returns the number of bytes each replica contributed (for
        the alpha–beta sync-time model).  Recorded under the "sync" stage.
        Injected transient faults are retried via :meth:`_guarded`; the
        step's retry count/backoff ride on the span attrs.
        """
        dev = current_device()
        retries0 = self.retry_stats.retries
        with dev.stage_scope("sync"), span("comm/grad_sync") as sp:
            flats = [t.flat_grad() for t in self.trainers]
            nbytes = flats[0].nbytes
            if self.world_size > 1:
                if self.zero1:
                    self._guarded(
                        "comm.reduce_scatter",
                        lambda: ring_reduce_scatter(flats, average=True),
                        flats)
                    dev.record("reduce_scatter_grads",
                               flats[0].size * self.world_size,
                               flats[0].size, dtype_bytes=4,
                               family="reduction")
                elif self.overlap_grad_sync:
                    for b in reversed(self.buckets):
                        views = [f[b.start:b.stop] for f in flats]
                        self._guarded(
                            "comm.allreduce",
                            lambda v=views: ring_allreduce(v, average=True),
                            views)
                        dev.record("allreduce_grad_bucket",
                                   b.elems * self.world_size,
                                   b.elems * self.world_size, dtype_bytes=4,
                                   family="reduction")
                else:
                    self._guarded(
                        "comm.allreduce",
                        lambda: ring_allreduce(flats, average=True),
                        flats)
                    dev.record("allreduce_grads",
                               flats[0].size * self.world_size,
                               flats[0].size * self.world_size,
                               dtype_bytes=4, family="reduction")
                for trainer, flat in zip(self.trainers, flats):
                    trainer.load_flat_grad(flat)
            else:
                dev.record("allreduce_grads", flats[0].size, flats[0].size,
                           dtype_bytes=4, family="reduction")
            retried = self.retry_stats.retries - retries0
            if sp is not None and retried:
                sp.attrs["comm_retries"] = retried
                sp.attrs["comm_retry_backoff_s"] = \
                    self.retry_stats.step_backoff_s
        return nbytes

    def _allgather_params(self) -> None:
        """ZeRO-1 phase 3: circulate each rank's updated parameter shard
        so every replica holds the full updated model (pure copies)."""
        dev = current_device()
        with dev.stage_scope("sync"), span("comm/allgather_params"):
            slabs = [t.workspace.params for t in self.trainers]
            self._guarded("comm.allgather",
                          lambda: ring_allgather(slabs), slabs)
            dev.record("allgather_params",
                       slabs[0].size, slabs[0].size * self.world_size,
                       dtype_bytes=slabs[0].dtype.itemsize, family="reduction")

    def _loss_scale(self) -> float:
        """The replicas' current loss scale (their scalers move in
        lockstep: every rank sees the same synchronised gradients)."""
        scaler = self.trainers[0].scaler
        return scaler.scale if scaler is not None else 1.0

    def _global_overflow(self) -> Optional[bool]:
        """All-reduce of the found-inf flag (ZeRO-1 ranks see only their
        shard, so the skip decision must be agreed globally, as NCCL's
        found_inf all-reduce does).  None when no scaler is attached."""
        if self.trainers[0].scaler is None:
            return None
        return any(t.scaler.check_overflow(t._grads())
                   for t in self.trainers)

    def sync_timeline(self, spec: GPUSpec, backward_s: float
                      ) -> BucketSchedule:
        """Schedule this step's bucketed gradient sync against a backward
        pass of ``backward_s`` seconds (two-stream overlap model).

        With ``overlap_grad_sync`` buckets launch as their gradients become
        ready; otherwise they all wait for backward to finish, so the whole
        comm time is exposed.  ZeRO-1 prices the reduce-scatter phase (the
        parameter all-gather follows the update and cannot overlap with
        backward).

        Fault recovery is priced in: an injected straggler delay shifts
        every bucket launch (ring pace = slowest rank), and each comm
        retry this step adds its deterministic backoff plus one full
        re-issued collective as *exposed* time — retries run after
        backward has already produced the gradients, so nothing hides
        them.
        """
        fn = reduce_scatter_seconds if self.zero1 else None
        sched = overlap_schedule(self.buckets, 4, backward_s,
                                 self.world_size, spec,
                                 overlap=self.overlap_grad_sync,
                                 comm_seconds_fn=fn,
                                 straggler_delay_s=self.straggler_delay_s)
        if self.retry_stats.step_retries:
            grad_bytes = sum(4 * p.size
                             for p in self.replicas[0].parameters())
            price = reduce_scatter_seconds if self.zero1 \
                else ring_allreduce_seconds
            reissue_s = price(grad_bytes, self.world_size, spec)
            sched = with_extra_exposed(
                sched, self.retry_stats.step_backoff_s
                + self.retry_stats.step_retries * reissue_s)
        return sched

    def optimizer_state_bytes(self) -> int:
        """Per-replica trainer-owned state (max across ranks — ZeRO-1
        shards differ by at most one element)."""
        return max(t.extra_state_bytes() for t in self.trainers)

    # -- training step -----------------------------------------------------------

    def _each_rank(self, fn: Callable[[int], _T]) -> List[_T]:
        """Run ``fn(rank)`` for every live rank at once; results in rank
        order.

        Rank 0 runs on the calling thread, every other rank on its own
        host thread (:func:`~repro.backend.workers.run_parts`), inside a
        copy of the caller's context.  A rank touches only its own
        replica, trainer, workspace and RNG streams, so the results are
        bit-identical to running the ranks one after another.

        While the caller's device records, each worker rank records into a
        lane :class:`Device` that starts at the caller's stage; once every
        rank is done the lanes' launches are appended in rank order, so
        the trace is the serial one.  Nothing is raised before every rank
        has finished, and the lowest failing rank's exception is the one
        raised.
        """
        dev = current_device()
        stage = dev.stage           # read now: rank 0 moves it once started
        lanes: Dict[int, Device] = (
            {r: Device(f"{dev.name}/rank{r}", lib=dev.lib)
             for r in range(1, self.world_size)}
            if dev.trace_enabled else {})

        def run(rank: int) -> _T:
            lane = lanes.get(rank)
            if lane is None:
                return fn(rank)
            with use_device(lane), lane.stage_scope(stage):
                return fn(rank)

        try:
            return run_parts(run, self._rank_jobs)
        finally:
            for rank in sorted(lanes):
                dev.launches.extend(lanes[rank].launches)

    def _forward_backward(self, rank: int, batch: Tuple, scale: float
                          ) -> Tuple[float, int]:
        """One replica's forward+backward under its per-rank span."""
        with span(f"dp/rank{rank}"):
            return staged_forward_backward(self.replicas[rank], batch, scale)

    def _update(self, lr: Optional[float], grad_scale: float) -> None:
        """Both step bodies' update: agree on overflow (only ZeRO-1 ranks
        hold different gradients), step every trainer, all-gather shards."""
        overflow = self._global_overflow() if self.zero1 else None
        with span("dp/update"):
            self._each_rank(lambda rank: self.trainers[rank].step(
                lr=lr, grad_scale=grad_scale, overflow_override=overflow))
        if self.zero1:
            self._allgather_params()

    def train_step(self, shards: Sequence[Tuple], *, lr: Optional[float] = None
                   ) -> Tuple[float, int]:
        """One data-parallel step.

        ``shards``: one batch tuple per replica (positional args to the
        model's ``forward``).  The update scaling comes from the *global*
        token count, as fairseq does after summing token counts across
        workers.

        Backward runs on the loss scaled by the trainers' loss scaler (if
        any) and ``1/scale`` is folded into the update's ``grad_scale``, as
        in :func:`repro.training.loop.train_step`.

        Returns (summed loss across replicas, total tokens).

        Raises :class:`ConcurrentRanksRefused` under a capture session or
        a numerics collector (the replicas run concurrently).
        """
        if len(shards) != self.world_size:
            raise ValueError(
                f"need {self.world_size} shards, got {len(shards)}")
        _refuse_process_wide_observers()
        total_loss = 0.0
        total_tokens = 0
        self.step_no += 1
        self.straggler_delay_s = 0.0
        self.retry_stats.begin_step()
        injector = current_injector()
        if injector is not None:
            injector.begin_step(self.step_no)
            delay = injector.fire("comm.straggler")
            if delay is not None:
                self.straggler_delay_s = delay.delay_s
        with span("dp/step"):
            self._maybe_crash("forward")
            for trainer in self.trainers:
                trainer.zero_grad()
            scale = self._loss_scale()
            for loss, ntok in self._each_rank(
                    lambda rank: self._forward_backward(rank, shards[rank],
                                                        scale)):
                total_loss += loss
                total_tokens += ntok
            self._maybe_crash("backward")
            self._maybe_crash("sync")
            self.sync_gradients()
            gs = 1.0 / (scale * max(total_tokens, 1)) * self.world_size
            self._maybe_crash("update")
            self._update(lr, gs)
        return total_loss, total_tokens

    def train_step_microbatched(self, microbatches: Sequence[Tuple], *,
                                lr: Optional[float] = None
                                ) -> Tuple[float, int]:
        """One step over P global micro-batches with order-fixed reduction.

        Replica ``r`` runs backward on micro-batches ``[r*k, (r+1)*k)``
        (``k = P / world_size``), capturing one flat FP32 gradient per
        micro-batch; the contributions are then summed in float64 in
        *global micro-batch order* (:func:`deterministic_allreduce`), so
        the resulting gradient — and hence the parameter trajectory — is
        bit-identical for every world size dividing P.  This is the
        harness behind the cross-world golden test; ring all-reduce cannot
        provide it because its summation association depends on the world
        size.

        The grad scale is ``1 / total_tokens`` — deliberately
        world-size-independent, unlike :meth:`train_step`'s fairseq-style
        scaling (micro-batch gradients are summed, not averaged).

        Each rank runs its own micro-batches concurrently with the others;
        their results are concatenated in rank order, which is the global
        micro-batch order.
        """
        P = len(microbatches)
        if P == 0 or P % self.world_size:
            raise ValueError(f"micro-batch count {P} must be a positive "
                             f"multiple of world_size {self.world_size}")
        _refuse_process_wide_observers()
        k = P // self.world_size
        dev = current_device()
        scale = self._loss_scale()

        def rank_microbatches(rank: int
                              ) -> List[Tuple[float, int, np.ndarray]]:
            trainer = self.trainers[rank]
            out = []
            for batch in microbatches[rank * k:(rank + 1) * k]:
                trainer.zero_grad()
                loss, ntok = self._forward_backward(rank, batch, scale)
                # a copy: the next zero_grad clears a workspace buffer
                out.append((loss, ntok, trainer.flat_grad().copy()))
            return out

        total_loss = 0.0
        total_tokens = 0
        contributions: List[np.ndarray] = []     # global micro-batch order
        for per_rank in self._each_rank(rank_microbatches):
            for loss, ntok, grad in per_rank:
                total_loss += loss
                total_tokens += ntok
                contributions.append(grad)
        with dev.stage_scope("sync"):
            flats = [t.flat_grad() for t in self.trainers]
            deterministic_allreduce(contributions, flats)
            dev.record("deterministic_allreduce", flats[0].size * P,
                       flats[0].size * self.world_size, dtype_bytes=4,
                       family="reduction")
        for trainer, flat in zip(self.trainers, flats):
            trainer.load_flat_grad(flat)
        gs = 1.0 / (scale * max(total_tokens, 1))
        self._update(lr, gs)
        return total_loss, total_tokens

    # -- elastic degradation (permanent replica loss) ----------------------------

    def drop_rank(self, rank: int, *,
                  recovered_m: Optional[np.ndarray] = None,
                  recovered_v: Optional[np.ndarray] = None) -> None:
        """Shrink the world by one permanently-lost replica.

        The dead rank's model replica and trainer are discarded;
        survivors are renumbered ``0..N-2``.  Buckets are unchanged (the
        parameter inventory is the same), so the bucketed/overlapped sync
        schedules simply re-price for the smaller ring.

        ZeRO-1 needs real re-partitioning: each survivor still holds only
        its *old* shard of the Adam ``m``/``v`` state, and the dead
        rank's shard is genuinely gone (it lived only in that replica's
        memory).  The surviving shards are reassembled into full-length
        buffers, the missing region is filled from
        ``recovered_m``/``recovered_v`` (full-length arrays, e.g. from an
        unsharded checkpoint) or zeros (a cold restart of those moments —
        documented degradation, the price of losing unreplicated state),
        and every survivor re-shards for world ``N-1`` via the same
        :func:`shard_bounds` chunking the ring reduce-scatter uses.
        Survivors' parameters are untouched — they were in sync before
        the loss and remain so, which the elastic golden test asserts.
        """
        if self.world_size <= 1:
            raise ValueError("cannot drop the last replica")
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world "
                             f"{self.world_size}")
        new_world = self.world_size - 1
        with span("dp/drop_rank", {"rank": rank, "world_size": new_world}):
            dead = self.trainers[rank]
            del self.replicas[rank]
            del self.trainers[rank]
            if self.zero1:
                n = dead.workspace.total_elems
                full_m = np.zeros(n, dtype=np.float32)
                full_v = np.zeros(n, dtype=np.float32)
                if recovered_m is not None:
                    full_m[...] = np.asarray(recovered_m, dtype=np.float32)
                if recovered_v is not None:
                    full_v[...] = np.asarray(recovered_v, dtype=np.float32)
                for t in self.trainers:       # survivors: old shards
                    lo, hi = t.shard
                    full_m[lo:hi] = t.m
                    full_v[lo:hi] = t.v
                for new_rank, t in enumerate(self.trainers):
                    t.rank = new_rank
                    t.world_size = new_world
                    t.shard = shard_bounds(n, new_world, new_rank)
                    lo, hi = t.shard
                    t.m = full_m[lo:hi].copy()
                    t.v = full_v[lo:hi].copy()
            self.world_size = new_world
            self.dropped_ranks.append(rank)
            stop_workers([self._rank_jobs.pop()])

    def parameters_in_sync(self, atol: float = 0.0) -> bool:
        """True if every replica holds identical parameters."""
        ref = list(self.replicas[0].parameters())
        for r in self.replicas[1:]:
            for p0, p in zip(ref, r.parameters()):
                if not np.allclose(p0.data.astype(np.float32),
                                   p.data.astype(np.float32), atol=atol,
                                   rtol=0.0):
                    return False
        return True


def shard_batch(arrays: Sequence[np.ndarray], world_size: int
                ) -> List[Tuple[np.ndarray, ...]]:
    """Split each array along axis 0 into ``world_size`` near-equal shards."""
    splits = [np.array_split(a, world_size, axis=0) for a in arrays]
    shards = []
    for i in range(world_size):
        shard = tuple(s[i] for s in splits)
        if any(x.shape[0] == 0 for x in shard):
            raise ValueError(
                f"batch of {arrays[0].shape[0]} too small for "
                f"{world_size}-way sharding")
        shards.append(shard)
    return shards
