"""The one step model: how a simulated training step is priced.

LightSeq2's Figs. 3/4 and 11 price one optimisation step as forward +
backward + gradient sync + update.  :class:`StepInputs` is the one
description of such a step — its kernel trace, GPU, world size, gradient
buckets and comm/resilience knobs — and :meth:`StepInputs.timeline` is the
one function that prices it, combining the roofline cost of the kernel
stages with the communication model for the sync stage.  The figures, the
measurement ladder (through :func:`two_stream_step_timeline`) and the
what-if engine of :mod:`repro.obs.critpath` all call it; the critical
path of :mod:`repro.obs.critpath` reads the :class:`BucketSchedule` that
:meth:`StepInputs.schedule` returns.

Sync is a two-stream (compute + comm) model of DDP-style bucketed
all-reduce: the backward pass runs on the compute stream producing
gradients from the last parameter backwards, and each bucket's ring
all-reduce launches on the comm stream as soon as every layer writing
into it has finished.  Only the comm time that outruns the remaining
backward compute is *exposed*; the rest is hidden behind it (the Fig.-11
sync overhead, attacked directly).  With ``overlap=False`` every bucket
waits for the whole backward pass, so all comm time is exposed — the
serial Fig.-4 stage sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..backend.device import KernelLaunch
from .comm import DDP_BUCKET_BYTES, GradBucket, ring_allreduce_seconds
from .costmodel import TraceCost, trace_cost
from .gpu_specs import STEP_SETUP_S, GPUSpec


@dataclass(frozen=True)
class BucketSchedule:
    """One step's bucketed gradient-sync schedule on the comm stream.

    Buckets are listed in *launch* order (reverse workspace order — the
    order backward produces gradients).  All times are seconds from the
    start of the backward pass.
    """

    ready_s: Tuple[float, ...]     # grads for the bucket finish on compute
    start_s: Tuple[float, ...]     # comm stream picks the bucket up (no
                                   # earlier than ready + straggler delay)
    finish_s: Tuple[float, ...]    # bucket's ring all-reduce completes
    comm_total_s: float            # sum of per-bucket comm times
    exposed_s: float               # comm time sticking out past backward
    backward_s: float
    comm_s: Tuple[float, ...] = ()  # each bucket's collective time

    @property
    def hidden_s(self) -> float:
        """Comm time overlapped with (hidden behind) backward compute."""
        return max(0.0, self.comm_total_s - self.exposed_s)

    def slices(self) -> List[Tuple[str, float, float]]:
        """(label, start_s, finish_s) per bucket, in launch order — the
        comm-stream slices consumed by the Perfetto exporter."""
        return [(f"bucket{i}/allreduce", s, f)
                for i, (s, f) in enumerate(zip(self.start_s, self.finish_s))]


def bucket_ready_times(buckets: Sequence[GradBucket],
                       backward_s: float) -> List[float]:
    """When each bucket's gradients are complete, in launch order.

    Backward produces gradients in reverse workspace order (output layers
    first), so bucket ``i`` spanning elements ``[start, stop)`` of ``n`` is
    ready once the backward fraction ``(n - start) / n`` has run.  Returned
    in reverse bucket-index order — the launch order.
    """
    if not buckets:
        return []
    n = max(b.stop for b in buckets)
    return [backward_s * (n - b.start) / n for b in reversed(buckets)]


def overlap_schedule(buckets: Sequence[GradBucket], itemsize: int,
                     backward_s: float, world_size: int, spec: GPUSpec, *,
                     overlap: bool = True, comm_seconds_fn=None,
                     straggler_delay_s: float = 0.0) -> BucketSchedule:
    """Schedule one step's bucketed gradient sync against backward compute.

    With ``overlap`` the comm stream serves buckets FIFO as they become
    ready; without it every bucket waits for the whole backward pass (the
    synchronous-DDP baseline), so the entire comm time is exposed.
    ``comm_seconds_fn(nbytes, world, spec)`` prices one bucket's collective
    (default: ring all-reduce; pass :func:`reduce_scatter_seconds` for the
    ZeRO-1 reduce-scatter phase).  ``straggler_delay_s`` models one slow
    rank: a ring collective moves at the slowest participant's pace, so
    every bucket's launch slips by the delay — time past the backward
    frontier surfaces as exposed comm (the fault-injection pricing for
    the ``comm.straggler`` site).
    """
    if backward_s < 0:
        raise ValueError("backward_s must be non-negative")
    if straggler_delay_s < 0:
        raise ValueError("straggler_delay_s must be non-negative")
    price = comm_seconds_fn or ring_allreduce_seconds
    times = [price(b.nbytes(itemsize), world_size, spec)
             for b in reversed(buckets)]
    comm_total = sum(times)
    if world_size <= 1 or not buckets:
        return BucketSchedule((), (), (), 0.0, 0.0, backward_s)
    if overlap:
        ready = bucket_ready_times(buckets, backward_s)
    else:
        ready = [backward_s] * len(buckets)
    start: List[float] = []
    finish: List[float] = []
    t = 0.0
    for r, dt in zip(ready, times):
        s = max(r + straggler_delay_s, t)
        t = s + dt
        start.append(s)
        finish.append(t)
    exposed = max(0.0, finish[-1] - backward_s)
    return BucketSchedule(tuple(ready), tuple(start), tuple(finish),
                          comm_total, exposed, backward_s, tuple(times))


def with_extra_exposed(sched: BucketSchedule,
                       extra_s: float) -> BucketSchedule:
    """A schedule with ``extra_s`` of serial comm time appended to it.

    Retried collectives (and their deterministic backoff waits) happen
    *after* backward has produced the bucket — nothing hides them — so
    they extend both the total and the exposed comm time while the
    hidden split is unchanged.  This is how
    :meth:`repro.training.data_parallel.DataParallel.sync_timeline`
    prices a step's comm-fault retries.
    """
    if extra_s < 0:
        raise ValueError("extra_s must be non-negative")
    if extra_s == 0:
        return sched
    return BucketSchedule(sched.ready_s, sched.start_s, sched.finish_s,
                          sched.comm_total_s + extra_s,
                          sched.exposed_s + extra_s, sched.backward_s,
                          sched.comm_s)


@dataclass(frozen=True)
class TwoStreamTimeline:
    """Per-stage step time with the sync stage split into hidden/exposed."""

    forward_s: float
    backward_s: float
    sync_exposed_s: float
    sync_hidden_s: float
    update_s: float

    @property
    def total_s(self) -> float:
        """Wall-clock step time: hidden sync costs nothing."""
        return (self.forward_s + self.backward_s + self.sync_exposed_s
                + self.update_s)


def synthetic_buckets(grad_elems: int, itemsize: int,
                      bucket_bytes: int = DDP_BUCKET_BYTES
                      ) -> List[GradBucket]:
    """DDP-shaped buckets tiling a flat gradient of ``grad_elems``.

    Used when a step never built real buckets (a single-GPU trace, or a
    figure pricing a model it did not wrap in ``DataParallel``): the 25 MB
    tiling is what DDP would have produced for an equally-sized
    contiguous workspace.
    """
    if grad_elems <= 0:
        return []
    per = max(1, bucket_bytes // itemsize)
    n = ceil(grad_elems / per)
    return [GradBucket(i, (f"flat[{i}]",), i * per,
                       min(grad_elems, (i + 1) * per)) for i in range(n)]


@dataclass(frozen=True)
class StepInputs:
    """Everything needed to price one training step — the re-costable
    description the timeline, the critical path, the attribution, and
    every what-if share.

    ``attn`` optionally carries the attention geometry needed by the
    ``attn_impl=tiled`` projection: ``head_dim``, ``tile_q``, ``tile_k``,
    ``causal`` (and optionally ``mask_elems``).  ``grad_elems`` lets
    world-size what-ifs synthesize buckets for traces that have none.
    """

    trace: Tuple[KernelLaunch, ...]
    spec: GPUSpec
    world_size: int = 1
    buckets: Tuple[GradBucket, ...] = ()
    itemsize: int = 4
    overlap: bool = True
    step_setup_s: float = STEP_SETUP_S
    include_host: bool = True
    straggler_delay_s: float = 0.0
    retry_exposed_s: float = 0.0
    comm_seconds_fn: Optional[Callable[[int, int, GPUSpec], float]] = None
    grad_elems: int = 0
    attn: Optional[Dict[str, object]] = None

    @cached_property
    def cost(self) -> TraceCost:
        """The trace priced once per instance (fields are frozen; a
        ``dataclasses.replace`` copy prices its own)."""
        return trace_cost(self.trace, self.spec,
                          include_host=self.include_host)

    def stage_seconds(self) -> Dict[str, float]:
        return self.cost.by_stage

    def schedule(self) -> BucketSchedule:
        """The step's bucketed comm schedule, retry time appended — when
        there is a collective to retry: a step with no buckets has none."""
        by = self.stage_seconds()
        sched = overlap_schedule(
            self.buckets, self.itemsize, by.get("backward", 0.0),
            self.world_size, self.spec, overlap=self.overlap,
            comm_seconds_fn=self.comm_seconds_fn,
            straggler_delay_s=self.straggler_delay_s)
        if not sched.finish_s:
            return sched
        return with_extra_exposed(sched, self.retry_exposed_s)

    def timeline(self) -> TwoStreamTimeline:
        """Price the step: per-stage seconds with sync split into the part
        hidden behind backward and the part exposed after it.

        ``step_setup_s`` is the per-step host constant (data loading and
        collation, identical for every library) folded into the forward
        stage; it is what deeper models and larger batches amortise.
        Kernels recorded under the "sync" stage are added to the exposed
        sync time.
        """
        by = self.stage_seconds()
        sched = self.schedule()
        return TwoStreamTimeline(
            forward_s=by.get("forward", 0.0) + self.step_setup_s,
            backward_s=by.get("backward", 0.0),
            sync_exposed_s=sched.exposed_s + by.get("sync", 0.0),
            sync_hidden_s=sched.hidden_s,
            update_s=by.get("update", 0.0),
        )


def two_stream_step_timeline(trace: Iterable[KernelLaunch], spec: GPUSpec, *,
                             buckets: Sequence[GradBucket], itemsize: int,
                             world_size: int = 1, overlap: bool = True,
                             step_setup_s: float = STEP_SETUP_S
                             ) -> TwoStreamTimeline:
    """:meth:`StepInputs.timeline` of one step's kernel trace."""
    return StepInputs(tuple(trace), spec, world_size=world_size,
                      buckets=tuple(buckets), itemsize=itemsize,
                      overlap=overlap, step_setup_s=step_setup_s).timeline()
