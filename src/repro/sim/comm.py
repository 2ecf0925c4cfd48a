"""Gradient synchronisation: real ring all-reduce + alpha–beta time model.

Stage 3 of data-parallel training (Fig. 3): gradients are averaged across
devices.  We implement the bandwidth-optimal **ring all-reduce**
(Patarasuk & Yuan, the paper's [20]) for real numpy buffers — the chunked
reduce-scatter + all-gather schedule, moving actual data so tests can verify
the result equals the mean — and price it with the standard alpha–beta
model::

    T = 2 (p-1) * alpha  +  2 (p-1)/p * N * beta

with per-hop latency ``alpha`` and inverse NVLink bandwidth ``beta``.  A
parameter-server model is included for comparison (the paper's other listed
family).  DDP-style bucketing determines how many all-reduce calls one step
issues, which is why multi-GPU speedups in Fig. 11 sit below single-GPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..resilience.faults import CollectiveFault, current_injector
from .gpu_specs import GPUSpec

#: DDP default bucket size (25 MB), which fairseq/PyTorch DDP uses.
DDP_BUCKET_BYTES = 25 * 1024 * 1024


def _armed_fault(site: str):
    """Consult the ambient fault injector at a collective's entry.

    Returns ``(injector, firing_spec_or_None)``; with no injector
    installed this is one module-level list check (the hot-path cost of
    the whole fault-injection plane).  A ``drop`` fault raises *here*,
    before any buffer mutates — the payload never arrived; a ``bitflip``
    is returned to the caller to corrupt the *completed* result and then
    raise, modeling link-level CRC detection after the damage is done
    (so retry wrappers must snapshot/restore, which
    :func:`repro.resilience.recovery.retry_collective` does).
    """
    injector = current_injector()
    if injector is None:
        return None, None
    fault = injector.fire(site)
    if fault is not None and fault.kind == "drop":
        raise CollectiveFault(site, "drop", injector.step)
    return injector, fault


def _deliver_bitflip(site: str, injector, fault,
                     buffers: Sequence[np.ndarray]) -> None:
    """Corrupt one plan-seeded bit of the finished payload, then raise."""
    if fault is not None:
        injector.corrupt_one_bit(buffers)
        raise CollectiveFault(site, "bitflip", injector.step)


# ---------------------------------------------------------------------------
# DDP-style gradient buckets over the contiguous workspace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradBucket:
    """One DDP gradient bucket: a parameter-aligned span of the flat
    gradient workspace (element offsets, not bytes)."""

    index: int
    names: Tuple[str, ...]
    start: int                 # first element (inclusive)
    stop: int                  # last element (exclusive)

    @property
    def elems(self) -> int:
        return self.stop - self.start

    def nbytes(self, itemsize: int) -> int:
        return self.elems * itemsize


def partition_buckets(named_sizes: Sequence[Tuple[str, int]], itemsize: int,
                      bucket_bytes: int = DDP_BUCKET_BYTES
                      ) -> List[GradBucket]:
    """Partition an ordered parameter inventory into DDP-style buckets.

    Parameters are packed greedily in workspace order; a bucket is closed
    when adding the next parameter would exceed ``bucket_bytes`` (a single
    parameter larger than the cap gets a bucket of its own).  The result
    exactly tiles ``[0, total_elems)`` with no overlap, and every parameter
    lies entirely inside one bucket — properties the hypothesis suite pins.
    """
    if itemsize <= 0:
        raise ValueError(f"itemsize must be positive, got {itemsize}")
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    for name, n in named_sizes:
        if n <= 0:
            raise ValueError(f"parameter {name!r} has non-positive size {n}")
    buckets: List[GradBucket] = []
    cur_names: List[str] = []
    cur_start = off = 0
    for name, n in named_sizes:
        if cur_names and (off + n - cur_start) * itemsize > bucket_bytes:
            buckets.append(GradBucket(len(buckets), tuple(cur_names),
                                      cur_start, off))
            cur_names, cur_start = [], off
        cur_names.append(name)
        off += n
    if cur_names:
        buckets.append(GradBucket(len(buckets), tuple(cur_names),
                                  cur_start, off))
    return buckets


def ring_allreduce(buffers: Sequence[np.ndarray], *, average: bool = True
                   ) -> None:
    """In-place ring all-reduce over per-device 1-D buffers.

    Implements the two-phase chunked schedule: ``p-1`` reduce-scatter steps
    (each device accumulates one incoming chunk per step) followed by
    ``p-1`` all-gather steps.  After the call every buffer holds the
    element-wise sum (or mean) of all inputs — bit-identical across devices.
    """
    p = len(buffers)
    if p == 0:
        raise ValueError("no buffers to all-reduce")
    n = buffers[0].size
    for b in buffers:
        if b.ndim != 1 or b.size != n:
            raise ValueError("buffers must be equal-length 1-D arrays")
    injector, fault = _armed_fault("comm.allreduce")
    if p == 1:
        _deliver_bitflip("comm.allreduce", injector, fault, buffers)
        return
    # chunk boundaries: p chunks, nearly equal
    bounds = [round(i * n / p) for i in range(p + 1)]
    chunks = [(bounds[i], bounds[i + 1]) for i in range(p)]

    # reduce-scatter: at step s, device d sends chunk (d - s) to device d+1
    for s in range(p - 1):
        # gather the sends first so the schedule is truly simultaneous
        sends = []
        for d in range(p):
            c = (d - s) % p
            lo, hi = chunks[c]
            sends.append((d, c, buffers[d][lo:hi].copy()))
        for d, c, data in sends:
            dst = (d + 1) % p
            lo, hi = chunks[c]
            buffers[dst][lo:hi] += data
    # now device d owns the fully-reduced chunk (d + 1) % p
    # all-gather: circulate owned chunks around the ring
    for s in range(p - 1):
        sends = []
        for d in range(p):
            c = (d + 1 - s) % p
            lo, hi = chunks[c]
            sends.append((d, c, buffers[d][lo:hi].copy()))
        for d, c, data in sends:
            dst = (d + 1) % p
            lo, hi = chunks[c]
            buffers[dst][lo:hi] = data
    if average:
        inv = np.asarray(1.0 / p, dtype=np.float32)
        for b in buffers:
            b *= inv.astype(b.dtype) if b.dtype != np.float32 else inv
    _deliver_bitflip("comm.allreduce", injector, fault, buffers)


def shard_bounds(n: int, world_size: int, rank: int) -> Tuple[int, int]:
    """Element bounds of ``rank``'s ZeRO-1 shard of a length-``n`` buffer.

    Uses the same nearly-equal chunking as :func:`ring_allreduce`, so a
    ring reduce-scatter hands each rank exactly its shard — and so shards
    tile ``[0, n)`` with no overlap for any world size.
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range for world {world_size}")
    return (round(rank * n / world_size), round((rank + 1) * n / world_size))


def ring_reduce_scatter(buffers: Sequence[np.ndarray], *,
                        average: bool = True) -> List[Tuple[int, int]]:
    """In-place ring reduce-scatter: phase 1 of :func:`ring_allreduce`.

    After the call, rank ``r``'s buffer holds the fully-reduced (summed or
    averaged) values in its own shard ``shard_bounds(n, p, r)``; the rest of
    each buffer contains partial sums and must not be read.  Because the
    reduction schedule is *identical* to the full ring all-reduce (the
    all-gather phase only copies), the shard values are bit-identical to
    what a full all-reduce would have produced — the property the ZeRO-1
    equivalence tests rely on.

    Returns the per-rank shard bounds.
    """
    p = len(buffers)
    if p == 0:
        raise ValueError("no buffers to reduce-scatter")
    n = buffers[0].size
    for b in buffers:
        if b.ndim != 1 or b.size != n:
            raise ValueError("buffers must be equal-length 1-D arrays")
    bounds = [shard_bounds(n, p, r) for r in range(p)]
    injector, fault = _armed_fault("comm.reduce_scatter")
    if p == 1:
        _deliver_bitflip("comm.reduce_scatter", injector, fault, buffers)
        return bounds
    chunks = bounds
    # identical schedule to ring_allreduce's reduce-scatter phase
    for s in range(p - 1):
        sends = []
        for d in range(p):
            c = (d - s) % p
            lo, hi = chunks[c]
            sends.append((d, c, buffers[d][lo:hi].copy()))
        for d, c, data in sends:
            dst = (d + 1) % p
            lo, hi = chunks[c]
            buffers[dst][lo:hi] += data
    # after p-1 steps device d owns reduced chunk (d + 1) % p; one final hop
    # hands rank r its own chunk r (NCCL reduce-scatter semantics)
    reduced = []
    for c in range(p):
        owner = (c - 1) % p
        lo, hi = chunks[c]
        reduced.append(buffers[owner][lo:hi].copy())
    for r in range(p):
        lo, hi = chunks[r]
        buffers[r][lo:hi] = reduced[r]
        if average:
            inv = np.asarray(1.0 / p, dtype=np.float32)
            buffers[r][lo:hi] *= (inv.astype(buffers[r].dtype)
                                  if buffers[r].dtype != np.float32 else inv)
    _deliver_bitflip("comm.reduce_scatter", injector, fault, buffers)
    return bounds


def ring_allgather(buffers: Sequence[np.ndarray]) -> None:
    """In-place ring all-gather: rank ``r`` contributes its shard
    ``shard_bounds(n, p, r)``; afterwards every buffer holds all shards
    (bitwise copies — the ring only moves data, never reduces)."""
    p = len(buffers)
    if p == 0:
        raise ValueError("no buffers to all-gather")
    n = buffers[0].size
    for b in buffers:
        if b.ndim != 1 or b.size != n:
            raise ValueError("buffers must be equal-length 1-D arrays")
    injector, fault = _armed_fault("comm.allgather")
    if p == 1:
        _deliver_bitflip("comm.allgather", injector, fault, buffers)
        return
    chunks = [shard_bounds(n, p, r) for r in range(p)]
    # circulate owned chunks: at step s, device d forwards chunk (d - s) % p
    for s in range(p - 1):
        sends = []
        for d in range(p):
            c = (d - s) % p
            lo, hi = chunks[c]
            sends.append((d, c, buffers[d][lo:hi].copy()))
        for d, c, data in sends:
            dst = (d + 1) % p
            lo, hi = chunks[c]
            buffers[dst][lo:hi] = data
    _deliver_bitflip("comm.allgather", injector, fault, buffers)


def deterministic_allreduce(contributions: Sequence[np.ndarray],
                            outputs: Sequence[np.ndarray]) -> None:
    """Order-fixed gradient reduction for cross-world-size golden runs.

    Sums ``contributions`` (one flat FP32 buffer per *micro-batch*, in
    global micro-batch order) element-wise in float64 and writes the result
    into every buffer in ``outputs``.  Because the summation order depends
    only on the global micro-batch count — never on how micro-batches were
    assigned to replicas — world sizes 1/2/4 produce bit-identical sums,
    which ring all-reduce (whose chunk association depends on the world
    size) cannot guarantee.
    """
    if not contributions:
        raise ValueError("no contributions to reduce")
    n = contributions[0].size
    for c in contributions:
        if c.ndim != 1 or c.size != n:
            raise ValueError("contributions must be equal-length 1-D arrays")
    stack = np.stack([c.astype(np.float64) for c in contributions])
    total = np.sum(stack, axis=0, dtype=np.float64).astype(np.float32)
    for out in outputs:
        out[...] = total.astype(out.dtype)


def ring_allreduce_seconds(nbytes: int, world_size: int,
                           spec: GPUSpec) -> float:
    """Alpha–beta time for ONE ring all-reduce of ``nbytes``."""
    if world_size <= 1:
        return 0.0
    p = world_size
    alpha = spec.nvlink_latency_us * 1e-6
    beta = 1.0 / (spec.nvlink_gbs * 1e9)
    return 2 * (p - 1) * alpha + 2 * (p - 1) / p * nbytes * beta


def reduce_scatter_seconds(nbytes: int, world_size: int,
                           spec: GPUSpec) -> float:
    """Alpha–beta time for ONE ring reduce-scatter (half an all-reduce)."""
    if world_size <= 1:
        return 0.0
    p = world_size
    alpha = spec.nvlink_latency_us * 1e-6
    beta = 1.0 / (spec.nvlink_gbs * 1e9)
    return (p - 1) * alpha + (p - 1) / p * nbytes * beta


def bucketed_allreduce_seconds(total_bytes: int, world_size: int,
                               spec: GPUSpec,
                               bucket_bytes: int = DDP_BUCKET_BYTES) -> float:
    """DDP-style sync cost: one ring all-reduce per gradient bucket."""
    if world_size <= 1:
        return 0.0
    nbuckets = max(1, math.ceil(total_bytes / bucket_bytes))
    per = [min(bucket_bytes, total_bytes - i * bucket_bytes)
           for i in range(nbuckets)]
    return sum(ring_allreduce_seconds(b, world_size, spec) for b in per)


def parameter_server_seconds(nbytes: int, world_size: int,
                             spec: GPUSpec) -> float:
    """Parameter-server sync: every worker pushes + pulls the full payload
    through the server's link — ``2 * p * N * beta`` serialised at the
    server, plus per-worker latency.  Strictly worse than the ring for
    p > 2, which is why all-reduce is the default (paper §2.2)."""
    if world_size <= 1:
        return 0.0
    alpha = spec.nvlink_latency_us * 1e-6
    beta = 1.0 / (spec.nvlink_gbs * 1e9)
    return 2 * world_size * alpha + 2 * world_size * nbytes * beta
