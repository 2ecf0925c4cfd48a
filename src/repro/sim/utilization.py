"""GPU memory & utilization time-series over a training run (Figs. 16–17).

Simulates a 40-minute-style training run at the granularity of optimisation
steps.  Per step the simulator knows:

* the batch shape (sentences, max sequence length) — from the corpus stream;
* the simulated kernel *busy* time and fixed *overhead* time (launch + host
  dispatch), from a representative kernel trace replayed per shape;
* the temporary-memory request, served by either allocator discipline.

PyTorch's caching allocator (:class:`CachingAllocator`, modelled here and
only here) grows its reserved pool whenever a longer batch arrives than any
seen before — each growth is a ``cudaMalloc`` stall and a permanent step up
in the Fig.-16 curve.  LightSeq2 scans the run's shapes and reserves the
maximum once (the discipline
:class:`~repro.backend.arena.ActivationArena` runs for real), so its curve
is flat from step 0 and it never stalls.

Utilization per sample = busy / (busy + overhead + stall): LightSeq2's few
fused launches keep it ≈99%; the baseline's launch storm plus allocation
stalls reproduce the 80–95% band of Fig. 17.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from ..backend.allocator import round_block
from ..backend.device import KernelLaunch
from .costmodel import kernel_time_parts
from .gpu_specs import GPUSpec

#: cudaMalloc cost model: fixed syscall+sync latency plus per-byte mapping.
ALLOC_STALL_FIXED_S = 1.5e-3
ALLOC_STALL_PER_BYTE_S = 0.05e-9


@dataclass
class Block:
    """A live caching-allocator allocation handle."""

    nbytes: int
    freed: bool = False


class CachingAllocator:
    """PyTorch CUDA caching allocator's observable behaviour: blocks are
    requested on demand, freed blocks are cached for best-fit reuse, and
    the *reserved* footprint only ever grows."""

    def __init__(self):
        self._free: List[int] = []            # sorted cached block sizes
        self.reserved_bytes = 0
        self.allocated_bytes = 0
        self.peak_allocated = 0
        self.alloc_calls = 0                  # cudaMalloc count (slow path)
        self.cache_hits = 0

    def alloc(self, nbytes: int) -> Block:
        size = round_block(nbytes)
        i = bisect.bisect_left(self._free, size)
        if i < len(self._free):
            size = self._free.pop(i)          # best-fit cached block
            self.cache_hits += 1
        else:
            self.reserved_bytes += size       # cudaMalloc: pool grows
            self.alloc_calls += 1
        self.allocated_bytes += size
        self.peak_allocated = max(self.peak_allocated, self.allocated_bytes)
        return Block(nbytes=size)

    def free(self, block: Block) -> None:
        if block.freed:
            raise ValueError("double free")
        block.freed = True
        self.allocated_bytes -= block.nbytes
        bisect.insort(self._free, block.nbytes)


@dataclass(frozen=True)
class StepShape:
    """One training batch's shape."""

    batch_size: int
    seq_len: int

    @property
    def tokens(self) -> int:
        return self.batch_size * self.seq_len


@dataclass(frozen=True)
class StepSample:
    """One point of the memory/utilization time series."""

    step: int
    time_s: float             # simulated wall-clock since run start
    reserved_bytes: int       # allocator-reported total (perm + temp pool)
    utilization: float        # [0, 1]


def trace_busy_overhead(trace: Iterable[KernelLaunch], spec: GPUSpec
                        ) -> Tuple[float, float]:
    """Split a trace into (GPU-busy seconds, *exposed* idle seconds).

    Launches are asynchronous: while a kernel runs, the host can enqueue the
    next one, so the fixed launch+dispatch cost only shows up as GPU idle
    time when the kernel finishes before the host is ready — i.e. the
    exposed gap per kernel is ``max(0, fixed - t_exec)``.  Fused LightSeq2
    kernels are long enough to hide their (already small) dispatch cost →
    ~99% utilization; the baseline's storm of sub-10µs kernels exposes gaps
    constantly — exactly Fig. 17's picture.
    """
    busy = 0.0
    exposed = 0.0
    for k in trace:
        parts = kernel_time_parts(k, spec)
        busy += parts.roofline_s
        exposed += max(0.0, parts.fixed_s - parts.roofline_s)
    return busy, exposed


class TrainingRunSimulator:
    """Replays a stream of batch shapes through an allocator discipline."""

    def __init__(self, *, spec: GPUSpec, permanent_bytes: int,
                 act_bytes_fn: Callable[[int, int], int],
                 busy_s_fn: Callable[[int, int], float],
                 overhead_s_fn: Callable[[int, int], float],
                 static: bool):
        """
        ``act_bytes_fn(batch, seqlen)`` — temporary memory of one step.
        ``busy_s_fn`` / ``overhead_s_fn`` — per-step simulated times.
        ``static`` — LightSeq2 discipline (reserve the scanned maximum
        once) vs the caching baseline.
        """
        self.spec = spec
        self.permanent_bytes = permanent_bytes
        self.act_bytes_fn = act_bytes_fn
        self.busy_s_fn = busy_s_fn
        self.overhead_s_fn = overhead_s_fn
        self.static = static
        self.alloc = CachingAllocator()

    def run(self, shapes: Sequence[StepShape]) -> List[StepSample]:
        if self.static:
            # §3.3's corpus scan: reserve the largest step's temporary
            # memory once, before step 0
            reserved = round_block(max(
                self.act_bytes_fn(s.batch_size, s.seq_len) for s in shapes))
        samples: List[StepSample] = []
        t = 0.0
        for i, s in enumerate(shapes):
            stall = 0.0
            if not self.static:
                nbytes = self.act_bytes_fn(s.batch_size, s.seq_len)
                before = self.alloc.reserved_bytes
                blk = self.alloc.alloc(nbytes)
                grew = self.alloc.reserved_bytes - before
                if grew > 0:
                    stall = ALLOC_STALL_FIXED_S + grew * ALLOC_STALL_PER_BYTE_S
                self.alloc.free(blk)
                reserved = self.alloc.reserved_bytes
            busy = self.busy_s_fn(s.batch_size, s.seq_len)
            overhead = self.overhead_s_fn(s.batch_size, s.seq_len)
            wall = busy + overhead + stall
            t += wall
            samples.append(StepSample(
                step=i,
                time_s=t,
                reserved_bytes=self.permanent_bytes + reserved,
                utilization=busy / wall if wall > 0 else 0.0,
            ))
        return samples
