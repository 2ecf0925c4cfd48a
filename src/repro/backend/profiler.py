"""Trace aggregation utilities and allocation instrumentation.

Summarise a :class:`~repro.backend.device.Device` kernel trace by stage,
kernel name, or category — the raw material for the Fig.-4 stage breakdown
and the per-kernel efficiency figures (Figs. 13–15).

This module also hosts the *allocation counters* behind the §3.3 activation
arena: every kernel output buffer is obtained through
:func:`repro.backend.kernels.out_buffer`, which reports here whether the
buffer was a fresh numpy allocation, an arena hit (a view into the
pre-reserved slab) or an arena miss (slab too small — the dry-run scan
path).  Benches and tests use these counters to *assert* "zero allocations
after warm-up" rather than inferring it from timings.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Dict, Iterable

from .device import STAGES, KernelLaunch


# ---------------------------------------------------------------------------
# kernel-output allocation counters (activation-arena instrumentation)
# ---------------------------------------------------------------------------


@dataclass
class AllocCounters:
    """Running totals of kernel-output buffer provenance.

    ``fresh`` counts outputs numpy-allocated with no arena installed;
    ``arena_misses`` counts outputs the arena had to fall back to a fresh
    allocation for (scan pass, or a batch outgrowing the slab).  Both are
    real allocator traffic; ``arena_hits`` are zero-cost slab views.  A
    steady-state arena-backed training step must show
    ``new_allocs == 0``.
    """

    fresh: int = 0
    fresh_bytes: int = 0
    arena_hits: int = 0
    arena_hit_bytes: int = 0
    arena_misses: int = 0
    arena_miss_bytes: int = 0
    #: bytes requested in the current step window (every provenance counts:
    #: fresh, hit and miss are all real per-step buffer traffic).
    window_bytes: int = 0
    #: high-water mark of ``window_bytes`` across step windows — the
    #: per-step peak footprint.  Windows are delimited by
    #: :func:`begin_alloc_step` (called from ``ActivationArena.begin_step``);
    #: with no arena the window never resets and the peak equals the
    #: cumulative total.
    peak_bytes: int = 0

    @property
    def new_allocs(self) -> int:
        """Kernel outputs that caused a real numpy buffer allocation."""
        return self.fresh + self.arena_misses

    @property
    def new_alloc_bytes(self) -> int:
        return self.fresh_bytes + self.arena_miss_bytes

    def snapshot(self) -> "AllocCounters":
        with _ALLOC_LOCK:       # never a half-applied count
            return replace(self)

    def since(self, base: "AllocCounters") -> "AllocCounters":
        """Counter delta relative to an earlier :meth:`snapshot`.

        ``peak_bytes``/``window_bytes`` are carried as their current
        *absolute* values, not deltas — a high-water mark relative to an
        arbitrary snapshot has no meaning.
        """
        return AllocCounters(
            fresh=self.fresh - base.fresh,
            fresh_bytes=self.fresh_bytes - base.fresh_bytes,
            arena_hits=self.arena_hits - base.arena_hits,
            arena_hit_bytes=self.arena_hit_bytes - base.arena_hit_bytes,
            arena_misses=self.arena_misses - base.arena_misses,
            arena_miss_bytes=self.arena_miss_bytes - base.arena_miss_bytes,
            window_bytes=self.window_bytes,
            peak_bytes=self.peak_bytes,
        )


_ALLOC_COUNTERS = AllocCounters()
#: guards every read-modify-write of the counters: data-parallel rank
#: threads allocate concurrently, and ``+=`` on a shared field can lose an
#: update when the interpreter switches threads between the read and write.
_ALLOC_LOCK = threading.Lock()


def alloc_counters() -> AllocCounters:
    """The live process-global counters (mutated by kernels/arena)."""
    return _ALLOC_COUNTERS


def reset_alloc_counters() -> None:
    # mutate in place so references returned by alloc_counters() stay live
    c = _ALLOC_COUNTERS
    with _ALLOC_LOCK:
        c.fresh = c.fresh_bytes = 0
        c.arena_hits = c.arena_hit_bytes = 0
        c.arena_misses = c.arena_miss_bytes = 0
        c.window_bytes = c.peak_bytes = 0


def begin_alloc_step() -> None:
    """Open a new per-step window for the ``peak_bytes`` high-water mark."""
    with _ALLOC_LOCK:
        _ALLOC_COUNTERS.window_bytes = 0


def _count_window(c: AllocCounters, nbytes: int) -> None:
    """Caller holds ``_ALLOC_LOCK``."""
    c.window_bytes += nbytes
    if c.window_bytes > c.peak_bytes:
        c.peak_bytes = c.window_bytes


def count_fresh_alloc(nbytes: int) -> None:
    nbytes = int(nbytes)
    with _ALLOC_LOCK:
        c = _ALLOC_COUNTERS
        c.fresh += 1
        c.fresh_bytes += nbytes
        _count_window(c, nbytes)


def count_arena_hit(nbytes: int) -> None:
    nbytes = int(nbytes)
    with _ALLOC_LOCK:
        c = _ALLOC_COUNTERS
        c.arena_hits += 1
        c.arena_hit_bytes += nbytes
        _count_window(c, nbytes)


def count_arena_miss(nbytes: int) -> None:
    nbytes = int(nbytes)
    with _ALLOC_LOCK:
        c = _ALLOC_COUNTERS
        c.arena_misses += 1
        c.arena_miss_bytes += nbytes
        _count_window(c, nbytes)


# ---------------------------------------------------------------------------
# step capture & replay counters (backend.program / training.capture)
# ---------------------------------------------------------------------------


@dataclass
class ReplayCounters:
    """Running totals of the capture-replay engine's step outcomes.

    ``captures`` counts eager steps that sealed a new program; ``replays``
    counts steps dispatched through a captured program; ``invalidations``
    counts :class:`~repro.backend.program.ProgramInvalidated` events (arena
    re-reservation / parameter re-link forcing recapture); and
    ``eager_fallbacks`` counts steps that ran eagerly because capture
    failed or was ineligible.  A stale program never silently executes —
    every invalidation is accounted here.
    """

    captures: int = 0
    replays: int = 0
    invalidations: int = 0
    eager_fallbacks: int = 0

    def snapshot(self) -> "ReplayCounters":
        return replace(self)

    def since(self, base: "ReplayCounters") -> "ReplayCounters":
        """Counter delta relative to an earlier :meth:`snapshot`."""
        return ReplayCounters(
            captures=self.captures - base.captures,
            replays=self.replays - base.replays,
            invalidations=self.invalidations - base.invalidations,
            eager_fallbacks=self.eager_fallbacks - base.eager_fallbacks,
        )


_REPLAY_COUNTERS = ReplayCounters()


def replay_counters() -> ReplayCounters:
    """The live process-global counters (mutated by the capture engine)."""
    return _REPLAY_COUNTERS


def reset_replay_counters() -> None:
    # mutate in place so references returned by replay_counters() stay live
    c = _REPLAY_COUNTERS
    c.captures = c.replays = c.invalidations = c.eager_fallbacks = 0


@dataclass
class KernelStats:
    """Aggregated statistics for a group of kernel launches."""

    launches: int = 0
    elems_read: int = 0
    elems_written: int = 0
    bytes_moved: int = 0
    flops: int = 0

    def add(self, k: KernelLaunch) -> None:
        self.launches += 1
        self.elems_read += k.elems_read
        self.elems_written += k.elems_written
        self.bytes_moved += k.bytes_moved
        self.flops += k.flops

    def merge(self, other: "KernelStats") -> "KernelStats":
        out = KernelStats()
        for src in (self, other):
            out.launches += src.launches
            out.elems_read += src.elems_read
            out.elems_written += src.elems_written
            out.bytes_moved += src.bytes_moved
            out.flops += src.flops
        return out


def by_stage(trace: Iterable[KernelLaunch]) -> Dict[str, KernelStats]:
    """Group a trace into per-training-stage aggregates (Fig. 4 axes)."""
    out: Dict[str, KernelStats] = {s: KernelStats() for s in STAGES}
    for k in trace:
        out[k.stage].add(k)
    return out


def by_kernel(trace: Iterable[KernelLaunch]) -> Dict[str, KernelStats]:
    """Group a trace by kernel name."""
    out: Dict[str, KernelStats] = defaultdict(KernelStats)
    for k in trace:
        out[k.name].add(k)
    return dict(out)


def by_family(trace: Iterable[KernelLaunch]) -> Dict[str, KernelStats]:
    """Group a trace by the kernel family each launch declares (gemm,
    softmax, ...), the same key the roofline and critical-path
    attributions use."""
    out: Dict[str, KernelStats] = defaultdict(KernelStats)
    for k in trace:
        out[k.family].add(k)
    return dict(out)


@dataclass
class TraceDiff:
    """Launch/byte reduction of one trace relative to a baseline."""

    launch_ratio: float
    bytes_ratio: float
    flops_ratio: float


def compare(baseline: Iterable[KernelLaunch],
            optimized: Iterable[KernelLaunch]) -> TraceDiff:
    """How much smaller is ``optimized`` than ``baseline``?

    Ratios are optimized/baseline, so fusion should drive ``launch_ratio``
    and ``bytes_ratio`` well below 1 while ``flops_ratio`` stays ≈1 (fusion
    removes traffic and launches, not arithmetic).

    Raises :class:`ValueError` on an empty baseline trace — every ratio
    would be undefined, and an empty baseline almost always means the
    device's tracing was disabled (or the wrong device was active) when
    the baseline ran, which the caller should hear about rather than get
    NaNs.
    """
    def _tot(tr):
        launches = bytes_ = flops = 0
        for k in tr:
            launches += 1
            bytes_ += k.bytes_moved
            flops += k.flops
        return launches, bytes_, flops

    bl, bb, bf = _tot(baseline)
    ol, ob, of = _tot(optimized)
    if bl == 0:
        raise ValueError(
            "compare() needs a non-empty baseline trace: ratios against an "
            "empty baseline are undefined (was tracing disabled, or no "
            "device active, when the baseline was recorded?)")

    def _ratio(num: float, den: float) -> float:
        if den == 0:
            return 1.0 if num == 0 else float("inf")
        return num / den

    return TraceDiff(
        launch_ratio=ol / bl,
        bytes_ratio=_ratio(ob, bb),
        flops_ratio=_ratio(of, bf),
    )
