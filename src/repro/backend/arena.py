"""Activation arena — §3.3's static allocator, made real on the numpy substrate.

An :class:`ActivationArena` is the repo's one memory manager: it owns one
byte slab, reserved once at the maximum per-step footprint observed during
a dry-run shape scan (the paper's corpus scan), and every kernel output in
a training step is bump-allocated as a view into that slab.  After warm-up
a step performs **zero** numpy buffer allocations for kernel outputs — the
churn the PyTorch caching allocator pays on every batch (Fig. 16)
disappears.

Life cycle::

    arena = ActivationArena()
    model.set_arena(arena)              # thread the handle through layers
    for batch in corpus:
        # runs inside arena.step(): reset cursor, (re-)reserve on growth
        staged_forward_backward(model, batch, 1.0, arena)

* **Step 1 is the scan**: the slab does not exist yet, so every request
  falls back to a fresh allocation (an *arena miss*) while the arena
  records the total demand.  ``step()`` then reserves the slab at that
  maximum before step 2 — all hits from then on.
* **Re-reservation**: if a later batch is larger than anything scanned, its
  overflow requests miss (correctness is never compromised) and the slab is
  re-reserved at the new maximum on the next ``step()`` — the same policy
  LightSeq2 applies when the corpus scan under-estimates.
* **Lifetime sharing**: :meth:`request_plan` packs a set of named tensors
  with known lifetimes via :func:`~repro.backend.allocator.pack_plan`, so
  disjoint-lifetime tensors share slab offsets — the Fig. 8
  attention-backward plan, used by
  :meth:`repro.layers.attention.MultiHeadAttention.backward`.

Kernels reach the arena through :func:`current_arena` (installed by
``arena.step()``), so even call sites that do not pass ``out=`` explicitly
are served from the slab.  With no arena installed every request returns a
fresh buffer and execution is bit-identical — the arena only changes *where*
outputs live, never what they contain.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .allocator import PlanEntry, pack_plan, round_block
from .ambient import RECORDERS, Slot
from .profiler import begin_alloc_step, count_arena_hit, count_arena_miss

def _nbytes(shape: Sequence[int], dtype) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n * np.dtype(dtype).itemsize


# ---------------------------------------------------------------------------
# memory tracers + requesting-site labels (the memory observatory's hooks)
# ---------------------------------------------------------------------------

#: installed memory tracers (:class:`repro.obs.memory.MemoryTracer`).
#: Every installed tracer is notified of every arena request/plan/
#: reservation/OOM (duck-typed ``on_request``/``on_plan``/``on_step``/
#: ``on_reserve``/``on_oom`` hooks), so the arena iterates the whole
#: ``stack`` rather than asking for the innermost.
MEMORY_TRACERS = Slot("memory tracer")
use_memory_tracer = MEMORY_TRACERS.use

#: requesting-site labels (layer names), per thread: ``mem_scope(site)``
#: labels the arena requests inside its block.
SITES = Slot("memory site", per_thread=True)
mem_scope = SITES.use


def current_site() -> Optional[str]:
    """The innermost requesting-site label, for memory attribution.

    Prefers the :func:`mem_scope` stack (layer names threaded through
    forward/backward), falls back to the innermost active span's name, then
    ``None``.
    """
    site = SITES.current()
    if site is not None:
        return site
    rec = RECORDERS.current()
    if rec is not None:
        spans = rec._open.stack
        if spans:
            return spans[-1].name
    return None


def mem_scoped(fn):
    """Wrap a ``Layer`` method so its arena requests carry the layer name
    as the requesting site (``with mem_scope(self.name)``);
    ``Layer.__init_subclass__`` applies it to every forward/backward.  With
    no memory tracer installed the wrapper pushes nothing, so the labels
    stay permanently threaded through the layers at ~no cost."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not MEMORY_TRACERS.stack:
            return fn(self, *args, **kwargs)
        with mem_scope(self.name):
            return fn(self, *args, **kwargs)
    return wrapper


class ArenaOOM(RuntimeError):
    """A step's activation demand exceeded the arena's ``max_bytes`` budget.

    Raised *before* the offending buffer is allocated, so an over-budget
    path (e.g. quadratic attention at long sequence length) fails fast
    instead of materialising multi-GB host arrays first.

    Carries the failure's accounting as attributes: ``requested`` (bytes of
    the failing request), ``budget`` (``max_bytes``), ``demand`` (step
    demand before the request), ``capacity`` (current reservation),
    ``site`` (requesting layer/span, when known), ``shape``/``dtype`` of
    the request, and — when a memory tracer is installed — a full
    forensics ``report`` (see :func:`repro.obs.memory.oom_forensics`).
    """

    def __init__(self, message: str, *, requested: int = 0,
                 budget: Optional[int] = None, demand: int = 0,
                 capacity: int = 0, site: Optional[str] = None,
                 shape: Optional[Tuple[int, ...]] = None,
                 dtype: Optional[str] = None):
        super().__init__(message)
        self.requested = requested
        self.budget = budget
        self.demand = demand
        self.capacity = capacity
        self.site = site
        self.shape = shape
        self.dtype = dtype
        self.report: Optional[Dict[str, object]] = None


class ActivationArena:
    """One pre-reserved slab serving all kernel outputs of a training step.

    ``max_bytes`` models the device-memory budget: when set, any step whose
    cumulative demand would exceed it raises :class:`ArenaOOM` at request
    time (and reservation refuses to grow past it).  ``None`` (default)
    keeps the historical unbounded behaviour.
    """

    def __init__(self, *, max_bytes: Optional[int] = None):
        self.max_bytes = max_bytes
        # zero capacity: every request misses but demand is still recorded,
        # so the first step doubles as the dry-run shape scan
        self._capacity = 0
        #: bump cursor: slab bytes handed out to this step's hits.
        self._cursor = 0
        #: bytes this step *wanted*, including requests that did not fit —
        #: what the next reservation must cover.
        self._demand = 0
        self._slab: Optional[np.ndarray] = None
        #: demand carried across steps: next reservation must cover the max.
        self._peak_demand = 0
        #: plan key -> (offsets, shared total, naive no-sharing total)
        self._plan_cache: Dict[tuple, Tuple[Dict[str, int], int, int]] = {}
        self.steps = 0
        self.reservations = 0
        #: bumped on every (re-)reservation: captured programs bake views of
        #: the slab in, so a new slab invalidates them (see backend.program)
        self.generation = 0

    # -- introspection ------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Currently reserved slab bytes (0 before the first scan step)."""
        return self._capacity

    @property
    def demand(self) -> int:
        """Bytes the current step has requested so far (hits + misses)."""
        return self._demand

    @property
    def peak_demand(self) -> int:
        """High-water per-step demand in bytes, including the in-flight
        step.  Once :meth:`begin_step` has folded the maximum step in,
        ``round_block(peak_demand) == capacity`` — the bitwise invariant
        the memory observatory asserts."""
        return max(self._peak_demand, self._demand)

    @property
    def warmed_up(self) -> bool:
        """True once a slab exists that covered every scanned step."""
        return self.capacity > 0 and self.capacity >= self._peak_demand

    # -- reservation / step cycle -------------------------------------------

    def _reserve(self, nbytes: int) -> None:
        # span import is deferred: backend.kernels imports this module
        # during package init, before repro.obs can finish loading.
        from ..obs.spans import span
        if self.max_bytes is not None and nbytes > self.max_bytes:
            site = current_site()
            exc = ArenaOOM(
                f"arena reservation of {nbytes:,} bytes exceeds the "
                f"max_bytes budget of {self.max_bytes:,} (current "
                f"reservation {self.capacity:,} bytes"
                + (f", requested at {site}" if site else "") + ")",
                requested=nbytes, budget=self.max_bytes,
                demand=self._demand, capacity=self.capacity,
                site=site)
            for t in MEMORY_TRACERS.stack:
                t.on_oom(self, exc)
            raise exc
        with span("arena/reserve"):
            self._capacity = round_block(nbytes)
            self._slab = np.empty(self._capacity, dtype=np.uint8)
            self.reservations += 1
            self.generation += 1
        for t in MEMORY_TRACERS.stack:
            t.on_reserve(self, nbytes)

    def begin_step(self) -> None:
        """Start a step: rewind the bump cursor, re-reserving on growth."""
        self._peak_demand = max(self._peak_demand, self._demand)
        if self._peak_demand > self.capacity:
            self._reserve(self._peak_demand)
        self._cursor = 0
        self._demand = 0
        begin_alloc_step()        # new peak_bytes window for the profiler
        self.steps += 1
        for t in MEMORY_TRACERS.stack:
            t.on_step(self)

    @contextmanager
    def step(self) -> Iterator["ActivationArena"]:
        """Scope one training step: reset + install as the current arena."""
        self.begin_step()
        with use_arena(self):
            yield self

    def scan(self, step_fn, batches) -> None:
        """Explicit corpus scan: dry-run ``step_fn`` over representative
        (maximum-shape) batches so the first real step already hits."""
        for batch in batches:
            with self.step():
                step_fn(batch)
        self.begin_step()          # fold the scanned demand into the slab
        self.steps -= 1            # ... without counting an extra step

    # -- allocation ---------------------------------------------------------

    def request(self, shape: Sequence[int], dtype=np.float32) -> np.ndarray:
        """An output buffer of ``shape``/``dtype`` from the slab.

        Falls back to a fresh allocation (counted as a miss) whenever the
        slab is absent or exhausted — correctness never depends on the
        scan having been complete.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = _nbytes(shape, dtype)
        if nbytes == 0:
            return np.empty(shape, dtype)
        if (self.max_bytes is not None
                and self._demand + nbytes > self.max_bytes):
            site = current_site()
            exc = ArenaOOM(
                f"arena OOM: request of {nbytes:,} bytes for {shape} "
                f"{dtype}" + (f" at {site}" if site else "")
                + f" pushes step demand to "
                f"{self._demand + nbytes:,} bytes, over the "
                f"max_bytes budget of {self.max_bytes:,} "
                f"(current reservation {self.capacity:,} bytes, step "
                f"demand before the request {self._demand:,})",
                requested=nbytes, budget=self.max_bytes,
                demand=self._demand, capacity=self.capacity,
                site=site, shape=shape, dtype=str(dtype))
            for t in MEMORY_TRACERS.stack:
                t.on_oom(self, exc)
            raise exc
        # bump inside the slab; demand is recorded hit or miss, so a scan
        # step (empty or undersized slab) still measures the true footprint
        size = round_block(nbytes)
        self._demand += size
        offset = self._cursor
        hit = offset + size <= self._capacity
        if hit:
            self._cursor += size
            count_arena_hit(nbytes)
            view = self._slab[offset:offset + nbytes]
            out = view.view(dtype).reshape(shape)
        else:
            count_arena_miss(nbytes)
            out = np.empty(shape, dtype)
        if MEMORY_TRACERS.stack:
            for t in MEMORY_TRACERS.stack:
                t.on_request(self, shape=shape, dtype=dtype, nbytes=nbytes,
                             hit=hit, demand=self._demand)
        return out

    def request_plan(self, entries: Sequence[PlanEntry]) -> Dict[str, np.ndarray]:
        """Lifetime-shared buffers for a set of named tensors (Fig. 8).

        ``entries`` are ``(name, shape, dtype, start, end)`` with half-open
        lifetimes in abstract execution steps; tensors whose lifetimes do
        not overlap share offsets, so the block is smaller than the sum of
        its tensors.  The caller must honour the declared lifetimes — a
        tensor's contents are only valid between its producing and last
        consuming step.
        """
        key = tuple((name, tuple(shape), np.dtype(dtype).str, start, end)
                    for name, shape, dtype, start, end in entries)
        cached = self._plan_cache.get(key)
        if cached is None:
            # the no-sharing footprint (sum of aligned tensors) rides along
            # so the memory observatory can report the Fig.-8 saving
            cached = pack_plan(key)
            self._plan_cache[key] = cached
        offsets, total, naive_total = cached
        if MEMORY_TRACERS.stack:
            for t in MEMORY_TRACERS.stack:
                t.on_plan(self, entries=key, offsets=offsets, total=total,
                          naive_total=naive_total)
        base = self.request((total,), np.uint8)
        out: Dict[str, np.ndarray] = {}
        for name, shape, dtype, _start, _end in entries:
            nb = _nbytes(shape, dtype)
            off = offsets[name]
            out[name] = base[off:off + nb].view(np.dtype(dtype)).reshape(shape)
        return out


#: the current arena, per thread (installed by ``arena.step()``); None
#: means fresh-allocation mode.
ARENA = Slot("arena", per_thread=True)
use_arena = ARENA.use
current_arena = ARENA.current
