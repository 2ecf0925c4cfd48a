"""Span tracing: nestable wall-clock scopes with counter deltas.

A :func:`span` context manager times a named scope and snapshots what
happened inside it: how many simulated kernel launches the active
:class:`~repro.backend.device.Device` recorded, and how the
:class:`~repro.backend.profiler.AllocCounters` moved.  Spans nest (the
recorder keeps a per-thread stack, so parents always contain their
children) and are thread-safe (each thread gets its own Perfetto ``tid``).

When no :class:`SpanRecorder` is installed, ``span(...)`` yields
immediately without touching the clock — the instrumentation threaded
through the training loop, trainers, data-parallel sync and the arena
costs a dictionary lookup per scope, nothing more.

Usage::

    rec = SpanRecorder()
    with use_recorder(rec):
        with span("fwd/encoder"):
            ...
    rec.spans          # finished Span records, in completion order
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..backend.ambient import RECORDERS, ThreadStack
from ..backend.device import current_device
from ..backend.profiler import AllocCounters, alloc_counters


@dataclass
class Span:
    """One finished (or still-open) traced scope."""

    name: str
    start_s: float = 0.0        # seconds from the recorder's epoch
    dur_s: float = 0.0
    depth: int = 0              # nesting level within its thread
    tid: int = 0                # recorder-local thread index
    parent: Optional[str] = None
    launches: int = 0           # kernel launches recorded inside the scope
    alloc: AllocCounters = field(default_factory=AllocCounters)
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "depth": self.depth,
            "tid": self.tid,
            "parent": self.parent,
            "launches": self.launches,
            "new_allocs": self.alloc.new_allocs,
            "new_alloc_bytes": self.alloc.new_alloc_bytes,
            "arena_hits": self.alloc.arena_hits,
            **({"attrs": dict(self.attrs)} if self.attrs else {}),
        }


class SpanRecorder:
    """Collects finished spans; all wall times are relative to its epoch."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._tids: Dict[int, int] = {}
        #: this thread's open spans, innermost last
        self._open = ThreadStack()

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    def _add(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        """Summed wall-clock of every span with ``name``."""
        return sum(s.dur_s for s in self.by_name(name))


# the recorder slot is process-wide: spans opened on *any* thread land in
# the innermost recorder, so worker threads inherit the main thread's one.
# With none installed, spans are no-ops.
use_recorder = RECORDERS.use
current_recorder = RECORDERS.current


@contextmanager
def span(name: str,
         attrs: Optional[Dict[str, object]] = None) -> Iterator[Optional[Span]]:
    """Trace a named scope on the current recorder (no-op when none).

    ``attrs`` annotates the span with arbitrary key/values (e.g.
    ``{"replay": True}`` on stage spans emitted by the flat dispatch loop);
    they ride along into :meth:`Span.as_dict` / the Perfetto export.
    """
    rec = current_recorder()
    if rec is None:
        yield None
        return
    stack = rec._open.stack
    sp = Span(name=name, depth=len(stack), tid=rec._tid(),
              parent=stack[-1].name if stack else None,
              attrs=dict(attrs) if attrs else {})
    dev = current_device()
    launches0 = len(dev.launches)
    alloc0 = alloc_counters().snapshot()
    stack.append(sp)
    t0 = time.perf_counter()
    sp.start_s = t0 - rec.epoch
    try:
        yield sp
    finally:
        sp.dur_s = time.perf_counter() - t0
        sp.launches = len(dev.launches) - launches0
        sp.alloc = alloc_counters().since(alloc0)
        stack.pop()
        rec._add(sp)
