"""Conformance of every ambient slot to the one install/lookup contract.

Each case drives a channel through its public names only (``use_*`` and
its lookup), so the table below is also the list of channels: a new slot
gets a row here.
"""

import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.backend.ambient import Slot
from repro.backend.arena import (ActivationArena, current_arena, current_site,
                                 mem_scope, use_arena, use_memory_tracer)
from repro.backend.device import (NULL_DEVICE, Device, current_device,
                                  use_device)
from repro.backend.program import (CAPTURE, CaptureError, CaptureSession,
                                   capturing)
from repro.obs.numerics import (NumericsCollector, current_collector,
                                use_collector)
from repro.obs.spans import SpanRecorder, current_recorder, use_recorder
from repro.resilience.faults import (FaultInjector, FaultPlan,
                                     current_injector, use_faults)


class _Tracer:
    """Duck-typed memory tracer that logs which tracer saw a request."""

    log: list = []

    def on_request(self, arena, **_):
        self.log.append(self)


def _notified_tracers():
    """The tracers an arena request reaches, in notification order."""
    _Tracer.log.clear()
    ActivationArena().request((4,))
    return tuple(_Tracer.log)


_SITE_IDS = itertools.count()


@dataclass
class Case:
    use: Callable[[Any], Any]
    lookup: Callable[[], Any]
    make: Callable[[], Any]
    default: Any
    per_thread: bool
    nested: str = "innermost"     # | "all" (every value seen) | "refuse"


CASES = {
    "device": Case(use_device, current_device, Device, NULL_DEVICE, True),
    "arena": Case(use_arena, current_arena, ActivationArena, None, True),
    "mem_site": Case(mem_scope, current_site,
                     lambda: f"site{next(_SITE_IDS)}", None, True),
    "recorder": Case(use_recorder, current_recorder, SpanRecorder, None,
                     False),
    "collector": Case(use_collector, current_collector, NumericsCollector,
                      None, False),
    "memory_tracer": Case(use_memory_tracer, _notified_tracers, _Tracer, (),
                          False, nested="all"),
    "injector": Case(use_faults, current_injector,
                     lambda: FaultInjector(FaultPlan()), None, False),
    "capture": Case(capturing, CAPTURE.current, CaptureSession, None, False,
                    nested="refuse"),
}


def _seen(case, *values):
    """What the lookup should return with ``values`` installed, outermost
    first."""
    return values if case.nested == "all" else values[-1]


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_default_when_nothing_installed(case):
    assert case.lookup() == case.default


def test_innermost_installation_wins(case):
    outer, inner = case.make(), case.make()
    with case.use(outer) as got:
        assert got is outer
        assert case.lookup() == _seen(case, outer)
        if case.nested == "refuse":
            with pytest.raises(CaptureError, match="nested"):
                with case.use(inner):
                    pass
        else:
            with case.use(inner):
                assert case.lookup() == _seen(case, outer, inner)
        assert case.lookup() == _seen(case, outer)
    assert case.lookup() == case.default


def test_previous_state_restored_when_block_raises(case):
    outer, inner = case.make(), case.make()
    with pytest.raises(KeyError):
        with case.use(outer):
            if case.nested != "refuse":
                with pytest.raises(ValueError):
                    with case.use(inner):
                        raise ValueError
                assert case.lookup() == _seen(case, outer)
            raise KeyError
    assert case.lookup() == case.default


def test_worker_thread_sees_only_process_wide_installations(case):
    value = case.make()
    seen = {}

    def worker():
        seen["value"] = case.lookup()

    with case.use(value):
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    expected = case.default if case.per_thread else _seen(case, value)
    assert seen["value"] == expected


def test_process_wide_installs_from_many_threads_keep_their_own_value():
    """Interleaved installs on a shared slot each remove their own value,
    so a thread's value stays installed until its own block exits."""
    slot = Slot("stress")
    barrier = threading.Barrier(8)
    lost = []

    def worker():
        barrier.wait()
        for _ in range(200):
            value = object()
            with slot.use(value):
                time.sleep(0)
                if value not in slot.stack:
                    lost.append(value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert lost == []
    assert slot.stack == []
