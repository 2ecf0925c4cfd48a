"""Trace aggregation: stage/kernel grouping, trace diffs; allocation
counters under thread contention."""

import sys
import threading

import pytest

from repro.backend.device import Device, use_device
from repro.backend.profiler import (KernelStats, alloc_counters, by_family,
                                    by_kernel, by_stage, compare,
                                    count_arena_hit, count_arena_miss,
                                    count_fresh_alloc, reset_alloc_counters)


@pytest.fixture
def trace():
    d = Device()
    with use_device(d):
        d.record("a", 10, 10, flops=5, family="elementwise")
        d.record("gemm_x", 100, 50, flops=1000, family="gemm")
        with d.stage_scope("backward"):
            d.record("a", 20, 20, flops=10, family="elementwise")
    return d.launches


def test_by_stage(trace):
    s = by_stage(trace)
    assert s["forward"].launches == 2
    assert s["backward"].launches == 1
    assert s["backward"].flops == 10
    assert s["sync"].launches == 0


def test_by_kernel(trace):
    k = by_kernel(trace)
    assert k["a"].launches == 2
    assert k["a"].elems_read == 30
    assert k["gemm_x"].launches == 1
    assert by_family(trace)["gemm"].launches == 1


def test_merge():
    a, b = KernelStats(), KernelStats()
    a.launches, a.flops = 2, 10
    b.launches, b.flops = 3, 5
    m = a.merge(b)
    assert m.launches == 5 and m.flops == 15


def test_compare_ratios(trace):
    half = trace[:1]
    diff = compare(trace, half)
    assert diff.launch_ratio == pytest.approx(1 / 3)
    assert 0 < diff.bytes_ratio < 1


def test_compare_empty_baseline_raises(trace):
    """An empty baseline means undefined ratios — explicit error, not NaN."""
    with pytest.raises(ValueError, match="non-empty baseline"):
        compare([], [])
    with pytest.raises(ValueError, match="non-empty baseline"):
        compare([], trace)


def test_compare_empty_optimized_is_defined(trace):
    """Only the baseline must be non-empty; an empty optimized trace is a
    legitimate 'everything was removed' result."""
    diff = compare(trace, [])
    assert diff.launch_ratio == 0.0
    assert diff.bytes_ratio == 0.0


def test_alloc_counters_exact_under_thread_contention():
    """Concurrent kernel-output counts lose no update: with a switch
    interval of one microsecond, an unguarded ``+=`` on the shared fields
    drops some."""
    reset_alloc_counters()
    calls = 20_000
    counters = (count_fresh_alloc, count_arena_hit, count_arena_miss)

    def hammer():
        for i in range(calls):
            counters[i % 3](8)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    c = alloc_counters().snapshot()
    reset_alloc_counters()
    total = 4 * calls
    assert c.fresh + c.arena_hits + c.arena_misses == total
    assert (c.fresh, c.arena_hits, c.arena_misses) == (
        4 * 6667, 4 * 6667, 4 * 6666)
    assert c.fresh_bytes + c.arena_hit_bytes + c.arena_miss_bytes \
        == 8 * total
    assert c.window_bytes == c.peak_bytes == 8 * total
