"""Property-based tests for the memory planners (hypothesis).

The Fig.-8 planner's safety property — no two live tensors ever alias —
must hold for *arbitrary* lifetime sets, not just the attention workload;
the activation arena's bump allocator must keep its accounting exact for
arbitrary multi-step request streams.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.allocator import (TensorSpec, plan_offsets, round_block,
                                     validate_plan)
from repro.backend.arena import ActivationArena
from repro.backend.profiler import alloc_counters
from repro.sim.utilization import CachingAllocator


@st.composite
def tensor_specs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for i in range(n):
        start = draw(st.integers(min_value=0, max_value=20))
        end = draw(st.integers(min_value=start + 1, max_value=22))
        nbytes = draw(st.integers(min_value=1, max_value=4096))
        specs.append(TensorSpec(f"t{i}", nbytes, start, end))
    return specs


@given(tensor_specs())
@settings(max_examples=200, deadline=None)
def test_plan_never_aliases_live_tensors(specs):
    offsets, total = plan_offsets(specs)
    validate_plan(specs, offsets)           # raises on aliasing
    assert total <= sum(s.nbytes for s in specs)
    for s in specs:
        assert 0 <= offsets[s.name]
        assert offsets[s.name] + s.nbytes <= total


@given(tensor_specs())
@settings(max_examples=100, deadline=None)
def test_plan_at_least_peak_live_bytes(specs):
    """The slab can never be smaller than the max simultaneously-live sum
    (an information-theoretic lower bound)."""
    _, total = plan_offsets(specs)
    times = sorted({s.start for s in specs})
    peak = max(sum(s.nbytes for s in specs if s.start <= t < s.end)
               for t in times)
    assert total >= peak


@given(st.integers(min_value=1, max_value=1 << 26))
@settings(max_examples=200, deadline=None)
def test_round_block_properties(n):
    r = round_block(n)
    assert r >= n
    assert r % 512 == 0
    if n >= (1 << 20):
        assert r % (2 << 20) == 0
    assert r - n < (2 << 20)


@given(st.lists(st.integers(min_value=1, max_value=1 << 22), min_size=1,
                max_size=40))
@settings(max_examples=100, deadline=None)
def test_caching_allocator_invariants(sizes):
    """Reserved never shrinks; alloc/free pairs leave allocated at zero;
    replaying the same sequence hits the cache the second time."""
    a = CachingAllocator()
    reserved_history = []
    for _ in range(2):
        blocks = [a.alloc(s) for s in sizes]
        reserved_history.append(a.reserved_bytes)
        for b in blocks:
            a.free(b)
    assert a.allocated_bytes == 0
    # monotone reserve
    assert reserved_history[0] <= reserved_history[1] or \
        reserved_history == sorted(reserved_history)
    # second pass is fully served from cache
    assert reserved_history[1] == reserved_history[0]


#: request sizes on both sides of round_block's 1 MiB granularity switch
#: (512 B below it, 2 MiB from it on), plus small ones.
_REQ_BYTES = st.one_of(
    st.integers(min_value=1, max_value=8192),
    st.integers(min_value=(1 << 20) - 4096, max_value=(1 << 20) + 4096))
_DTYPES = (np.uint8, np.float16, np.float32, np.float64)
_STEP = st.lists(st.tuples(_REQ_BYTES, st.sampled_from(_DTYPES)),
                 min_size=1, max_size=6)


@given(st.lists(_STEP, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_arena_bump_allocation(steps):
    """The arena's bump allocator over multi-step request streams.

    A request is served from the slab (a hit) iff the rounded bytes the
    step's earlier hits took plus its own fit the capacity held at step
    start; demand counts every request, hit or miss; each new step
    reserves ``round_block`` of the largest step demand seen so far.
    """
    arena = ActivationArena()
    max_demand = reserved_for = 0
    for reqs in steps:
        reservations = arena.reservations
        arena.begin_step()
        assert arena.capacity == (round_block(max_demand) if max_demand
                                  else 0)
        if arena.reservations != reservations:
            # a reservation only ever follows growth of the maximum
            assert arena.reservations == reservations + 1
            assert max_demand > reserved_for
            reserved_for = max_demand
        assert arena.warmed_up == (max_demand > 0)
        capacity = arena.capacity
        before = alloc_counters().snapshot()
        used = demand = 0
        hits, misses = [], 0
        for nbytes, dtype in reqs:
            itemsize = np.dtype(dtype).itemsize
            count = max(1, nbytes // itemsize)
            size = round_block(count * itemsize)
            out = arena.request((count,), dtype)
            assert out.shape == (count,) and out.dtype == np.dtype(dtype)
            demand += size
            assert arena.demand == demand
            hit = out.base is not None      # a slab view, not a fresh buffer
            assert hit == (used + size <= capacity)
            if hit:
                used += size
                hits.append(out)
            else:
                misses += 1
        for i, a in enumerate(hits):
            for b in hits[i + 1:]:
                assert not np.shares_memory(a, b)
        delta = alloc_counters().since(before)
        assert delta.arena_hits == len(hits)
        assert delta.arena_misses == misses
        assert arena.peak_demand == max(max_demand, demand)
        max_demand = max(max_demand, demand)
    arena.begin_step()
    assert arena.capacity == round_block(max_demand)
    assert arena.warmed_up
