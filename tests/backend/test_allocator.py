"""Allocators and the Fig.-8 lifetime-sharing planner."""

import numpy as np
import pytest

from repro.backend.allocator import (TensorSpec, attention_backward_specs,
                                     plan_offsets, round_block,
                                     validate_plan)
from repro.backend.arena import ActivationArena
from repro.sim.utilization import CachingAllocator


class TestRoundBlock:
    def test_small_rounds_to_512(self):
        assert round_block(1) == 512
        assert round_block(512) == 512
        assert round_block(513) == 1024

    def test_large_rounds_to_2mb(self):
        two_mb = 2 << 20
        assert round_block((1 << 20) + 1) == two_mb
        assert round_block(two_mb + 1) == 2 * two_mb

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_block(0)


class TestCachingAllocator:
    def test_reserved_grows_monotonically(self):
        a = CachingAllocator()
        b1 = a.alloc(1000)
        r1 = a.reserved_bytes
        a.free(b1)
        assert a.reserved_bytes == r1          # freeing never shrinks
        b2 = a.alloc(500)
        assert a.reserved_bytes == r1          # reuse from cache
        assert a.cache_hits == 1
        a.free(b2)

    def test_growth_on_larger_request(self):
        a = CachingAllocator()
        b = a.alloc(1000)
        a.free(b)
        r1 = a.reserved_bytes
        b2 = a.alloc(10_000)                   # no cached block fits
        assert a.reserved_bytes > r1
        a.free(b2)

    def test_best_fit(self):
        a = CachingAllocator()
        small = a.alloc(512)
        big = a.alloc(4096)
        a.free(small)
        a.free(big)
        c = a.alloc(400)                       # should reuse the 512 block
        assert c.nbytes == 512
        a.free(c)

    def test_double_free_rejected(self):
        a = CachingAllocator()
        b = a.alloc(100)
        a.free(b)
        with pytest.raises(ValueError):
            a.free(b)

    def test_peak_tracking(self):
        a = CachingAllocator()
        blocks = [a.alloc(1024) for _ in range(4)]
        assert a.peak_allocated == 4 * 1024
        for b in blocks:
            a.free(b)
        assert a.allocated_bytes == 0
        assert a.peak_allocated == 4 * 1024


class TestStaticPlanAllocator:
    """The static plan (§3.3): one reservation, bump allocation, a cursor
    reset per step.  :class:`ActivationArena` carries it once scanned."""

    @staticmethod
    def _scanned(*request_bytes):
        a = ActivationArena()
        a.begin_step()
        for n in request_bytes:
            a.request((n,), np.uint8)
        a.begin_step()          # reserves the scanned step's demand
        return a

    def test_bump_and_reset(self):
        a = self._scanned(1000, 2000)
        assert a.capacity == round_block(1000) + round_block(2000)
        x = a.request((1000,), np.uint8)
        y = a.request((2000,), np.uint8)
        assert not x.flags.owndata and not y.flags.owndata
        assert not np.shares_memory(x, y)
        assert a.demand == a.capacity
        a.begin_step()
        z = a.request((1000,), np.uint8)   # slab reused from its start
        assert np.shares_memory(z, x)

    def test_reserved_never_changes(self):
        a = self._scanned(5000)
        r = a.capacity
        for _ in range(10):
            a.begin_step()
            assert not a.request((5000,), np.uint8).flags.owndata
        assert a.capacity == r and a.reservations == 1


class TestPlanOffsets:
    def test_disjoint_lifetimes_share(self):
        specs = [TensorSpec("a", 100, 0, 1), TensorSpec("b", 100, 1, 2)]
        offsets, total = plan_offsets(specs)
        assert offsets["a"] == offsets["b"] == 0
        assert total == 100

    def test_overlapping_lifetimes_disjoint(self):
        specs = [TensorSpec("a", 100, 0, 2), TensorSpec("b", 100, 1, 3)]
        offsets, total = plan_offsets(specs)
        assert total == 200
        validate_plan(specs, offsets)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            plan_offsets([TensorSpec("a", 1, 0, 1), TensorSpec("a", 1, 1, 2)])

    def test_empty_lifetime_rejected(self):
        with pytest.raises(ValueError):
            plan_offsets([TensorSpec("a", 1, 2, 2)])

    def test_validate_detects_aliasing(self):
        specs = [TensorSpec("a", 100, 0, 2), TensorSpec("b", 100, 1, 3)]
        with pytest.raises(AssertionError):
            validate_plan(specs, {"a": 0, "b": 50})


class TestFig8:
    """The paper's self-attention backward packing."""

    @pytest.mark.parametrize("b,l,h,n", [(8, 64, 512, 8), (4, 256, 1024, 16),
                                         (2, 16, 64, 4)])
    def test_shared_plan_matches_paper_bound(self, b, l, h, n):
        it = 2
        specs = attention_backward_specs(b, l, h, n, itemsize=it)
        offsets, total = plan_offsets(specs)
        validate_plan(specs, offsets)
        blh = b * l * h * it
        bl2n = b * l * l * n * it
        paper_bound = 3 * blh + max(3 * blh, bl2n)
        assert total <= paper_bound
        unshared = sum(s.nbytes for s in specs)
        assert total < unshared           # sharing must actually save

    def test_scores_dominated_regime_exact(self):
        """When B*L^2*N >= 3*B*L*H the plan is exactly 3BLH + BL^2N."""
        b, l, h, n = 4, 256, 64, 16       # l*n >> 3h
        it = 2
        specs = attention_backward_specs(b, l, h, n, itemsize=it)
        _, total = plan_offsets(specs)
        blh = b * l * h * it
        bl2n = b * l * l * n * it
        assert bl2n >= 3 * blh
        assert total == 3 * blh + bl2n

    def test_saving_vs_unshared(self):
        """Fig. 8's point: the unshared layout wastes ~6 BLH bytes."""
        b, l, h, n = 8, 128, 1024, 16
        specs = attention_backward_specs(b, l, h, n)
        _, total = plan_offsets(specs)
        unshared = sum(s.nbytes for s in specs)
        assert unshared - total >= 3 * b * l * h * 2
