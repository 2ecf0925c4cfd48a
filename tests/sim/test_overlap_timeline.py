"""Two-stream overlap model: bucket scheduling, hidden/exposed split."""

import numpy as np
import pytest

from repro.sim.comm import (GradBucket, partition_buckets,
                            ring_allreduce_seconds)
from repro.sim.gpu_specs import A100, V100
from repro.sim.timeline import (TwoStreamTimeline, bucket_ready_times,
                                overlap_schedule)


def _buckets(sizes):
    out, off = [], 0
    for i, n in enumerate(sizes):
        out.append(GradBucket(i, (f"p{i}",), off, off + n))
        off += n
    return out


class TestReadyTimes:
    def test_reverse_order_fractions(self):
        b = _buckets([100, 300, 600])          # n = 1000
        ready = bucket_ready_times(b, backward_s=1.0)
        # launch order is reversed: last bucket first, ready at (n-start)/n
        assert ready == pytest.approx([0.6, 0.9, 1.0])
        assert ready == sorted(ready)          # monotone non-decreasing

    def test_empty(self):
        assert bucket_ready_times([], 1.0) == []


class TestOverlapSchedule:
    def test_world1_is_free(self):
        s = overlap_schedule(_buckets([100]), 4, 1.0, 1, V100)
        assert s.comm_total_s == s.exposed_s == s.hidden_s == 0.0

    def test_exposed_never_exceeds_total(self):
        for sizes in ([512], [100, 200], [64] * 8):
            for overlap in (True, False):
                s = overlap_schedule(_buckets(sizes), 4, 1e-3, 4, V100,
                                     overlap=overlap)
                assert 0.0 <= s.exposed_s <= s.comm_total_s + 1e-12
                assert s.hidden_s + s.exposed_s == pytest.approx(
                    s.comm_total_s)

    def test_no_overlap_exposes_everything(self):
        s = overlap_schedule(_buckets([1000, 1000]), 4, 1.0, 4, V100,
                             overlap=False)
        assert s.exposed_s == pytest.approx(s.comm_total_s)
        assert s.hidden_s == pytest.approx(0.0)

    def test_zero_backward_hides_nothing(self):
        s = overlap_schedule(_buckets([1000, 1000]), 4, 0.0, 4, V100)
        assert s.exposed_s == pytest.approx(s.comm_total_s)

    def test_multiple_buckets_strictly_reduce_exposed(self):
        """With ≥2 buckets and a long-enough backward, launching early
        must strictly beat waiting — the Fig.-11 attack."""
        b = _buckets([1 << 20] * 8)            # 8 x 4MB buckets
        on = overlap_schedule(b, 4, 0.05, 4, A100, overlap=True)
        off = overlap_schedule(b, 4, 0.05, 4, A100, overlap=False)
        assert on.exposed_s < off.exposed_s
        assert on.hidden_s > 0.0

    def test_fifo_comm_stream_never_overlaps_itself(self):
        s = overlap_schedule(_buckets([256, 256, 256]), 4, 1e-2, 4, V100)
        for (s0, f0), s1 in zip(zip(s.start_s, s.finish_s), s.start_s[1:]):
            assert s1 >= f0                    # one collective at a time
        for r, st in zip(s.ready_s, s.start_s):
            assert st >= r                     # never before grads exist

    def test_prices_match_alpha_beta_model(self):
        b = _buckets([4096, 8192])
        s = overlap_schedule(b, 4, 1.0, 8, V100)
        expect = sum(ring_allreduce_seconds(x.nbytes(4), 8, V100)
                     for x in b)
        assert s.comm_total_s == pytest.approx(expect)

    def test_rejects_negative_backward(self):
        with pytest.raises(ValueError):
            overlap_schedule(_buckets([16]), 4, -1.0, 2, V100)


class TestTwoStreamTimeline:
    def test_totals(self):
        tl = TwoStreamTimeline(forward_s=1.0, backward_s=2.0,
                               sync_exposed_s=0.25, sync_hidden_s=0.75,
                               update_s=0.5)
        assert tl.total_s == pytest.approx(3.75)   # hidden time is free

    def test_from_trace(self):
        from repro.backend.device import Device, use_device
        from repro.sim.timeline import two_stream_step_timeline
        dev = Device(lib="lightseq2")
        with use_device(dev):
            with dev.stage_scope("forward"):
                dev.record("bias_k", 1 << 20, 1 << 20, dtype_bytes=4,
                           family="elementwise")
            with dev.stage_scope("backward"):
                dev.record("bias_k", 1 << 22, 1 << 22, dtype_bytes=4,
                           family="elementwise")
        b = partition_buckets([("p", 1 << 18)], 4, 1 << 18)
        on = two_stream_step_timeline(dev.launches, V100, buckets=b,
                                      itemsize=4, world_size=4,
                                      overlap=True)
        off = two_stream_step_timeline(dev.launches, V100, buckets=b,
                                       itemsize=4, world_size=4,
                                       overlap=False)
        assert on.sync_exposed_s + on.sync_hidden_s == pytest.approx(
            off.sync_exposed_s + off.sync_hidden_s)
        assert on.sync_exposed_s <= off.sync_exposed_s
        assert on.backward_s > 0 and on.forward_s > 0
