"""Step timelines (Fig. 4 machinery) and the Fig. 16/17 run simulator."""

import numpy as np
import pytest

from repro.backend.device import Device, KernelLaunch, use_device
from repro.sim.gpu_specs import V100
from repro.sim.timeline import StepInputs, synthetic_buckets
from repro.backend.allocator import round_block
from repro.sim.utilization import (StepShape, TrainingRunSimulator,
                                   trace_busy_overhead)


def _k(stage, er=1000, lib="pytorch"):
    return KernelLaunch("bias_k", er, er, stage=stage, lib=lib,
                        family="elementwise")


class TestTimeline:
    def test_stages_routed(self):
        trace = [_k("forward"), _k("backward"), _k("update")]
        tl = StepInputs(tuple(trace), V100).timeline()
        assert tl.forward_s > 0 and tl.backward_s > 0 and tl.update_s > 0
        assert tl.sync_exposed_s == 0
        assert tl.total_s == pytest.approx(
            tl.forward_s + tl.backward_s + tl.update_s)

    def test_sync_from_comm_model(self):
        trace = [_k("forward")]
        buckets = tuple(synthetic_buckets(10**8 // 4, 4))
        tl1, tl8 = (StepInputs(tuple(trace), V100, world_size=w,
                               buckets=buckets, overlap=False).timeline()
                    for w in (1, 8))
        assert tl1.sync_exposed_s == 0
        assert tl8.sync_exposed_s > 0


class TestBusyOverhead:
    def test_big_kernels_hide_overhead(self):
        big = [KernelLaunch("bias_k", 10**8, 10**8, lib="lightseq2",
                            family="elementwise")]
        busy, exposed = trace_busy_overhead(big, V100)
        assert busy > 0 and exposed == 0.0

    def test_tiny_kernels_expose_gaps(self):
        tiny = [KernelLaunch("bias_k", 10, 10, lib="pytorch",
                             family="elementwise")] * 100
        busy, exposed = trace_busy_overhead(tiny, V100)
        assert exposed > busy


class TestTrainingRunSimulator:
    def _mk(self, static):
        return TrainingRunSimulator(
            spec=V100, permanent_bytes=10**9,
            act_bytes_fn=lambda b, l: b * l * 1000,
            busy_s_fn=lambda b, l: 1e-3,
            overhead_s_fn=lambda b, l: 1e-4,
            static=static)

    def test_static_memory_flat(self):
        sim = self._mk(static=True)
        shapes = [StepShape(16, 8), StepShape(64, 64), StepShape(8, 4)]
        samples = sim.run(shapes)
        reserved = {s.reserved_bytes for s in samples}
        assert reserved == {10**9 + round_block(64 * 64 * 1000)}

    def test_caching_memory_grows_on_longer_batch(self):
        sim = self._mk(static=False)
        samples = sim.run([StepShape(16, 8), StepShape(16, 8),
                           StepShape(64, 64)])
        assert samples[1].reserved_bytes == samples[0].reserved_bytes
        assert samples[2].reserved_bytes > samples[1].reserved_bytes

    def test_caching_stall_hits_utilization(self):
        sim = self._mk(static=False)
        samples = sim.run([StepShape(16, 8), StepShape(64, 64)])
        # step 1 grows the pool -> pays a cudaMalloc stall -> lower util
        assert samples[1].utilization < samples[0].utilization

    def test_time_accumulates(self):
        sim = self._mk(static=True)
        samples = sim.run([StepShape(4, 4)] * 5)
        times = [s.time_s for s in samples]
        assert all(b > a for a, b in zip(times, times[1:]))
