"""Roofline attribution: bound classification, aggregation, table."""

import math

import pytest

from repro.backend.device import KernelLaunch
from repro.obs.roofline import analyze_launch, roofline_report
from repro.sim.costmodel import kernel_time, trace_cost
from repro.sim.gpu_specs import V100, ridge_point


def _k(name, er, ew, flops=0, family="elementwise", db=4, stage="forward"):
    return KernelLaunch(name, er, ew, flops=flops, dtype_bytes=db,
                        stage=stage, lib="lightseq2", family=family)


# big enough that the launch constant is negligible
_BIG = 50_000_000


class TestAnalyzeLaunch:
    def test_streaming_kernel_is_memory_bound(self):
        r = analyze_launch(_k("residual_add", _BIG, _BIG), V100)
        assert r.bound == "memory"
        assert r.intensity < r.ridge
        assert 0 < r.achieved_fraction <= 1

    def test_fat_gemm_is_compute_bound(self):
        flops = 400 * (_BIG * 4 * 2)      # intensity 400 FLOP/B >> ridge
        r = analyze_launch(_k("gemm_ffn1", _BIG, _BIG, flops=flops,
                              family="gemm"), V100)
        assert r.bound == "compute"
        assert r.intensity > r.ridge

    def test_tiny_kernel_is_launch_bound(self):
        r = analyze_launch(_k("bias_add", 4, 4), V100)
        assert r.bound == "launch"
        assert r.achieved_fraction == 0.0

    def test_time_matches_cost_model(self):
        k = _k("gemm_qk", _BIG, _BIG, flops=_BIG * 64, family="gemm")
        r = analyze_launch(k, V100)
        assert r.time_s == kernel_time(k, V100)

    def test_fp16_gemm_uses_fp16_ridge(self):
        k = _k("gemm_qk", _BIG, _BIG, flops=_BIG, family="gemm", db=2)
        assert analyze_launch(k, V100).ridge == ridge_point(V100, fp16=True)

    def test_include_host_false_drops_dispatch(self):
        k = _k("softmax_fwd", _BIG, _BIG, family="softmax")
        with_host = analyze_launch(k, V100, include_host=True)
        without = analyze_launch(k, V100, include_host=False)
        assert without.fixed_s < with_host.fixed_s
        assert without.mem_s == with_host.mem_s


class TestCostFamily:
    def test_gemm_promotion(self):
        # a launch declared "gemm" is attributed to gemm whatever its name
        k = _k("matmul_custom", 10, 10, family="gemm")
        assert analyze_launch(k, V100).family == "gemm" and k.is_gemm

    def test_named_family_wins_over_gemm_flag(self):
        # tiled attention kernels are GEMM-priced but stay "attention"
        k = _k("ls_flash_attn_fwd", 10, 10, family="attention")
        assert analyze_launch(k, V100).family == "attention" and k.is_gemm


class TestReport:
    def _trace(self):
        return [
            _k("gemm_ffn1", _BIG, _BIG, flops=_BIG * 800, family="gemm"),
            _k("softmax_fwd", _BIG, _BIG, family="softmax"),
            _k("softmax_fwd", _BIG, _BIG, family="softmax"),
            _k("ls_fused_adam", _BIG, _BIG, stage="update",
               family="optimizer"),
            _k("bias_add", 4, 4),
        ]

    def test_total_matches_trace_cost_bitwise(self):
        trace = self._trace()
        rep = roofline_report(trace, V100)
        assert rep.total_s == trace_cost(trace, V100).total_s

    def test_bound_split_sums_to_total(self):
        rep = roofline_report(self._trace(), V100)
        assert math.isclose(sum(rep.bound_s.values()), rep.total_s,
                            rel_tol=1e-12)

    def test_bottlenecks_ranked_by_time(self):
        rep = roofline_report(self._trace(), V100)
        times = [g.time_s for g in rep.top_bottlenecks(10)]
        assert times == sorted(times, reverse=True)
        # two softmax launches aggregate into one group
        soft = [g for g in rep.top_bottlenecks(10) if g.key == "softmax_fwd"]
        assert len(soft) == 1 and soft[0].launches == 2

    def test_table_and_dict_smoke(self):
        rep = roofline_report(self._trace(), V100)
        table = rep.format_table(3)
        assert "bound split" in table
        d = rep.as_dict(3)
        assert d["total_s"] == rep.total_s
        assert len(d["top_bottlenecks"]) == 3
        assert set(d["bound_s"]) <= {"memory", "compute", "launch"}

    def test_empty_trace(self):
        rep = roofline_report([], V100)
        assert rep.total_s == 0.0
        assert rep.top_bottlenecks(5) == []
