"""Roofline cost model: declared families, monotonicity, GEMM pricing."""

import pytest

from repro.backend.device import (FAMILIES, Device, KernelLaunch,
                                  UnknownKernelFamily)
from repro.sim.costmodel import (kernel_time, speedup, stage_seconds,
                                 trace_cost)
from repro.sim.gpu_specs import A100, V100

from ..test_family_declarations import declared_families


def _k(name="bias_x", er=1000, ew=1000, flops=0, family="elementwise", db=4,
       stage="forward", lib="pytorch"):
    return KernelLaunch(name, er, ew, flops=flops, dtype_bytes=db,
                        stage=stage, lib=lib, family=family)


class TestFamilyClassification:
    """Each kernel's declared family, pinned: moving one moves every
    per-family sim-clock and launch metric."""

    @pytest.mark.parametrize("name,family", [
        ("ls_layernorm_fwd", "layernorm"),
        ("layernorm_var", "layernorm"),
        ("dropout_fwd", "dropout"),
        ("ls_embedding_bwd", "embedding"),
        ("ls_criterion_fwd", "criterion"),
        ("nll_gather", "criterion"),
        ("ls_fused_adam", "optimizer"),
        ("zero_grad", "optimizer"),
        ("grad_fp16_to_fp32_copy", "memcpy"),
        ("transpose_merge_heads", "transpose"),
        ("bias_add", "elementwise"),
        ("residual_add", "elementwise"),
        ("layernorm_param_grad", "layernorm"),
    ])
    def test_names(self, name, family):
        assert declared_families()[name] == family


class TestUnknownFamily:
    def test_launch_refuses_unknown_family(self):
        with pytest.raises(UnknownKernelFamily, match="warp_shuffle"):
            _k(family="warp_shuffle")
        assert issubclass(UnknownKernelFamily, ValueError)

    def test_record_refuses_unknown_family(self):
        dev = Device()
        with pytest.raises(UnknownKernelFamily, match="bias_typo"):
            dev.record("bias_typo", 1, 1, family="elementwize")
        assert dev.launches == []

    def test_family_is_required(self):
        with pytest.raises(TypeError):
            KernelLaunch("k", 1, 1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gemm_pricing_follows_family(self, family):
        assert _k(family=family).is_gemm == (family in ("gemm", "attention"))


class TestKernelTime:
    def test_launch_floor(self):
        """A tiny kernel costs ~launch + host overhead; CUDA-event timing
        (include_host=False) strips the dispatch tax."""
        t = kernel_time(_k(er=1, ew=1), V100)
        assert 1.5e-5 < t < 3e-5
        t_event = kernel_time(_k(er=1, ew=1), V100, include_host=False)
        assert 3e-6 < t_event < 6e-6

    def test_bandwidth_bound_scales_linearly(self):
        # use a flat-efficiency family (layernorm) so time is linear
        def ln(n):
            return _k(name="layernorm_x", er=n, ew=n, family="layernorm")
        t1 = kernel_time(ln(10**7), V100)
        t2 = kernel_time(ln(2 * 10**7), V100)
        fixed = kernel_time(ln(0), V100)
        assert (t2 - fixed) == pytest.approx(2 * (t1 - fixed), rel=0.01)

    def test_fp16_halves_traffic_time(self):
        t32 = kernel_time(_k(er=10**7, ew=10**7, db=4), V100)
        t16 = kernel_time(_k(er=10**7, ew=10**7, db=2), V100)
        assert t16 < t32

    def test_a100_faster_than_v100(self):
        k = _k(er=10**7, ew=10**7)
        assert kernel_time(k, A100) < kernel_time(k, V100)

    def test_gemm_priced_by_flops(self):
        k = _k(name="gemm", er=10**4, ew=10**4, flops=10**11, family="gemm")
        t = kernel_time(k, V100)
        # 1e11 flops at ~<=15.7 TF can't beat 6ms even at full efficiency
        assert t > 6e-3

    def test_gemm_tensor_core_fp16(self):
        k32 = _k(name="g", er=10**4, ew=10**4, flops=10**12, family="gemm",
                 db=4)
        k16 = _k(name="g", er=10**4, ew=10**4, flops=10**12, family="gemm",
                 db=2)
        assert kernel_time(k16, V100) < kernel_time(k32, V100) / 3

    def test_lightseq_host_overhead_lower(self):
        kp = _k(er=1, ew=1, lib="pytorch")
        kl = _k(er=1, ew=1, lib="lightseq2")
        assert kernel_time(kl, V100) < kernel_time(kp, V100)


class TestTraceAggregation:
    def test_trace_cost_sums(self):
        trace = [_k(), _k(stage="backward"), _k(family="gemm", flops=100)]
        c = trace_cost(trace, V100)
        assert c.launches == 3
        assert c.total_s == pytest.approx(
            sum(kernel_time(k, V100) for k in trace))
        assert c.by_family["gemm"] > 0 and c.by_family["elementwise"] > 0

    def test_stage_seconds(self):
        trace = [_k(stage="forward"), _k(stage="update")]
        s = stage_seconds(trace, V100)
        assert s["forward"] > 0 and s["update"] > 0
        assert s["backward"] == 0

    def test_speedup_symmetric(self):
        fast = [_k(er=10, ew=10)]
        slow = fast * 10
        assert speedup(slow, fast, V100) > 1
        assert speedup(fast, slow, V100) < 1


@pytest.mark.parametrize("name,family", [
    ("ls_attn_softmax_dropout_fwd", "softmax"),   # softmax, not dropout
    ("ls_bias_tanh_fwd", "elementwise"),
])
def test_new_kernel_families(name, family):
    assert declared_families()[name] == family


class TestTraceHbmBytesByFamily:
    """trace_hbm_bytes(..., family=) must partition the trace: every
    kernel family — attention and optimizer included — is selectable and
    the per-family bytes sum back to the whole-trace total."""

    # one launch per family, with a distinct byte footprint each
    _FAMILY_KERNELS = {
        "attention": _k("ls_flash_attn_fwd", 1_000, 2_000,
                        family="attention"),
        "layernorm": _k("ls_layernorm_fwd", 1_001, 2_001,
                        family="layernorm"),
        "softmax": _k("ls_attn_softmax_fwd", 1_002, 2_002,
                      family="softmax"),
        "dropout": _k("dropout_bwd", 1_003, 2_003, family="dropout"),
        "embedding": _k("ls_embedding_fwd", 1_004, 2_004,
                        family="embedding"),
        "criterion": _k("ls_criterion_fwd", 1_005, 2_005,
                        family="criterion"),
        "optimizer": _k("ls_fused_adam", 1_006, 2_006, stage="update",
                        family="optimizer"),
        "memcpy": _k("grad_fp16_to_fp32_copy", 1_007, 2_007,
                     family="memcpy"),
        "transpose": _k("transpose_split_heads", 1_008, 2_008,
                        family="transpose"),
        "reduction": _k("allreduce_grad_bucket", 1_009, 2_009,
                        stage="sync", family="reduction"),
        "elementwise": _k("bias_relu_fwd", 1_010, 2_010,
                          family="elementwise"),
        "gemm": _k("matmul_block", 1_011, 2_011, family="gemm"),
    }

    def _trace(self):
        return list(self._FAMILY_KERNELS.values())

    @pytest.mark.parametrize("family", sorted(_FAMILY_KERNELS))
    def test_each_family_selectable(self, family):
        from repro.sim.costmodel import trace_hbm_bytes
        got = trace_hbm_bytes(self._trace(), family=family)
        assert got == self._FAMILY_KERNELS[family].bytes_moved

    def test_families_partition_the_total(self):
        from repro.sim.costmodel import trace_hbm_bytes
        trace = self._trace()
        total = trace_hbm_bytes(trace)
        assert total == sum(trace_hbm_bytes(trace, family=f)
                            for f in self._FAMILY_KERNELS)
        assert total == sum(k.bytes_moved for k in trace)

    def test_unmatched_family_is_zero(self):
        from repro.sim.costmodel import trace_hbm_bytes
        assert trace_hbm_bytes(self._trace(), family="warp_shuffle") == 0


class TestUnknownKernelNames:
    def test_known_trace_fully_attributed(self):
        """Every launch declares its family, so no time is unattributed."""
        cost = trace_cost([_k("ls_layernorm_fwd", 10_000, 10_000,
                              family="layernorm"),
                           _k("gemm_qkv", 10_000, 10_000, family="gemm")],
                          V100)
        assert cost.unattributed_s == 0.0
        assert cost.unattributed_fraction == 0.0
        assert sum(cost.by_family.values()) == cost.total_s
