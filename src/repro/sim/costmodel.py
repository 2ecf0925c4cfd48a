"""Roofline cost model: replay a kernel trace into simulated GPU time.

Per kernel::

    t = t_launch + t_host(lib) + max(bytes / (BW_peak * eff), flops / F_eff)

* ``gemm`` and ``attention`` launches (``is_gemm``) use cuBLAS FLOP
  throughput — tensor-core rate when the storage precision is FP16 — with a
  size-dependent utilisation curve.
* Every other launch is bandwidth-bound; its efficiency comes from the
  per-(library, family) curve in :mod:`repro.sim.gpu_specs` of the family
  the kernel declared when it recorded the launch.

The model is deliberately simple — launch overhead + roofline — because the
paper's phenomena (speedup decaying with batch size, deeper stacks gaining
more, FP16 > FP32, A100 > V100) are all first-order consequences of exactly
these two terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from ..backend.device import STAGES, KernelLaunch
from .gpu_specs import (GPUSpec, HOST_OVERHEAD_US, efficiency,
                        gemm_efficiency)


@dataclass(frozen=True)
class KernelTimeParts:
    """Roofline decomposition of one kernel launch's simulated time.

    ``fixed_s`` is the launch + host-dispatch constant, ``mem_s`` and
    ``flop_s`` the two roofline terms; the modeled time takes
    ``fixed_s + max(mem_s, flop_s)``.  ``bound`` names the binding term:
    ``"memory"`` or ``"compute"`` for whichever roofline term dominates,
    ``"launch"`` when the fixed cost exceeds both (the fusion-target
    regime of tiny kernels).
    """

    fixed_s: float
    mem_s: float
    flop_s: float

    @property
    def total_s(self) -> float:
        return self.fixed_s + max(self.mem_s, self.flop_s)

    @property
    def roofline_s(self) -> float:
        """The device-side part: total minus the fixed launch/host cost."""
        return max(self.mem_s, self.flop_s)

    @property
    def bound(self) -> str:
        if self.fixed_s > max(self.mem_s, self.flop_s):
            return "launch"
        return "compute" if self.flop_s > self.mem_s else "memory"


def kernel_time_parts(k: KernelLaunch, spec: GPUSpec, *,
                      include_host: bool = True) -> KernelTimeParts:
    """Decompose one launch's simulated time into fixed/memory/compute.

    This is the query primitive behind :func:`kernel_time` (which returns
    just the sum) and behind :mod:`repro.obs.roofline`'s compute- vs
    memory-bound attribution.
    """
    fixed = (spec.kernel_launch_us
             + (HOST_OVERHEAD_US[k.lib] if include_host else 0.0)) * 1e-6
    fp16 = k.dtype_bytes == 2
    if k.is_gemm:
        eff = gemm_efficiency(k.flops, fp16)
        t_flop = k.flops / (spec.flops_per_s(fp16) * eff)
        t_mem = k.bytes_moved / spec.mem_bandwidth
        return KernelTimeParts(fixed, t_mem, t_flop)
    elems = k.elems_read + k.elems_written
    eff = efficiency(k.lib, k.family, elems)
    t_mem = k.bytes_moved / (spec.mem_bandwidth * eff)
    # non-GEMM arithmetic rarely binds, but keep the term for hot math
    t_flop = k.flops / (spec.flops_per_s(False) * 0.5)
    return KernelTimeParts(fixed, t_mem, t_flop)


def kernel_time(k: KernelLaunch, spec: GPUSpec, *,
                include_host: bool = True) -> float:
    """Simulated execution time (seconds) of one kernel launch.

    ``include_host=False`` models CUDA-event timing (kernel microbenchmarks
    like the paper's Figs. 13-14 tools §4.3): launch latency without the
    framework's per-op dispatch tax, which only end-to-end module timing
    pays.
    """
    return kernel_time_parts(k, spec, include_host=include_host).total_s


@dataclass
class TraceCost:
    """Aggregated simulated cost of a kernel trace.

    ``unattributed_s`` is 0 by construction: every launch declares its
    family, so all of the time lands in :attr:`by_family`.  The field stays
    because the ladder's ``sim.unattributed_share`` reads it; making that
    share measure the step time no kernel accounts for is ROADMAP 10(b).
    """

    total_s: float = 0.0
    by_stage: Dict[str, float] = field(
        default_factory=lambda: {s: 0.0 for s in STAGES})
    by_family: Dict[str, float] = field(default_factory=dict)
    launches: int = 0
    unattributed_s: float = 0.0

    @property
    def unattributed_fraction(self) -> float:
        """Share of total time attributed to no family (0, see above)."""
        return self.unattributed_s / self.total_s if self.total_s > 0 else 0.0

    def add(self, k: KernelLaunch, t: float) -> None:
        self.total_s += t
        self.by_stage[k.stage] = self.by_stage.get(k.stage, 0.0) + t
        self.by_family[k.family] = self.by_family.get(k.family, 0.0) + t
        self.launches += 1


def trace_cost(trace: Iterable[KernelLaunch], spec: GPUSpec, *,
               include_host: bool = True) -> TraceCost:
    """Replay a whole trace through the roofline model."""
    cost = TraceCost()
    for k in trace:
        cost.add(k, kernel_time(k, spec, include_host=include_host))
    return cost


def trace_hbm_bytes(trace: Iterable[KernelLaunch],
                    family: str = None) -> int:
    """Modelled HBM bytes moved by a trace, optionally one family only.

    This is the quantity the tiled-attention bench gates on: the fused
    path round-trips the (B, N, L, L) score/probs tensors through memory
    every step, the tiled path re-reads K/V once per query tile instead —
    at long L the per-step byte count drops by orders of magnitude even
    though the FLOPs are (slightly more than) the same.
    """
    return int(sum(k.bytes_moved for k in trace
                   if family is None or k.family == family))


def stage_seconds(trace: Iterable[KernelLaunch], spec: GPUSpec
                  ) -> Dict[str, float]:
    """Per-training-stage simulated seconds (Fig. 4 input)."""
    return trace_cost(trace, spec).by_stage


def speedup(baseline: Iterable[KernelLaunch],
            optimized: Iterable[KernelLaunch], spec: GPUSpec,
            baseline_extra_s: float = 0.0,
            optimized_extra_s: float = 0.0) -> float:
    """baseline_time / optimized_time under the same GPU spec."""
    tb = trace_cost(baseline, spec).total_s + baseline_extra_s
    to = trace_cost(optimized, spec).total_s + optimized_extra_s
    return tb / to
