"""Roofline cost model: replay a kernel trace into simulated GPU time.

Per kernel::

    t = t_launch + t_host(lib) + max(bytes / (BW_peak * eff), flops / F_eff)

* GEMMs (``is_gemm``) use cuBLAS FLOP throughput — tensor-core rate when the
  storage precision is FP16 — with a size-dependent utilisation curve.
* Non-GEMM kernels are bandwidth-bound; their efficiency comes from the
  per-(library, kernel-family) curves in :mod:`repro.sim.gpu_specs`.

The model is deliberately simple — launch overhead + roofline — because the
paper's phenomena (speedup decaying with batch size, deeper stacks gaining
more, FP16 > FP32, A100 > V100) are all first-order consequences of exactly
these two terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from ..backend.device import STAGES, KernelLaunch
from .gpu_specs import (GPUSpec, HOST_OVERHEAD_US, efficiency,
                        gemm_efficiency)

#: substrings that map a kernel name onto a cost-model family, checked in
#: order (first match wins).
_FAMILY_PATTERNS = (
    ("flash", "attention"),
    ("layernorm", "layernorm"),
    ("softmax", "softmax"),
    ("dropout", "dropout"),
    ("embed", "embedding"),
    # the reduction patterns must precede "ce_": "allreduce_..." and
    # "reduce_scatter_..." contain the substring "ce_" and would be
    # misfiled as cross-entropy criterion kernels otherwise
    ("reduce", "reduction"),
    ("allgather", "reduction"),
    ("criterion", "criterion"),
    ("nll", "criterion"),
    ("smooth", "criterion"),
    ("loss", "criterion"),
    ("log_kernel", "criterion"),
    ("ce_", "criterion"),
    ("adam", "optimizer"),
    ("sgd", "optimizer"),
    ("zero_grad", "optimizer"),
    ("workspace", "memcpy"),
    ("copy", "memcpy"),
    ("padding", "memcpy"),
    ("transpose", "transpose"),
    ("split_heads", "transpose"),
    ("merge_heads", "transpose"),
    ("grad", "reduction"),
)

#: substrings naming kernels that legitimately ARE elementwise — the
#: activation/bias/residual epilogues.  Everything else that falls past
#: ``_FAMILY_PATTERNS`` is an *unknown* name, not an elementwise kernel,
#: and gets warned about (once) so roofline attribution can't quietly
#: misprice a whole kernel category under the wrong efficiency curve.
_KNOWN_ELEMENTWISE = ("bias", "relu", "gelu", "tanh", "sigmoid", "residual",
                      "scale", "mask_add", "gemm", "matmul", "add", "mul")

#: unknown kernel names already warned about (one warning per unique name
#: per process, so a 10k-launch trace doesn't emit 10k warnings).
_WARNED_UNKNOWN: Set[str] = set()


def known_kernel_family(name: str) -> Optional[str]:
    """The cost-model family of a kernel name, or ``None`` if the name
    matches no known pattern (the caller decides how to price it)."""
    n = name.lower()
    for pat, fam in _FAMILY_PATTERNS:
        if pat in n:
            return fam
    for pat in _KNOWN_ELEMENTWISE:
        if pat in n:
            return "elementwise"
    return None


def kernel_family(name: str) -> str:
    """Classify a kernel name into a cost-model family.

    Unknown names fall back to the "elementwise" pricing curve (the
    safest default) but emit a one-time warning per unique name: silence
    here would let a renamed kernel's time drift between families without
    anyone noticing, which is exactly what roofline attribution exists to
    prevent.  :class:`TraceCost` additionally surfaces the summed time of
    such launches as ``unattributed_s`` / ``unattributed_fraction``.
    """
    fam = known_kernel_family(name)
    if fam is not None:
        return fam
    if name not in _WARNED_UNKNOWN:
        _WARNED_UNKNOWN.add(name)
        warnings.warn(
            f"kernel name {name!r} matches no cost-model family pattern; "
            f"pricing it as 'elementwise' and counting its time as "
            f"unattributed (add a pattern in repro.sim.costmodel to "
            f"attribute it)", stacklevel=2)
    return "elementwise"


def cost_family(k: KernelLaunch) -> str:
    """The family every attribution reports a launch under.

    :func:`kernel_family` of its name, except that an ``is_gemm`` launch
    whose name maps to ``elementwise`` is promoted to ``gemm``.  Names that
    claim a more specific family keep it: the tiled attention kernels are
    GEMM-bound but reported as ``attention``, so fused-vs-tiled traffic is
    comparable per family.
    """
    fam = kernel_family(k.name)
    if k.is_gemm and fam == "elementwise":
        fam = "gemm"
    return fam


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
    fam = kernel_family(k.name)
    elems = k.elems_read + k.elems_written
    eff = efficiency(k.lib, fam, elems)
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

    ``unattributed_s`` sums the time of launches whose names matched no
    known family pattern (they were priced under the catch-all
    elementwise curve) — a non-zero :attr:`unattributed_fraction` means
    the roofline attribution is partially guessing and the family table
    should grow a pattern.
    """

    total_s: float = 0.0
    by_stage: Dict[str, float] = field(
        default_factory=lambda: {s: 0.0 for s in STAGES})
    by_family: Dict[str, float] = field(default_factory=dict)
    gemm_s: float = 0.0
    non_gemm_s: float = 0.0
    launches: int = 0
    unattributed_s: float = 0.0

    @property
    def unattributed_fraction(self) -> float:
        """Share of total time carried by unknown kernel names."""
        return self.unattributed_s / self.total_s if self.total_s > 0 else 0.0

    def add(self, k: KernelLaunch, t: float) -> None:
        self.total_s += t
        self.by_stage[k.stage] = self.by_stage.get(k.stage, 0.0) + t
        fam = cost_family(k)                 # warns once per unknown name
        # an unknown name lands in "elementwise"; only non-GEMM ones count
        if (fam == "elementwise" and not k.is_gemm
                and known_kernel_family(k.name) is None):
            self.unattributed_s += t
        self.by_family[fam] = self.by_family.get(fam, 0.0) + t
        if k.is_gemm:
            self.gemm_s += t
        else:
            self.non_gemm_s += t
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
    total = 0
    for k in trace:
        fam = cost_family(k)
        if family is not None and fam != family:
            continue
        total += k.bytes_moved
    return int(total)


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
