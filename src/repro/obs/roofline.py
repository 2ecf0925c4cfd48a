"""Roofline attribution: where does a trace's simulated time go, and why?

The cost model (:mod:`repro.sim.costmodel`) prices every
:class:`~repro.backend.device.KernelLaunch` as
``fixed + max(bytes/BW, flops/F)``; this module keeps the *decomposition*
instead of just the sum and turns it into the paper's Fig.-17-style
utilization story:

* each launch is classified **memory-bound**, **compute-bound**, or
  **launch-bound** (the fixed launch + host dispatch cost exceeds both
  roofline terms — the regime kernel fusion attacks);
* each launch gets an **arithmetic intensity** (FLOPs per byte moved), its
  distance from the GPU's **ridge point**
  (:func:`repro.sim.gpu_specs.ridge_point`), and an **achieved-vs-peak
  fraction** for the resource that binds it;
* launches aggregate per kernel *name*, per cost-model *family*, and per
  training *stage*, producing the ranked top-N bottleneck table the
  ``repro.obs.profile`` CLI prints.

Everything is derived from the same :func:`repro.sim.costmodel
.kernel_time_parts` call the cost model itself uses, so the report's
total is bitwise equal to ``trace_cost(...).total_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..backend.device import KernelLaunch
from ..sim.costmodel import kernel_time_parts, trace_cost
from ..sim.gpu_specs import GPUSpec, ridge_point

#: the three ways a kernel's simulated time can be bound.
BOUNDS = ("memory", "compute", "launch")


@dataclass(frozen=True)
class LaunchRoofline:
    """One launch's placement on the roofline."""

    name: str
    family: str
    stage: str
    bound: str                 # "memory" | "compute" | "launch"
    time_s: float
    fixed_s: float
    mem_s: float
    flop_s: float
    bytes_moved: int
    flops: int
    intensity: float           # FLOPs per byte moved (0 for no-flop kernels)
    ridge: float               # GPU ridge point at this launch's precision
    achieved_fraction: float   # achieved/peak for the binding resource


def analyze_launch(k: KernelLaunch, spec: GPUSpec, *,
                   include_host: bool = True) -> LaunchRoofline:
    """Place one kernel launch on ``spec``'s roofline."""
    parts = kernel_time_parts(k, spec, include_host=include_host)
    total = parts.total_s
    fp16 = k.is_gemm and k.dtype_bytes == 2
    intensity = k.flops / k.bytes_moved if k.bytes_moved > 0 else 0.0
    bound = parts.bound
    if bound == "compute":
        achieved = (k.flops / total) / spec.flops_per_s(fp16)
    elif bound == "memory":
        achieved = (k.bytes_moved / total) / spec.mem_bandwidth
    else:
        achieved = 0.0           # launch-bound: the device is mostly idle
    return LaunchRoofline(
        name=k.name, family=k.family, stage=k.stage, bound=bound,
        time_s=total, fixed_s=parts.fixed_s, mem_s=parts.mem_s,
        flop_s=parts.flop_s, bytes_moved=k.bytes_moved, flops=k.flops,
        intensity=intensity, ridge=ridge_point(spec, fp16),
        achieved_fraction=achieved)


@dataclass
class RooflineGroup:
    """Aggregated roofline placement of a group of launches."""

    key: str
    launches: int = 0
    time_s: float = 0.0
    fixed_s: float = 0.0
    bytes_moved: int = 0
    flops: int = 0
    bound_s: Dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BOUNDS})
    # time-weighted sums, divided out by the properties below
    _achieved_weighted: float = 0.0

    def add(self, r: LaunchRoofline) -> None:
        self.launches += 1
        self.time_s += r.time_s
        self.fixed_s += r.fixed_s
        self.bytes_moved += r.bytes_moved
        self.flops += r.flops
        self.bound_s[r.bound] += r.time_s
        self._achieved_weighted += r.achieved_fraction * r.time_s

    @property
    def dominant_bound(self) -> str:
        return max(BOUNDS, key=lambda b: self.bound_s[b])

    @property
    def intensity(self) -> float:
        return self.flops / self.bytes_moved if self.bytes_moved > 0 else 0.0

    @property
    def achieved_fraction(self) -> float:
        """Time-weighted mean achieved/peak fraction of the group."""
        return (self._achieved_weighted / self.time_s
                if self.time_s > 0 else 0.0)


@dataclass
class RooflineReport:
    """A whole trace's roofline attribution."""

    spec: GPUSpec
    launches: List[LaunchRoofline]
    by_name: Dict[str, RooflineGroup]
    by_family: Dict[str, RooflineGroup]
    by_stage: Dict[str, RooflineGroup]
    total_s: float

    @property
    def bound_s(self) -> Dict[str, float]:
        """Total seconds by binding resource across the trace."""
        out = {b: 0.0 for b in BOUNDS}
        for r in self.launches:
            out[r.bound] += r.time_s
        return out

    def top_bottlenecks(self, n: int = 10) -> List[RooflineGroup]:
        """The ``n`` kernel names carrying the most simulated time."""
        return sorted(self.by_name.values(), key=lambda g: -g.time_s)[:n]

    def format_table(self, n: int = 10) -> str:
        """The ranked bottleneck table the profile CLI prints."""
        lines = [
            f"roofline attribution ({self.spec.name}, ridge "
            f"{ridge_point(self.spec, False):.0f} fp32 / "
            f"{ridge_point(self.spec, True):.0f} fp16 FLOP/B): "
            f"{self.total_s * 1e3:.3f} ms total over "
            f"{len(self.launches)} launches",
        ]
        b = self.bound_s
        lines.append(
            "  bound split: "
            + ", ".join(f"{k} {b[k] * 1e3:.3f} ms"
                        f" ({b[k] / self.total_s:.0%})" if self.total_s > 0
                        else f"{k} 0 ms" for k in BOUNDS))
        lines.append(f"  {'#':>3} {'kernel':<32}{'ms':>9}{'share':>7}"
                     f"{'calls':>7}  {'bound':<8}{'FLOP/B':>8}"
                     f"{'ach%':>6}")
        for i, g in enumerate(self.top_bottlenecks(n), 1):
            share = g.time_s / self.total_s if self.total_s > 0 else 0.0
            lines.append(
                f"  {i:>3} {g.key:<32}{g.time_s * 1e3:>9.3f}"
                f"{share:>7.1%}{g.launches:>7}  {g.dominant_bound:<8}"
                f"{g.intensity:>8.1f}{g.achieved_fraction:>6.0%}")
        return "\n".join(lines)

    def as_dict(self, n: int = 10) -> Dict[str, object]:
        """Machine-readable report (the ``--json`` section)."""
        def group(g: RooflineGroup) -> Dict[str, object]:
            return {"key": g.key, "launches": g.launches,
                    "time_s": g.time_s, "fixed_s": g.fixed_s,
                    "bytes_moved": g.bytes_moved, "flops": g.flops,
                    "bound": g.dominant_bound,
                    "intensity_flop_per_byte": g.intensity,
                    "achieved_fraction": g.achieved_fraction}
        return {
            "gpu": self.spec.name,
            "total_s": self.total_s,
            "launch_count": len(self.launches),
            "ridge_flop_per_byte": {
                "fp32": ridge_point(self.spec, False),
                "fp16": ridge_point(self.spec, True)},
            "bound_s": self.bound_s,
            "top_bottlenecks": [group(g) for g in self.top_bottlenecks(n)],
            "by_family": {k: group(g)
                          for k, g in sorted(self.by_family.items())},
            "by_stage": {k: group(g)
                         for k, g in sorted(self.by_stage.items())},
        }


def roofline_report(trace: Sequence[KernelLaunch], spec: GPUSpec, *,
                    include_host: bool = True) -> RooflineReport:
    """Attribute every launch in ``trace`` on ``spec``'s roofline.

    The report's ``total_s`` is bitwise equal to
    ``trace_cost(trace, spec).total_s`` — attribution never loses (or
    invents) time.
    """
    launches: List[LaunchRoofline] = []
    by_name: Dict[str, RooflineGroup] = {}
    by_family: Dict[str, RooflineGroup] = {}
    by_stage: Dict[str, RooflineGroup] = {}
    for k in trace:
        r = analyze_launch(k, spec, include_host=include_host)
        launches.append(r)
        for table, key in ((by_name, r.name), (by_family, r.family),
                           (by_stage, r.stage)):
            if key not in table:
                table[key] = RooflineGroup(key)
            table[key].add(r)
    return RooflineReport(
        spec=spec, launches=launches, by_name=by_name, by_family=by_family,
        by_stage=by_stage,
        total_s=trace_cost(trace, spec, include_host=include_host).total_s)
