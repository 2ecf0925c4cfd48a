"""``python -m repro.obs profile`` — where is the step's time going?

Reads a Perfetto trace JSON written by :func:`repro.obs.perfetto
.write_trace` (e.g. ``repro.train --trace-out``), rebuilds the kernel
launch list from the round-trippable slice args, and prints the whole
performance observatory in one shot:

1. the **roofline attribution** table (:mod:`repro.obs.roofline`) —
   top-N bottleneck kernels, compute- vs memory- vs launch-bound;
2. the **critical path** through the step's two-stream schedule
   (:mod:`repro.obs.critpath`) with every second attributed to
   {compute family, host overhead, exposed comm, retry};
3. **what-if projections** — the same trace re-priced under "comm is
   free", "attn_impl=tiled", "world=16", "gpu=H100", ...

``--json`` emits the same analysis as one machine-readable document
(schema ``repro.obs.profile/v1``), and ``--out PATH`` writes it to a file.

Step-model metadata (GPU, world size, gradient size, attention geometry)
is read from the trace's ``otherData`` where the train CLI stamps it;
every item can be overridden on the command line, which is also how
traces from other producers (benches, tests) get analyzed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sim.gpu_specs import GPUS, GPUSpec
from ..sim.timeline import StepInputs, synthetic_buckets
from .critpath import (CriticalPath, Projection, attribute_critical_path,
                       critical_path, whatif)
from .perfetto import read_trace, trace_kernels
from .roofline import RooflineReport, roofline_report
from .runrecord import emit_document
from .schema import INT, POSITIVE

PROFILE_SCHEMA = "repro.obs.profile/v1"

#: the kind each numeric override flag is held to: that of the trace
#: stamp it replaces (``perfetto.TRACE``'s ``otherData`` and ``ATTN``)
_FLAG_KINDS = {"world": POSITIVE, "grad_elems": INT, "itemsize": POSITIVE,
               "head_dim": POSITIVE, "tile_q": POSITIVE, "tile_k": POSITIVE}

#: what-if scenarios run when the user names none: the overlap headroom
#: question every config has, plus the attention-impl question when the
#: trace carries the geometry to answer it.
_DEFAULT_SCENARIOS = ("comm_free",)


@dataclass
class ProfileAnalysis:
    """One trace's full analysis — shared by the text and JSON renderers."""

    inputs: StepInputs
    roofline: RooflineReport
    path: CriticalPath
    attribution: Dict[str, float]
    projections: List[Projection]

    @property
    def total_s(self) -> float:
        return self.inputs.timeline().total_s

    def as_dict(self, top: int = 10) -> Dict[str, object]:
        tl = self.inputs.timeline()
        return {
            "schema": PROFILE_SCHEMA,
            "gpu": self.inputs.spec.name,
            "world_size": self.inputs.world_size,
            "launch_count": len(self.inputs.trace),
            "timeline": {
                "forward_s": tl.forward_s, "backward_s": tl.backward_s,
                "sync_exposed_s": tl.sync_exposed_s,
                "sync_hidden_s": tl.sync_hidden_s,
                "update_s": tl.update_s, "total_s": tl.total_s},
            "roofline": self.roofline.as_dict(top),
            "critical_path": {
                "total_s": self.path.total_s,
                "nodes": [{"name": n.name, "kind": n.kind,
                           "stage": n.stage, "dur_s": n.dur_s}
                          for n in self.path.nodes],
                "attribution_s": dict(sorted(self.attribution.items(),
                                             key=lambda kv: -kv[1]))},
            "whatif": [
                {"scenario": p.scenario, "total_s": p.total_s,
                 "baseline_total_s": p.baseline_total_s,
                 "speedup": p.speedup, "saved_s": p.saved_s,
                 "detail": p.detail}
                for p in self.projections],
        }

    def format_text(self, top: int = 10) -> str:
        lines = [self.roofline.format_table(top), ""]
        lines.append(f"critical path: {self.path.total_s * 1e3:.3f} ms "
                     f"over {len(self.path.nodes)} node(s)")
        lines.append("  " + " -> ".join(n.name for n in self.path.nodes))
        lines.append("  attribution:")
        for cat, s in sorted(self.attribution.items(),
                             key=lambda kv: -kv[1]):
            share = s / self.path.total_s if self.path.total_s > 0 else 0.0
            lines.append(f"    {cat:<16}{s * 1e3:>10.3f} ms{share:>8.1%}")
        if self.projections:
            lines.append("")
            lines.append(f"what-if projections (baseline "
                         f"{self.total_s * 1e3:.3f} ms):")
            for p in self.projections:
                lines.append(f"  {p.scenario:<20}{p.total_s * 1e3:>10.3f} ms"
                             f"  speedup {p.speedup:>6.3f}x"
                             f"  saves {p.saved_s * 1e3:>8.3f} ms")
        return "\n".join(lines)


def analyze(inputs: StepInputs, scenarios: Sequence[str] = ()
            ) -> ProfileAnalysis:
    """Run the full observatory over one step model.

    Unknown or inapplicable scenarios raise ``ValueError`` — a profile
    asked to project something it cannot price should say so, not emit a
    silently-shortened report.
    """
    roofline = roofline_report(inputs.trace, inputs.spec,
                               include_host=inputs.include_host)
    path = critical_path(inputs)
    return ProfileAnalysis(
        inputs=inputs, roofline=roofline, path=path,
        attribution=attribute_critical_path(path, roofline),
        projections=[whatif(inputs, s) for s in scenarios])


def default_scenarios(inputs: StepInputs) -> List[str]:
    """The scenario list used when the caller names none."""
    out = list(_DEFAULT_SCENARIOS)
    if (inputs.attn and "head_dim" in inputs.attn
            and inputs.attn.get("attn_impl") != "tiled"):
        out.append("attn_impl=tiled")
    return out


def step_inputs_from_trace(trace: Dict[str, object], *,
                           gpu: Optional[str] = None,
                           world: Optional[int] = None,
                           grad_elems: Optional[int] = None,
                           itemsize: Optional[int] = None,
                           attn: Optional[Dict[str, object]] = None
                           ) -> StepInputs:
    """Build :class:`StepInputs` from a parsed trace (:func:`~repro.obs
    .perfetto.read_trace`) + CLI overrides.

    The train CLI stamps ``gpu``/``world_size``/``grad_elems``/
    ``itemsize``/``attn`` into the trace's ``otherData``; explicit
    keyword arguments win over the stamps.
    """
    meta = trace["otherData"]
    gpu = gpu or meta["gpu"]
    if gpu not in GPUS:
        raise ValueError(f"unknown GPU {gpu!r}; have {sorted(GPUS)}")
    world = world if world is not None else meta["world_size"]
    grad_elems = grad_elems if grad_elems is not None else meta["grad_elems"]
    itemsize = itemsize if itemsize is not None else meta["itemsize"]
    attn = attn if attn is not None else meta["attn"]
    buckets = (tuple(synthetic_buckets(grad_elems, itemsize))
               if world > 1 and grad_elems > 0 else ())
    return StepInputs(
        trace=tuple(trace_kernels(trace)), spec=GPUS[gpu],
        world_size=world, buckets=buckets, itemsize=itemsize,
        grad_elems=grad_elems, attn=attn)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs profile",
        description="Roofline attribution, critical path, and what-if "
                    "projections for a saved kernel trace.")
    p.add_argument("trace", help="Perfetto trace JSON (repro.train "
                                 "--trace-out)")
    p.add_argument("--gpu", help="override the GPU spec "
                                 f"({', '.join(sorted(GPUS))})")
    p.add_argument("--world", type=int, help="override the world size")
    p.add_argument("--grad-elems", type=int,
                   help="flat gradient element count (for comm modeling)")
    p.add_argument("--itemsize", type=int, help="gradient dtype bytes")
    p.add_argument("--head-dim", type=int,
                   help="attention head dim (enables attn_impl=tiled)")
    p.add_argument("--tile-q", type=int, default=128)
    p.add_argument("--tile-k", type=int, default=128)
    p.add_argument("--causal", action="store_true",
                   help="attention is causal (tiled what-if skips tiles)")
    p.add_argument("--whatif", action="append", default=[],
                   help="scenario to project (repeatable): comm_free, "
                        "no_overlap, gpu=<name>, world=<n>, "
                        "attn_impl=tiled")
    p.add_argument("--top", type=int, default=10,
                   help="bottleneck table length (default 10)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--out", help="also write the JSON report here")
    args = p.parse_args(argv)
    try:
        for flag, kind in _FLAG_KINDS.items():
            value = getattr(args, flag)
            if value is not None:
                kind.parse(value, "--" + flag.replace("_", "-"))
        doc = read_trace(args.trace)
        attn = None
        if args.head_dim is not None:
            attn = {"head_dim": args.head_dim, "tile_q": args.tile_q,
                    "tile_k": args.tile_k, "causal": args.causal}
        inputs = step_inputs_from_trace(
            doc, gpu=args.gpu, world=args.world,
            grad_elems=args.grad_elems, itemsize=args.itemsize, attn=attn)
        if not inputs.trace:
            raise ValueError(f"{args.trace}: no kernel slices in trace")
        scenarios = args.whatif or default_scenarios(inputs)
        analysis = analyze(inputs, scenarios)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    emit_document(analysis.as_dict(args.top), analysis.format_text(args.top),
                  args)
    return 0


if __name__ == "__main__":
    raise SystemExit("moved: python -m repro.obs profile")
