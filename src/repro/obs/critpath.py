"""Critical-path and what-if analysis over the two-stream step model.

:meth:`repro.sim.timeline.StepInputs.timeline` prices one optimisation
step as a closed-form sum (forward + backward + exposed sync + update);
it is the one step pricer, and everything here reads it.  This module
keeps the *structure* instead of just the sum: it reconstructs the step's
dependency DAG — setup, forward, backward split at every gradient
bucket's ready boundary, the FIFO comm stream with straggler delay and
retry pricing, update — extracts the critical (zero-slack) path through
it, and attributes every second on that path to {compute family, host
overhead, exposed comm, retry} using the same
:func:`repro.sim.costmodel.kernel_time_parts` decomposition the roofline
report uses.

The same :class:`~repro.sim.timeline.StepInputs` bundle also powers the
**what-if engine**: :func:`whatif` re-prices a modified copy of it —
``"comm_free"`` (collectives priced at zero, bitwise equal to the
fully-hidden overlap bound because it runs the *same*
:func:`~repro.sim.timeline.overlap_schedule`), ``"gpu=H100"``,
``"world=16"``, ``"no_overlap"``, and ``"attn_impl=tiled"`` (the fused
attention kernels are rewritten into flash launches priced by
:func:`repro.backend.kernels.flash.flash_launch_cost`, the cost the real
flash kernels record).  This is the query primitive the ROADMAP autotuner
will search over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend.device import STAGES, KernelLaunch
from ..backend.kernels.flash import flash_launch_cost
from ..sim.comm import ring_allreduce_seconds
from ..sim.costmodel import kernel_time_parts
from ..sim.gpu_specs import GPUS, GPUSpec
from ..sim.timeline import (StepInputs, TwoStreamTimeline,
                            bucket_ready_times, synthetic_buckets)

#: attribution categories that are not compute families.
HOST, EXPOSED_COMM, RETRY = "host", "exposed_comm", "retry"


def _free_comm(nbytes: int, world_size: int, spec: GPUSpec) -> float:
    """The "comm is free" pricing: every collective takes zero seconds."""
    return 0.0


# ---------------------------------------------------------------------------
# dependency DAG + critical path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DagNode:
    """One node of the step DAG: a span of work on some stream."""

    name: str
    kind: str                  # "host" | "compute" | "comm" | "retry"
    stage: str                 # training stage ("" for non-stage nodes)
    dur_s: float
    deps: Tuple[str, ...]


@dataclass
class StepDAG:
    """The step's dependency DAG (nodes in insertion = topological order)."""

    nodes: Dict[str, DagNode] = field(default_factory=dict)

    def add(self, name: str, kind: str, dur_s: float,
            deps: Sequence[str] = (), stage: str = "") -> str:
        if name in self.nodes:
            raise ValueError(f"duplicate DAG node {name!r}")
        for d in deps:
            if d not in self.nodes:
                raise ValueError(f"node {name!r} depends on unknown {d!r}")
        self.nodes[name] = DagNode(name, kind, stage, dur_s, tuple(deps))
        return name

    def finish_times(self) -> Dict[str, float]:
        """Earliest finish time of every node (nodes are topo-ordered)."""
        finish: Dict[str, float] = {}
        for name, node in self.nodes.items():
            start = max((finish[d] for d in node.deps), default=0.0)
            finish[name] = start + node.dur_s
        return finish

    def critical_path(self) -> "CriticalPath":
        """The zero-slack chain ending at the last-finishing node."""
        finish = self.finish_times()
        if not finish:
            return CriticalPath((), 0.0)
        # walk back from the sink along the binding dependency each time
        cur = max(finish, key=lambda n: finish[n])
        total = finish[cur]
        chain: List[DagNode] = []
        while cur is not None:
            node = self.nodes[cur]
            chain.append(node)
            cur = max(node.deps, key=lambda d: finish[d], default=None) \
                if node.deps else None
        chain.reverse()
        return CriticalPath(tuple(chain), total)


@dataclass(frozen=True)
class CriticalPath:
    """The critical path: nodes in execution order, zero slack between."""

    nodes: Tuple[DagNode, ...]
    total_s: float

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes)


def build_step_dag(inputs: StepInputs) -> StepDAG:
    """Reconstruct the step's dependency DAG from the priced trace.

    Structure: ``host:setup -> compute:forward -> compute:backward[i]``
    (backward is split at every bucket-ready boundary), each bucket's
    all-reduce depends on the backward segment that completes its
    gradients (plus a straggler-delay node when modeled) and on the
    previous bucket FIFO; retries serialize after both streams; sync-stage
    kernels and ``compute:update`` close the step.  The sink's finish time
    equals :meth:`StepInputs.timeline`'s ``total_s`` (up to float
    re-association of the backward split, ~1 ulp).
    """
    by = inputs.stage_seconds()
    backward_s = by.get("backward", 0.0)
    dag = StepDAG()
    dag.add("host:setup", "host", inputs.step_setup_s)
    dag.add("compute:forward", "compute", by.get("forward", 0.0),
            ["host:setup"], stage="forward")

    nbuckets = (len(inputs.buckets)
                if inputs.world_size > 1 and inputs.buckets else 0)
    if nbuckets:
        ready = (bucket_ready_times(inputs.buckets, backward_s)
                 if inputs.overlap else [backward_s] * nbuckets)
    else:
        ready = []

    # backward segments: one per distinct ready boundary, tiling
    # [0, backward_s] so every bucket's gradients complete at a node edge.
    boundaries = sorted(set(ready)) if ready else []
    if not boundaries or boundaries[-1] < backward_s:
        boundaries.append(backward_s)
    prev_t, prev_node = 0.0, "compute:forward"
    seg_at: Dict[float, str] = {}
    for i, t in enumerate(boundaries):
        name = dag.add(f"compute:backward[{i}]", "compute", t - prev_t,
                       [prev_node], stage="backward")
        seg_at[t] = name
        prev_t, prev_node = t, name
    last_backward = prev_node

    # comm stream: FIFO over buckets in launch order
    price = inputs.comm_seconds_fn or ring_allreduce_seconds
    prev_comm: Optional[str] = None
    launch_order = tuple(reversed(inputs.buckets))
    for i in range(nbuckets):
        dt = price(launch_order[i].nbytes(inputs.itemsize),
                   inputs.world_size, inputs.spec)
        dep = seg_at[ready[i]]
        if inputs.straggler_delay_s:
            dep = dag.add(f"comm:straggler[{i}]", "comm",
                          inputs.straggler_delay_s, [dep], stage="sync")
        deps = [dep] if prev_comm is None else [dep, prev_comm]
        prev_comm = dag.add(f"comm:bucket[{i}]", "comm", dt, deps,
                            stage="sync")

    tail = [last_backward]
    if prev_comm is not None:
        if inputs.retry_exposed_s:
            # nothing hides retries: they serialize after both streams
            prev_comm = dag.add("comm:retries", "retry",
                                inputs.retry_exposed_s,
                                [prev_comm, last_backward], stage="sync")
        tail.append(prev_comm)
    sync_kernel_s = by.get("sync", 0.0)
    if sync_kernel_s > 0:
        tail = [dag.add("compute:sync_kernels", "compute", sync_kernel_s,
                        tail, stage="sync")]
    dag.add("compute:update", "compute", by.get("update", 0.0), tail,
            stage="update")
    return dag


def stage_decomposition(inputs: StepInputs) -> Dict[str, Dict[str, float]]:
    """Per-stage split of kernel time into {family: s, "host": s}.

    ``host`` collects the fixed launch + dispatch constants; the families
    collect the roofline (device-side) terms.  Per stage the categories
    sum to that stage's ``trace_cost`` seconds exactly.
    """
    out: Dict[str, Dict[str, float]] = {s: {} for s in STAGES}
    for k in inputs.trace:
        parts = kernel_time_parts(k, inputs.spec,
                                  include_host=inputs.include_host)
        d = out.setdefault(k.stage, {})
        d[HOST] = d.get(HOST, 0.0) + parts.fixed_s
        d[k.family] = d.get(k.family, 0.0) + parts.roofline_s
    return out


def attribute_critical_path(dag: StepDAG, path: CriticalPath,
                            inputs: StepInputs) -> Dict[str, float]:
    """Attribute every second on the critical path to a category.

    Categories: compute families (via :func:`stage_decomposition`
    fractions of each on-path compute node), ``"host"`` (setup + launch
    and dispatch constants), ``"exposed_comm"`` (comm-stream time on the
    path — by definition not hidden), ``"retry"``.  Values sum to
    ``path.total_s`` (up to float re-association).
    """
    decomp = stage_decomposition(inputs)
    by = inputs.stage_seconds()
    attr: Dict[str, float] = {}

    def credit(cat: str, s: float) -> None:
        if s:
            attr[cat] = attr.get(cat, 0.0) + s

    for node in path.nodes:
        if node.kind == "host":
            credit(HOST, node.dur_s)
        elif node.kind == "comm":
            credit(EXPOSED_COMM, node.dur_s)
        elif node.kind == "retry":
            credit(RETRY, node.dur_s)
        else:  # compute: split by the node's stage decomposition
            stage_total = by.get(node.stage, 0.0)
            split = decomp.get(node.stage, {})
            if stage_total <= 0 or not split:
                credit(HOST, node.dur_s)
                continue
            for cat, s in split.items():
                credit(cat, node.dur_s * (s / stage_total))
    return attr


# ---------------------------------------------------------------------------
# what-if projections
# ---------------------------------------------------------------------------

#: scenario strings the engine understands (``=`` takes an argument).
SCENARIOS = ("comm_free", "no_overlap", "gpu=<name>", "world=<n>",
             "attn_impl=tiled")


@dataclass(frozen=True)
class Projection:
    """One what-if: the same step re-priced under a modified model."""

    scenario: str
    timeline: TwoStreamTimeline
    baseline_total_s: float
    detail: Dict[str, object]

    @property
    def total_s(self) -> float:
        return self.timeline.total_s

    @property
    def speedup(self) -> float:
        return (self.baseline_total_s / self.total_s
                if self.total_s > 0 else float("inf"))

    @property
    def saved_s(self) -> float:
        return self.baseline_total_s - self.total_s


def apply_scenario(inputs: StepInputs, scenario: str
                   ) -> Tuple[StepInputs, Dict[str, object]]:
    """Translate a scenario string into modified :class:`StepInputs`."""
    if scenario == "comm_free":
        return replace(inputs, comm_seconds_fn=_free_comm,
                       straggler_delay_s=0.0, retry_exposed_s=0.0), {}
    if scenario == "no_overlap":
        return replace(inputs, overlap=False), {}
    if scenario.startswith("gpu="):
        name = scenario[4:]
        if name not in GPUS:
            raise ValueError(f"unknown GPU {name!r}; have {sorted(GPUS)}")
        return replace(inputs, spec=GPUS[name]), {"gpu": name}
    if scenario.startswith("world="):
        world = int(scenario[6:])
        if world < 1:
            raise ValueError(f"world must be >= 1, got {world}")
        buckets = inputs.buckets
        if world > 1 and not buckets:
            buckets = tuple(synthetic_buckets(inputs.grad_elems,
                                              inputs.itemsize))
            if not buckets:
                raise ValueError(
                    "world=N what-if needs buckets or grad_elems to "
                    "synthesize them from")
        return (replace(inputs, world_size=world, buckets=buckets),
                {"world_size": world, "buckets": len(buckets)})
    if scenario == "attn_impl=tiled":
        if not inputs.attn or "head_dim" not in inputs.attn:
            raise ValueError(
                "attn_impl=tiled what-if needs attention geometry "
                "(StepInputs.attn with head_dim/tile_q/tile_k/causal)")
        new_trace, detail = tiled_attention_trace(
            inputs.trace,
            head_dim=int(inputs.attn["head_dim"]),
            tile_q=int(inputs.attn.get("tile_q", 128)),
            tile_k=int(inputs.attn.get("tile_k", 128)),
            causal=bool(inputs.attn.get("causal", False)),
            mask_elems=int(inputs.attn.get("mask_elems", 0)))
        return replace(inputs, trace=tuple(new_trace)), detail
    raise ValueError(f"unknown what-if scenario {scenario!r}; "
                     f"known: {SCENARIOS}")


def whatif(inputs: StepInputs, scenario: str) -> Projection:
    """Project the step's timeline under one scenario."""
    baseline = inputs.timeline()
    modified, detail = apply_scenario(inputs, scenario)
    return Projection(scenario, modified.timeline(),
                      baseline.total_s, detail)


# ---------------------------------------------------------------------------
# fused -> tiled attention trace rewrite
# ---------------------------------------------------------------------------

#: fused forward score-path group: first and last kernel names.
_FWD_FIRST, _FWD_LAST = "gemm_qk", "gemm_pv"
#: fused backward score-path group.
_BWD_FIRST, _BWD_LAST = "gemm_pv_dprobs", "gemm_qk_dk"


def _recover_attn_shape(score_writer: KernelLaunch,
                        ctx_writer: KernelLaunch,
                        head_dim: int) -> Tuple[int, int, int]:
    """Recover ``(B*N, Lq, Lk)`` from two fused attention GEMM launches.

    ``score_writer`` writes the ``(B*N, Lq, Lk)`` score/probs-grad tensor
    (``gemm_qk`` forward, ``gemm_pv_dprobs`` backward); ``ctx_writer``
    reads it plus the ``(B*N, Lk, Dh)`` value/key operand and writes the
    ``(B*N, Lq, Dh)`` result (``gemm_pv`` / ``gemm_qk_dq``).  With the
    head dim known, the three element counts pin all three unknowns.
    """
    dh = head_dim
    scores = score_writer.elems_written              # BN * Lq * Lk
    bn_lq = ctx_writer.elems_written / dh            # BN * Lq
    bn_lk = (ctx_writer.elems_read - scores) / dh    # BN * Lk
    if scores <= 0 or bn_lq <= 0 or bn_lk <= 0:
        raise ValueError("degenerate fused attention GEMM shapes")
    bn = bn_lq * bn_lk / scores
    lq, lk = round(bn_lq / bn), round(bn_lk / bn)
    bn = round(bn)
    if bn * lq * lk != scores:
        raise ValueError(
            f"fused attention shapes do not factor: scores={scores}, "
            f"BN={bn}, Lq={lq}, Lk={lk} (head_dim={dh} wrong?)")
    return bn, lq, lk


def tiled_attention_trace(trace: Sequence[KernelLaunch], *, head_dim: int,
                          tile_q: int = 128, tile_k: int = 128,
                          causal: bool = False, mask_elems: int = 0
                          ) -> Tuple[List[KernelLaunch], Dict[str, object]]:
    """Rewrite a fused-attention trace into its tiled equivalent.

    Each forward score-path group (``gemm_qk`` ... ``gemm_pv``, including
    the softmax/dropout kernels between them) collapses into one
    ``ls_flash_attn_fwd`` launch, and each backward group
    (``gemm_pv_dprobs`` ... ``gemm_qk_dk``) into one
    ``ls_flash_attn_bwd``, with traffic and FLOPs from
    :func:`~repro.backend.kernels.flash.flash_launch_cost`, which the real
    flash kernels record — so the projection agrees
    with actually re-running under ``attn_impl=tiled`` up to the mask
    convention (the tiled path never materialises the causal mask the
    fused path folds in, hence ``mask_elems`` defaults to 0).

    Returns ``(new_trace, detail)`` where ``detail`` reports the fused
    and projected attention HBM bytes and group counts.
    """
    out: List[KernelLaunch] = []
    fused_bytes = tiled_bytes = 0
    groups = {"fwd": 0, "bwd": 0}
    i, n = 0, len(trace)
    while i < n:
        k = trace[i]
        first, last = ((_FWD_FIRST, _FWD_LAST) if k.name == _FWD_FIRST
                       else (_BWD_FIRST, _BWD_LAST)
                       if k.name == _BWD_FIRST else (None, None))
        if first is None:
            out.append(k)
            i += 1
            continue
        j = i + 1
        while j < n and trace[j].name != last:
            j += 1
        if j == n:
            raise ValueError(f"unterminated fused attention group: "
                             f"{first!r} at launch {i} without {last!r}")
        group = trace[i:j + 1]
        if first == _FWD_FIRST:
            score, ctx = group[0], group[-1]
        else:
            # backward: gemm_pv_dprobs writes d_probs, gemm_qk_dq reads it
            score = group[0]
            ctx = next(g for g in group if g.name == "gemm_qk_dq")
        bn, lq, lk = _recover_attn_shape(score, ctx, head_dim)
        direction = "fwd" if first == _FWD_FIRST else "bwd"
        groups[direction] += 1
        read, written, flops = flash_launch_cost(
            direction, bn, lq, lk, head_dim, tile_q=tile_q, tile_k=tile_k,
            causal=causal, mask_elems=mask_elems)
        synth = KernelLaunch(
            name=f"ls_flash_attn_{direction}", elems_read=read,
            elems_written=written, flops=flops, dtype_bytes=k.dtype_bytes,
            stage=k.stage, lib=k.lib, family="attention")
        fused_bytes += sum(g.bytes_moved for g in group)
        tiled_bytes += synth.bytes_moved
        out.append(synth)
        i = j + 1
    if not any(groups.values()):
        raise ValueError("trace contains no fused attention groups to "
                         "rewrite (already tiled, or not an attention "
                         "model)")
    detail: Dict[str, object] = {
        "attn_groups_fwd": groups["fwd"], "attn_groups_bwd": groups["bwd"],
        "attn_hbm_bytes_fused": fused_bytes,
        "attn_hbm_bytes_tiled": tiled_bytes,
        "attn_hbm_bytes_ratio": (tiled_bytes / fused_bytes
                                 if fused_bytes else 0.0),
        "launches_before": len(trace), "launches_after": len(out),
    }
    return out, detail
