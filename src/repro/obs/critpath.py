"""Critical-path and what-if analysis over the two-stream step model.

:meth:`repro.sim.timeline.StepInputs.timeline` prices one optimisation
step as a closed-form sum (forward + backward + exposed sync + update);
it is the one step pricer, and everything here reads it.  This module
keeps the *structure* instead of just the sum: :func:`critical_path`
walks back over the :class:`~repro.sim.timeline.BucketSchedule` that
:meth:`~repro.sim.timeline.StepInputs.schedule` returns — setup, forward,
backward up to the ready boundary of the bucket that binds, that
bucket's straggler delay and the comm chain after it, retries, sync-stage
kernels, update — and :func:`attribute_critical_path` splits every second
on that path over {compute family, host overhead, exposed comm, retry}
with the per-launch roofline terms of :mod:`repro.obs.roofline`.

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

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..backend.device import KernelLaunch
from ..backend.kernels.flash import flash_launch_cost
from ..sim.gpu_specs import GPUS, GPUSpec
from ..sim.timeline import StepInputs, TwoStreamTimeline, synthetic_buckets
from .roofline import RooflineReport

#: attribution categories that are not compute families.
HOST, EXPOSED_COMM, RETRY = "host", "exposed_comm", "retry"


def _free_comm(nbytes: int, world_size: int, spec: GPUSpec) -> float:
    """The "comm is free" pricing: every collective takes zero seconds."""
    return 0.0


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathNode:
    """One span of work on the critical path."""

    name: str
    kind: str                  # "host" | "compute" | "comm" | "retry"
    stage: str                 # training stage ("" for non-stage nodes)
    dur_s: float


@dataclass(frozen=True)
class CriticalPath:
    """The critical path: nodes in execution order, zero slack between.

    ``total_s`` is the step time the path spans,
    ``StepInputs.timeline().total_s``; the node durations sum to it up to
    float re-association.
    """

    nodes: Tuple[PathNode, ...]
    total_s: float

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes)


def critical_path(inputs: StepInputs) -> CriticalPath:
    """The zero-slack chain through the step, read off its schedule.

    Backward is split at every distinct bucket-ready boundary
    (``compute:backward[k]``).  When the comm stream is still busy after
    backward, the path leaves backward at the ready boundary of the
    bucket that binds — the last one the comm stream picked up as soon
    as it was ready rather than when the previous collective finished —
    and runs that bucket's straggler delay and every collective from it
    on.  Retries serialize after both streams; sync-stage kernels and
    ``compute:update`` close the step.
    """
    by = inputs.stage_seconds()
    sched = inputs.schedule()
    ready, start, finish = sched.ready_s, sched.start_s, sched.finish_s
    delay = inputs.straggler_delay_s
    bounds = sorted(set(ready))
    if not bounds or bounds[-1] < sched.backward_s:
        bounds.append(sched.backward_s)
    # walk back from the last collective to the first one that waited on
    # its gradients, not on the one before it (the schedule starts a
    # bucket at exactly max(ready + delay, previous finish))
    binds = bool(finish) and finish[-1] > sched.backward_s
    first = len(finish) - 1
    while binds and first and start[first] != ready[first] + delay:
        first -= 1
    segments = bounds.index(ready[first]) + 1 if binds else len(bounds)

    nodes = [PathNode("host:setup", "host", "", inputs.step_setup_s),
             PathNode("compute:forward", "compute", "forward",
                      by.get("forward", 0.0))]
    prev = 0.0
    for k, t in enumerate(bounds[:segments]):
        nodes.append(PathNode(f"compute:backward[{k}]", "compute",
                              "backward", t - prev))
        prev = t
    if binds:
        if delay:
            nodes.append(PathNode(f"comm:straggler[{first}]", "comm",
                                  "sync", delay))
        nodes += [PathNode(f"comm:bucket[{j}]", "comm", "sync",
                           sched.comm_s[j])
                  for j in range(first, len(finish))]
    if finish and inputs.retry_exposed_s:
        nodes.append(PathNode("comm:retries", "retry", "sync",
                              inputs.retry_exposed_s))
    if by.get("sync", 0.0) > 0:
        nodes.append(PathNode("compute:sync_kernels", "compute", "sync",
                              by["sync"]))
    nodes.append(PathNode("compute:update", "compute", "update",
                          by.get("update", 0.0)))
    return CriticalPath(tuple(nodes), inputs.timeline().total_s)


def attribute_critical_path(path: CriticalPath,
                            roofline: RooflineReport) -> Dict[str, float]:
    """Attribute every second on the critical path to a category.

    Categories: compute families (each on-path compute node is split by
    its stage's roofline terms — the fixed launch and dispatch constants
    go to ``"host"``, the device-side term to the launch's family),
    ``"host"`` (setup too), ``"exposed_comm"`` (comm-stream time on the
    path — by definition not hidden) and ``"retry"``.  Values sum to
    ``path.total_s`` (up to float re-association).
    """
    split: Dict[str, Dict[str, float]] = {}
    for r in roofline.launches:
        d = split.setdefault(r.stage, {})
        d[HOST] = d.get(HOST, 0.0) + r.fixed_s
        d[r.family] = d.get(r.family, 0.0) + max(r.mem_s, r.flop_s)
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
        else:  # compute: split by the stage's roofline terms
            group = roofline.by_stage.get(node.stage)
            if group is None or group.time_s <= 0:
                credit(HOST, node.dur_s)
                continue
            for cat, s in split[node.stage].items():
                credit(cat, node.dur_s * (s / group.time_s))
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
