"""Memory observatory: where is the memory going, and what would fit?

Time has a roofline (:mod:`repro.obs.roofline`), numerics has a health
plane (:mod:`repro.obs.health`); this module closes the last unobserved
axis — the §3.3 activation arena.  A :class:`MemoryTracer` installed via
:func:`repro.backend.arena.use_memory_tracer` records every arena request
as a :class:`SlotEvent` (bytes, requesting layer via :func:`~repro.backend
.arena.mem_scope`, training stage, step phase) and derives:

* an **occupancy timeline** whose per-step peak is *bitwise equal* to the
  arena's reserved high-water mark
  (``round_block(peak_demand) == arena.capacity``);
* **peak attribution** ranked by requesting site, training stage, and
  tensor family — the memory mirror of the roofline bottleneck table;
* **waste accounting**: slab bytes minus live bytes at peak, split into
  block-rounding padding and reservation slack, plus the Fig.-8
  lifetime-sharing saving vs a naive no-sharing plan;
* a **what-if capacity engine** (:func:`project_capacity`,
  :func:`max_fit`) that replays the recorded shape plan under scaled
  batch / sequence length / ``attn_impl`` / tile size and reports what
  fits a byte budget — validated against measured :class:`~repro.backend
  .arena.ArenaOOM` boundaries (the ``BENCH_flashattn`` fused-OOMs-where-
  tiled-trains point reproduces by projection);
* **OOM forensics**: on :class:`ArenaOOM` the exception carries a report
  of the live slots at failure, the requester, and what freeing or
  sharing would have saved it, instead of a bare message.

Entry point::

    PYTHONPATH=src python -m repro.obs memory MEMORY.json \
        [--whatif seq_len=2048,attn_impl=tiled] [--budget 72MiB] \
        [--max-fit seq_len] [--check] [--json]

where ``MEMORY.json`` is the ``repro.obs.memory/v1`` report written by
``repro.train --memory-out`` (or :func:`write_memory_report`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..backend.allocator import pack_plan, round_block
from ..backend.arena import (ActivationArena, ArenaOOM, current_site,
                             mem_scope, mem_scoped, use_memory_tracer)
from ..backend.device import current_device
from .perfetto import ATTN
from .schema import (BOOL, FLOAT, INT, STR, Kind, ListOf, Nullable,
                     ObjectOf, Record, TupleOf)

__all__ = [
    "MEMORY_SCHEMA", "SlotEvent", "PlanRecord", "MemoryTracer",
    "MemoryReport", "memory_report", "write_memory_report",
    "load_memory_report", "step_timeline", "attribute_peak",
    "tensor_family", "project_capacity", "fits", "max_fit",
    "oom_forensics", "use_memory_tracer", "mem_scope", "mem_scoped",
    "main",
]

#: schema tag carried by every memory report document.
MEMORY_SCHEMA = "repro.obs.memory/v1"

_MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# the event stream
# ---------------------------------------------------------------------------


@dataclass
class SlotEvent:
    """One arena lifetime event (request, plan base, step/reserve, OOM)."""

    seq: int
    step: int
    kind: str                       # "request" | "step" | "reserve" | "oom"
    t_s: float
    site: Optional[str] = None
    stage: str = "forward"
    shape: Tuple[int, ...] = ()
    dtype: str = ""
    nbytes: int = 0                 # raw tensor bytes
    rounded: int = 0                # round_block(nbytes) — slab accounting
    hit: bool = False
    demand_bytes: int = 0           # cumulative step demand after the event
    capacity: int = 0               # slab bytes (step/reserve events)
    plan: Optional[int] = None      # index into the tracer's plans when the
    #                                 request is a lifetime-sharing base block

    def as_dict(self) -> Dict[str, object]:
        d = {"seq": self.seq, "step": self.step, "kind": self.kind,
             "t_s": self.t_s, "site": self.site, "stage": self.stage,
             "shape": list(self.shape), "dtype": self.dtype,
             "nbytes": self.nbytes, "rounded": self.rounded,
             "hit": self.hit, "demand_bytes": self.demand_bytes}
        if self.kind in ("step", "reserve"):
            d["capacity"] = self.capacity
        if self.plan is not None:
            d["plan"] = self.plan
        return d


@dataclass
class PlanRecord:
    """One ``request_plan`` call: entries, packing outcome, Fig.-8 saving."""

    #: normalized entries: (name, shape, dtype_str, start, end)
    entries: Tuple[Tuple[str, Tuple[int, ...], str, int, int], ...]
    total: int                      # lifetime-shared block bytes
    naive_total: int                # sum of aligned entries (no sharing)
    site: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {"entries": [[n, list(s), d, a, b]
                            for n, s, d, a, b in self.entries],
                "total": self.total, "naive_total": self.naive_total,
                "site": self.site}


class MemoryTracer:
    """Records the arena's lifetime event stream.

    Install with :func:`repro.backend.arena.use_memory_tracer`; the arena
    calls the ``on_*`` hooks.  Pass the span recorder's ``epoch`` so the
    Perfetto memory counter tracks line up with the host spans.
    """

    def __init__(self, epoch: Optional[float] = None):
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.events: List[SlotEvent] = []
        self.plans: List[PlanRecord] = []
        self.oom: Optional[Dict[str, object]] = None
        self._pending_plan: Optional[int] = None

    def _t(self) -> float:
        return time.perf_counter() - self.epoch

    # -- arena hooks --------------------------------------------------------

    def on_step(self, arena: ActivationArena) -> None:
        self._pending_plan = None
        self.events.append(SlotEvent(
            seq=len(self.events), step=arena.steps, kind="step",
            t_s=self._t(), capacity=arena.capacity))

    def on_reserve(self, arena: ActivationArena, nbytes: int) -> None:
        self.events.append(SlotEvent(
            seq=len(self.events), step=arena.steps, kind="reserve",
            t_s=self._t(), nbytes=nbytes, rounded=arena.capacity,
            capacity=arena.capacity))

    def on_plan(self, arena: ActivationArena, *, entries, offsets, total,
                naive_total) -> None:
        self.plans.append(PlanRecord(
            entries=tuple(entries), total=int(total),
            naive_total=int(naive_total), site=current_site()))
        # the very next request is this plan's base block; request() emits
        # it immediately (same thread), so a one-slot latch is enough
        self._pending_plan = len(self.plans) - 1

    def on_request(self, arena: ActivationArena, *, shape, dtype, nbytes,
                   hit, demand) -> None:
        plan = None
        if self._pending_plan is not None:
            if nbytes == self.plans[self._pending_plan].total:
                plan = self._pending_plan
            self._pending_plan = None
        self.events.append(SlotEvent(
            seq=len(self.events), step=arena.steps, kind="request",
            t_s=self._t(), site=current_site(),
            stage=getattr(current_device(), "stage", "forward"),
            shape=tuple(shape), dtype=np.dtype(dtype).name,
            nbytes=int(nbytes), rounded=round_block(int(nbytes)),
            hit=bool(hit), demand_bytes=int(demand), plan=plan))

    def on_oom(self, arena: ActivationArena, exc: ArenaOOM) -> None:
        report = oom_forensics(self, exc, arena)
        exc.report = report
        self.oom = report
        self.events.append(SlotEvent(
            seq=len(self.events), step=arena.steps, kind="oom",
            t_s=self._t(), site=exc.site,
            stage=getattr(current_device(), "stage", "forward"),
            shape=tuple(exc.shape or ()), dtype=exc.dtype or "",
            nbytes=int(exc.requested),
            rounded=round_block(int(exc.requested)),
            demand_bytes=int(exc.demand)))


# ---------------------------------------------------------------------------
# timeline + attribution
# ---------------------------------------------------------------------------


@dataclass
class StepOccupancy:
    """One step's slice of the occupancy timeline."""

    step: int
    requests: List[SlotEvent] = field(default_factory=list)

    @property
    def demand_bytes(self) -> int:
        """Final cumulative demand (== sum of rounded request sizes)."""
        return self.requests[-1].demand_bytes if self.requests else 0

    @property
    def live_bytes(self) -> int:
        """Raw tensor bytes requested this step (no rounding)."""
        return sum(e.nbytes for e in self.requests)

    @property
    def padding_bytes(self) -> int:
        """Block-rounding overhead this step."""
        return sum(e.rounded - e.nbytes for e in self.requests)


def step_timeline(events: Iterable[SlotEvent]) -> List[StepOccupancy]:
    """Group request events into per-step occupancy slices, in step order."""
    steps: Dict[int, StepOccupancy] = {}
    for e in events:
        if e.kind != "request":
            continue
        steps.setdefault(e.step, StepOccupancy(e.step)).requests.append(e)
    return [steps[s] for s in sorted(steps)]


#: tensor-family classification tokens, checked in order against the
#: requesting site (layer names like ``GPTModel.dec0.attn``).
_FAMILY_TOKENS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("attention", ("attn", "attention", "flash")),
    ("ffn", ("ffn", "feedforward", "mlp")),
    ("embedding", ("embed", "patch")),
    ("criterion", ("crit", "cross_entropy", "loss")),
    ("projection", ("proj", "pooler", "cls_head", "logits")),
    ("layernorm", ("norm", "ln_")),
)


def tensor_family(site: Optional[str]) -> str:
    """Best-effort tensor family from the requesting site name."""
    s = (site or "").lower()
    for fam, toks in _FAMILY_TOKENS:
        if any(t in s for t in toks):
            return fam
    return "other"


def _event_key(e: SlotEvent, by: str) -> str:
    if by == "site":
        return e.site or "(unattributed)"
    if by == "stage":
        return e.stage or "(unknown)"
    if by == "family":
        return tensor_family(e.site)
    raise ValueError(f"unknown attribution key {by!r}")


def attribute_peak(requests: Sequence[SlotEvent], by: str = "site"
                   ) -> List[Dict[str, object]]:
    """Rank a step's requests by ``by`` ("site" | "stage" | "family").

    Rows mirror the roofline bottleneck-table shape: key, bytes, share of
    the step demand, request count — sorted largest first.  Attribution
    never loses bytes: the rows sum to the step's demand exactly.
    """
    groups: Dict[str, List[int]] = {}
    for e in requests:
        g = groups.setdefault(_event_key(e, by), [0, 0])
        g[0] += e.rounded
        g[1] += 1
    total = sum(g[0] for g in groups.values())
    rows = [{"key": k, "bytes": g[0],
             "share": g[0] / total if total else 0.0, "requests": g[1]}
            for k, g in groups.items()]
    rows.sort(key=lambda r: (-r["bytes"], r["key"]))
    return rows


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclass
class MemoryReport:
    """A traced run's memory story: peak, waste, attribution, shape plan."""

    peak_step: int
    peak_demand_bytes: int          # max per-step sum of rounded requests
    capacity_bytes: int             # reserved slab bytes (high-water)
    live_bytes: int                 # raw bytes at the peak step
    padding_bytes: int              # block-rounding overhead at peak
    slack_bytes: int                # capacity - peak demand (round tail)
    sharing_saved_bytes: int        # Fig.-8 lifetime-sharing saving at peak
    naive_peak_bytes: int           # peak demand had no plan shared offsets
    bitwise_peak_equal: bool        # round_block(peak) == capacity
    steps: List[Dict[str, object]]
    by_site: List[Dict[str, object]]
    by_stage: List[Dict[str, object]]
    by_family: List[Dict[str, object]]
    shape_plan: Dict[str, object]
    reservations: List[Dict[str, int]]
    oom: Optional[Dict[str, object]] = None

    @property
    def waste_bytes(self) -> int:
        """Slab bytes not holding live tensor data at the peak."""
        return self.capacity_bytes - self.live_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": MEMORY_SCHEMA,
            "peak": {
                "step": self.peak_step,
                "demand_bytes": self.peak_demand_bytes,
                "capacity_bytes": self.capacity_bytes,
                "live_bytes": self.live_bytes,
                "padding_bytes": self.padding_bytes,
                "slack_bytes": self.slack_bytes,
                "waste_bytes": max(self.waste_bytes, 0),
                "sharing_saved_bytes": self.sharing_saved_bytes,
                "naive_peak_bytes": self.naive_peak_bytes,
            },
            "bitwise_peak_equal": self.bitwise_peak_equal,
            "steps": self.steps,
            "attribution": {"by_site": self.by_site,
                            "by_stage": self.by_stage,
                            "by_family": self.by_family},
            "shape_plan": self.shape_plan,
            "reservations": self.reservations,
            "oom": self.oom,
        }


def _shape_plan(tracer: MemoryTracer, peak: StepOccupancy,
                base: Optional[Dict[str, object]]) -> Dict[str, object]:
    """The peak step's request stream as a replayable shape plan."""
    used: Dict[int, int] = {}            # tracer plan idx -> local idx
    plans: List[Dict[str, object]] = []
    requests: List[Dict[str, object]] = []
    for e in peak.requests:
        plan = None
        if e.plan is not None:
            if e.plan not in used:
                used[e.plan] = len(plans)
                plans.append(tracer.plans[e.plan].as_dict())
            plan = used[e.plan]
        requests.append({"shape": list(e.shape), "dtype": e.dtype,
                         "site": e.site, "plan": plan})
    return {"base": dict(base or {}), "requests": requests, "plans": plans}


def memory_report(tracer: MemoryTracer, *,
                  arena: Optional[ActivationArena] = None,
                  base: Optional[Dict[str, object]] = None) -> MemoryReport:
    """Derive the full memory report from a tracer's event stream.

    ``arena`` supplies the authoritative reserved high-water mark (falling
    back to the largest capacity seen in step/reserve events).  For the
    bitwise peak == capacity invariant to hold, the maximum step must have
    been folded in by a later ``begin_step()`` — callers should invoke
    ``arena.begin_step()`` once after the last step before reporting
    (the trainer CLI does).

    ``base`` stamps the what-if base point into the shape plan, e.g.
    ``{"batch": 8, "seq_len": 256, "attn": {...}}``.
    """
    timeline = step_timeline(tracer.events)
    if arena is not None:
        capacity = arena.capacity
    else:
        capacity = max((e.capacity for e in tracer.events
                        if e.kind in ("step", "reserve")), default=0)
    if not timeline:
        return MemoryReport(
            peak_step=0, peak_demand_bytes=0, capacity_bytes=capacity,
            live_bytes=0, padding_bytes=0, slack_bytes=capacity,
            sharing_saved_bytes=0, naive_peak_bytes=0,
            bitwise_peak_equal=capacity == 0, steps=[], by_site=[],
            by_stage=[], by_family=[],
            shape_plan={"base": dict(base or {}), "requests": [],
                        "plans": []},
            reservations=_reservations(tracer), oom=tracer.oom)
    peak = max(timeline, key=lambda s: s.demand_bytes)
    demand = peak.demand_bytes
    # lifetime sharing at the peak step: each plan base request occupies
    # round_block(total); without sharing it would occupy
    # round_block(naive_total)
    saved = naive = 0
    for e in peak.requests:
        if e.plan is not None:
            p = tracer.plans[e.plan]
            saved += (round_block(p.naive_total) - round_block(p.total)
                      if p.total else 0)
    naive = demand + saved
    return MemoryReport(
        peak_step=peak.step,
        peak_demand_bytes=demand,
        capacity_bytes=capacity,
        live_bytes=peak.live_bytes,
        padding_bytes=peak.padding_bytes,
        slack_bytes=capacity - demand,
        sharing_saved_bytes=saved,
        naive_peak_bytes=naive,
        bitwise_peak_equal=(round_block(demand) == capacity if demand
                            else capacity == 0),
        steps=[{"step": s.step, "demand_bytes": s.demand_bytes,
                "live_bytes": s.live_bytes, "requests": len(s.requests)}
               for s in timeline],
        by_site=attribute_peak(peak.requests, "site"),
        by_stage=attribute_peak(peak.requests, "stage"),
        by_family=attribute_peak(peak.requests, "family"),
        shape_plan=_shape_plan(tracer, peak, base),
        reservations=_reservations(tracer),
        oom=tracer.oom)


def _reservations(tracer: MemoryTracer) -> List[Dict[str, int]]:
    return [{"step": e.step, "requested_bytes": e.nbytes,
             "capacity_bytes": e.capacity}
            for e in tracer.events if e.kind == "reserve"]


def write_memory_report(path: str, report: MemoryReport) -> None:
    """Write one memory report as pretty-printed JSON."""
    with open(path, "w") as f:
        json.dump(report.as_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def _dtype(v: object) -> object:
    np.dtype(STR.parse(v))      # TypeError on a name numpy does not know
    return v


DTYPE = Kind("a numpy dtype name", _dtype)
_OPT_STR = (Nullable(STR), None)

#: what the memory CLI reads of a report: :meth:`MemoryReport.as_dict`'s
#: peak block, attribution tables, what-if shape plan and OOM forensics.
MEMORY_REPORT = Record({
    "peak": (Record({k: (INT, 0) for k in (
        "step", "demand_bytes", "capacity_bytes", "waste_bytes",
        "padding_bytes", "slack_bytes", "sharing_saved_bytes")}), {}),
    "bitwise_peak_equal": (BOOL, False),
    "attribution": (Record({t: (ListOf(Record({
        "key": STR, "bytes": INT, "share": FLOAT, "requests": INT})), [])
        for t in ("by_site", "by_stage", "by_family")}), {}),
    "shape_plan": (Record({
        "base": (Record({"batch": (INT, 0), "seq_len": (INT, 0),
                         "attn": (ATTN, {}),
                         "model_dims": (ObjectOf(INT), {})}), {}),
        "requests": (ListOf(Record({
            "shape": ListOf(INT), "dtype": DTYPE, "site": _OPT_STR,
            "plan": (Nullable(INT), None)})), []),
        "plans": (ListOf(Record({"entries": ListOf(TupleOf(
            STR, ListOf(INT), DTYPE, INT, INT))})), []),
    }), {}),
    # written by oom_forensics
    "oom": (Nullable(Record({
        **{k: INT for k in ("step", "requested_bytes", "budget_bytes",
                            "over_budget_bytes", "live_bytes",
                            "sharing_saved_bytes")},
        "requested_shape": (ListOf(INT), []), "site": _OPT_STR,
        "live_slots": ListOf(Record({})),
        "would_fit_without_largest": BOOL,
        "would_fit_without_padding": BOOL,
        "hints": (ListOf(STR), [])})), None),
}, tag=MEMORY_SCHEMA)


def load_memory_report(path: str) -> Dict[str, object]:
    """Load and parse a memory report document (:data:`MEMORY_REPORT`)."""
    return MEMORY_REPORT.load(path)


# ---------------------------------------------------------------------------
# OOM forensics
# ---------------------------------------------------------------------------


def oom_forensics(tracer: MemoryTracer, exc: ArenaOOM,
                  arena: ActivationArena) -> Dict[str, object]:
    """What was live when the budget blew, and what would have saved it."""
    live = [e for e in tracer.events
            if e.kind == "request" and e.step == arena.steps]
    live_sorted = sorted(live, key=lambda e: -e.rounded)
    budget = exc.budget or 0
    over = exc.demand + exc.requested - budget
    saved = sum(round_block(tracer.plans[e.plan].naive_total)
                - round_block(tracer.plans[e.plan].total)
                for e in live if e.plan is not None)
    largest = live_sorted[0] if live_sorted else None
    raw_live = sum(e.nbytes for e in live)
    hints: List[str] = []
    if largest is not None:
        hints.append(
            f"largest live slot: {largest.rounded:,} bytes "
            f"{tuple(largest.shape)} at "
            f"{largest.site or '(unattributed)'}")
    if saved:
        hints.append(f"lifetime sharing already saves {saved:,} bytes this "
                     f"step; the plan cannot be shared further")
    quad = [e for e in live + [SlotEvent(0, 0, 'oom', 0.0, shape=exc.shape
                                         or ())]
            if sum(1 for d in e.shape if d > 1 and e.shape.count(d) >= 2
                   and d >= 64) >= 2 and len(e.shape) >= 3]
    if quad:
        hints.append("a quadratic (L x L)-shaped buffer is live: "
                     "attn_impl=tiled replaces it with a tile-sized "
                     "workspace (see project_capacity)")
    return {
        "kind": "oom",
        "step": arena.steps,
        "requested_bytes": exc.requested,
        "requested_shape": list(exc.shape or ()),
        "requested_dtype": exc.dtype,
        "site": exc.site,
        "budget_bytes": budget,
        "capacity_bytes": exc.capacity,
        "demand_bytes": exc.demand,
        "over_budget_bytes": over,
        "live_bytes": raw_live,
        "sharing_saved_bytes": saved,
        "live_slots": [{"site": e.site, "stage": e.stage,
                        "shape": list(e.shape), "dtype": e.dtype,
                        "bytes": e.rounded}
                       for e in live_sorted[:15]],
        "would_fit_without_largest": (
            largest is not None
            and exc.demand - largest.rounded + exc.requested <= budget),
        "would_fit_without_padding": raw_live + exc.requested <= budget,
        "hints": hints,
    }


def _format_oom(oom: Dict[str, object]) -> str:
    lines = [
        f"  OOM at step {oom['step']}: request of "
        f"{oom['requested_bytes']:,} bytes "
        f"{tuple(oom['requested_shape'])} at "
        f"{oom['site'] or '(unattributed)'} over budget "
        f"{oom['budget_bytes']:,} by {oom['over_budget_bytes']:,} bytes",
        f"    live: {oom['live_bytes']:,} raw bytes in "
        f"{len(oom['live_slots'])} largest slots; sharing already saved "
        f"{oom['sharing_saved_bytes']:,} bytes",
        f"    would fit without largest slot: "
        f"{oom['would_fit_without_largest']}; without rounding padding: "
        f"{oom['would_fit_without_padding']}",
    ]
    for h in oom["hints"]:
        lines.append(f"    hint: {h}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# what-if capacity engine
# ---------------------------------------------------------------------------


def _scale_dim(d: int, b0: int, l0: int, b: int, l: int) -> int:
    # order matters: with batch 1, l0 == b0 * l0 and any dim equals b0
    if l0 and d == l0:
        return l
    if b0 and l0 and d == b0 * l0:
        return b * l
    if b0 and d == b0:
        return b
    return d


def _scale_shape(shape: Sequence[int], b0: int, l0: int, b: int, l: int
                 ) -> Tuple[int, ...]:
    return tuple(_scale_dim(int(d), b0, l0, b, l) for d in shape)


def _retile(shape: Tuple[int, ...], l0: int, l: int, tq: int, tk: int
            ) -> Tuple[int, ...]:
    """Rewrite a quadratic (.., L, L) shape into its tiled workspace."""
    out = list(shape)
    hit = 0
    for i, d in enumerate(shape):
        if d == l0:
            out[i] = min(tq, l) if hit == 0 else min(tk, l)
            hit += 1
    return tuple(out)


def _is_quadratic(shape: Sequence[int], l0: int) -> bool:
    return l0 > 1 and sum(1 for d in shape if int(d) == l0) >= 2


def model_dims(cfg) -> Dict[str, int]:
    """The model dims a what-if base point stamps as ``model_dims``."""
    return {"hidden": cfg.hidden_dim, "nhead": cfg.nhead,
            "head_dim": cfg.hidden_dim // cfg.nhead, "ffn": cfg.ffn_dim,
            "vocab": cfg.vocab_size}


class AmbiguousBasePoint(ValueError):
    """A batch/seq_len what-if dimension matching cannot disambiguate."""


def _refuse_ambiguous_base(dims: Dict[str, int], attn: Dict[str, object],
                           probes: Dict[str, int], b0: int, l0: int) -> None:
    if not dims:
        raise AmbiguousBasePoint("shape plan lacks base model_dims; "
                                 "re-record with repro.train --memory-out")
    named = {f"model_dims.{k}": v for k, v in dims.items()}
    named.update({f"attn.{k}": attn[k] for k in ("tile_q", "tile_k")
                  if attn.get(k)})
    hits = [f"base {knob} = {value} equals {name}"
            for knob, value in probes.items()
            for name, d in named.items() if d == value]
    if b0 == l0:
        hits.append(f"base batch equals base seq_len ({b0})")
    if hits:
        raise AmbiguousBasePoint(
            "; ".join(hits) + ": dimension matching cannot tell them "
            "apart; re-record at a base point free of such collisions")


def project_capacity(shape_plan: Dict[str, object], *,
                     batch: Optional[int] = None,
                     seq_len: Optional[int] = None,
                     attn_impl: Optional[str] = None,
                     tile_q: Optional[int] = None,
                     tile_k: Optional[int] = None) -> Dict[str, object]:
    """Replay a recorded shape plan under scaled dimensions.

    Every recorded request's shape is rescaled by dimension matching
    (dims equal to the base sequence length scale to ``seq_len``, dims
    equal to the base batch scale to ``batch``, flattened ``B*L`` products
    scale to their product), sizes are re-rounded with the allocator's
    block granularity, and lifetime-sharing plans are re-packed with
    :func:`~repro.backend.allocator.pack_plan` on the scaled entries — the
    same call the arena itself makes, so a projection at the recorded point
    is exact and an L-scaled projection reproduces a real run at that L
    whenever the request stream is shape-independent (it is for every model
    here).

    ``attn_impl="tiled"`` from a fused/naive recording additionally
    rewrites quadratic ``(.., L, L)`` requests and plan entries into
    tile-sized workspaces.  Projecting a tiled recording back to a fused
    plan is not supported — record with the target impl instead.

    Returns ``{"demand_bytes", "capacity_bytes", "requests", ...}`` where
    ``demand_bytes`` is what a step would demand (the quantity the
    ``max_bytes`` OOM check compares) and ``capacity_bytes`` its
    block-rounded reservation.

    Dimension matching is positional, not semantic, so a ``batch`` or
    ``seq_len`` what-if raises :class:`AmbiguousBasePoint` (a
    ``ValueError``) unless the base stamps ``model_dims`` (hidden, nhead,
    head_dim, ffn, vocab) and neither a changed knob's base value nor
    ``batch*seq_len`` equals one of them or a tile size, and the base
    batch differs from the base sequence length.
    """
    base = dict(shape_plan.get("base") or {})
    b0 = int(base.get("batch", 0) or 0)
    l0 = int(base.get("seq_len", 0) or 0)
    attn = dict(base.get("attn") or {})
    impl0 = str(attn.get("attn_impl", "fused"))
    b = int(batch) if batch is not None else (b0 or 1)
    l = int(seq_len) if seq_len is not None else (l0 or 1)
    impl = str(attn_impl) if attn_impl is not None else impl0
    tq = int(tile_q if tile_q is not None else attn.get("tile_q") or 256)
    tk = int(tile_k if tile_k is not None else attn.get("tile_k") or 256)
    retile = impl == "tiled" and impl0 != "tiled"
    if impl != impl0 and not retile:
        raise ValueError(
            f"cannot project attn_impl={impl0!r} -> {impl!r} from this "
            f"recording; only the quadratic -> tiled rewrite is supported "
            f"(record with attn_impl={impl!r} instead)")
    if (batch is not None and not b0) or (seq_len is not None and not l0):
        raise ValueError("shape plan lacks base batch/seq_len dims; "
                         "re-record with base= set")
    if batch is not None or seq_len is not None:
        probes = {k: v for k, v, knob in (("batch", b0, batch),
                                          ("seq_len", l0, seq_len))
                  if knob is not None}
        if b0 and l0:
            probes["batch*seq_len"] = b0 * l0
        _refuse_ambiguous_base(base.get("model_dims"), attn, probes, b0, l0)

    plans = shape_plan.get("plans") or []
    demand = 0
    nreq = 0
    for req in shape_plan.get("requests") or []:
        nreq += 1
        if req.get("plan") is not None:
            p = plans[int(req["plan"])]
            entries = []
            for name, eshape, edtype, start, end in p["entries"]:
                es = _scale_shape(eshape, b0, l0, b, l)
                if retile and _is_quadratic(es, l):
                    es = _retile(es, l, l, tq, tk)
                entries.append((str(name), es, edtype, int(start), int(end)))
            _, total, _ = pack_plan(entries)
            if total:
                demand += round_block(total)
            continue
        shape = _scale_shape(req["shape"], b0, l0, b, l)
        if retile and _is_quadratic(shape, l):
            shape = _retile(shape, l, l, tq, tk)
        nb = int(np.prod(shape, dtype=np.int64)) \
            * np.dtype(req["dtype"]).itemsize
        if nb:
            demand += round_block(nb)
    return {
        "batch": b, "seq_len": l, "attn_impl": impl,
        "tile_q": tq, "tile_k": tk,
        "demand_bytes": int(demand),
        "capacity_bytes": int(round_block(demand)) if demand else 0,
        "requests": nreq,
    }


def fits(shape_plan: Dict[str, object], budget: int, **knobs) -> bool:
    """Would a step at the projected point train under ``budget`` bytes?

    Mirrors the arena's real OOM checks: a run survives iff its peak step
    demand stays within ``max_bytes`` (reservation happens at the unrounded
    peak, so rounding slack never OOMs a run that fits).
    """
    return project_capacity(shape_plan, **knobs)["demand_bytes"] \
        <= int(budget)


def max_fit(shape_plan: Dict[str, object], budget: int, *,
            knob: str = "seq_len", hi: int = 1 << 20, **fixed) -> int:
    """The largest ``knob`` value ("seq_len" or "batch") fitting ``budget``.

    Binary search over the projection (demand is monotone in both knobs);
    returns 0 when even 1 does not fit.  ``fixed`` pins the other knobs
    (e.g. ``attn_impl="tiled"``).
    """
    if knob not in ("seq_len", "batch"):
        raise ValueError(f"max_fit knob must be seq_len or batch, "
                         f"got {knob!r}")

    def ok(v: int) -> bool:
        return fits(shape_plan, budget, **{knob: v}, **fixed)

    if not ok(1):
        return 0
    lo = 1
    while lo * 2 <= hi and ok(lo * 2):
        lo *= 2
    hi = min(lo * 2, hi)
    # invariant: ok(lo), not ok(hi) (or hi is the cap)
    if ok(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_bytes(text: str) -> int:
    """'72MiB' / '1.5GiB' / '123456' -> bytes."""
    t = text.strip()
    for suffix, mult in (("GiB", 1 << 30), ("MiB", 1 << 20),
                         ("KiB", 1 << 10), ("B", 1)):
        if t.endswith(suffix):
            return int(float(t[:-len(suffix)]) * mult)
    return int(t)


def _parse_whatif(text: str) -> Dict[str, object]:
    """'seq_len=2048,attn_impl=tiled' -> project_capacity kwargs."""
    out: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"what-if term {part!r} is not key=value")
        key, _, val = part.partition("=")
        key = key.strip()
        if key in ("batch", "seq_len", "tile_q", "tile_k"):
            out[key] = int(val)
        elif key == "attn_impl":
            out[key] = val.strip()
        else:
            raise ValueError(f"unknown what-if knob {key!r} (expected "
                             f"batch/seq_len/attn_impl/tile_q/tile_k)")
    return out


def _print_report(doc: Dict[str, object], n: int = 10) -> None:
    peak = doc["peak"]
    print(f"memory observatory: peak "
          f"{peak['demand_bytes'] / _MIB:.1f} MiB at step "
          f"{peak['step']}; slab "
          f"{peak['capacity_bytes'] / _MIB:.1f} MiB"
          + ("" if doc["bitwise_peak_equal"]
             else "  [PEAK != RESERVED HIGH-WATER]"))
    print(f"  waste {peak['waste_bytes'] / _MIB:.2f} MiB (padding "
          f"{peak['padding_bytes'] / _MIB:.2f}, slack "
          f"{peak['slack_bytes'] / _MIB:.2f}); sharing saved "
          f"{peak['sharing_saved_bytes'] / _MIB:.2f} MiB")
    for title in ("by_site", "by_stage", "by_family"):
        rows = doc["attribution"][title]
        print(f"  peak attribution {title.replace('_', ' ')}:")
        print(f"  {'#':>3} {'key':<36}{'MiB':>9}{'share':>7}{'reqs':>7}")
        for i, r in enumerate(rows[:n], 1):
            print(f"  {i:>3} {r['key']:<36}{r['bytes'] / _MIB:>9.2f}"
                  f"{r['share']:>7.1%}{r['requests']:>7}")
    if doc["oom"]:
        print(_format_oom(doc["oom"]))


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs memory",
        description="Inspect a memory observatory report: peak "
                    "attribution, waste, OOM forensics, and what-if "
                    "capacity projections.")
    p.add_argument("report", help="repro.obs.memory/v1 JSON (written by "
                                  "repro.train --memory-out)")
    p.add_argument("--whatif", action="append", default=[],
                   metavar="K=V[,K=V...]",
                   help="project the recorded shape plan under scaled "
                        "knobs (batch/seq_len/attn_impl/tile_q/tile_k); "
                        "repeatable")
    p.add_argument("--budget", default=None, metavar="BYTES",
                   help="byte budget for --whatif fit checks and "
                        "--max-fit (accepts KiB/MiB/GiB suffixes)")
    p.add_argument("--max-fit", choices=("seq_len", "batch"), default=None,
                   help="report the largest value of this knob that fits "
                        "--budget")
    p.add_argument("--top", type=int, default=10,
                   help="attribution rows per table (default 10)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the timeline peak bitwise-equals "
                        "the reserved high-water mark (the CI gate)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")
    args = p.parse_args(argv)
    try:
        doc = load_memory_report(args.report)
        budget = _parse_bytes(args.budget) if args.budget else None
        if args.max_fit and budget is None:
            raise ValueError("--max-fit requires --budget")
        plan = doc["shape_plan"]
        whatifs = []
        for term in args.whatif:
            knobs = _parse_whatif(term)
            proj = project_capacity(plan, **knobs)
            if budget is not None:
                proj["budget_bytes"] = budget
                proj["fits"] = proj["demand_bytes"] <= budget
            whatifs.append(proj)
        maxfit = None
        if args.max_fit:
            fixed = {}
            for term in args.whatif:
                fixed.update(_parse_whatif(term))
            fixed.pop(args.max_fit, None)
            maxfit = {"knob": args.max_fit, "budget_bytes": budget,
                      "value": max_fit(plan, budget, knob=args.max_fit,
                                       **fixed)}
    except (OSError, LookupError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        out = dict(doc)
        if whatifs:
            out["whatifs"] = whatifs
        if maxfit:
            out["max_fit"] = maxfit
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        _print_report(doc, args.top)
        for proj in whatifs:
            fit = (""
                   if "fits" not in proj else
                   f"  -> {'fits' if proj['fits'] else 'OOM'} under "
                   f"{proj['budget_bytes'] / _MIB:.1f} MiB")
            print(f"  what-if batch={proj['batch']} "
                  f"seq_len={proj['seq_len']} "
                  f"attn_impl={proj['attn_impl']}: demand "
                  f"{proj['demand_bytes'] / _MIB:.1f} MiB, reservation "
                  f"{proj['capacity_bytes'] / _MIB:.1f} MiB{fit}")
        if maxfit:
            print(f"  max-fit {maxfit['knob']} under "
                  f"{budget / _MIB:.1f} MiB: {maxfit['value']}")
    if args.check and not doc["bitwise_peak_equal"]:
        print("CHECK FAILED: timeline peak is not bitwise equal to the "
              "arena's reserved high-water mark")
        return 1
    if args.check and doc["oom"]:
        print("CHECK FAILED: the traced run hit an ArenaOOM")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit("moved: python -m repro.obs memory")
