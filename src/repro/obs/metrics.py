"""Per-step metrics sink: append-only JSONL run telemetry.

A :class:`MetricsRecorder` turns each optimisation step into one
:class:`StepMetrics` record — loss, token throughput, loss-scale value and
overflow/skip events, :class:`~repro.backend.profiler.AllocCounters`
deltas, arena hit/miss/re-reservation statistics, and the hidden-vs-exposed
communication split from the two-stream overlap schedule — and appends it
as one JSON object per line.  JSONL (not one big array) so a crashed or
interrupted run still leaves every completed step parseable, and so two
runs into the same file remain an append-only trajectory.

Beyond step rows, the stream carries **event rows** (any object with an
``"event"`` key): a provenance ``header`` (git SHA, config hash, schema
version — what makes two streams comparable across commits), and the
numerics observatory's ``numerics`` / ``anomaly`` lines.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from ..backend.profiler import alloc_counters
from .schema import FINITE, FLOAT, INT, declare

#: schema tag carried by the stream's provenance header line.
METRICS_SCHEMA = "repro.obs.metrics/v2"


@dataclass
class StepMetrics:
    """One optimisation step's machine-readable record."""

    step: int
    loss: float
    num_tokens: int
    wall_s: float
    applied: bool = True            # False = loss-scaler skipped the update
    overflow: bool = False
    loss_scale: Optional[float] = None
    skipped_total: int = 0          # cumulative scaler skips so far
    # loss-scale dynamics (§3.2 overflow protocol: growth/backoff events,
    # current consecutive-skip streak)
    scale_growths: int = 0
    scale_backoffs: int = 0
    skip_streak: int = 0
    # allocation-counter deltas for this step (§3.3 instrumentation)
    new_allocs: int = 0
    new_alloc_bytes: int = 0
    arena_hits: int = 0
    arena_misses: int = 0
    # arena state (cumulative — re-reservations are the Fig.-16 growth steps)
    arena_reservations: int = 0
    arena_capacity_bytes: int = 0
    # memory observatory (§3.3): per-step high-water marks.  peak is the
    # max step demand seen so far, step demand the last completed step's,
    # waste the capacity minus demand (rounding slack + retired peaks).
    arena_peak_bytes: int = 0
    arena_step_demand_bytes: int = 0
    arena_waste_bytes: int = 0
    # two-stream comm split (seconds; zero on single-device runs)
    comm_hidden_s: float = 0.0
    comm_exposed_s: float = 0.0
    # resilience: collective retries this step and the deterministic
    # backoff they waited through, plus faults injected so far (cumulative
    # across the run, so a fault-plan replay is auditable from the stream)
    comm_retries: int = 0
    comm_retry_s: float = 0.0
    faults_injected: int = 0
    # capture-replay engine outcome (§3.1 flat dispatch): whether this step
    # replayed a captured program, plus the cumulative engine counters
    replayed: bool = False
    replay_captures: int = 0
    replay_replays: int = 0
    replay_invalidations: int = 0
    replay_eager_fallbacks: int = 0

    @property
    def loss_per_token(self) -> float:
        return self.loss / max(self.num_tokens, 1)

    @property
    def tokens_per_s(self) -> float:
        return self.num_tokens / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["loss_per_token"] = self.loss_per_token
        d["tokens_per_s"] = self.tokens_per_s
        return d


#: a step row as :meth:`StepMetrics.as_dict` writes it; a hand-written row
#: may carry only ``step``.  ``wall_s`` and the exposed comm seconds are
#: finite because the trajectory gates their sums (NaN passes any budget).
STEP_ROW = declare(StepMetrics, loss=(FLOAT, 0.0), num_tokens=(INT, 0),
                   wall_s=(FINITE, 0.0), comm_exposed_s=(FINITE, 0.0))


class MetricsRecorder:
    """Accumulates :class:`StepMetrics`; optionally streams them to JSONL.

    With ``path`` set, every observed step is appended to the file
    immediately (append-only, one object per line); without it the records
    stay in memory until :meth:`write_jsonl`.  Unless ``provenance`` is
    disabled, the stream opens with a ``header`` event line stamping the
    git SHA, a hash of ``config``, and the stream schema version, so two
    JSONL files are comparable across commits.
    """

    def __init__(self, path: Optional[str] = None, *,
                 config: Optional[Dict[str, object]] = None,
                 provenance: bool = True):
        self.path = path
        self.records: List[StepMetrics] = []
        self.events: List[Dict[str, object]] = []
        self._log: List[Dict[str, object]] = []   # rows in emission order
        self._lock = threading.Lock()
        self._alloc_base = alloc_counters().snapshot()
        if provenance:
            from .provenance import provenance as _prov
            self.observe_event("header", schema=METRICS_SCHEMA,
                               **_prov(config))

    def observe_event(self, kind: str, /, **payload: object
                      ) -> Dict[str, object]:
        """Append one event row (``{"event": kind, ...payload}``).

        ``kind`` is positional-only so payloads may themselves carry a
        ``kind`` key (anomaly records do).
        """
        rec = {"event": kind, **payload}
        with self._lock:
            self.events.append(rec)
            self._log.append(rec)
            if self.path:
                with open(self.path, "a") as f:
                    f.write(json.dumps(rec) + "\n")
        return rec

    @property
    def steps(self) -> int:
        return len(self.records)

    def observe_step(self, step: int, loss: float, num_tokens: int,
                     wall_s: float, *, applied: bool = True,
                     scaler: Optional[object] = None,
                     arena: Optional[object] = None,
                     comm: Optional[object] = None,
                     replay: Optional[object] = None,
                     replayed: bool = False,
                     retry_stats: Optional[object] = None,
                     faults: Optional[object] = None) -> StepMetrics:
        """Record one step.

        ``scaler`` (any loss scaler) contributes ``loss_scale`` and the
        cumulative overflow count; ``arena`` (an
        :class:`~repro.backend.arena.ActivationArena`) contributes
        reservation statistics; ``comm`` is a
        :class:`~repro.sim.timeline.BucketSchedule` (or anything with
        ``hidden_s``/``exposed_s``) contributing the comm split; ``replay``
        (a :class:`~repro.backend.profiler.ReplayCounters`) contributes the
        cumulative capture-replay totals and ``replayed`` flags whether
        *this* step went through the flat dispatch loop; ``retry_stats``
        (a :class:`~repro.resilience.recovery.CommRetryStats`) contributes
        this step's collective retries and backoff seconds; ``faults`` (a
        :class:`~repro.resilience.faults.FaultInjector`) contributes the
        cumulative injected-fault count.  The allocation-counter delta is
        measured since the previous observed step (or recorder
        construction).
        """
        with self._lock:
            delta = alloc_counters().since(self._alloc_base)
            self._alloc_base = alloc_counters().snapshot()
            rec = StepMetrics(
                step=step, loss=float(loss), num_tokens=int(num_tokens),
                wall_s=float(wall_s), applied=bool(applied),
                overflow=not applied,
                loss_scale=(float(scaler.scale) if scaler is not None
                            else None),
                skipped_total=(int(getattr(scaler, "overflows", 0))
                               if scaler is not None else 0),
                scale_growths=(int(getattr(scaler, "growths", 0))
                               if scaler is not None else 0),
                scale_backoffs=(int(getattr(scaler, "backoffs", 0))
                                if scaler is not None else 0),
                skip_streak=(int(getattr(scaler, "skip_streak", 0))
                             if scaler is not None else 0),
                new_allocs=delta.new_allocs,
                new_alloc_bytes=delta.new_alloc_bytes,
                arena_hits=delta.arena_hits,
                arena_misses=delta.arena_misses,
                arena_reservations=(int(arena.reservations)
                                    if arena is not None else 0),
                arena_capacity_bytes=(int(arena.capacity)
                                      if arena is not None else 0),
                arena_peak_bytes=(int(getattr(arena, "peak_demand", 0))
                                  if arena is not None else 0),
                arena_step_demand_bytes=(int(getattr(arena, "demand", 0))
                                         if arena is not None else 0),
                arena_waste_bytes=(max(int(arena.capacity)
                                       - int(getattr(arena, "demand", 0)), 0)
                                   if arena is not None else 0),
                comm_hidden_s=(float(comm.hidden_s)
                               if comm is not None else 0.0),
                comm_exposed_s=(float(comm.exposed_s)
                                if comm is not None else 0.0),
                comm_retries=(int(retry_stats.step_retries)
                              if retry_stats is not None else 0),
                comm_retry_s=(float(retry_stats.step_backoff_s)
                              if retry_stats is not None else 0.0),
                faults_injected=(len(faults.injections)
                                 if faults is not None else 0),
                replayed=bool(replayed),
                replay_captures=(int(replay.captures)
                                 if replay is not None else 0),
                replay_replays=(int(replay.replays)
                                if replay is not None else 0),
                replay_invalidations=(int(replay.invalidations)
                                      if replay is not None else 0),
                replay_eager_fallbacks=(int(replay.eager_fallbacks)
                                        if replay is not None else 0),
            )
            self.records.append(rec)
            self._log.append(rec.as_dict())
            if self.path:
                with open(self.path, "a") as f:
                    f.write(json.dumps(rec.as_dict()) + "\n")
        return rec

    def write_jsonl(self, path: str) -> None:
        """Append every in-memory row (steps AND events, in emission
        order) to ``path``, one object per line."""
        with open(path, "a") as f:
            for row in self._log:
                f.write(json.dumps(row) + "\n")


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a metrics JSONL file back into one dict per step."""
    out: List[Dict[str, object]] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(
                    f"{path}:{lineno}: not one-JSON-object-per-line "
                    f"({e})") from e
    return out


def read_jsonl_tolerant(path: str) -> "tuple[List[Dict[str, object]], int]":
    """Parse a metrics JSONL, skipping unparseable lines.

    A run killed mid-write (the very scenario the resilience layer
    exists for) leaves a truncated final line; :func:`read_jsonl`'s
    strict mode would reject the whole stream for it.  This variant
    returns ``(rows, skipped)`` where ``skipped`` counts the dropped
    lines — callers should surface a warning when it is non-zero.
    Only lines that parse to JSON *objects* count as rows; a parseable
    scalar fragment (e.g. a truncated ``"loss": 3.`` tail) is skipped.
    """
    out: List[Dict[str, object]] = []
    skipped = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(row, dict):
                out.append(row)
            else:
                skipped += 1
    return out, skipped
