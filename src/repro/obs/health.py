"""Anomaly engine + ``python -m repro.obs health`` triage CLI.

When a mixed-precision run diverges, the operator needs the *first bad
step and the offending layer*, not a Perfetto trace of healthy kernels.
This module turns the :mod:`repro.obs.numerics` records into exactly
that:

* a catalog of pluggable **detectors** — NaN/Inf sentinel with
  first-bad-layer attribution, gradient-norm spike vs. a running
  median, loss spike, dead-layer (exact-zero gradients), FP16
  saturation/underflow pressure, and loss-scale skip streaks;
* an :class:`AnomalyEngine` that runs the catalog online (inside the
  training loop via :class:`~repro.obs.numerics.NumericsCollector`) or
  offline over a recorded metrics JSONL;
* a CLI that reads a metrics JSONL (or a ``BENCH_*.json`` run record),
  prints a per-layer health report with first-bad-step triage, and
  exits non-zero on anomalies — a CI gate next to
  ``python -m repro.obs compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from .metrics import STEP_ROW
from .numerics import StepNumerics
from .schema import declare


@dataclass
class Anomaly:
    """One detected training-health violation."""

    kind: str                      # e.g. "nonfinite_grad", "loss_spike"
    step: int
    layer: Optional[str] = None    # parameter group / tap name, if known
    detail: str = ""
    severity: str = "error"        # "error" | "warn"
    t_s: float = 0.0               # wall time vs. the active SpanRecorder

    def __str__(self) -> str:
        where = f" {self.layer}" if self.layer else ""
        return (f"step {self.step} [{self.severity}] "
                f"{self.kind}{where}: {self.detail}")

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "step": self.step, "layer": self.layer,
                "detail": self.detail, "severity": self.severity,
                "t_s": self.t_s}

    @classmethod
    def from_dict(cls, d: Dict[str, object], path: str = "") -> "Anomaly":
        """Parse a recorded ``anomaly`` row (:data:`ANOMALY_ROW`)."""
        return ANOMALY_ROW.make(ANOMALY_ROW.parse(d, path))


#: an ``anomaly`` event row as :meth:`Anomaly.as_dict` writes it.
ANOMALY_ROW = declare(Anomaly)


class AnomalyHalted(RuntimeError):
    """Raised by a halt-on-anomaly collector at the first error."""

    def __init__(self, anomaly: Anomaly):
        super().__init__(str(anomaly))
        self.anomaly = anomaly


# ---------------------------------------------------------------------------
# detector catalog
# ---------------------------------------------------------------------------


class Detector:
    """Base detector: consume one StepNumerics, return found anomalies."""

    name = "detector"

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        raise NotImplementedError


class NonFiniteDetector(Detector):
    """NaN/Inf sentinel with first-bad-layer attribution.

    Groups are walked in workspace (= parameter registration) order, so
    the first emitted anomaly names the earliest layer whose gradient
    went non-finite — the triage answer.  Activation taps are checked
    too, catching a forward-pass blow-up one stage earlier.
    """

    name = "nonfinite"

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        # a non-finite gradient the scaler caught (applied=False) is the
        # §3.2 overflow protocol *working* — report it attributed, but as
        # a warning; an applied step with NaN/Inf is the real emergency.
        sev = "error" if rec.applied else "warn"
        out = []
        for layer, s in rec.groups.items():
            bad = int(s.get("grad_nan", 0)) + int(s.get("grad_inf", 0))
            if bad:
                out.append(Anomaly(
                    "nonfinite_grad", rec.step, layer=layer, severity=sev,
                    detail=(f"nan={int(s.get('grad_nan', 0))} "
                            f"inf={int(s.get('grad_inf', 0))} of "
                            f"{int(s.get('grad_n', 0))} sampled")))
        for tap, s in rec.activations.items():
            bad = int(s.get("nan", 0)) + int(s.get("inf", 0))
            if bad:
                out.append(Anomaly(
                    "nonfinite_activation", rec.step, layer=tap,
                    severity=sev,
                    detail=f"nan={int(s.get('nan', 0))} "
                           f"inf={int(s.get('inf', 0))}"))
        return out


class GradNormSpikeDetector(Detector):
    """Global gradient norm vs. the running median of recent steps."""

    name = "grad_norm_spike"

    def __init__(self, window: int = 64, factor: float = 10.0,
                 warmup: int = 5):
        self.factor = factor
        self.warmup = warmup
        self._hist: Deque[float] = deque(maxlen=window)

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        norm = rec.global_grad_norm
        out = []
        if norm > 0 and len(self._hist) >= self.warmup:
            med = statistics.median(self._hist)
            if med > 0 and norm > self.factor * med:
                out.append(Anomaly(
                    "grad_norm_spike", rec.step, severity="warn",
                    detail=f"norm {norm:.3g} > {self.factor:g}x running "
                           f"median {med:.3g}"))
        if norm > 0:                 # non-finite steps don't poison history
            self._hist.append(norm)
        return out


class LossSpikeDetector(Detector):
    """Per-token loss vs. the running median of recent steps."""

    name = "loss_spike"

    def __init__(self, window: int = 64, factor: float = 10.0,
                 warmup: int = 5):
        self.factor = factor
        self.warmup = warmup
        self._hist: Deque[float] = deque(maxlen=window)

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        lpt = rec.loss_per_token
        out = []
        finite = lpt == lpt and abs(lpt) != float("inf")
        if not finite:
            out.append(Anomaly("nonfinite_loss", rec.step,
                               detail=f"loss={rec.loss!r}"))
        elif len(self._hist) >= self.warmup:
            med = statistics.median(self._hist)
            if med > 0 and lpt > self.factor * med:
                out.append(Anomaly(
                    "loss_spike", rec.step, severity="warn",
                    detail=f"loss/tok {lpt:.4g} > {self.factor:g}x running "
                           f"median {med:.4g}"))
        if finite:
            self._hist.append(lpt)
        return out


class DeadLayerDetector(Detector):
    """A layer whose gradient stays exactly zero for consecutive samples.

    Exact zero over ``patience`` sampled steps means the layer is not
    learning (vanished gradient, detached subgraph, or total FP16
    underflow).  Fires once per layer until the gradient revives.
    """

    name = "dead_layer"

    def __init__(self, patience: int = 3):
        self.patience = patience
        self._streak: Dict[str, int] = {}
        self._reported: Dict[str, bool] = {}

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        out = []
        for layer, s in rec.groups.items():
            if float(s.get("grad_l2", 0.0)) == 0.0 \
                    and int(s.get("grad_nan", 0)) == 0 \
                    and int(s.get("grad_inf", 0)) == 0:
                n = self._streak.get(layer, 0) + 1
                self._streak[layer] = n
                if n >= self.patience and not self._reported.get(layer):
                    self._reported[layer] = True
                    out.append(Anomaly(
                        "dead_layer", rec.step, layer=layer, severity="warn",
                        detail=f"gradient exactly zero for {n} consecutive "
                               f"sampled steps"))
            else:
                self._streak[layer] = 0
                self._reported[layer] = False
        return out


class SaturationDetector(Detector):
    """FP16 range pressure: saturation at ±65504, or mass underflow.

    Only active on mixed-precision runs (``loss_scale`` present) — for
    FP32 runs the FP16 range is not in play.
    """

    name = "fp16_saturation"

    def __init__(self, sat_limit: float = 0.01, sub_limit: float = 0.5):
        self.sat_limit = sat_limit
        self.sub_limit = sub_limit

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        if rec.loss_scale is None:
            return []
        out = []
        for layer, s in rec.groups.items():
            sat = float(s.get("grad_sat_frac", 0.0))
            if sat > self.sat_limit:
                out.append(Anomaly(
                    "fp16_saturation", rec.step, layer=layer, severity="warn",
                    detail=f"{sat:.1%} of gradient values at ±65504 "
                           f"(scale {rec.loss_scale:g} too high?)"))
            sub = float(s.get("grad_sub_frac", 0.0))
            if sub > self.sub_limit and float(s.get("grad_l2", 0.0)) > 0:
                out.append(Anomaly(
                    "fp16_underflow", rec.step, layer=layer, severity="warn",
                    detail=f"{sub:.1%} of nonzero gradient values below the "
                           f"FP16 normal range (scale {rec.loss_scale:g} "
                           f"too low?)"))
        return out


class SkipStreakDetector(Detector):
    """Loss-scaler overflow protocol stuck: N consecutive skipped steps.

    The default tolerates a fresh model backing off from the fairseq
    init scale (2^15) to a workable one — several consecutive halvings
    at step 1 are normal, a persistent streak is not.
    """

    name = "skip_streak"

    def __init__(self, limit: int = 8):
        self.limit = limit

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        if rec.skip_streak == self.limit:    # fire once per streak
            return [Anomaly(
                "loss_scale_skip_streak", rec.step,
                detail=f"{rec.skip_streak} consecutive overflow-skipped "
                       f"steps (scale {rec.loss_scale})")]
        return []


class CommRetryDetector(Detector):
    """Collective retries: recovered comm faults, or a retry storm.

    A handful of recovered retries per run is the resilience layer doing
    its job (warn — the operator should know the fabric is flaky); many
    retries within one step means the link is effectively down and the
    bounded-retry budget is about to be exhausted (error at
    ``storm_limit``).
    """

    name = "comm_retry"

    def __init__(self, storm_limit: int = 4):
        self.storm_limit = storm_limit

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        n = rec.comm_retries
        if n <= 0:
            return []
        storm = n >= self.storm_limit
        return [Anomaly(
            "comm_retry_storm" if storm else "comm_retry", rec.step,
            severity="error" if storm else "warn",
            detail=f"{n} collective retr{'y' if n == 1 else 'ies'} "
                   f"recovered this step"
                   + (f" (>= storm limit {self.storm_limit})"
                      if storm else ""))]


def default_detectors() -> List[Detector]:
    """The stock catalog, in attribution-priority order."""
    return [NonFiniteDetector(), GradNormSpikeDetector(),
            LossSpikeDetector(), DeadLayerDetector(), SaturationDetector(),
            SkipStreakDetector(), CommRetryDetector()]


class AnomalyEngine:
    """Runs a detector catalog over a stream of StepNumerics records."""

    def __init__(self, detectors: Optional[Sequence[Detector]] = None):
        self.detectors = (list(detectors) if detectors is not None
                          else default_detectors())
        self.anomalies: List[Anomaly] = []

    def observe(self, rec: StepNumerics) -> List[Anomaly]:
        found: List[Anomaly] = []
        for det in self.detectors:
            found.extend(det.observe(rec))
        if found:
            from .spans import current_recorder
            span_rec = current_recorder()
            t = (time.perf_counter() - span_rec.epoch) if span_rec else 0.0
            for a in found:
                a.t_s = t
        self.anomalies.extend(found)
        return found

    @property
    def first_bad(self) -> Optional[Anomaly]:
        """Earliest error-severity anomaly (else earliest of any kind)."""
        ordered = sorted(self.anomalies, key=lambda a: a.step)
        for a in ordered:
            if a.severity == "error":
                return a
        return ordered[0] if ordered else None


# ---------------------------------------------------------------------------
# offline analysis (the CLI's engine room)
# ---------------------------------------------------------------------------


@dataclass
class LayerHealth:
    """Per-layer rollup across every sampled step."""

    layer: str
    last_grad_norm: float = 0.0
    last_update_ratio: float = 0.0
    max_absmax: float = 0.0
    max_sat_frac: float = 0.0
    max_sub_frac: float = 0.0
    anomalies: int = 0

    @property
    def status(self) -> str:
        return "BAD" if self.anomalies else "ok"


@dataclass
class HealthReport:
    """Everything ``python -m repro.obs health`` prints (or JSON-dumps)."""

    steps: int = 0
    numerics_records: int = 0
    anomalies: List[Anomaly] = field(default_factory=list)
    layers: List[LayerHealth] = field(default_factory=list)
    header: Optional[Dict[str, object]] = None

    @property
    def healthy(self) -> bool:
        return not self.anomalies

    @property
    def first_bad(self) -> Optional[Anomaly]:
        for a in self.anomalies:
            if a.severity == "error":
                return a
        return self.anomalies[0] if self.anomalies else None

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.obs.health_report/v1",
            "healthy": self.healthy,
            "steps": self.steps,
            "numerics_records": self.numerics_records,
            "first_bad": (self.first_bad.as_dict()
                          if self.first_bad else None),
            "anomalies": [a.as_dict() for a in self.anomalies],
            "layers": [{"layer": h.layer, "status": h.status,
                        "last_grad_norm": h.last_grad_norm,
                        "last_update_ratio": h.last_update_ratio,
                        "max_absmax": h.max_absmax,
                        "max_sat_frac": h.max_sat_frac,
                        "max_sub_frac": h.max_sub_frac,
                        "anomalies": h.anomalies} for h in self.layers],
            "header": self.header,
        }

    def format(self) -> str:
        lines = [f"health: {self.steps} step(s), "
                 f"{self.numerics_records} numerics record(s), "
                 f"{len(self.anomalies)} anomal"
                 f"{'y' if len(self.anomalies) == 1 else 'ies'}"]
        if self.header:
            sha = self.header.get("git_sha")
            lines.append(f"  run: git {str(sha)[:12] if sha else '?'} "
                         f"config {self.header.get('config_hash') or '?'}")
        fb = self.first_bad
        if fb is not None:
            where = f" in {fb.layer}" if fb.layer else ""
            lines.append(f"  FIRST BAD STEP: {fb.step} — "
                         f"{fb.kind}{where} ({fb.detail})")
        if self.layers:
            lines.append(f"  {'layer':<44}{'grad L2':>10}{'dp/p':>10}"
                         f"{'absmax':>10}{'sat%':>7}{'sub%':>7}  status")
            for h in self.layers:
                lines.append(
                    f"  {h.layer:<44}{h.last_grad_norm:>10.3g}"
                    f"{h.last_update_ratio:>10.2g}{h.max_absmax:>10.3g}"
                    f"{h.max_sat_frac:>7.1%}{h.max_sub_frac:>7.1%}"
                    f"  {h.status}")
        for a in self.anomalies:
            lines.append(f"  {a}")
        lines.append("  run is HEALTHY" if self.healthy
                     else "  run has ANOMALIES")
        return "\n".join(lines)


def analyze_rows(rows: Sequence[Dict[str, object]],
                 detectors: Optional[Sequence[Detector]] = None
                 ) -> HealthReport:
    """Triage a parsed metrics JSONL (step rows + event rows).

    Numerics event lines are re-run through a fresh detector catalog
    (so a run recorded *without* an engine still gets triaged), recorded
    ``anomaly`` events are merged in, and plain step rows feed the
    loss-spike and skip-streak detectors even when numerics sampling was
    off.  Duplicates are collapsed on (kind, step, layer).  A row of the
    wrong shape raises :class:`~repro.obs.schema.SchemaError`.
    """
    header = next((r for r in rows if r.get("event") == "header"), None)
    step_rows = [STEP_ROW.parse(r, f"rows[{i}]")
                 for i, r in enumerate(rows) if "event" not in r]
    numerics = [StepNumerics.from_dict(r, f"rows[{i}]")
                for i, r in enumerate(rows) if r.get("event") == "numerics"]
    recorded = [Anomaly.from_dict(r, f"rows[{i}]")
                for i, r in enumerate(rows) if r.get("event") == "anomaly"]

    engine = AnomalyEngine(detectors)
    for rec in numerics:
        engine.observe(rec)

    # step rows alone still support loss/skip triage (numerics may be
    # sampled sparsely, or not at all)
    step_engine = AnomalyEngine([LossSpikeDetector(), SkipStreakDetector(),
                                 CommRetryDetector()])
    streak = 0
    for r in step_rows:
        streak = streak + 1 if not r["applied"] else 0
        step_engine.observe(StepNumerics(
            step=r["step"], loss=r["loss"], num_tokens=r["num_tokens"],
            applied=r["applied"], loss_scale=r["loss_scale"],
            skip_streak=streak, comm_retries=r["comm_retries"]))

    seen = set()
    merged: List[Anomaly] = []
    for a in sorted(recorded + engine.anomalies + step_engine.anomalies,
                    key=lambda a: (a.step, a.severity != "error")):
        key = (a.kind, a.step, a.layer)
        if key not in seen:
            seen.add(key)
            merged.append(a)

    by_layer: Dict[str, LayerHealth] = {}
    for rec in numerics:
        for layer, s in rec.groups.items():
            h = by_layer.setdefault(layer, LayerHealth(layer))
            h.last_grad_norm = float(s.get("grad_l2_unscaled",
                                           s.get("grad_l2", 0.0)))
            h.last_update_ratio = float(s.get("update_ratio", 0.0))
            h.max_absmax = max(h.max_absmax,
                               float(s.get("grad_absmax", 0.0)))
            h.max_sat_frac = max(h.max_sat_frac,
                                 float(s.get("grad_sat_frac", 0.0)))
            h.max_sub_frac = max(h.max_sub_frac,
                                 float(s.get("grad_sub_frac", 0.0)))
    for a in merged:
        if a.layer in by_layer:
            by_layer[a.layer].anomalies += 1

    return HealthReport(
        steps=len(step_rows) or len(numerics),
        numerics_records=len(numerics),
        anomalies=merged,
        layers=sorted(by_layer.values(), key=lambda h: h.layer),
        header=header,
    )


def _load_rows(path: str) -> "tuple[List[Dict[str, object]], int]":
    """Rows from a metrics JSONL, or from a run record's metrics section.

    Returns ``(rows, skipped)``: unparseable JSONL lines (the torn tail
    of a crashed run, a corrupted block) are *skipped*, not fatal — the
    triage of the surviving steps is exactly what the operator needs
    after a crash.
    """
    if path.endswith(".json"):
        from .runrecord import load_run_record
        return load_run_record(path)["metrics"], 0
    from .metrics import read_jsonl_tolerant
    return read_jsonl_tolerant(path)


#: exit code when unparseable lines were skipped but the surviving rows
#: are healthy (distinct from 1 = anomalies, 2 = unreadable input).
EXIT_SKIPPED_LINES = 4


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs health",
        description="Triage a training run's numerics: per-layer health "
                    "report, first-bad-step attribution, non-zero exit on "
                    "anomalies.  Truncated/corrupt JSONL lines are skipped "
                    "with a warning (exit 4 if the rest is healthy).")
    p.add_argument("path", help="metrics JSONL (or BENCH_*.json run record)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    args = p.parse_args(argv)
    try:
        rows, skipped = _load_rows(args.path)
        report = analyze_rows(rows)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if skipped:
        print(f"warning: skipped {skipped} unparseable line(s) in "
              f"{args.path} (truncated or corrupt stream)", file=sys.stderr)
    if args.json:
        d = report.as_dict()
        d["skipped_lines"] = skipped
        print(json.dumps(d, indent=2, sort_keys=True))
    else:
        print(report.format())
    if not report.healthy:
        return 1
    return EXIT_SKIPPED_LINES if skipped else 0


if __name__ == "__main__":
    raise SystemExit("moved: python -m repro.obs health")
