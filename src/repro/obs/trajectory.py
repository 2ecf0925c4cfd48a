"""The one run-record comparer: a pairwise diff and a cross-PR trajectory.

Every ``repro.obs.run_record/v1`` document is flattened by
:func:`metric_values` into ``{metric: value}`` (stage seconds, derived
step total, named counters, memory bytes, aggregated step metrics — tok/s,
exposed comm, allocation counts), every metric gets its direction from one
rule table, and one predicate decides "worse than its reference by more
than the budget".  Two views share that code:

* **trajectory** — a *directory* of records ordered by the provenance
  ``order_key`` (commit timestamp + SHA — deterministic, no filename
  conventions).  Regression detection is budget-based across the whole
  series, not pairwise: a point regresses when it is worse than the
  *best earlier* point by more than the threshold, so a slow drift that
  never trips a single adjacent diff still trips the trajectory — and a
  regression introduced three PRs ago keeps failing until fixed or
  re-baselined.
* **compare** — the two-record case (baseline vs candidate), plus the
  pairwise-only rules in the same table: a stage the baseline has and the
  candidate lacks is a regression, lower-is-better counters fail on *any*
  growth, and the step metrics are printed, never gated.

Entry points::

    PYTHONPATH=src python -m repro.obs compare BASELINE.json CURRENT.json \
        [--threshold 0.05] [--json] [--out FILE]
    PYTHONPATH=src python -m repro.obs trajectory RECORD_DIR \
        [--threshold 0.05] [--metric step_total] [--json] [--out FILE]

Both exit 1 when a regression is found, so either doubles as a CI gate,
and 2 on unusable input.  ``trajectory`` exits 4 when it skipped a file
that is not a usable run record and the rest of the series is clean.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .metrics import STEP_ROW
from .runrecord import (MEMORY_BYTES, RUN_RECORD, RUN_RECORD_SCHEMA,
                        emit_document, record_order_key)
from .schema import FINITE, ListOf, Record

TRAJECTORY_SCHEMA = "repro.obs.trajectory/v1"

#: a run record as the gates read it: step rows are summed into tok/s, so
#: each must say how long it took.
GATED_RECORD = Record({**RUN_RECORD.fields, "metrics": (ListOf(Record(
    {**STEP_ROW.fields, "wall_s": FINITE})), [])}, tag=RUN_RECORD_SCHEMA)

#: schema tag every ``compare --json`` diff document carries (the name
#: predates the merge of ``repro.obs.summarize`` into this module).
SUMMARIZE_SCHEMA = "repro.obs.summarize/v1"


@dataclass(frozen=True)
class _Rule:
    """One row of the direction/rule table (first matching row wins)."""

    prefix: str                      # metric name starts with this ...
    lower: Optional[bool]            # lower is better (None = never gated)
    tokens: Tuple[str, ...] = ("",)  # ... and the rest contains any of these
    #: ``compare`` only: the pairwise budget is the caller's threshold
    #: times this (None = printed, never gated pairwise), and whether a
    #: metric the baseline has and the candidate lacks is a regression.
    pair_scale: Optional[float] = None
    pair_missing_fails: bool = False


_METRIC_DIRECTION = (
    # A stage the candidate never ran is a hard failure, never a pass:
    # treating it as 0.0 would give it ratio 0 and let a renamed or
    # silently-dropped stage sail through the gate.
    _Rule("stage_seconds.", True, pair_scale=1.0, pair_missing_fails=True),
    _Rule("step_total_s", True),
    # counters where *any* growth is a pairwise regression (scale 0).
    # memory-bytes counters (peak/waste/capacity/mem) are lower-is-better;
    # "oom" is deliberately absent — boundary benches *want* the fused
    # configuration to OOM (``fused_ooms_at_budget == 1.0`` is the pass).
    _Rule("counters.", True, pair_scale=0.0,
          tokens=("alloc", "miss", "exposed", "skip", "launch", "bytes",
                  "reservation", "anomal", "peak", "waste", "capacity",
                  "mem")),
    # peak/capacity/waste/padding/slack bytes: growth is a regression.
    # sharing_saved_bytes is the one higher-is-better quantity (more
    # lifetime sharing is the Fig.-8 win) — track it, don't gate it.
    _Rule("memory.", None, tokens=("saved",)),
    _Rule("memory.", True),
    # the derived step-metric aggregates (mean_loss_per_token has no row:
    # loss is a correctness quantity, not a perf budget — tracked, never
    # gated)
    _Rule("metrics.tokens_per_s", False),
    _Rule("metrics.comm_exposed_s", True),
    _Rule("metrics.skipped_steps", True),
    _Rule("metrics.new_allocs", True),
    _Rule("metrics.arena_peak_bytes", True),
)


def _rule(metric: str) -> Optional[_Rule]:
    name = metric.lower()
    for rule in _METRIC_DIRECTION:
        if name.startswith(rule.prefix) and any(
                tok in name[len(rule.prefix):] for tok in rule.tokens):
            return rule
    return None


def lower_is_better(metric: str) -> Optional[bool]:
    """Whether smaller values of ``metric`` are better (None = ungated)."""
    rule = _rule(metric)
    return rule.lower if rule else None


def _ratio(value: float, reference: float, lower: bool) -> float:
    """How many times worse ``value`` is than ``reference``, with explicit
    empty-reference handling.  The one gate predicate everywhere is
    ``_ratio(...) > 1 + budget``."""
    if not lower:
        return reference / value if value > 0 else float("inf")
    if reference > 0:
        return value / reference
    return 1.0 if value <= reference else float("inf")


def _metrics_summary(record: Dict[str, object]) -> Dict[str, float]:
    """The step-metric aggregates of a parsed record."""
    metrics = record["metrics"]
    if not metrics:
        return {}
    tokens = sum(m["num_tokens"] for m in metrics)
    wall = sum(m["wall_s"] for m in metrics)
    return {
        "tokens_per_s": tokens / wall if wall > 0 else 0.0,
        "mean_loss_per_token": (sum(m["loss"] for m in metrics)
                                / max(tokens, 1)),
        "skipped_steps": sum(1 for m in metrics if not m["applied"]),
        "new_allocs": sum(m["new_allocs"] for m in metrics),
        "comm_exposed_s": sum(m["comm_exposed_s"] for m in metrics),
        "arena_peak_bytes": max(m["arena_peak_bytes"] for m in metrics),
    }


def metric_values(record: Dict[str, object]) -> Dict[str, float]:
    """Flatten one run record into ``{metric_name: value}``.

    Namespaced by section (``stage_seconds.*``, ``counters.*``,
    ``memory.*``, ``metrics.*``) plus the derived ``step_total_s`` so the
    headline number needs no client-side summing.  The record is parsed
    first (:data:`GATED_RECORD`): a schema-skewed record is refused whole,
    never half-read.
    """
    record = GATED_RECORD.parse(record)
    out = {f"stage_seconds.{k}": v
           for k, v in record.get("stage_seconds", {}).items()}
    if out:
        out["step_total_s"] = sum(out.values())
    out.update((f"counters.{k}", v) for k, v in record["counters"].items())
    # only the memory section's *_bytes quantities are metrics (peak_step
    # is an index and bitwise_peak_equal a flag)
    out.update((f"memory.{k}", v) for k, v in record["memory"].items()
               if k in MEMORY_BYTES)
    for k, v in _metrics_summary(record).items():
        out[f"metrics.{k}"] = float(v)
    return out


def _load_flat(path: str) -> Tuple[Dict[str, object], Dict[str, float]]:
    """``(record, metric_values(record))``; every error names the file."""
    record = GATED_RECORD.load(path)
    return record, metric_values(record)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One record's value of one metric, at its place in history."""

    order_key: str
    name: str
    path: str
    value: float


@dataclass(frozen=True)
class Regression:
    """One budget violation: a point worse than the best earlier point."""

    metric: str
    order_key: str
    name: str
    value: float
    best_value: float
    best_order_key: str
    ratio: float               # how much worse than the best (>1)


@dataclass
class Trajectory:
    """A directory of run records turned into per-metric history."""

    records: List[Tuple[str, str, Dict[str, object]]]  # (key, path, record)
    series: Dict[str, List[TrajectoryPoint]]
    skipped: List[Tuple[str, str]]                     # (path, reason)

    def detect_regressions(self, threshold: float = 0.05
                           ) -> List[Regression]:
        """Every point worse than the best strictly-earlier point by more
        than ``threshold`` (relative), for every gated metric."""
        found: List[Regression] = []
        for metric in sorted(self.series):
            lib = lower_is_better(metric)
            if lib is None:
                continue
            best: Optional[TrajectoryPoint] = None
            for pt in self.series[metric]:
                if best is not None:
                    ratio = _ratio(pt.value, best.value, lib)
                    if ratio > 1.0 + threshold:
                        found.append(Regression(
                            metric, pt.order_key, pt.name, pt.value,
                            best.value, best.order_key, ratio))
                better = (best is None
                          or (pt.value < best.value if lib
                              else pt.value > best.value))
                if better:
                    best = pt
        return found

    def as_dict(self, threshold: float = 0.05) -> Dict[str, object]:
        """Machine-readable trajectory report (the CI artifact)."""
        return {
            "schema": TRAJECTORY_SCHEMA,
            "threshold": threshold,
            "records": [{"order_key": k, "path": p,
                         "name": r["name"],
                         "git_sha": r["provenance"]["git_sha"]}
                        for k, p, r in self.records],
            "series": {
                m: {"lower_is_better": lower_is_better(m),
                    "points": [{"order_key": pt.order_key,
                                "name": pt.name, "value": pt.value}
                               for pt in pts]}
                for m, pts in sorted(self.series.items())},
            "regressions": [asdict(r)
                            for r in self.detect_regressions(threshold)],
            "skipped": [{"path": p, "reason": why}
                        for p, why in self.skipped],
        }

    def format_report(self, threshold: float = 0.05,
                      metrics: Sequence[str] = ()) -> str:
        """Human-readable per-metric history with regression flags."""
        lines = [f"bench trajectory: {len(self.records)} record(s), "
                 f"threshold {threshold:.0%}"]
        regressions = self.detect_regressions(threshold)
        flagged = {(r.metric, r.order_key, r.name) for r in regressions}
        for metric in sorted(self.series):
            if metrics and not any(m in metric for m in metrics):
                continue
            pts = self.series[metric]
            lib = lower_is_better(metric)
            arrow = {True: "(lower is better)",
                     False: "(higher is better)"}.get(lib, "(ungated)")
            lines.append(f"  {metric} {arrow}")
            prev: Optional[float] = None
            for pt in pts:
                delta = ""
                if prev not in (None, 0):
                    delta = f"  {pt.value / prev - 1.0:+8.1%}"
                flag = ("  REGRESSION"
                        if (metric, pt.order_key, pt.name) in flagged
                        else "")
                lines.append(f"    {pt.order_key:<26}{pt.name:<24}"
                             f"{pt.value:>14.6g}{delta}{flag}")
                prev = pt.value
        if self.skipped:
            for path, why in self.skipped:
                lines.append(f"  skipped {path}: {why}")
        if regressions:
            lines.append(f"  {len(regressions)} regression(s) past the "
                         f"{threshold:.0%} budget")
        else:
            lines.append("  no regressions")
        return "\n".join(lines)


def load_trajectory(directory: str) -> Trajectory:
    """Ingest every run record under ``directory`` (non-recursive).

    Files that are not valid run records are *skipped with a reason*,
    never fatal — a trajectory directory accumulates artifacts from many
    CI runs and one torn write must not hide the rest of history.
    Ordering is by ``record_order_key`` (provenance order key, mtime
    fallback), path-tiebroken, so ingestion is deterministic.
    """
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        raise ValueError(f"trajectory directory {directory!r} does not "
                         f"exist")
    records: List[Tuple[str, str, Dict[str, object]]] = []
    flat: Dict[str, Dict[str, float]] = {}
    skipped: List[Tuple[str, str]] = []
    for n in names:
        if not n.endswith(".json"):
            continue
        path = os.path.join(directory, n)
        try:
            rec, flat[path] = _load_flat(path)
        except (OSError, ValueError) as e:
            skipped.append((path, str(e)))
            continue
        records.append((record_order_key(rec, path), path, rec))
    records.sort(key=lambda e: (e[0], e[1]))
    series: Dict[str, List[TrajectoryPoint]] = {}
    for key, path, rec in records:
        for metric, value in flat[path].items():
            series.setdefault(metric, []).append(
                TrajectoryPoint(key, rec["name"], path, value))
    return Trajectory(records, series, skipped)


# ---------------------------------------------------------------------------
# compare: the two-record view
# ---------------------------------------------------------------------------


def _pairwise(section: str, base: Dict[str, float], cur: Dict[str, float],
              threshold: float
              ) -> Iterator[Tuple[str, float, Optional[float],
                                  Optional[float], bool]]:
    """``(key, baseline, current, ratio, regressed)`` for every baseline
    metric of one section, judged by its rule's pairwise columns
    (``current`` is None for a metric the candidate lacks)."""
    prefix = section + "."
    for metric, b in base.items():
        if not metric.startswith(prefix):
            continue
        rule, c = _rule(metric), cur.get(metric)
        ratio, bad = None, False
        if rule is not None and rule.pair_scale is not None:
            if c is None:
                bad = rule.pair_missing_fails
            else:
                ratio = _ratio(c, b, rule.lower)
                bad = ratio > 1.0 + threshold * rule.pair_scale
        yield metric[len(prefix):], b, c, ratio, bad


def diff_records(baseline: Dict[str, object], current: Dict[str, object], *,
                 threshold: float = 0.05) -> Dict[str, object]:
    """Machine-readable diff of two run records (``compare --json``).

    One structured document: per-stage rows, counter rows, the shared
    step-metric summary, both records' provenance, and the regression
    count — everything the text report prints, parseable.
    """
    if baseline.get("stage_seconds") == {}:
        raise ValueError(
            "baseline run record has an empty stage_seconds section — "
            "nothing to diff against (was it produced by an older run?)")
    baseline, current = GATED_RECORD.parse(baseline), GATED_RECORD.parse(
        current)
    base, cur = metric_values(baseline), metric_values(current)
    b_sum, c_sum = _metrics_summary(baseline), _metrics_summary(current)
    stages = [
        # None (not NaN/inf) for missing stages keeps the --json document
        # strict-JSON parseable
        {"stage": k, "baseline_s": b, "current_s": c, "ratio": ratio,
         "missing": c is None, "regression": bad}
        for k, b, c, ratio, bad in _pairwise("stage_seconds", base, cur,
                                             threshold)]
    counters = sorted(
        ({"counter": k, "baseline": b, "current": c, "regression": bad}
         for k, b, c, _, bad in _pairwise("counters", base, cur, threshold)
         if c is not None), key=lambda row: row["counter"])
    return {
        "schema": SUMMARIZE_SCHEMA,
        "baseline": {"name": baseline["name"],
                     "provenance": baseline["provenance"]},
        "current": {"name": current["name"],
                    "provenance": current["provenance"]},
        "threshold": threshold,
        "stages": stages,
        "counters": counters,
        # printed, never gated pairwise (no pair_scale on the metrics rows)
        "metrics": {k: {"baseline": b_sum[k], "current": c_sum[k]}
                    for k in b_sum if k in c_sum},
        "regressions": sum(row["regression"]
                           for row in stages + counters),
    }


def summarize_run_records(baseline: Dict[str, object],
                          current: Dict[str, object], *,
                          threshold: float = 0.05
                          ) -> Tuple[str, int]:
    """Human-readable diff of two run records.

    Returns ``(report_text, regression_count)``.
    """
    return _format_diff(diff_records(baseline, current, threshold=threshold))


def _format_diff(diff: Dict[str, object]) -> Tuple[str, int]:
    threshold = diff["threshold"]
    lines = [f"run-record diff: {diff['baseline']['name']} (baseline) vs "
             f"{diff['current']['name']} (current), "
             f"threshold {threshold:.0%}"]

    if diff["stages"]:
        lines.append(f"  {'stage':<12}{'baseline ms':>14}{'current ms':>14}"
                     f"{'ratio':>8}")
        for row in diff["stages"]:
            flag = "  REGRESSION" if row["regression"] else ""
            cur, ratio = (("(missing)", "--") if row["missing"] else
                          (f"{row['current_s'] * 1e3:.3f}",
                           f"{row['ratio']:.3f}"))
            lines.append(f"  {row['stage']:<12}"
                         f"{row['baseline_s'] * 1e3:>14.3f}"
                         f"{cur:>14}{ratio:>8}{flag}")

    if diff["counters"]:
        lines.append("  counters:")
        for row in diff["counters"]:
            flag = "  REGRESSION" if row["regression"] else ""
            lines.append(f"    {row['counter']:<32}{row['baseline']:>14g} "
                         f"-> {row['current']:<14g}{flag}")

    if diff["metrics"]:
        lines.append("  step metrics:")
        for key, pair in diff["metrics"].items():
            lines.append(f"    {key:<32}{pair['baseline']:>14g} -> "
                         f"{pair['current']:<14g}")

    regressions = diff["regressions"]
    if regressions:
        lines.append(f"  {regressions} regression(s) past the "
                     f"{threshold:.0%} threshold")
    else:
        lines.append("  no regressions")
    return "\n".join(lines), regressions


# ---------------------------------------------------------------------------
# CLIs (dispatched by ``python -m repro.obs``)
# ---------------------------------------------------------------------------


def compare_main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs compare",
        description="Diff two run records and flag per-stage regressions.")
    p.add_argument("baseline", help="baseline run-record JSON")
    p.add_argument("current", help="current run-record JSON")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative slowdown tolerated per stage "
                        "(default 0.05)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diff document on stdout")
    p.add_argument("--out", help="also write the JSON document here "
                                 "(the CI artifact)")
    args = p.parse_args(argv)
    try:
        (baseline, _), (current, _) = (_load_flat(args.baseline),
                                       _load_flat(args.current))
        diff = diff_records(baseline, current, threshold=args.threshold)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    emit_document(diff, _format_diff(diff)[0], args)
    return 1 if diff["regressions"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs trajectory",
        description="Order a directory of run records by history and "
                    "flag budget regressions across the whole series.")
    p.add_argument("directory", help="directory of run-record JSON files")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative budget per metric (default 0.05)")
    p.add_argument("--metric", action="append", default=[],
                   help="only report metrics containing this substring "
                        "(repeatable; gating still covers everything)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable trajectory document on stdout")
    p.add_argument("--out", help="also write the JSON document here "
                                 "(the CI artifact)")
    args = p.parse_args(argv)
    try:
        traj = load_trajectory(args.directory)
        if not traj.records:
            raise ValueError(f"no run records under {args.directory!r}")
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    doc = traj.as_dict(args.threshold)
    emit_document(doc, traj.format_report(args.threshold, args.metric), args)
    if doc["regressions"]:
        return 1
    return 4 if traj.skipped else 0      # 4: partial input, the rest clean


if __name__ == "__main__":
    raise SystemExit("moved: python -m repro.obs trajectory")
