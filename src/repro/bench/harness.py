"""Experiment harness: result tables and paper-shape claim checking.

Every figure/table reproduction in :mod:`repro.bench.figures` returns an
:class:`ExperimentResult` — named rows plus a list of :class:`ShapeClaim`
outcomes, each corresponding to a qualitative statement the paper makes
about that figure ("speedup decreases with batch size", "A100 > V100", …).
Benchmarks assert the claims; EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ShapeClaim:
    """One qualitative claim from the paper, checked against our numbers."""

    description: str
    holds: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        s = f"[{mark}] {self.description}"
        if self.detail:
            s += f"  ({self.detail})"
        return s


@dataclass
class ExperimentResult:
    """A reproduced table/figure: rows + checked claims."""

    name: str
    headers: List[str]
    rows: List[Sequence[Any]]
    claims: List[ShapeClaim] = field(default_factory=list)
    notes: str = ""
    #: optional per-stage simulated seconds — lands in the run record's
    #: ``stage_seconds`` section, the part ``python -m repro.obs compare`` gates.
    stage_seconds: Optional[Dict[str, float]] = None
    #: optional per-step metrics rows for the run record.
    metrics: Optional[List[Dict[str, Any]]] = None
    #: optional counters measured by the experiment itself.
    counters: Optional[Dict[str, float]] = None

    def claim(self, description: str, holds: bool, detail: str = "") -> None:
        self.claims.append(ShapeClaim(description, bool(holds), detail))

    def failed_claims(self) -> List[ShapeClaim]:
        return [c for c in self.claims if not c.holds]

    def format(self, float_fmt: str = "{:.3f}") -> str:
        """Monospace table + claim list."""
        def cell(v: Any) -> str:
            if isinstance(v, float):
                return float_fmt.format(v)
            return str(v)

        table = [[str(h) for h in self.headers]] + \
                [[cell(v) for v in row] for row in self.rows]
        widths = [max(len(r[c]) for r in table)
                  for c in range(len(self.headers))]
        lines = [f"== {self.name} =="]
        for i, r in enumerate(table):
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(f"note: {self.notes}")
        for c in self.claims:
            lines.append(str(c))
        return "\n".join(lines)

    def to_run_record(self, slug: str, *, scale: Optional[str] = None,
                      elapsed_s: Optional[float] = None) -> Dict[str, Any]:
        """This experiment as a structured ``BENCH_*.json`` run record.

        The record carries the full result table, every claim outcome and
        the experiment's counters — the machine-readable twin of
        :meth:`format` that ``python -m repro.obs compare`` can diff across
        runs.
        """
        from ..obs.runrecord import make_run_record
        cfg: Dict[str, Any] = {}
        if scale is not None:
            cfg["scale"] = scale
        ctr = dict(self.counters or {})
        if elapsed_s is not None:
            ctr["elapsed_s"] = float(elapsed_s)
        ctr["claims_checked"] = len(self.claims)
        ctr["claims_failed"] = len(self.failed_claims())
        return make_run_record(
            slug,
            headers=self.headers,
            rows=self.rows,
            claims=[{"description": c.description, "holds": c.holds,
                     "detail": c.detail} for c in self.claims],
            counters=ctr,
            stage_seconds=self.stage_seconds,
            metrics=self.metrics,
            config=cfg or None,
            notes=self.notes or self.name,
        )


def bench_scale(default: str = "quick") -> str:
    """Experiment scale from the environment: "quick" (CI-sized models,
    seconds) or "paper" (the paper's model sizes, minutes).

    Set ``REPRO_BENCH_SCALE=paper`` to regenerate EXPERIMENTS.md numbers.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", default)
    if scale not in ("quick", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be quick|paper, got {scale}")
    return scale


# -- generic trend predicates -------------------------------------------------


def monotone_decreasing(xs: Sequence[float], tol: float = 0.0) -> bool:
    """True if xs never increases by more than ``tol`` (relative)."""
    return all(b <= a * (1 + tol) for a, b in zip(xs, xs[1:]))


def monotone_increasing(xs: Sequence[float], tol: float = 0.0) -> bool:
    return all(b >= a * (1 - tol) for a, b in zip(xs, xs[1:]))


def within(x: float, lo: float, hi: float) -> bool:
    return lo <= x <= hi


def relative_spread(xs: Sequence[float]) -> float:
    """(max-min)/mean — "stays flat" claims check this is small."""
    if not xs:
        return float("nan")
    m = sum(xs) / len(xs)
    return (max(xs) - min(xs)) / m if m else float("inf")
