"""Numerics observatory: per-layer tensor-health telemetry.

The PR-3 flight recorder observes *time and allocations*; this module
observes *values* — the silent-failure surface of the §3.2 trainer, which
keeps every parameter and gradient permanently in FP16 with no FP32
master copy.  A :class:`NumericsCollector` samples, on a configurable
step cadence:

* **per-layer gradient health** — L2 norm (raw and unscaled), abs-max,
  NaN/Inf counts, zero fraction — by walking the trainer's contiguous
  FP16 workspace per parameter group (one slab scan, the §3.2 layout
  making this cheap);
* **FP16 saturation histograms** — the fraction of values pinned at
  ±65504 and the fraction below the subnormal threshold (~6.1e-5), the
  direct observables for overflow and underflow risk with no master
  copy to absorb rounding;
* **update/param ratios** — ``||Δp|| / ||p||`` per layer across the
  optimizer step, the classic "is the LR sane" signal;
* **activation taps** — layers call :meth:`repro.layers.base.Layer.tap`
  at their sublayer boundaries; with no collector installed the tap is
  a truthiness test on the collector slot's list (``COLLECTORS.stack``),
  the same ≈no-overhead contract the span API keeps.

Each sampled step becomes a :class:`StepNumerics` record, is run through
the :class:`repro.obs.health.AnomalyEngine`, and is emitted as an
``event: "numerics"`` line (anomalies as ``event: "anomaly"`` lines)
into the :class:`~repro.obs.metrics.MetricsRecorder` JSONL, where
``python -m repro.obs health`` can triage it offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..backend.ambient import Slot
from ..precision.half import FP16_MAX, FP16_TINY
from .schema import ABSENT, FLOAT, ObjectOf, Record, declare

#: JSONL schema tag for numerics event lines.
NUMERICS_SCHEMA = "repro.obs.numerics/v1"


# ---------------------------------------------------------------------------
# tensor statistics
# ---------------------------------------------------------------------------


@dataclass
class TensorStats:
    """One tensor's health summary (optionally over a strided sample).

    ``sat_frac`` is the fraction of *finite* sampled values with
    ``|x| >= 65504`` (pinned at the FP16 ceiling); ``sub_frac`` is the
    fraction of finite *nonzero* values with ``|x| < 2^-14`` (below the
    FP16 normal range — the underflow band loss scaling exists for).
    Both are meaningful for FP32 tensors too: they measure what a store
    to FP16 storage *would* do.
    """

    n: int = 0                  # sampled element count
    total_n: int = 0            # full element count (== n unless strided)
    nan: int = 0
    inf: int = 0
    l2: float = 0.0             # over finite values only
    absmax: float = 0.0
    absmean: float = 0.0
    zero_frac: float = 0.0
    sat_frac: float = 0.0
    sub_frac: float = 0.0

    @property
    def nonfinite(self) -> int:
        return self.nan + self.inf

    def merge(self, other: "TensorStats") -> "TensorStats":
        """Combine two summaries (fractions weighted by sample count)."""
        n = self.n + other.n
        if n == 0:
            return TensorStats()

        def wavg(a: float, b: float) -> float:
            return (a * self.n + b * other.n) / n

        return TensorStats(
            n=n, total_n=self.total_n + other.total_n,
            nan=self.nan + other.nan, inf=self.inf + other.inf,
            l2=math.hypot(self.l2, other.l2),
            absmax=max(self.absmax, other.absmax),
            absmean=wavg(self.absmean, other.absmean),
            zero_frac=wavg(self.zero_frac, other.zero_frac),
            sat_frac=wavg(self.sat_frac, other.sat_frac),
            sub_frac=wavg(self.sub_frac, other.sub_frac),
        )

    def as_dict(self, prefix: str = "") -> Dict[str, float]:
        d = {"n": self.n, "total_n": self.total_n, "nan": self.nan,
             "inf": self.inf, "l2": self.l2, "absmax": self.absmax,
             "absmean": self.absmean, "zero_frac": self.zero_frac,
             "sat_frac": self.sat_frac, "sub_frac": self.sub_frac}
        if prefix:
            d = {prefix + k: v for k, v in d.items()}
        return d


def tensor_stats(x: np.ndarray, max_elems: Optional[int] = None
                 ) -> TensorStats:
    """Health summary of ``x``; strided down to ``max_elems`` samples.

    One vectorised pass, FP32 accumulation (an FP16 slab's own sum of
    squares would overflow long before its values do).
    """
    x = np.asarray(x).ravel()
    total = int(x.size)
    if total == 0:
        return TensorStats()
    if max_elems is not None and total > max_elems:
        x = x[::-(-total // max_elems)]
    xf = x.astype(np.float32, copy=False)
    finite = np.isfinite(xf)
    n_finite = int(finite.sum())
    nan = int(np.isnan(xf).sum())
    inf = int(x.size) - n_finite - nan
    if n_finite:
        ax = np.abs(xf[finite]) if n_finite != x.size else np.abs(xf)
        nonzero = int(np.count_nonzero(ax))
        sub = int(np.count_nonzero(ax < FP16_TINY)) - (n_finite - nonzero)
        stats = TensorStats(
            n=int(x.size), total_n=total, nan=nan, inf=inf,
            l2=float(np.sqrt(np.sum(np.square(ax, dtype=np.float64)))),
            absmax=float(ax.max()),
            absmean=float(ax.mean()),
            zero_frac=(n_finite - nonzero) / n_finite,
            sat_frac=float(np.count_nonzero(ax >= FP16_MAX)) / n_finite,
            sub_frac=(sub / nonzero) if nonzero else 0.0,
        )
    else:
        stats = TensorStats(n=int(x.size), total_n=total, nan=nan, inf=inf)
    return stats


def saturation_histogram(x: np.ndarray, max_elems: Optional[int] = None
                         ) -> Dict[str, float]:
    """Five-bin FP16 range histogram (fractions summing to 1).

    ``nonfinite`` / ``saturated`` (|x| ≥ 65504) / ``normal`` /
    ``subnormal`` (0 < |x| < 2^-14) / ``zero`` — the §3.2 no-master-copy
    risk surface in one line.
    """
    s = tensor_stats(x, max_elems)
    if s.n == 0:
        return {"nonfinite": 0.0, "saturated": 0.0, "normal": 0.0,
                "subnormal": 0.0, "zero": 0.0}
    finite_frac = 1.0 - s.nonfinite / s.n
    zero = s.zero_frac * finite_frac
    sat = s.sat_frac * finite_frac
    subn = s.sub_frac * (1.0 - s.zero_frac) * finite_frac
    return {
        "nonfinite": s.nonfinite / s.n,
        "saturated": sat,
        "subnormal": subn,
        "zero": zero,
        "normal": max(0.0, 1.0 - s.nonfinite / s.n - sat - subn - zero),
    }


# ---------------------------------------------------------------------------
# per-step record
# ---------------------------------------------------------------------------


@dataclass
class StepNumerics:
    """One sampled step's value-health record (JSONL-ready dicts inside)."""

    step: int
    loss: float = 0.0
    num_tokens: int = 0
    applied: bool = True
    loss_scale: Optional[float] = None
    grad_scale: float = 1.0
    global_grad_norm: float = 0.0       # unscaled: raw L2 * grad_scale
    skip_streak: int = 0
    comm_retries: int = 0               # recovered collective faults
    groups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    activations: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def loss_per_token(self) -> float:
        return self.loss / max(self.num_tokens, 1)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": NUMERICS_SCHEMA, "step": self.step, "loss": self.loss,
            "num_tokens": self.num_tokens, "applied": self.applied,
            "loss_scale": self.loss_scale, "grad_scale": self.grad_scale,
            "global_grad_norm": self.global_grad_norm,
            "skip_streak": self.skip_streak,
            "comm_retries": self.comm_retries,
            "groups": {k: dict(v) for k, v in self.groups.items()},
            "activations": {k: dict(v)
                            for k, v in self.activations.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object], path: str = ""
                  ) -> "StepNumerics":
        """Parse a recorded ``numerics`` row (:data:`NUMERICS_ROW`)."""
        return NUMERICS_ROW.make(NUMERICS_ROW.parse(d, path))


#: a ``numerics`` event row as :meth:`StepNumerics.as_dict` writes it: a
#: group holds its gradient's :class:`TensorStats` (``grad_``-prefixed),
#: the unscaled norm, the parameter norm and the update ratio (absent in
#: rows written without them); an activation tap holds its own stats.
_STATS = declare(TensorStats)
NUMERICS_ROW = declare(StepNumerics, groups=(ObjectOf(Record({
    **{f"grad_{k}": spec for k, spec in _STATS.fields.items()},
    **{k: (FLOAT, ABSENT) for k in ("grad_l2_unscaled", "param_l2",
                                     "update_ratio")}})), {}),
    activations=(ObjectOf(_STATS), {}))


def group_of(param_name: str) -> str:
    """Default grouping: the owning layer (drop the parameter leaf)."""
    return param_name.rsplit(".", 1)[0] if "." in param_name else param_name


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------


class NumericsCollector:
    """Sampling tensor-health collector with anomaly detection.

    ``every`` is the step cadence (1 = every step); a step not on the
    cadence costs one modulo.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRecorder`) receives ``numerics``
    and ``anomaly`` event lines; ``engine`` defaults to
    :func:`repro.obs.health.AnomalyEngine` with the stock detector
    catalog.  With ``halt_on_anomaly`` set, the first error-severity
    anomaly dumps a diagnostic snapshot to ``dump_path`` (if given) and
    raises :class:`repro.obs.health.AnomalyHalted`.
    """

    def __init__(self, every: int = 1, *, metrics: Optional[object] = None,
                 engine: Optional[object] = None,
                 halt_on_anomaly: bool = False,
                 dump_path: Optional[str] = None,
                 max_elems: Optional[int] = 1 << 20,
                 history: int = 256):
        if every < 1:
            raise ValueError(f"numerics cadence must be >= 1, got {every}")
        if engine is None:
            from .health import AnomalyEngine
            engine = AnomalyEngine()
        self.every = every
        self.metrics = metrics
        self.engine = engine
        self.halt_on_anomaly = halt_on_anomaly
        self.dump_path = dump_path
        self.max_elems = max_elems
        self.records: List[StepNumerics] = []
        self._history = history
        self.active = False
        self._step = 0
        self._acts: Dict[str, TensorStats] = {}
        self._groups: Dict[str, TensorStats] = {}
        self._param_norms: Dict[str, float] = {}
        self._snapshots: Dict[str, np.ndarray] = {}
        self._grad_scale = 1.0
        self._update_ratios: Dict[str, float] = {}

    # -- step lifecycle (called from the training loop) -----------------------

    def begin_step(self, step: int) -> bool:
        """Arm (or disarm) the collector for ``step``; returns armed.

        State is cleared either way: an off-cadence step still gets a
        (cheap) record for the loss-scale dynamics track, and must not
        inherit the previous sampled step's tensor stats.

        Step numbers are forced strictly monotonic: callers typically
        pass ``trainer.step_count + 1``, which stalls while the loss
        scaler skips updates — precisely when triage needs each attempt
        distinguishable.
        """
        self._step = step = max(step, self._step + 1)
        self.active = step % self.every == 0
        self._acts = {}
        self._groups = {}
        self._param_norms = {}
        self._snapshots = {}
        self._update_ratios = {}
        self._grad_scale = 1.0
        return self.active

    def observe_activation(self, name: str, x: np.ndarray) -> None:
        """Record one activation tap (last write per name per step wins)."""
        self._acts[name] = tensor_stats(x, self.max_elems)

    def collect_pre_update(self, trainer: object, *,
                           grad_scale: float = 1.0) -> None:
        """Walk the gradient slab per group; snapshot params for Δp.

        Called after backward, before the optimizer step, so gradients
        are complete and parameters still hold their pre-update values.
        """
        self._grad_scale = float(grad_scale)
        for name, g in iter_named_grads(trainer):
            key = group_of(name)
            s = tensor_stats(g, self.max_elems)
            self._groups[key] = (self._groups[key].merge(s)
                                 if key in self._groups else s)
        snaps: Dict[str, List[np.ndarray]] = {}
        for name, p in iter_named_params(trainer):
            key = group_of(name)
            snaps.setdefault(key, []).append(
                np.asarray(p, dtype=np.float32).ravel().copy())
        for key, parts in snaps.items():
            flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self._snapshots[key] = flat
            self._param_norms[key] = float(np.linalg.norm(flat))

    def collect_post_update(self, trainer: object) -> None:
        """Measure ``||Δp|| / ||p||`` per group against the snapshot."""
        after: Dict[str, List[np.ndarray]] = {}
        for name, p in iter_named_params(trainer):
            after.setdefault(group_of(name), []).append(
                np.asarray(p, dtype=np.float32).ravel())
        for key, snap in self._snapshots.items():
            parts = after.get(key)
            if parts is None:
                continue
            flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
            delta = float(np.linalg.norm(flat - snap))
            self._update_ratios[key] = delta / (self._param_norms[key]
                                                or 1.0)
        self._snapshots = {}

    def finish_step(self, *, loss: float, num_tokens: int,
                    applied: bool = True, scaler: Optional[object] = None
                    ) -> StepNumerics:
        """Assemble the record, run detectors, emit events; may halt."""
        groups: Dict[str, Dict[str, float]] = {}
        sq = 0.0
        for key, s in self._groups.items():
            d = s.as_dict("grad_")
            d["grad_l2_unscaled"] = s.l2 * self._grad_scale
            d["param_l2"] = self._param_norms.get(key, 0.0)
            d["update_ratio"] = self._update_ratios.get(key, 0.0)
            groups[key] = d
            sq += s.l2 * s.l2
        rec = StepNumerics(
            step=self._step, loss=float(loss), num_tokens=int(num_tokens),
            applied=bool(applied),
            loss_scale=(float(scaler.scale) if scaler is not None else None),
            grad_scale=self._grad_scale,
            global_grad_norm=math.sqrt(sq) * self._grad_scale,
            skip_streak=int(getattr(scaler, "skip_streak", 0)),
            groups=groups,
            activations={k: v.as_dict() for k, v in self._acts.items()},
        )
        self.records.append(rec)
        del self.records[:-self._history]
        anomalies = self.engine.observe(rec)
        if self.metrics is not None:
            self.metrics.observe_event("numerics", **rec.as_dict())
            for a in anomalies:
                self.metrics.observe_event("anomaly", **a.as_dict())
        self.active = False
        if self.halt_on_anomaly:
            errors = [a for a in anomalies if a.severity == "error"]
            if errors:
                from .health import AnomalyHalted
                if self.dump_path:
                    self.dump_snapshot(self.dump_path)
                raise AnomalyHalted(errors[0])
        return rec

    # -- diagnostics -----------------------------------------------------------

    def dump_snapshot(self, path: str) -> None:
        """Write a diagnostic snapshot: recent records + every anomaly."""
        import json

        from .provenance import provenance
        snap = {
            "schema": "repro.obs.numerics_dump/v1",
            "provenance": provenance(),
            "records": [r.as_dict() for r in self.records[-16:]],
            "anomalies": [a.as_dict()
                          for a in getattr(self.engine, "anomalies", [])],
        }
        with open(path, "w") as f:
            json.dump(snap, f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# trainer walking: prefer the contiguous workspace, fall back to params
# ---------------------------------------------------------------------------


def iter_named_grads(trainer: object
                     ) -> Iterator[Tuple[str, np.ndarray]]:
    """(name, grad view) pairs — the §3.2 slab walk when available."""
    ws = getattr(trainer, "workspace", None)
    if ws is not None:
        yield from ws.named_grad_views()
        return
    for p in getattr(trainer, "params", []):
        yield p.name, p.grad


def iter_named_params(trainer: object
                      ) -> Iterator[Tuple[str, np.ndarray]]:
    """(name, param view) pairs, mirroring :func:`iter_named_grads`."""
    ws = getattr(trainer, "workspace", None)
    if ws is not None:
        yield from ws.named_param_views()
        return
    for p in getattr(trainer, "params", []):
        yield p.name, p.data


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

#: installed numerics collectors, process-wide; the innermost receives the
#: taps, and with none installed taps are no-ops.
COLLECTORS = Slot("numerics collector")
use_collector = COLLECTORS.use
current_collector = COLLECTORS.current


def tap_activation(name: str, x: np.ndarray) -> None:
    """Layer-side activation tap; near-free with no collector installed."""
    if not COLLECTORS.stack:
        return
    col = COLLECTORS.stack[-1]
    if col.active:
        col.observe_activation(name, x)
