"""Deterministic fault injection: seeded, plan-driven, reproducible.

At multi-node scale failures are the common case, not the exception — a
collective times out, a replica dies, a checkpoint write is torn by a
crash.  Testing recovery paths against *real* nondeterministic failures
is hopeless; this module instead arms **named fault sites** threaded
through the stack with a :class:`FaultPlan` — a JSON-loadable list of
:class:`FaultSpec` entries plus a seed — so every injected failure is
exactly reproducible from ``(seed, plan)`` and stamped into run-record
provenance via :meth:`FaultPlan.digest`.

Fault sites and their kinds:

====================== ===================== ==============================
site                   kinds                 armed in
====================== ===================== ==============================
``comm.allreduce``     ``drop``, ``bitflip`` :func:`repro.sim.comm.ring_allreduce`
``comm.reduce_scatter````drop``, ``bitflip`` :func:`repro.sim.comm.ring_reduce_scatter`
``comm.allgather``     ``drop``, ``bitflip`` :func:`repro.sim.comm.ring_allgather`
``replica.crash``      ``crash``             :class:`repro.training.data_parallel.DataParallel`
``comm.straggler``     ``delay``             priced onto the overlap schedule
``checkpoint.write``   ``torn``              :func:`repro.resilience.checkpoint.atomic_write_bytes`
====================== ===================== ==============================

Semantics chosen to mirror real transports: a ``drop`` raises *before*
the collective mutates any buffer (the message never arrived); a
``bitflip`` corrupts one deterministic bit of one replica's payload and
*then* raises (the link-level CRC detected the corruption after the
damage) — so a retry wrapper must snapshot/restore inputs, which
:func:`repro.resilience.recovery.retry_collective` does.  A ``torn``
write truncates the temp file mid-write and raises, leaving previously
committed checkpoints untouched.

Installation is ambient and scoped::

    plan = FaultPlan([FaultSpec("comm.allreduce", "drop", step=3)], seed=7)
    with use_faults(FaultInjector(plan)):
        ...  # fault sites consult current_injector()

With no injector installed every site is a single ``None`` check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..backend.ambient import Slot

#: legal fault kinds per site (validation happens at plan build time, so a
#: typo'd plan fails loudly instead of silently never firing).
KINDS_BY_SITE: Dict[str, frozenset] = {
    "comm.allreduce": frozenset({"drop", "bitflip"}),
    "comm.reduce_scatter": frozenset({"drop", "bitflip"}),
    "comm.allgather": frozenset({"drop", "bitflip"}),
    "replica.crash": frozenset({"crash"}),
    "comm.straggler": frozenset({"delay"}),
    "checkpoint.write": frozenset({"torn"}),
}


class FaultError(RuntimeError):
    """Base class for every injected failure."""


class CollectiveFault(FaultError):
    """A transient communication failure (dropped or corrupted payload).

    Raised by the ring collectives when an armed ``drop``/``bitflip``
    fault fires.  Retryable: the transport detected the fault (as a real
    NCCL timeout or link CRC would), so the caller may restore pristine
    inputs and re-issue the collective.
    """

    def __init__(self, site: str, kind: str, step: int = 0):
        super().__init__(f"injected {kind} fault at {site} (step {step})")
        self.site = site
        self.kind = kind
        self.step = step


class ReplicaCrash(FaultError):
    """A replica died permanently (host OOM, hardware loss, preemption).

    Not retryable at the collective level — recovery is either elastic
    degradation (:meth:`DataParallel.drop_rank`) or restart-from-
    checkpoint (``--resume``).
    """

    def __init__(self, rank: int, step: int = 0, stage: Optional[str] = None):
        at = f" in {stage}" if stage else ""
        super().__init__(f"injected crash of rank {rank} at step {step}{at}")
        self.rank = rank
        self.step = step
        self.stage = stage


class TornWrite(FaultError):
    """A checkpoint write was cut short mid-stream (simulated crash)."""

    def __init__(self, path: str, written: int, total: int):
        super().__init__(
            f"injected torn write: {path} cut at byte {written}/{total}")
        self.path = path
        self.written = written
        self.total = total


#: stages of a data-parallel step at which a crash can be armed, in order.
CRASH_STAGES = ("forward", "backward", "sync", "update")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, what, and when it fires.

    ``step`` restricts firing to one ambient step number (``None`` = any
    step); ``rank`` restricts to one rank where the site is per-rank
    (``replica.crash``); ``after`` restricts to the N-th *opportunity* at
    the site (0-based, counted across the whole run) — the knob the
    torn-write property test uses to target a specific file of a
    checkpoint.  ``count`` bounds the total number of firings.
    ``stage`` (crash only) selects the point inside a data-parallel step;
    ``delay_s`` is the straggler delay; ``fraction`` is where a torn
    write cuts the byte stream.
    """

    site: str
    kind: str
    step: Optional[int] = None
    rank: Optional[int] = None
    after: Optional[int] = None
    count: int = 1
    stage: Optional[str] = None
    delay_s: float = 0.0
    fraction: float = 0.5

    def __post_init__(self):
        if self.site not in KINDS_BY_SITE:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(know {sorted(KINDS_BY_SITE)})")
        if self.kind not in KINDS_BY_SITE[self.site]:
            raise ValueError(
                f"kind {self.kind!r} invalid for site {self.site!r} "
                f"(allowed: {sorted(KINDS_BY_SITE[self.site])})")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.stage is not None and self.stage not in CRASH_STAGES:
            raise ValueError(f"stage {self.stage!r} not in {CRASH_STAGES}")
        if self.kind == "delay" and self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], "
                             f"got {self.fraction}")

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"site": self.site, "kind": self.kind}
        for key in ("step", "rank", "after", "stage"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        if self.count != 1:
            d["count"] = self.count
        if self.kind == "delay":
            d["delay_s"] = self.delay_s
        if self.kind == "torn":
            d["fraction"] = self.fraction
        return d


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable list of armed faults.

    The JSON form is ``{"seed": int, "faults": [ {...spec...}, ... ]}``;
    :meth:`digest` is a short stable hash of the canonical form — stamped
    into provenance so records from faulted runs are visibly marked.
    """

    specs: tuple = ()
    seed: int = 0
    name: str = ""

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0,
                 name: str = ""):
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "name", str(name))

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FaultPlan":
        specs = [FaultSpec(**{str(k): v for k, v in s.items()})
                 for s in d.get("faults", [])]
        return cls(specs, seed=int(d.get("seed", 0)),
                   name=str(d.get("name", "")))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"fault plan is not valid JSON: {e}") from e
        if not isinstance(d, dict):
            raise ValueError("fault plan must be a JSON object with "
                             "'seed' and 'faults' keys")
        return cls.from_dict(d)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"seed": self.seed,
                                "faults": [s.as_dict() for s in self.specs]}
        if self.name:
            d["name"] = self.name
        return d

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(self.specs, seed=seed, name=self.name)

    def digest(self) -> str:
        """Short stable hash of (seed, specs) for provenance stamps."""
        blob = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class Injection:
    """Provenance record of one fired fault."""

    site: str
    kind: str
    step: int
    seq: int                       # opportunity index at the site
    rank: Optional[int] = None
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"site": self.site, "kind": self.kind, "step": self.step,
                "seq": self.seq, "rank": self.rank, "detail": self.detail}


class FaultInjector:
    """Executes a :class:`FaultPlan`: matches sites to armed specs.

    Deterministic by construction: the only randomness is the plan-seeded
    generator used to pick bit-flip positions, and firing decisions depend
    only on stable opportunity counters and the ambient step number set by
    :meth:`begin_step`.  Two injectors built from the same plan replay the
    identical fault sequence against the identical workload.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self._remaining = [s.count for s in plan.specs]
        self._opportunities: Dict[str, int] = {}
        self.injections: List[Injection] = []
        self.step = 0

    def begin_step(self, step: int) -> None:
        """Set the ambient step number that step-scoped specs match."""
        self.step = int(step)

    def fire(self, site: str, *, rank: Optional[int] = None,
             stage: Optional[str] = None) -> Optional[FaultSpec]:
        """Consult the plan at a fault site; return the firing spec or None.

        Every call consumes one *opportunity* at the site (the counter
        ``after`` specs match against), whether or not anything fires.
        """
        seq = self._opportunities.get(site, 0)
        self._opportunities[site] = seq + 1
        for i, spec in enumerate(self.plan.specs):
            if spec.site != site or self._remaining[i] <= 0:
                continue
            if spec.step is not None and spec.step != self.step:
                continue
            if spec.rank is not None and rank is not None \
                    and spec.rank != rank:
                continue
            if spec.stage is not None and spec.stage != (stage or "forward"):
                continue
            if spec.after is not None and spec.after != seq:
                continue
            self._remaining[i] -= 1
            self.injections.append(Injection(
                site=site, kind=spec.kind, step=self.step, seq=seq,
                rank=rank if rank is not None else spec.rank))
            return spec
        return None

    def corrupt_one_bit(self, buffers: Sequence[np.ndarray]) -> str:
        """Flip one plan-seeded bit in one buffer (in place); describe it."""
        d = int(self.rng.integers(len(buffers)))
        view = buffers[d].view(np.uint8).reshape(-1)
        byte = int(self.rng.integers(view.size))
        bit = int(self.rng.integers(8))
        view[byte] ^= np.uint8(1 << bit)
        detail = f"buffer {d} byte {byte} bit {bit}"
        if self.injections:
            self.injections[-1].detail = detail
        return detail


# ---------------------------------------------------------------------------
# ambient installation
# ---------------------------------------------------------------------------

#: the installed fault injector, process-wide; None (no faults) is the
#: common fast path.
INJECTORS = Slot("fault injector")
use_faults = INJECTORS.use
current_injector = INJECTORS.current
