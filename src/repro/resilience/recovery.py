"""Recovery policies: bounded retry for transient faults, elastic
degradation for permanent replica loss.

Two failure classes, two answers (mirroring what production collective
stacks do):

* **Transient comm faults** (dropped or corrupted payloads, detected by
  the transport) — :func:`retry_collective` snapshots the collective's
  input buffers, re-issues the operation up to
  :attr:`RetryPolicy.max_retries` times with a *deterministic* backoff
  schedule, and restores the pristine inputs before each attempt (a
  bit-flipped payload must not leak into the retry).  Because the retried
  collective runs on identical inputs, a recovered step is bit-identical
  to an unfaulted one.  Retry time is accounted by
  :class:`CommRetryStats` and priced onto the overlap schedule as
  exposed communication time.

* **Permanent replica loss** — :func:`run_elastic_step` catches
  :class:`~repro.resilience.faults.ReplicaCrash`, shrinks the
  :class:`~repro.training.data_parallel.DataParallel` world by the dead
  rank (``drop_rank``), re-shards the batch, and re-runs the step on the
  survivors.  Parameters only mutate in the update phase, so a step
  aborted at any earlier stage re-runs cleanly from ``zero_grad``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .faults import CollectiveFault, ReplicaCrash


class CommRetryError(RuntimeError):
    """A collective kept failing past the retry budget."""

    def __init__(self, site: str, attempts: int, last: CollectiveFault):
        super().__init__(
            f"{site}: collective failed {attempts} time(s), retry budget "
            f"exhausted (last: {last})")
        self.site = site
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    The backoff schedule is a pure function of the attempt index —
    ``backoff_base_s * backoff_factor ** attempt`` — never of wall clock
    or randomness, so a faulted-then-recovered run is reproducible and
    its retry time is exactly priceable on the simulated timeline.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5e-3
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based)."""
        return self.backoff_base_s * self.backoff_factor ** attempt

    def schedule(self) -> List[float]:
        return [self.backoff_s(a) for a in range(self.max_retries)]


@dataclass
class CommRetryStats:
    """Retry accounting: cumulative and per-step (for span attrs/metrics).

    ``backoff_s`` is the deterministic *modeled* wait, not measured wall
    clock — it feeds the timeline's exposed-time pricing.
    """

    retries: int = 0
    backoff_s: float = 0.0
    exhausted: int = 0
    step_retries: int = 0
    step_backoff_s: float = 0.0
    by_site: dict = field(default_factory=dict)

    def begin_step(self) -> None:
        self.step_retries = 0
        self.step_backoff_s = 0.0

    def note_retry(self, site: str, backoff_s: float) -> None:
        self.retries += 1
        self.backoff_s += backoff_s
        self.step_retries += 1
        self.step_backoff_s += backoff_s
        self.by_site[site] = self.by_site.get(site, 0) + 1


def retry_collective(op: Callable[[], None],
                     buffers: Sequence[np.ndarray], *,
                     policy: RetryPolicy,
                     stats: Optional[CommRetryStats] = None,
                     site: str = "comm") -> int:
    """Run an in-place collective with snapshot/restore retry.

    ``op`` mutates ``buffers`` in place; on :class:`CollectiveFault` the
    buffers are restored from a pre-attempt snapshot (bit-flip faults
    corrupt *before* the transport detects them) and ``op`` is re-issued,
    up to ``policy.max_retries`` times.  Raises :class:`CommRetryError`
    when the budget is exhausted — with buffers restored to their
    pristine pre-collective contents.  Returns the number of retries
    spent.
    """
    snapshot = [np.array(b, copy=True) for b in buffers]
    attempt = 0
    while True:
        try:
            op()
            return attempt
        except CollectiveFault as fault:
            for b, s in zip(buffers, snapshot):
                b[...] = s
            if attempt >= policy.max_retries:
                if stats is not None:
                    stats.exhausted += 1
                raise CommRetryError(site, attempt + 1, fault) from fault
            if stats is not None:
                stats.note_retry(site, policy.backoff_s(attempt))
            attempt += 1


def run_elastic_step(dp, arrays: Sequence[np.ndarray], *,
                     lr: Optional[float] = None) -> Tuple[float, int]:
    """One data-parallel step that survives permanent replica loss.

    Shards ``arrays`` for the current world size and runs
    ``dp.train_step``; if a replica crashes, the dead rank is dropped
    (``dp.drop_rank``), the batch is re-sharded for world N-1, and the
    step re-runs on the survivors.  A crash at world size 1 is
    unrecoverable here (that is what ``--resume`` is for) and
    re-raises.
    """
    from ..training.data_parallel import shard_batch
    while True:
        shards = shard_batch(arrays, dp.world_size)
        try:
            return dp.train_step(shards, lr=lr)
        except ReplicaCrash as crash:
            if dp.world_size <= 1:
                raise
            dp.drop_rank(crash.rank)
