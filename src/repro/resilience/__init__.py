"""Fault tolerance: deterministic fault injection, recovery policies,
and crash-safe checkpointing.

Three cooperating pieces (DESIGN §13):

* :mod:`repro.resilience.faults` — a seeded, JSON-loadable
  :class:`FaultPlan` arms named fault sites threaded through the stack
  (ring-collective drops/bit-flips, replica crashes, stragglers, torn
  checkpoint writes); every injection is reproducible from
  ``(seed, plan)`` and stamped into provenance.
* :mod:`repro.resilience.recovery` — bounded deterministic-backoff retry
  for transient comm faults and elastic world-shrinking for permanent
  replica loss.
* :mod:`repro.resilience.checkpoint` — one atomically written (temp +
  fsync + rename) ``.npz`` file per checkpoint, checked by its zip CRCs,
  with retention and auto-resume that restores optimizer, loss-scaler
  and RNG state bit-identically, all or nothing.
"""

from .checkpoint import (MANIFEST_SCHEMA, CheckpointCorrupt,
                         CheckpointMismatch, CheckpointStore,
                         PeriodicCheckpointer, atomic_write_bytes)
from .faults import (CollectiveFault, FaultError, FaultInjector, FaultPlan,
                     FaultSpec, Injection, ReplicaCrash, TornWrite,
                     current_injector, use_faults)
from .recovery import (CommRetryError, CommRetryStats, RetryPolicy,
                       retry_collective, run_elastic_step)

__all__ = [
    "MANIFEST_SCHEMA", "CheckpointCorrupt", "CheckpointMismatch",
    "CheckpointStore",
    "PeriodicCheckpointer", "atomic_write_bytes",
    "CollectiveFault", "FaultError", "FaultInjector", "FaultPlan",
    "FaultSpec", "Injection", "ReplicaCrash", "TornWrite",
    "current_injector", "use_faults",
    "CommRetryError", "CommRetryStats", "RetryPolicy", "retry_collective",
    "run_elastic_step",
]
