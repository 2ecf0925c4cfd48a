"""Tombstone: ``repro.obs.summarize`` was merged into
:mod:`repro.obs.trajectory`; only the loud redirect is left."""

raise SystemExit("moved: python -m repro.obs compare")
