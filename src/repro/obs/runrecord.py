"""Structured run records: the machine-readable ``BENCH_*.json`` files.

Every bench (and any traced training run) can emit one run record — a
plain JSON document with a fixed envelope (schema tag, name, environment)
and free-form sections: per-stage seconds, named counters, the result
table, claim outcomes, and per-step metrics.  Records are what
``python -m repro.obs compare`` diffs, so perf claims are regression-gated
against a captured baseline instead of re-derived by hand.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import fields
from typing import Dict, Optional, Sequence

from .memory import MemoryReport
from .metrics import STEP_ROW
from .schema import ABSENT, FINITE, STR, ListOf, Nullable, ObjectOf, Record

RUN_RECORD_SCHEMA = "repro.obs.run_record/v1"

#: the ``memory`` section's metrics: the byte counts of a MemoryReport
MEMORY_BYTES = tuple(f.name for f in fields(MemoryReport)
                     if f.name.endswith("_bytes")) + ("waste_bytes",)

#: what the readers take from a run record; the table, claims, config and
#: profile sections are carried for people, not parsed.
RUN_RECORD = Record({
    "name": (STR, ""),
    "provenance": (Record({"order_key": (Nullable(STR), None),
                           "git_sha": (Nullable(STR), None)}), {}),
    # absent and empty differ: compare refuses an empty baseline section
    "stage_seconds": (ObjectOf(FINITE), ABSENT),
    "counters": (ObjectOf(FINITE), {}),
    "memory": (Record({k: (FINITE, ABSENT) for k in MEMORY_BYTES}), {}),
    "metrics": (ListOf(STEP_ROW), []),
}, tag=RUN_RECORD_SCHEMA)


def make_run_record(name: str, *,
                    stage_seconds: Optional[Dict[str, float]] = None,
                    counters: Optional[Dict[str, float]] = None,
                    metrics: Optional[Sequence[Dict[str, object]]] = None,
                    headers: Optional[Sequence[str]] = None,
                    rows: Optional[Sequence[Sequence[object]]] = None,
                    claims: Optional[Sequence[Dict[str, object]]] = None,
                    config: Optional[Dict[str, object]] = None,
                    profile: Optional[Dict[str, object]] = None,
                    memory: Optional[Dict[str, object]] = None,
                    notes: str = "") -> Dict[str, object]:
    """Build a run-record dict (everything beyond ``name`` is optional).

    Every record is stamped with a provenance block (git SHA, hash of
    ``config``, schema version) so a baseline checked in at one commit is
    attributable when a later commit's record regresses against it.
    """
    from .provenance import provenance
    record: Dict[str, object] = {
        "schema": RUN_RECORD_SCHEMA,
        "name": name,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "provenance": provenance(config),
    }
    if stage_seconds is not None:
        record["stage_seconds"] = {k: float(v)
                                   for k, v in stage_seconds.items()}
    if counters is not None:
        record["counters"] = dict(counters)
    if metrics is not None:
        record["metrics"] = [dict(m) for m in metrics]
    if headers is not None and rows is not None:
        record["table"] = {"headers": list(headers),
                           "rows": [list(r) for r in rows]}
    if claims is not None:
        record["claims"] = [dict(c) for c in claims]
    if config is not None:
        record["config"] = dict(config)
    if profile is not None:
        # a repro.obs.profile/v1 document (roofline + critical path +
        # what-ifs) embedded whole, so a bench's perf record carries its
        # own attribution
        record["profile"] = dict(profile)
    if memory is not None:
        # the memory observatory's peak/waste byte counts (the caller picks
        # them from its MemoryReport) — flattened into memory.* metrics by
        # the trajectory so cross-PR memory regressions gate CI like time
        record["memory"] = dict(memory)
    if notes:
        record["notes"] = notes
    return record


def _coerce(obj: object) -> object:
    # numpy scalars leak into bench result rows; .item() unwraps them
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_run_record(path: str, record: Dict[str, object]) -> None:
    """Write one run record as pretty-printed JSON."""
    if record.get("schema") != RUN_RECORD_SCHEMA:
        raise ValueError(f"not a run record (schema={record.get('schema')!r};"
                         f" build one with make_run_record)")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True, default=_coerce)
        f.write("\n")


def load_run_record(path: str) -> Dict[str, object]:
    """Load and parse a run record (:data:`RUN_RECORD`)."""
    return RUN_RECORD.load(path)


def emit_document(doc: Dict[str, object], text: str, args) -> None:
    """The output tail every report CLI shares: print ``text`` (``doc``
    under ``--json``), and ``--out FILE`` also saves ``doc`` — so a gate
    never runs a command twice to get both."""
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else text)


def record_order_key(record: Dict[str, object],
                     path: Optional[str] = None) -> str:
    """The history-ordering key of a run record.

    Prefers the provenance block's ``order_key``
    (``<commit_time>-<sha12>``, lexicographically = historically sorted);
    for records written outside a checkout, falls back to the file's
    mtime (same zero-padded integer-seconds shape, so mixed directories
    still sort consistently), then to the record name.  Deterministic for
    any given directory of files — the property trajectory ingestion
    needs.
    """
    prov = record.get("provenance")
    if isinstance(prov, dict) and prov.get("order_key"):
        return str(prov["order_key"])
    if path is not None:
        try:
            return f"{int(os.stat(path).st_mtime):012d}-mtime"
        except OSError:
            pass
    return f"{0:012d}-{record.get('name', '')}"


def bench_record_path(directory: str, name: str) -> str:
    """The canonical ``BENCH_<name>.json`` path for a bench run record."""
    return os.path.join(directory, f"BENCH_{name}.json")
