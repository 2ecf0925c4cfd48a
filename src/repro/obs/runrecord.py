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
from typing import Dict, Optional, Sequence

RUN_RECORD_SCHEMA = "repro.obs.run_record/v1"


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


def load_json_document(path: str, *, schema: Optional[str] = None
                       ) -> Dict[str, object]:
    """Load one JSON object, the loader behind every obs reader.

    With ``schema``, the document's ``"schema"`` tag must equal it.  A
    truncated or corrupt file (torn by a crash mid-write) or a foreign
    document raises a clear ``ValueError`` naming the file, not a bare
    JSON traceback.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON (truncated or "
                             f"corrupt write?): {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object "
                         f"(got {type(doc).__name__})")
    if schema is not None and doc.get("schema") != schema:
        raise ValueError(f"{path}: not a {schema} document "
                         f"(schema={doc.get('schema')!r})")
    return doc


def load_run_record(path: str) -> Dict[str, object]:
    """Load and schema-check a run record."""
    record = load_json_document(path, schema=RUN_RECORD_SCHEMA)
    if not isinstance(record.get("provenance") or {}, dict):
        raise ValueError(f"{path}: provenance is not an object")
    return record


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
