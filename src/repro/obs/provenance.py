"""Run provenance: who produced this record, from which source tree.

``BENCH_*.json`` run records and metrics JSONL streams are only
comparable across commits if they say *which* commit (and which config)
produced them — the reason the BENCH trajectory stayed empty for so long
was that two records could silently come from different code.  This
module stamps every record with:

* the **git SHA** of the source tree (``None`` outside a checkout or
  when git is unavailable — records stay writable everywhere);
* a **config hash** — a short stable digest of the run's configuration
  dict, key-order independent, so "same config" is machine-checkable;
* a **schema version** for the provenance block itself;
* the **BLAS thread count** (:data:`repro.blas.BLAS_THREADS`; ``None``
  when BLAS could not be pinned and the run's bits may depend on the
  host's core count).

Everything here is best-effort and read-only: provenance must never be
the reason a run fails to record.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from functools import lru_cache
from typing import Dict, Mapping, Optional

from ..blas import BLAS_THREADS

#: version of the provenance block layout (bump on incompatible change).
PROVENANCE_SCHEMA = 1


@lru_cache(maxsize=1)
def git_sha() -> Optional[str]:
    """The HEAD commit of the source tree this package runs from.

    Resolved relative to the package directory (not the CWD), so records
    written from any working directory still name the code that wrote
    them.  Returns ``None`` when git or the repository is absent.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=here, capture_output=True,
            text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


@lru_cache(maxsize=1)
def git_commit_time() -> Optional[int]:
    """Unix commit timestamp (seconds) of the HEAD this package runs from.

    Committer time, not author time: committer time is what ``git log``
    orders history by, which makes it the monotonic half of the run-record
    ordering key.  ``None`` outside a checkout.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "show", "-s", "--format=%ct", "HEAD"], cwd=here,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    ts = out.stdout.strip()
    return int(ts) if out.returncode == 0 and ts.isdigit() else None


def order_key(sha: Optional[str] = None,
              commit_time: Optional[int] = None) -> Optional[str]:
    """Lexicographically sortable history key: ``<commit_time>-<sha12>``.

    Commit timestamps order records across commits; the SHA suffix breaks
    ties deterministically when several commits share a second (or a
    rebase repeats a timestamp).  Zero-padded so *string* sort equals
    numeric sort — trajectory ingestion never parses it back.  ``None``
    when the tree has no resolvable HEAD.
    """
    sha = sha if sha is not None else git_sha()
    commit_time = (commit_time if commit_time is not None
                   else git_commit_time())
    if sha is None or commit_time is None:
        return None
    return f"{commit_time:012d}-{sha[:12]}"


def config_hash(config: Optional[Mapping]) -> Optional[str]:
    """Short stable digest of a configuration mapping.

    Key order does not matter; values are serialised with ``str`` as the
    fallback so dataclass-ish members never break stamping.
    """
    if config is None:
        return None
    blob = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def provenance(config: Optional[Mapping] = None) -> Dict[str, object]:
    """The provenance block stamped into run records and JSONL headers.

    Execution-affecting kernel-path toggles are surfaced *by name* (not
    just folded into the opaque config hash) so records produced with
    different implementations are visibly incomparable: today that is
    ``attn_impl`` — a BENCH record from the tiled attention path must
    never be diffed against a fused baseline silently.
    """
    block: Dict[str, object] = {
        "provenance_schema": PROVENANCE_SCHEMA,
        "git_sha": git_sha(),
        "git_commit_time": git_commit_time(),
        "order_key": order_key(),
        "config_hash": config_hash(config),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }
    if config is not None and "attn_impl" in config:
        block["attn_impl"] = str(config["attn_impl"])
    if config is not None:
        # An armed fault plan changes what the run *does* — a record from
        # a fault-injected run must be visibly distinct from a clean one,
        # and (plan digest, seed) is exactly what reproduces it.
        for key in ("fault_plan", "fault_plan_digest", "fault_seed"):
            if key in config and config[key] is not None:
                block[key] = (int(config[key]) if key == "fault_seed"
                              else str(config[key]))
    return block
