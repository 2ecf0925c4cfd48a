"""``python -m repro.obs <subcommand>`` — the one front door to the obs CLIs.

    compare BASELINE CURRENT   diff two run records (the pairwise gate)
    trajectory DIR             a directory of run records, gated as a series
    health METRICS             numerics triage of a metrics JSONL / run record
    profile TRACE              roofline + critical path + what-ifs of a trace
    memory REPORT              memory report: peak, waste, OOM, what-ifs

Every subcommand takes ``--help`` and follows one exit-code convention:
0 clean · 1 gate failed · 2 unusable input or usage · 4 partial input (some
of it was skipped, the rest is clean).  Each input document is parsed
under its declaration (:mod:`repro.obs.schema`), so a field of the wrong
type is unusable input: exit 2 with one ``error:`` line on stderr naming
the file and the field's dotted path.
"""

import sys
from typing import List, Optional

from . import health, memory, profile, trajectory

COMMANDS = {"compare": trajectory.compare_main, "trajectory": trajectory.main,
            "health": health.main, "profile": profile.main,
            "memory": memory.main}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    print(f"error: expected one of {', '.join(COMMANDS)}; try --help",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
