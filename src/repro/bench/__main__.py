"""CLI: run paper-figure reproductions and print their tables.

Usage::

    python -m repro.bench                 # all experiments, quick scale
    python -m repro.bench fig09 fig13     # a subset
    REPRO_BENCH_SCALE=paper python -m repro.bench   # paper-sized models
    python -m repro.bench --report EXPERIMENTS.md   # write the report
    python -m repro.bench --record-dir .  # write BENCH_<name>.json records
"""

from __future__ import annotations

import os
import sys
import time

from .figures import ALL_EXPERIMENTS
from .harness import bench_scale


def _take_flag(argv: list[str], flag: str) -> tuple[list[str], str | None]:
    if flag not in argv:
        return argv, None
    i = argv.index(flag)
    try:
        value = argv[i + 1]
    except IndexError:
        return argv, ""
    return argv[:i] + argv[i + 2:], value


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    argv, report_path = _take_flag(argv, "--report")
    if report_path == "":
        return _usage_error("--report needs a file path")
    names, record_dir = _take_flag(argv, "--record-dir")
    if record_dir == "":
        return _usage_error("--record-dir needs a directory")
    flags = [a for a in names if a.startswith("-")]
    if flags:
        return _usage_error(f"unknown option {flags[0]}; "
                            "options: --report PATH, --record-dir DIR")
    if record_dir:
        os.makedirs(record_dir, exist_ok=True)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}")
        return 2
    scale = bench_scale()
    print(f"scale = {scale} (set REPRO_BENCH_SCALE=paper for full size)\n")
    failed = 0
    done_names, done_results = [], []
    for name, fn in ALL_EXPERIMENTS.items():
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        result = fn(scale)
        dt = time.perf_counter() - t0
        print(result.format())
        print(f"({dt:.1f}s)\n")
        failed += len(result.failed_claims())
        done_names.append(name)
        done_results.append(result)
        if record_dir:
            from repro.obs.runrecord import (bench_record_path,
                                             write_run_record)
            path = bench_record_path(record_dir, name)
            write_run_record(path, result.to_run_record(
                name, scale=scale, elapsed_s=dt))
            print(f"run record written to {path}\n")
    if report_path:
        from .report import write_report
        write_report(done_results, done_names, report_path, scale)
        print(f"report written to {report_path}")
    if failed:
        print(f"{failed} shape claim(s) FAILED")
        return 1
    print("all shape claims hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
