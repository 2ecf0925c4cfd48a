"""Run the whole ladder: four workloads, both clocks, every rung.

    PYTHONPATH=src python -m benchmarks.ladder [--seed 1] [--quick]
        [--out DIR] [--record BENCH.json] [--agree] [--compare A.json B.json]

One driver process launches one child (``run.py``) per (workload,
repetition), never two at once.  After one discarded priming child per
workload, the untraced repetitions run round-robin across workloads (mt,
bert, gpt, ddp, mt, ...), then one traced child per workload.  Every metric
is printed by name with its unit; the summary, the span traces and a
``BENCH_ladder.json`` run record land in ``--out``.

``--agree`` runs the full set twice and ``--compare`` takes two saved
summaries; both exit non-zero unless every bounded wall metric agrees within
its bound and every exact metric is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from .metrics import (BY_NAME, END_TO_END, PER_LAYER,  # noqa: E402
                      percentile)
from .workloads import WHY, WORK_DIR  # noqa: E402

WORKLOAD_NAMES = tuple(WHY)
SUMMARY_SCHEMA = "benchmarks.ladder.summary/v1"
#: (repetitions, seconds per repetition) of the untraced pass.
FULL, QUICK = (3, 20.0), (1, 0.5)


def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
           trace_out: Optional[Path] = None) -> Dict[str, object]:
    """Run one pass in its own process and return its detail record."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        detail = Path(tmp) / "detail.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--detail", str(detail)]
        if quick:
            cmd.append("--quick")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=600,
                       stdout=subprocess.DEVNULL)
        return json.loads(detail.read_text())


def host_info() -> Dict[str, object]:
    import numpy as np
    from repro.obs.provenance import git_sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1, "machine": platform.machine(),
            "git_sha": git_sha()}


def run_set(seed: int, quick: bool, out: Path) -> Dict[str, object]:
    """One full set of runs -> the summary document."""
    reps, seconds = QUICK if quick else FULL
    out.mkdir(parents=True, exist_ok=True)
    if not quick:
        for name in WORKLOAD_NAMES:         # discarded: warms caches only
            _child(name, seed, 1.0, 0, True)
    untraced: Dict[str, List[dict]] = {n: [] for n in WORKLOAD_NAMES}
    for rep in range(reps):
        for name in WORKLOAD_NAMES:
            print(f"[ladder] {name}: untraced repetition {rep + 1}/{reps}",
                  file=sys.stderr)
            untraced[name].append(_child(name, seed, seconds, 0, quick))
    summary = {"schema": SUMMARY_SCHEMA, "seed": seed, "quick": quick,
               "host": host_info(), "workloads": {}}
    for name in WORKLOAD_NAMES:
        print(f"[ladder] {name}: traced pass", file=sys.stderr)
        traced = _child(name, seed, seconds, 1, quick,
                        out / f"trace_{name}.json")
        summary["workloads"][name] = {
            "why": WHY[name], **_aggregate(untraced[name], traced)}
    return summary


def _aggregate(reps: List[dict], traced: dict) -> Dict[str, object]:
    """Three untraced repetitions + one traced pass -> one workload entry."""
    end_to_end: Dict[str, dict] = {}
    pooled = [ms for r in reps for ms in r["step_ms"]]
    for m in END_TO_END:
        if m.kind == "wall":
            per_rep = [r["metrics"][m.name] for r in reps]
            value = (percentile(pooled, 90) if m.name == "step_ms_p90"
                     else statistics.median(per_rep))
            entry = {"value": value, "per_rep": per_rep,
                     "spread": (max(per_rep) - min(per_rep))
                     / statistics.median(per_rep)}
            if m.name.startswith("step_ms"):
                entry["n"] = len(pooled)
        else:
            entry = {"value": traced["metrics"][m.name]}
        end_to_end[m.name] = {**entry, "unit": m.unit, "kind": m.kind}
    runs = reps + [traced]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    end_to_end["failed_step_share"]["value"] = failed / attempted
    return {
        "end_to_end": end_to_end,
        "per_layer": {m.name: {"value": traced["metrics"].get(m.name),
                               "unit": m.unit, "kind": m.kind}
                      for m in PER_LAYER},
        "repetitions": [{"cpu_share": r["cpu_share"],
                         "disturbed": r["disturbed"]} for r in runs],
        "attempted": attempted, "failed": failed,
        "failures": [f for r in runs for f in r["failures"]],
        "traced_steps": traced["traced_steps"],
        "step_self_share": traced["step_self_share"],
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def print_summary(summary: Dict[str, object]) -> None:
    host = summary["host"]
    print(f"ladder seed={summary['seed']} quick={summary['quick']} "
          f"nproc={host['nproc']} load={host['loadavg'][0]:.2f} "
          f"python={host['python']} numpy={host['numpy']} "
          f"blas={host['blas']} (1 thread) git={host['git_sha']}")
    for name, wl in summary["workloads"].items():
        disturbed = sum(r["disturbed"] for r in wl["repetitions"])
        print(f"\n== {name}: {wl['attempted']} attempted, {wl['failed']} "
              f"failed, {disturbed} of {len(wl['repetitions'])} runs "
              f"disturbed, traced steps {wl['traced_steps']}")
        print(f"  why: {wl['why']}")
        for message in wl["failures"]:
            print(f"  CHECK FAILED: {message}")
        print("  traced step = " + " + ".join(
            f"{100 * share:.1f}% {span}" for span, share in sorted(
                wl["step_self_share"].items(), key=lambda kv: -kv[1])))
        print("  -- end to end")
        for metric, e in wl["end_to_end"].items():
            extra = ""
            if "spread" in e:
                extra = f"  spread {100 * e['spread']:.1f}%"
            if "n" in e:
                extra += f"  n={e['n']}"
            print(f"  {metric:<40}{_fmt(e['value']):>12} {e['unit']:<8} "
                  f"[{e['kind']}]{extra}")
        print("  -- per layer (traced pass / micro-timings)")
        for metric, e in wl["per_layer"].items():
            print(f"  {metric:<40}{_fmt(e['value']):>12} {e['unit']:<8} "
                  f"[{e['kind']}]")


def run_record(summary: Dict[str, object]) -> Dict[str, object]:
    """The summary as a ``repro.obs.run_record/v1`` document: absolute
    values keyed ``<workload>.<metric>``, step p50 per model family as
    ``stage_seconds`` so ``repro.obs.trajectory`` orders and gates it."""
    from repro.obs.runrecord import make_run_record
    counters, steps = {}, {}
    for name, wl in summary["workloads"].items():
        steps[name] = wl["end_to_end"]["step_ms_p50"]["value"] / 1e3
        for section in ("end_to_end", "per_layer"):
            for metric, e in wl[section].items():
                if e["value"] is not None:
                    counters[f"{name}.{metric}"] = e["value"]
    return make_run_record(
        "ladder", stage_seconds=steps, counters=counters,
        config={"seed": summary["seed"], "quick": summary["quick"],
                "host": summary["host"]},
        notes="measurement ladder: absolute host wall-clock and simulated "
              "step times per model family; stage_seconds = untraced "
              "step_ms_p50 per workload, in seconds")


# ---------------------------------------------------------------------------
# agreement between two sets of runs
# ---------------------------------------------------------------------------


def compare(a: Dict[str, object], b: Dict[str, object]) -> int:
    """Print one row per (workload, metric); return how many disagree."""
    bad = 0
    print(f"{'workload':<22}{'metric':<40}{'A':>12}{'B':>12}"
          f"{'B/A':>9}  rule")
    for name, wl_a in a["workloads"].items():
        wl_b = b["workloads"][name]
        for section in ("end_to_end", "per_layer"):
            for metric, ea in wl_a[section].items():
                va, vb = ea["value"], wl_b[section][metric]["value"]
                m = BY_NAME[metric]
                ratio = (vb / va if isinstance(va, (int, float))
                         and isinstance(vb, (int, float)) and va else None)
                if m.kind == "exact":
                    ok, rule = va == vb, "identical"
                elif m.bound is not None:
                    ok = ratio is not None and abs(ratio - 1.0) <= m.bound
                    rule = f"within {100 * m.bound:.0f}% of A"
                else:
                    ok, rule = True, "not gated"
                bad += not ok
                print(f"{name:<22}{metric:<40}{_fmt(va):>12}{_fmt(vb):>12}"
                      f"{'-' if ratio is None else f'{ratio:.3f}':>9}  "
                      f"{rule}{'' if ok else '  <-- DISAGREES'}")
    print(f"{bad} metric(s) disagree")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.ladder",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="smoke scale: <= 20 s, one repetition, same names")
    ap.add_argument("--out", type=Path, default=WORK_DIR / "out")
    ap.add_argument("--record", type=Path,
                    help="also write the BENCH_ladder.json run record here")
    ap.add_argument("--agree", action="store_true",
                    help="run the set twice and require agreement")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 1 if compare(a, b) else 0

    from repro.obs.runrecord import bench_record_path, write_run_record
    summary = run_set(args.seed, args.quick, args.out)
    print_summary(summary)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1))
    record = run_record(summary)
    for path in filter(None, [bench_record_path(str(args.out), "ladder"),
                              args.record]):
        write_run_record(str(path), record)
    failed = sum(wl["failed"] for wl in summary["workloads"].values())
    if args.agree:
        second = run_set(args.seed, args.quick, args.out / "second")
        (args.out / "second" / "summary.json").write_text(
            json.dumps(second, indent=1))
        failed += compare(summary, second)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
