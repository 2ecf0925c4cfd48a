"""The benchmark's command: one workload, one pass, one JSON line.

    python3 benchmarks/ladder/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--quick] [--detail FILE] [--trace-out FILE]

``--trace 0`` prints the bounded end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (a layer the workload does not run
reads 0).  The last line of standard output is the result object; anything
else goes before it or to standard error.  ``python -m benchmarks.ladder``
runs the whole ladder by launching this file once per (workload,
repetition).
"""

import os

# one thread on a <= 2-core shared box; must be set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ladder import metrics as registry      # noqa: E402
from benchmarks.ladder.single import run_traced, run_untraced  # noqa: E402
from benchmarks.ladder.workloads import WORKLOADS      # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke scale: one set-up, short warm-ups")
    ap.add_argument("--detail", help="also write the full pass result here")
    ap.add_argument("--trace-out", help="write the span trace here")
    args = ap.parse_args(argv)

    if args.trace:
        res = run_traced(args.workload, args.seed, args.seconds, args.quick,
                         trace_path=args.trace_out)
        listed = registry.CONTRACT_PER_LAYER
    else:
        res = run_untraced(args.workload, args.seed, args.seconds, args.quick)
        listed = registry.CONTRACT_END_TO_END
    for message in res.failures:
        print(f"CHECK FAILED [{args.workload}]: {message}", file=sys.stderr)
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "metrics": res.metrics,
                       "attempted": res.attempted, "failed": res.failed,
                       "failures": res.failures, **res.detail}, f)
    out = {}
    for m in listed:
        value = res.metrics.get(m.name)
        out[m.name] = {"value": 0.0 if value is None else float(value),
                       "unit": m.unit}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
