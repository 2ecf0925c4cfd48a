"""Every CI gate as a command that also runs locally.

    python benchmarks/gates.py <gate> | --all  [--records DIR]

``GATES`` is the one table ``.github/workflows/ci.yml`` runs as a matrix
(``tests/test_gates.py`` holds the two in step).  A gate is a list of steps
run in order from the repo root with ``PYTHONPATH=src``; the first step whose
exit code is not the expected one stops the gate.  A step is an argv list
(expected exit 0), an ``(argv, expected_code)`` pair, or a list headed by a
function of this file called with the remaining items.  ``{records}`` is
``DIR/<gate>`` — what CI uploads as the gate's artifact.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE = "benchmarks/baselines"
PY = [sys.executable]
PYTEST = PY + ["-m", "pytest", "-q"]
TRAIN = PY + ["-m", "repro.train"]
OBS = PY + ["-m", "repro.obs"]
#: the resilience drill: same run clean, crashed by the plan, then resumed
DRILL = TRAIN + ["--task", "mt", "--steps", "6", "--max-tokens", "128",
                 "--fp16", "--log-interval", "6", "--checkpoint-every", "2",
                 "--save-dir"]


def ladder_is_clean(summary_path):
    """All four ladder workloads ran and none had a failed step."""
    with open(summary_path) as f:
        workloads = json.load(f)["workloads"]
    shares = {name: wl["end_to_end"]["failed_step_share"]["value"]
              for name, wl in workloads.items()}
    if len(shares) != 4 or any(shares.values()):
        print(f"ladder --quick: failed steps or missing workloads: {shares}")
        return 1
    print(f"ladder --quick: no failed step on {sorted(shares)}")
    return 0


def baseline_gate(name, threshold=None):
    """Diff ``{records}/BENCH_<name>.json`` against the checked-in baseline."""
    return (OBS + ["compare", "%s/BENCH_%s.json" % (BASE, name),
                   "{records}/BENCH_%s.json" % name,
                   "--out", "{records}/%s_diff.json" % name]
            + (["--threshold", threshold] if threshold else []))


GATES = {
    "claims": [
        PYTEST + ["benchmarks/", "--benchmark-disable"],
        # zero steady-state allocations, no slowdown
        PYTEST + ["benchmarks/bench_arena.py::test_arena_smoke"],
        PY + ["benchmarks/bench_arena.py", "--record",
              "{records}/BENCH_arena.json"],
    ],
    # the measurement ladder at smoke scale: all four workloads on both
    # clocks with every correctness check on; the summary is kept so a PR's
    # numbers can be diffed with `python -m benchmarks.ladder --compare`.
    "ladder-quick": [
        PY + ["-m", "benchmarks.ladder", "--quick", "--out",
              "{records}/ladder-out"],
        [ladder_is_clean, "{records}/ladder-out/summary.json"],
    ],
    "obs-smoke": [
        TRAIN + ["--task", "mt", "--steps", "3", "--max-tokens", "256",
                 "--log-interval", "1",
                 "--trace-out", "{records}/step.trace.json",
                 "--metrics-out", "{records}/step.metrics.jsonl"],
        PYTEST + ["tests/test_train_cli.py::test_trace_and_metrics_out",
                  "tests/obs/test_perfetto.py"],
    ],
    # eager-vs-replay losses bit-identical, and the host-overhead ratio held
    # against the baseline.  0.5: the gated stage is the dimensionless
    # replay/eager ratio, so this tolerates runner jitter but fails if
    # replay loses half its host-overhead win.
    "replay": [
        PYTEST + ["tests/property/test_replay_parity.py"],
        PYTEST + ["benchmarks/bench_replay.py::test_replay_smoke"],
        PY + ["benchmarks/bench_replay.py",
              "--record", "{records}/BENCH_replay.json",
              "--dump-program", "{records}/program_dump.txt"],
        baseline_gate("replay", "0.5"),
    ],
    # tiled attention: bit-identical to the fused path at one-tile L and to
    # the serial tile loops for any worker count, small long-context slab,
    # modeled HBM win held.  Everything gated is modeled (reservation
    # bytes, roofline traffic) — 5% is headroom for intentional shape
    # changes, not jitter.
    "flash": [
        PYTEST + ["tests/property/test_flash_parity.py",
                  "tests/property/test_flash_split.py",
                  "tests/backend/test_workers.py",
                  "tests/layers/test_attention.py::TestTiledAttention"],
        PYTEST + ["benchmarks/bench_flashattn.py::test_flashattn_smoke"],
        PY + ["benchmarks/bench_flashattn.py",
              "--record", "{records}/BENCH_flashattn.json"],
        baseline_gate("flashattn", "0.05"),
    ],
    # an injected crash must exit 4 through the resume path and land bitwise
    # equal to an uninterrupted run; DataParallel's concurrent ranks stay
    # bitwise the serial twin and world 1/2/4 stay one trajectory; a
    # manifest with a skewed field is skipped like a torn one; a bit
    # flipped in a checkpoint is reported or restores bitwise; checkpoint
    # overhead held at 0.5 (the dimensionless amortised
    # overhead-per-step ratio: tolerates jitter, fails if checkpointing
    # gets ~50% pricier relative to the step).
    "resilience": [
        DRILL + ["{records}/clean"],
        (DRILL + ["{records}/crash", "--fault-plan",
                  "benchmarks/ci_crash_plan.json"], 4),
        DRILL + ["{records}/crash", "--resume"],
        PYTEST + ["tests/test_train_cli.py::TestResilienceCli::"
                  "test_injected_crash_exits_4_and_resume_auto_is_"
                  "bit_identical",
                  "tests/training/test_concurrent_ranks.py",
                  "tests/training/test_golden_cross_world.py",
                  "tests/resilience/test_manifest_fuzz.py",
                  "tests/property/test_checkpoint_bitflip.py"],
        PYTEST + ["benchmarks/bench_resilience.py::test_resilience_smoke"],
        PY + ["benchmarks/bench_resilience.py",
              "--record", "{records}/BENCH_resilience.json"],
        baseline_gate("resilience", "0.5"),
    ],
    # a traced smoke run profiles end to end, the attn_impl=tiled what-if
    # agrees with the *measured* tiled/fused HBM ratio of the flash
    # baseline (10%), tracing stays under 3% of a traced step, and the
    # cross-commit trajectory is computed.
    "profile": [
        TRAIN + ["--task", "gpt", "--steps", "2", "--max-tokens", "256",
                 "--log-interval", "1",
                 "--trace-out", "{records}/step.trace.json"],
        OBS + ["profile", "{records}/step.trace.json",
               "--out", "{records}/profile.json"],
        PYTEST + ["tests/test_train_cli.py::test_trace_out_then_obs_profile",
                  "tests/obs/test_critpath.py::TestTiledProjection",
                  "tests/obs/test_cli_fuzz.py"],
        PYTEST + ["benchmarks/bench_profile_overhead.py::"
                  "test_profile_overhead_smoke"],
        PY + ["benchmarks/bench_profile_overhead.py",
              "--record", "{records}/BENCH_profile_overhead.json"],
        ["mkdir", "-p", "{records}/trajectory"],
        ["cp", f"{BASE}/BENCH_flashattn.json", "{records}/trajectory/"],
        PY + ["benchmarks/bench_flashattn.py", "--record",
              "{records}/trajectory/BENCH_flashattn_head.json"],
        OBS + ["trajectory", "{records}/trajectory", "--threshold", "0.05",
               "--out", "{records}/trajectory.json"],
    ],
    # the memory report's timeline peak is bitwise the arena's reserved
    # high-water mark, the what-if capacity engine reproduces the measured
    # fused-OOMs-where-tiled-trains boundary of the flash baseline (and
    # re-packs the recorded plans on tiled shapes), tracing
    # stays under 3% of an arena step, and memory feeds the trajectory.
    "memory": [
        TRAIN + ["--task", "gpt", "--steps", "3", "--max-tokens", "256",
                 "--log-interval", "1",
                 "--memory-out", "{records}/step.memory.json"],
        OBS + ["memory", "{records}/step.memory.json", "--check",
               "--whatif", "seq_len=2048", "--whatif", "batch=8",
               "--whatif", "seq_len=2048,attn_impl=tiled"],
        PYTEST + ["tests/obs/test_memory.py::TestBitwisePeak",
                  "tests/obs/test_memory.py::TestReportRoundTrip",
                  "tests/obs/test_memory.py::TestCapacityProjection",
                  "tests/obs/test_cli_fuzz.py"],
        PYTEST + ["benchmarks/bench_memory_overhead.py::"
                  "test_memory_overhead_smoke"],
        PY + ["benchmarks/bench_memory_overhead.py",
              "--record", "{records}/BENCH_memory.json"],
        ["mkdir", "-p", "{records}/trajectory"],
        ["cp", f"{BASE}/BENCH_memory.json", "{records}/trajectory/"],
        ["cp", "{records}/BENCH_memory.json",
         "{records}/trajectory/BENCH_memory_head.json"],
        OBS + ["trajectory", "{records}/trajectory", "--threshold", "0.25",
               "--out", "{records}/memory_trajectory.json"],
    ],
    # nightly-shaped: rerun the instrumented smoke bench against its
    # baseline and vet a live numerics-instrumented run with the health CLI.
    "numerics": [
        PY + ["-m", "repro.bench", "smoke", "--record-dir", "{records}"],
        baseline_gate("smoke"),
        TRAIN + ["--task", "mt", "--steps", "4", "--max-tokens", "256",
                 "--log-interval", "2", "--numerics-every", "1",
                 "--metrics-out", "{records}/health.metrics.jsonl"],
        OBS + ["health", "{records}/health.metrics.jsonl"],
        PYTEST + ["benchmarks/bench_numerics_overhead.py::"
                  "test_numerics_overhead_smoke"],
        PY + ["benchmarks/bench_numerics_overhead.py",
              "--record", "{records}/BENCH_numerics_overhead.json"],
    ],
}


def run_gate(name, records):
    """Run one gate's steps in order; 0, or 1 at the first unexpected exit."""
    records = os.path.join(os.path.abspath(records), name)
    os.makedirs(records, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    for step in GATES[name]:
        argv, expected = step if isinstance(step, tuple) else (step, 0)
        head, *args = [a.format(records=records) if isinstance(a, str) else a
                       for a in argv]
        print(f"[{name}] $ {getattr(head, '__name__', head)} "
              f"{' '.join(args)}", flush=True)
        code = (head(*args) if callable(head) else
                subprocess.run([head] + args, cwd=ROOT, env=env).returncode)
        if code != expected:
            print(f"[{name}] FAILED: exit {code}, expected {expected}")
            return 1
    print(f"[{name}] passed", flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("gate", nargs="?", choices=sorted(GATES))
    ap.add_argument("--all", action="store_true", help="run every gate")
    ap.add_argument("--records", default="records", metavar="DIR",
                    help="each gate writes its artifacts to DIR/<gate>")
    args = ap.parse_args(argv)
    if bool(args.gate) == args.all:
        ap.error("name one gate or pass --all")
    for name in sorted(GATES) if args.all else [args.gate]:
        if run_gate(name, args.records):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
