"""Benchmark fixtures.

Each paper figure/table has one benchmark that (a) times the experiment via
pytest-benchmark and (b) asserts every paper-shape claim holds.  Scale is
controlled by ``REPRO_BENCH_SCALE`` (quick | paper); quick is the default
so ``pytest benchmarks/ --benchmark-only`` completes in minutes.
"""

import sys

import pytest

from repro.bench.harness import bench_scale
from repro.obs.runrecord import write_run_record


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


def run_and_check(benchmark, fn, scale):
    """Time one full experiment run and assert its claims."""
    result = benchmark.pedantic(fn, args=(scale,), rounds=1, iterations=1)
    failed = result.failed_claims()
    assert not failed, "\n" + "\n".join(str(c) for c in failed) + \
        "\n\n" + result.format()
    return result


def flag_path(argv, flag):
    """The path following ``flag`` in ``argv``, or None when it is absent."""
    if flag not in argv:
        return None
    try:
        return argv[argv.index(flag) + 1]
    except IndexError:
        print(f"{flag} needs a file path")
        raise SystemExit(2)


def gate_main(run_comparison, report, run_record, argv=None):
    """``main()`` of a gate bench run as a script: run the comparison, print
    its human-readable ``report(r)`` and, with ``--record PATH``, write the
    run record the CI baseline gate diffs."""
    argv = sys.argv[1:] if argv is None else argv
    record_path = flag_path(argv, "--record")
    r = run_comparison()
    report(r)
    if record_path:
        write_run_record(record_path, run_record(r))
        print(f"  run record written to {record_path}")
    return 0
