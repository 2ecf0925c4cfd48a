"""Benchmark harness: one reproduction per paper table/figure.

Run everything::

    python -m repro.bench            # quick scale
    REPRO_BENCH_SCALE=paper python -m repro.bench fig09 table2
"""

from . import figures, harness, tracegen
from .figures import ALL_EXPERIMENTS
from .harness import ExperimentResult, ShapeClaim, bench_scale

__all__ = [
    "figures", "harness", "tracegen",
    "ALL_EXPERIMENTS",
    "ExperimentResult", "ShapeClaim", "bench_scale",
]
