"""Reproduce every paper figure/table and assert the paper's shape claims.

One benchmark per ``repro.bench.figures.ALL_EXPERIMENTS`` entry (``smoke``
is the numerics run record of ``python -m repro.bench smoke``, not a paper
claim).  Prints the full result table; run with `-s` to see it, or
`REPRO_BENCH_SCALE=paper` for the paper's model sizes.  Pick one with
``-k``: ``pytest benchmarks/bench_figures.py -k test_fig13_layernorm -s``.
"""

import pytest

from repro.bench.figures import ALL_EXPERIMENTS

from conftest import run_and_check

#: experiment key -> the test id each figure has always been selected by
_TEST_IDS = {
    "fig01": "test_fig01_inventory",
    "fig04": "test_fig04_stages",
    "fig09": "test_fig09_layers_scaling",
    "fig11": "test_fig11_multigpu",
    "fig12": "test_fig12_vit",
    "table2": "test_table2_bert",
    "fig13": "test_fig13_layernorm",
    "fig14": "test_fig14_dropout_softmax",
    "fig15": "test_fig15_layer_speed",
    "fig16": "test_fig16_memory",
    "fig17": "test_fig17_utilization",
    "trainer": "test_trainer_ablation",
    "overlap_zero1": "test_overlap_zero1",
    "ablations": "test_ablations",
    "gpt": "test_gpt_speed",
}


@pytest.mark.parametrize("key", [k for k in ALL_EXPERIMENTS if k != "smoke"],
                         ids=_TEST_IDS.get)
def test_figure(key, benchmark, scale, capsys):
    result = run_and_check(benchmark, ALL_EXPERIMENTS[key], scale)
    with capsys.disabled():
        print()
        print(result.format())
