"""Smoke test of the measurement ladder at ``--quick`` scale (<= 20 s).

Runs the one command and asserts that every workload and every metric named
in ``BENCHMARK.json`` is printed with its unit, that names are well formed,
that the output checks pass, and that ``BENCHMARK.json`` and the registry in
``metrics.py`` have not drifted apart.  Nothing heavy happens at import, so
the file is safe under ``pytest benchmarks/ -q --benchmark-disable``.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _registry():
    spec = importlib.util.spec_from_file_location("ladder_metrics",
                                                  HERE / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_registry():
    bench, reg = _bench(), _registry()
    assert bench["paths"] == ["benchmarks/ladder"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in reg.CONTRACT_END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in reg.CONTRACT_PER_LAYER]
    assert len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m


def test_quick_ladder_prints_every_metric_with_its_unit(tmp_path):
    bench = _bench()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ladder", "--quick", "--out",
         str(tmp_path)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "CHECK FAILED" not in proc.stdout

    printed = {}                      # workload -> {metric: unit}
    current = None
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            current = printed.setdefault(line[3:].split(":")[0], {})
        elif current is not None and line.startswith("  ") \
                and not line.startswith("  --"):
            metric, _value, unit = line.split()[:3]
            current[metric] = unit
    for wl in bench["workloads"]:
        assert NAME.fullmatch(wl["name"])
        assert wl["name"] in printed, f"workload {wl['name']} not printed"
        for m in bench["end_to_end"] + bench["per_layer"]:
            assert printed[wl["name"]].get(m["name"]) == m["unit"], (
                f"{wl['name']}: {m['name']} not printed in {m['unit']}")

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {name: wl["why"] for name, wl in summary["workloads"].items()} \
        == {wl["name"]: wl["why"] for wl in bench["workloads"]}
    record = json.loads((tmp_path / "BENCH_ladder.json").read_text())
    assert record["schema"] == "repro.obs.run_record/v1"
    assert "mt_fp16_eager.step_ms_p50" in record["counters"]
    for wl in bench["workloads"]:
        assert (tmp_path / f"trace_{wl['name']}.json").exists()
