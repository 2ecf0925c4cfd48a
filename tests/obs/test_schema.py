"""The declared documents: the parser's field kinds, and every writer's
real output parsing under its declaration (so writer/reader skew fails
here, not in a user's traceback)."""

import json
import math

import pytest

from repro.bench.__main__ import main as bench_main
from repro.obs.health import ANOMALY_ROW
from repro.obs.memory import load_memory_report
from repro.obs.metrics import STEP_ROW, read_jsonl
from repro.obs.numerics import NUMERICS_ROW
from repro.obs.perfetto import read_trace, trace_kernels
from repro.obs.profile import step_inputs_from_trace
from repro.obs.schema import (ABSENT, FINITE, FLOAT, INT, POSITIVE, ListOf,
                              Record, SchemaError)
from repro.obs.trajectory import GATED_RECORD
from repro.resilience import CheckpointStore
from repro.resilience.checkpoint import MANIFEST
from repro.train import main as train_main

from ..ckpt_file import manifest


@pytest.mark.parametrize("kind, value, want", [
    (INT, 3, 3), (INT, 3.0, 3), (INT, 2 ** 127, 2 ** 127),
    (FLOAT, 2, 2.0), (FINITE, 0.5, 0.5), (POSITIVE, 1, 1),
])
def test_kinds_accept(kind, value, want):
    got = kind.parse(value)
    assert got == want and type(got) is type(want)


def test_float_keeps_nan_and_inf():
    assert math.isnan(FLOAT.parse(float("nan")))
    assert FLOAT.parse(float("-inf")) == float("-inf")


@pytest.mark.parametrize("kind, value", [
    (INT, 1.5), (INT, float("nan")), (INT, True), (INT, 10 ** 400),
    (FLOAT, "1"), (FLOAT, 10 ** 400), (FINITE, float("inf")),
    (POSITIVE, 0), (POSITIVE, "1"),
])
def test_kinds_refuse(kind, value):
    with pytest.raises(SchemaError, match="^field is"):
        kind.parse(value, "field")


def test_record_names_the_dotted_path_and_fills_defaults():
    doc = Record({"rows": ListOf(Record({"n": INT})),
                  "sub": (Record({"x": (INT, 7), "y": (INT, ABSENT)}), {})})
    assert doc.parse({"rows": [], "extra": 1}) == {
        "rows": [], "sub": {"x": 7}, "extra": 1}
    with pytest.raises(SchemaError, match=r"^rows\[1\]\.n is missing$"):
        doc.parse({"rows": [{"n": 1}, {}]})
    with pytest.raises(SchemaError, match=r"^sub\.y is 'x', not an integer"):
        doc.parse({"rows": [], "sub": {"y": "x"}})


def test_train_outputs_parse(tmp_path, capsys):
    """``repro.train``'s memory report, trace, metrics stream (numerics
    and anomaly rows included) and checkpoint manifest."""
    out = {k: str(tmp_path / k) for k in ("m.json", "t.json", "j.jsonl")}
    assert train_main([
        "--task", "gpt", "--steps", "2", "--max-tokens", "256", "--fp16",
        "--numerics-every", "1", "--memory-out", out["m.json"],
        "--trace-out", out["t.json"], "--metrics-out", out["j.jsonl"],
        "--save-dir", str(tmp_path / "ck")]) == 0
    capsys.readouterr()
    report = load_memory_report(out["m.json"])
    assert report["shape_plan"]["requests"] and report["shape_plan"]["plans"]
    trace = read_trace(out["t.json"])
    assert step_inputs_from_trace(trace).attn == trace["otherData"]["attn"]
    assert trace_kernels(trace)
    kinds = {"step": STEP_ROW, "numerics": NUMERICS_ROW,
             "anomaly": ANOMALY_ROW}
    rows = [r for r in read_jsonl(out["j.jsonl"])
            if r.get("event", "step") in kinds]
    for r in rows:
        kinds[r.get("event", "step")].parse(r)
    assert {r.get("event", "step") for r in rows} == set(kinds)
    store = CheckpointStore(tmp_path / "ck")
    step = store.steps()[-1]
    assert store.validate(step) == []
    assert MANIFEST.parse(manifest(store.paths(step)["checkpoint"]))["rng"]


def test_bench_run_record_parses(tmp_path, capsys, monkeypatch):
    """A ``repro.bench`` run record parses as the gates read it."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    assert bench_main(["fig01", "--record-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rec = GATED_RECORD.load(tmp_path / "BENCH_fig01.json")
    assert rec["counters"] and json.dumps(rec)
