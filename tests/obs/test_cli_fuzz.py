"""Skewed input to ``python -m repro.obs {profile,memory,compare,trajectory,
health}``.

A document of the wrong shape is unusable input: the CLI must exit 2 with
an ``error:`` line, never a traceback (exit 1 means "gate failed";
``trajectory`` skips an unusable file and ``health`` an unparseable line,
and each exits 4 if the rest is clean).
"""

import copy
import json
from types import SimpleNamespace

import pytest

from repro.backend.device import KernelLaunch
from repro.obs.__main__ import main as obs_main
from repro.obs.health import ANOMALY_ROW, Anomaly
from repro.obs.memory import MEMORY_REPORT, MEMORY_SCHEMA
from repro.obs.metrics import STEP_ROW, StepMetrics
from repro.obs.numerics import NUMERICS_ROW, StepNumerics, TensorStats
from repro.obs.perfetto import KERNEL_SLICE, TRACE, perfetto_trace
from repro.obs.runrecord import MEMORY_BYTES, RUN_RECORD_SCHEMA
from repro.obs.trajectory import GATED_RECORD
from repro.sim.gpu_specs import V100
from repro.train import main as train_main

from ..schema_fuzz import skewed

#: a minimal well-formed memory report; each skewed case breaks one part.
_MEMORY = {
    "schema": MEMORY_SCHEMA,
    "peak": {"step": 1, "demand_bytes": 1024, "capacity_bytes": 1024},
    "bitwise_peak_equal": True,
    "attribution": {"by_site": [{"key": "attn", "bytes": 1024,
                                 "share": 1.0, "requests": 1}]},
    # batch 2, seq_len 16 and their product 32 collide with no model dim
    "shape_plan": {"base": {"batch": 2, "seq_len": 16,
                            "model_dims": {"hidden": 24, "nhead": 3,
                                           "head_dim": 8, "ffn": 96,
                                           "vocab": 100}},
                   "requests": [{"shape": [2, 16, 8], "dtype": "float32",
                                 "plan": None}],
                   "plans": []},
}


#: a well-formed ``oom`` forensics object (what ``oom_forensics`` writes)
_OOM = {"step": 1, "requested_bytes": 64, "budget_bytes": 1024,
        "over_budget_bytes": 32, "live_bytes": 992, "live_slots": [],
        "sharing_saved_bytes": 0, "would_fit_without_largest": False,
        "would_fit_without_padding": False, "hints": []}


def _skew(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _skewed_memory(path, value):
    return _skew(_MEMORY, path, value)


_PROFILE_CASES = {
    "traceEvents_not_a_list": {"traceEvents": {"cat": "kernel"}},
    "event_not_an_object": {"traceEvents": [1]},
    "otherData_not_an_object": {"traceEvents": [], "otherData": [1]},
    "kernel_event_without_name": {"traceEvents": [
        {"cat": "kernel", "args": {"elems_read": 1, "elems_written": 1}}]},
    "kernel_args_not_an_object": {"traceEvents": [
        {"cat": "kernel", "name": "k", "args": 5}]},
    "kernel_event_without_family": {"traceEvents": [
        {"cat": "kernel", "name": "k",
         "args": {"elems_read": 1, "elems_written": 1}}]},
    "kernel_event_with_unknown_family": {"traceEvents": [
        {"cat": "kernel", "name": "k",
         "args": {"elems_read": 1, "elems_written": 1,
                  "family": "warp_shuffle"}}]},
}

_MEMORY_CASES = {
    "shape_plan_not_an_object": (("shape_plan",), "x"),
    "requests_not_a_list": (("shape_plan", "requests"), "x"),
    "peak_not_an_object": (("peak",), [1]),
    "attribution_not_an_object": (("attribution",), "x"),
    "attribution_row_without_bytes": (
        ("attribution", "by_site"),
        [{"key": "attn", "share": 1.0, "requests": 1}]),
    "oom_not_an_object": (("oom",), "x"),
    "oom_without_forensics_keys": (("oom",), {"step": 1}),
    "oom_byte_count_not_an_integer": (("oom",),
                                      {**_OOM, "requested_bytes": "64"}),
    # what-if bases dimension matching cannot disambiguate
    "base_without_model_dims": (("shape_plan", "base"),
                                {"batch": 2, "seq_len": 16}),
    "base_seq_len_equals_head_dim": (
        ("shape_plan", "base", "model_dims", "head_dim"), 16),
    "base_tokens_equal_ffn": (("shape_plan", "base", "model_dims", "ffn"),
                              32),
    "base_model_dims_not_integers": (
        ("shape_plan", "base", "model_dims", "hidden"), [24]),
}

#: memory runs a what-if so the shape plan is walked too
_MEMORY_ARGS = ["--whatif", "seq_len=32"]


def _run(tmp_path, capsys, sub, doc, *args):
    """``python -m repro.obs SUB doc.json ARGS`` in-process: an uncaught
    exception fails the test instead of hiding in a subprocess."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = obs_main([sub, str(path), *args])
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


@pytest.mark.parametrize("sub, doc, args", [
    *[pytest.param("profile", doc, [], id=f"profile-{name}")
      for name, doc in _PROFILE_CASES.items()],
    *[pytest.param("memory", _skewed_memory(*case), _MEMORY_ARGS,
                   id=f"memory-{name}")
      for name, case in _MEMORY_CASES.items()],
])
def test_skewed_document_is_unusable_input(tmp_path, capsys, sub, doc, args):
    done = _run(tmp_path, capsys, sub, doc, *args)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:"), done.stderr


def test_well_formed_memory_report_is_accepted(tmp_path, capsys):
    """The base the memory cases skew is itself usable input."""
    done = _run(tmp_path, capsys, "memory", _MEMORY, *_MEMORY_ARGS)
    assert done.returncode == 0, done.stderr
    assert "what-if" in done.stdout


def test_well_formed_oom_is_accepted(tmp_path, capsys):
    """The ``oom`` the forensics cases skew is itself usable input."""
    done = _run(tmp_path, capsys, "memory", _skewed_memory(("oom",), _OOM),
                *_MEMORY_ARGS)
    assert done.returncode == 0, done.stderr
    assert "OOM at step 1: request of 64 bytes" in done.stdout


# -- compare / trajectory: truncated, reordered and schema-skewed records ----

def _run_record(i, step_s):
    """A minimal run record at position ``i`` in history."""
    return {"schema": RUN_RECORD_SCHEMA, "name": "fuzz",
            "provenance": {"order_key": f"{1000 + i:012d}-{'a' * 12}"},
            "stage_seconds": {"forward": 0.4 * step_s,
                              "backward": 0.6 * step_s},
            "counters": {"launches": 100.0},
            "metrics": [{"step": 1, "num_tokens": 100, "wall_s": 1.0,
                         "applied": True}]}


def _skewed_record(key, value):
    doc = _run_record(1, 0.1)
    doc[key] = value
    return json.dumps(doc)


_RECORD_CASES = {
    "truncated": json.dumps(_run_record(1, 0.1))[:70],
    "not_an_object": "[1, 2]",
    "wrong_schema": _skewed_record("schema", "nope/v0"),
    "provenance_not_an_object": _skewed_record("provenance", [1]),
    "stage_seconds_not_an_object": _skewed_record("stage_seconds", [1]),
    "stage_value_not_a_number": _skewed_record("stage_seconds",
                                               {"forward": "fast"}),
    "stage_value_nan": _skewed_record("stage_seconds",
                                      {"forward": float("nan")}),
    "counter_infinite": _skewed_record("counters",
                                       {"launches": float("inf")}),
    "metrics_row_not_an_object": _skewed_record("metrics", [5]),
    "metrics_tokens_infinite": _skewed_record(
        "metrics", [{"wall_s": 1.0, "num_tokens": float("inf")}]),
    "metrics_tokens_past_float_range": _skewed_record(
        "metrics", [{"wall_s": 1.0, "num_tokens": 10 ** 400}]),
}


def _obs(capsys, *argv):
    capsys.readouterr()
    code = obs_main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("text", _RECORD_CASES.values(), ids=_RECORD_CASES)
def test_compare_refuses_skewed_record(tmp_path, capsys, text):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_run_record(0, 0.1)))
    bad.write_text(text)
    for pair in ((good, bad), (bad, good)):
        code, out, err = _obs(capsys, "compare", *map(str, pair))
        assert code == 2, err
        assert err.startswith("error:") and "bad.json" in err
        assert out == ""


@pytest.mark.parametrize("text", _RECORD_CASES.values(), ids=_RECORD_CASES)
def test_trajectory_skips_skewed_record(tmp_path, capsys, text):
    """The rest of the series still gates; a clean rest exits 4."""
    for j, step_s in enumerate((0.100, 0.101)):
        (tmp_path / f"r{j}.json").write_text(
            json.dumps(_run_record(j, step_s)))
    (tmp_path / "r2.json").write_text(text)
    code, out, _ = _obs(capsys, "trajectory", str(tmp_path))
    assert code == 4
    assert "skipped" in out and "r2.json" in out
    (tmp_path / "r3.json").write_text(json.dumps(_run_record(3, 0.2)))
    assert _obs(capsys, "trajectory", str(tmp_path))[0] == 1
    for j in range(4):
        if j != 2:
            (tmp_path / f"r{j}.json").unlink()
    code, _, err = _obs(capsys, "trajectory", str(tmp_path))
    assert code == 2 and err.startswith("error:")


def test_reordered_records_read_the_same(tmp_path, capsys):
    """Key order inside a record and file order inside a directory are
    not meaningful: history comes from the provenance order key."""
    recs = [_run_record(j, s) for j, s in enumerate((0.10, 0.11, 0.12))]
    ordered, shuffled = tmp_path / "ordered", tmp_path / "shuffled"
    ordered.mkdir()
    shuffled.mkdir()
    for j, rec in enumerate(recs):
        (ordered / f"r{j}.json").write_text(json.dumps(rec))
        flipped = dict(reversed(list(rec.items())))
        (shuffled / f"r{2 - j}.json").write_text(json.dumps(flipped))
    want = _obs(capsys, "trajectory", str(ordered))
    assert want[0] == 1 and want == _obs(capsys, "trajectory", str(shuffled))
    want = _obs(capsys, "compare", str(ordered / "r0.json"),
                str(ordered / "r2.json"))
    assert want[0] == 1
    assert want == _obs(capsys, "compare", str(shuffled / "r2.json"),
                        str(shuffled / "r0.json"))


# -- health: truncated, reordered and wrongly typed metrics streams ----------

_GROUP = {"grad_l2": 0.5, "grad_nan": 0, "grad_inf": 0, "grad_n": 64,
          "grad_sat_frac": 0.0, "grad_sub_frac": 0.0, "update_ratio": 1e-3}


def _metrics_rows(loss2=40.0):
    """A two-step FP16 recording: a step row and a numerics event each."""
    rows = [{"event": "header", "config_hash": "abc"}]
    for step, loss in ((1, 40.0), (2, loss2)):
        rows.append({"step": step, "loss": loss, "num_tokens": 10,
                     "wall_s": 0.1, "applied": True, "loss_scale": 128.0})
        rows.append({"event": "numerics", "step": step, "loss": loss,
                     "num_tokens": 10, "loss_scale": 128.0,
                     "groups": {"enc.0": dict(_GROUP)}})
    return rows


def _health(tmp_path, capsys, lines):
    path = tmp_path / "m.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    code, out, err = _obs(capsys, "health", str(path))
    assert "Traceback" not in err
    return code, out, err


def _jsonl(rows):
    return [json.dumps(r) for r in rows]


_WRONG_TYPES = {"null": None, "string": "3", "list": [3], "dict": {"v": 3}}


def _typed_cases():
    for field in ("step", "loss", "num_tokens", "loss_scale"):
        for row, index in (("step_row", 1), ("numerics_row", 2)):
            for name, value in _WRONG_TYPES.items():
                # a null loss scale is a run without one (FP32)
                want = 0 if (field, name) == ("loss_scale", "null") else 2
                yield pytest.param(index, (field,), value, want,
                                   id=f"{row}-{field}-{name}")
    for name, value in _WRONG_TYPES.items():
        yield pytest.param(2, ("groups", "enc.0", "grad_l2"), value, 2,
                           id=f"groups_stat-{name}")
    yield pytest.param(2, ("groups", "enc.0", "grad_nan"), float("inf"), 2,
                       id="groups_count-infinite")
    yield pytest.param(1, ("num_tokens",), 10 ** 400, 2,
                       id="step_row-num_tokens-past_float_range")
    yield pytest.param(2, ("groups",), [1], 2, id="groups-list")
    yield pytest.param(2, ("groups", "enc.0"), 5, 2, id="groups-row_number")
    yield pytest.param(2, ("activations",), "x", 2, id="activations-string")


@pytest.mark.parametrize("index, path, value, want", _typed_cases())
def test_health_wrongly_typed_field(tmp_path, capsys, index, path, value,
                                    want):
    rows = _metrics_rows()
    target = rows[index]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, _, err = _health(tmp_path, capsys, _jsonl(rows))
    assert code == want, err
    if want == 2:
        assert err.startswith("error:"), err


@pytest.mark.parametrize("value", _WRONG_TYPES.values(), ids=_WRONG_TYPES)
def test_health_wrongly_typed_anomaly_step(tmp_path, capsys, value):
    rows = _metrics_rows() + [{"event": "anomaly", "kind": "loss_spike",
                               "step": value, "severity": "warn"}]
    code, _, err = _health(tmp_path, capsys, _jsonl(rows))
    assert code == 2 and err.startswith("error:"), err


def test_health_well_formed_stream_is_healthy(tmp_path, capsys):
    """The base the typed cases skew is itself usable, healthy input."""
    code, out, _ = _health(tmp_path, capsys, _jsonl(_metrics_rows()))
    assert code == 0 and "HEALTHY" in out


@pytest.mark.parametrize("where", ["truncated_tail", "garbage_middle"])
def test_health_skips_unparseable_lines(tmp_path, capsys, where):
    lines = _jsonl(_metrics_rows())
    if where == "truncated_tail":
        lines[-1] = lines[-1][:len(lines[-1]) // 2]
    else:
        lines.insert(2, "{not json")
    code, _, err = _health(tmp_path, capsys, lines)
    assert code == 4 and "skipped 1 unparseable line" in err


@pytest.mark.parametrize("loss2, want", [(40.0, 0), (float("nan"), 1)],
                         ids=["healthy", "nonfinite_loss"])
def test_health_reordered_lines_read_the_same(tmp_path, capsys, loss2, want):
    lines = _jsonl(_metrics_rows(loss2))
    code, out, _ = _health(tmp_path, capsys, lines)
    assert code == want
    assert _health(tmp_path, capsys, lines[::-1])[0] == want


# -- the skews that tracebacked before the documents were declared -----------

#: a trace as ``repro.train --trace-out`` stamps it: every ``otherData``
#: field and every kernel-slice arg present (attn_impl tiled, so the
#: default what-ifs need no fused attention kernel)
_TRACE_META = {"gpu": "V100", "world_size": 2, "grad_elems": 4096,
               "itemsize": 2,
               "attn": {"head_dim": 8, "tile_q": 128, "tile_k": 128,
                        "causal": True, "attn_impl": "tiled",
                        "mask_elems": 0}}


def _trace_sample():
    launch = KernelLaunch("gemm_qkv", 1000, 1000, flops=2_000_000,
                          dtype_bytes=2, stage="forward", lib="lightseq2",
                          family="gemm")
    return perfetto_trace(kernels=[launch], spec=V100,
                          metadata=copy.deepcopy(_TRACE_META))


def _kernel_index(trace):
    return next(i for i, ev in enumerate(trace["traceEvents"])
                if ev.get("cat") == "kernel")


def _traceback_cases():
    trace = _trace_sample()
    k = _kernel_index(trace)
    for path, value, field in (
            (("otherData", "world_size"), [2], "otherData.world_size"),
            (("otherData", "grad_elems"), {"n": 1}, "otherData.grad_elems"),
            (("otherData", "itemsize"), None, "otherData.itemsize"),
            (("traceEvents", k, "args", "flops"), [1],
             f"traceEvents[{k}].args.flops")):
        yield pytest.param("profile", _skew(trace, path, value), [], field,
                           id=f"profile-{field}")
    for path, value, field in (
            (("peak", "demand_bytes"), "1024", "peak.demand_bytes"),
            (("shape_plan", "base", "batch"), [2], "shape_plan.base.batch"),
            (("shape_plan", "requests", 0, "dtype"), ["float32"],
             "shape_plan.requests[0].dtype"),
            (("shape_plan", "base", "attn"), [1], "shape_plan.base.attn")):
        yield pytest.param("memory", _skewed_memory(path, value),
                           ["--whatif", "seq_len=16"], field,
                           id=f"memory-{field}")


@pytest.mark.parametrize("sub, doc, args, field", _traceback_cases())
def test_wrongly_typed_field_is_named(tmp_path, capsys, sub, doc, args,
                                      field):
    """Exit 2 with one ``error:`` line naming the file and the dotted
    path of the field (each of these raised a TypeError before)."""
    done = _run(tmp_path, capsys, sub, doc, *args)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "doc.json" in done.stderr
    assert field in done.stderr, done.stderr


@pytest.fixture(scope="module")
def gpt_trace(tmp_path_factory):
    """A real ``repro.train --trace-out`` of one GPT step: its fused
    attention kernels make the tiled what-if run by default."""
    path = tmp_path_factory.mktemp("gpt") / "t.json"
    assert train_main(["--task", "gpt", "--steps", "1", "--max-tokens",
                       "256", "--trace-out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("field", ["head_dim", "tile_q", "tile_k"])
def test_zero_attention_size_is_refused(tmp_path, capsys, gpt_trace, field):
    """A zero head dim or tile divided by zero in the tiled what-if."""
    doc = _skew(gpt_trace, ("otherData", "attn", field), 0)
    done = _run(tmp_path, capsys, "profile", doc)
    assert done.returncode == 2, done.stderr
    assert f"otherData.attn.{field} is 0, not a positive integer" \
        in done.stderr


def test_zero_itemsize_is_refused(tmp_path, capsys):
    """A zero gradient item size divided by zero sizing the buckets."""
    doc = _skew(_trace_sample(), ("otherData", "itemsize"), 0)
    done = _run(tmp_path, capsys, "profile", doc)
    assert done.returncode == 2, done.stderr
    assert "otherData.itemsize is 0" in done.stderr


@pytest.mark.parametrize("args, message", [
    (["--world", "2", "--itemsize", "0"], "--itemsize is 0"),
    (["--head-dim", "0"], "--head-dim is 0"),
    (["--head-dim", "16", "--tile-q", "0"], "--tile-q is 0"),
    (["--head-dim", "16", "--tile-k", "-4"], "--tile-k is -4"),
    (["--world", "-1"], "--world is -1"),
    (["--world", "0"], "--world is 0"),
])
def test_bad_override_is_refused(tmp_path, capsys, args, message):
    """An override flag is held to the kind of the trace stamp it
    replaces: a zero size divided by zero (exit 1, the "gate failed"
    code, with a traceback) and a negative world was accepted (exit 0)."""
    done = _run(tmp_path, capsys, "profile", _trace_sample(), *args)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: {message}, not a positive integer\n"


# -- generated fuzz: every declared field of every document ------------------
#
# Each declared position is set in turn to each of schema_fuzz.WRONG.  The
# obs front door must answer with an exit code, never an exception: 2
# (with an ``error:`` line) for a value the declaration refuses, else the
# CLI's verdict on the usable document (compare and health may find a
# regression or an anomaly in a value they accept, such as a NaN loss).

def _fuzz(tmp_path, capsys, cases, sub, *args):
    for label, doc in cases:
        done = _run(tmp_path, capsys, sub, doc, *args)
        assert done.returncode in (0, 2), (label, done.stderr)
        if done.returncode == 2:
            assert done.stderr.startswith("error:"), (label, done.stderr)


def test_profile_fuzz(tmp_path, capsys):
    trace = _trace_sample()
    assert _run(tmp_path, capsys, "profile", trace).returncode == 0
    cases = [*skewed(TRACE, trace),
             *skewed(KERNEL_SLICE, trace,
                     at=("traceEvents", _kernel_index(trace)))]
    _fuzz(tmp_path, capsys, cases, "profile")


def _memory_full():
    """Every part of a memory report populated, down to a lifetime-sharing
    plan and the OOM forensics with one live slot."""
    doc = copy.deepcopy(_MEMORY)
    doc["peak"].update(waste_bytes=0, padding_bytes=0, slack_bytes=0,
                       sharing_saved_bytes=0)
    row = doc["attribution"]["by_site"][0]
    doc["attribution"].update(by_stage=[dict(row, key="forward")],
                              by_family=[dict(row, key="attention")])
    plan = doc["shape_plan"]
    plan["base"]["attn"] = dict(_TRACE_META["attn"])
    plan["requests"][0].update(site="attn", plan=0)
    plan["plans"] = [{"entries": [["q", [2, 16, 8], "float32", 0, 1],
                                  ["k", [2, 16, 8], "float32", 1, 2]]}]
    doc["oom"] = dict(_OOM, requested_shape=[2, 16, 8], site="attn",
                      live_slots=[{"site": "attn", "bytes": 512}],
                      hints=["a hint"])
    return doc


def test_memory_fuzz(tmp_path, capsys):
    doc = _memory_full()
    assert _run(tmp_path, capsys, "memory", doc,
                *_MEMORY_ARGS).returncode == 0
    _fuzz(tmp_path, capsys, skewed(MEMORY_REPORT, doc), "memory",
          *_MEMORY_ARGS)


def _full_record():
    rec = _run_record(0, 0.1)
    rec["provenance"]["git_sha"] = "a" * 40
    rec["memory"] = {k: 1024 for k in MEMORY_BYTES}
    rec["metrics"] = [StepMetrics(step=1, loss=4.0, num_tokens=100,
                                  wall_s=1.0, loss_scale=128.0).as_dict()]
    return rec


def test_run_record_fuzz(tmp_path, capsys):
    """compare refuses a skewed record exactly when trajectory skips it,
    and health reads the same record's step rows."""
    series = tmp_path / "series"
    series.mkdir()
    (series / "r0.json").write_text(json.dumps(_run_record(0, 0.1)))
    rec = _full_record()
    for label, doc in [("sample", rec), *skewed(GATED_RECORD, rec)]:
        path = series / "r1.json"
        path.write_text(json.dumps(doc))
        code, _, err = _obs(capsys, "compare", str(path), str(path))
        assert code in (0, 2), (label, err)
        refused = code == 2
        assert not refused or err.startswith("error:"), (label, err)
        code, _, err = _obs(capsys, "trajectory", str(series))
        assert code == 4 if refused else code in (0, 1), (label, code, err)
        code, _, err = _obs(capsys, "health", str(path))
        assert code in (0, 1, 2), (label, err)
        assert code != 2 or err.startswith("error:"), (label, err)


def _stream_rows():
    stats = TensorStats(n=64, total_n=64, l2=0.5)
    numerics = StepNumerics(step=1, loss=40.0, num_tokens=10,
                            loss_scale=128.0,
                            groups={"enc.0": {**stats.as_dict("grad_"),
                                              "grad_l2_unscaled": 0.5,
                                              "param_l2": 1.0,
                                              "update_ratio": 1e-3}},
                            activations={"enc.0.out": stats.as_dict()})
    return [{"event": "header", "config_hash": "abc"},
            StepMetrics(step=1, loss=40.0, num_tokens=10, wall_s=0.1,
                        loss_scale=128.0).as_dict(),
            {"event": "numerics", **numerics.as_dict()},
            {"event": "anomaly",
             **Anomaly("loss_spike", 1, layer="enc.0", detail="d",
                       severity="warn").as_dict()}]


def test_health_fuzz(tmp_path, capsys):
    rows = _stream_rows()
    cases = [*skewed(STEP_ROW, rows, at=(1,)),
             *skewed(NUMERICS_ROW, rows, at=(2,)),
             *skewed(ANOMALY_ROW, rows, at=(3,))]
    for label, doc in [("sample", rows), *cases]:
        code, _, err = _health(tmp_path, capsys, _jsonl(doc))
        assert code in (0, 1, 2), (label, err)
        assert code != 2 or err.startswith("error:"), (label, err)
