"""``python -m repro.obs.profile``: trace round-trip, report, overrides."""

import json

import pytest

from repro.backend.device import Device, use_device
from repro.obs.perfetto import (perfetto_trace, read_trace, trace_kernels,
                                write_trace)
from repro.obs.profile import (PROFILE_SCHEMA, analyze, default_scenarios,
                               main, step_inputs_from_trace)
from repro.sim.gpu_specs import V100


def _trace_doc(metadata=None):
    dev = Device()
    with use_device(dev):
        with dev.stage_scope("forward"):
            dev.record("gemm_qkv", 500_000, 500_000, flops=2_000_000_000,
                       family="gemm")
            dev.record("softmax_fwd", 250_000, 250_000, family="softmax")
        with dev.stage_scope("backward"):
            dev.record("gemm_qkv_dw", 500_000, 500_000,
                       flops=4_000_000_000, family="gemm")
        with dev.stage_scope("update"):
            dev.record("ls_fused_adam", 750_000, 750_000, family="optimizer")
    return perfetto_trace(kernels=dev.launches, spec=V100,
                          metadata=metadata), dev.launches


def _write(tmp_path, metadata=None):
    doc, launches = _trace_doc(metadata)
    path = str(tmp_path / "trace.json")
    write_trace(path, doc)
    return path, launches


class TestRoundTrip:
    def test_kernels_survive_the_trace_file(self, tmp_path):
        path, launches = _write(tmp_path)
        back = trace_kernels(read_trace(path))
        assert back == list(launches)

    def test_old_trace_without_elem_args_rejected(self, tmp_path):
        doc, _ = _trace_doc()
        for e in doc["traceEvents"]:
            if e.get("cat") == "kernel":
                e["args"].pop("elems_read", None)
        with pytest.raises(ValueError, match="elems"):
            trace_kernels(doc)

    def test_read_trace_rejects_non_trace(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"foo": 1}')
        with pytest.raises(ValueError, match="trace_event"):
            read_trace(str(p))


class TestStepInputs:
    def test_metadata_stamps_read_back(self, tmp_path):
        meta = {"gpu": "A100", "world_size": 8, "grad_elems": 1_000_000,
                "itemsize": 2, "attn": {"head_dim": 64}}
        path, _ = _write(tmp_path, metadata=meta)
        inp = step_inputs_from_trace(read_trace(path))
        assert inp.spec.name == "A100"
        assert inp.world_size == 8
        assert inp.itemsize == 2
        assert inp.buckets          # synthesized from grad_elems
        assert inp.attn == {"head_dim": 64}

    def test_cli_overrides_beat_stamps(self, tmp_path):
        path, _ = _write(tmp_path, metadata={"gpu": "A100"})
        inp = step_inputs_from_trace(read_trace(path), gpu="V100",
                                     world=2, grad_elems=100)
        assert inp.spec.name == "V100"
        assert inp.world_size == 2

    def test_unknown_gpu_rejected(self, tmp_path):
        path, _ = _write(tmp_path)
        with pytest.raises(ValueError, match="unknown GPU"):
            step_inputs_from_trace(read_trace(path), gpu="TPUv9")

    def test_analysis_prices_each_step_model_once(self, tmp_path,
                                                  monkeypatch):
        """One ``analyze`` prices the trace once for the roofline, once
        for the step model (its timeline, schedule and critical path
        share it) and once per what-if step model — never per query."""
        import repro.obs.roofline as roofline
        import repro.sim.timeline as timeline
        calls = []
        for mod in (roofline, timeline):
            real = mod.trace_cost
            monkeypatch.setattr(
                mod, "trace_cost",
                lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
        path, _ = _write(tmp_path, metadata={"world_size": 2,
                                             "grad_elems": 100_000})
        inputs = step_inputs_from_trace(read_trace(path))
        scenarios = ["comm_free", "no_overlap", "gpu=A100", "world=4"]
        rep = analyze(inputs, scenarios)
        assert len(calls) == 2 + len(scenarios)
        assert rep.path.total_s == inputs.timeline().total_s
        assert len(calls) == 2 + len(scenarios)      # still cached


class TestCLI:
    def test_text_report(self, tmp_path, capsys):
        path, _ = _write(tmp_path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "roofline attribution" in out
        assert "critical path" in out
        assert "what-if" in out

    def test_json_report_schema(self, tmp_path, capsys):
        path, _ = _write(tmp_path, metadata={"gpu": "V100"})
        out_file = str(tmp_path / "report.json")
        assert main([path, "--json", "--out", out_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["launch_count"] == 4
        assert doc["critical_path"]["nodes"]
        assert doc == json.load(open(out_file))
        # attribution covers the whole path
        attr = doc["critical_path"]["attribution_s"]
        assert "host" in attr
        assert sum(attr.values()) == pytest.approx(
            doc["critical_path"]["total_s"])

    def test_whatif_flag(self, tmp_path, capsys):
        path, _ = _write(tmp_path)
        assert main([path, "--whatif", "gpu=H100", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [w["scenario"] for w in doc["whatif"]] == ["gpu=H100"]
        assert doc["whatif"][0]["speedup"] > 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2

    def test_json_is_the_analysis_of_the_trace(self, tmp_path, capsys):
        path, _ = _write(tmp_path, metadata={"gpu": "V100"})
        inp = step_inputs_from_trace(read_trace(path))
        doc = analyze(inp, default_scenarios(inp)).as_dict()
        assert doc["timeline"]["total_s"] > 0
        assert main([path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == doc
