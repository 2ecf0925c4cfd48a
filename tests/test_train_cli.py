"""The `python -m repro.train` CLI across tasks, precisions, resume."""

import numpy as np
import pytest

from repro.train import build_parser, main

from .ckpt_file import members


def _assert_same_checkpoint(dir_a, dir_b, name):
    """Two runs' checkpoint files hold the same members, bit for bit (the
    manifest too: step, RNG streams, counters, scaler state)."""
    a, b = members(f"{dir_a}/{name}"), members(f"{dir_b}/{name}")
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.task == "mt" and args.trainer == "lightseq"
        assert not args.fp16 and not args.no_fused

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--task", "diffusion"])


@pytest.mark.parametrize("task", ["mt", "gpt", "bert", "vit"])
def test_every_task_trains(task, capsys):
    rc = main(["--task", task, "--steps", "3", "--max-tokens", "128",
               "--log-interval", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"task={task}" in out
    assert "loss/tok" in out and "tok/s wall" in out


def test_fp16_naive_trainer(capsys):
    rc = main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
               "--fp16", "--trainer", "naive", "--log-interval", "1"])
    assert rc == 0
    assert "fp16=True" in capsys.readouterr().out


def test_no_fused_path(capsys):
    rc = main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
               "--no-fused", "--log-interval", "1"])
    assert rc == 0
    assert "fused=False" in capsys.readouterr().out


def test_save_and_resume(tmp_path, capsys):
    d = str(tmp_path / "ck")
    assert main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
                 "--save-dir", d, "--log-interval", "1"]) == 0
    assert main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
                 "--save-dir", d, "--resume", "--log-interval", "1"]) == 0
    out = capsys.readouterr().out
    assert "resumed from" in out and "at step 2" in out
    assert [p.name for p in (tmp_path / "ck").iterdir()] == [
        "step-00000002.ckpt.npz"]


def test_resume_requires_save_dir(capsys):
    assert main(["--task", "mt", "--steps", "1", "--resume"]) == 2


def test_trace_and_metrics_out(tmp_path, capsys):
    """--trace-out/--metrics-out emit a Perfetto trace + JSONL metrics."""
    import json
    trace_path = tmp_path / "step.trace.json"
    metrics_path = tmp_path / "step.metrics.jsonl"
    rc = main(["--task", "mt", "--steps", "3", "--max-tokens", "128",
               "--log-interval", "1",
               "--trace-out", str(trace_path),
               "--metrics-out", str(metrics_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace written to" in out and "metrics written to" in out

    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert events
    stages = {e["args"]["stage"] for e in events
              if e.get("cat") == "stage"}
    assert {"forward", "backward", "update"} <= stages
    span_names = {e["name"] for e in events if e.get("cat") == "span"}
    assert {"train/step", "train/forward", "train/backward",
            "train/update"} <= span_names
    kernels = [e for e in events if e.get("cat") == "kernel"]
    assert kernels and all("bytes" in e["args"] for e in kernels)

    lines = [json.loads(l) for l in metrics_path.read_text().splitlines()]
    header = [m for m in lines if m.get("event") == "header"]
    assert len(header) == 1 and "config_hash" in header[0]
    steps = [m for m in lines if "event" not in m]
    assert [m["step"] for m in steps] == [1, 2, 3]
    for m in steps:
        for key in ("loss", "num_tokens", "tokens_per_s", "loss_scale",
                    "applied", "new_allocs", "comm_hidden_s",
                    "comm_exposed_s", "skip_streak", "scale_growths"):
            assert key in m, key


def test_trace_out_then_obs_profile(tmp_path, capsys):
    """A traced run's ``--trace-out`` file is all ``repro.obs profile``
    needs: ``--out`` writes the ``--json`` document, schema-tagged, its
    critical path spanning exactly the timeline, the comm-free what-if
    always answered."""
    import json

    from repro.obs.__main__ import main as obs_main
    trace_path = tmp_path / "step.trace.json"
    profile_path = tmp_path / "step.profile.json"
    assert main(["--task", "gpt", "--steps", "2", "--max-tokens", "256",
                 "--log-interval", "1", "--trace-out", str(trace_path)]) == 0
    capsys.readouterr()
    assert obs_main(["profile", str(trace_path), "--json",
                     "--out", str(profile_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(profile_path.read_text())
    assert doc["schema"] == "repro.obs.profile/v1"
    assert doc["launch_count"] > 0
    assert doc["critical_path"]["total_s"] == doc["timeline"]["total_s"]
    assert "comm_free" in {w["scenario"] for w in doc["whatif"]}


def test_numerics_every_emits_events(tmp_path, capsys):
    """--numerics-every samples tensor health into the metrics stream."""
    import json
    metrics_path = tmp_path / "m.jsonl"
    rc = main(["--task", "mt", "--steps", "4", "--max-tokens", "128",
               "--log-interval", "4", "--fp16",
               "--numerics-every", "2", "--metrics-out", str(metrics_path)])
    assert rc == 0
    assert "numerics:" in capsys.readouterr().out
    lines = [json.loads(l) for l in metrics_path.read_text().splitlines()]
    numerics = [m for m in lines if m.get("event") == "numerics"]
    assert [m["step"] for m in numerics] == [1, 2, 3, 4]
    sampled = [m for m in numerics if m["groups"]]
    assert [m["step"] for m in sampled] == [2, 4]     # the cadence
    rec = sampled[0]
    assert rec["loss_scale"] is not None
    group = next(iter(rec["groups"].values()))
    assert {"grad_l2", "grad_nan", "grad_sat_frac", "update_ratio",
            "param_l2"} <= set(group)
    assert rec["activations"]                         # layer taps fired
    # a fresh fp16 model backing off from the init scale may log warns
    # (attributed overflow skips) but never error-severity anomalies
    anomalies = [m for m in lines if m.get("event") == "anomaly"]
    assert all(a["severity"] == "warn" for a in anomalies)


def test_numerics_anomalies_in_trace(tmp_path, capsys):
    """Anomaly instants ride along in the Perfetto export (none when
    healthy — just assert the trace still loads with numerics on)."""
    import json
    trace_path = tmp_path / "t.json"
    rc = main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
               "--log-interval", "2", "--numerics-every", "1",
               "--trace-out", str(trace_path)])
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    assert "numerics/collect" in {e["name"]
                                  for e in trace["traceEvents"]
                                  if e.get("cat") == "span"}


def test_attn_impl_flag(tmp_path, capsys):
    """--attn-impl tiled trains the causal task through the flash path and
    stamps the choice into the metrics stream's provenance header."""
    import json
    assert build_parser().parse_args([]).attn_impl == "auto"
    metrics_path = tmp_path / "m.jsonl"
    rc = main(["--task", "gpt", "--steps", "2", "--max-tokens", "128",
               "--attn-impl", "tiled", "--log-interval", "1",
               "--metrics-out", str(metrics_path)])
    assert rc == 0
    assert "loss/tok" in capsys.readouterr().out
    header = json.loads(metrics_path.read_text().splitlines()[0])
    assert header["event"] == "header" and header["attn_impl"] == "tiled"


def test_attn_impl_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--attn-impl", "quadratic"])


class TestResilienceCli:
    def _plan(self, tmp_path, faults):
        import json
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"seed": 3, "faults": faults}))
        return str(p)

    def test_checkpoint_every_requires_save_dir(self, capsys):
        assert main(["--task", "mt", "--steps", "1",
                     "--checkpoint-every", "2"]) == 2

    def test_injected_crash_exits_4_and_resume_auto_is_bit_identical(
            self, tmp_path, capsys):
        """The acceptance path: crash at step 4 via a fault plan, restart
        with --resume, final crash-safe checkpoint bitwise equals an
        uninterrupted run's."""
        import numpy as np
        base = ["--task", "mt", "--steps", "6", "--max-tokens", "128",
                "--fp16", "--log-interval", "6", "--checkpoint-every", "2"]
        clean_d, crash_d = str(tmp_path / "clean"), str(tmp_path / "crash")
        assert main(base + ["--save-dir", clean_d]) == 0
        plan = self._plan(tmp_path, [
            {"site": "replica.crash", "kind": "crash", "step": 4}])
        assert main(base + ["--save-dir", crash_d,
                            "--fault-plan", plan]) == 4
        out = capsys.readouterr().out
        assert "CRASHED (injected)" in out and "step 4" in out
        assert main(base + ["--save-dir", crash_d, "--resume"]) == 0
        assert "resumed from" in capsys.readouterr().out
        _assert_same_checkpoint(clean_d, crash_d, "step-00000006.ckpt.npz")

    def test_periodic_checkpoints_then_bare_resume_is_bit_identical(
            self, tmp_path, capsys):
        """Periodic checkpoints and the final one are the same protocol: a
        run stopped after step 2 and continued with bare --resume picks the
        loop up at step 3 (RNG state restored) and ends bitwise equal to an
        uninterrupted 4-step run.  (With two protocols this died with
        FileNotFoundError: checkpoint.model.npz.)"""
        base = ["--task", "bert", "--max-tokens", "8", "--fp16",
                "--log-interval", "4", "--checkpoint-every", "1"]
        clean_d, split_d = str(tmp_path / "clean"), str(tmp_path / "split")
        assert main(base + ["--steps", "4", "--save-dir", clean_d]) == 0
        assert main(base + ["--steps", "2", "--save-dir", split_d]) == 0
        capsys.readouterr()
        assert main(base + ["--steps", "4", "--save-dir", split_d,
                            "--resume"]) == 0
        assert "at step 2 (trainer step" in capsys.readouterr().out
        _assert_same_checkpoint(clean_d, split_d, "step-00000004.ckpt.npz")

    def test_torn_checkpoint_write_is_survivable(self, tmp_path, capsys):
        """A checkpoint torn mid-write exits 4; --resume falls back
        to the previous good checkpoint and finishes cleanly."""
        d = str(tmp_path / "ck")
        base = ["--task", "mt", "--steps", "6", "--max-tokens", "128",
                "--log-interval", "6", "--checkpoint-every", "2",
                "--save-dir", d]
        plan = self._plan(tmp_path, [
            {"site": "checkpoint.write", "kind": "torn", "after": 1}])
        assert main(base + ["--fault-plan", plan]) == 4
        assert "torn checkpoint write" in capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "checkpoint written" in out

    def test_crash_hint_names_the_resume_flag(self, tmp_path, capsys):
        plan = self._plan(tmp_path, [
            {"site": "replica.crash", "kind": "crash", "step": 1}])
        assert main(["--task", "bert", "--steps", "1", "--max-tokens", "8",
                     "--fault-plan", plan]) == 4
        assert "resume with '--resume'\n" in capsys.readouterr().out

    @pytest.mark.parametrize("keep", ["0", "-2"])
    def test_keep_below_one_exits_2(self, keep, tmp_path, capsys):
        assert main(["--task", "mt", "--steps", "1", "--keep", keep,
                     "--save-dir", str(tmp_path)]) == 2
        assert "--keep must be >= 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--log-interval", "0"], "--log-interval must be >= 1"),
        (["--warmup", "0"], "--warmup must be >= 1"),
        (["--max-tokens", "0"], "--max-tokens must be >= 1"),
        (["--anomaly-dump", "snap.json"],
         "--anomaly-dump requires --halt-on-anomaly"),
        (["--fault-seed", "7"], "--fault-seed requires --fault-plan"),
    ])
    def test_ignored_or_crashing_flag_combination_exits_2(
            self, flags, message, capsys):
        """Each of these used to crash with a traceback (ZeroDivisionError,
        ValueError), train on empty batches, or be silently dropped."""
        assert main(["--task", "mt", "--steps", "1"] + flags) == 2
        assert capsys.readouterr().out.strip() == message

    def test_fault_plan_digest_in_provenance_header(self, tmp_path, capsys):
        import json
        metrics = tmp_path / "m.jsonl"
        plan = self._plan(tmp_path, [
            {"site": "replica.crash", "kind": "crash", "step": 999}])
        rc = main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
                   "--log-interval", "2", "--fault-plan", plan,
                   "--fault-seed", "11", "--metrics-out", str(metrics)])
        assert rc == 0                                  # plan never fires
        header = json.loads(metrics.read_text().splitlines()[0])
        assert header["event"] == "header"
        assert header["fault_seed"] == 11
        assert len(header["fault_plan_digest"]) == 12

    def test_resume_into_another_trainer_exits_2(self, tmp_path, capsys):
        """A checkpoint of another trainer kind is refused with one line,
        not a traceback; skipping it would silently start fresh."""
        d = str(tmp_path / "ck")
        base = ["--task", "mt", "--steps", "1", "--max-tokens", "128",
                "--log-interval", "1", "--save-dir", d]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--trainer", "naive", "--resume"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("--resume: checkpoint step 1: trainer kind")

    def test_resume_auto_with_empty_dir_starts_fresh(self, tmp_path, capsys):
        d = str(tmp_path / "empty")
        rc = main(["--task", "mt", "--steps", "2", "--max-tokens", "128",
                   "--log-interval", "2", "--save-dir", d,
                   "--checkpoint-every", "2", "--resume"])
        assert rc == 0
        assert "starting fresh" in capsys.readouterr().out


def test_parameters_independent_of_blas_threads(tmp_path):
    """``import repro`` pins BLAS to one thread: an MT run asked for one
    and for two OpenBLAS threads writes byte-identical parameters, and the
    manifest records the pinned count.  (Unpinned, the weight-gradient
    GEMMs reduce in a thread-dependent order and most tensors differ.)"""
    import json
    import os
    import subprocess
    import sys
    root = os.path.join(os.path.dirname(__file__), "..")
    params = []
    for threads in ("1", "2"):
        d = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-m", "repro.train", "--task", "mt",
             "--steps", "3", "--save-dir", str(d), "--checkpoint-every", "3"],
            env=env, cwd=root, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        arrays = members(d / "step-00000003.ckpt.npz")
        assert json.loads(bytes(arrays["__manifest"]))["blas_threads"] == 1
        params.append({k: a.tobytes() for k, a in arrays.items()
                       if k.startswith("model/")})
    assert params[0].keys() == params[1].keys()
    assert [k for k in params[0] if params[0][k] != params[1][k]] == []
