"""The `python -m repro.bench` CLI."""

import pytest

from repro.bench.__main__ import main


def test_unknown_experiment_rejected(capsys):
    assert main(["not_a_figure"]) == 2
    assert "unknown experiments" in capsys.readouterr().out


def test_runs_named_experiment(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    assert main(["fig01"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1 companion" in out
    assert "all shape claims hold" in out


def test_record_dir_writes_bench_record(tmp_path, capsys, monkeypatch):
    """--record-dir populates BENCH_<name>.json with table + claims."""
    from repro.obs.runrecord import load_run_record
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    out_dir = tmp_path / "recs"          # created on demand
    assert main(["fig01", "--record-dir", str(out_dir)]) == 0
    path = out_dir / "BENCH_fig01.json"
    assert path.exists()
    rec = load_run_record(str(path))
    assert rec["name"] == "fig01"
    assert rec["table"]["rows"]
    assert all("holds" in c for c in rec["claims"])
    assert rec["counters"]["claims_failed"] == 0


def test_record_dir_needs_value(capsys):
    assert main(["--record-dir"]) == 2
    assert "needs a directory" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys, monkeypatch):
    """A flag the CLI does not know is an error, not a silent full run."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    assert main(["--quick"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown option --quick")
    assert captured.out == ""
