"""Bench trajectory: history ordering, budget regressions, CLI gating."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.runrecord import make_run_record, write_run_record
from repro.obs.trajectory import (TRAJECTORY_SCHEMA, compare_main,
                                  diff_records, load_trajectory,
                                  lower_is_better, main, metric_values)


def _record(i, step_s, *, name="gpt_speed", tok_s=None, sha=None):
    """A run record pinned to position ``i`` in synthetic history."""
    rec = make_run_record(
        name,
        stage_seconds={"forward": step_s * 0.4, "backward": step_s * 0.6},
        counters={"launches": 100.0},
        metrics=([{"step": 1, "num_tokens": int(tok_s), "wall_s": 1.0,
                   "applied": True}]
                 if tok_s is not None else None))
    # pin a deterministic place in history (real records get this from
    # the git committer timestamp)
    rec["provenance"]["order_key"] = f"{1000 + i:012d}-{(sha or 'a' * 12)}"
    return rec


def _write(tmp_path, recs):
    for j, rec in enumerate(recs):
        write_run_record(str(tmp_path / f"r{j}.json"), rec)
    return str(tmp_path)


class TestIngestion:
    def test_orders_by_history_not_filename(self, tmp_path):
        # written in shuffled filename order; order keys disagree with it
        d = _write(tmp_path, [_record(2, 0.30), _record(0, 0.10),
                              _record(1, 0.20)])
        traj = load_trajectory(d)
        vals = [p.value for p in traj.series["step_total_s"]]
        assert vals == pytest.approx([0.10, 0.20, 0.30])

    def test_every_checked_in_baseline_carries_an_order_key(self):
        """Without one the trajectory silently orders by file mtime, which
        a fresh clone resets."""
        base = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "baselines")
        traj = load_trajectory(base)
        assert traj.records and not traj.skipped
        for key, path, rec in traj.records:
            sha = rec["provenance"]["git_sha"]
            assert key == rec["provenance"]["order_key"], path
            assert key.endswith("-" + sha[:12]), path

    def test_invalid_file_skipped_with_reason(self, tmp_path):
        d = _write(tmp_path, [_record(0, 0.1)])
        (tmp_path / "torn.json").write_text('{"schema": "repro.obs.run')
        traj = load_trajectory(d)
        assert len(traj.records) == 1
        assert len(traj.skipped) == 1
        assert "torn.json" in traj.skipped[0][0]

    @pytest.mark.parametrize("section, value", [
        ("stage_seconds", {"f": "abc"}),                # string value
        ("counters", [1, 2]),                           # list, not dict
        ("metrics", [{"step": 1, "num_tokens": 4}]),    # row without wall_s
        ("memory", {"peak_demand_bytes": True}),        # bool, not number
        ("provenance", [1]),                            # list, not dict
    ])
    def test_schema_skewed_record_skipped_whole(self, tmp_path, capsys,
                                                section, value):
        """Passes ``load_run_record`` but cannot be flattened: the whole
        record is skipped with a reason (not half-ingested), the rest of
        the directory gates exactly as without it, and ``compare`` refuses
        the same file by name — never a traceback."""
        good = [_record(0, 0.100), _record(1, 0.110)]
        clean = tmp_path / "clean"
        clean.mkdir()
        expected = main([_write(clean, good)])
        skewed = _record(2, 0.05)       # would be the best point if read
        skewed[section] = value
        d = _write(tmp_path, good + [skewed])
        traj = load_trajectory(d)
        assert len(traj.records) == 2
        ((path, why),) = traj.skipped
        assert path.endswith("r2.json") and section in why
        assert all(len(pts) == 2 for pts in traj.series.values())
        assert main([d]) == expected == 1
        capsys.readouterr()
        assert compare_main([str(tmp_path / "r0.json"), path]) == 2
        captured = capsys.readouterr()
        assert "r2.json" in captured.err and section in captured.err
        assert captured.out == ""

    def test_missing_directory_raises(self):
        with pytest.raises(ValueError, match="does not exist"):
            load_trajectory("/nonexistent/trajectory/dir")

    def test_metric_values_flatten(self):
        vals = metric_values(_record(0, 0.1, tok_s=5000.0))
        assert vals["step_total_s"] == pytest.approx(0.1)
        assert "stage_seconds.forward" in vals
        assert "counters.launches" in vals
        assert vals["metrics.tokens_per_s"] == pytest.approx(5000.0)

    def test_directions(self):
        assert lower_is_better("step_total_s") is True
        assert lower_is_better("stage_seconds.backward") is True
        assert lower_is_better("metrics.tokens_per_s") is False
        assert lower_is_better("metrics.mean_loss_per_token") is None


class TestRegressionDetection:
    def test_injected_10pct_regression_detected(self, tmp_path):
        """The acceptance gate: >=3 records, a 10% step-time regression
        injected into the newest one, detected at the 5% budget."""
        d = _write(tmp_path, [_record(0, 0.100), _record(1, 0.101),
                              _record(2, 0.110)])
        regs = load_trajectory(d).detect_regressions(0.05)
        assert any(r.metric == "step_total_s"
                   and r.order_key.startswith("000000001002")
                   for r in regs)

    def test_within_budget_is_clean(self, tmp_path):
        d = _write(tmp_path, [_record(0, 0.100), _record(1, 0.102),
                              _record(2, 0.104)])
        assert load_trajectory(d).detect_regressions(0.05) == []

    def test_drift_past_best_not_just_neighbour(self, tmp_path):
        # +4% then +4% again: no adjacent diff trips 5%, the series does
        d = _write(tmp_path, [_record(0, 0.100), _record(1, 0.104),
                              _record(2, 0.108)])
        regs = load_trajectory(d).detect_regressions(0.05)
        assert any(r.metric == "step_total_s" for r in regs)

    def test_higher_is_better_drop_flagged(self, tmp_path):
        d = _write(tmp_path, [_record(0, 0.1, tok_s=5000.0),
                              _record(1, 0.1, tok_s=4000.0)])
        regs = load_trajectory(d).detect_regressions(0.05)
        assert any(r.metric == "metrics.tokens_per_s" for r in regs)


class TestCLI:
    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        d = _write(tmp_path, [_record(0, 0.100), _record(1, 0.101),
                              _record(2, 0.110)])
        out = str(tmp_path / "traj.json")
        assert main([d, "--threshold", "0.05", "--out", out]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        doc = json.load(open(out))
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert doc["regressions"]
        assert [r["order_key"] for r in doc["records"]] == sorted(
            r["order_key"] for r in doc["records"])

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        d = _write(tmp_path, [_record(0, 0.100), _record(1, 0.100)])
        assert main([d, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressions"] == []

    def test_exit_2_on_empty_dir(self, tmp_path, capsys):
        os.mkdir(tmp_path / "empty")
        assert main([str(tmp_path / "empty")]) == 2

    def test_metric_filter_does_not_ungate(self, tmp_path, capsys):
        d = _write(tmp_path, [_record(0, 0.100), _record(1, 0.110)])
        # filter the report to counters only — the step regression must
        # still gate the exit code
        assert main([d, "--metric", "counters."]) == 1
        out = capsys.readouterr().out
        assert "counters.launches" in out
        assert "step_total_s" not in out


class TestMemorySection:
    """The memory-observatory section of a run record: only ``*_bytes``
    quantities become gated metrics (peak_step is an index,
    bitwise_peak_equal a flag), and sharing_saved_bytes — the one
    higher-is-better quantity — is tracked but never gated."""

    def _mem_record(self, i, peak):
        rec = _record(i, 0.1)
        rec["memory"] = {"peak_demand_bytes": peak,
                         "capacity_bytes": peak + 1024,
                         "sharing_saved_bytes": 2048,
                         "peak_step": 3,
                         "bitwise_peak_equal": True}
        return rec

    def test_only_bytes_quantities_flatten(self):
        vals = metric_values(self._mem_record(0, 1 << 20))
        assert vals["memory.peak_demand_bytes"] == float(1 << 20)
        assert vals["memory.capacity_bytes"] == float((1 << 20) + 1024)
        assert "memory.peak_step" not in vals
        assert "memory.bitwise_peak_equal" not in vals

    def test_directions(self):
        assert lower_is_better("memory.peak_demand_bytes") is True
        assert lower_is_better("memory.capacity_bytes") is True
        assert lower_is_better("memory.waste_bytes") is True
        assert lower_is_better("memory.sharing_saved_bytes") is None

    def test_peak_growth_is_a_regression(self, tmp_path):
        d = _write(tmp_path, [self._mem_record(0, 1000_000),
                              self._mem_record(1, 1001_000),
                              self._mem_record(2, 1200_000)])
        regs = load_trajectory(d).detect_regressions(0.05)
        assert any(r.metric == "memory.peak_demand_bytes" for r in regs)

    def test_sharing_drop_is_not_gated(self, tmp_path):
        recs = [self._mem_record(0, 1000_000), self._mem_record(1, 1000_000)]
        recs[1]["memory"]["sharing_saved_bytes"] = 0     # sharing vanished
        d = _write(tmp_path, recs)
        regs = load_trajectory(d).detect_regressions(0.05)
        assert not any("sharing" in r.metric for r in regs)


_STAGES = st.dictionaries(
    st.sampled_from(["forward", "backward", "sync", "update", "data"]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=5)


class TestCompareIsTheTwoRecordCase:
    @settings(max_examples=60, deadline=None)
    @given(a=_STAGES.filter(bool), b=_STAGES,
           threshold=st.sampled_from([0.0, 0.05, 0.5]))
    def test_same_stage_rows_flagged_as_two_point_trajectory(
            self, tmp_path_factory, a, b, threshold):
        """``compare A B`` and a two-file trajectory ordered A -> B flag the
        same ``stage_seconds.*`` rows at the same threshold; the only
        pairwise extra is a stage B lacks (a shorter series, never a
        trajectory regression)."""
        recs = [make_run_record("a", stage_seconds=a),
                make_run_record("b", stage_seconds=b)]
        for i, rec in enumerate(recs):
            rec["provenance"]["order_key"] = f"{i:012d}-{'a' * 12}"
        rows = diff_records(*recs, threshold=threshold)["stages"]
        assert {r["stage"] for r in rows if r["missing"]} == set(a) - set(b)
        assert all(r["regression"] for r in rows if r["missing"])
        d = _write(tmp_path_factory.mktemp("pair"), recs)
        flagged = {r.metric for r in
                   load_trajectory(d).detect_regressions(threshold)}
        assert {f"stage_seconds.{r['stage']}" for r in rows
                if r["regression"] and not r["missing"]} == {
            m for m in flagged if m.startswith("stage_seconds.")}
