"""Memory observatory: bitwise peak accounting, attribution, what-ifs.

The load-bearing assertions here are the two the CI ``memory-gate`` job
names: the occupancy timeline's peak must be **bitwise equal** to the
arena's reserved high-water mark on every model family, and the what-if
capacity engine, fed a recording at L=512, must reproduce the *measured*
fused-OOMs-where-tiled-trains boundary at L=2048 from the checked-in
``BENCH_flashattn.json`` baseline.
"""

import json

import numpy as np
import pytest

from repro.backend.allocator import round_block
from repro.backend.arena import ActivationArena, ArenaOOM, use_memory_tracer
from repro.config import get_config
from repro.models import BertModel, GPTModel, TransformerModel, ViTModel
from repro.obs.memory import (MEMORY_SCHEMA, AmbiguousBasePoint,
                              MemoryTracer, fits, load_memory_report, main,
                              max_fit, memory_report, model_dims,
                              oom_forensics, project_capacity, tensor_family,
                              write_memory_report)
from repro.train import main as train_main
from repro.training.loop import staged_forward_backward

_MIB = float(1 << 20)


def _trace(model, batch, steps=2, max_bytes=None, base=None):
    """Run ``steps`` arena-backed traced steps; return (report, arena)."""
    arena = ActivationArena(max_bytes=max_bytes)
    model.set_arena(arena)
    tracer = MemoryTracer()
    with use_memory_tracer(tracer):
        for _ in range(steps):
            staged_forward_backward(model, batch, 1.0, arena)
        arena.begin_step()          # fold the last step's demand
    return memory_report(tracer, arena=arena, base=base), arena


def _small(arch, **over):
    base = dict(max_batch_tokens=256, max_seq_len=32, hidden_dim=32,
                nhead=4, ffn_dim=64, vocab_size=61)
    base.update(over)
    return get_config(arch, **base)


def _bert():
    m = BertModel(_small("bert-base", num_encoder_layers=2), seed=0)
    rng = np.random.default_rng(0)
    return m, (rng.integers(1, 61, (4, 16)), rng.integers(0, 2, 4))


def _gpt(batch=4, seq=16):
    m = GPTModel(_small("gpt2-small", num_decoder_layers=2), seed=0)
    rng = np.random.default_rng(0)
    toks = rng.integers(1, 61, (batch, seq))
    return m, (toks, np.roll(toks, -1, axis=1))


def _base(model, batch, seq):
    """A what-if base point stamped as ``repro.train`` stamps it."""
    return {"batch": batch, "seq_len": seq,
            "model_dims": model_dims(model.config)}


def _clear_gpt_trace():
    """A GPT recording whose batch 3, seq_len 20 and 60 flattened tokens
    collide with no model dim (hidden 32, 4 heads of 8, ffn 64, vocab 61)
    or tile (128)."""
    model, batch = _gpt(3, 20)
    return _trace(model, batch, base=_base(model, 3, 20))


def _mt():
    m = TransformerModel(_small("transformer-base", num_encoder_layers=1,
                                num_decoder_layers=1), seed=0)
    rng = np.random.default_rng(0)
    return m, (rng.integers(4, 61, (2, 8)), rng.integers(4, 61, (2, 8)),
               rng.integers(4, 61, (2, 8)))


def _vit():
    m = ViTModel(_small("vit-b-32", num_encoder_layers=2, image_size=64,
                        patch_size=32), seed=0)
    rng = np.random.default_rng(0)
    return m, (rng.standard_normal((2, 3, 64, 64)).astype(np.float32),
               rng.integers(0, 10, 2))


_FAMILIES = {"bert": _bert, "gpt": _gpt, "mt": _mt, "vit": _vit}


class TestBitwisePeak:
    @pytest.mark.parametrize("arch", sorted(_FAMILIES))
    def test_peak_bitwise_equal_to_reserved_slab(self, arch):
        report, arena = _trace(*_FAMILIES[arch]())
        assert report.peak_demand_bytes > 0
        assert report.bitwise_peak_equal, (
            f"{arch}: timeline peak {report.peak_demand_bytes} != "
            f"reserved {arena.capacity}")
        assert round_block(report.peak_demand_bytes) == arena.capacity

    @pytest.mark.parametrize("arch", sorted(_FAMILIES))
    def test_attribution_sums_exactly_to_peak(self, arch):
        report, _ = _trace(*_FAMILIES[arch]())
        for rows in (report.by_site, report.by_stage, report.by_family):
            assert rows
            assert sum(r["bytes"] for r in rows) == report.peak_demand_bytes
            assert abs(sum(r["share"] for r in rows) - 1.0) < 1e-9
        stages = {r["key"] for r in report.by_stage}
        assert "forward" in stages and "backward" in stages
        # sites carry the decorated layer names, not just "?"
        assert any("." in r["key"] for r in report.by_site)

    def test_waste_identity(self):
        report, _ = _trace(*_gpt())
        # demand = live + padding, capacity = demand + slack, so the
        # total waste (capacity - live) decomposes exactly
        assert report.peak_demand_bytes == (report.live_bytes
                                            + report.padding_bytes)
        assert report.capacity_bytes == (report.peak_demand_bytes
                                         + report.slack_bytes)
        assert report.waste_bytes == (report.padding_bytes
                                      + report.slack_bytes)


class TestTensorFamily:
    def test_known_sites(self):
        assert tensor_family("gpt.block0.attn") == "attention"
        assert tensor_family("bert.enc1.ffn") == "ffn"
        assert tensor_family("gpt.crit") == "criterion"
        assert tensor_family("mt.src_embed") == "embedding"
        assert tensor_family("weird.site") == "other"


class TestProjection:
    def test_identity_projection_is_exact(self):
        model, batch = _gpt()
        report, arena = _trace(model, batch,
                               base={"batch": 4, "seq_len": 16})
        proj = project_capacity(report.shape_plan)
        assert proj["demand_bytes"] == report.peak_demand_bytes
        assert proj["capacity_bytes"] == arena.capacity

    def test_scaling_is_monotone(self):
        report, _ = _clear_gpt_trace()
        caps = [project_capacity(report.shape_plan, seq_len=l)
                ["capacity_bytes"] for l in (16, 32, 64, 128)]
        assert caps == sorted(caps) and caps[-1] > caps[0]
        b2 = project_capacity(report.shape_plan, batch=8)
        assert b2["capacity_bytes"] > caps[0]

    def test_max_fit_boundary_is_exact(self):
        report, arena = _clear_gpt_trace()
        budget = 4 * arena.capacity
        best = max_fit(report.shape_plan, budget, knob="seq_len")
        assert fits(report.shape_plan, budget, seq_len=best)
        assert not fits(report.shape_plan, budget, seq_len=best + 1)


class TestAmbiguousBase:
    """Dimension matching cannot tell the batch from an equal model dim:
    such a what-if is refused, never silently mis-scaled."""

    def test_batch_equal_to_head_count_refused(self):
        model, batch = _gpt()                       # batch 4, 4 heads
        report, _ = _trace(model, batch, base=_base(model, 4, 16))
        with pytest.raises(AmbiguousBasePoint, match="nhead"):
            project_capacity(report.shape_plan, batch=8)
        # 4 x 16 = 64 flattened tokens is the ffn width too
        with pytest.raises(AmbiguousBasePoint, match="ffn"):
            project_capacity(report.shape_plan, seq_len=32)
        # the identity projection scales nothing, so it stays allowed
        assert project_capacity(report.shape_plan)["demand_bytes"] \
            == report.peak_demand_bytes

    def test_base_without_model_dims_refused(self):
        report, _ = _trace(*_gpt(3, 20), base={"batch": 3, "seq_len": 20})
        with pytest.raises(AmbiguousBasePoint, match="model_dims"):
            project_capacity(report.shape_plan, seq_len=32)

    def test_batch_equal_to_seq_len_refused(self):
        plan = {"base": {"batch": 6, "seq_len": 6,
                         "model_dims": {"hidden": 32, "nhead": 4}},
                "requests": [], "plans": []}
        with pytest.raises(AmbiguousBasePoint, match="seq_len"):
            project_capacity(plan, batch=12)

    def test_gpt_batch8_with_8_heads_exits_2(self, tmp_path, capsys):
        """``--max-tokens 512`` trains GPT at batch 8 with 8 heads: its
        batch=16 what-if used to predict 223.2 MB against a measured
        139.8 MB, with no warning."""
        path = str(tmp_path / "m.json")
        assert train_main(["--task", "gpt", "--steps", "2", "--max-tokens",
                           "512", "--memory-out", path]) == 0
        capsys.readouterr()
        assert main([path, "--whatif", "batch=16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nhead" in err


class TestCapacityProjection:
    """The what-if engine vs the *measured* flash-attention baseline.

    Records one fused GPT step at L0=512 in the exact ``bench_flashattn``
    geometry, then projects to L=2048: the projected fused and tiled
    capacities must match the measured slabs in the checked-in baseline,
    and the 72 MiB budget must split them — fused OOMs, tiled trains.
    """

    BASELINE = "benchmarks/baselines/BENCH_flashattn.json"
    L0, L, TILE, V = 512, 2048, 256, 128

    @pytest.fixture(scope="class")
    def plan(self):
        cfg = get_config(
            "gpt2-small", max_batch_tokens=self.L0, max_seq_len=self.L0,
            hidden_dim=64, nhead=2, ffn_dim=128, vocab_size=self.V,
            num_decoder_layers=1, fused=True, attn_impl="fused",
            attn_tile_q=self.TILE, attn_tile_k=self.TILE,
            dropout=0.0, attn_dropout=0.0)
        model = GPTModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        toks = rng.integers(1, self.V, (1, self.L0))
        report, _ = _trace(
            model, (toks, np.roll(toks, -1, axis=1)), steps=1,
            base={"batch": 1, "seq_len": self.L0,
                  "model_dims": model_dims(cfg),
                  "attn": {"attn_impl": "fused", "tile_q": self.TILE,
                           "tile_k": self.TILE}})
        return report.shape_plan

    @pytest.fixture(scope="class")
    def measured(self):
        with open(self.BASELINE) as fh:
            return json.load(fh)["counters"]

    def test_fused_capacity_matches_measured(self, plan, measured):
        cap = project_capacity(plan, seq_len=self.L)["capacity_bytes"]
        want = measured["capacity_fused_mib"] * _MIB
        assert abs(cap - want) / want < 0.02, (cap / _MIB, want / _MIB)

    def test_tiled_capacity_matches_measured(self, plan, measured):
        cap = project_capacity(plan, seq_len=self.L,
                               attn_impl="tiled")["capacity_bytes"]
        want = measured["capacity_tiled_mib"] * _MIB
        assert abs(cap - want) / want < 0.02, (cap / _MIB, want / _MIB)

    def test_oom_boundary_splits_fused_from_tiled(self, plan, measured):
        budget = int(measured["oom_budget_mib"] * _MIB)
        fused_fits = fits(plan, budget, seq_len=self.L)
        tiled_fits = fits(plan, budget, seq_len=self.L, attn_impl="tiled")
        assert fused_fits == (measured["fused_ooms_at_budget"] != 1.0)
        assert tiled_fits == (measured["tiled_trains_at_budget"] == 1.0)

    def test_max_fit_straddles_the_boundary(self, plan, measured):
        budget = int(measured["oom_budget_mib"] * _MIB)
        assert max_fit(plan, budget, knob="seq_len") < self.L
        assert max_fit(plan, budget, knob="seq_len",
                       attn_impl="tiled") >= self.L

    def test_tiled_to_fused_is_refused(self, plan):
        tiled = dict(plan, base=dict(plan["base"],
                                     attn={"attn_impl": "tiled"}))
        with pytest.raises(ValueError, match="tiled"):
            project_capacity(tiled, attn_impl="fused")


class TestOOMForensics:
    def _oom(self):
        model, batch = _gpt()
        _, arena = _trace(model, batch, steps=1)     # learn the real demand
        model2, batch2 = _gpt()
        tracer = MemoryTracer()
        budget = arena.capacity // 2
        arena2 = ActivationArena(max_bytes=budget)
        model2.set_arena(arena2)
        with use_memory_tracer(tracer):
            with pytest.raises(ArenaOOM) as ei:
                staged_forward_backward(model2, batch2, 1.0, arena2)
        return tracer, ei.value, arena2, budget

    def test_exception_carries_forensics(self):
        tracer, exc, arena, budget = self._oom()
        assert exc.budget == budget and exc.requested > 0
        report = oom_forensics(tracer, exc, arena)
        assert report["over_budget_bytes"] > 0
        assert report["live_slots"], "no live slots attributed"
        top = report["live_slots"][0]
        assert top["site"] and top["bytes"] > 0
        assert str(exc)  # the enriched message renders

    def test_oom_lands_in_memory_report(self):
        tracer, exc, arena, _ = self._oom()
        report = memory_report(tracer, arena=arena)
        assert report.oom is not None
        assert report.oom["requested_bytes"] == exc.requested
        assert report.as_dict()["oom"]["over_budget_bytes"] > 0


class TestReportRoundTrip:
    def test_write_load_check_cli(self, tmp_path):
        report, _ = _clear_gpt_trace()
        path = str(tmp_path / "mem.json")
        write_memory_report(path, report)
        loaded = load_memory_report(path)
        assert loaded["schema"] == MEMORY_SCHEMA
        assert loaded["bitwise_peak_equal"]
        assert main([path, "--check"]) == 0
        assert main([path, "--whatif", "seq_len=64,batch=2",
                     "--budget", "1GiB"]) == 0
        assert main([path, "--budget", "64MiB", "--max-fit", "seq_len",
                     "--json"]) == 0

    def test_check_fails_on_oom_report(self, tmp_path, capsys):
        model, batch = _gpt()
        _, arena = _trace(model, batch, steps=1)
        model2, batch2 = _gpt()
        tracer = MemoryTracer()
        arena2 = ActivationArena(max_bytes=arena.capacity // 2)
        model2.set_arena(arena2)
        with use_memory_tracer(tracer):
            with pytest.raises(ArenaOOM):
                staged_forward_backward(model2, batch2, 1.0, arena2)
        path = str(tmp_path / "oom.json")
        write_memory_report(path, memory_report(tracer, arena=arena2))
        assert main([path, "--check"]) == 1
        capsys.readouterr()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/v0"}))
        with pytest.raises(ValueError, match="repro.obs.memory"):
            load_memory_report(str(path))
