"""Critical path & what-if projection: path totals, attribution, re-costing.

The three acceptance gates of the performance observatory live here:

* the critical path spans exactly the simulated two-stream step time,
  and its nodes sum to it, on a stage-tagged trace;
* the "comm is free" projection is *bitwise* equal to the timeline's
  fully-hidden overlap bound;
* the "attn_impl=tiled" projection's HBM-byte ratio agrees with the
  *measured* fused-vs-tiled ratio in the checked-in
  ``BENCH_flashattn.json`` baseline to within 10%.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.config import get_config
from repro.models import GPTModel
from repro.obs.critpath import (EXPOSED_COMM, HOST, RETRY,
                                attribute_critical_path, critical_path,
                                tiled_attention_trace, whatif)
from repro.obs.roofline import roofline_report
from repro.sim.comm import bucketed_allreduce_seconds
from repro.sim.costmodel import trace_hbm_bytes
from repro.sim.gpu_specs import GPUS, V100
from repro.sim.timeline import (StepInputs, synthetic_buckets,
                                two_stream_step_timeline)
from repro.training.loop import staged_forward_backward

_BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks", "baselines", "BENCH_flashattn.json")


def _stage_trace():
    """A small stage-tagged trace exercising all four stages."""
    dev = Device()
    with use_device(dev):
        with dev.stage_scope("forward"):
            dev.record("gemm_qkv", 2_000_000, 2_000_000,
                       flops=8_000_000_000, family="gemm")
            dev.record("softmax_fwd", 1_000_000, 1_000_000, family="softmax")
        with dev.stage_scope("backward"):
            dev.record("gemm_qkv_dw", 2_000_000, 2_000_000,
                       flops=16_000_000_000, family="gemm")
            dev.record("dropout_bwd", 1_000_000, 1_000_000, family="dropout")
        with dev.stage_scope("update"):
            dev.record("ls_fused_adam", 3_000_000, 3_000_000,
                       family="optimizer")
    return tuple(dev.launches)


_GRAD_ELEMS = 60_000_000


def _inputs(**kw):
    kw.setdefault("trace", _stage_trace())
    kw.setdefault("spec", V100)
    kw.setdefault("world_size", 4)
    kw.setdefault("itemsize", 4)
    kw.setdefault("grad_elems", _GRAD_ELEMS)
    if "buckets" not in kw and kw["world_size"] > 1:
        kw["buckets"] = tuple(synthetic_buckets(_GRAD_ELEMS,
                                                kw["itemsize"]))
    return StepInputs(**kw)


def _attribution(inp):
    return attribute_critical_path(critical_path(inp),
                                   roofline_report(inp.trace, inp.spec))


class TestProjectTimeline:
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("world", [1, 2, 8])
    def test_matches_two_stream_timeline_bitwise(self, overlap, world):
        inp = _inputs(world_size=world, overlap=overlap)
        tl = inp.timeline()
        ref = two_stream_step_timeline(
            inp.trace, inp.spec, buckets=inp.buckets,
            itemsize=inp.itemsize, world_size=inp.world_size,
            overlap=overlap)
        for f in ("forward_s", "backward_s", "sync_exposed_s",
                  "sync_hidden_s", "update_s", "total_s"):
            assert getattr(tl, f) == getattr(ref, f)

    @pytest.mark.parametrize("world", [1, 2, 8])
    def test_no_overlap_sync_is_the_serial_allreduce(self, world):
        """The figures price sync with overlap off: every bucket's
        all-reduce is exposed, the serial Fig.-4 sum of the comm model."""
        inp = _inputs(world_size=world, overlap=False,
                      buckets=tuple(synthetic_buckets(_GRAD_ELEMS, 4)))
        exposed = inp.timeline().sync_exposed_s
        serial = bucketed_allreduce_seconds(_GRAD_ELEMS * 4, world, V100)
        if world == 1:
            assert exposed == serial == 0.0
        else:
            assert math.isclose(exposed, serial, rel_tol=1e-12)

    def test_retry_time_extends_total_exactly(self):
        base = _inputs().timeline().total_s
        bumped = _inputs(retry_exposed_s=0.005).timeline().total_s
        assert math.isclose(bumped, base + 0.005, rel_tol=1e-12)

    def test_retry_needs_a_collective(self):
        """A step with no buckets has nothing to retry: its retry time
        prices at zero, at world 1 and in a world=1 what-if alike."""
        clean = _inputs(world_size=1).timeline().total_s
        assert _inputs(world_size=1,
                       retry_exposed_s=0.5).timeline().total_s == clean
        assert whatif(_inputs(retry_exposed_s=0.5),
                      "world=1").total_s == clean


class TestCriticalPath:
    def test_total_equals_timeline_total(self):
        for kw in ({}, {"overlap": False}, {"world_size": 1},
                   {"world_size": 1, "retry_exposed_s": 0.5},
                   {"straggler_delay_s": 0.5}, {"retry_exposed_s": 0.5},
                   {"straggler_delay_s": 0.01, "retry_exposed_s": 0.005}):
            inp = _inputs(**kw)
            path = critical_path(inp)
            total = inp.timeline().total_s
            assert path.total_s == total, kw
            assert math.isclose(sum(n.dur_s for n in path.nodes), total,
                                rel_tol=1e-12), kw

    def test_attribution_sums_to_path_total(self):
        inp = _inputs()
        attr = _attribution(inp)
        assert math.isclose(sum(attr.values()), critical_path(inp).total_s,
                            rel_tol=1e-9)
        assert attr.get(HOST, 0) > 0          # step setup is on the path

    def test_path_runs_setup_to_update(self):
        names = critical_path(_inputs()).names
        assert names[0] == "host:setup"
        assert names[-1] == "compute:update"

    def test_straggler_on_path_when_large(self):
        inp = _inputs(straggler_delay_s=0.5)
        path = critical_path(inp)
        assert any("straggler" in n for n in path.names)
        assert path.total_s == inp.timeline().total_s

    def test_retry_node_attributed_as_retry(self):
        attr = _attribution(_inputs(retry_exposed_s=0.5))
        assert attr.get(RETRY, 0) == pytest.approx(0.5)

    def test_exposed_comm_attributed(self):
        # huge gradient on a 16-wide ring: comm cannot hide
        inp = _inputs(world_size=16, grad_elems=400_000_000,
                      buckets=tuple(synthetic_buckets(400_000_000, 4)))
        assert _attribution(inp).get(EXPOSED_COMM, 0) > 0


class TestWhatIf:
    def test_comm_free_matches_fully_hidden_bound_bitwise(self):
        inp = _inputs()
        tl = inp.timeline()
        sched = inp.schedule()
        bound = (tl.forward_s + tl.backward_s
                 + (tl.sync_exposed_s - sched.exposed_s) + tl.update_s)
        assert whatif(inp, "comm_free").total_s == bound

    def test_comm_free_zeroes_straggler_and_retry(self):
        inp = _inputs(straggler_delay_s=0.1, retry_exposed_s=0.1)
        p = whatif(inp, "comm_free")
        assert p.total_s < p.baseline_total_s
        assert p.speedup > 1

    def test_gpu_h100_faster_than_v100(self):
        p = whatif(_inputs(), "gpu=H100")
        assert p.total_s < p.baseline_total_s
        assert p.timeline.total_s == _inputs(
            spec=GPUS["H100"]).timeline().total_s

    def test_world_scaling_prices_more_comm(self):
        inp = _inputs(world_size=1, buckets=())
        p = whatif(inp, "world=16")
        # going distributed adds sync time to a single-GPU step
        assert p.total_s > p.baseline_total_s
        assert p.detail["world_size"] == 16

    def test_no_overlap_never_faster(self):
        p = whatif(_inputs(), "no_overlap")
        assert p.total_s >= p.baseline_total_s

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="scenario"):
            whatif(_inputs(), "quantum_annealing")

    def test_tiled_without_geometry_raises(self):
        with pytest.raises(ValueError, match="attn"):
            whatif(_inputs(attn=None), "attn_impl=tiled")


# -- the measured-vs-projected tiled-attention gate --------------------------


def _fused_gpt_trace(L=2048):
    cfg = get_config(
        "gpt2-small", max_batch_tokens=max(L, 512), max_seq_len=L,
        hidden_dim=64, nhead=2, ffn_dim=128, vocab_size=128,
        num_decoder_layers=1, fused=True, attn_impl="fused",
        attn_tile_q=256, attn_tile_k=256, dropout=0.0, attn_dropout=0.0)
    model = GPTModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    toks = rng.integers(1, 128, (1, L))
    dev = Device()
    with use_device(dev):
        staged_forward_backward(model, (toks, np.roll(toks, -1, axis=1)), 1.0)
    return tuple(dev.launches), model


class TestTiledProjection:
    def test_projected_ratio_matches_measured_baseline(self):
        """The what-if must agree with the *measured* tiled/fused HBM
        ratio recorded by the flash bench, within 10%."""
        with open(_BASELINE) as f:
            measured = json.load(f)["stage_seconds"][
                "hbm_bytes_ratio_tiled_over_fused"]
        trace, _ = _fused_gpt_trace()
        new, detail = tiled_attention_trace(
            trace, head_dim=32, tile_q=256, tile_k=256, causal=True)
        projected = trace_hbm_bytes(new) / trace_hbm_bytes(trace)
        assert abs(projected / measured - 1) < 0.10, (
            f"projected step HBM ratio {projected:.4f} vs measured "
            f"{measured:.4f}")
        assert detail["attn_groups_fwd"] == 1
        assert detail["attn_groups_bwd"] == 1
        assert detail["launches_after"] < detail["launches_before"]

    def test_whatif_tiled_end_to_end(self):
        trace, model = _fused_gpt_trace()
        inp = StepInputs(
            trace=trace, spec=V100, grad_elems=model.num_parameters(),
            attn={"head_dim": 32, "tile_q": 256, "tile_k": 256,
                  "causal": True})
        p = whatif(inp, "attn_impl=tiled")
        # at L=2048 removing the L^2 round-trips must save real time
        assert p.total_s < p.baseline_total_s
        assert p.detail["attn_hbm_bytes_ratio"] < 0.5

    def test_already_tiled_trace_rejected(self):
        trace, _ = _fused_gpt_trace()
        new, _ = tiled_attention_trace(trace, head_dim=32, tile_q=256,
                                       tile_k=256, causal=True)
        with pytest.raises(ValueError, match="no fused attention"):
            tiled_attention_trace(new, head_dim=32)
