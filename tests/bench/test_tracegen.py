"""Trace generator: the affine-in-batch model must be EXACT, and the
system table must retag without changing structure."""

import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.bench import tracegen
from repro.bench.tracegen import (SYSTEMS, System, TraceStructureError,
                                  _full_key, batch_affine_model,
                                  depth_synthesis_model,
                                  fixed_shape_mt_batch, step_trace,
                                  trace_model)
from repro.config import get_config
from repro.models import BertModel, GPTModel, TransformerModel, ViTModel


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=2048,
                      max_seq_len=32, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=120, num_encoder_layers=1,
                      num_decoder_layers=1, fp16=True)


def _tiny(family, depth, **overrides):
    """(config, seq) of a tiny-width ``family`` model ``depth`` layers
    deep."""
    common = dict(max_batch_tokens=2048, max_seq_len=64, hidden_dim=32,
                  nhead=4, ffn_dim=64, fp16=True)
    common.update(overrides)
    if family == "mt":
        return get_config("transformer-base", vocab_size=120,
                          num_encoder_layers=depth,
                          num_decoder_layers=depth, **common), 12
    if family == "bert":
        return get_config("bert-base", vocab_size=120,
                          num_encoder_layers=depth, **common), 16
    if family == "vit":
        return get_config("vit-b-32", num_encoder_layers=depth,
                          image_size=64, patch_size=32, **common), None
    return get_config("gpt2-small", vocab_size=120,
                      num_decoder_layers=depth, **common), 12


def _records(trace):
    return [(k.name, k.stage, k.elems_read, k.elems_written, k.flops,
             k.family, k.dtype_bytes, k.lib) for k in trace]


class TestAffineExactness:
    @pytest.mark.parametrize("trainer", ["naive", "lightseq"])
    @pytest.mark.parametrize("fused", [True, False])
    def test_mt_extrapolation_exact(self, cfg, trainer, fused):
        """trace(B) predicted from B∈{2,4} must equal direct execution at
        B∈{3, 8, 16} record-for-record."""
        lib = "lightseq2" if fused else "pytorch"
        system = System(fused, trainer, lib, lib)

        def make(b):
            return step_trace(cfg, system, b, 12)

        model = batch_affine_model(make(2), make(4), 2, 4)
        for b in (3, 8, 16):
            assert _records(model(b)) == _records(make(b)), f"B={b}"

    def test_bert_extrapolation_exact(self):
        c, seq = _tiny("bert", 1)

        def make(b):
            return step_trace(c, SYSTEMS["lightseq2-layers"], b, seq)

        model = batch_affine_model(make(2), make(4), 2, 4)
        assert _records(model(8)) == _records(make(8))

    def test_vit_extrapolation_exact(self):
        c, seq = _tiny("vit", 1)

        def make(b):
            return step_trace(c, SYSTEMS["lightseq2"], b, seq)

        model = batch_affine_model(make(2), make(4), 2, 4)
        assert _records(model(6)) == _records(make(6))

    @pytest.mark.parametrize("system", ["pytorch", "lightseq2"])
    def test_gpt_extrapolation_exact(self, system):
        c, seq = _tiny("gpt", 1)

        def make(b):
            return step_trace(c, SYSTEMS[system], b, seq)

        model = batch_affine_model(make(2), make(4), 2, 4)
        assert _records(model(6)) == _records(make(6))

    def test_structure_mismatch_detected(self, cfg):
        t2 = step_trace(cfg, SYSTEMS["lightseq2"], 2, 12)
        with pytest.raises(TraceStructureError):
            batch_affine_model(t2, t2[:-1], 2, 4)

    def test_same_batch_rejected(self, cfg):
        t = step_trace(cfg, SYSTEMS["lightseq2"], 2, 12)
        with pytest.raises(ValueError):
            batch_affine_model(t, t, 2, 2)


class TestRetag:
    def test_retag_changes_only_lib(self, cfg):
        """Systems sharing a launch structure differ only in lib tags:
        TensorFlow is PyTorch's step, DeepSpeed is LightSeq2's layers-only
        step with the fused kernels tagged deepspeed and the rest
        pytorch."""
        def untagged(trace):
            return [r[:-1] for r in _records(trace)]

        pt = step_trace(cfg, SYSTEMS["pytorch"], 2, 12)
        tf = step_trace(cfg, SYSTEMS["tensorflow"], 2, 12)
        assert untagged(tf) == untagged(pt)
        assert {k.lib for k in tf} == {"tensorflow"}

        ls = step_trace(cfg, SYSTEMS["lightseq2-layers"], 2, 12)
        ds = step_trace(cfg, SYSTEMS["deepspeed"], 2, 12)
        assert untagged(ds) == untagged(ls)
        assert all(k.lib == ("deepspeed" if k.name.startswith("ls_")
                             else "pytorch") for k in ds)
        assert any(k.lib == "deepspeed" for k in ds)


class TestCache:
    def test_cached_model_reused(self, monkeypatch):
        """Every depth of one (config, system, seq) shares one collection
        at batch 2/4 and depth 1/2."""
        calls = []

        def counting(c, system, b, seq=None):
            calls.append((b, c.num_encoder_layers))
            return step_trace(c, system, b, seq)

        monkeypatch.setattr(tracegen, "step_trace", counting)
        c3, seq = _tiny("mt", 3, ffn_dim=48)
        m3 = trace_model(c3, "lightseq2", seq)
        m5 = trace_model(c3.with_overrides(num_encoder_layers=5,
                                           num_decoder_layers=5),
                         "lightseq2", seq)
        assert len(m5(8)) > len(m3(8))
        assert sorted(calls) == [(2, 1), (2, 2), (4, 1), (4, 2)]


def test_fixed_shape_batch_dense():
    src, ti, to = fixed_shape_mt_batch(3, 9, 50)
    assert src.shape == ti.shape == to.shape == (3, 9)
    # no padding anywhere (dense batch => exact token accounting)
    assert not (src == 1).any() and not (to == 1).any()


def test_deep_trace_models_build_only_shallow_models(monkeypatch):
    """A 24-layer trace model of every family executes nothing deeper than
    2 layers — the regression test for the paper-scale bench's OOM."""
    depths = []
    for cls in (TransformerModel, BertModel, ViTModel, GPTModel):
        def spy(self, config, *args, _init=cls.__init__, **kw):
            depths.append(max(config.num_encoder_layers,
                              config.num_decoder_layers))
            _init(self, config, *args, **kw)

        monkeypatch.setattr(cls, "__init__", spy)
    for family in ("mt", "bert", "vit", "gpt"):
        c, seq = _tiny(family, 24, ffn_dim=40)
        for system in ("pytorch", "lightseq2"):
            deep = trace_model(c, system, seq)(8)
            shallow = trace_model(c.with_overrides(
                num_encoder_layers=min(c.num_encoder_layers, 2),
                num_decoder_layers=min(c.num_decoder_layers, 2)),
                system, seq)(8)
            assert len(deep) > len(shallow), (family, system)
    assert depths and max(depths) <= 2


class TestDepthSynthesis:
    """Deep-stack traces from shallow executions — exact as multisets."""

    @pytest.mark.parametrize("family,system", [
        ("mt", "lightseq2"), ("mt", "pytorch"), ("mt", "apex"),
        ("vit", "lightseq2"), ("vit", "pytorch"),
        ("gpt", "lightseq2"), ("gpt", "pytorch")],
        ids=["True-lightseq", "False-naive", "False-apex", "vit-lightseq2",
             "vit-pytorch", "gpt-lightseq2", "gpt-pytorch"])
    def test_exact_multiset_at_unseen_depths(self, family, system):
        def make(d):
            c, seq = _tiny(family, d)
            return step_trace(c, SYSTEMS[system], 2, seq)

        model = depth_synthesis_model(make(1), make(2), 1, 2)
        for d in (3, 5):
            assert Counter(map(_full_key, model(d))) == \
                Counter(map(_full_key, make(d))), f"depth {d}"

    def test_composed_batch_and_depth(self):
        """trace_model extrapolates batch and depth together: batch 8 at
        depth 3 equals direct execution."""
        c, seq = _tiny("mt", 3)
        real = step_trace(c, SYSTEMS["lightseq2"], 8, seq)
        assert Counter(map(_full_key, trace_model(c, "lightseq2", seq)(8))) \
            == Counter(map(_full_key, real))

    def test_invalid_depths(self):
        c, seq = _tiny("mt", 1)
        t = step_trace(c, SYSTEMS["lightseq2"], 2, seq)
        with pytest.raises(ValueError):
            depth_synthesis_model(t, t, 2, 2)

    def test_sized_singletons_interpolated(self):
        """The fused zero-grad / Adam records carry depth-dependent sizes;
        at depth 3 they must equal the real ones."""
        def make(d):
            c, seq = _tiny("mt", d)
            return step_trace(c, SYSTEMS["lightseq2"], 2, seq)

        model = depth_synthesis_model(make(1), make(2), 1, 2)
        synth = {k.name: k for k in model(3)
                 if k.name in ("ls_zero_grad", "ls_fused_adam")}
        real = {k.name: k for k in make(3)
                if k.name in ("ls_zero_grad", "ls_fused_adam")}
        for name in ("ls_zero_grad", "ls_fused_adam"):
            assert synth[name].elems_written == real[name].elems_written
            assert synth[name].flops == real[name].flops

    def test_bit_reproducible_across_hash_seeds(self):
        """The synthesized trace — record order, hence every float sum
        over it — must not depend on the process's string-hash seed."""
        script = (
            "from tests.bench.test_tracegen import _tiny\n"
            "from repro.bench.tracegen import (SYSTEMS, _full_key,\n"
            "    depth_synthesis_model, step_trace)\n"
            "from repro.sim import V100\n"
            "from repro.sim.costmodel import trace_cost\n"
            "def make(d):\n"
            "    c, seq = _tiny('mt', d)\n"
            "    return step_trace(c, SYSTEMS['lightseq2'], 2, seq)\n"
            "t = depth_synthesis_model(make(1), make(2), 1, 2)(4)\n"
            "print([_full_key(k) for k in t])\n"
            "print(trace_cost(t, V100).total_s.hex())\n")
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [os.path.join(root, "src"), root]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  cwd=root, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1]
