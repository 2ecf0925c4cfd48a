"""Trainers: workspace linking, trajectory equivalence, overflow protocol."""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.config import get_config
from repro.layers.encoder import LSTransformerEncoderLayer
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler, StaticLossScaler
from repro.training import (ApexLikeTrainer, LSFusedTrainer, NaiveMPTrainer,
                            OptimizerSpec, make_trainer, train_step)
from repro.training.loop import staged_forward_backward


@pytest.fixture
def mt_cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=1,
                      num_decoder_layers=1)


def _batch(rng, v=80):
    return (rng.integers(4, v, (2, 8)), rng.integers(4, v, (2, 8)),
            rng.integers(4, v, (2, 8)))


class TestWorkspaceLinking:
    def test_all_params_linked(self, mt_cfg):
        model = TransformerModel(mt_cfg.with_overrides(fp16=True), seed=0)
        before = {p.name: np.asarray(p.data).copy()
                  for p in model.parameters()}
        tr = LSFusedTrainer(model, OptimizerSpec())
        for p in model.parameters():
            assert tr.workspace.is_linked(p.data), p.name
            assert tr.workspace.is_linked(p.grad), p.name
            np.testing.assert_array_equal(p.data, before[p.name])

    def test_forward_reads_workspace(self, mt_cfg, rng):
        """Mutating the workspace changes what the model computes —
        the symbolic link is real aliasing, not a copy."""
        model = TransformerModel(mt_cfg.with_overrides(fp16=True, dropout=0,
                                                       attn_dropout=0),
                                 seed=0)
        tr = LSFusedTrainer(model, OptimizerSpec())
        batch = _batch(rng)
        l1, _ = model.forward(*batch)
        tr.workspace.params[:] = 0
        l2, _ = model.forward(*batch)
        assert l1 != l2

    def test_zero_grad_single_launch(self, mt_cfg):
        model = TransformerModel(mt_cfg.with_overrides(fp16=True), seed=0)
        tr = LSFusedTrainer(model, OptimizerSpec())
        naive = NaiveMPTrainer(TransformerModel(
            mt_cfg.with_overrides(fp16=True), seed=0), OptimizerSpec())
        d1, d2 = Device(), Device()
        with use_device(d1):
            tr.zero_grad()
        with use_device(d2):
            naive.zero_grad()
        assert d1.launch_count() == 1
        assert d2.launch_count() == len(list(model.parameters()))


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("kind", ["naive", "apex", "lightseq"])
    def test_fp32_trajectories_identical(self, mt_cfg, rng, kind):
        """In FP32 every trainer must follow the exact naive trajectory."""
        spec = OptimizerSpec(lr=1e-3)
        ref = TransformerModel(mt_cfg, seed=3)
        ref_tr = make_trainer("naive", ref, spec)
        other = TransformerModel(mt_cfg, seed=3)
        other_tr = make_trainer(kind, other, spec)
        for step in range(3):
            batch = _batch(np.random.default_rng(step))
            ref_tr.zero_grad()
            other_tr.zero_grad()
            staged_forward_backward(ref, batch, 1.0)
            staged_forward_backward(other, batch, 1.0)
            ref_tr.step()
            other_tr.step()
        for pr, po in zip(ref.parameters(), other.parameters()):
            np.testing.assert_allclose(
                np.asarray(pr.data), np.asarray(po.data),
                atol=1e-6, err_msg=f"{kind}: {pr.name}")

    def test_fp16_fused_close_to_master_copy(self, mt_cfg, rng):
        """FP16: fused workspace trainer stays within FP16 rounding of the
        master-copy trainer over several steps (no accuracy loss, §3.2)."""
        cfg = mt_cfg.with_overrides(fp16=True)
        spec = OptimizerSpec(lr=1e-3)
        a = TransformerModel(cfg, seed=3)
        a_tr = make_trainer("naive", a, spec)
        b = TransformerModel(cfg, seed=3)
        b_tr = make_trainer("lightseq", b, spec)
        for step in range(4):
            batch = _batch(np.random.default_rng(100 + step))
            a_tr.zero_grad()
            b_tr.zero_grad()
            la, _ = staged_forward_backward(a, batch, 1.0)
            lb, _ = staged_forward_backward(b, batch, 1.0)
            a_tr.step(grad_scale=0.1)
            b_tr.step(grad_scale=0.1)
            assert la == pytest.approx(lb, rel=2e-2)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(
                np.asarray(pa.data, dtype=np.float32),
                np.asarray(pb.data, dtype=np.float32),
                atol=3e-3, err_msg=pa.name)

    def test_sgd_supported(self, mt_cfg, rng):
        spec = OptimizerSpec(kind="sgd", lr=1e-2, momentum=0.9)
        for kind in ("naive", "lightseq"):
            m = TransformerModel(mt_cfg, seed=0)
            tr = make_trainer(kind, m, spec)
            tr.zero_grad()
            staged_forward_backward(m, _batch(rng), 1.0)
            assert tr.step()


class TestOverflowProtocol:
    def _overflowing_model(self, mt_cfg):
        cfg = mt_cfg.with_overrides(fp16=True)
        model = TransformerModel(cfg, seed=0)
        return model

    @pytest.mark.parametrize("kind", ["naive", "lightseq"])
    def test_step_skipped_on_overflow(self, mt_cfg, kind):
        model = self._overflowing_model(mt_cfg)
        scaler = DynamicLossScaler(init_scale=1024)
        tr = make_trainer(kind, model, OptimizerSpec(), scaler)
        p0 = [np.asarray(p.data, dtype=np.float32).copy()
              for p in model.parameters()]
        for p in model.parameters():
            p.grad[...] = np.float16(np.inf)
        assert not tr.step()
        assert tr.skipped_steps == 1
        assert scaler.scale == 512
        for p, before in zip(model.parameters(), p0):
            np.testing.assert_array_equal(
                np.asarray(p.data, dtype=np.float32), before)

    def test_clean_step_applies(self, mt_cfg, rng):
        model = self._overflowing_model(mt_cfg)
        scaler = StaticLossScaler(128)
        tr = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3), scaler)
        tr.zero_grad()
        staged_forward_backward(model, _batch(rng), 1.0)
        assert tr.step(grad_scale=1 / 128)
        assert tr.step_count == 1


class TestApexStructure:
    def test_fp16_copy_kernels_around_multitensor(self, mt_cfg, rng):
        """fairseq+apex keeps the per-tensor copy storm (the §3.2 delta)."""
        cfg = mt_cfg.with_overrides(fp16=True)
        model = TransformerModel(cfg, seed=0)
        tr = ApexLikeTrainer(model, OptimizerSpec())
        tr.zero_grad()
        staged_forward_backward(model, _batch(rng), 1.0)
        dev = Device(lib="apex")
        with use_device(dev):
            tr.step()
        names = [k.name for k in dev.launches if k.stage == "update"]
        nparams = len(list(model.parameters()))
        assert names.count("grad_fp16_to_fp32_copy") == nparams
        assert names.count("weight_fp32_to_fp16_copy") == nparams
        assert names.count("apex_multi_tensor_adam") == 1


def test_train_step_stage_routing(mt_cfg, rng):
    model = TransformerModel(mt_cfg, seed=0)
    tr = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3))
    dev = Device(lib="lightseq2")
    with use_device(dev):
        res = train_step(model, tr, _batch(rng))
    assert res.applied and res.num_tokens == 16
    for stage in ("forward", "backward", "update"):
        assert dev.launch_count(stage) > 0


def test_make_trainer_unknown():
    with pytest.raises(ValueError):
        make_trainer("zero", None, OptimizerSpec())
