"""Tensor-health statistics + the sampling NumericsCollector."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRecorder
from repro.obs.numerics import (NumericsCollector, StepNumerics, TensorStats,
                                current_collector, group_of,
                                saturation_histogram, tap_activation,
                                tensor_stats, use_collector)
from repro.precision.half import FP16_MAX, FP16_TINY


class TestTensorStats:
    def test_clean_tensor(self):
        x = np.array([3.0, -4.0, 0.0, 1.0], dtype=np.float32)
        s = tensor_stats(x)
        assert s.n == s.total_n == 4
        assert s.nan == s.inf == 0
        assert s.l2 == pytest.approx(np.sqrt(9 + 16 + 1))
        assert s.absmax == 4.0
        assert s.absmean == pytest.approx(2.0)
        assert s.zero_frac == pytest.approx(0.25)
        assert s.sat_frac == 0.0 and s.sub_frac == 0.0

    def test_nan_inf_counted_and_excluded_from_l2(self):
        x = np.array([np.nan, np.inf, -np.inf, 3.0], dtype=np.float32)
        s = tensor_stats(x)
        assert s.nan == 1 and s.inf == 2 and s.nonfinite == 3
        assert s.l2 == pytest.approx(3.0)       # finite values only
        assert s.absmax == 3.0

    def test_all_nonfinite(self):
        s = tensor_stats(np.full(8, np.nan, dtype=np.float32))
        assert s.nan == 8 and s.l2 == 0.0 and s.absmax == 0.0

    def test_empty(self):
        assert tensor_stats(np.empty(0, dtype=np.float32)).n == 0

    def test_saturation_fraction(self):
        x = np.array([FP16_MAX, -FP16_MAX, 1.0, 2.0], dtype=np.float32)
        assert tensor_stats(x).sat_frac == pytest.approx(0.5)

    def test_subnormal_fraction_over_nonzero_values(self):
        # zeros must not count as subnormal: 2 subnormal / 2 nonzero
        x = np.array([FP16_TINY / 2, 1e-6, 0.0, 1.0], dtype=np.float32)
        s = tensor_stats(x)
        assert s.sub_frac == pytest.approx(2 / 3)   # of the 3 nonzero
        assert s.zero_frac == pytest.approx(0.25)

    def test_fp16_input_accumulates_in_fp32(self):
        # 4096 values of 256.0: sum of squares overflows FP16 (and even
        # exceeds float32's integer precision comfort zone) but must be
        # exact under float64 accumulation
        x = np.full(4096, 256.0, dtype=np.float16)
        s = tensor_stats(x)
        assert s.l2 == pytest.approx(256.0 * 64.0)
        assert s.absmax == 256.0

    def test_striding_caps_samples_and_records_total(self):
        x = np.arange(1000, dtype=np.float32)
        s = tensor_stats(x, max_elems=100)
        assert s.total_n == 1000
        assert s.n <= 100
        assert s.absmax == 990.0                    # stride 10 keeps 990

    def test_merge_combines_l2_and_weights_fracs(self):
        a = tensor_stats(np.array([3.0, 0.0], dtype=np.float32))
        b = tensor_stats(np.array([4.0, 1.0], dtype=np.float32))
        m = a.merge(b)
        assert m.n == 4
        assert m.l2 == pytest.approx(np.hypot(a.l2, b.l2))
        assert m.absmax == 4.0
        assert m.zero_frac == pytest.approx(0.25)

    def test_merge_with_empty(self):
        a = tensor_stats(np.array([1.0], dtype=np.float32))
        assert TensorStats().merge(a).l2 == a.l2
        assert a.merge(TensorStats()).n == 1

    def test_as_dict_prefix(self):
        d = tensor_stats(np.ones(2, dtype=np.float32)).as_dict("grad_")
        assert d["grad_n"] == 2 and "grad_sat_frac" in d
        assert all(k.startswith("grad_") for k in d)


class TestSaturationHistogram:
    def test_bins_sum_to_one(self):
        x = np.array([np.nan, FP16_MAX, 1.0, FP16_TINY / 2, 0.0],
                     dtype=np.float32)
        h = saturation_histogram(x)
        assert sum(h.values()) == pytest.approx(1.0)
        assert h["nonfinite"] == pytest.approx(0.2)
        assert h["saturated"] == pytest.approx(0.2)
        assert h["subnormal"] == pytest.approx(0.2)
        assert h["zero"] == pytest.approx(0.2)
        assert h["normal"] == pytest.approx(0.2)

    def test_empty(self):
        h = saturation_histogram(np.empty(0))
        assert set(h) == {"nonfinite", "saturated", "normal", "subnormal",
                          "zero"}
        assert all(v == 0.0 for v in h.values())


def test_group_of():
    assert group_of("enc0.attn.qkv_weight") == "enc0.attn"
    assert group_of("bias") == "bias"


class _FakeTrainer:
    """Duck-typed trainer: .params with .name/.data/.grad."""

    class _P:
        def __init__(self, name, data, grad):
            self.name, self.data, self.grad = name, data, grad

    def __init__(self):
        self.params = [
            self._P("layer0.w", np.ones(4, np.float32),
                    np.full(4, 2.0, np.float32)),
            self._P("layer0.b", np.zeros(2, np.float32),
                    np.full(2, 1.0, np.float32)),
            self._P("layer1.w", np.ones(3, np.float32),
                    np.zeros(3, np.float32)),
        ]


class TestCollector:
    def test_cadence(self):
        col = NumericsCollector(3)
        armed = [col.begin_step(s) for s in range(1, 7)]
        assert armed == [False, False, True, False, False, True]

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            NumericsCollector(0)

    def test_steps_forced_monotonic(self):
        col = NumericsCollector(1)
        for _ in range(3):
            col.begin_step(1)        # a skip-stalled trainer.step_count
            col.finish_step(loss=1.0, num_tokens=1)
        assert [r.step for r in col.records] == [1, 2, 3]

    def test_grouped_grad_walk_and_update_ratio(self):
        tr = _FakeTrainer()
        col = NumericsCollector(1)
        col.begin_step(1)
        col.collect_pre_update(tr, grad_scale=0.5)
        tr.params[0].data += 1.0                   # layer0 moves
        col.collect_post_update(tr)
        rec = col.finish_step(loss=2.0, num_tokens=4)
        assert set(rec.groups) == {"layer0", "layer1"}
        g0 = rec.groups["layer0"]
        # layer0 merges w (4 elems of 2.0) and b (2 elems of 1.0)
        assert g0["grad_n"] == 6
        assert g0["grad_l2"] == pytest.approx(np.sqrt(4 * 4 + 2))
        assert g0["grad_l2_unscaled"] == pytest.approx(g0["grad_l2"] * 0.5)
        assert g0["param_l2"] == pytest.approx(2.0)    # ||ones(4)+zeros(2)||
        assert g0["update_ratio"] == pytest.approx(2.0 / 2.0)
        assert rec.groups["layer1"]["update_ratio"] == 0.0
        raw = np.sqrt(g0["grad_l2"] ** 2
                      + rec.groups["layer1"]["grad_l2"] ** 2)
        assert rec.global_grad_norm == pytest.approx(raw * 0.5)

    def test_unarmed_step_does_not_inherit_stats(self):
        tr = _FakeTrainer()
        col = NumericsCollector(2)
        col.begin_step(2)                          # armed
        col.collect_pre_update(tr)
        col.finish_step(loss=1.0, num_tokens=1)
        col.begin_step(3)                          # off-cadence
        rec = col.finish_step(loss=1.0, num_tokens=1)
        assert rec.groups == {} and rec.activations == {}
        assert rec.grad_scale == 1.0

    def test_history_bounded(self):
        col = NumericsCollector(1, history=4)
        for s in range(10):
            col.begin_step(s + 1)
            col.finish_step(loss=0.0, num_tokens=1)
        assert len(col.records) == 4
        assert col.records[-1].step == 10

    def test_events_into_metrics_recorder(self):
        metrics = MetricsRecorder()
        col = NumericsCollector(1, metrics=metrics)
        col.begin_step(1)
        col.observe_activation("enc.out", np.ones(4, np.float32))
        col.finish_step(loss=1.0, num_tokens=2)
        events = [e for e in metrics.events if e["event"] == "numerics"]
        assert len(events) == 1
        assert events[0]["activations"]["enc.out"]["n"] == 4

    def test_record_roundtrip(self):
        col = NumericsCollector(1)
        col.begin_step(7)
        col.observe_activation("t", np.ones(2, np.float32))
        rec = col.finish_step(loss=3.0, num_tokens=6)
        back = StepNumerics.from_dict(rec.as_dict())
        assert back == rec
        assert back.loss_per_token == pytest.approx(0.5)


class TestTaps:
    def test_noop_when_uninstalled(self):
        assert current_collector() is None
        tap_activation("x", np.ones(3))            # must not raise

    def test_tap_reaches_active_collector_only(self):
        col = NumericsCollector(2)
        with use_collector(col):
            assert current_collector() is col
            col.begin_step(1)                      # off-cadence: inactive
            tap_activation("a", np.ones(3, np.float32))
            col.begin_step(2)                      # armed
            tap_activation("b", np.ones(3, np.float32))
        assert current_collector() is None
        assert "a" not in col._acts and "b" in col._acts

    def test_innermost_collector_wins(self):
        outer, inner = NumericsCollector(1), NumericsCollector(1)
        with use_collector(outer), use_collector(inner):
            inner.begin_step(1)
            outer.begin_step(1)
            tap_activation("t", np.ones(2, np.float32))
        assert "t" in inner._acts and "t" not in outer._acts


def test_layer_tap_method_routes_to_collector():
    from repro.config import get_config
    from repro.layers.encoder import LSTransformerEncoderLayer
    cfg = get_config("transformer-base", max_batch_tokens=256,
                     max_seq_len=16, hidden_dim=32, nhead=4, ffn_dim=64,
                     vocab_size=64, fused=True)
    layer = LSTransformerEncoderLayer(cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 8, 32)) \
        .astype(np.float32)
    col = NumericsCollector(1)
    with use_collector(col):
        col.begin_step(1)
        layer.forward(x)
    tapped = set(col._acts)
    assert any(t.endswith(".out") for t in tapped)
    assert any("attn" in t for t in tapped)
