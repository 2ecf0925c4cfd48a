"""Harness utilities + smoke runs of the cheap paper experiments."""

import pytest

from repro.bench.harness import (ExperimentResult, ShapeClaim, bench_scale,
                                 monotone_decreasing, monotone_increasing,
                                 relative_spread, within)


class TestHarness:
    def test_trend_predicates(self):
        assert monotone_decreasing([3, 2, 2, 1])
        assert not monotone_decreasing([1, 2])
        assert monotone_decreasing([1.0, 1.01], tol=0.02)
        assert monotone_increasing([1, 2, 2])
        assert within(1.5, 1, 2) and not within(3, 1, 2)
        assert relative_spread([1.0, 1.0]) == 0.0
        assert relative_spread([1.0, 3.0]) == pytest.approx(1.0)

    def test_result_claims_and_format(self):
        r = ExperimentResult("t", ["a", "b"], [[1, 2.5], [3, 4.0]])
        r.claim("holds", True, "detail")
        r.claim("fails", False)
        assert r.failed_claims() == [r.claims[1]]
        assert len(r.failed_claims()) == 1
        txt = r.format()
        assert "PASS" in txt and "FAIL" in txt and "2.500" in txt

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "quick"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert bench_scale() == "paper"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
        with pytest.raises(ValueError):
            bench_scale()


class TestFigureSmoke:
    """Run the cheap experiments at quick scale; every paper-shape claim
    must hold.  (The heavier figures run under benchmarks/.)"""

    def test_fig13_layernorm(self):
        from repro.bench.figures import fig13_layernorm
        res = fig13_layernorm("quick")
        assert not res.failed_claims(), res.format()
        assert len(res.rows) >= 6

    def test_fig14_dropout_softmax(self):
        from repro.bench.figures import fig14_dropout_softmax
        res = fig14_dropout_softmax("quick")
        assert not res.failed_claims(), res.format()

    def test_trainer_ablation(self):
        from repro.bench.figures import trainer_ablation
        res = trainer_ablation("quick")
        assert not res.failed_claims(), res.format()


def test_transformer_param_count_vs_model():
    """The analytic count the benches rely on must match a built model
    at a second, different configuration."""
    from repro.bench.figures import transformer_param_count
    from repro.config import get_config
    from repro.models import TransformerModel
    cfg = get_config("transformer-base", max_batch_tokens=256,
                     max_seq_len=16, hidden_dim=16, nhead=2, ffn_dim=48,
                     vocab_size=60, num_encoder_layers=3,
                     num_decoder_layers=2)
    assert TransformerModel(cfg, seed=0).num_parameters() == \
        transformer_param_count(cfg)
