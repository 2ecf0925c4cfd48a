"""Model-level tests: shapes, fused==naive, parameter counting, tying."""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import (BertModel, GPTModel, TransformerModel, ViTModel,
                          activation_bytes, parameter_bytes)
from repro.training.loop import staged_forward_backward


@pytest.fixture
def mt_cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, hidden_dim=32, nhead=4, ffn_dim=64,
                      vocab_size=80, num_encoder_layers=2,
                      num_decoder_layers=2)


def _mt_batch(rng, b=2, l=8, v=80):
    return (rng.integers(4, v, (b, l)), rng.integers(4, v, (b, l)),
            rng.integers(4, v, (b, l)))


class TestTransformerModel:
    def test_forward_backward_runs(self, mt_cfg, rng):
        m = TransformerModel(mt_cfg, seed=0)
        loss, ntok = staged_forward_backward(m, _mt_batch(rng), 1.0)
        assert loss > 0 and ntok == 16
        for p in m.parameters():
            assert np.all(np.isfinite(p.grad))

    def test_fused_matches_naive(self, mt_cfg, rng):
        batch = _mt_batch(rng)
        mf = TransformerModel(mt_cfg.with_overrides(fused=True), seed=7)
        mn = TransformerModel(mt_cfg.with_overrides(fused=False), seed=7)
        lf, _ = staged_forward_backward(mf, batch, 1.0)
        ln, _ = staged_forward_backward(mn, batch, 1.0)
        assert lf == pytest.approx(ln, rel=1e-4)
        for pf, pn in zip(mf.parameters(), mn.parameters()):
            np.testing.assert_allclose(pf.grad, pn.grad, atol=5e-3,
                                       err_msg=pf.name)

    def test_embedding_tied_three_ways(self, mt_cfg):
        m = TransformerModel(mt_cfg, seed=0)
        assert m.tgt_embed.table is m.src_embed.table
        assert m.out_proj.weight is m.src_embed.table
        # tied table counted exactly once
        names = [p.name for p in m.parameters()]
        assert len(names) == len(set(names))

    def test_param_count_matches_analytic(self, mt_cfg):
        from repro.bench.figures import transformer_param_count
        m = TransformerModel(mt_cfg, seed=0)
        assert m.num_parameters() == transformer_param_count(mt_cfg)

    def test_needs_both_stacks(self, mt_cfg):
        with pytest.raises(ValueError):
            TransformerModel(mt_cfg.with_overrides(num_decoder_layers=0))

    def test_padding_targets_excluded(self, mt_cfg, rng):
        m = TransformerModel(mt_cfg, seed=0)
        src, ti, to = _mt_batch(rng)
        to = to.copy()
        to[:, -3:] = mt_cfg.padding_idx
        loss, ntok = m.forward(src, ti, to)
        assert ntok == 2 * 5

    def test_gradients_flow_to_encoder(self, mt_cfg, rng):
        """Cross-attention must backprop into every encoder layer."""
        m = TransformerModel(mt_cfg, seed=0)
        staged_forward_backward(m, _mt_batch(rng), 1.0)
        for layer in m.encoder_layers:
            g = np.abs(layer.attn.w_qkv.grad.astype(np.float32)).sum()
            assert g > 0


class TestActivationAccounting:
    def test_analytic_close_to_measured(self, mt_cfg, rng):
        """The Fig.-16 analytic estimate tracks the真 saved-tensor bytes."""
        m = TransformerModel(mt_cfg.with_overrides(fused=True), seed=0)
        b, l = 2, 8
        m.forward(*_mt_batch(rng, b=b, l=l))
        measured = m.saved_nbytes()
        analytic = activation_bytes(mt_cfg, b, l)
        assert 0.4 * analytic < measured < 1.6 * analytic

    def test_parameter_bytes_trainer_delta(self, mt_cfg):
        cfg16 = mt_cfg.with_overrides(fp16=True)
        n = 1000
        naive = parameter_bytes(cfg16, n, trainer="naive")
        ls = parameter_bytes(cfg16, n, trainer="lightseq")
        assert naive - ls == 8 * n      # masters + fp32 grads
        with pytest.raises(ValueError):
            parameter_bytes(cfg16, n, trainer="zero")


class TestBert:
    def test_forward_backward(self, rng):
        cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                         hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=60,
                         num_encoder_layers=2)
        m = BertModel(cfg, seed=0)
        toks = rng.integers(1, 60, (4, 12))
        labels = rng.integers(0, 2, 4)
        loss, n = staged_forward_backward(m, (toks, labels), 1.0)
        assert loss > 0 and n == 4
        assert np.abs(m.pool_w.grad.astype(np.float32)).sum() > 0

    def test_post_ln_used(self):
        cfg = get_config("bert-base", max_batch_tokens=256, max_seq_len=32,
                         hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=60,
                         num_encoder_layers=1)
        assert not cfg.pre_layer_norm

    def test_rejects_decoder_config(self, mt_cfg):
        with pytest.raises(ValueError):
            BertModel(mt_cfg)


class TestGPT:
    def test_forward_backward_and_causality(self, rng):
        cfg = get_config("gpt2-small", max_batch_tokens=256, max_seq_len=32,
                         hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=60,
                         num_decoder_layers=2, dropout=0.0,
                         attn_dropout=0.0)
        m = GPTModel(cfg, seed=0)
        toks = rng.integers(4, 60, (2, 10))
        tgts = rng.integers(4, 60, (2, 10))
        loss, n = staged_forward_backward(m, (toks, tgts), 1.0)
        assert loss > 0 and n == 20
        assert m.out_proj.weight is m.embed.table   # tied

    def test_untrained_loss_near_uniform(self, rng):
        """Untrained LM loss ≈ log(V) per token."""
        v = 60
        cfg = get_config("gpt2-small", max_batch_tokens=512, max_seq_len=64,
                         hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=v,
                         num_decoder_layers=1, dropout=0.0)
        m = GPTModel(cfg, seed=0)
        toks = rng.integers(4, v, (4, 32))
        tgts = rng.integers(4, v, (4, 32))
        loss, n = m.forward(toks, tgts)
        # tied-embedding logits add variance; stay within ~1.5 nats
        assert abs(loss / n - np.log(v)) < 1.5


class TestViT:
    def test_forward_backward(self, rng):
        cfg = get_config("vit-b-32", max_batch_tokens=256, max_seq_len=32,
                         hidden_dim=32, nhead=4, ffn_dim=64,
                         num_encoder_layers=2, image_size=64, patch_size=32)
        m = ViTModel(cfg, seed=0)
        imgs = rng.standard_normal((3, 3, 64, 64)).astype(np.float32)
        labels = np.array([0, 5, 9])
        loss, n = staged_forward_backward(m, (imgs, labels), 1.0)
        assert loss > 0 and n == 3
        assert np.abs(m.w_patch.grad.astype(np.float32)).sum() > 0
        assert np.abs(m.pos_embed.grad.astype(np.float32)).sum() > 0

    def test_seq_len_matches_paper(self):
        cfg = get_config("vit-b-32", max_batch_tokens=256, max_seq_len=64)
        assert cfg.vit_seq_len == 50      # 7x7 patches + [CLS] (§4.2.2)

    def test_patch_extraction_roundtrip(self, rng):
        from repro.models.vit import extract_patches
        imgs = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        p = extract_patches(imgs, 4)
        assert p.shape == (2, 4, 48)
        # first patch = top-left 4x4 block, channel-major
        np.testing.assert_array_equal(
            p[0, 0], imgs[0, :, :4, :4].reshape(-1))
        with pytest.raises(ValueError):
            extract_patches(imgs, 3)
