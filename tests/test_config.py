"""Configuration: presets, validation, the Fig.-10 get_config API."""

import numpy as np
import pytest

from repro.config import PRESETS, LSConfig, get_config


class TestPresets:
    def test_transformer_big_matches_paper(self):
        cfg = get_config("transformer-big")
        assert cfg.hidden_dim == 1024 and cfg.nhead == 16
        assert cfg.ffn_dim == 4096
        assert cfg.num_encoder_layers == cfg.num_decoder_layers == 6
        assert cfg.pre_layer_norm and cfg.activation == "relu"
        assert cfg.label_smoothing == 0.1

    def test_transformer_base_matches_paper(self):
        cfg = get_config("transformer-base")
        assert (cfg.hidden_dim, cfg.nhead, cfg.ffn_dim) == (512, 8, 2048)

    def test_bert_presets(self):
        base = get_config("bert-base")
        large = get_config("bert-large")
        assert base.hidden_dim == 768 and base.num_encoder_layers == 12
        assert large.hidden_dim == 1024 and large.num_encoder_layers == 24
        for cfg in (base, large):
            assert cfg.activation == "gelu"
            assert not cfg.pre_layer_norm        # post-LN, BERT layout
            assert cfg.vocab_size == 30522
            assert cfg.num_decoder_layers == 0

    def test_vit_presets_paper_geometry(self):
        for name in ("vit-b-32", "vit-l-32"):
            cfg = get_config(name)
            assert cfg.image_size == 224 and cfg.patch_size == 32
            assert cfg.vit_seq_len == 50         # §4.2.2

    def test_gpt_preset(self):
        cfg = get_config("gpt2-small")
        assert cfg.num_encoder_layers == 0
        assert cfg.num_decoder_layers == 12
        assert cfg.vocab_size == 50257

    def test_all_presets_construct(self):
        for name in PRESETS:
            cfg = get_config(name)
            assert cfg.model == name

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown model preset"):
            get_config("transformer-huge")


class TestValidation:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            get_config("transformer-base", hidden_dim=100, nhead=3)

    def test_even_hidden(self):
        with pytest.raises(ValueError, match="even"):
            get_config("transformer-base", hidden_dim=33, nhead=1)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            get_config("transformer-base", dropout=1.0)
        with pytest.raises(ValueError):
            get_config("transformer-base", attn_dropout=-0.1)

    def test_label_smoothing_range(self):
        with pytest.raises(ValueError):
            get_config("transformer-base", label_smoothing=1.5)

    def test_batch_tokens_vs_seq_len(self):
        with pytest.raises(ValueError):
            get_config("transformer-base", max_batch_tokens=100,
                       max_seq_len=256)


class TestDerived:
    def test_head_dim(self):
        cfg = get_config("transformer-big")
        assert cfg.head_dim == 64

    def test_with_overrides_immutable(self):
        cfg = get_config("transformer-base")
        cfg2 = cfg.with_overrides(fp16=True)
        assert cfg2.fp16 and not cfg.fp16
        assert cfg2.hidden_dim == cfg.hidden_dim

    def test_config_hashable(self):
        """Frozen dataclass: usable as a trace-cache key."""
        a = get_config("transformer-base")
        b = get_config("transformer-base")
        assert hash(a) == hash(b) and a == b
        assert hash(a.with_overrides(fp16=True)) != hash(a)

    def test_fig10_signature(self):
        """The exact call from the paper's code listing works."""
        from repro import LSTransformerEncoderLayer
        config = LSTransformerEncoderLayer.get_config(
            model="transformer-big",
            max_batch_tokens=4096,
            max_seq_len=256,
            fp16=True,
            local_rank=0,
        )
        assert config.fp16 and config.local_rank == 0


class TestInitializers:
    def test_xavier_bounds(self, rng):
        from repro.layers.initializers import xavier_uniform
        w = xavier_uniform(rng, (100, 400))
        bound = (6.0 / 500) ** 0.5
        assert float(np.abs(w).max()) <= bound
        assert w.dtype == np.float32

    def test_embedding_table_padding_zero(self, rng):
        from repro.layers.initializers import embedding_table
        t = embedding_table(rng, 50, 16, padding_idx=1)
        assert not t[1].any()
        assert abs(float(t.std()) - 16 ** -0.5) < 0.05
        with pytest.raises(ValueError):
            embedding_table(rng, 50, 16, padding_idx=99)

