"""Model/layer configuration, mirroring the paper's Fig. 10 API.

``LSTransformerEncoderLayer.get_config(model="transformer-big", ...)`` in
LightSeq2 resolves a named architecture preset plus per-run capacity limits
(``max_batch_tokens``, ``max_seq_len``) that size the pre-allocated memory.
:func:`get_config` reproduces that flow.

Presets cover the architectures the paper evaluates:

* ``transformer-base`` / ``transformer-big`` — WMT14 En–De machine
  translation (Vaswani et al.: shared BPE vocabulary of ~37k types; base =
  512d/8h/2048ffn, big = 1024d/16h/4096ffn, 6 encoder + 6 decoder layers).
* ``bert-base`` / ``bert-large`` — GLUE MRPC fine-tuning (GeLU, post-LN,
  30522 WordPiece vocab).
* ``vit-b-32`` / ``vit-l-32`` — CIFAR-10 image classification at 224×224
  with patch size 32, i.e. sequence length 7*7 + [CLS] = 50 (paper §4.2.2).
* ``gpt2-small`` — decoder-only language modelling (GPT support, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class LSConfig:
    """Complete configuration for LightSeq2 layers and models."""

    model: str = "transformer-base"
    hidden_dim: int = 512
    nhead: int = 8
    ffn_dim: int = 2048
    num_encoder_layers: int = 6
    num_decoder_layers: int = 6
    vocab_size: int = 37000
    max_seq_len: int = 256
    max_batch_tokens: int = 4096
    fp16: bool = False
    local_rank: int = 0
    dropout: float = 0.1
    attn_dropout: float = 0.1
    activation_dropout: float = 0.0
    activation: str = "relu"
    pre_layer_norm: bool = True
    label_smoothing: float = 0.1
    padding_idx: int = 1          # fairseq convention: <pad> = 1
    #: LightSeq2 fused kernels (True) or naive per-op baseline (False).
    fused: bool = True
    #: attention score-path implementation: "naive" (per-op kernels),
    #: "fused" (one softmax+dropout launch over the full L^2 scores),
    #: "tiled" (FlashAttention-style blockwise kernels, O(L) activations),
    #: or "auto" (follow ``fused``).  Projections stay governed by
    #: ``fused``; this flag selects only the score/softmax/context path.
    attn_impl: str = "auto"
    #: score-tile edges for the tiled attention path (rows x cols of the
    #: on-chip block; the backward working set is one such tile).
    attn_tile_q: int = 128
    attn_tile_k: int = 128
    #: patch size / image size for ViT presets.
    patch_size: int = 32
    image_size: int = 224
    num_channels: int = 3
    num_classes: int = 10

    def __post_init__(self):
        if self.hidden_dim % self.nhead:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} must be divisible by "
                f"nhead {self.nhead}")
        if self.hidden_dim % 2:
            raise ValueError("hidden_dim must be even (sinusoidal pos-emb)")
        if not 0 <= self.dropout < 1 or not 0 <= self.attn_dropout < 1:
            raise ValueError("dropout probabilities must be in [0, 1)")
        if not 0 <= self.label_smoothing <= 1:
            raise ValueError("label_smoothing must be in [0, 1]")
        if self.max_batch_tokens < self.max_seq_len:
            raise ValueError(
                "max_batch_tokens must be at least max_seq_len "
                f"({self.max_batch_tokens} < {self.max_seq_len})")
        if self.attn_impl not in ("auto", "naive", "fused", "tiled"):
            raise ValueError(
                f"attn_impl must be auto|naive|fused|tiled, "
                f"got {self.attn_impl!r}")
        if self.attn_tile_q < 1 or self.attn_tile_k < 1:
            raise ValueError("attention tile sizes must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.nhead

    @property
    def resolved_attn_impl(self) -> str:
        """``attn_impl`` with "auto" resolved against ``fused``."""
        if self.attn_impl == "auto":
            return "fused" if self.fused else "naive"
        return self.attn_impl

    @property
    def vit_seq_len(self) -> int:
        """ViT token count: (image/patch)^2 patches + [CLS]."""
        n = self.image_size // self.patch_size
        return n * n + 1

    def with_overrides(self, **kw) -> "LSConfig":
        return replace(self, **kw)


#: named architecture presets (the Fig.-10 ``model=`` argument).
PRESETS: Dict[str, Dict] = {
    "transformer-base": dict(
        hidden_dim=512, nhead=8, ffn_dim=2048,
        num_encoder_layers=6, num_decoder_layers=6,
        vocab_size=37000, activation="relu", pre_layer_norm=True),
    "transformer-big": dict(
        hidden_dim=1024, nhead=16, ffn_dim=4096,
        num_encoder_layers=6, num_decoder_layers=6,
        vocab_size=37000, activation="relu", pre_layer_norm=True),
    "bert-base": dict(
        hidden_dim=768, nhead=12, ffn_dim=3072,
        num_encoder_layers=12, num_decoder_layers=0,
        vocab_size=30522, activation="gelu", pre_layer_norm=False,
        label_smoothing=0.0, padding_idx=0),
    "bert-large": dict(
        hidden_dim=1024, nhead=16, ffn_dim=4096,
        num_encoder_layers=24, num_decoder_layers=0,
        vocab_size=30522, activation="gelu", pre_layer_norm=False,
        label_smoothing=0.0, padding_idx=0),
    "vit-b-32": dict(
        hidden_dim=768, nhead=12, ffn_dim=3072,
        num_encoder_layers=12, num_decoder_layers=0,
        vocab_size=1, activation="gelu", pre_layer_norm=True,
        label_smoothing=0.0, patch_size=32, image_size=224),
    "vit-l-32": dict(
        hidden_dim=1024, nhead=16, ffn_dim=4096,
        num_encoder_layers=24, num_decoder_layers=0,
        vocab_size=1, activation="gelu", pre_layer_norm=True,
        label_smoothing=0.0, patch_size=32, image_size=224),
    "gpt2-small": dict(
        hidden_dim=768, nhead=12, ffn_dim=3072,
        num_encoder_layers=0, num_decoder_layers=12,
        vocab_size=50257, activation="gelu", pre_layer_norm=True,
        label_smoothing=0.0),
}


def get_config(model: str = "transformer-base", *,
               max_batch_tokens: int = 4096, max_seq_len: int = 256,
               fp16: bool = False, local_rank: int = 0,
               **overrides) -> LSConfig:
    """Resolve a named preset into an :class:`LSConfig` (Fig.-10 API).

    ``overrides`` may replace any :class:`LSConfig` field, e.g.
    ``get_config("transformer-big", num_encoder_layers=12)`` for the 12e12d
    scaling experiments of Fig. 9.
    """
    if model not in PRESETS:
        raise ValueError(
            f"unknown model preset {model!r}; available: {sorted(PRESETS)}")
    kw = dict(PRESETS[model])
    kw.update(model=model, max_batch_tokens=max_batch_tokens,
              max_seq_len=max_seq_len, fp16=fp16, local_rank=local_rank)
    kw.update(overrides)
    return LSConfig(**kw)
