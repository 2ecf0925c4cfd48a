"""Full encoder–decoder Transformer for machine translation.

The complete model the paper trains on WMT14 En–De: shared source/target
token embedding with sinusoidal positions, N pre-LN encoder layers, M
pre-LN decoder layers with cross-attention, a final LayerNorm per stack
(fairseq pre-norm convention), an output projection *tied* to the embedding
table, and the label-smoothed cross-entropy criterion.

``forward`` returns the summed loss and token count and ``backward``
accumulates parameter gradients on the layers, ready for the trainer;
:func:`repro.training.loop.staged_forward_backward` runs the pair as a
training step's compute (stages 1–2 of Fig. 3).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..backend.dtypes import itemsize
from ..backend.kernels import elementwise as ew
from ..config import LSConfig
from ..layers import initializers as init
from ..layers.attention import causal_mask, padding_mask
from ..layers.base import Layer
from ..layers.criterion import LSCrossEntropyLayer
from ..layers.decoder import LSTransformerDecoderLayer
from ..layers.embedding import LSEmbeddingLayer
from ..layers.encoder import LSTransformerEncoderLayer, _LayerNormOp
from ..layers.projection import OutputProjection


class TransformerModel(Layer):
    """Encoder–decoder Transformer with tied embeddings and criterion."""

    def __init__(self, config: LSConfig, name: str = "transformer", *,
                 seed: Optional[int] = None, fused_scope: str = "all"):
        """``fused_scope``: "all" fuses every component; "layers_only"
        fuses only encoder/decoder layers and leaves embedding, criterion
        and projection on the naive path — the paper's NeurST/TensorFlow
        integration ("we only integrate the encoder and decoder into
        NeurST", §4.2.1)."""
        super().__init__(config, name=name, seed=seed)
        if config.num_encoder_layers < 1 or config.num_decoder_layers < 1:
            raise ValueError("TransformerModel needs encoder AND decoder "
                             "layers; use BertModel/GPTModel otherwise")
        if fused_scope not in ("all", "layers_only"):
            raise ValueError(f"unknown fused_scope {fused_scope!r}")
        aux_cfg = (config if fused_scope == "all"
                   else config.with_overrides(fused=False))
        self.src_embed = self.add_sublayer(
            "src_embed", LSEmbeddingLayer(aux_cfg, name=f"{name}.embed",
                                          seed=seed))
        # shared target embedding: same table Parameter, own dropout stream
        self.tgt_embed = self.add_sublayer(
            "tgt_embed", LSEmbeddingLayer(
                aux_cfg, name=f"{name}.tgt_embed",
                shared_table=self.src_embed.table, seed=seed))
        self.encoder_layers = [
            self.add_sublayer(f"enc{i}", LSTransformerEncoderLayer(
                config, name=f"{name}.enc{i}", seed=seed))
            for i in range(config.num_encoder_layers)]
        self.decoder_layers = [
            self.add_sublayer(f"dec{i}", LSTransformerDecoderLayer(
                config, name=f"{name}.dec{i}", seed=seed))
            for i in range(config.num_decoder_layers)]
        h = config.hidden_dim
        if config.pre_layer_norm:
            self.enc_ln_w = self.add_param("enc_ln_w", init.ones(h))
            self.enc_ln_b = self.add_param("enc_ln_b", init.zeros(h))
            self.dec_ln_w = self.add_param("dec_ln_w", init.ones(h))
            self.dec_ln_b = self.add_param("dec_ln_b", init.zeros(h))
            self._enc_ln = _LayerNormOp(self, self.enc_ln_w, self.enc_ln_b)
            self._dec_ln = _LayerNormOp(self, self.dec_ln_w, self.dec_ln_b)
        self.out_proj = self.add_sublayer(
            "out_proj", OutputProjection(aux_cfg, name=f"{name}.out_proj",
                                         tied=self.src_embed.table,
                                         seed=seed))
        self.criterion = self.add_sublayer(
            "criterion", LSCrossEntropyLayer(aux_cfg, name=f"{name}.crit",
                                             seed=seed))

    # -- encoding / decoding ----------------------------------------------------

    def encode(self, src_tokens: np.ndarray) -> np.ndarray:
        x = self.src_embed.forward(src_tokens)
        mask = padding_mask(src_tokens, self.config.padding_idx)
        for layer in self.encoder_layers:
            x = layer.forward(x, mask=mask)
        if self.config.pre_layer_norm:
            x = self._enc_ln.forward(x, "enc_ln")
        return x

    def decode(self, tgt_tokens: np.ndarray, enc_out: np.ndarray,
               src_tokens: np.ndarray) -> np.ndarray:
        x = self.tgt_embed.forward(tgt_tokens)
        tiled = self.config.resolved_attn_impl == "tiled"
        # tiled self-attention applies causality per tile; no L x L mask
        self_mask = None if tiled else causal_mask(tgt_tokens.shape[1])
        cross_mask = padding_mask(src_tokens, self.config.padding_idx)
        for layer in self.decoder_layers:
            x = layer.forward(x, enc_out, self_mask=self_mask,
                              cross_mask=cross_mask, self_causal=tiled)
        if self.config.pre_layer_norm:
            x = self._dec_ln.forward(x, "dec_ln")
        return x

    def forward(self, src_tokens: np.ndarray, tgt_input: np.ndarray,
                tgt_output: np.ndarray) -> Tuple[float, int]:
        """Full forward: returns (summed loss, non-pad target tokens).

        ``tgt_input`` is the shifted target (<bos> y1 ... y_{n-1}) and
        ``tgt_output`` the prediction targets (y1 ... yn), fairseq-style.
        """
        enc_out = self.encode(src_tokens)
        dec_out = self.decode(tgt_input, enc_out, src_tokens)
        logits = self.out_proj.forward(dec_out)
        return self.criterion.forward(logits, tgt_output)

    def backward(self, grad_scale: float = 1.0) -> None:
        """Backward through the whole graph; accumulates param grads."""
        cfg = self.config
        d_logits = self.criterion.backward(grad_scale)
        d_dec = self.out_proj.backward(d_logits)
        if cfg.pre_layer_norm:
            d_dec = self._dec_ln.backward(d_dec, "dec_ln")
        d_enc_total: Optional[np.ndarray] = None
        for layer in reversed(self.decoder_layers):
            d_dec, d_enc = layer.backward(d_dec)
            if d_enc_total is None:
                d_enc_total = d_enc
            else:
                d_enc_total = ew.residual_add_naive(d_enc_total, d_enc,
                                                    fp16=cfg.fp16)
        self.tgt_embed.backward(d_dec)
        d_x = d_enc_total
        if cfg.pre_layer_norm:
            d_x = self._enc_ln.backward(d_x, "enc_ln")
        for layer in reversed(self.encoder_layers):
            d_x = layer.backward(d_x)
        self.src_embed.backward(d_x)


def activation_bytes(config: LSConfig, batch: int, seq: int) -> int:
    """Analytic temporary-memory footprint of one training step.

    Counts the activations saved for backward plus the transient logits —
    the tensors living in the §3.3 "temporary memory" region.  Used by the
    corpus scan and the Fig.-16 simulation, where actually materialising
    (batch, seq, 37000) logits would be wasteful.
    """
    h, f, n, v = (config.hidden_dim, config.ffn_dim, config.nhead,
                  config.vocab_size)
    it = itemsize(config.fp16)
    blh = batch * seq * h
    scores = batch * n * seq * seq
    blf = batch * seq * f

    embed = blh * it + blh  # output + uint8 dropout mask, per embedding
    attn = (5 * blh * it          # x, q, k, v, merged
            + 2 * scores * it     # probs, probs_dropped
            + scores)             # uint8 attention-dropout mask
    sublayer_epilogue = blh       # uint8 mask
    ln = blh * it + 2 * batch * seq * it     # saved x + mu + rstd
    ffn = blh * it + 2 * blf * it + blf      # x, pre, hidden + uint8 mask
    enc_layer = attn + 2 * sublayer_epilogue + 2 * ln + ffn
    dec_layer = 2 * attn + 3 * sublayer_epilogue + 3 * ln + ffn
    logits = batch * seq * v * it            # projection output + q cache
    total = (2 * embed
             + config.num_encoder_layers * enc_layer
             + config.num_decoder_layers * dec_layer
             + 2 * ln                         # final stack LayerNorms
             + 2 * logits)
    return int(total)


def parameter_bytes(config: LSConfig, num_params: int, *,
                    trainer: str, world_size: int = 1) -> int:
    """Permanent-memory footprint: params + grads + optimizer state.

    ``trainer``: "naive"/"apex" keep FP32 masters and FP32 gradient copies
    (+8 bytes/param) on top of FP16 storage; "lightseq" keeps only the FP16
    workspaces plus FP32 Adam m/v; "zero1" additionally shards the Adam
    state ``world_size`` ways (ZeRO stage 1), so per-replica m/v shrink by
    ``(world_size - 1)/world_size``.
    """
    it = itemsize(config.fp16)
    base = 2 * num_params * it       # params + grads at storage precision
    adam_state = 8 * num_params      # m, v in FP32 (all trainers)
    if trainer in ("naive", "apex"):
        extra = 8 * num_params if config.fp16 else 0   # masters + fp32 grads
    elif trainer == "lightseq":
        extra = 0
    elif trainer == "zero1":
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        extra = 0
        adam_state = 8 * math.ceil(num_params / world_size)
    else:
        raise ValueError(f"unknown trainer {trainer!r}")
    return base + adam_state + extra
