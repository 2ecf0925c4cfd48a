"""GPT: decoder-only language model (paper Table 1: "GPT (decoder-only)").

A GPT block is a Transformer decoder layer *without* cross-attention —
structurally identical to a pre-LN encoder layer driven with a causal
self-attention mask.  The model ties the output projection to the token
embedding and trains with (unsmoothed by default) cross-entropy on
next-token prediction.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import LSConfig
from ..layers import initializers as init
from ..layers.attention import causal_mask, combine_masks, padding_mask
from ..layers.base import Layer
from ..layers.criterion import LSCrossEntropyLayer
from ..layers.embedding import LSEmbeddingLayer
from ..layers.encoder import LSTransformerEncoderLayer, _LayerNormOp
from ..layers.projection import OutputProjection


class GPTModel(Layer):
    """Decoder-only causal LM with tied embeddings."""

    def __init__(self, config: LSConfig, name: str = "gpt", *,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        if config.num_decoder_layers < 1:
            raise ValueError("GPTModel needs num_decoder_layers >= 1")
        self.embed = self.add_sublayer(
            "embed", LSEmbeddingLayer(config, name=f"{name}.embed", seed=seed))
        # causal self-attention blocks: encoder-layer structure + causal mask
        self.blocks = [
            self.add_sublayer(f"block{i}", LSTransformerEncoderLayer(
                config, name=f"{name}.block{i}", seed=seed))
            for i in range(config.num_decoder_layers)]
        h = config.hidden_dim
        self.ln_w = self.add_param("ln_w", init.ones(h))
        self.ln_b = self.add_param("ln_b", init.zeros(h))
        self._ln = _LayerNormOp(self, self.ln_w, self.ln_b)
        self.out_proj = self.add_sublayer(
            "out_proj", OutputProjection(config, name=f"{name}.out_proj",
                                         tied=self.embed.table, seed=seed))
        self.criterion = self.add_sublayer(
            "criterion", LSCrossEntropyLayer(config, name=f"{name}.crit",
                                             seed=seed))

    def forward(self, tokens: np.ndarray, targets: np.ndarray
                ) -> Tuple[float, int]:
        """``tokens``: (B, L) input ids; ``targets``: (B, L) next tokens
        (padding_idx positions are excluded from the loss)."""
        cfg = self.config
        pad = padding_mask(tokens, cfg.padding_idx)
        if cfg.resolved_attn_impl == "tiled":
            # the tiled kernels take causal=True: the L x L triangle is
            # never materialised (diagonal tiles mask locally, the rest
            # are skipped); only the O(L) padding mask is passed through
            mask, causal = pad, True
        else:
            mask, causal = combine_masks(causal_mask(tokens.shape[1]),
                                         pad), False
        x = self.embed.forward(tokens)
        for blk in self.blocks:
            x = blk.forward(x, mask=mask, causal=causal)
        if cfg.pre_layer_norm:
            x = self._ln.forward(x, "final_ln")
        logits = self.out_proj.forward(x)
        return self.criterion.forward(logits, targets)

    def backward(self, grad_scale: float = 1.0) -> None:
        cfg = self.config
        d_logits = self.criterion.backward(grad_scale)
        d_x = self.out_proj.backward(d_logits)
        if cfg.pre_layer_norm:
            d_x = self._ln.backward(d_x, "final_ln")
        for blk in reversed(self.blocks):
            d_x = blk.backward(d_x)
        self.embed.backward(d_x)
