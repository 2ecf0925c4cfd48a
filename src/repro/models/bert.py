"""BERT: encoder-only model with a classification head (Table 2, MRPC).

Post-LN encoder stack (``pre_layer_norm=False``), GeLU FFN, a [CLS] pooler
(dense + tanh over position 0) and a task head — the Hugging Face
``BertForSequenceClassification`` computation the paper benchmarks against
DeepSpeed on the GLUE MRPC task.

Substitution notes (DESIGN.md §2): positions are sinusoidal instead of
BERT's learned positional table and there are no segment embeddings — both
are lookup-add ops with identical kernel structure to the token embedding,
so the speed/launch profile is preserved; MRPC itself is replaced by
synthetic sentence pairs of the same shape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backend.kernels import elementwise as ew
from ..backend.kernels import gemm, transform
from ..config import LSConfig
from ..layers import initializers as init
from ..layers.attention import padding_mask
from ..layers.base import Layer
from ..layers.criterion import LSCrossEntropyLayer
from ..layers.embedding import LSEmbeddingLayer
from ..layers.encoder import LSTransformerEncoderLayer


class BertModel(Layer):
    """BERT encoder + pooler + sequence-classification head."""

    def __init__(self, config: LSConfig, name: str = "bert", *,
                 seed: Optional[int] = None, fused_scope: str = "all"):
        """``fused_scope="layers_only"`` fuses only the encoder stack and
        keeps embedding/criterion naive — the Table-2 protocol ("we do not
        integrate the LightSeq2 embedding, criterion, and trainer in this
        experiment for a fair comparison [with DeepSpeed]")."""
        super().__init__(config, name=name, seed=seed)
        if config.num_decoder_layers:
            raise ValueError("BertModel is encoder-only")
        if fused_scope not in ("all", "layers_only"):
            raise ValueError(f"unknown fused_scope {fused_scope!r}")
        aux_cfg = (config if fused_scope == "all"
                   else config.with_overrides(fused=False))
        self._aux_cfg = aux_cfg
        h = config.hidden_dim
        self.embed = self.add_sublayer(
            "embed", LSEmbeddingLayer(aux_cfg, name=f"{name}.embed", seed=seed))
        self.layers = [
            self.add_sublayer(f"layer{i}", LSTransformerEncoderLayer(
                config, name=f"{name}.layer{i}", seed=seed))
            for i in range(config.num_encoder_layers)]
        self.pool_w = self.add_param(
            "pool_w", init.xavier_uniform(self.rng, (h, h)))
        self.pool_b = self.add_param("pool_b", init.zeros(h))
        self.head_w = self.add_param(
            "head_w", init.xavier_uniform(self.rng, (config.num_classes, h)))
        self.head_b = self.add_param("head_b", init.zeros(config.num_classes))
        self.criterion = self.add_sublayer(
            "criterion", LSCrossEntropyLayer(aux_cfg, name=f"{name}.crit",
                                             seed=seed))
        # labels are 0..C-1; no padding sentinel in a classification head
        self.criterion.ignore_index = -100

    def forward(self, tokens: np.ndarray, labels: np.ndarray
                ) -> Tuple[float, int]:
        """``tokens``: (B, L) ids; ``labels``: (B,) class ids."""
        cfg = self.config
        mask = padding_mask(tokens, cfg.padding_idx)
        x = self.embed.forward(tokens)
        for layer in self.layers:
            x = layer.forward(x, mask=mask)
        cls = x[:, 0, :]                       # [CLS] representation
        pooled_pre = gemm.linear_forward(cls, self.pool_w.compute(),
                                         fp16=cfg.fp16, name="gemm_pooler")
        if self._aux_cfg.fused:
            pooled = ew.bias_tanh_forward_fused(
                pooled_pre, self.pool_b.compute(), fp16=cfg.fp16)
        else:
            pb = ew.bias_add_naive(pooled_pre, self.pool_b.compute(),
                                   fp16=cfg.fp16)
            pooled = ew.tanh_forward_naive(pb, fp16=cfg.fp16)
        logits_pre = gemm.linear_forward(pooled, self.head_w.compute(),
                                         fp16=cfg.fp16, name="gemm_cls_head")
        logits = ew.bias_add_naive(logits_pre, self.head_b.compute(),
                                   fp16=cfg.fp16)
        self.save(x_shape=np.asarray(x.shape), cls=cls, pooled=pooled)
        self._seq_shape = x.shape
        loss, n = self.criterion.forward(logits, labels)
        return loss, n

    def backward(self, grad_scale: float = 1.0) -> None:
        cfg = self.config
        d_logits = self.criterion.backward(grad_scale)
        db_head = ew.bias_grad_naive(d_logits, fp16=cfg.fp16)
        self.head_b.accumulate_grad(db_head)
        d_pooled, dw_head = gemm.linear_backward(
            self.saved("pooled"), self.head_w.compute(), d_logits,
            fp16=cfg.fp16, name="gemm_cls_head")
        self.head_w.accumulate_grad(dw_head)
        if self._aux_cfg.fused:
            d_pre, db_pool = ew.bias_tanh_backward_fused(
                d_pooled, self.saved("pooled"), fp16=cfg.fp16)
        else:
            d_pre = ew.tanh_backward_naive(d_pooled, self.saved("pooled"),
                                           fp16=cfg.fp16)
            db_pool = ew.bias_grad_naive(d_pre, fp16=cfg.fp16)
        self.pool_b.accumulate_grad(db_pool)
        d_cls, dw_pool = gemm.linear_backward(
            self.saved("cls"), self.pool_w.compute(), d_pre,
            fp16=cfg.fp16, name="gemm_pooler")
        self.pool_w.accumulate_grad(dw_pool)
        # scatter the [CLS] gradient back into the sequence
        d_x = transform.cls_grad_scatter(d_cls, self._seq_shape)
        for layer in reversed(self.layers):
            d_x = layer.backward(d_x)
        self.embed.backward(d_x)
