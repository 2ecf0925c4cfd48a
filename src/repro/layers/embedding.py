"""Embedding layer (§3.1.2): ``y = Dropout(s * E_w + P_p)``.

Token table is trainable; the positional table is the *sinusoidal* one
("which does not require training").  The embedding scale is
``sqrt(hidden_dim)``, the Transformer default.

The fused path runs one kernel each way; the naive path reproduces the
framework's 4-launch forward / 3-launch backward (gather, scale, pos-add,
dropout / dropout-bwd, un-scale, scatter-add).  The backward scatter-add is
the paper's atomicAdd reduction over repeated tokens.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.kernels import embedding as embk
from ..config import LSConfig, get_config
from . import initializers as init
from .base import Layer


class LSEmbeddingLayer(Layer):
    """Token + sinusoidal positional embedding with fused dropout."""

    get_config = staticmethod(get_config)

    def __init__(self, config: LSConfig, name: str = "embedding", *,
                 shared_table=None, seed: Optional[int] = None):
        """``shared_table``: an existing table Parameter to tie to (the
        "shared embedding" component, paper Table 1).  When given, this
        layer accumulates its gradient into the shared Parameter and does
        not register a table of its own."""
        super().__init__(config, name=name, seed=seed)
        v, h = config.vocab_size, config.hidden_dim
        if shared_table is not None:
            if shared_table.shape != (v, h):
                raise ValueError(
                    f"shared table shape {shared_table.shape} != ({v}, {h})")
            self.table = shared_table
        else:
            self.table = self.add_param(
                "table", init.embedding_table(self.rng, v, h,
                                              padding_idx=config.padding_idx))
        # sinusoidal table: fixed, not a Parameter (no gradient, no trainer)
        self.pos_table = embk.sinusoidal_positions(config.max_seq_len, h)
        self.scale = float(h) ** 0.5

    def capture_constants(self):
        return [self.pos_table] + super().capture_constants()

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """``tokens``: int array (B, L) -> embeddings (B, L, H)."""
        cfg = self.config
        p = self.dropout_p
        fn = (embk.embedding_forward_fused if cfg.fused
              else embk.embedding_forward_naive)
        y, mask = fn(tokens, self.table.compute(), self.pos_table,
                     self.scale, p, self.rng, fp16=cfg.fp16,
                     pad_idx=cfg.padding_idx)
        self.tap("out", y)
        self.save(dmask=mask)
        self._tokens = tokens
        return y

    def backward(self, dy: np.ndarray) -> None:
        """Embedding is the bottom of the graph: no input gradient."""
        cfg = self.config
        p = self.dropout_p
        fn = (embk.embedding_backward_fused if cfg.fused
              else embk.embedding_backward_naive)
        grad = fn(dy, self._tokens, self.saved("dmask"), self.scale, p,
                  cfg.vocab_size, fp16=cfg.fp16, pad_idx=cfg.padding_idx)
        # only the batch's rows can be nonzero; the token array itself (the
        # step's input, not a view of it) goes into the host call so a
        # replay rebinds it
        self.table.accumulate_grad(grad, rows=self._tokens)
