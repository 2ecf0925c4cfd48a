"""Output projection onto the vocabulary, with optional weight tying.

Machine-translation Transformers tie the decoder output projection to the
(token) embedding table: ``logits = h @ E^T``.  With tying, the projection's
backward contributes a second gradient term to the shared table, which this
layer accumulates into the *same* Parameter the embedding layer owns — the
"shared embedding" module the paper lists among the components DeepSpeed
lacks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.kernels import gemm
from ..config import LSConfig
from . import initializers as init
from .base import Layer, Parameter


class OutputProjection(Layer):
    """``logits = x @ W^T`` where W is (V, H), optionally a tied embedding."""

    def __init__(self, config: LSConfig, name: str = "out_proj", *,
                 tied: Optional[Parameter] = None,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        if tied is not None:
            if tied.shape != (config.vocab_size, config.hidden_dim):
                raise ValueError(
                    f"tied table shape {tied.shape} != "
                    f"({config.vocab_size}, {config.hidden_dim})")
            self.weight = tied          # shared Parameter: NOT re-registered
            self.tied = True
        else:
            self.weight = self.add_param(
                "weight", init.embedding_table(
                    self.rng, config.vocab_size, config.hidden_dim))
            self.tied = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        logits = gemm.linear_forward(x, self.weight.compute(),
                                     fp16=self.config.fp16,
                                     name="gemm_vocab_proj")
        self.save(x=x)
        return logits

    def backward(self, d_logits: np.ndarray) -> np.ndarray:
        dx, dw = gemm.linear_backward(
            self.saved("x"), self.weight.compute(), d_logits,
            fp16=self.config.fp16, name="gemm_vocab_proj")
        self.weight.accumulate_grad(dw)
        return dx
