"""Position-wise feed-forward network with manual backward.

``FFN(x) = (dropout(act(x @ W1^T + b1))) @ W2^T`` — the second bias is owned
by the enclosing sublayer so it can fold into the fused
``bias + dropout + residual`` epilogue (Fig. 5).

* fused path: GEMM1 → one ``bias+act+dropout`` kernel → GEMM2.
* naive path: GEMM1 → bias kernel → activation kernel → dropout kernel →
  GEMM2 (framework style, one launch per op).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.kernels import elementwise as ew
from ..backend.kernels import gemm
from ..config import LSConfig
from . import initializers as init
from .base import Layer


class FeedForward(Layer):
    """Two-layer position-wise FFN (ReLU or GeLU)."""

    def __init__(self, config: LSConfig, name: str = "ffn", *,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        h, f = config.hidden_dim, config.ffn_dim
        self.w1 = self.add_param("w1", init.xavier_uniform(self.rng, (f, h)))
        self.b1 = self.add_param("b1", init.zeros(f))
        self.w2 = self.add_param("w2", init.xavier_uniform(self.rng, (h, f)))

    @property
    def _p(self) -> float:
        """Activation dropout (fairseq's --activation-dropout; falls back
        to the relu_dropout the paper's Fig. 5 shows after the activation)."""
        if not self.training:
            return 0.0
        return self.config.activation_dropout

    def forward(self, x: np.ndarray) -> np.ndarray:
        fused = self.config.fused
        fp16 = self.config.fp16
        act = self.config.activation
        p = self._p
        inner = gemm.linear_forward(x, self.w1.compute(), fp16=fp16,
                                    name="gemm_ffn1")
        if fused:
            # residual: what the fused backward multiplies by (pre-activation
            # for ReLU, the saved activation derivative for GeLU)
            hidden, mask, residual = ew.bias_act_dropout_forward(
                inner, self.b1.compute(), p, self.rng, activation=act,
                fp16=fp16)
        else:
            # the naive backward kernels recompute from the pre-activation
            residual = pre = ew.bias_add_naive(inner, self.b1.compute(),
                                               fp16=fp16)
            if act == "relu":
                a = ew.relu_forward_naive(pre, fp16=fp16)
            else:
                a = ew.gelu_forward_naive(pre, fp16=fp16)
            if p > 0:
                hidden, mask = ew.dropout_forward_naive(a, p, self.rng,
                                                        fp16=fp16)
            else:
                hidden, mask = a, None
        out = gemm.linear_forward(hidden, self.w2.compute(), fp16=fp16,
                                  name="gemm_ffn2")
        self.tap("out", out)
        self.save(x=x, residual=residual, hidden=hidden)
        if mask is not None:
            self.save(mask=mask)
        self._had_mask = mask is not None
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        fused = self.config.fused
        fp16 = self.config.fp16
        act = self.config.activation
        p = self._p
        x, hidden = self.saved("x"), self.saved("hidden")
        residual = self.saved("residual")

        d_hidden, dw2 = gemm.linear_backward(
            hidden, self.w2.compute(), d_out, fp16=fp16, name="gemm_ffn2")
        self.w2.accumulate_grad(dw2)

        if fused:
            # mask=None when dropout was off — no all-ones mask materialised
            mask = self.saved("mask") if self._had_mask else None
            d_inner, db1 = ew.bias_act_dropout_backward(
                d_hidden, mask, residual, p, activation=act, fp16=fp16)
        else:
            if self._had_mask and p > 0:
                d_act = ew.dropout_backward_naive(
                    d_hidden, self.saved("mask"), p, fp16=fp16)
            else:
                d_act = d_hidden
            if act == "relu":
                d_inner = ew.relu_backward_naive(d_act, residual, fp16=fp16)
            else:
                d_inner = ew.gelu_backward_naive(d_act, residual, fp16=fp16)
            db1 = ew.bias_grad_naive(d_inner, fp16=fp16)
        self.b1.accumulate_grad(db1)

        d_x, dw1 = gemm.linear_backward(
            x, self.w1.compute(), d_inner, fp16=fp16, name="gemm_ffn1")
        self.w1.accumulate_grad(dw1)
        return d_x
