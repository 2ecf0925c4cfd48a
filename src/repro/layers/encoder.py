"""Transformer encoder layer (Fig. 5) — fused & naive, pre-LN & post-LN.

Structure (pre-LN, as in the paper's optimized Transformer)::

    residual = x
    y   = LayerNorm1(x)
    z   = SelfAttention(y)                    # out-proj output, bias pending
    x'  = dropout(z + b_attn) + residual      # ONE fused kernel
    residual = x'
    y   = LayerNorm2(x')
    z   = FFN(y)                              # second GEMM output, bias pending
    out = dropout(z + b_ffn) + residual       # ONE fused kernel

Post-LN (``pre_layer_norm=False``, the BERT layout for Table 2) applies the
LayerNorms after each residual instead.

The class name and ``get_config`` mirror the paper's Fig.-10 public API.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.kernels import elementwise as ew
from ..backend.kernels import layernorm as lnk
from ..config import LSConfig, get_config
from . import initializers as init
from .attention import MultiHeadAttention
from .base import Layer
from .ffn import FeedForward


class _LayerNormOp:
    """Dispatch helper: fused vs naive LayerNorm kernels on one param pair."""

    def __init__(self, layer: Layer, w, b):
        self.layer = layer
        self.w = w
        self.b = b

    def forward(self, x: np.ndarray, tag: str) -> np.ndarray:
        cfg = self.layer.config
        fn = (lnk.layernorm_forward_fused if cfg.fused
              else lnk.layernorm_forward_naive)
        y, mu, rstd = fn(x, self.w.compute(), self.b.compute(),
                         fp16=cfg.fp16)
        self.layer.save(**{f"{tag}_x": x, f"{tag}_mu": mu,
                           f"{tag}_rstd": rstd})
        return y

    def backward(self, dy: np.ndarray, tag: str) -> np.ndarray:
        cfg = self.layer.config
        fn = (lnk.layernorm_backward_fused if cfg.fused
              else lnk.layernorm_backward_naive)
        dx, dw, db = fn(dy, self.layer.saved(f"{tag}_x"), self.w.compute(),
                        self.layer.saved(f"{tag}_mu"),
                        self.layer.saved(f"{tag}_rstd"), fp16=cfg.fp16)
        self.w.accumulate_grad(dw)
        self.b.accumulate_grad(db)
        return dx


def _epilogue_fwd(layer: Layer, z: np.ndarray, bias, residual: np.ndarray,
                  tag: str) -> np.ndarray:
    """``dropout(z + b) + residual`` — fused: 1 kernel; naive: 3.

    Shared by the encoder and decoder layers (same math, each layer saves
    its own masks under ``tag``).
    """
    cfg = layer.config
    p = layer.dropout_p
    if cfg.fused:
        out, mask = ew.bias_dropout_residual_forward(
            z, bias.compute(), residual, p, layer.rng, fp16=cfg.fp16)
    else:
        zb = ew.bias_add_naive(z, bias.compute(), fp16=cfg.fp16)
        if p > 0:
            zd, mask = ew.dropout_forward_naive(zb, p, layer.rng,
                                                fp16=cfg.fp16)
        else:
            zd, mask = zb, None    # p == 0: no mask materialised
        out = ew.residual_add_naive(zd, residual, fp16=cfg.fp16)
    layer.save(**{f"{tag}_dmask": mask})
    return out


def _epilogue_bwd(layer: Layer, d_out: np.ndarray, bias, tag: str):
    """Backward of the epilogue: returns (d_z, d_residual)."""
    cfg = layer.config
    p = layer.dropout_p
    mask = layer.saved(f"{tag}_dmask")
    if cfg.fused:
        d_z, db, d_res = ew.bias_dropout_residual_backward(
            d_out, mask, p, fp16=cfg.fp16)
    else:
        if p > 0:
            d_z = ew.dropout_backward_naive(d_out, mask, p, fp16=cfg.fp16)
        else:
            d_z = d_out
        db = ew.bias_grad_naive(d_z, fp16=cfg.fp16)
        d_res = d_out
    bias.accumulate_grad(db)
    return d_z, d_res


class LSTransformerEncoderLayer(Layer):
    """LightSeq2 encoder layer: self-attention + FFN sublayers."""

    #: Fig.-10 API: resolve a named preset into a config.
    get_config = staticmethod(get_config)

    def __init__(self, config: LSConfig, name: str = "enc_layer", *,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        h = config.hidden_dim
        self.attn = self.add_sublayer(
            "attn", MultiHeadAttention(config, name=f"{name}.attn", seed=seed))
        self.b_attn_o = self.add_param("b_attn_o", init.zeros(h))
        self.ln1_w = self.add_param("ln1_w", init.ones(h))
        self.ln1_b = self.add_param("ln1_b", init.zeros(h))
        self.ffn = self.add_sublayer(
            "ffn", FeedForward(config, name=f"{name}.ffn", seed=seed))
        self.b_ffn_o = self.add_param("b_ffn_o", init.zeros(h))
        self.ln2_w = self.add_param("ln2_w", init.ones(h))
        self.ln2_b = self.add_param("ln2_b", init.zeros(h))
        self._ln1 = _LayerNormOp(self, self.ln1_w, self.ln1_b)
        self._ln2 = _LayerNormOp(self, self.ln2_w, self.ln2_b)

    # -- forward / backward --------------------------------------------------------

    def forward(self, x: np.ndarray,
                mask: Optional[np.ndarray] = None,
                causal: bool = False) -> np.ndarray:
        """``x``: (B, L, H); ``mask``: additive attention mask or None.
        ``causal`` applies the future mask inside attention (GPT blocks)
        without the caller materialising an L x L triangle."""
        pre_ln = self.config.pre_layer_norm
        # --- self-attention sublayer
        residual = x
        y = self._ln1.forward(x, "ln1") if pre_ln else x
        z = self.attn.forward(y, mask=mask, causal=causal)
        h = _epilogue_fwd(self, z, self.b_attn_o, residual, "attn")
        if not pre_ln:
            h = self._ln1.forward(h, "ln1")
        self.tap("attn_out", h)
        # --- FFN sublayer
        residual = h
        y = self._ln2.forward(h, "ln2") if pre_ln else h
        z = self.ffn.forward(y)
        out = _epilogue_fwd(self, z, self.b_ffn_o, residual, "ffn")
        if not pre_ln:
            out = self._ln2.forward(out, "ln2")
        self.tap("out", out)
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        cfg = self.config
        pre_ln = cfg.pre_layer_norm
        # --- FFN sublayer backward
        if not pre_ln:
            d_out = self._ln2.backward(d_out, "ln2")
        d_z, d_res = _epilogue_bwd(self, d_out, self.b_ffn_o, "ffn")
        d_y = self.ffn.backward(d_z)
        if pre_ln:
            d_y = self._ln2.backward(d_y, "ln2")
        d_h = ew.residual_add_naive(d_y, d_res, fp16=cfg.fp16)
        # --- attention sublayer backward
        if not pre_ln:
            d_h = self._ln1.backward(d_h, "ln1")
        d_z, d_res = _epilogue_bwd(self, d_h, self.b_attn_o, "attn")
        d_y, _ = self.attn.backward(d_z)
        if pre_ln:
            d_y = self._ln1.backward(d_y, "ln1")
        d_x = ew.residual_add_naive(d_y, d_res, fp16=cfg.fp16)
        return d_x
