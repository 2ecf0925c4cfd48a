"""Transformer decoder layer — the part DeepSpeed does not accelerate.

Pre-LN structure::

    x  --LN--> causal self-attention --[bias+dropout+residual]-->
       --LN--> cross-attention(enc_out) --[bias+dropout+residual]-->
       --LN--> FFN --[bias+dropout+residual]--> out

The cross-attention queries come from the decoder stream and keys/values
from the encoder output — the "cross attention computation between decoder
and encoder layers" the paper singles out as the nontrivial extension.

``backward`` returns gradients for BOTH inputs: the decoder stream and the
encoder output (the latter is accumulated across decoder layers by the
enclosing model).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backend.kernels import elementwise as ew
from ..config import LSConfig, get_config
from . import initializers as init
from .attention import MultiHeadAttention
from .base import Layer
from .encoder import _LayerNormOp, _epilogue_bwd, _epilogue_fwd
from .ffn import FeedForward


class LSTransformerDecoderLayer(Layer):
    """LightSeq2 decoder layer: masked self-attn + cross-attn + FFN."""

    get_config = staticmethod(get_config)

    def __init__(self, config: LSConfig, name: str = "dec_layer", *,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        h = config.hidden_dim
        self.self_attn = self.add_sublayer(
            "self_attn",
            MultiHeadAttention(config, name=f"{name}.self_attn", seed=seed))
        self.b_self_o = self.add_param("b_self_o", init.zeros(h))
        self.ln1_w = self.add_param("ln1_w", init.ones(h))
        self.ln1_b = self.add_param("ln1_b", init.zeros(h))
        self.cross_attn = self.add_sublayer(
            "cross_attn",
            MultiHeadAttention(config, name=f"{name}.cross_attn",
                               is_cross=True, seed=seed))
        self.b_cross_o = self.add_param("b_cross_o", init.zeros(h))
        self.ln2_w = self.add_param("ln2_w", init.ones(h))
        self.ln2_b = self.add_param("ln2_b", init.zeros(h))
        self.ffn = self.add_sublayer(
            "ffn", FeedForward(config, name=f"{name}.ffn", seed=seed))
        self.b_ffn_o = self.add_param("b_ffn_o", init.zeros(h))
        self.ln3_w = self.add_param("ln3_w", init.ones(h))
        self.ln3_b = self.add_param("ln3_b", init.zeros(h))
        self._ln1 = _LayerNormOp(self, self.ln1_w, self.ln1_b)
        self._ln2 = _LayerNormOp(self, self.ln2_w, self.ln2_b)
        self._ln3 = _LayerNormOp(self, self.ln3_w, self.ln3_b)

    def forward(self, x: np.ndarray, enc_out: np.ndarray,
                self_mask: Optional[np.ndarray] = None,
                cross_mask: Optional[np.ndarray] = None,
                self_causal: bool = False) -> np.ndarray:
        """``x``: decoder stream (B, Lt, H); ``enc_out``: (B, Ls, H).

        ``self_mask`` should include the causal mask (see
        :func:`repro.layers.attention.causal_mask`) unless
        ``self_causal=True``, which applies it inside the attention layer
        (tile-skipped on the tiled path, never materialised at L x L);
        ``cross_mask`` masks encoder padding positions.
        """
        pre_ln = self.config.pre_layer_norm
        # --- masked self-attention
        residual = x
        y = self._ln1.forward(x, "ln1") if pre_ln else x
        z = self.self_attn.forward(y, mask=self_mask, causal=self_causal)
        h = _epilogue_fwd(self, z, self.b_self_o, residual, "self")
        if not pre_ln:
            h = self._ln1.forward(h, "ln1")
        self.tap("self_attn_out", h)
        # --- cross-attention
        residual = h
        y = self._ln2.forward(h, "ln2") if pre_ln else h
        z = self.cross_attn.forward(y, kv=enc_out, mask=cross_mask)
        h = _epilogue_fwd(self, z, self.b_cross_o, residual, "cross")
        if not pre_ln:
            h = self._ln2.forward(h, "ln2")
        self.tap("cross_attn_out", h)
        # --- FFN
        residual = h
        y = self._ln3.forward(h, "ln3") if pre_ln else h
        z = self.ffn.forward(y)
        out = _epilogue_fwd(self, z, self.b_ffn_o, residual, "ffn")
        if not pre_ln:
            out = self._ln3.forward(out, "ln3")
        self.tap("out", out)
        return out

    def backward(self, d_out: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Returns ``(d_x, d_enc_out)``."""
        cfg = self.config
        pre_ln = cfg.pre_layer_norm
        # --- FFN backward
        if not pre_ln:
            d_out = self._ln3.backward(d_out, "ln3")
        d_z, d_res = _epilogue_bwd(self, d_out, self.b_ffn_o, "ffn")
        d_y = self.ffn.backward(d_z)
        if pre_ln:
            d_y = self._ln3.backward(d_y, "ln3")
        d_h = ew.residual_add_naive(d_y, d_res, fp16=cfg.fp16)
        # --- cross-attention backward
        if not pre_ln:
            d_h = self._ln2.backward(d_h, "ln2")
        d_z, d_res = _epilogue_bwd(self, d_h, self.b_cross_o, "cross")
        d_y, d_enc = self.cross_attn.backward(d_z)
        if pre_ln:
            d_y = self._ln2.backward(d_y, "ln2")
        d_h = ew.residual_add_naive(d_y, d_res, fp16=cfg.fp16)
        # --- self-attention backward
        if not pre_ln:
            d_h = self._ln1.backward(d_h, "ln1")
        d_z, d_res = _epilogue_bwd(self, d_h, self.b_self_o, "self")
        d_y, _ = self.self_attn.backward(d_z)
        if pre_ln:
            d_y = self._ln1.backward(d_y, "ln1")
        d_x = ew.residual_add_naive(d_y, d_res, fp16=cfg.fp16)
        return d_x, d_enc
