"""Vision Transformer (ViT) for image classification — Fig. 12.

ViT-B/32 and ViT-L/32 at 224×224: the image is cut into 7×7 = 49 patches of
32×32×3, each linearly projected to the hidden size; a learnable [CLS]
token is prepended (sequence length 50, exactly the paper's §4.2.2) and a
*learned* positional embedding added, followed by dropout.  The encoder
stack is pre-LN; classification reads the final [CLS] state through
LayerNorm + a linear head.

Patch extraction is a pure layout transform (one reshape kernel); the patch
projection is a GEMM — so ViT reuses the whole encoder kernel inventory,
which is why LightSeq2 accelerates CV models for free (paper §4.2.2).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backend.kernels import elementwise as ew
from ..backend.kernels import gemm, out_buffer, record, transform
from ..backend.program import capturable
from ..config import LSConfig
from ..layers import initializers as init
from ..layers.base import Layer
from ..layers.criterion import LSCrossEntropyLayer
from ..layers.encoder import LSTransformerEncoderLayer, _LayerNormOp


@capturable()
def extract_patches(images: np.ndarray, patch: int, *,
                    fp16: bool = False) -> np.ndarray:
    """(B, C, H, W) -> (B, P, C*patch*patch): one layout-transform kernel."""
    b, c, h, w = images.shape
    if h % patch or w % patch:
        raise ValueError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = images.reshape(b, c, gh, patch, gw, patch)
    x = x.transpose(0, 2, 4, 1, 3, 5).reshape(b, gh * gw, c * patch * patch)
    x = np.ascontiguousarray(x)
    record("transpose_patchify", images.size, x.size, fp16=fp16,
           family="transpose")
    return x


@capturable({"out": 0})
def vit_assemble_embed(cls_tok: np.ndarray, proj: np.ndarray,
                       pos: np.ndarray, *, fp16: bool = False,
                       out=None) -> np.ndarray:
    """Prepend the [CLS] token and add learned positions — one kernel.

    Bit-identical to ``concatenate([cls, proj]) + pos``: each output element
    is written once, then a single elementwise add is applied.
    """
    b, p, h = proj.shape
    x = out_buffer(out, (b, p + 1, h), np.float32)
    x[:, 0, :] = cls_tok
    x[:, 1:, :] = proj
    x += pos[None]
    record("vit_embed_posadd", x.size, x.size, flops=x.size, fp16=fp16,
           family="embedding")
    return x


class ViTModel(Layer):
    """ViT with [CLS] classification head and cross-entropy loss."""

    def __init__(self, config: LSConfig, name: str = "vit", *,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        h = config.hidden_dim
        pdim = config.num_channels * config.patch_size ** 2
        self.seq_len = config.vit_seq_len
        self.w_patch = self.add_param(
            "w_patch", init.xavier_uniform(self.rng, (h, pdim)))
        self.b_patch = self.add_param("b_patch", init.zeros(h))
        self.cls_token = self.add_param(
            "cls_token", init.normal(self.rng, (h,), std=0.02))
        self.pos_embed = self.add_param(
            "pos_embed", init.normal(self.rng, (self.seq_len, h), std=0.02))
        self.layers = [
            self.add_sublayer(f"layer{i}", LSTransformerEncoderLayer(
                config, name=f"{name}.layer{i}", seed=seed))
            for i in range(config.num_encoder_layers)]
        self.ln_w = self.add_param("ln_w", init.ones(h))
        self.ln_b = self.add_param("ln_b", init.zeros(h))
        self._ln = _LayerNormOp(self, self.ln_w, self.ln_b)
        self.head_w = self.add_param(
            "head_w", init.xavier_uniform(self.rng, (config.num_classes, h)))
        self.head_b = self.add_param("head_b", init.zeros(config.num_classes))
        self.criterion = self.add_sublayer(
            "criterion", LSCrossEntropyLayer(config, name=f"{name}.crit",
                                             seed=seed))
        self.criterion.ignore_index = -100   # labels, not tokens

    def _embed(self, images: np.ndarray) -> np.ndarray:
        cfg = self.config
        patches = extract_patches(images, cfg.patch_size, fp16=cfg.fp16)
        proj = gemm.linear_forward(patches, self.w_patch.compute(),
                                   fp16=cfg.fp16, name="gemm_patch_proj")
        proj = ew.bias_add_naive(proj, self.b_patch.compute(), fp16=cfg.fp16)
        # [CLS] prepend + positional add: fused into one kernel on the LS
        # path; dropout follows as its own kernel
        x = vit_assemble_embed(self.cls_token.compute(), proj,
                               self.pos_embed.compute(), fp16=cfg.fp16)
        p = self.dropout_p
        if p > 0:
            x, mask = ew.dropout_forward_naive(x, p, self.rng, fp16=cfg.fp16)
        else:
            mask = None    # p == 0: no mask materialised
        self.save(patches=patches, embed_dmask=mask)
        return x

    def forward(self, images: np.ndarray, labels: np.ndarray
                ) -> Tuple[float, int]:
        """``images``: (B, C, H, W) floats; ``labels``: (B,) class ids."""
        cfg = self.config
        x = self._embed(images)
        for layer in self.layers:
            x = layer.forward(x)                 # no mask: dense attention
        x = self._ln.forward(x, "final_ln")
        cls = x[:, 0, :]
        logits = gemm.linear_forward(cls, self.head_w.compute(),
                                     fp16=cfg.fp16, name="gemm_vit_head")
        logits = ew.bias_add_naive(logits, self.head_b.compute(),
                                   fp16=cfg.fp16)
        self.save(cls=cls, seq_shape=np.asarray(x.shape))
        self._seq_shape = x.shape
        return self.criterion.forward(logits, labels)

    def backward(self, grad_scale: float = 1.0) -> None:
        cfg = self.config
        d_logits = self.criterion.backward(grad_scale)
        self.head_b.accumulate_grad(ew.bias_grad_naive(d_logits,
                                                       fp16=cfg.fp16))
        d_cls, dw_head = gemm.linear_backward(
            self.saved("cls"), self.head_w.compute(), d_logits,
            fp16=cfg.fp16, name="gemm_vit_head")
        self.head_w.accumulate_grad(dw_head)
        d_x = transform.cls_grad_scatter(d_cls, self._seq_shape)
        d_x = self._ln.backward(d_x, "final_ln")
        for layer in reversed(self.layers):
            d_x = layer.backward(d_x)
        # embedding backward
        p = self.dropout_p
        if p > 0:
            d_x = ew.dropout_backward_naive(d_x, self.saved("embed_dmask"),
                                            p, fp16=cfg.fp16)
        self.pos_embed.accumulate_grad(transform.reduce_sum_axis0(d_x))
        self.cls_token.accumulate_grad(
            transform.reduce_sum_axis0(d_x[:, 0, :]))
        d_proj = d_x[:, 1:, :]
        self.b_patch.accumulate_grad(ew.bias_grad_naive(d_proj,
                                                        fp16=cfg.fp16))
        _, dw_patch = gemm.linear_backward(
            self.saved("patches"), self.w_patch.compute(), d_proj,
            fp16=cfg.fp16, name="gemm_patch_proj")
        self.w_patch.accumulate_grad(dw_patch)
