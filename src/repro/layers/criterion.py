"""Criterion layer (§3.1.3): label-smoothed cross-entropy over the vocab.

Wraps the fused/naive criterion kernels, handling (B, L, V) logits, padding
exclusion, and the sum-reduction convention fairseq uses (loss summed over
non-pad tokens; callers divide by token count for per-token loss).

``backward(grad_scale)`` lets the trainer fold the loss scale (mixed
precision) and the 1/num_tokens normalisation straight into the fused
gradient kernel — one launch, no separate scaling pass.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backend.kernels import criterion as crit
from ..config import LSConfig, get_config
from .base import Layer


class LSCrossEntropyLayer(Layer):
    """Label-smoothed cross-entropy criterion (fused or naive kernels)."""

    get_config = staticmethod(get_config)

    def __init__(self, config: LSConfig, name: str = "criterion", *,
                 seed: Optional[int] = None):
        super().__init__(config, name=name, seed=seed)
        self.epsilon = config.label_smoothing
        self.ignore_index = config.padding_idx

    def forward(self, logits: np.ndarray, targets: np.ndarray
                ) -> Tuple[float, int]:
        """Returns ``(summed loss, number of non-pad target tokens)``."""
        if logits.shape[:-1] != targets.shape:
            raise ValueError(
                f"logits {logits.shape} and targets {targets.shape} disagree")
        cfg = self.config
        if cfg.fused:
            # log q scratch from the threaded arena slab: a replayed step has
            # no ambient arena for the nested log-softmax to draw it from
            loss, ntok, q = crit.criterion_forward_fused(
                logits, targets, self.epsilon,
                ignore_index=self.ignore_index, fp16=cfg.fp16,
                out_logq=self._buf(logits.shape, logits.dtype))
        else:
            loss, ntok, q = crit.criterion_forward_naive(
                logits, targets, self.epsilon,
                ignore_index=self.ignore_index, fp16=cfg.fp16)
        self.save(q=q)
        self._targets = targets
        return loss, ntok

    def backward(self, grad_scale: float = 1.0) -> np.ndarray:
        """Gradient w.r.t. logits, scaled by ``grad_scale``."""
        cfg = self.config
        fn = (crit.criterion_backward_fused if cfg.fused
              else crit.criterion_backward_naive)
        q = self.saved("q")
        # the (B, L, V) logit gradient is the step's largest activation:
        # serve it straight from the threaded arena slab when available
        return fn(q, self._targets, self.epsilon,
                  ignore_index=self.ignore_index, grad_scale=grad_scale,
                  fp16=cfg.fp16, out=self._buf(q.shape, q.dtype))
