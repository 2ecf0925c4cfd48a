"""Optimizer configuration and learning-rate schedules.

The trainers in :mod:`repro.training.trainer` consume an
:class:`OptimizerSpec`; schedules implement fairseq's defaults for the
paper's tasks (inverse-sqrt warmup for MT, linear decay for BERT
fine-tuning).  LightSeq2 "supports all kinds of training algorithms such as
SGD and adaptive gradient methods" — both are wired through every trainer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..backend.kernels.optimizer import AdamHParams


@dataclass(frozen=True)
class OptimizerSpec:
    """Which update rule the trainer kernels should apply."""

    kind: str = "adam"              # "adam" | "sgd"
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.0
    momentum: float = 0.0           # sgd only

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

    def adam_hparams(self, lr: Optional[float] = None) -> AdamHParams:
        return AdamHParams(lr=lr if lr is not None else self.lr,
                           beta1=self.beta1, beta2=self.beta2, eps=self.eps,
                           weight_decay=self.weight_decay)


class InverseSqrtSchedule:
    """fairseq's inverse_sqrt: linear warmup, then lr ~ step^-1/2."""

    def __init__(self, peak_lr: float = 5e-4, warmup_steps: int = 4000):
        if warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps

    def lr(self, step: int) -> float:
        """``step`` is 1-based."""
        if step < 1:
            raise ValueError("schedule step is 1-based")
        if step <= self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        return self.peak_lr * (self.warmup_steps / step) ** 0.5


class LinearDecaySchedule:
    """Hugging Face fine-tuning default: warmup then linear decay to 0."""

    def __init__(self, peak_lr: float = 2e-5, warmup_steps: int = 0,
                 total_steps: int = 10000):
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr(self, step: int) -> float:
        if step < 1:
            raise ValueError("schedule step is 1-based")
        if self.warmup_steps and step <= self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        frac = (self.total_steps - step) / (self.total_steps
                                            - self.warmup_steps)
        return self.peak_lr * max(0.0, frac)


class ConstantSchedule:
    """Fixed learning rate (kernel equality tests, ablations)."""

    def __init__(self, lr: float):
        self._lr = lr

    def lr(self, step: int) -> float:
        return self._lr
