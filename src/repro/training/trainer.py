"""Trainers (stage 4 of Fig. 3): three fidelity levels of §3.2.

* :class:`NaiveMPTrainer` — the Fairseq/PyTorch baseline.  In FP16 mode it
  keeps an FP32 master copy per parameter and launches three kernels per
  tensor per step (grad convert, FP32 Adam, weight copy-back); in FP32 mode
  one Adam kernel per tensor.  Plus a memset kernel per tensor in
  ``zero_grad`` — the "chipped kernel" storm of Fig. 7 (left).
* :class:`ApexLikeTrainer` — Apex ``FusedAdam``: multi-tensor chunks, but
  FP32 masters retained.  The §3.2 comparison baseline ("Fairseq trainer
  with high kernel fusion from Apex").
* :class:`LSFusedTrainer` — LightSeq2: copies every parameter once into a
  contiguous workspace, re-links the model's Parameters as views (symbolic
  tensor link), and updates the whole model with ONE fused kernel doing
  on-the-fly FP16↔FP32 conversion.  No masters, no per-tensor launches.
  ZeRO-1 is the same trainer owning one shard of the workspace.  The
  workspace is also the data-parallel all-reduce buffer
  (:meth:`~TrainerBase.flat_grad`): the ring reduces FP32 grads in place.

All trainers share :func:`adam_math`/:func:`sgd_math`, so FP32 parameter
trajectories are bit-identical and FP16 trajectories differ only by storage
rounding — enforced by ``tests/training/test_trainer_equivalence.py``.

Mixed-precision overflow handling (loss scaling) is uniform: callers pass a
scaler; a step with non-finite gradients is skipped and the scale adjusted,
identically across trainers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..backend.device import current_device
from ..backend.kernels import record
from ..backend.kernels.optimizer import (adam_update_apex, adam_update_fp32_naive,
                                         adam_update_ls_fused,
                                         adam_update_naive, sgd_math,
                                         sgd_update_ls_fused,
                                         sgd_update_naive)
from ..backend.workspace import Workspace, build_workspace
from ..layers.base import Layer, Parameter
from ..obs.spans import span
from ..sim.comm import shard_bounds
from .optimizers import OptimizerSpec


class TrainerBase:
    """Shared bookkeeping: step counter, overflow-skip protocol."""

    def __init__(self, model: Layer, spec: OptimizerSpec,
                 scaler: Optional[object] = None):
        self.model = model
        self.spec = spec
        self.scaler = scaler
        self.step_count = 0
        self.skipped_steps = 0

    # subclasses provide _grads() and _apply(lr, grad_scale)

    def _grads(self) -> Sequence[np.ndarray]:
        raise NotImplementedError

    # -- numerics-observatory walk (repro.obs.numerics) ------------------------

    def named_grads(self):
        """Ordered (name, gradient array) pairs for per-layer telemetry."""
        for p in self.params:
            yield p.name, p.grad

    def named_params(self):
        """Ordered (name, parameter array) pairs for per-layer telemetry."""
        for p in self.params:
            yield p.name, p.data

    def _apply(self, lr: float, grad_scale: float) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        raise NotImplementedError

    # -- the data-parallel all-reduce buffer -----------------------------------

    def flat_grad(self) -> np.ndarray:
        """The gradient as one flat FP32 buffer for the ring all-reduce —
        per tensor, a gathered copy (DDP's flat bucket)."""
        return np.concatenate([p.grad.astype(np.float32).reshape(-1)
                               for p in self.params])

    def load_flat_grad(self, flat: np.ndarray) -> None:
        """Scatter a reduced :meth:`flat_grad` buffer back into the grads."""
        off = 0
        for p in self.params:
            n = p.size
            p.grad[...] = flat[off:off + n].reshape(p.shape).astype(
                p.grad.dtype)
            off += n

    def step(self, lr: Optional[float] = None, grad_scale: float = 1.0,
             overflow_override: Optional[bool] = None) -> bool:
        """Run one optimisation step under the "update" stage.

        ``grad_scale`` multiplies gradients inside the update kernels —
        callers pass 1/(loss_scale * num_tokens) style normalisation.
        ``overflow_override`` substitutes a globally-agreed overflow flag
        for the local check (ZeRO-1 shards see only part of the gradient,
        so the driver all-reduces the found-inf flag, as DDP does); the
        scaler's policy still advances on the given flag.
        Returns False if the step was skipped due to FP16 overflow.
        """
        dev = current_device()
        with dev.stage_scope("update"):
            if self.scaler is not None:
                with span("trainer/overflow_check"):
                    if overflow_override is None:
                        overflow = self.scaler.check_overflow(self._grads())
                    else:
                        overflow = overflow_override
                self.scaler.update(overflow)
                if overflow:
                    self.skipped_steps += 1
                    return False
            self.step_count += 1
            with span("trainer/apply"):
                self._apply(lr if lr is not None else self.spec.lr,
                            grad_scale)
        return True


class NaiveMPTrainer(TrainerBase):
    """Per-tensor baseline trainer (Fairseq without Apex)."""

    def __init__(self, model: Layer, spec: OptimizerSpec,
                 scaler: Optional[object] = None):
        super().__init__(model, spec, scaler)
        self.params: List[Parameter] = list(model.parameters())
        self.fp16 = any(p.fp16 for p in self.params)
        if self.fp16:
            # FP32 master copies: the Fig.-7-left redundant footprint
            self.masters = [p.data.astype(np.float32) for p in self.params]
        else:
            self.masters = None
        self.m = [np.zeros(p.shape, dtype=np.float32) for p in self.params]
        self.v = [np.zeros(p.shape, dtype=np.float32) for p in self.params]

    def _grads(self) -> Sequence[np.ndarray]:
        return [p.grad for p in self.params]

    def zero_grad(self) -> None:
        """One memset launch per tensor."""
        for p in self.params:
            p.zero_grad()
            record("zero_grad", 0, p.grad.size, fp16=p.fp16,
                   family="optimizer")

    def _apply(self, lr: float, grad_scale: float) -> None:
        hp = self.spec.adam_hparams(lr)
        for i, p in enumerate(self.params):
            if self.spec.kind == "adam":
                if self.fp16:
                    adam_update_naive(p.data, p.grad, self.masters[i],
                                      self.m[i], self.v[i], self.step_count,
                                      hp, grad_scale=grad_scale)
                else:
                    adam_update_fp32_naive(p.data, p.grad, self.m[i],
                                           self.v[i], self.step_count, hp,
                                           grad_scale=grad_scale)
            else:
                g = p.grad if grad_scale == 1.0 else \
                    (p.grad.astype(np.float32) * grad_scale).astype(p.grad.dtype)
                if self.fp16:
                    sgd_update_naive(p.data, g, self.masters[i], self.m[i],
                                     lr, self.spec.momentum,
                                     self.spec.weight_decay)
                else:
                    p.data[...] = sgd_math(p.data, g.astype(np.float32),
                                           self.m[i], lr, self.spec.momentum,
                                           self.spec.weight_decay)
                    record("sgd_update_fp32", 2 * p.size, 2 * p.size,
                           flops=4 * p.size, fp16=False, family="optimizer")

    def extra_state_bytes(self) -> int:
        """Trainer-owned memory beyond params/grads.

        FP16 mode keeps an FP32 master copy AND a persistent FP32 gradient
        buffer per parameter (fairseq's FP16Optimizer layout) on top of the
        FP32 Adam m/v — the Fig.-7-left redundancy.
        """
        n = sum(p.size for p in self.params)
        masters_and_fp32_grads = 8 * n if self.fp16 else 0
        return masters_and_fp32_grads + 8 * n


class ApexLikeTrainer(NaiveMPTrainer):
    """Apex FusedAdam baseline: multi-tensor kernels, FP32 masters kept."""

    def __init__(self, model: Layer, spec: OptimizerSpec,
                 scaler: Optional[object] = None):
        if spec.kind != "adam":
            raise ValueError("apex-like trainer implements FusedAdam only")
        super().__init__(model, spec, scaler)
        if self.masters is None:           # FP32 mode keeps masters too
            self.masters = [p.data.astype(np.float32) for p in self.params]

    def _apply(self, lr: float, grad_scale: float) -> None:
        hp = self.spec.adam_hparams(lr)
        if self.fp16:
            # fairseq FP16Optimizer around apex FusedAdam: per-tensor FP16
            # grad -> FP32 copy, fused multi-tensor Adam on the FP32
            # masters, per-tensor FP32 -> FP16 weight copy-back.  Only the
            # Adam op itself is fused; the copy storm remains.  Processed
            # chunk-by-chunk so the transient FP32 grads stay bounded
            # (multi_tensor_apply's own working-set behaviour).
            from ..backend.kernels.optimizer import APEX_CHUNK_TENSORS
            n = len(self.params)
            for lo in range(0, n, APEX_CHUNK_TENSORS):
                hi = min(lo + APEX_CHUNK_TENSORS, n)
                g32s = []
                for p in self.params[lo:hi]:
                    g32 = p.grad.astype(np.float32) * np.float32(grad_scale)
                    record("grad_fp16_to_fp32_copy", p.grad.size, g32.size,
                           fp16=False, family="memcpy")
                    g32s.append(g32)
                adam_update_apex(self.masters[lo:hi], g32s,
                                 self.masters[lo:hi], self.m[lo:hi],
                                 self.v[lo:hi], self.step_count, hp)
                for p, master in zip(self.params[lo:hi],
                                     self.masters[lo:hi]):
                    p.data[...] = master.astype(p.data.dtype)
                    record("weight_fp32_to_fp16_copy", master.size,
                           p.data.size, fp16=True, family="memcpy")
        else:
            adam_update_apex([p.data for p in self.params],
                             [p.grad for p in self.params],
                             self.masters, self.m, self.v, self.step_count,
                             hp, grad_scale=grad_scale)


class LSFusedTrainer(TrainerBase):
    """LightSeq2 trainer: workspace + symbolic link + one fused kernel.

    ZeRO stage-1: replica ``rank`` owns the ring chunk
    ``shard_bounds(n, world_size, rank)`` of the flat workspace, so a ring
    reduce-scatter deposits exactly its reduced gradient shard in place.
    Only the shard's Adam ``m``/``v`` are allocated (``(world_size-1)/
    world_size`` of the optimizer state is gone), the fused update runs on
    the shard views only, and ``DataParallel`` all-gathers updated
    parameters afterwards.  The unsharded trainer is the world-1 shard.

    Because :func:`adam_update_ls_fused` is purely elementwise, updating a
    slice with sliced state is bitwise identical to slicing the full
    update — the property test and the cross-world golden test both lean
    on this.
    """

    def __init__(self, model: Layer, spec: OptimizerSpec,
                 scaler: Optional[object] = None, *, rank: int = 0,
                 world_size: int = 1):
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world_size "
                             f"{world_size}")
        super().__init__(model, spec, scaler)
        params = list(model.parameters())
        self.fp16 = any(p.fp16 for p in params)
        # one-time copy into the workspace, then re-link every Parameter
        self.workspace: Workspace = build_workspace(
            [(p.name, p.data) for p in params], fp16=self.fp16)
        for p in params:
            p.link(self.workspace.param_view(p.name),
                   self.workspace.grad_view(p.name))
        self.params = params
        self.rank = rank
        self.world_size = world_size
        self.shard = shard_bounds(self.workspace.total_elems, world_size,
                                  rank)
        lo, hi = self.shard
        self.m = np.zeros(hi - lo, dtype=np.float32)
        self.v = np.zeros(hi - lo, dtype=np.float32)

    def _grads(self) -> Sequence[np.ndarray]:
        lo, hi = self.shard
        return [self.workspace.grads[lo:hi]]   # ONE check: the owned shard

    def flat_grad(self) -> np.ndarray:
        """The FP32 workspace itself (reduced in place); FP16 widened once."""
        grads = self.workspace.grads
        return grads if not self.fp16 else grads.astype(np.float32)

    def load_flat_grad(self, flat: np.ndarray) -> None:
        if flat is not self.workspace.grads:
            self.workspace.grads[...] = flat   # one narrowing cast

    def named_grads(self):
        """Walk the contiguous grad slab — zero-copy views per layer."""
        return self.workspace.named_grad_views()

    def named_params(self):
        return self.workspace.named_param_views()

    def zero_grad(self) -> None:
        self.workspace.zero_grad()         # single memset launch
        for p in self.params:
            p.grad_fresh = True

    def _apply(self, lr: float, grad_scale: float) -> None:
        lo, hi = self.shard
        params = self.workspace.params[lo:hi]
        grads = self.workspace.grads[lo:hi]
        hp = self.spec.adam_hparams(lr)
        if self.spec.kind == "adam":
            adam_update_ls_fused(params, grads, self.m, self.v,
                                 self.step_count, hp, fp16=self.fp16,
                                 grad_scale=grad_scale)
        else:
            g = grads
            if grad_scale != 1.0:
                g = (g.astype(np.float32) * grad_scale).astype(g.dtype)
            sgd_update_ls_fused(params, g, self.m, lr, self.spec.momentum,
                                self.spec.weight_decay, fp16=self.fp16)

    def extra_state_bytes(self) -> int:
        """No masters, no FP32 grads — only the owned shard's Adam m/v
        (Fig. 7 right; the ZeRO-1 saving)."""
        return 8 * self.m.size


def make_trainer(kind: str, model: Layer, spec: OptimizerSpec,
                 scaler: Optional[object] = None, **kwargs) -> TrainerBase:
    """Factory: "naive" | "apex" | "lightseq" | "zero1".

    ``zero1`` names the sharded :class:`LSFusedTrainer`; it and
    ``lightseq`` accept ``rank``/``world_size`` keyword arguments.
    """
    cls = {"naive": NaiveMPTrainer, "apex": ApexLikeTrainer,
           "lightseq": LSFusedTrainer, "zero1": LSFusedTrainer}.get(kind)
    if cls is None:
        raise ValueError(f"unknown trainer kind {kind!r}")
    if kwargs and cls is not LSFusedTrainer:
        raise ValueError(f"trainer kind {kind!r} takes no extra arguments")
    return cls(model, spec, scaler, **kwargs)
