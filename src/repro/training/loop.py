"""Single-device training loop with per-stage tracing.

``train_step`` runs the four Fig.-3 stages under their device stage scopes
so the resulting kernel trace can be replayed into the Fig.-4 breakdown;
``train_epoch`` iterates a batch stream, handling loss-scale skips and
gradient normalisation exactly like fairseq (loss summed over tokens,
update scaled by 1/num_tokens, optional loss scaling folded in).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..backend.arena import ActivationArena
from ..backend.device import current_device
from ..layers.base import Layer, widened
from ..obs.numerics import current_collector
from ..obs.spans import span
from .trainer import TrainerBase


@dataclass
class StepResult:
    """Outcome of one optimisation step."""

    loss: float
    num_tokens: int
    applied: bool          # False when the scaler skipped the update

    @property
    def loss_per_token(self) -> float:
        return self.loss / max(self.num_tokens, 1)


def staged_forward_backward(model: Layer, batch: Sequence,
                            grad_scale: float,
                            arena: Optional[ActivationArena] = None
                            ) -> Tuple[float, int]:
    """Eager forward+backward under their device stage scopes and spans
    (shared with the capture engine's eager and capturing steps and with
    ``DataParallel``'s replicas), inside ``arena.step()`` when an arena is
    given.  FP16 parameters are widened once, at entry (:func:`widened`)."""
    dev = current_device()
    with widened(model.parameters()), \
            arena.step() if arena is not None else nullcontext():
        with dev.stage_scope("forward"), span("train/forward"):
            loss, ntok = model.forward(*batch)
        with dev.stage_scope("backward"), span("train/backward"):
            model.backward(grad_scale=grad_scale)
    return loss, ntok


def _optimisation_step(trainer: TrainerBase,
                       run_fb: Callable[[float], Tuple[float, int]],
                       lr: Optional[float]) -> StepResult:
    """The one body of the optimisation-step protocol.

    ``run_fb(loss_scale)`` runs the step's forward+backward — one batch, a
    micro-batch loop, or a replayed program — and returns the summed
    ``(loss, num_tokens)``; everything around it (zero-grad, numerics
    collection, the update) is identical for every caller.
    """
    col = current_collector()
    with span("train/step"):
        if col is not None:
            col.begin_step(trainer.step_count + 1)
        with span("train/zero_grad"):
            trainer.zero_grad()
        scale = trainer.scaler.scale if trainer.scaler is not None else 1.0
        loss, ntok = run_fb(scale)
        gs = 1.0 / (scale * max(ntok, 1))
        if col is not None and col.active:
            with span("numerics/collect"):
                col.collect_pre_update(trainer, grad_scale=gs)
        with span("train/update"):
            applied = trainer.step(lr=lr, grad_scale=gs)
        if col is not None and col.active:
            with span("numerics/collect"):
                col.collect_post_update(trainer)
        if col is not None:
            col.finish_step(loss=loss, num_tokens=ntok, applied=applied,
                            scaler=trainer.scaler)
    return StepResult(loss=loss, num_tokens=ntok, applied=applied)


def train_step(model: Layer, trainer: TrainerBase, batch: Sequence, *,
               lr: Optional[float] = None,
               arena: Optional[ActivationArena] = None) -> StepResult:
    """One step: zero-grad, forward, backward, update (stages traced).

    The backward runs on the loss *scaled* by the trainer's scaler (if
    any); the inverse scale and the 1/num_tokens normalisation are folded
    into the update's ``grad_scale``, so no standalone unscale pass exists
    on the fused path — matching §3.2.

    ``arena`` scopes forward+backward activations into a §3.3 activation
    arena (``arena.step()``), mirroring the capture engine's placement:
    the optimiser update stays *outside* the arena so its state never
    aliases the recycled slab.
    """
    return _optimisation_step(
        trainer,
        lambda scale: staged_forward_backward(model, batch, scale, arena),
        lr)


@dataclass
class EpochStats:
    """Aggregates over an epoch of steps."""

    losses: List[float] = field(default_factory=list)
    tokens: int = 0
    skipped: int = 0

    @property
    def steps(self) -> int:
        return len(self.losses)

    @property
    def mean_loss_per_token(self) -> float:
        if not self.losses or self.tokens == 0:
            return float("nan")
        return float(sum(self.losses)) / self.tokens


def train_epoch(model: Layer, trainer: TrainerBase,
                batches: Iterable[Sequence], *,
                lr_fn: Optional[Callable[[int], float]] = None,
                checkpointer: Optional[object] = None
                ) -> EpochStats:
    """Run every batch once; ``lr_fn(step)`` supplies the schedule.

    ``checkpointer`` (a
    :class:`~repro.resilience.checkpoint.PeriodicCheckpointer`) saves a
    crash-safe checkpoint every N applied steps, so a long epoch killed
    mid-run resumes from the last committed checkpoint instead of step 0.
    """
    stats = EpochStats()
    for batch in batches:
        lr = lr_fn(trainer.step_count + 1) if lr_fn else None
        res = train_step(model, trainer, batch, lr=lr)
        stats.losses.append(res.loss)
        stats.tokens += res.num_tokens
        if not res.applied:
            stats.skipped += 1
        if checkpointer is not None:
            checkpointer.after_step(model, trainer)
    return stats


def train_step_accumulated(model: Layer, trainer: TrainerBase,
                           microbatches: Sequence[Sequence], *,
                           lr: Optional[float] = None) -> StepResult:
    """Gradient accumulation: several forward/backwards, ONE update.

    The §3.3 alternative to huge single batches ("large batch training
    requires more GPUs, gradient accumulation, or memory offload"): each
    microbatch's gradients accumulate in place; the update normalises by
    the total token count, so the result matches one big batch exactly
    (modulo dropout randomness) — verified in
    ``tests/training/test_accumulation_checkpointing.py``.
    """
    if not microbatches:
        raise ValueError("no microbatches")

    def run_fb(scale: float) -> Tuple[float, int]:
        total_loss = 0.0
        total_tokens = 0
        for mb in microbatches:
            loss, ntok = staged_forward_backward(model, mb, scale)
            total_loss += loss
            total_tokens += ntok
        return total_loss, total_tokens

    return _optimisation_step(trainer, run_fb, lr)
