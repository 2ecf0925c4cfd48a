"""Activation checkpointing — trade recompute for activation memory.

§2.2 notes that training "requires better memory management due to the need
for maintaining gradients and activation checkpointing used by backward
propagation"; this module supplies that technique for the reproduction's
layers: a checkpointed layer frees its saved activations right after
forward and *re-runs the forward* inside backward, after restoring the RNG
state so regenerated dropout masks are bit-identical.

Gradients are exactly those of the un-checkpointed layer (tests assert
equality); the cost is one extra forward per layer per step, the saving is
the whole per-layer activation footprint — the classic sqrt-memory
trade-off, quantified in ``benchmarks/bench_figures.py -k test_ablations``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..layers.base import Layer


class CheckpointedLayer:
    """Wrap any Layer with forward(*args)/backward(dy) in recompute mode."""

    def __init__(self, layer: Layer):
        self.layer = layer
        self._inputs: Optional[Tuple] = None
        self._kwargs: Optional[Dict[str, Any]] = None
        self._rng_snapshot: Optional[Dict[str, dict]] = None

    def forward(self, *args, **kwargs):
        """Run the wrapped forward, then drop its saved activations."""
        self._inputs = args
        self._kwargs = kwargs
        self._rng_snapshot = self.layer.rng_states()
        out = self.layer.forward(*args, **kwargs)
        self.layer.clear_saved()
        return out

    def backward(self, *dys):
        """Recompute forward (same RNG state), then run the true backward."""
        if self._inputs is None:
            raise RuntimeError("checkpointed backward before forward")
        self.layer.set_rng_states(self._rng_snapshot)
        self.layer.forward(*self._inputs, **self._kwargs)
        result = self.layer.backward(*dys)
        self.layer.clear_saved()
        self._inputs = None
        return result

    # Layer-surface pass-throughs ----------------------------------------------
    # Audited against repro.layers.base.Layer so a checkpointed layer
    # composes wherever a plain Layer does: parameter walks (trainers,
    # serialization), the activation arena, the numerics observatory's
    # taps, capture constants, and RNG snapshot/restore (which resume
    # paths call on whole stacks).

    def parameters(self):
        return self.layer.parameters()

    def named_parameters(self):
        return self.layer.named_parameters()

    def num_parameters(self) -> int:
        return self.layer.num_parameters()

    def zero_grad(self) -> None:
        self.layer.zero_grad()

    def saved_nbytes(self) -> int:
        return self.layer.saved_nbytes()

    def clear_saved(self) -> None:
        self.layer.clear_saved()

    def set_arena(self, arena) -> "CheckpointedLayer":
        self.layer.set_arena(arena)
        return self

    @property
    def arena(self):
        return self.layer.arena

    def tap(self, tag: str, x: np.ndarray) -> None:
        self.layer.tap(tag, x)

    def capture_constants(self):
        return self.layer.capture_constants()

    def rng_states(self) -> Dict[str, dict]:
        return self.layer.rng_states()

    def set_rng_states(self, states: Dict[str, dict]) -> None:
        self.layer.set_rng_states(states)

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def config(self):
        return self.layer.config

    @property
    def training(self) -> bool:
        return self.layer.training

    def train(self, mode: bool = True):
        self.layer.train(mode)
        return self

    def eval(self):
        return self.train(False)


def checkpoint_stack(layers: Sequence[Layer]) -> List[CheckpointedLayer]:
    """Wrap every layer of an encoder/decoder stack."""
    return [CheckpointedLayer(l) for l in layers]


def stack_forward(layers: Sequence, x: np.ndarray, **kw) -> np.ndarray:
    """Run a (possibly checkpointed) homogeneous stack forward."""
    for layer in layers:
        x = layer.forward(x, **kw)
    return x


def stack_backward(layers: Sequence, dy: np.ndarray) -> np.ndarray:
    """Run the stack backward in reverse order."""
    for layer in reversed(layers):
        out = layer.backward(dy)
        dy = out[0] if isinstance(out, tuple) else out
    return dy
