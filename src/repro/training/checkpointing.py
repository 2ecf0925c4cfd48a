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

from typing import Any, Dict, Optional, Tuple

from ..layers.base import Layer


class CheckpointedLayer(Layer):
    """Wrap any Layer with forward(*args)/backward(dy) in recompute mode.

    The wrapped layer is this layer's one sublayer, so the Layer surface —
    parameter walks (trainers, serialization), the activation arena, the
    numerics taps, capture constants, train/eval and RNG snapshot/restore —
    reaches it through the base class.  Both share one name, so
    :meth:`rng_states` is the wrapped layer's snapshot (the wrapper's own,
    unused stream is overwritten by it).
    """

    def __init__(self, layer: Layer):
        super().__init__(layer.config, layer.name)
        self.layer = self.add_sublayer("layer", layer)
        self._inputs: Optional[Tuple] = None
        self._kwargs: Optional[Dict[str, Any]] = None
        self._rng_snapshot: Optional[Dict[str, dict]] = None

    @property
    def training(self) -> bool:
        """The wrapped layer's mode: a model that registered the wrapped
        layer switches it without passing through this wrapper."""
        return self.layer.training

    @training.setter
    def training(self, mode: bool) -> None:
        pass            # Layer.train() switches the wrapped layer itself

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
