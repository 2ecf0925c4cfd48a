"""Layer/parameter primitives shared by all LightSeq2 layers.

Layers here are *manual-backward* modules, like the CUDA layers they
reproduce: ``forward`` saves exactly the activations its hand-written
``backward`` needs (the memory-manager experiments depend on that inventory
being explicit), and ``backward`` accumulates parameter gradients in place.

A :class:`Parameter` owns storage-precision ``data``/``grad`` arrays until a
trainer re-links them into a workspace (symbolic tensor link), after which
they are views — layer code never notices the difference.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..backend.arena import ActivationArena, current_arena, mem_scoped
from ..backend.dtypes import COMPUTE_DTYPE, storage_dtype
from ..backend.program import host_call
from ..config import LSConfig
from ..obs.numerics import COLLECTORS, tap_activation

#: bumped whenever any Parameter is re-linked into a workspace: captured
#: programs bake parameter memory in, so a re-link invalidates them.
_LINK_EPOCH = 0


def link_epoch() -> int:
    """Process-wide parameter re-link counter (program validity check)."""
    return _LINK_EPOCH


def _grad_accum(grad: np.ndarray, g: np.ndarray) -> None:
    """In-place gradient accumulation (the replayable host instruction).

    FP16 accumulation may overflow to inf when the loss scale is too high —
    that is the signal the loss scaler *checks for*, so the numpy overflow
    warning is suppressed rather than treated as an error (matching CUDA
    semantics, where the overflow is silent).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        grad += g.astype(grad.dtype)


class Parameter:
    """A trainable tensor with storage-precision data and gradient."""

    def __init__(self, name: str, value: np.ndarray, fp16: bool = False):
        dt = storage_dtype(fp16)
        self.name = name
        self.fp16 = fp16
        self.data = value.astype(dt)
        self.grad = np.zeros_like(self.data)
        #: lazily-created FP32 widen buffer (fp16 only).  Its *identity* is
        #: stable across steps so captured programs can bake it in; its
        #: contents are refreshed from ``data`` on every :meth:`compute`.
        self._compute_buf: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def compute(self) -> np.ndarray:
        """FP32 array of the data for arithmetic (on-the-fly widen).

        FP32 storage returns ``data`` itself; FP16 widens into a cached
        buffer whose identity is stable across steps (refreshed in place),
        so capture & replay can treat it like any other parameter memory.
        """
        if self.data.dtype == COMPUTE_DTYPE:
            return self.data
        buf = self._compute_buf
        if buf is None or buf.shape != self.data.shape:
            self._compute_buf = buf = np.empty(self.data.shape, COMPUTE_DTYPE)
        np.copyto(buf, self.data)
        return buf

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Accumulate a gradient contribution (stored at storage dtype).

        The in-place add is routed through
        :func:`repro.backend.program.host_call` so a capture session records
        it and replayed steps accumulate into parameter storage exactly as
        eager steps do.
        """
        if g.shape != self.data.shape:
            raise ValueError(
                f"{self.name}: grad shape {g.shape} != param {self.data.shape}")
        host_call(_grad_accum, self.grad, g)

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def link(self, data_view: np.ndarray, grad_view: np.ndarray) -> None:
        """Re-link to workspace views (symbolic tensor link, Fig. 7).

        Existing values are assumed already copied into the views by
        :func:`repro.backend.workspace.build_workspace`.
        """
        if data_view.shape != self.data.shape:
            raise ValueError(
                f"{self.name}: workspace view shape {data_view.shape} "
                f"!= param {self.data.shape}")
        global _LINK_EPOCH
        _LINK_EPOCH += 1
        self.data = data_view
        self.grad = grad_view
        self._compute_buf = None     # identity changed: drop the stale widen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.shape}, fp16={self.fp16})"


class Layer:
    """Base class: parameter registry + saved-activation bookkeeping."""

    def __init__(self, config: LSConfig, name: str = "",
                 seed: Optional[int] = None):
        self.config = config
        self.name = name or type(self).__name__
        base_seed = seed if seed is not None else 1234
        # derive a stable per-layer stream so fused/naive twins built with
        # the same seed draw identical dropout masks and init values.
        # zlib.crc32 is process-stable, unlike hash(), whose per-process
        # salting would make "same seed" models differ across runs.
        name_tag = zlib.crc32(self.name.encode("utf-8"))
        self.rng = np.random.default_rng(
            (base_seed * 0x9E3779B97F4A7C15 + name_tag) % (2 ** 63))
        self._params: Dict[str, Parameter] = {}
        self._sublayers: Dict[str, "Layer"] = {}
        self._saved: Dict[str, np.ndarray] = {}
        self._arena: Optional[ActivationArena] = None
        self.training = True

    def __init_subclass__(cls, **kwargs):
        """Label every subclass's ``forward``/``backward`` arena requests
        with the layer name (memory-observatory site attribution)."""
        super().__init_subclass__(**kwargs)
        for method in ("forward", "backward"):
            if method in cls.__dict__:
                setattr(cls, method, mem_scoped(cls.__dict__[method]))

    def forward_backward(self, *batch, grad_scale: float = 1.0
                         ) -> Tuple[float, int]:
        """One step's compute for a model whose ``forward`` returns
        ``(loss, ntok)``: forward then backward, returning that pair."""
        loss, ntok = self.forward(*batch)
        self.backward(grad_scale)
        return loss, ntok

    # -- parameter / sublayer registry ---------------------------------------

    def add_param(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r} in {self.name}")
        p = Parameter(f"{self.name}.{name}", value, fp16=self.config.fp16)
        self._params[name] = p
        return p

    def add_sublayer(self, name: str, layer: "Layer") -> "Layer":
        if name in self._sublayers:
            raise ValueError(f"duplicate sublayer {name!r} in {self.name}")
        self._sublayers[name] = layer
        return layer

    def parameters(self) -> Iterator[Parameter]:
        """All parameters, depth-first, in deterministic order."""
        for p in self._params.values():
            yield p
        for sub in self._sublayers.values():
            yield from sub.parameters()

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        for p in self.parameters():
            yield p.name, p

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train/eval mode -------------------------------------------------------

    def train(self, mode: bool = True) -> "Layer":
        self.training = mode
        for sub in self._sublayers.values():
            sub.train(mode)
        return self

    def eval(self) -> "Layer":
        return self.train(False)

    # -- activation arena (§3.3) -----------------------------------------------

    def set_arena(self, arena: Optional[ActivationArena]) -> "Layer":
        """Thread an :class:`ActivationArena` through this layer tree.

        Installed explicitly (surviving across steps), it serves every
        kernel-output buffer of forward/backward from the pre-reserved
        slab.  ``set_arena(None)`` restores fresh-allocation mode.
        """
        self._arena = arena
        for sub in self._sublayers.values():
            sub.set_arena(arena)
        return self

    @property
    def arena(self) -> Optional[ActivationArena]:
        """The arena in effect: the threaded one, else the ambient
        ``with arena.step():`` installation, else None."""
        return self._arena if self._arena is not None else current_arena()

    def _buf(self, shape, dtype=np.float32) -> Optional[np.ndarray]:
        """An output buffer from the threaded arena, or None (fresh path).

        Returning None lets :func:`repro.backend.kernels.out_buffer` apply
        its own fallback chain, keeping the no-arena behaviour unchanged.
        """
        arena = self._arena
        return arena.request(shape, dtype) if arena is not None else None

    # -- capture & replay support ------------------------------------------------

    def capture_constants(self) -> List[np.ndarray]:
        """Non-parameter arrays with stable identity that kernels read.

        A capture session registers these as stable memory so they resolve
        to ``ConstRef`` slots.  Layers owning module-level tables (e.g. the
        sinusoidal positional table) override this; the default collects
        from sublayers.
        """
        out: List[np.ndarray] = []
        for sub in self._sublayers.values():
            out.extend(sub.capture_constants())
        return out

    # -- numerics-observatory activation tap ------------------------------------

    def tap(self, tag: str, x: np.ndarray) -> None:
        """Report an activation to the numerics observatory, if watching.

        With no collector installed this is one truthiness test on the
        collector slot's list, ``COLLECTORS.stack`` — the name string is
        not even formatted — so uninstrumented runs pay ~nothing (same
        contract as spans).
        """
        if not COLLECTORS.stack:
            return
        tap_activation(f"{self.name}.{tag}", x)

    # -- saved-activation bookkeeping ------------------------------------------

    def save(self, **tensors: np.ndarray) -> None:
        self._saved.update(tensors)

    def saved(self, key: str) -> np.ndarray:
        try:
            return self._saved[key]
        except KeyError:
            raise RuntimeError(
                f"{self.name}: backward before forward (missing saved "
                f"activation {key!r})") from None

    def saved_nbytes(self) -> int:
        """Bytes of activations this layer is holding for backward."""
        own = sum(t.nbytes for t in self._saved.values() if t is not None)
        return own + sum(s.saved_nbytes() for s in self._sublayers.values())

    def clear_saved(self) -> None:
        self._saved.clear()
        for sub in self._sublayers.values():
            sub.clear_saved()

    # -- RNG-state capture (activation checkpointing) ---------------------------

    def rng_states(self) -> Dict[str, dict]:
        """Snapshot this layer's and every sublayer's RNG state.

        Activation checkpointing re-runs ``forward`` during ``backward``;
        restoring these states first makes the recomputation draw the
        *identical* dropout masks, so recompute == original bit-for-bit.
        """
        states = {self.name: dict(self.rng.bit_generator.state)}
        for sub in self._sublayers.values():
            states.update(sub.rng_states())
        return states

    def set_rng_states(self, states: Dict[str, dict]) -> None:
        """Restore a snapshot taken by :meth:`rng_states`."""
        self.rng.bit_generator.state = states[self.name]
        for sub in self._sublayers.values():
            sub.set_rng_states(states)

    @property
    def dropout_p(self) -> float:
        """Effective dropout prob (0 in eval mode)."""
        return self.config.dropout if self.training else 0.0

    @property
    def attn_dropout_p(self) -> float:
        return self.config.attn_dropout if self.training else 0.0
