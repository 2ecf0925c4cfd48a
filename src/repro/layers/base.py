"""Layer/parameter primitives shared by all LightSeq2 layers.

Layers here are *manual-backward* modules, like the CUDA layers they
reproduce: ``forward`` saves exactly the activations its hand-written
``backward`` needs (the memory-manager experiments depend on that inventory
being explicit), and ``backward`` lands each parameter-gradient contribution
in the parameter's ``grad`` (§3.2, Fig. 7): the first one after a clear is
*written* there, later ones are added to it.

A :class:`Parameter` owns storage-precision ``data``/``grad`` arrays until a
trainer re-links them into a workspace (symbolic tensor link), after which
they are views — layer code never notices the difference.  FP16 data is
widened to FP32 once per forward+backward pass (:func:`widened`), not at
every use.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


def _grad_write(grad: np.ndarray, g: np.ndarray) -> None:
    """First contribution after a clear: ``grad = 0 + g``, stored, not added.

    ``0 + x`` is ``x`` except that a zero of either sign comes out ``+0``.
    At one dtype ``np.add(g, 0)`` is exactly that; a narrowing store
    (FP32 into FP16) also rounds tiny negatives to ``-0``, so it is one
    narrowing copy with every ``-0`` rewritten as ``+0`` — instead of a cast
    plus numpy's software FP16 add.  An overflow still stores ``inf``, under
    the same error state as :func:`_grad_accum`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if g.dtype == grad.dtype:
            np.add(g, 0, out=grad)
            return
        np.copyto(grad, g, casting="unsafe")
    bits = grad.view(f"u{grad.itemsize}")
    np.copyto(bits, 0, where=bits == 1 << (8 * grad.itemsize - 1))


def _grad_write_rows(grad: np.ndarray, g: np.ndarray,
                     tokens: np.ndarray) -> None:
    """:func:`_grad_write` of the rows ``tokens`` index; the rest of ``g``
    is +0 and the cleared ``grad`` already holds it."""
    rows = tokens.reshape(-1)
    part = np.empty((rows.size,) + grad.shape[1:], grad.dtype)
    _grad_write(part, g[rows])
    grad[rows] = part


def _grad_accum_rows(grad: np.ndarray, g: np.ndarray,
                     tokens: np.ndarray) -> None:
    """:func:`_grad_accum` of the rows ``tokens`` index.  Adding the +0 of
    every other row would leave it unchanged: a gradient never holds -0,
    since writes store +0 and a sum is -0 only when both terms are.  A
    repeated token gathers the same row each time, so every copy scattered
    back is equal."""
    rows = tokens.reshape(-1)
    part = grad[rows]
    _grad_accum(part, g[rows])
    grad[rows] = part


class Parameter:
    """A trainable tensor with storage-precision data and gradient."""

    def __init__(self, name: str, value: np.ndarray, fp16: bool = False):
        dt = storage_dtype(fp16)
        self.name = name
        self.fp16 = fp16
        self.data = value.astype(dt)
        self.grad = np.zeros_like(self.data)
        #: True from a gradient clear until the first contribution lands:
        #: ``grad`` then holds only +0, so that contribution is written
        #: rather than added.  Every clearing path sets it; False is
        #: always safe (an add onto +0 gives the same bits).
        self.grad_fresh = False
        #: lazily-created FP32 widen buffer (fp16 only).  Its *identity* is
        #: stable across steps so captured programs can bake it in; its
        #: contents are refreshed from ``data`` once per pass.
        self._compute_buf: Optional[np.ndarray] = None
        #: True inside :func:`widened`: the buffer already holds ``data``.
        self._widened = False

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
        Inside a :func:`widened` pass the buffer is returned as it is;
        outside one every call re-widens, so a write to ``data`` is always
        seen.
        """
        if self.data.dtype == COMPUTE_DTYPE:
            return self.data
        buf = self._compute_buf
        if self._widened:
            return buf
        if buf is None or buf.shape != self.data.shape:
            self._compute_buf = buf = np.empty(self.data.shape, COMPUTE_DTYPE)
        np.copyto(buf, self.data)
        return buf

    def accumulate_grad(self, g: np.ndarray,
                        rows: Optional[np.ndarray] = None) -> None:
        """Land a gradient contribution in ``grad`` (at storage dtype).

        The first contribution after a clear (:attr:`grad_fresh`) is
        written, later ones are added; both give the bits of an add onto
        the cleared gradient.  ``rows`` (an integer array) says that only
        the rows of ``g`` it indexes can be nonzero, so only those are
        touched — the embedding's scatter over a batch's tokens.

        The write or add is routed through
        :func:`repro.backend.program.host_call` so a capture session records
        it and replayed steps land gradients in parameter storage exactly as
        eager steps do.  Which of the two was recorded depends on
        :attr:`grad_fresh`, so the capture engine keys programs on it.
        """
        if g.shape != self.data.shape:
            raise ValueError(
                f"{self.name}: grad shape {g.shape} != param {self.data.shape}")
        fresh, self.grad_fresh = self.grad_fresh, False
        if rows is None:
            host_call(_grad_write if fresh else _grad_accum, self.grad, g)
        else:
            host_call(_grad_write_rows if fresh else _grad_accum_rows,
                      self.grad, g, rows)

    def zero_grad(self) -> None:
        self.grad[...] = 0
        self.grad_fresh = True

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
        self.grad_fresh = False
        self._compute_buf = None     # identity changed: drop the stale widen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.shape}, fp16={self.fp16})"


@contextmanager
def widened(params: Iterable[Parameter]) -> Iterator[None]:
    """One forward+backward pass over ``params``: every FP16 parameter is
    widened once at entry, and inside the pass :meth:`Parameter.compute`
    returns that buffer without re-widening — the data cannot change
    between a pass's forward and its backward.  A replayed program reads
    the same buffers, so it runs under this too."""
    half = [p for p in params if p.data.dtype != COMPUTE_DTYPE]
    for p in half:
        p.compute()
        p._widened = True
    try:
        yield
    finally:
        for p in half:
            p._widened = False


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
