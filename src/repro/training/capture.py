"""Capture-replay training engine: the steady-state flat-dispatch loop.

:class:`CaptureReplayEngine` owns the capture/replay lifecycle the paper's
§3.1 thesis implies: the first eager step for a given batch signature runs
under a :class:`~repro.backend.program.CaptureSession` (capture *is* a
normal eager step with recording on), sealing a
:class:`~repro.backend.program.KernelProgram`; subsequent same-signature
steps replay it through the flat dispatch loop, never touching the layer
graph.

Guard rails, in order, per step:

1. **signature** — batch shapes/dtypes + loss scale + train/eval mode +
   which gradients are freshly cleared key the program cache; any
   divergence (a new shape, a loss-scaler skip changing the scale, a
   second forward+backward without a ``zero_grad``) is a cache miss and
   captures a fresh program.  The last matters because a fresh
   gradient's first contribution is recorded as a *write*
   (:meth:`~repro.layers.base.Parameter.accumulate_grad`): replayed onto a
   gradient that already holds a contribution, it would overwrite it.
2. **validity** — a cached program is checked against the arena generation
   and the parameter link epoch; staleness raises
   :class:`~repro.backend.program.ProgramInvalidated`, clears the cache,
   and the step falls back to eager + recapture.  A stale program can
   never silently execute.
3. **observability** — while a numerics collector is actively sampling,
   steps run eagerly so per-layer taps keep firing (replay skips layer
   code, see DESIGN §11 caveats); replayed steps still emit stage spans
   and kernel launch records.

Every outcome is accounted in
:func:`repro.backend.profiler.replay_counters`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backend.arena import ActivationArena
from ..backend.profiler import replay_counters
from ..backend.program import (CaptureError, CaptureSession, KernelProgram,
                               ProgramInvalidated, capturing)
from ..layers.base import Layer, Parameter, link_epoch, widened
from ..obs.numerics import current_collector
from .loop import StepResult, _optimisation_step, staged_forward_backward
from .trainer import TrainerBase

#: captured programs kept at once; capturing one more evicts the oldest
MAX_PROGRAMS = 16


def _batch_signature(batch: Sequence, grad_scale: float, training: bool,
                     fresh: Tuple[bool, ...]) -> tuple:
    parts = tuple((a.shape, a.dtype.str) if isinstance(a, np.ndarray)
                  else repr(a) for a in batch)
    return parts + (("gs", float(grad_scale)), ("training", bool(training)),
                    ("fresh", fresh))


class CaptureReplayEngine:
    """Capture one step per batch signature, replay the rest.

    ``arena`` is optional but recommended: with it, capture waits for the
    warmed-up slab so programs bake stable slab views in.  The engine owns
    the ``arena.step()`` scoping for its eager steps; replayed steps run
    *without* an ambient arena (every recorded output buffer is forced, so
    no bump allocation should happen — stray allocations inside composite
    kernels fall back to fresh buffers, which is numerically identical).
    """

    def __init__(self, model: Layer, trainer: Optional[TrainerBase] = None,
                 arena: Optional[ActivationArena] = None):
        self.model = model
        self.trainer = trainer
        self.arena = arena
        self._programs: Dict[tuple, KernelProgram] = {}
        self._params: List[Parameter] = list(model.parameters())
        #: per program, each parameter's ``grad_fresh`` after its captured
        #: step — what a replay of it leaves behind
        self._fresh_after: Dict[tuple, Tuple[bool, ...]] = {}
        if arena is not None:
            model.set_arena(arena)

    # -- introspection ------------------------------------------------------

    @property
    def programs(self) -> Dict[tuple, KernelProgram]:
        """The live signature -> program cache (read-only use)."""
        return self._programs

    def describe(self) -> str:
        """Dump every cached program (the CI debugging artifact)."""
        if not self._programs:
            return "CaptureReplayEngine: no captured programs"
        chunks = []
        for sig, prog in self._programs.items():
            chunks.append(f"== signature {sig!r} (replays={prog.replays})")
            chunks.append(prog.describe())
        return "\n".join(chunks)

    # -- guard helpers ------------------------------------------------------

    def _arena_generation(self) -> int:
        return self.arena.generation if self.arena is not None else 0

    def _capture_ready(self) -> bool:
        """Capture only once memory is steady: no arena, or a warmed slab."""
        return self.arena is None or self.arena.warmed_up

    def _fresh(self) -> Tuple[bool, ...]:
        return tuple(p.grad_fresh for p in self._params)

    def _register_stable(self, sess: CaptureSession) -> None:
        for p in self._params:
            sess.add_stable(p.data, p.grad)
            if p.data.dtype != np.float32:
                sess.add_stable(p.compute())    # the cached widen buffer
        for const in self.model.capture_constants():
            sess.add_stable(const)
        if self.arena is not None and self.arena._slab is not None:
            sess.add_stable(self.arena._slab)

    # -- forward/backward ---------------------------------------------------

    def forward_backward(self, *batch, grad_scale: float = 1.0
                         ) -> Tuple[float, int]:
        """One forward+backward: replayed when a valid program exists,
        eagerly (re)captured otherwise.  Returns ``(loss, num_tokens)``."""
        counters = replay_counters()
        col = current_collector()
        observing = col is not None and col.active
        sig = _batch_signature(batch, grad_scale, self.model.training,
                               self._fresh())

        prog = self._programs.get(sig)
        if prog is not None:
            try:
                prog.validate(arena_generation=self._arena_generation(),
                              link_epoch=link_epoch())
            except ProgramInvalidated:
                # stale memory: drop *every* cached program (they share the
                # invalidated slab/links) and fall through to eager
                counters.invalidations += 1
                self._programs.clear()
                self._fresh_after.clear()
                prog = None

        if prog is not None and not observing:
            bindings = {f"in{i}": a for i, a in enumerate(batch)
                        if isinstance(a, np.ndarray)}
            with widened(self._params):
                loss, ntok = prog.replay(bindings)
            for p, fresh in zip(self._params, self._fresh_after[sig]):
                p.grad_fresh = fresh
            counters.replays += 1
            return loss, ntok

        if observing:
            counters.eager_fallbacks += 1
            return staged_forward_backward(self.model, batch, grad_scale,
                                           self.arena)
        if self.arena is not None:
            # eligibility is decided inside the step scope: begin_step has
            # then already (re-)reserved the slab, so a warm arena captures
            # on its very next step
            with self.arena.step():
                if self._capture_ready():
                    return self._captured_fb(batch, grad_scale, sig)
                counters.eager_fallbacks += 1
                return staged_forward_backward(self.model, batch, grad_scale)
        return self._captured_fb(batch, grad_scale, sig)

    def _captured_fb(self, batch: Sequence, grad_scale: float,
                     sig: tuple) -> Tuple[float, int]:
        """Run one eager step with recording on (caller has already entered
        the arena step scope, so the slab registered here is final)."""
        counters = replay_counters()
        sess = CaptureSession(strict=True)
        for i, a in enumerate(batch):
            if isinstance(a, np.ndarray):
                sess.add_input(f"in{i}", a)
        self._register_stable(sess)
        with capturing(sess):
            result = staged_forward_backward(self.model, batch, grad_scale)

        try:
            prog = sess.finish(
                result, signature=sig,
                arena_generation=self._arena_generation(),
                link_epoch=link_epoch())
        except CaptureError:
            counters.eager_fallbacks += 1
            return result
        if len(self._programs) >= MAX_PROGRAMS:
            oldest = next(iter(self._programs))
            del self._programs[oldest], self._fresh_after[oldest]
        self._programs[sig] = prog
        self._fresh_after[sig] = self._fresh()
        counters.captures += 1
        return result

    # -- full optimisation step --------------------------------------------

    def step(self, batch: Sequence, *, lr: Optional[float] = None
             ) -> StepResult:
        """One optimisation step through ``loop``'s single step body:
        zero-grad and the optimizer update always run eagerly (overflow
        checks and the LR schedule are dynamic); only the forward+backward
        kernel sequence is replayed."""
        if self.trainer is None:
            raise RuntimeError("engine.step() requires a trainer")
        return _optimisation_step(
            self.trainer,
            lambda scale: self.forward_backward(*batch, grad_scale=scale),
            lr)
