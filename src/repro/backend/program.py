"""Step capture & replay: compile one training step into a flat program.

LightSeq2's §3.1 observation is that transformer training executes a fixed,
shape-static kernel sequence every step, so the per-step framework graph
traversal is pure host overhead.  This module removes it on the numpy
substrate: during one instrumented *capture* step every kernel launch is
recorded as an :class:`Instr` — ``(kernel_fn, arg_refs, out_refs, attrs)``
— with each array argument resolved to a stable slot, and subsequent steps
replay the recorded :class:`KernelProgram` through a tight flat dispatch
loop that never touches the layer graph.

Slot resolution (``CaptureSession.resolve``) classifies every argument:

* **products** — outputs of earlier recorded calls, addressed as
  ``ProductRef(instr, pos)`` and read from a register file at replay;
* **inputs** — the step-varying batch arrays, addressed as
  ``InputRef(name)`` and rebound from the caller's bindings each replay;
* **stable** — memory whose *identity* outlives the program: parameter
  data/grad/compute buffers, registered constants (e.g. the sinusoidal
  position table), the activation-arena slab, and capture-time *views* of
  forced-out product memory (slab offsets) — baked in as ``ConstRef``;
* **literals** — scalars, dtypes, shape tuples, RNG generators (the
  generator *object* is stable; it re-draws at replay, advancing the layer
  streams exactly as an eager step would).

Kernels with ``out=`` buffers are *forced out* at replay: the recorded
return array is passed back as the explicit output, so every intermediate
refreshes in place and capture-time views (``swapaxes``, row slices, the
``[:, 0, :]`` CLS read) stay aliased correctly.  Anything unresolvable
raises :class:`CaptureError`; the session is poisoned, the step completes
eagerly, and the caller counts an ``eager_fallback``.

A program is only valid while the arena slab and parameter links it baked
in still exist — :meth:`KernelProgram.validate` raises
:class:`ProgramInvalidated` when the arena re-reserved or a Parameter was
re-linked, and the engine (``repro.training.capture``) falls back to eager
and recaptures.  A stale program can therefore never silently execute.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ambient import Slot
from .device import current_device


class CaptureError(RuntimeError):
    """An argument or result could not be resolved to a stable slot."""


class ProgramInvalidated(RuntimeError):
    """A captured program's baked-in memory no longer exists (arena
    re-reservation or parameter re-link); the step must run eagerly and
    recapture."""


class ConstRef:
    """Stable memory baked into the program (params, constants, slab views)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        shape = getattr(self.value, "shape", None)
        return f"const{list(shape)}" if shape is not None else "const"


class ProductRef:
    """Output ``pos`` of instruction ``instr``, read from registers."""

    __slots__ = ("instr", "pos")

    def __init__(self, instr: int, pos: int):
        self.instr = instr
        self.pos = pos

    def __repr__(self) -> str:
        return f"%{self.instr}.{self.pos}"


class InputRef:
    """A step-varying input, rebound from the replay bindings by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"${self.name}"


class OpSpec:
    """Static capture metadata for one kernel.

    ``outs`` maps explicit output kwarg names to return positions — at
    replay the recorded return array is passed back through that kwarg so
    the kernel writes into program-owned memory (forced-out).
    ``loss_source`` flags the criterion forward whose scalar returns
    (loss, ntok) the step result is value-matched against.
    """

    __slots__ = ("outs", "loss_source")

    def __init__(self, outs: Optional[Dict[str, int]] = None,
                 loss_source: bool = False):
        self.outs = dict(outs or {})
        self.loss_source = loss_source


_HOST_SPEC = OpSpec()


class Instr:
    """One recorded launch: pre-resolved args + per-replay patch lists."""

    __slots__ = ("fn", "name", "base_args", "arg_patches", "base_kwargs",
                 "kwarg_patches", "rets", "stage")

    def __init__(self, fn: Callable, name: str, base_args: List[Any],
                 arg_patches: List[Tuple[int, Any]],
                 base_kwargs: Dict[str, Any],
                 kwarg_patches: List[Tuple[str, Any]],
                 rets: Tuple[Any, ...], stage: str):
        self.fn = fn
        self.name = name
        self.base_args = base_args
        self.arg_patches = arg_patches
        self.base_kwargs = base_kwargs
        self.kwarg_patches = kwarg_patches
        self.rets = rets
        self.stage = stage


class CaptureSession:
    """Records every :func:`capturable` call between ``capturing()`` enter
    and :meth:`finish` into a flat instruction list."""

    def __init__(self, *, strict: bool = True):
        self.strict = strict
        self.instrs: List[Instr] = []
        self.busy = False            # True while inside an outer kernel:
        self.failed: Optional[str] = None   # nested launches not recorded
        self.loss_instr: Optional[int] = None
        self._inputs: Dict[int, str] = {}      # id(array) -> binding name
        self._stable: Dict[int, np.ndarray] = {}
        self._products: Dict[int, ProductRef] = {}
        self._forced: set = set()              # ids of forced-out products

    # -- registries -----------------------------------------------------------

    def add_input(self, name: str, array: np.ndarray) -> None:
        self._inputs[id(array)] = name

    def add_stable(self, *arrays: Optional[np.ndarray]) -> None:
        for a in arrays:
            if isinstance(a, np.ndarray):
                self._stable[id(a)] = a

    # -- argument resolution --------------------------------------------------

    def resolve(self, v):
        """Classify one argument; raises :class:`CaptureError` when it
        cannot be replayed safely."""
        if isinstance(v, np.ndarray):
            i = id(v)
            if i in self._products:
                return self._products[i]
            if i in self._inputs:
                return InputRef(self._inputs[i])
            if i in self._stable:
                return ConstRef(v)
            base = v.base
            while isinstance(base, np.ndarray):
                bi = id(base)
                if bi in self._products:
                    if bi in self._forced:
                        # view into forced-out product memory: refreshed in
                        # place every replay, so the view stays valid
                        return ConstRef(v)
                    raise CaptureError(
                        f"view of a non-forced product (shape {v.shape})")
                if bi in self._inputs:
                    raise CaptureError(
                        f"view of a step input (shape {v.shape})")
                if bi in self._stable:
                    return ConstRef(v)
                base = base.base
            if self.strict:
                raise CaptureError(
                    f"unresolvable array argument (shape {v.shape}, "
                    f"dtype {v.dtype})")
            return ConstRef(v)
        if isinstance(v, np.random.Generator):
            return ConstRef(v)
        if v is None or isinstance(v, (bool, int, float, str, bytes,
                                       np.integer, np.floating, np.bool_,
                                       np.dtype, type)):
            return v
        if isinstance(v, tuple) and all(
                isinstance(x, (int, np.integer)) for x in v):
            return v
        raise CaptureError(f"unsupported argument type {type(v).__name__}")

    # -- recording ------------------------------------------------------------

    def record_call(self, fn: Callable, name: str, spec: OpSpec,
                    args: Sequence, kwargs: Dict[str, Any], ret) -> None:
        rets = ret if isinstance(ret, tuple) else (ret,)
        base_args: List[Any] = []
        arg_patches: List[Tuple[int, Any]] = []
        for i, a in enumerate(args):
            r = self.resolve(a)
            if isinstance(r, (ProductRef, InputRef)):
                base_args.append(None)
                arg_patches.append((i, r))
            elif isinstance(r, ConstRef):
                base_args.append(r.value)
            else:
                base_args.append(r)
        base_kwargs: Dict[str, Any] = {}
        kwarg_patches: List[Tuple[str, Any]] = []
        for k, v in kwargs.items():
            if k in spec.outs:
                continue        # rebound from the returns below
            r = self.resolve(v)
            if isinstance(r, (ProductRef, InputRef)):
                kwarg_patches.append((k, r))
            elif isinstance(r, ConstRef):
                base_kwargs[k] = r.value
            else:
                base_kwargs[k] = r
        forced_ids = []
        for out_name, pos in spec.outs.items():
            if pos >= len(rets):
                raise CaptureError(
                    f"{name}: out spec {out_name!r}->{pos} beyond "
                    f"{len(rets)} returns")
            out_arr = rets[pos]
            if isinstance(out_arr, np.ndarray):
                base_kwargs[out_name] = out_arr
                forced_ids.append(id(out_arr))
        idx = len(self.instrs)
        self.instrs.append(Instr(
            fn=fn, name=name, base_args=base_args, arg_patches=arg_patches,
            base_kwargs=base_kwargs, kwarg_patches=kwarg_patches, rets=rets,
            stage=current_device().stage))
        if spec.loss_source:
            self.loss_instr = idx
        for pos, rv in enumerate(rets):
            if isinstance(rv, np.ndarray):
                self._products[id(rv)] = ProductRef(idx, pos)
        self._forced.update(forced_ids)

    # -- result resolution ----------------------------------------------------

    def _resolve_result(self, v):
        if isinstance(v, (tuple, list)):
            return type(v)(self._resolve_result(x) for x in v)
        if isinstance(v, np.ndarray):
            i = id(v)
            if i in self._products:
                return self._products[i]
            if i in self._inputs:
                return InputRef(self._inputs[i])
            if i in self._stable or not self.strict:
                return ConstRef(v)
            raise CaptureError(
                f"result array (shape {v.shape}) is not a kernel product")
        if isinstance(v, (bool, np.bool_)) or v is None:
            return v
        if isinstance(v, (int, float, np.integer, np.floating)):
            # scalars must come out of the flagged loss kernel: matching by
            # value (never by small-int identity) against its returns
            if self.loss_instr is not None:
                rets = self.instrs[self.loss_instr].rets
                want_int = isinstance(v, (int, np.integer))
                for pos, rv in enumerate(rets):
                    if isinstance(rv, np.ndarray) or isinstance(rv, bool):
                        continue
                    if isinstance(rv, (int, np.integer)) != want_int:
                        continue
                    if rv == v:
                        return ProductRef(self.loss_instr, pos)
            raise CaptureError(
                f"scalar result {v!r} does not match a loss-source return")
        raise CaptureError(f"unsupported result type {type(v).__name__}")

    def finish(self, result, *, signature=None, arena_generation: int = 0,
               link_epoch: int = 0) -> "KernelProgram":
        """Seal the session into a replayable :class:`KernelProgram`."""
        if self.failed is not None:
            raise CaptureError(self.failed)
        if not self.instrs:
            raise CaptureError("nothing was captured")
        return KernelProgram(
            instrs=self.instrs, result=self._resolve_result(result),
            input_names=sorted(set(self._inputs.values())),
            signature=signature, arena_generation=arena_generation,
            link_epoch=link_epoch)


#: the active capture session, process-wide; ``capturing(session)``
#: installs it, and a nested ``capturing`` raises :class:`CaptureError`.
CAPTURE = Slot("capture", refuse_nested=CaptureError)
capturing = CAPTURE.use


def capturable(outs: Optional[Dict[str, int]] = None, *,
               loss_source: bool = False):
    """Decorator: make a kernel (or host op) recordable by a capture session.

    With no session active — or while a *nested* kernel runs inside an
    already-recorded outer kernel — the wrapper is a two-branch passthrough.
    ``outs`` names the kernel's explicit output kwargs and their return
    positions (forced-out at replay); an op without ``outs`` is simply
    re-executed each replay and its fresh returns re-registered.
    """
    spec = OpSpec(outs, loss_source=loss_source)

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not CAPTURE.stack:
                return fn(*args, **kwargs)
            sess = CAPTURE.stack[-1]
            if sess.busy or sess.failed is not None:
                return fn(*args, **kwargs)
            sess.busy = True
            try:
                ret = fn(*args, **kwargs)
            finally:
                sess.busy = False
            try:
                sess.record_call(fn, fn.__name__, spec, args, kwargs, ret)
            except CaptureError as e:
                sess.failed = f"{fn.__name__}: {e}"
            return ret

        wrapper.__wrapped_kernel__ = fn
        wrapper.op_spec = spec
        return wrapper

    return deco


def host_call(fn: Callable, *args, **kwargs):
    """Run ``fn`` now and record it as a host instruction (no launch).

    The capture-aware escape hatch for host-side mutation that must happen
    again at replay — gradient accumulation into Parameter storage, most
    importantly."""
    if not CAPTURE.stack:
        return fn(*args, **kwargs)
    sess = CAPTURE.stack[-1]
    if sess.busy or sess.failed is not None:
        return fn(*args, **kwargs)
    sess.busy = True
    try:
        ret = fn(*args, **kwargs)
    finally:
        sess.busy = False
    try:
        sess.record_call(fn, getattr(fn, "__name__", "host"), _HOST_SPEC,
                         args, kwargs, ret)
    except CaptureError as e:
        sess.failed = f"host_call({getattr(fn, '__name__', '?')}): {e}"
    return ret


class KernelProgram:
    """A captured step: flat instruction list + result template.

    :meth:`replay` dispatches the instructions in capture order, grouped by
    training stage so the replayed step still lands in the right
    ``stage_scope`` and emits the same ``train/forward`` /
    ``train/backward`` spans an eager step would.
    """

    def __init__(self, instrs: List[Instr], result, input_names: List[str],
                 signature=None, arena_generation: int = 0,
                 link_epoch: int = 0):
        self.instrs = instrs
        self.result = result
        self.input_names = input_names
        self.signature = signature
        self.arena_generation = arena_generation
        self.link_epoch = link_epoch
        self.replays = 0
        # consecutive same-stage runs -> (stage, lo, hi) dispatch groups
        groups: List[Tuple[str, int, int]] = []
        for i, ins in enumerate(instrs):
            if groups and groups[-1][0] == ins.stage:
                groups[-1] = (ins.stage, groups[-1][1], i + 1)
            else:
                groups.append((ins.stage, i, i + 1))
        self._groups = groups

    def __len__(self) -> int:
        return len(self.instrs)

    # -- validity -------------------------------------------------------------

    def validate(self, *, arena_generation: int = 0,
                 link_epoch: int = 0) -> None:
        """Raise :class:`ProgramInvalidated` if baked-in memory is stale."""
        if arena_generation != self.arena_generation:
            raise ProgramInvalidated(
                f"arena re-reserved (generation {arena_generation} != "
                f"captured {self.arena_generation})")
        if link_epoch != self.link_epoch:
            raise ProgramInvalidated(
                f"parameters re-linked (epoch {link_epoch} != captured "
                f"{self.link_epoch})")

    # -- replay ---------------------------------------------------------------

    def _resolve(self, ref, regs, bindings):
        t = type(ref)
        if t is ProductRef:
            return regs[ref.instr][ref.pos]
        if t is InputRef:
            return bindings[ref.name]
        if t is ConstRef:
            return ref.value
        if isinstance(ref, (tuple, list)):
            return type(ref)(self._resolve(x, regs, bindings) for x in ref)
        return ref

    def replay(self, bindings: Dict[str, np.ndarray]):
        """Dispatch the flat program; returns the resolved step result.

        Patched argument slots are overwritten on every replay, so mutating
        the stored ``base_args``/``base_kwargs`` in place is safe and keeps
        the per-instruction dispatch allocation-free.
        """
        missing = [n for n in self.input_names if n not in bindings]
        if missing:
            raise KeyError(f"replay bindings missing inputs {missing}")
        from ..obs.spans import span   # deferred: obs imports backend
        dev = current_device()
        instrs = self.instrs
        regs: List[Optional[Tuple[Any, ...]]] = [None] * len(instrs)
        for stage, lo, hi in self._groups:
            with dev.stage_scope(stage), \
                    span(f"train/{stage}", attrs={"replay": True}):
                for i in range(lo, hi):
                    ins = instrs[i]
                    args = ins.base_args
                    for j, ref in ins.arg_patches:
                        args[j] = (regs[ref.instr][ref.pos]
                                   if type(ref) is ProductRef
                                   else bindings[ref.name])
                    kwargs = ins.base_kwargs
                    for k, ref in ins.kwarg_patches:
                        kwargs[k] = (regs[ref.instr][ref.pos]
                                     if type(ref) is ProductRef
                                     else bindings[ref.name])
                    ret = ins.fn(*args, **kwargs)
                    regs[i] = ret if type(ret) is tuple else (ret,)
        self.replays += 1
        return self._resolve(self.result, regs, bindings)

    def describe(self) -> str:
        """Human-readable dump of the program (CI debugging artifact)."""
        lines = [f"KernelProgram: {len(self.instrs)} instrs, "
                 f"inputs={self.input_names}, "
                 f"arena_generation={self.arena_generation}, "
                 f"link_epoch={self.link_epoch}"]
        for stage, lo, hi in self._groups:
            lines.append(f"  -- stage {stage} [{lo}:{hi}]")
            for i in range(lo, hi):
                ins = self.instrs[i]
                args = list(ins.base_args)
                for j, ref in ins.arg_patches:
                    args[j] = ref
                arg_s = ", ".join(
                    (repr(a) if isinstance(a, (ProductRef, InputRef))
                     else (f"const{list(a.shape)}"
                           if isinstance(a, np.ndarray) else repr(a)))
                    for a in args)
                outs = {k: (f"buf{list(v.shape)}"
                            if isinstance(v, np.ndarray) else repr(v))
                        for k, v in ins.base_kwargs.items()}
                kw_s = (f" outs/kwargs={outs}" if outs else "")
                patch_s = ("" if not ins.kwarg_patches else
                           f" patches={[(k, repr(r)) for k, r in ins.kwarg_patches]}")
                lines.append(f"  %{i} = {ins.name}({arg_s}){kw_s}{patch_s}")
        return "\n".join(lines)


def capture_callable(fn: Callable, *, strict: bool = False,
                     constants: Sequence[np.ndarray] = ()) -> Callable:
    """Capture-then-replay wrapper for a kernel-pure callable.

    The first invocation runs ``fn`` eagerly under a capture session with
    every positional ndarray argument registered as a step input
    (``a0, a1, ...``); subsequent same-signature invocations replay the
    captured program with the new arrays bound.  A signature change
    (shape/dtype) transparently recaptures.  Used by the gradcheck harness
    to push every finite-difference evaluation through the replay path.

    ``strict=False`` (the default here) lets closure-captured fixture
    arrays — pre-drawn dropout masks, token ids, position tables — resolve
    as constants without explicit registration; pass ``constants`` to
    register them anyway under ``strict=True``.
    """
    state: Dict[str, Any] = {"program": None, "sig": None}

    @functools.wraps(fn)
    def wrapper(*args):
        sig = tuple((a.shape, a.dtype.str) if isinstance(a, np.ndarray)
                    else repr(a) for a in args)
        prog = state["program"]
        if prog is not None and state["sig"] == sig:
            bindings = {f"a{i}": a for i, a in enumerate(args)
                        if isinstance(a, np.ndarray)}
            return prog.replay(bindings)
        sess = CaptureSession(strict=strict)
        sess.add_stable(*constants)
        for i, a in enumerate(args):
            if isinstance(a, np.ndarray):
                sess.add_input(f"a{i}", a)
        with capturing(sess):
            result = fn(*args)
        state["program"] = sess.finish(result, signature=sig)
        state["sig"] = sig
        return result

    wrapper.capture_state = state
    return wrapper
