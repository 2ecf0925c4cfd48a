"""Crash-safe checkpointing: one atomically written file per checkpoint.

This module is the one checkpoint protocol (``--save-dir``/``--resume``
and every library caller go through it).  A checkpoint is one ``.npz``
file, ``step-<N>.ckpt.npz``, holding:

* ``model/<param>`` — every parameter at storage precision;
* ``trainer/m`` and ``trainer/v`` (the fused trainer's flat moments, or
  its ZeRO-1 shard of them), or the per-tensor trainers'
  ``trainer/{m,v,master}/<param>`` arrays;
* ``__manifest`` — a JSON document (:data:`MANIFEST`) with the step, the
  model's RNG states (dropout streams), the BLAS thread count the bits
  depend on (:data:`repro.blas.BLAS_THREADS`), the caller's ``extra``
  and the trainer's kind, counters, shard and loss-scaler state.

Properties:

* **Atomicity** — the file is serialised fully in memory, written to a
  temp file *in the target directory*, flushed + fsynced, and renamed
  into place (:func:`atomic_write_bytes`).  The rename is the commit: a
  crash at any byte offset leaves either the complete old file or no new
  file — never a torn one under the final name.
* **Integrity** — zip stores a CRC32 of every member; :meth:`validate`
  checks them all (``ZipFile.testzip``), then the member names and the
  manifest's declaration.
* **All-or-nothing restore** — :meth:`CheckpointStore.load` reads the
  file once and checks integrity, parameter names, shapes and dtypes,
  the trainer's kind, shard and loss scaler, and the RNG streams before
  it writes anything.  A corrupt file raises :class:`CheckpointCorrupt`
  (which :meth:`~CheckpointStore.resume_auto` skips); one that does not
  fit the model or trainer raises :class:`CheckpointMismatch`.  Either
  way the model and trainer are left as they were.
* **Bit-identical resume** — moments, step counters, loss-scaler state
  and RNG streams all round-trip, so a resumed run replays the exact
  trajectory of an uninterrupted one.
* **Retention + fallback** — :class:`CheckpointStore` keeps the newest
  ``keep`` checkpoints, and :meth:`CheckpointStore.resume_auto` walks
  backwards past torn/corrupt checkpoints to the newest valid one.

The ``checkpoint.write`` fault site (kind ``torn``) lives in
:func:`atomic_write_bytes`: an armed fault truncates the temp-file write
at a plan-chosen fraction and raises — the hypothesis property test
drives it at arbitrary offsets.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..blas import BLAS_THREADS
from ..obs.schema import (ABSENT, FINITE, INT, POSITIVE, STR, Nullable,
                          ObjectOf, Record, TupleOf)
from ..obs.spans import span
from .faults import TornWrite, current_injector

#: checkpoint layout version (bump on incompatible change; v1 was three
#: files: two payloads plus a JSON manifest of their CRCs).
MANIFEST_SCHEMA = "repro.resilience.checkpoint/v2"

#: a loss scaler's ``state_dict``; the dynamic scaler's extra counters
#: are absent from a static one's
_SCALER = Record({"kind": STR, "scale": FINITE, "overflows": INT,
                  "skip_streak": INT, "max_skip_streak": INT,
                  **{k: (INT, ABSENT) for k in
                     ("good_steps", "growths", "backoffs")}})

#: the ``__manifest`` member; ``rng`` holds each layer's PCG64
#: ``bit_generator.state``, ``trainer.shard`` the fused trainer's slice of
#: the workspace its moments cover (null for the per-tensor trainers).
MANIFEST = Record({
    "step": INT,
    "rng": ObjectOf(Record({
        "bit_generator": STR, "state": Record({"state": INT, "inc": INT}),
        "has_uint32": INT, "uinteger": INT})),
    "extra": (Record({"loop_step": (INT, ABSENT)}), {}),
    "trainer": Record({
        "kind": STR, "step_count": INT, "skipped_steps": INT,
        "shard": Nullable(TupleOf(INT, INT)), "world_size": POSITIVE,
        "scaler": Nullable(_SCALER)}),
}, tag=MANIFEST_SCHEMA)

_PathLike = Union[str, Path]


class CheckpointCorrupt(ValueError):
    """A checkpoint failed validation (torn file, checksum mismatch...)."""

    def __init__(self, step: int, problems: List[str]):
        super().__init__(
            f"checkpoint step {step} is corrupt: " + "; ".join(problems))
        self.step = step
        self.problems = problems


class CheckpointMismatch(ValueError):
    """A valid checkpoint that does not fit the model or trainer given."""


def atomic_write_bytes(path: _PathLike, data: bytes) -> None:
    """Durably write ``data`` to ``path``: temp + fsync + rename.

    The temp file lives next to the target (same filesystem, so the
    rename is atomic).  The armed ``checkpoint.write``/``torn`` fault
    truncates the temp write at the spec's byte fraction and raises
    :class:`~repro.resilience.faults.TornWrite` — modeling a crash
    mid-write: the final name is never touched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    injector = current_injector()
    fault = injector.fire("checkpoint.write") if injector else None
    if fault is not None:
        cut = int(len(data) * fault.fraction)
        with open(tmp, "wb") as f:
            f.write(data[:cut])
        raise TornWrite(str(path), cut, len(data))
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    dirfd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(dirfd)        # make the rename itself durable
    finally:
        os.close(dirfd)


def _arrays(model, trainer) -> Dict[str, np.ndarray]:
    """Every array a checkpoint holds, by member name, as the live array
    it is saved from and restored into."""
    out = {f"model/{p.name}": p.data for p in model.parameters()}
    if hasattr(trainer, "shard"):       # the fused trainer: flat moments
        out.update({"trainer/m": trainer.m, "trainer/v": trainer.v})
        return out
    for i, p in enumerate(trainer.params):
        out[f"trainer/m/{p.name}"] = trainer.m[i]
        out[f"trainer/v/{p.name}"] = trainer.v[i]
        if trainer.masters is not None:
            out[f"trainer/master/{p.name}"] = trainer.masters[i]
    return out


def _trainer_state(trainer) -> Dict[str, object]:
    """The trainer's manifest entry: what it is and its counters."""
    shard = getattr(trainer, "shard", None)
    return {"kind": type(trainer).__name__,
            "step_count": trainer.step_count,
            "skipped_steps": trainer.skipped_steps,
            "shard": list(shard) if shard is not None else None,
            "world_size": getattr(trainer, "world_size", 1),
            "scaler": (trainer.scaler.state_dict()
                       if trainer.scaler is not None else None)}


def _expected_members(manifest: Dict[str, object], names) -> set:
    """The member names a checkpoint with these parameters must hold."""
    params = [n[len("model/"):] for n in names if n.startswith("model/")]
    want = {"__manifest"} | {f"model/{p}" for p in params}
    if manifest["trainer"]["shard"] is not None:
        return want | {"trainer/m", "trainer/v"}
    groups = ["m", "v"]
    if any(n.startswith("trainer/master/") for n in names):
        groups.append("master")
    return want | {f"trainer/{g}/{p}" for g in groups for p in params}


def _scaler_layout(state: Optional[dict]):
    return None if state is None else (state["kind"], sorted(state))


class CheckpointStore:
    """A directory of validated, retained, atomically-written checkpoints.

    One file per checkpoint (``step`` = training-loop step number)::

        step-00000012.ckpt.npz   parameters, trainer arrays, __manifest

    A checkpoint exists once its file is renamed into place; a torn write
    leaves only a ``.tmp`` file, which the next save clears.
    """

    def __init__(self, directory: _PathLike, *, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    # -- naming ----------------------------------------------------------------

    def _file(self, step: int) -> Path:
        return self.dir / f"step-{step:08d}.ckpt.npz"

    def paths(self, step: int) -> Dict[str, Path]:
        """The checkpoint's files (one), by role."""
        return {"checkpoint": self._file(step)}

    def steps(self) -> List[int]:
        """Steps with a committed file, ascending (validity unchecked)."""
        out = []
        for p in self.dir.glob("step-*.ckpt.npz"):
            tag = p.name[len("step-"):-len(".ckpt.npz")]
            if tag.isdigit():
                out.append(int(tag))
        return sorted(out)

    # -- save ------------------------------------------------------------------

    def save(self, model, trainer, *, step: Optional[int] = None,
             extra: Optional[Dict[str, object]] = None) -> Path:
        """Atomically commit one checkpoint; returns its file.

        A crash (or injected torn write) during the one write leaves this
        checkpoint uncommitted and every previous one intact.
        """
        if step is None:
            step = trainer.step_count
        path = self._file(step)
        with span("resilience/checkpoint_save", {"step": step}):
            manifest = {"schema": MANIFEST_SCHEMA, "step": int(step),
                        "rng": model.rng_states(),
                        "blas_threads": BLAS_THREADS,
                        "extra": dict(extra or {}),
                        "trainer": _trainer_state(trainer)}
            text = json.dumps(manifest, sort_keys=True).encode("utf-8")
            arrays = _arrays(model, trainer)
            arrays["__manifest"] = np.frombuffer(text, dtype=np.uint8)
            buf = io.BytesIO()
            np.savez(buf, **arrays)
            atomic_write_bytes(path, buf.getvalue())
            self._retire()
        return path

    def _retire(self) -> None:
        """Drop checkpoints beyond the newest ``keep``, and the temp files
        torn writes left behind."""
        for step in self.steps()[:-self.keep]:
            self._file(step).unlink(missing_ok=True)
        for tmp in self.dir.glob("step-*.ckpt.npz.tmp"):
            tmp.unlink(missing_ok=True)

    # -- validate / load -------------------------------------------------------

    def _read(self, step: int, *, arrays: bool
              ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """One checkpoint's parsed manifest and (when ``arrays``) its
        arrays, from one read of its file; raises :class:`CheckpointCorrupt`
        on any CRC, member-name or manifest problem."""
        path = self._file(step)
        try:
            with np.load(io.BytesIO(path.read_bytes())) as data:
                bad = data.zip.testzip()
                if bad is not None:
                    raise ValueError(f"member {bad} fails its CRC32")
                # testzip reads members by name, and an entry's comment
                # can swallow the entries after it: a member renamed onto
                # another's name, or lost, would pass unread
                if len(set(data.files)) != len(data.files) or any(
                        info.comment for info in data.zip.infolist()):
                    raise ValueError("damaged central directory")
                if "__manifest" not in data.files:
                    raise ValueError("no __manifest member")
                manifest = MANIFEST.parse(
                    json.loads(bytes(data["__manifest"])))
                if manifest["step"] != step:
                    raise ValueError(f"manifest says step "
                                     f"{manifest['step']}")
                want = _expected_members(manifest, data.files)
                if set(data.files) != want:
                    raise ValueError(
                        f"members differ from the layout: missing "
                        f"{sorted(want - set(data.files))[:3]}, unexpected "
                        f"{sorted(set(data.files) - want)[:3]}")
                payload = ({name: data[name] for name in data.files
                            if name != "__manifest"} if arrays else {})
        except FileNotFoundError:
            raise CheckpointCorrupt(step, [f"no file {path.name}"])
        except Exception as e:      # torn zip, bad CRC, skewed manifest...
            raise CheckpointCorrupt(step, [f"{path.name}: {e}"])
        return manifest, payload

    def validate(self, step: int) -> List[str]:
        """Integrity problems of one checkpoint ([] = valid): every member's
        CRC32, the member names, and the manifest's declaration."""
        try:
            self._read(step, arrays=False)
        except CheckpointCorrupt as e:
            return e.problems
        return []

    def load(self, model, trainer, step: int) -> Dict[str, object]:
        """Restore model + trainer + RNG state from one checkpoint, all or
        nothing; returns the parsed manifest.

        Raises :class:`CheckpointCorrupt` on an integrity problem or RNG
        states the model refuses, and :class:`CheckpointMismatch` when
        the parameters (names, shapes, dtypes), the trainer's kind or
        shard, or its loss scaler differ from the checkpoint's — in each
        case with the model and trainer untouched (use
        :meth:`resume_auto` to fall back past corrupt checkpoints).
        """
        manifest, saved = self._read(step, arrays=True)
        got, have = manifest["trainer"], _trainer_state(trainer)
        for key in ("kind", "shard", "world_size"):
            if got[key] != have[key]:
                raise CheckpointMismatch(
                    f"checkpoint step {step}: trainer {key} {got[key]!r}, "
                    f"the trainer has {have[key]!r}")
        if _scaler_layout(got["scaler"]) != _scaler_layout(have["scaler"]):
            raise CheckpointMismatch(
                f"checkpoint step {step}: loss scaler "
                f"{_scaler_layout(got['scaler'])}, the trainer has "
                f"{_scaler_layout(have['scaler'])}")
        live = _arrays(model, trainer)
        if set(saved) != set(live):
            raise CheckpointMismatch(
                f"checkpoint step {step}: missing "
                f"{sorted(set(live) - set(saved))[:5]}, unexpected "
                f"{sorted(set(saved) - set(live))[:5]}")
        for name, arr in saved.items():
            if (arr.shape, arr.dtype) != (live[name].shape, live[name].dtype):
                raise CheckpointMismatch(
                    f"checkpoint step {step}: {name} has shape "
                    f"{arr.shape} {arr.dtype}, the live array "
                    f"{live[name].shape} {live[name].dtype}")
        before = model.rng_states()
        try:
            model.set_rng_states(manifest["rng"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            model.set_rng_states(before)
            raise CheckpointCorrupt(step, [f"manifest rng: {e!r}"])
        for name, arr in saved.items():
            live[name][...] = arr
        trainer.step_count = got["step_count"]
        trainer.skipped_steps = got["skipped_steps"]
        if trainer.scaler is not None:
            trainer.scaler.load_state_dict(got["scaler"])
        return manifest

    def resume_auto(self, model, trainer) -> Optional[Dict[str, object]]:
        """Restore from the newest valid checkpoint, or None.

        Torn and corrupt checkpoints are skipped (with their problems
        collected into the returned manifest under ``"skipped"``), so a
        crash during the very last save costs at most one checkpoint
        interval — never the run.  A :class:`CheckpointMismatch` is not
        skipped: an older checkpoint of the same run would not fit either.
        """
        skipped: Dict[str, List[str]] = {}
        for step in reversed(self.steps()):
            try:
                manifest = self.load(model, trainer, step)
            except CheckpointCorrupt as e:
                skipped[str(step)] = e.problems
                continue
            if skipped:
                manifest["skipped"] = skipped
            return manifest
        return None


class PeriodicCheckpointer:
    """Save every ``every`` completed loop steps, tracking overhead.

    Designed to hang off :func:`repro.training.loop.train_epoch` (the
    ``checkpointer=`` hook) or any manual loop: call :meth:`after_step`
    once per completed step.  ``overhead_s``/``saves`` feed the
    resilience bench's <5 %-of-step-time gate.
    """

    def __init__(self, store: CheckpointStore, every: int):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.store = store
        self.every = every
        self.saves = 0
        self.overhead_s = 0.0
        self._last_saved: Optional[int] = None

    def after_step(self, model, trainer, *, step: Optional[int] = None,
                   extra: Optional[Dict[str, object]] = None
                   ) -> Optional[Path]:
        """Checkpoint if ``step`` (default: trainer.step_count) is due."""
        if step is None:
            step = trainer.step_count
        if step % self.every or step == self._last_saved:
            return None
        t0 = time.perf_counter()
        payload = {"loop_step": int(step)}
        payload.update(extra or {})
        path = self.store.save(model, trainer, step=step, extra=payload)
        self.overhead_s += time.perf_counter() - t0
        self.saves += 1
        self._last_saved = step
        return path
