"""Crash-safe checkpointing: atomic writes, CRC manifests, auto-resume.

Writing :mod:`repro.training.serialization` payloads in place would let a
crash mid-write leave a torn ``.npz`` that poisons the next resume.  This
module is the one checkpoint protocol (``--save-dir``/``--resume`` and
every library caller go through it) — the durable one production
trainers use:

* **Atomicity** — every artifact is serialised fully in memory, written
  to a temp file *in the target directory*, flushed + fsynced, and
  renamed into place (:func:`atomic_write_bytes`).  A crash at any byte
  offset leaves either the complete old file or no new file — never a
  torn one under the final name.
* **Integrity** — each checkpoint carries a JSON **manifest** with a
  schema version, per-file byte counts + CRC32, and per-tensor CRC32 for
  every array in the model and trainer payloads.  The manifest is
  written *last*, so a crash anywhere during the checkpoint leaves no
  manifest and the whole checkpoint is simply invalid — the previous
  good one is untouched.
* **Bit-identical resume** — the manifest stores the model's RNG states
  (dropout streams) alongside the trainer payload's optimizer moments,
  step counters, and loss-scaler state, so a resumed run replays the
  exact trajectory of an uninterrupted one (the golden test compares
  final parameters bitwise).  It also records the BLAS thread count
  (:data:`repro.blas.BLAS_THREADS`), the host setting those bits depend
  on.
* **Retention + fallback** — :class:`CheckpointStore` keeps the newest
  ``keep`` valid checkpoints, and :meth:`CheckpointStore.resume_auto`
  walks backwards past torn/corrupt checkpoints to the newest one whose
  checksums all verify.

The ``checkpoint.write`` fault site (kind ``torn``) lives in
:func:`atomic_write_bytes`: an armed fault truncates the temp-file write
at a plan-chosen fraction and raises — the hypothesis property test
drives it through every file of a checkpoint at arbitrary offsets.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..blas import BLAS_THREADS
from ..obs.schema import ABSENT, INT, STR, ObjectOf, Record
from ..obs.spans import span
from .faults import TornWrite, current_injector

#: manifest layout version (bump on incompatible change).
MANIFEST_SCHEMA = "repro.resilience.checkpoint/v1"

#: what validate and load read of a manifest :meth:`CheckpointStore.save`
#: writes; ``rng`` holds each layer's PCG64 ``bit_generator.state``.
MANIFEST = Record({
    "step": INT,
    "files": ObjectOf(Record({"nbytes": INT, "crc32": INT})),
    "tensors": ObjectOf(INT),
    "rng": ObjectOf(Record({
        "bit_generator": STR, "state": Record({"state": INT, "inc": INT}),
        "has_uint32": INT, "uinteger": INT})),
    "extra": (Record({"loop_step": (INT, ABSENT)}), {}),
}, tag=MANIFEST_SCHEMA)

_PathLike = Union[str, Path]


class CheckpointCorrupt(ValueError):
    """A checkpoint failed validation (torn file, checksum mismatch...)."""

    def __init__(self, step: int, problems: List[str]):
        super().__init__(
            f"checkpoint step {step} is corrupt: " + "; ".join(problems))
        self.step = step
        self.problems = problems


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


def _tensor_crcs(npz_bytes: bytes, prefix: str) -> Dict[str, int]:
    """Per-array CRC32 of an ``.npz`` payload, keyed ``prefix/name``."""
    out: Dict[str, int] = {}
    with np.load(io.BytesIO(npz_bytes)) as data:
        for name in data.files:
            arr = np.ascontiguousarray(data[name])
            out[f"{prefix}/{name}"] = zlib.crc32(arr.tobytes())
    return out


class CheckpointStore:
    """A directory of validated, retained, atomically-written checkpoints.

    Layout per checkpoint (``step`` = training-loop step number)::

        step-00000012.model.npz      model parameters (schema-stamped)
        step-00000012.trainer.npz    optimizer moments + scaler + counters
        step-00000012.manifest.json  schema, CRCs, RNG states, extra

    The manifest is the commit record: no manifest (or a failing one)
    means the checkpoint does not exist as far as resume is concerned.
    """

    def __init__(self, directory: _PathLike, *, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    # -- naming ----------------------------------------------------------------

    def _stem(self, step: int) -> str:
        return f"step-{step:08d}"

    def paths(self, step: int) -> Dict[str, Path]:
        stem = self._stem(step)
        return {"model": self.dir / f"{stem}.model.npz",
                "trainer": self.dir / f"{stem}.trainer.npz",
                "manifest": self.dir / f"{stem}.manifest.json"}

    def steps(self) -> List[int]:
        """Steps with a committed manifest, ascending (validity unchecked)."""
        out = []
        for p in self.dir.glob("step-*.manifest.json"):
            tag = p.name[len("step-"):-len(".manifest.json")]
            if tag.isdigit():
                out.append(int(tag))
        return sorted(out)

    # -- save ------------------------------------------------------------------

    def save(self, model, trainer, *, step: Optional[int] = None,
             extra: Optional[Dict[str, object]] = None) -> Path:
        """Atomically commit one checkpoint; returns the manifest path.

        Write order is model, trainer, manifest — the manifest last, so a
        crash (or injected torn write) during any earlier artifact leaves
        this checkpoint uncommitted and every previous one intact.
        """
        from ..training.serialization import save_model, save_trainer
        if step is None:
            step = trainer.step_count
        paths = self.paths(step)
        with span("resilience/checkpoint_save", {"step": step}):
            buf = io.BytesIO()
            save_model(model, buf)
            model_bytes = buf.getvalue()
            buf = io.BytesIO()
            save_trainer(trainer, buf)
            trainer_bytes = buf.getvalue()
            tensors = _tensor_crcs(model_bytes, "model")
            tensors.update(_tensor_crcs(trainer_bytes, "trainer"))
            manifest = {
                "schema": MANIFEST_SCHEMA,
                "step": int(step),
                "created_s": time.time(),
                "files": {
                    paths["model"].name: {
                        "nbytes": len(model_bytes),
                        "crc32": zlib.crc32(model_bytes)},
                    paths["trainer"].name: {
                        "nbytes": len(trainer_bytes),
                        "crc32": zlib.crc32(trainer_bytes)},
                },
                "tensors": tensors,
                "rng": model.rng_states(),
                "blas_threads": BLAS_THREADS,
                "extra": dict(extra or {}),
            }
            atomic_write_bytes(paths["model"], model_bytes)
            atomic_write_bytes(paths["trainer"], trainer_bytes)
            atomic_write_bytes(
                paths["manifest"],
                json.dumps(manifest, sort_keys=True).encode("utf-8"))
            self._retire()
        return paths["manifest"]

    def _retire(self) -> None:
        """Drop committed checkpoints beyond the newest ``keep``, plus any
        stray artifacts (torn temps, unmanifested files) of retired steps."""
        steps = self.steps()
        kept = set(steps[-self.keep:])
        for p in self.dir.glob("step-*"):
            tag = p.name[len("step-"):].split(".", 1)[0]
            if tag.isdigit() and int(tag) in kept and \
                    not p.name.endswith(".tmp"):
                continue
            try:
                p.unlink()
            except OSError:
                pass

    # -- validate / load -------------------------------------------------------

    def read_manifest(self, step: int) -> Dict[str, object]:
        """One checkpoint's manifest, parsed under :data:`MANIFEST`."""
        return MANIFEST.load(self.paths(step)["manifest"])

    def validate(self, step: int) -> List[str]:
        """Integrity problems of one checkpoint ([] = valid).

        Checks, in order: the manifest parses under :data:`MANIFEST`
        (schema tag and field types); each file exists with the recorded
        byte count and whole-file CRC32; every tensor matches its recorded
        CRC32.
        """
        try:
            manifest = self.read_manifest(step)
        except FileNotFoundError:
            return [f"no manifest {self.paths(step)['manifest'].name}"]
        except (OSError, ValueError) as e:  # torn JSON, skewed field types
            return [f"manifest unreadable: {e}"]
        problems: List[str] = []
        blobs: Dict[str, bytes] = {}
        for fname, meta in manifest["files"].items():
            fpath = self.dir / fname
            try:
                blob = fpath.read_bytes()
            except OSError as e:
                problems.append(f"{fname}: unreadable ({e})")
                continue
            if len(blob) != meta["nbytes"]:
                problems.append(f"{fname}: {len(blob)} bytes, manifest "
                                f"says {meta['nbytes']}")
                continue
            if zlib.crc32(blob) != meta["crc32"]:
                problems.append(f"{fname}: file CRC32 mismatch")
                continue
            blobs[fname] = blob
        if problems:
            return problems
        crcs: Dict[str, int] = {}
        for fname, blob in blobs.items():
            prefix = "model" if ".model." in fname else "trainer"
            try:
                crcs.update(_tensor_crcs(blob, prefix))
            except Exception as e:      # torn zip central directory etc.
                problems.append(f"{fname}: not a loadable npz ({e})")
        for key, want in manifest["tensors"].items():
            have = crcs.get(key)
            if have is None:
                problems.append(f"{key}: tensor missing from payload")
            elif have != want:
                problems.append(f"{key}: tensor CRC32 mismatch")
        return problems

    def load(self, model, trainer, step: int) -> Dict[str, object]:
        """Restore model + trainer + RNG state from one checkpoint.

        Validates first and raises :class:`CheckpointCorrupt`, with the
        model and trainer untouched, on any integrity problem or on RNG
        states the model cannot take (use :meth:`resume_auto` to fall back
        past corrupt checkpoints automatically).  Returns the parsed
        manifest.
        """
        problems = self.validate(step)
        if problems:
            raise CheckpointCorrupt(step, problems)
        from ..training.serialization import load_model, load_trainer
        manifest = self.read_manifest(step)
        if manifest["rng"]:
            # first, and rolled back on failure: a refused checkpoint
            # leaves the model as it was
            before = model.rng_states()
            try:
                model.set_rng_states(manifest["rng"])
            except (KeyError, ValueError) as e:
                model.set_rng_states(before)
                raise CheckpointCorrupt(step, [f"manifest rng: {e!r}"])
        paths = self.paths(step)
        load_model(model, paths["model"])
        load_trainer(trainer, paths["trainer"])
        return manifest

    def resume_auto(self, model, trainer) -> Optional[Dict[str, object]]:
        """Restore from the newest checksum-valid checkpoint, or None.

        Torn and corrupt checkpoints are skipped (with their problems
        collected into the returned manifest under ``"skipped"``), so a
        crash during the very last save costs at most one checkpoint
        interval — never the run.
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
