"""Checkpoint payloads: save/load model and trainer state.

Long training runs (the paper's WMT runs take days) need restartable
state.  This module is the payload format of the crash-safe
:class:`~repro.resilience.checkpoint.CheckpointStore` (the one checkpoint
protocol); it serialises:

* **model parameters** — by qualified name, at storage precision, to a
  single ``.npz``;
* **trainer state** — Adam/SGD moments, step counter, loss-scaler state —
  so a resumed run continues the *exact* optimisation trajectory (verified
  in ``tests/training/test_serialization.py``: save/load mid-run equals an
  uninterrupted run bit-for-bit).  A ZeRO-1 trainer's moments are stamped
  with their ``shard``/``world_size``; another shard's trainer refuses them.

Works for every trainer kind; the fused trainer's workspace is rebuilt on
load and re-linked, so symbolic tensor links survive a round trip.

Every payload is stamped with :data:`SERIALIZATION_SCHEMA` in its
``__meta`` entry; the loaders check it *first* and raise a clear
``ValueError`` on a stale or foreign checkpoint — previously a pre-schema
file surfaced as an opaque ``KeyError`` deep in the restore.  Paths may
be file objects (``io.BytesIO``), which the store uses to serialise fully
in memory before its atomic write.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Dict, Optional, Union

import numpy as np

from ..layers.base import Layer
from ..precision.loss_scaler import DynamicLossScaler, StaticLossScaler
from .trainer import LSFusedTrainer, NaiveMPTrainer, TrainerBase

#: payload layout version shared by model and trainer files (bump on
#: incompatible change; v1 was the unstamped pre-resilience layout, v2
#: lacked the trainer's shard stamp).
SERIALIZATION_SCHEMA = 3

_PathLike = Union[str, Path, BinaryIO]


def _meta_blob(payload: str) -> np.ndarray:
    meta = {"schema": SERIALIZATION_SCHEMA, "payload": payload}
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _check_meta(data, what: str, payload: str) -> dict:
    """Validate a loaded npz's ``__meta`` stamp; return the parsed meta."""
    if "__meta" not in data.files:
        raise ValueError(
            f"{what}: no __meta stamp — not a repro checkpoint, or one "
            f"saved by a pre-v{SERIALIZATION_SCHEMA} version; re-save it "
            f"with the current code")
    meta = json.loads(bytes(data["__meta"]).decode("utf-8"))
    schema = meta.get("schema")
    if schema != SERIALIZATION_SCHEMA:
        raise ValueError(
            f"{what}: checkpoint schema {schema!r} is not the supported "
            f"v{SERIALIZATION_SCHEMA}; re-save with the current code")
    saved_payload = meta.get("payload", payload)
    if saved_payload != payload:
        raise ValueError(
            f"{what}: this is a {saved_payload!r} checkpoint, expected "
            f"{payload!r} (model/trainer files swapped?)")
    return meta


def save_model(model: Layer, path: _PathLike) -> None:
    """Write all parameters to ``path`` (.npz), keyed by qualified name."""
    arrays = {p.name: np.asarray(p.data) for p in model.parameters()}
    arrays["__meta"] = _meta_blob("model")
    np.savez(path, **arrays)


def load_model(model: Layer, path: _PathLike, *, strict: bool = True) -> None:
    """Load parameters saved by :func:`save_model` into ``model`` in place.

    ``strict`` requires the name sets to match exactly; otherwise only
    intersecting names are loaded (fine-tuning from a partial checkpoint).
    """
    with np.load(path) as data:
        _check_meta(data, "load_model", "model")
        saved = set(data.files) - {"__meta"}
        own = {p.name: p for p in model.parameters()}
        if strict:
            missing = set(own) - saved
            unexpected = saved - set(own)
            if missing or unexpected:
                raise ValueError(
                    f"checkpoint mismatch: missing={sorted(missing)[:5]}, "
                    f"unexpected={sorted(unexpected)[:5]}")
        for name, p in own.items():
            if name not in saved:
                continue
            arr = data[name]
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"{name}: checkpoint shape {arr.shape} != "
                    f"{p.data.shape}")
            p.data[...] = arr.astype(p.data.dtype)


def _scaler_state(scaler) -> Optional[dict]:
    if scaler is None:
        return None
    if isinstance(scaler, (DynamicLossScaler, StaticLossScaler)):
        return scaler.state_dict()
    raise TypeError(f"unknown scaler type {type(scaler)}")


def _restore_scaler(scaler, state: Optional[dict]) -> None:
    if state is None or scaler is None:
        return
    scaler.load_state_dict(state)


def _sharding(trainer: TrainerBase) -> dict:
    """The workspace slice the moments cover (per-tensor: unsharded)."""
    if isinstance(trainer, LSFusedTrainer):
        return {"shard": list(trainer.shard),
                "world_size": trainer.world_size}
    return {"shard": None, "world_size": 1}


def save_trainer(trainer: TrainerBase, path: _PathLike) -> None:
    """Write optimizer state (moments, step count, scaler) to ``path``."""
    arrays: Dict[str, np.ndarray] = {}
    if isinstance(trainer, LSFusedTrainer):
        arrays["__m"] = trainer.m
        arrays["__v"] = trainer.v
    elif isinstance(trainer, NaiveMPTrainer):
        for i, p in enumerate(trainer.params):
            arrays[f"__m/{p.name}"] = trainer.m[i]
            arrays[f"__v/{p.name}"] = trainer.v[i]
            if trainer.masters is not None:
                arrays[f"__master/{p.name}"] = trainer.masters[i]
    else:
        raise TypeError(f"unknown trainer type {type(trainer)}")
    meta = {"schema": SERIALIZATION_SCHEMA, "payload": "trainer",
            "step_count": trainer.step_count,
            "skipped_steps": trainer.skipped_steps,
            "kind": type(trainer).__name__, **_sharding(trainer),
            "scaler": _scaler_state(trainer.scaler)}
    arrays["__meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_trainer(trainer: TrainerBase, path: _PathLike) -> None:
    """Restore optimizer state saved by :func:`save_trainer` in place."""
    with np.load(path) as data:
        meta = _check_meta(data, "load_trainer", "trainer")
        if meta["kind"] != type(trainer).__name__:
            raise ValueError(
                f"trainer kind mismatch: checkpoint has {meta['kind']}, "
                f"got {type(trainer).__name__}")
        want = _sharding(trainer)
        got = {key: meta[key] for key in want}
        if got != want:
            raise ValueError(f"trainer shard mismatch: checkpoint holds "
                             f"{got}, got {want}")
        trainer.step_count = int(meta["step_count"])
        trainer.skipped_steps = int(meta["skipped_steps"])
        _restore_scaler(trainer.scaler, meta["scaler"])
        if isinstance(trainer, LSFusedTrainer):
            trainer.m[...] = data["__m"]
            trainer.v[...] = data["__v"]
        else:
            for i, p in enumerate(trainer.params):
                trainer.m[i][...] = data[f"__m/{p.name}"]
                trainer.v[i][...] = data[f"__v/{p.name}"]
                key = f"__master/{p.name}"
                if trainer.masters is not None and key in data.files:
                    trainer.masters[i][...] = data[key]
