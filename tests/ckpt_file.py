"""Read and rewrite the members of one checkpoint file (``step-<N>.ckpt.npz``,
written by :class:`repro.resilience.CheckpointStore`)."""

import io
import json

import numpy as np


def members(path):
    """Every member of the file, by name, as an array."""
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def manifest(path):
    """The file's ``__manifest`` member, as a JSON document."""
    return json.loads(bytes(members(path)["__manifest"]))


def rewrite_manifest(path, text):
    """Replace the ``__manifest`` member by ``text`` (a JSON string), with
    fresh zip CRCs: the file stays intact, only its content changes."""
    arrays = members(path)
    arrays["__manifest"] = np.frombuffer(text.encode("utf-8"), np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    path.write_bytes(buf.getvalue())
