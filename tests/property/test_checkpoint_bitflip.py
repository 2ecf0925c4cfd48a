"""Property-based integrity (hypothesis): one bit flipped anywhere in a
committed checkpoint is either reported by ``validate`` or harmless.

A checkpoint is one ``.npz`` file checked by the CRC32 zip keeps for every
member.  A flip in a member's bytes fails its CRC; a flip in a header
either breaks the archive or the member names, or lands in a field the
reader never uses (a timestamp, a local copy of a size).  So after any
single flip, either ``validate`` reports a problem, or ``load`` into a
fresh twin restores every parameter, moment, counter, the loss-scaler
state and the RNG streams bitwise equal to what was saved.

Offsets are drawn half from the whole file and half from its zip
metadata (local headers, central directory, end record), which a uniform
draw would rarely reach.
"""

import functools
import io
import struct
import tempfile
import zipfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.resilience import CheckpointStore
from repro.training import (DataParallel, OptimizerSpec, make_trainer,
                            shard_batch, train_step)

_CFG = get_config("transformer-base", max_batch_tokens=128, max_seq_len=16,
                  hidden_dim=16, nhead=2, ffn_dim=32, vocab_size=32,
                  num_encoder_layers=1, num_decoder_layers=1, fp16=True)
_SPEC = OptimizerSpec(lr=1e-3)


def _batch(seed, b=2):
    rng = np.random.default_rng(seed)
    return [rng.integers(4, 32, (b, 6)) for _ in range(3)]


def _state(model, trainer):
    return ([p.data.copy() for p in model.parameters()],
            [trainer.m.copy(), trainer.v.copy()],
            (trainer.step_count, trainer.skipped_steps,
             trainer.scaler.state_dict(), model.rng_states()))


def _same(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
            and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
            and a[2] == b[2])


def _fused():
    model = TransformerModel(_CFG, seed=1)
    trainer = make_trainer("lightseq", model, _SPEC,
                           DynamicLossScaler(init_scale=2.0 ** 15))
    for s in range(3):                  # the large scale forces a skip
        train_step(model, trainer, _batch(s))
    return model, trainer


def _zero1_shard():
    dp = DataParallel(lambda: TransformerModel(_CFG, seed=1), 2, "lightseq",
                      _SPEC, zero1=True,
                      scaler_factory=lambda: DynamicLossScaler(64.0))
    for s in range(2):
        dp.train_step(shard_batch(_batch(s, b=4), 2))
    return dp.replicas[1], dp.trainers[1]


def _twin(kind):
    """A fresh model and trainer of the saved one's kind (and rank)."""
    model = TransformerModel(_CFG, seed=9)
    shard = {"rank": 1, "world_size": 2} if kind == "zero1" else {}
    return model, make_trainer(kind, model, _SPEC, DynamicLossScaler(),
                               **shard)


def _metadata_offsets(blob):
    """Byte offsets of the zip metadata: every local header (with its
    name and extra field) and everything from the central directory on."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        out = []
        for info in zf.infolist():
            at = info.header_offset
            name_len, extra_len = struct.unpack("<HH", blob[at + 26:at + 30])
            out += range(at, at + 30 + name_len + extra_len)
        out += range(zf.start_dir, len(blob))
    return out


@functools.lru_cache(maxsize=None)
def _committed(kind):
    """(file bytes, saved state, metadata offsets) of one committed
    checkpoint at step 3."""
    model, trainer = {"lightseq": _fused, "zero1": _zero1_shard}[kind]()
    with tempfile.TemporaryDirectory() as d:
        path = CheckpointStore(d).save(model, trainer, step=3)
        blob = path.read_bytes()
    return blob, _state(model, trainer), _metadata_offsets(blob)


@given(kind=st.sampled_from(["lightseq", "zero1"]),
       metadata=st.booleans(), pick=st.integers(min_value=0),
       bit=st.integers(min_value=0, max_value=7))
@settings(max_examples=120, deadline=None)
def test_one_bit_flip_is_reported_or_harmless(kind, metadata, pick, bit):
    blob, saved, meta = _committed(kind)
    offset = meta[pick % len(meta)] if metadata else pick % len(blob)
    flipped = bytearray(blob)
    flipped[offset] ^= 1 << bit
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d)
        store.paths(3)["checkpoint"].write_bytes(bytes(flipped))
        if store.validate(3):
            return
        model, trainer = _twin(kind)
        store.load(model, trainer, 3)
    assert _same(_state(model, trainer), saved), (kind, offset, bit)
