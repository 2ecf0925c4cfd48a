"""Static-allocation primitives — §3.3 and Fig. 8.

LightSeq2 scans the training set for the maximum temporary footprint,
reserves it *once*, and bump-allocates inside that slab for every batch.
:class:`~repro.backend.arena.ActivationArena` is that allocator; this
module holds the pieces it is built from:

* :func:`round_block` — the allocator's block rounding, shared with the
  Fig.-16 caching-allocator model in :mod:`repro.sim.utilization`;
* :func:`plan_offsets` — the lifetime-sharing planner behind Fig. 8:
  tensors whose lifetimes do not overlap may share the same offset range,
  reducing the self-attention backward footprint from ``9*B*L*H + B*L^2*N``
  to ``3*B*L*H + max(3*B*L*H, B*L^2*N)``;
* :func:`pack_plan` — the one place a set of named, shaped tensors is
  packed into a plan block, used by the arena and by the memory
  observatory's what-if projection alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: per-tensor alignment inside a lifetime-sharing plan block, so dtype views
#: at plan offsets are always aligned regardless of neighbouring tensors.
PLAN_ALIGN = 64

#: a plan entry: (name, shape, dtype, lifetime_start, lifetime_end).
PlanEntry = Tuple[str, Tuple[int, ...], np.dtype, int, int]


def round_block(nbytes: int) -> int:
    """PyTorch-style rounding: 512 B granularity, 2 MiB for large blocks."""
    if nbytes <= 0:
        raise ValueError(f"allocation size must be positive, got {nbytes}")
    if nbytes < 1 << 20:
        g = 512
    else:
        g = 2 << 20
    return (nbytes + g - 1) // g * g


# ---------------------------------------------------------------------------
# lifetime-sharing offset planner (Fig. 8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSpec:
    """A temporary tensor with a half-open lifetime [start, end) in steps."""

    name: str
    nbytes: int
    start: int
    end: int

    def overlaps(self, other: "TensorSpec") -> bool:
        return self.start < other.end and other.start < self.end


def plan_offsets(specs: List[TensorSpec]) -> Tuple[Dict[str, int], int]:
    """Assign slab offsets so only lifetime-overlapping tensors are disjoint.

    Greedy best-fit decreasing: place tensors largest-first at the lowest
    offset that does not collide with any already-placed, lifetime-
    overlapping tensor.  This is the classic offset-assignment heuristic
    used by static DNN memory planners and reproduces the Fig. 8 packing
    exactly (verified in tests).

    Returns ``(offsets by name, total slab bytes)``.
    """
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate tensor names in plan")
    for s in specs:
        if s.end <= s.start:
            raise ValueError(f"{s.name}: empty lifetime [{s.start},{s.end})")
        if s.nbytes <= 0:
            raise ValueError(f"{s.name}: non-positive size")

    order = sorted(specs, key=lambda s: (-s.nbytes, s.start, s.name))
    placed: List[Tuple[TensorSpec, int]] = []
    offsets: Dict[str, int] = {}
    total = 0
    for s in order:
        # collect occupied [lo, hi) ranges of lifetime-overlapping tensors
        busy = sorted((off, off + t.nbytes)
                      for t, off in placed if t.overlaps(s))
        pos = 0
        for lo, hi in busy:
            if pos + s.nbytes <= lo:
                break
            pos = max(pos, hi)
        offsets[s.name] = pos
        placed.append((s, pos))
        total = max(total, pos + s.nbytes)
    return offsets, total


def pack_plan(entries: Sequence[PlanEntry]
              ) -> Tuple[Dict[str, int], int, int]:
    """Pack named tensors with half-open lifetimes into one plan block.

    Each tensor is padded to :data:`PLAN_ALIGN` and placed by
    :func:`plan_offsets`.  Returns ``(offsets by name, shared total,
    naive total)``; the naive total is the no-sharing footprint (the sum
    of the aligned tensors), so callers can report the Fig.-8 saving.
    """
    specs: List[TensorSpec] = []
    for name, shape, dtype, start, end in entries:
        nb = math.prod(int(s) for s in shape) * np.dtype(dtype).itemsize
        nb = (nb + PLAN_ALIGN - 1) // PLAN_ALIGN * PLAN_ALIGN
        specs.append(TensorSpec(name, max(nb, PLAN_ALIGN), start, end))
    offsets, total = plan_offsets(specs)
    return offsets, total, sum(s.nbytes for s in specs)


def validate_plan(specs: List[TensorSpec], offsets: Dict[str, int]) -> None:
    """Raise if any two lifetime-overlapping tensors alias in offset space."""
    for i, a in enumerate(specs):
        for b in specs[i + 1:]:
            if not a.overlaps(b):
                continue
            alo, ahi = offsets[a.name], offsets[a.name] + a.nbytes
            blo, bhi = offsets[b.name], offsets[b.name] + b.nbytes
            if alo < bhi and blo < ahi:
                raise AssertionError(
                    f"live tensors alias: {a.name}@[{alo},{ahi}) vs "
                    f"{b.name}@[{blo},{bhi})")


def attention_backward_specs(b: int, l: int, h: int, n: int,
                             itemsize: int = 2) -> List[TensorSpec]:
    """The Fig.-8 workload: temporary tensors of self-attention backward.

    Orange tensors have size ``B*L*H`` (hidden-shaped grads: d_out,
    d_context, dV, dQ, dK, d_input), the purple tensor ``B*L^2*N``
    (attention-probability grad).  The softmax backward runs in place, so
    ``d_probs`` and ``d_scores`` are one tensor — they share a column in
    Fig. 8.  Lifetimes follow the left side of the figure: each backward
    step consumes the previous step's outputs.

    With sharing, the planner packs this into
    ``3*B*L*H + B*L^2*N`` bytes when scores dominate (``B*L^2*N >= 3*B*L*H``,
    i.e. the paper's ``3BLH + max(3BLH, BL^2N)`` in its large-L regime) vs
    the unshared sum of all rows — the Fig.-8 saving.  Verified in
    ``tests/backend/test_allocator.py``.
    """
    blh = b * l * h * itemsize
    bl2n = b * l * l * n * itemsize
    return [
        # step 0: fused dropout-residual bwd produces d_out
        TensorSpec("d_out", blh, 0, 2),
        # step 1: out-proj bwd: reads d_out, writes d_context (head layout)
        TensorSpec("d_context", blh, 1, 3),
        # step 2: probs@V bwd: reads d_context, writes d_probs and dV;
        #         step 3: softmax bwd rewrites it in place as d_scores
        TensorSpec("d_probs_scores", bl2n, 2, 5),
        TensorSpec("d_v", blh, 2, 6),
        # step 4: QK^T bwd: reads d_scores, writes dQ and dK
        TensorSpec("d_q", blh, 4, 6),
        TensorSpec("d_k", blh, 4, 6),
        # step 5: packed QKV-proj bwd emits the input gradient
        TensorSpec("d_input", blh, 5, 7),
    ]
