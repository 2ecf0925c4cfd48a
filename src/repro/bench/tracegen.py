"""Kernel-trace collection for paper-scale experiments.

Executing a Transformer-big step at 15k batch tokens in numpy would burn
minutes and gigabytes per data point.  Instead we exploit an exact property
of the substrate: **every count in a kernel record (elements read/written,
FLOPs) is an affine function of the batch size** for a fixed sequence
length, model and execution path — batch size enters every tensor shape
linearly, and constant terms (parameter-sized reads, optimizer state) don't
depend on it at all.  The *number and order* of launches is batch-size
independent.

So we execute the real model twice, at two small batch sizes, and solve the
affine coefficients per launch record::

    e(B) = e(b1) + (e(b2) - e(b1)) * (B - b1) / (b2 - b1)

which is *exact* (verified against direct execution in
``tests/bench/test_tracegen.py``), then evaluate at the paper's batch
sizes.  Depth is exact too: a deeper stack repeats identical per-layer
blocks, so two shallow depths determine the trace multiset at any depth
(:func:`depth_synthesis_model`).  :func:`trace_model` composes both for
every model family, so a whole-step trace never executes more than a
2-layer model at batch 4.  Sequence length is quadratic (attention
scores), so experiments that sweep L (Fig. 15) execute each L directly and
extrapolate only B.

:data:`SYSTEMS` names each training system the paper compares once.  A
system that shares another's launch *structure* (the TensorFlow baseline
has PyTorch's; DeepSpeed has the fused structure on the encoder) differs
only in the library tag of its launches — cost differences then come from
the per-library efficiency curves.
"""

from __future__ import annotations

import gc
from dataclasses import replace as dc_replace
from fractions import Fraction
from functools import lru_cache
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..backend.device import Device, KernelLaunch, use_device
from ..config import LSConfig
from ..data.vocab import EOS, FIRST_CONTENT_ID
from ..models.bert import BertModel
from ..models.gpt import GPTModel
from ..models.transformer import TransformerModel
from ..models.vit import ViTModel
from ..training.loop import train_step
from ..training.optimizers import OptimizerSpec
from ..training.trainer import make_trainer


def fixed_shape_mt_batch(batch: int, seq: int, vocab: int,
                         seed: int = 0) -> Tuple[np.ndarray, ...]:
    """A fully-dense (no padding) MT batch of exactly (batch, seq)."""
    rng = np.random.default_rng(seed)
    hi = max(vocab, FIRST_CONTENT_ID + 2)
    src = rng.integers(FIRST_CONTENT_ID, hi, size=(batch, seq))
    tgt_in = rng.integers(FIRST_CONTENT_ID, hi, size=(batch, seq))
    tgt_out = rng.integers(FIRST_CONTENT_ID, hi, size=(batch, seq))
    src[:, -1] = EOS
    tgt_out[:, -1] = EOS
    return src.astype(np.int64), tgt_in.astype(np.int64), tgt_out.astype(np.int64)


def _bert_batch(cfg: LSConfig, batch: int, seq: int) -> Tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0)
    tokens = rng.integers(cfg.padding_idx + 1, cfg.vocab_size,
                          size=(batch, seq)).astype(np.int64)
    labels = rng.integers(0, cfg.num_classes, size=batch).astype(np.int64)
    return tokens, labels


def _vit_batch(cfg: LSConfig, batch: int,
               seq: Optional[int]) -> Tuple[np.ndarray, ...]:
    """ViT ignores ``seq``: its length follows from the image size."""
    rng = np.random.default_rng(0)
    images = rng.standard_normal(
        (batch, cfg.num_channels, cfg.image_size, cfg.image_size)
    ).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=batch).astype(np.int64)
    return images, labels


def _gpt_batch(cfg: LSConfig, batch: int, seq: int) -> Tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0)
    hi = max(cfg.vocab_size, FIRST_CONTENT_ID + 2)
    toks = rng.integers(FIRST_CONTENT_ID, hi, size=(batch, seq)).astype(np.int64)
    tgts = rng.integers(FIRST_CONTENT_ID, hi, size=(batch, seq)).astype(np.int64)
    return toks, tgts


#: model family (the preset name's prefix) -> (model class, fixed-shape batch)
_FAMILIES: Dict[str, Tuple[type, Callable[..., Tuple[np.ndarray, ...]]]] = {
    "transformer": (TransformerModel, lambda cfg, batch, seq:
                    fixed_shape_mt_batch(batch, seq, cfg.vocab_size)),
    "bert": (BertModel, _bert_batch),
    "vit": (ViTModel, _vit_batch),
    "gpt2": (GPTModel, _gpt_batch),
}


# ---------------------------------------------------------------------------
# the training systems the paper compares
# ---------------------------------------------------------------------------


class System(NamedTuple):
    """How one training system builds its step and tags its kernels.

    ``lib`` tags the fused ``ls_*`` kernels and ``other_lib`` every other
    launch: that is the retag rule for systems that share another system's
    launch structure but not its per-kernel efficiency.
    """

    fused: bool
    trainer: str
    lib: str
    other_lib: str
    fused_scope: str = "all"


#: every system a figure compares, by name.
SYSTEMS: Dict[str, System] = {
    "pytorch": System(False, "naive", "pytorch", "pytorch"),
    "apex": System(False, "apex", "apex", "apex"),
    "lightseq2": System(True, "lightseq", "lightseq2", "lightseq2"),
    # PyTorch's launch structure at TensorFlow's kernel efficiency
    "tensorflow": System(False, "naive", "tensorflow", "tensorflow"),
    # fused encoder/decoder kernels inside an otherwise-PyTorch step
    "deepspeed": System(True, "naive", "deepspeed", "pytorch",
                        "layers_only"),
    # NeurST: LightSeq2 layers inside an otherwise-TensorFlow step
    "neurst": System(True, "naive", "lightseq2", "tensorflow",
                     "layers_only"),
    # the cumulative-fusion ablation's middle steps; "lightseq2-layers" is
    # also Table 2's LightSeq2 protocol (no LS embedding/criterion/trainer)
    "lightseq2-layers": System(True, "naive", "lightseq2", "lightseq2",
                               "layers_only"),
    "lightseq2-embcrit": System(True, "naive", "lightseq2", "lightseq2"),
}


def record_launches(fn: Callable[[], object], lib: str) -> List[KernelLaunch]:
    """Run ``fn`` on a fresh simulated device tagged ``lib``; return the
    kernels it launched."""
    # models from earlier runs sit in reference cycles, GBs each at paper
    # scale: free them so they do not add to this run's peak memory
    gc.collect()
    dev = Device(lib=lib)
    with use_device(dev):
        fn()
    return dev.launches


def step_trace(cfg: LSConfig, system: System, batch: int,
               seq: Optional[int] = None) -> List[KernelLaunch]:
    """One whole training step's kernel trace, executed at exactly
    (batch, seq) on ``cfg``'s model family (MT, BERT, ViT or GPT) as
    ``system`` builds it."""
    model_cls, make_batch = _FAMILIES[cfg.model.split("-")[0]]
    cfg = cfg.with_overrides(fused=system.fused)
    scope = ({} if system.fused_scope == "all"
             else {"fused_scope": system.fused_scope})
    model = model_cls(cfg, seed=0, **scope)
    trainer = make_trainer(system.trainer, model,
                           OptimizerSpec(kind="adam", lr=1e-4))
    data = make_batch(cfg, batch, seq)
    trace = record_launches(lambda: train_step(model, trainer, data),
                            system.lib)
    return [k if k.name.startswith("ls_")
            else dc_replace(k, lib=system.other_lib) for k in trace]


# ---------------------------------------------------------------------------
# exact affine extrapolation in batch size
# ---------------------------------------------------------------------------


class TraceStructureError(RuntimeError):
    """The two collected traces disagree structurally (a bug, not noise)."""


def _fit(k1: KernelLaunch, k2: KernelLaunch, x1: int, x2: int
         ) -> List[Tuple[Fraction, Fraction]]:
    """(intercept, slope) of the exact line through record ``k1`` at ``x1``
    and ``k2`` at ``x2``, for elements read, elements written and FLOPs."""
    coeffs = []
    for f1, f2 in ((k1.elems_read, k2.elems_read),
                   (k1.elems_written, k2.elems_written),
                   (k1.flops, k2.flops)):
        slope = Fraction(f2 - f1, x2 - x1)
        coeffs.append((f1 - slope * x1, slope))
    return coeffs


def _evaluate(proto: KernelLaunch, coeffs: List[Tuple[Fraction, Fraction]],
              x: int) -> KernelLaunch:
    """``proto`` with its counts read off the fitted lines at ``x``."""
    (ia, sa), (ib, sb), (ic, sc) = coeffs
    return dc_replace(proto, elems_read=int(ia + sa * x),
                      elems_written=int(ib + sb * x),
                      flops=int(ic + sc * x))


def batch_affine_model(trace_b1: Sequence[KernelLaunch],
                       trace_b2: Sequence[KernelLaunch], b1: int, b2: int
                       ) -> Callable[[int], List[KernelLaunch]]:
    """Fit the exact per-record affine model; return ``trace(B)``.

    Raises :class:`TraceStructureError` if the traces differ in length,
    names, stages, families or dtypes — structure must be batch-size
    independent for the model to be valid.
    """
    if b1 == b2:
        raise ValueError("need two distinct batch sizes")
    if len(trace_b1) != len(trace_b2):
        raise TraceStructureError(
            f"trace lengths differ: {len(trace_b1)} vs {len(trace_b2)}")
    coeffs = []
    for k1, k2 in zip(trace_b1, trace_b2):
        if _struct_key(k1) != _struct_key(k2):
            raise TraceStructureError(
                f"record mismatch: {k1.name}/{k1.stage} vs "
                f"{k2.name}/{k2.stage}")
        coeffs.append((k1, _fit(k1, k2, b1, b2)))

    def trace_at(batch: int) -> List[KernelLaunch]:
        return [_evaluate(proto, rec, batch) for proto, rec in coeffs]

    return trace_at


# ---------------------------------------------------------------------------
# exact depth synthesis: deep stacks repeat identical per-layer blocks
# ---------------------------------------------------------------------------


def _struct_key(k: KernelLaunch) -> Tuple:
    """Structural identity: everything except the element/flop counts."""
    return (k.name, k.stage, k.family, k.dtype_bytes, k.lib)


def _full_key(k: KernelLaunch) -> Tuple:
    return _struct_key(k) + (k.elems_read, k.elems_written, k.flops)


def depth_synthesis_model(trace_d1: Sequence[KernelLaunch],
                          trace_d2: Sequence[KernelLaunch],
                          d1: int, d2: int
                          ) -> Callable[[int], List[KernelLaunch]]:
    """Build ``trace(depth)`` from traces at two stack depths — exactly.

    Works on the trace *multiset*, which is all the cost model consumes
    (roofline replay sums per-record costs; order never matters):

    * per-layer records have depth-independent shapes, so each distinct
      record signature's **multiplicity** is affine in depth
      (``m(d) = a + b*d``) — solved from the two collected depths;
    * whole-model singletons (fused zero-grad/Adam, the all-reduce record)
      keep multiplicity but their **counts** are affine in depth — matched
      between the two traces by structural identity and interpolated.

    Exactness is asserted against direct execution at a third depth in
    ``tests/bench/test_tracegen.py`` (multiset comparison).  This removes
    any need to build 24-layer multi-GB models for the Fig.-9 study: only
    two shallow models are ever executed.

    One documented approximation: launch-count effects that are *piecewise*
    in depth (apex multi_tensor chunking splits every 320 tensors) are
    smoothed to one record with the correct total size — a <=2-launch
    error on a multi-thousand-launch step.
    """
    if d2 <= d1:
        raise ValueError("need d2 > d1")
    step = d2 - d1

    def multiset(trace):
        counts: Dict[Tuple, int] = {}
        protos: Dict[Tuple, KernelLaunch] = {}
        for k in trace:
            key = _full_key(k)
            counts[key] = counts.get(key, 0) + 1
            protos.setdefault(key, k)
        return counts, protos

    c1, p1 = multiset(trace_d1)
    c2, p2 = multiset(trace_d2)

    #: (proto, mult_intercept, mult_slope) for shape-stable records
    stable: List[Tuple[KernelLaunch, Fraction, Fraction]] = []
    #: (proto, per-field (intercept, slope)) for depth-sized singletons
    sized: List[Tuple[KernelLaunch, List[Tuple[Fraction, Fraction]]]] = []

    # dicts, never sets, are iterated below: first-seen order makes the
    # emitted record order (and so every downstream float sum) independent
    # of PYTHONHASHSEED
    for key, n1 in c1.items():
        if key in c2:
            slope = Fraction(c2[key] - n1, step)
            stable.append((p1[key], n1 - slope * d1, slope))
    # leftovers: depth-sized records; pair by structural identity
    left1: Dict[Tuple, List[Tuple]] = {}
    for key, n1 in c1.items():
        if key not in c2:
            left1.setdefault(key[:5], []).extend([key] * n1)
    left2: Dict[Tuple, List[Tuple]] = {}
    for key, n2 in c2.items():
        if key not in c1:
            left2.setdefault(key[:5], []).extend([key] * n2)
    if set(left1) != set(left2):
        raise TraceStructureError(
            f"unmatched structural groups across depths: "
            f"{set(left1) ^ set(left2)}")
    for skey in left1:
        a_list = sorted(left1[skey], key=lambda k: k[5:])
        b_list = sorted(left2[skey], key=lambda k: k[5:])
        if len(a_list) != len(b_list):
            raise TraceStructureError(
                f"{skey}: {len(a_list)} vs {len(b_list)} depth-sized "
                f"records — cannot pair across depths")
        for ka, kb in zip(a_list, b_list):
            sized.append((p1[ka], _fit(p1[ka], p2[kb], d1, d2)))

    def trace_at(depth: int) -> List[KernelLaunch]:
        out: List[KernelLaunch] = []
        for proto, a, b in stable:
            m = a + b * depth
            if m.denominator != 1 or m < 0:
                raise TraceStructureError(
                    f"non-integral multiplicity {m} for {proto.name} at "
                    f"depth {depth}")
            out.extend([proto] * int(m))
        out.extend(_evaluate(proto, coeffs, depth)
                   for proto, coeffs in sized)
        return out

    return trace_at


# ---------------------------------------------------------------------------
# the one whole-step trace path
# ---------------------------------------------------------------------------


def _stack_depth(cfg: LSConfig) -> int:
    depths = {d for d in (cfg.num_encoder_layers, cfg.num_decoder_layers)
              if d}
    if len(depths) != 1:
        raise ValueError("depth synthesis assumes enc depth == dec depth")
    return depths.pop()


def _with_depth(cfg: LSConfig, depth: int) -> LSConfig:
    return cfg.with_overrides(
        num_encoder_layers=depth if cfg.num_encoder_layers else 0,
        num_decoder_layers=depth if cfg.num_decoder_layers else 0)


@lru_cache(maxsize=None)
def _collected(base: LSConfig, system: str, seq: Optional[int]
               ) -> Callable[[int, int], List[KernelLaunch]]:
    """``trace(batch, depth)`` for one (depth-1 config, system, seq), exact
    for any batch and depth: four executions at batch 2/4 and depth 1/2,
    once per process."""
    def collect(batch: int, depth: int) -> List[KernelLaunch]:
        return step_trace(_with_depth(base, depth), SYSTEMS[system], batch,
                          seq)

    at_d1 = batch_affine_model(collect(2, 1), collect(4, 1), 2, 4)
    at_d2 = batch_affine_model(collect(2, 2), collect(4, 2), 2, 4)
    per_batch: Dict[int, Callable[[int], List[KernelLaunch]]] = {}

    def trace_at(batch: int, depth: int) -> List[KernelLaunch]:
        if batch not in per_batch:
            per_batch[batch] = depth_synthesis_model(at_d1(batch),
                                                     at_d2(batch), 1, 2)
        return per_batch[batch](depth)

    return trace_at


def trace_model(cfg: LSConfig, system: str, seq: Optional[int] = None
                ) -> Callable[[int], List[KernelLaunch]]:
    """``trace(batch)`` of one training step of ``cfg`` under ``system``.

    Exact at ``cfg``'s depth for any batch, but only depth-1/2 models are
    ever executed, at batch 2/4 — deep stacks (Fig. 9's 24e24d, ViT-L,
    BERT-large) never materialise.  ``seq`` is the fixed sequence length
    (``None`` for ViT, whose length follows from the image size).
    """
    depth = _stack_depth(cfg)
    base = _with_depth(cfg, 1).with_overrides(fused=SYSTEMS[system].fused)
    model = _collected(base, system, seq)
    return lambda batch: model(batch, depth)
