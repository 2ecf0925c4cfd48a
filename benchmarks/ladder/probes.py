"""Per-layer micro-timings, taken from outside through public functions.

Each probe returns ``{metric name: value}``; a metric a workload's layer
does not run is simply left out (reported as absent, not as 0 work).  All
host timings are medians of repeated calls at the workload's modal shape,
with no ``Device`` and no recorder installed — the same conditions as the
untraced step.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, Optional, Sequence, Set

import numpy as np

from repro.backend.arena import ActivationArena, use_memory_tracer
from repro.backend.kernels import (criterion, elementwise, embedding, flash,
                                   gemm, layernorm, optimizer, softmax)
from repro.config import LSConfig
from repro.layers.attention import causal_mask
from repro.layers.criterion import LSCrossEntropyLayer
from repro.layers.decoder import LSTransformerDecoderLayer
from repro.layers.embedding import LSEmbeddingLayer
from repro.layers.encoder import LSTransformerEncoderLayer
from repro.models import BertModel
from repro.obs.memory import MemoryTracer
from repro.obs.metrics import MetricsRecorder
from repro.obs.numerics import NumericsCollector, use_collector
from repro.obs.spans import SpanRecorder, span, use_recorder
from repro.sim import comm
from repro.training import OptimizerSpec, make_trainer, train_step

Metrics = Dict[str, Optional[float]]


def median_seconds(fn: Callable[[], object], budget_s: float, *,
                   before: Optional[Callable[[], object]] = None,
                   min_samples: int = 3) -> float:
    """Median seconds per ``fn()`` over at least ``min_samples`` samples and
    about ``budget_s`` of wall time.  Cheap calls are batched so one sample
    lasts >= 0.5 ms; ``before`` (untimed) re-arms state ahead of each call."""
    if before is not None:
        before()
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    inner = 1 if before is not None else max(1, int(5e-4 / max(first, 1e-9)))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_samples or (time.perf_counter() < deadline
                                         and len(samples) < 200):
        if before is not None:
            before()
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# host calibration / run qualification
# ---------------------------------------------------------------------------


def host(budget_s: float) -> Metrics:
    """Fixed numpy kernels for cross-machine normalisation + load average."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)
    x = rng.standard_normal(1 << 20).astype(np.float32)
    y = rng.standard_normal(1 << 20).astype(np.float32)
    out = np.empty_like(x)
    return {
        "host.calib_gemm_ms": 1e3 * median_seconds(
            lambda: np.matmul(a, b), budget_s),
        "host.calib_elementwise_ms": 1e3 * median_seconds(
            lambda: np.add(np.multiply(x, y, out=out), x, out=out), budget_s),
        "host.load1": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# backend.kernels — the Figs. 13/14 rung, host us per call
# ---------------------------------------------------------------------------


def kernels(cfg: LSConfig, shape: Sequence[int], launched: Set[str],
            adam_elems: int, budget_s: float) -> Metrics:
    """Host us/call of each fused kernel the workload's trace contains
    (``launched`` = kernel names in its ``Device`` trace)."""
    b, l = shape
    h, f, n, v = cfg.hidden_dim, cfg.ffn_dim, cfg.nhead, cfg.vocab_size
    rng = np.random.default_rng(0)
    fp16 = cfg.fp16

    def randn(*s):
        return rng.standard_normal(s).astype(np.float32)

    def us(fn):
        return 1e6 * median_seconds(fn, budget_s)

    out: Metrics = {}
    x, dy, res = randn(b, l, h), randn(b, l, h), randn(b, l, h)
    w_h, b_h = randn(h), randn(h)

    _, mu, rstd = layernorm.layernorm_forward_fused(x, w_h, b_h)
    out["kernels.layernorm_fwd_us"] = us(
        lambda: layernorm.layernorm_forward_fused(x, w_h, b_h, fp16=fp16))
    out["kernels.layernorm_bwd_us"] = us(
        lambda: layernorm.layernorm_backward_fused(dy, x, w_h, mu, rstd,
                                                   fp16=fp16))

    p = cfg.dropout
    _, mask = elementwise.bias_dropout_residual_forward(x, b_h, res, p, rng)
    out["kernels.bias_dropout_residual_fwd_us"] = us(
        lambda: elementwise.bias_dropout_residual_forward(
            x, b_h, res, p, rng, fp16=fp16))
    out["kernels.bias_dropout_residual_bwd_us"] = us(
        lambda: elementwise.bias_dropout_residual_backward(
            dy, mask, p, fp16=fp16))

    xf, dyf, b_f = randn(b, l, f), randn(b, l, f), randn(f)
    pa, act = cfg.activation_dropout, cfg.activation
    _, amask, pre = elementwise.bias_act_dropout_forward(
        xf, b_f, pa, rng, activation=act)
    out["kernels.bias_act_dropout_fwd_us"] = us(
        lambda: elementwise.bias_act_dropout_forward(
            xf, b_f, pa, rng, activation=act, fp16=fp16))
    out["kernels.bias_act_dropout_bwd_us"] = us(
        lambda: elementwise.bias_act_dropout_backward(
            dyf, amask, pre, pa, activation=act, fp16=fp16))

    w_fh = randn(f, h)
    out["kernels.linear_fwd_us"] = us(
        lambda: gemm.linear_forward(x, w_fh, fp16=fp16))
    out["kernels.linear_bwd_us"] = us(
        lambda: gemm.linear_backward(x, w_fh, dyf, fp16=fp16))

    scale = cfg.head_dim ** -0.5
    ap = cfg.attn_dropout
    if "ls_attn_softmax_dropout_fwd" in launched:
        scores, dsc = randn(b, n, l, l), randn(b, n, l, l)
        _, probs, dmask = softmax.attn_softmax_dropout_forward_fused(
            scores, scale, None, ap, rng)
        out["kernels.softmax_dropout_fwd_us"] = us(
            lambda: softmax.attn_softmax_dropout_forward_fused(
                scores, scale, None, ap, rng, fp16=fp16))
        out["kernels.softmax_dropout_bwd_us"] = us(
            lambda: softmax.attn_softmax_dropout_backward_fused(
                dsc, probs, dmask, scale, ap, fp16=fp16))
    if "ls_flash_attn_fwd" in launched:
        q, k, vv, d_o = (randn(b, n, l, cfg.head_dim) for _ in range(4))
        tiles = dict(causal=True, tile_q=cfg.attn_tile_q,
                     tile_k=cfg.attn_tile_k, fp16=fp16)
        o, stats, seed = flash.flash_attn_forward(q, k, vv, scale, None, ap,
                                                  rng, **tiles)
        out["kernels.flash_attn_fwd_us"] = us(
            lambda: flash.flash_attn_forward(q, k, vv, scale, None, ap, rng,
                                             **tiles))
        out["kernels.flash_attn_bwd_us"] = us(
            lambda: flash.flash_attn_backward(d_o, q, k, vv, o, stats, seed,
                                              scale, None, ap, **tiles))

    # criterion: (B, L, V) token logits, or (B, classes) for a [CLS] head
    if "gemm_cls_head" in launched:
        logits = randn(b, cfg.num_classes)
        targets = rng.integers(0, cfg.num_classes, b)
        ignore = -100
    else:
        logits = randn(b, l, v)
        targets = rng.integers(4, v, (b, l))
        ignore = cfg.padding_idx
    alpha = cfg.label_smoothing
    _, _, qprob = criterion.criterion_forward_fused(
        logits, targets, alpha, ignore_index=ignore)
    out["kernels.criterion_fwd_us"] = us(
        lambda: criterion.criterion_forward_fused(
            logits, targets, alpha, ignore_index=ignore, fp16=fp16))
    out["kernels.criterion_bwd_us"] = us(
        lambda: criterion.criterion_backward_fused(
            qprob, targets, alpha, ignore_index=ignore, fp16=fp16))

    tokens = rng.integers(4, v, (b, l))
    table = randn(v, h)
    pos = embedding.sinusoidal_positions(cfg.max_seq_len, h)
    emb_scale = float(h) ** 0.5
    _, emask = embedding.embedding_forward_fused(
        tokens, table, pos, emb_scale, p, rng, pad_idx=cfg.padding_idx)
    out["kernels.embedding_fwd_us"] = us(
        lambda: embedding.embedding_forward_fused(
            tokens, table, pos, emb_scale, p, rng, fp16=fp16,
            pad_idx=cfg.padding_idx))
    out["kernels.embedding_bwd_us"] = us(
        lambda: embedding.embedding_backward_fused(
            dy, tokens, emask, emb_scale, p, v, fp16=fp16,
            pad_idx=cfg.padding_idx))

    store = np.float16 if fp16 else np.float32
    ws_p = (0.02 * rng.standard_normal(adam_elems)).astype(store)
    ws_g = (1e-3 * rng.standard_normal(adam_elems)).astype(store)
    m = np.zeros(adam_elems, np.float32)
    vv2 = np.zeros(adam_elems, np.float32)
    hp = OptimizerSpec().adam_hparams()
    out["kernels.adam_fused_us"] = us(
        lambda: optimizer.adam_update_ls_fused(ws_p, ws_g, m, vv2, 1, hp,
                                               fp16=fp16))
    return out


# ---------------------------------------------------------------------------
# layers — the Fig. 15 rung, standalone forward / backward ms
# ---------------------------------------------------------------------------


def layers(cfg: LSConfig, shape: Sequence[int], *, decoder: bool,
           cls_head: bool, budget_s: float) -> Metrics:
    b, l = shape
    h, v = cfg.hidden_dim, cfg.vocab_size
    rng = np.random.default_rng(0)
    tiled = cfg.resolved_attn_impl == "tiled"

    def randn(*s):
        return rng.standard_normal(s).astype(np.float32)

    def pair(prefix, fwd, bwd) -> Metrics:
        return {f"layers.{prefix}_fwd_ms": 1e3 * median_seconds(fwd, budget_s),
                f"layers.{prefix}_bwd_ms": 1e3 * median_seconds(
                    bwd, budget_s, before=fwd)}

    x, dy = randn(b, l, h), randn(b, l, h)
    out: Metrics = {}
    enc = LSTransformerEncoderLayer(cfg, seed=0)
    out.update(pair("encoder", lambda: enc.forward(x, causal=tiled),
                    lambda: enc.backward(dy)))
    if decoder:
        dec = LSTransformerDecoderLayer(cfg, seed=0)
        enc_out = randn(b, l, h)
        self_mask = None if tiled else causal_mask(l)
        out.update(pair("decoder",
                        lambda: dec.forward(x, enc_out, self_mask=self_mask,
                                            self_causal=tiled),
                        lambda: dec.backward(dy)))
    emb = LSEmbeddingLayer(cfg, seed=0)
    tokens = rng.integers(4, v, (b, l))
    out.update(pair("embedding", lambda: emb.forward(tokens),
                    lambda: emb.backward(dy)))
    crit = LSCrossEntropyLayer(cfg, seed=0)
    if cls_head:
        crit.ignore_index = -100
        logits = randn(b, cfg.num_classes)
        targets = rng.integers(0, cfg.num_classes, b)
    else:
        logits, targets = randn(b, l, v), rng.integers(4, v, (b, l))
    out.update(pair("criterion", lambda: crit.forward(logits, targets),
                    lambda: crit.backward()))
    return out


# ---------------------------------------------------------------------------
# backend.arena — bookkeeping cost of one warmed request
# ---------------------------------------------------------------------------


def arena_request(budget_s: float) -> Metrics:
    arena = ActivationArena()
    per_step = 256

    def one_step():
        with arena.step():
            for _ in range(per_step):
                arena.request((16, 64))

    one_step()          # shape scan
    one_step()          # slab reserved: every request below is a hit
    return {"arena.request_us":
            1e6 * median_seconds(one_step, budget_s) / per_step}


# ---------------------------------------------------------------------------
# training.data_parallel + sim.comm — on a twin instance
# ---------------------------------------------------------------------------


def data_parallel(dp, batches: Sequence, budget_s: float) -> Metrics:
    """``dp`` is a fresh twin of the workload's DataParallel; ``batches`` a
    few sharded batches to run its replicas' forward/backward on."""
    fwd, bwd = [], []
    for shards in batches:
        for trainer in dp.trainers:
            trainer.zero_grad()
        for model, shard in zip(dp.replicas, shards):
            t0 = time.perf_counter()
            model.forward(*shard)
            t1 = time.perf_counter()
            model.backward()
            fwd.append(t1 - t0)
            bwd.append(time.perf_counter() - t1)
    n = sum(p.size for p in dp.replicas[0].parameters())
    rng = np.random.default_rng(0)
    bufs = [rng.standard_normal(n).astype(np.float32)
            for _ in range(dp.world_size)]

    def ms(fn):
        return 1e3 * median_seconds(fn, budget_s)

    def update():                   # the two sharded fused-Adam updates
        for trainer in dp.trainers:
            trainer.step(grad_scale=1e-3)

    def zero_grad():
        for trainer in dp.trainers:
            trainer.zero_grad()

    return {
        "models.forward_ms_p50": 1e3 * statistics.median(fwd),
        "models.backward_ms_p50": 1e3 * statistics.median(bwd),
        "comm.sync_ms_p50": ms(dp.sync_gradients),
        "trainer.update_ms_p50": ms(update),
        "trainer.zero_grad_ms_p50": ms(zero_grad),
        "comm.ring_allreduce_ms": ms(
            lambda: comm.ring_allreduce(bufs, average=True)),
        "comm.ring_reduce_scatter_ms": ms(
            lambda: comm.ring_reduce_scatter(bufs, average=True)),
        "comm.ring_allgather_ms": ms(lambda: comm.ring_allgather(bufs)),
        "comm.buckets": len(dp.buckets),
    }


# ---------------------------------------------------------------------------
# obs — what the instrument itself costs
# ---------------------------------------------------------------------------


def span_noop(budget_s: float) -> Metrics:
    def enter_exit():
        with span("ladder/noop"):
            pass
    return {"obs.span_noop_us": 1e6 * median_seconds(enter_exit, budget_s)}


def metrics_observe(path: str, budget_s: float) -> Metrics:
    rec = MetricsRecorder(path, provenance=False)
    return {"obs.metrics_observe_us": 1e6 * median_seconds(
        lambda: rec.observe_step(1, 5.0, 1024, 0.25), budget_s)}


def obs_planes(cfg: LSConfig, pool: Sequence, seed: int, steps: int,
               jsonl_path: str) -> Metrics:
    """Eager twin of the tiny BERT: every observability plane on vs all
    off, ``steps`` steps each, alternating one step at a time."""
    model = BertModel(cfg, seed=seed)
    trainer = make_trainer("lightseq", model, OptimizerSpec())
    arena = ActivationArena()
    model.set_arena(arena)
    metrics = MetricsRecorder(jsonl_path, provenance=False)
    on, off = [], []

    def one(i):
        t0 = time.perf_counter()
        res = train_step(model, trainer, pool[i % len(pool)], arena=arena)
        return res, time.perf_counter() - t0

    for i in range(len(pool)):          # arena scan + slab reservation
        one(i)
    for i in range(steps):
        with use_recorder(SpanRecorder()), \
                use_collector(NumericsCollector(every=1)), \
                use_memory_tracer(MemoryTracer()):
            t0 = time.perf_counter()
            res, dt = one(i)
            metrics.observe_step(i + 1, res.loss, res.num_tokens, dt,
                                 arena=arena)
            on.append(time.perf_counter() - t0)
        off.append(one(i)[1])
    on_ms = 1e3 * statistics.median(on)
    off_ms = 1e3 * statistics.median(off)
    return {"obs.planes_on_step_ms": on_ms, "obs.planes_off_step_ms": off_ms,
            "obs.planes_overhead_share": on_ms / off_ms - 1.0}
