"""The ladder's metric registry: every name, its unit, direction and kind.

``kind`` decides how two runs are compared (``--agree`` / ``--compare``):

* ``wall``  — host wall-clock or memory of the numpy substrate; end-to-end
  ones carry a regression ``bound`` (share of the baseline's value), the
  per-layer ones are diagnostic and never gated;
* ``exact`` — counts and simulated-clock values; deterministic for a given
  seed and command line, so any difference between two runs of one commit
  is a bug in the benchmark or the program;
* ``info``  — qualifies the run (host calibration, load), compared by nobody.

``BENCHMARK.json`` lists the five ``wall`` end-to-end metrics under
``end_to_end`` (the driver's contract wants bounded metrics that are never 0
and never bit-identical between runs) and everything else under
``per_layer``; ``test_ladder_smoke.py`` keeps the two files in step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: cost families as ``repro.backend.profiler.by_family`` returns them on the
#: four workloads' traces.
FAMILIES = ("gemm", "attention", "softmax", "dropout", "layernorm",
            "elementwise", "transpose", "embedding", "criterion",
            "optimizer", "reduction")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    kind: str                   # "wall" | "exact" | "info"
    bound: Optional[float] = None


def _m(kind: str, better: str, unit: str, *names: str) -> List[Metric]:
    return [Metric(n, unit, better, kind) for n in names]


#: the issue's eleven end-to-end metrics, reported per workload.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "wall", 0.25),
    Metric("step_ms_p50", "ms", "lower", "wall", 0.25),
    Metric("step_ms_p90", "ms", "lower", "wall", 0.25),
    Metric("tokens_per_s_wall", "tok/s", "higher", "wall", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", "wall", 0.25),
    Metric("sim_step_ms_v100", "ms", "lower", "exact"),
    Metric("sim_step_ms_a100", "ms", "lower", "exact"),
    Metric("launches_per_step", "count", "lower", "exact"),
    Metric("hbm_mb_per_step", "MB", "lower", "exact"),
    Metric("arena_peak_mib", "MiB", "lower", "exact"),
    Metric("failed_step_share", "ratio", "lower", "exact"),
]

PER_LAYER: List[Metric] = [
    # data
    *_m("wall", "lower", "ms", "data.sample_ms", "data.batching_ms"),
    *_m("exact", "lower", "ratio", "data.pad_share"),
    *_m("exact", "lower", "count", "data.distinct_shapes"),
    # models / layers (graph dispatch; Fig.-15 rung)
    *_m("wall", "lower", "ms", "models.forward_ms_p50",
        "models.backward_ms_p50",
        "layers.encoder_fwd_ms", "layers.encoder_bwd_ms",
        "layers.decoder_fwd_ms", "layers.decoder_bwd_ms",
        "layers.embedding_fwd_ms", "layers.embedding_bwd_ms",
        "layers.criterion_fwd_ms", "layers.criterion_bwd_ms"),
    # backend.kernels (Figs.-13/14 rung)
    *_m("wall", "lower", "us",
        "kernels.layernorm_fwd_us", "kernels.layernorm_bwd_us",
        "kernels.softmax_dropout_fwd_us", "kernels.softmax_dropout_bwd_us",
        "kernels.bias_dropout_residual_fwd_us",
        "kernels.bias_dropout_residual_bwd_us",
        "kernels.bias_act_dropout_fwd_us", "kernels.bias_act_dropout_bwd_us",
        "kernels.linear_fwd_us", "kernels.linear_bwd_us",
        "kernels.flash_attn_fwd_us", "kernels.flash_attn_bwd_us",
        "kernels.criterion_fwd_us", "kernels.criterion_bwd_us",
        "kernels.embedding_fwd_us", "kernels.embedding_bwd_us",
        "kernels.adam_fused_us"),
    *_m("wall", "lower", "ratio", "kernels.flash_attn_step_share",
        "kernels.bias_act_dropout_step_share", "kernels.linear_step_share"),
    *_m("exact", "lower", "count",
        *(f"kernels.launches.{f}" for f in FAMILIES)),
    *_m("exact", "lower", "us", *(f"kernels.sim_us.{f}" for f in FAMILIES)),
    # backend.arena
    *_m("exact", "lower", "MiB", "arena.capacity_mib"),
    *_m("exact", "lower", "count", "arena.reservations",
        "arena.misses_per_step", "arena.fresh_allocs_per_step"),
    *_m("exact", "higher", "count", "arena.hits_per_step"),
    *_m("wall", "lower", "us", "arena.request_us"),
    # backend.program + training.capture
    *_m("wall", "lower", "ms", "replay.fb_ms_p50", "replay.capture_ms"),
    *_m("wall", "lower", "us", "replay.us_per_launch"),
    *_m("wall", "lower", "ratio", "replay.per_eager_ratio"),
    *_m("exact", "lower", "count", "replay.program_len", "replay.captures",
        "replay.invalidations", "replay.eager_fallbacks"),
    *_m("exact", "higher", "count", "replay.replays"),
    *_m("exact", "higher", "ratio", "replay.hit_share"),
    # training.trainer + backend.workspace
    *_m("wall", "lower", "ms", "trainer.zero_grad_ms_p50",
        "trainer.update_ms_p50"),
    *_m("exact", "lower", "count", "trainer.update_launches"),
    *_m("exact", "lower", "MiB", "trainer.workspace_mib"),
    # precision
    *_m("exact", "lower", "count", "precision.skipped_steps"),
    *_m("exact", "higher", "count", "precision.final_loss_scale"),
    # training.data_parallel + sim.comm
    *_m("wall", "lower", "ms", "comm.sync_ms_p50", "comm.ring_allreduce_ms",
        "comm.ring_reduce_scatter_ms", "comm.ring_allgather_ms"),
    *_m("exact", "lower", "count", "comm.collectives_per_step",
        "comm.buckets"),
    *_m("exact", "lower", "bytes", "comm.bytes_per_step"),
    *_m("exact", "lower", "ms", "comm.sim_exposed_ms"),
    *_m("exact", "higher", "ms", "comm.sim_hidden_ms"),
    *_m("exact", "higher", "count", "dp.params_in_sync"),
    # resilience.checkpoint
    *_m("wall", "lower", "ms", "ckpt.save_ms_p50", "ckpt.validate_ms",
        "ckpt.resume_ms"),
    *_m("wall", "lower", "bytes", "ckpt.bytes_per_save"),
    *_m("exact", "lower", "count", "ckpt.saves"),
    *_m("wall", "lower", "ratio", "ckpt.stall_share"),
    # obs
    *_m("wall", "lower", "us", "obs.metrics_observe_us", "obs.span_noop_us"),
    *_m("wall", "lower", "ms", "obs.planes_off_step_ms",
        "obs.planes_on_step_ms"),
    *_m("wall", "lower", "ratio", "obs.planes_overhead_share"),
    # sim (Fig.-4 rung on the sim clock)
    *_m("exact", "lower", "ms", "sim.forward_ms_v100", "sim.backward_ms_v100",
        "sim.sync_ms_v100", "sim.update_ms_v100"),
    *_m("exact", "lower", "ratio", "sim.unattributed_share"),
    *_m("wall", "lower", "us", "sim.trace_cost_us_per_launch"),
    # host / benchmark self-checks
    *_m("info", "lower", "ms", "host.calib_gemm_ms",
        "host.calib_elementwise_ms"),
    *_m("info", "higher", "ratio", "host.cpu_share"),
    *_m("info", "lower", "count", "host.load1"),
    *_m("wall", "lower", "ratio", "trace.overhead_share",
        "trace.residual_share"),
    *_m("exact", "lower", "nats/tok", "loss.final_per_token"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

#: what ``--trace 0`` prints for the driver (BENCHMARK.json ``end_to_end``).
CONTRACT_END_TO_END = [m for m in END_TO_END if m.kind == "wall"]
#: what ``--trace 1`` prints (BENCHMARK.json ``per_layer``).
CONTRACT_PER_LAYER = [m for m in END_TO_END if m.kind != "wall"] + PER_LAYER
