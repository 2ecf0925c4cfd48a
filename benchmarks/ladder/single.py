"""One workload, one pass, in this process: the unit every run is made of.

``run_untraced`` is the wall-clock pass: set the workload up a few times
(``setup_s`` = median), then drive whole blocks of steps for about
``--seconds`` with no ``Device`` and no recorder installed, closed loop, one
client.  ``run_traced`` is the per-layer pass: a fixed number of steps twice
from the same seed — once through the public one-call step, once re-issued
through the public sub-calls under the benchmark's own spans with a
``Device`` recording — then the layer micro-timings.  Exact metrics (counts,
simulated time) come only from the fixed-count traced pass.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.arena import ActivationArena
from repro.backend.device import STAGES, Device, use_device
from repro.backend.profiler import (alloc_counters, by_family, by_kernel,
                                    replay_counters)
from repro.models import BertModel, GPTModel
from repro.sim.costmodel import trace_cost, trace_hbm_bytes
from repro.sim.gpu_specs import GPUS
from repro.sim.timeline import two_stream_step_timeline
from repro.training import (CaptureReplayEngine, OptimizerSpec, make_trainer,
                            train_step)

from . import probes
from .metrics import FAMILIES, percentile
from .spans import NO_LOG, STEP, SpanLog
from .workloads import (WORK_DIR, WORKLOADS, BertTinyReplay,
                        GPTDdp2Zero1Ckpt, GPTLongTiled, MTFp16Eager,
                        Workload, traced_step_count)

#: set-ups per untraced run (the first feeds the timed window; the rest run
#: after it); ``setup_s`` is their median.
SETUP_REPS = 5
#: a repetition whose process got less than this share of a core while it
#: was timing is marked ``disturbed``.
MIN_CPU_SHARE = 0.9

#: the batched score / context matmuls — attention, not ``linear_*``.
ATTENTION_GEMMS = ("gemm_qk", "gemm_pv")

Metrics = Dict[str, Optional[float]]


@dataclass
class Window:
    """What one driven window of steps observed."""

    step_s: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)       # summed loss
    per_token: List[float] = field(default_factory=list)
    blocks: List[Tuple[int, float]] = field(default_factory=list)
    launch_marks: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    busy_s: float = 0.0         # data + step + between-step work, summed
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def cpu_share(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


def one_step(wl: Workload, win: Window, log: Optional[SpanLog] = None,
             dev: Optional[Device] = None) -> int:
    """Next batch, one optimisation step, the between-step work; returns
    the tokens processed.  Closed loop, one client: the caller starts step
    n+1 when this returns."""
    step_id = win.attempted
    win.attempted += 1
    t0 = time.perf_counter()
    with (log or NO_LOG).span("data.next_batch", step_id):
        batch = wl.next_batch()
    t1 = time.perf_counter()
    try:
        res = (wl.step(batch) if log is None
               else wl.traced_step(batch, log, dev, step_id))
    except Exception:                         # a failed step is a result
        win.failed += 1
        if win.failed == 1:
            traceback.print_exc(file=sys.stderr)
        return 0
    wall = time.perf_counter() - t1
    wl.after_step(res, wall, log)
    win.busy_s += time.perf_counter() - t0
    win.step_s.append(wall)
    win.losses.append(res.loss)
    win.per_token.append(res.loss_per_token)
    win.skipped += not res.applied
    # a non-finite loss is legitimate only as a reported scaler skip
    win.failed += res.applied and not math.isfinite(res.loss)
    if dev is not None:
        win.launch_marks.append(len(dev.launches))
    return res.num_tokens


def drive(wl: Workload, seconds: float) -> Window:
    """Whole blocks of ``wl.block_steps`` steps until the wall time is as
    close to ``seconds`` as a whole block allows."""
    win = Window()
    start, cpu0 = time.perf_counter(), time.process_time()
    while True:
        b0 = time.perf_counter()
        tokens = sum(one_step(wl, win) for _ in range(wl.block_steps))
        win.blocks.append((tokens, time.perf_counter() - b0))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * win.blocks[-1][1] >= seconds:
            break
    win.wall_s = time.perf_counter() - start
    win.cpu_s = time.process_time() - cpu0
    return win


def loss_trend_failure(per_token: List[float]) -> List[str]:
    """Training must train: mean loss of the last 10 steps < the first 10
    (windows too short to tell are not judged)."""
    if len(per_token) < 20:
        return []
    first = statistics.fmean(per_token[:10])
    last = statistics.fmean(per_token[-10:])
    if last < first:
        return []
    return [f"loss did not fall: last-10 mean {last:.4f} >= first-10 mean "
            f"{first:.4f}"]


class Checks:
    """Output checks run so far and the failure messages they produced."""

    def __init__(self) -> None:
        self.run = 0
        self.failures: List[str] = []

    def add(self, failures: List[str]) -> None:
        self.run += 1
        self.failures += failures


@dataclass
class PassResult:
    """One pass's metrics plus everything the orchestrator aggregates."""

    metrics: Metrics
    attempted: int              # steps and output checks
    failed: int
    failures: List[str]
    detail: Dict[str, object]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_untraced(name: str, seed: int, seconds: float,
                 quick: bool = False) -> PassResult:
    cls = WORKLOADS[name]

    def timed_setup() -> Tuple[Workload, float]:
        gc.collect()
        t0 = time.perf_counter()
        wl = cls(seed, quick)
        return wl, time.perf_counter() - t0

    checks = Checks()
    wl, first = timed_setup()
    setup_s = [first]
    try:
        win = drive(wl, seconds)
        checks.add(loss_trend_failure(win.per_token))
        checks.add(wl.check())
    finally:
        wl.close()
    # memory is read here, before the repeated set-ups below churn the heap:
    # it is the high-water mark of one set-up plus the timed window
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del wl
    for _ in range(0 if quick else SETUP_REPS - 1):
        again, dt = timed_setup()
        again.close()
        del again
        setup_s.append(dt)
    step_ms = [1e3 * s for s in win.step_s]
    rates = [tok / wall for tok, wall in win.blocks]
    metrics: Metrics = {
        "setup_s": statistics.median(setup_s),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": percentile(step_ms, 90),
        "tokens_per_s_wall": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib,
    }
    return PassResult(
        metrics, win.attempted + checks.run,
        win.failed + len(checks.failures), checks.failures,
        {"step_ms": step_ms, "setup_s": setup_s,
         "block_tokens_per_s": rates, "cpu_share": win.cpu_share,
         "disturbed": win.cpu_share < MIN_CPU_SHARE,
         "skipped_steps": win.skipped})


# ---------------------------------------------------------------------------
# the traced pass
# ---------------------------------------------------------------------------

def _sim_metrics(wl: Workload, dev: Device, win: Window) -> Metrics:
    """Both simulated clocks, the Fig.-4 stage split and the per-family
    counts, priced from the traced window's launches."""
    steps = len(win.launch_marks)
    trace = dev.launches
    out: Metrics = {}
    t0 = time.perf_counter()
    costs = {gpu: trace_cost(trace, GPUS[gpu]) for gpu in ("V100", "A100")}
    out["sim.trace_cost_us_per_launch"] = (
        1e6 * (time.perf_counter() - t0) / (2 * max(len(trace), 1)))

    def stage_ms(gpu: str) -> Dict[str, float]:
        if not isinstance(wl, GPTDdp2Zero1Ckpt):
            return {s: 1e3 * costs[gpu].by_stage[s] / steps for s in STAGES}
        # exposed communication depends on each step's own backward time,
        # so the two-stream timeline is priced step by step
        dp, lo, total = wl.dp, 0, [0.0] * len(STAGES)
        for hi in win.launch_marks:
            tl = two_stream_step_timeline(
                trace[lo:hi], GPUS[gpu], buckets=dp.buckets, itemsize=4,
                world_size=dp.world_size, overlap=dp.overlap_grad_sync)
            for i, v in enumerate((tl.forward_s, tl.backward_s,
                                   tl.sync_exposed_s, tl.update_s)):
                total[i] += v
            lo = hi
        return {s: 1e3 * t / steps for s, t in zip(STAGES, total)}

    v100 = stage_ms("V100")
    for stage, ms in v100.items():
        out[f"sim.{stage}_ms_v100"] = ms
    # defined as the sum of the four stages, so the rungs add up exactly
    out["sim_step_ms_v100"] = sum(v100.values())
    out["sim_step_ms_a100"] = sum(stage_ms("A100").values())
    out["sim.unattributed_share"] = costs["V100"].unattributed_fraction
    out["launches_per_step"] = len(trace) / steps
    out["hbm_mb_per_step"] = trace_hbm_bytes(trace) / steps / 1e6
    fams = by_family(trace)
    for fam in FAMILIES:
        out[f"kernels.launches.{fam}"] = (
            fams[fam].launches / steps if fam in fams else 0.0)
        out[f"kernels.sim_us.{fam}"] = (
            1e6 * costs["V100"].by_family.get(fam, 0.0) / steps)
    out["trainer.update_launches"] = (
        sum(1 for k in trace if k.stage == "update") / steps)
    if isinstance(wl, GPTDdp2Zero1Ckpt):
        coll = [k for k in trace if k.stage == "sync"]
        out["comm.collectives_per_step"] = len(coll) / steps
        out["comm.bytes_per_step"] = sum(k.bytes_moved for k in coll) / steps
        sched = wl.dp.sync_timeline(GPUS["V100"], 1e-3 * v100["backward"])
        out["comm.sim_exposed_ms"] = 1e3 * sched.exposed_s
        out["comm.sim_hidden_ms"] = 1e3 * sched.hidden_s
    return out


def _kernel_metrics(wl: Workload, dev: Device, steps: int, step_ms: float,
                    budget: float) -> Metrics:
    """Host us/call at the modal shape, and the estimated step shares:
    us/call x launches of that kernel per step / untraced step p50."""
    launches = {k: s.launches / steps
                for k, s in by_kernel(dev.launches).items()}
    out = probes.kernels(wl.cfg, wl.modal_shape, set(launches),
                         len(wl.trainers()[0].m), budget)

    def share(*pairs: Tuple[str, float]) -> float:
        us = sum(out[m] * per_step for m, per_step in pairs)
        return us / (1e3 * step_ms)

    # every projection GEMM priced as the FFN-in linear at the modal shape;
    # one linear_backward call is two GEMM launches (dx and dw)
    gemms = {stage: sum(1 for k in dev.launches
                        if k.is_gemm and k.stage == stage
                        and not k.name.startswith(ATTENTION_GEMMS)) / steps
             for stage in ("forward", "backward")}
    out["kernels.linear_step_share"] = share(
        ("kernels.linear_fwd_us", gemms["forward"]),
        ("kernels.linear_bwd_us", gemms["backward"] / 2))
    out["kernels.bias_act_dropout_step_share"] = share(
        ("kernels.bias_act_dropout_fwd_us",
         launches.get("ls_bias_act_dropout_fwd", 0)),
        ("kernels.bias_act_dropout_bwd_us",
         launches.get("ls_bias_act_dropout_bwd", 0)))
    if "ls_flash_attn_fwd" in launches:
        out["kernels.flash_attn_step_share"] = share(
            ("kernels.flash_attn_fwd_us", launches["ls_flash_attn_fwd"]),
            ("kernels.flash_attn_bwd_us", launches["ls_flash_attn_bwd"]))
    return out


def _replay_vs_eager(wl: BertTinyReplay, timed_steps: int
                     ) -> Tuple[float, List[str]]:
    """Fresh replay engine and eager twin from the workload's seed: lockstep
    bit-parity (loss and every gradient) over the first 12 steps — scans,
    captures and replays of all three shapes — then chunks timed alternately.
    Returns (replay step p50 / eager step p50, parity failures)."""
    def build():
        model = BertModel(wl.cfg, seed=wl.seed)
        trainer = make_trainer("lightseq", model, OptimizerSpec())
        return model, trainer, ActivationArena()

    e_model, e_trainer, e_arena = build()
    e_model.set_arena(e_arena)
    r_model, r_trainer, r_arena = build()
    engine = CaptureReplayEngine(r_model, r_trainer, r_arena)
    batches = itertools.cycle(wl.pool)
    failures: List[str] = []
    for i in range(12):
        batch = next(batches)
        res_e = train_step(e_model, e_trainer, batch, arena=e_arena)
        res_r = engine.step(batch)
        same = res_e.loss == res_r.loss and all(
            np.array_equal(pe.grad, pr.grad) for pe, pr in
            zip(e_model.parameters(), r_model.parameters()))
        if not same:
            failures.append(f"replay != eager twin at lockstep step {i}")
            break

    def eager(batch):
        train_step(e_model, e_trainer, batch, arena=e_arena)

    replay = engine.step
    seconds = {eager: [], replay: []}
    for rnd in range(8):                       # alternate which path leads
        for path in ((eager, replay), (replay, eager))[rnd % 2]:
            for _ in range(max(3, timed_steps // 16)):
                batch = next(batches)
                t0 = time.perf_counter()
                path(batch)
                seconds[path].append(time.perf_counter() - t0)
    return (statistics.median(seconds[replay])
            / statistics.median(seconds[eager])), failures


def _replay_extras(wl: BertTinyReplay, log: SpanLog, win: Window,
                   checks: Checks, budget: float) -> Metrics:
    steps = len(win.step_s)
    fb_ms = 1e3 * statistics.median(log.durations("engine.forward_backward"))
    prog_len = max(len(p) for p in wl.engine.programs.values())
    window = replay_counters().since(wl.timed_base)
    total = replay_counters().since(wl.setup_base)
    out: Metrics = {
        "replay.fb_ms_p50": fb_ms,
        "replay.program_len": prog_len,
        "replay.us_per_launch": 1e3 * fb_ms / prog_len,
        "replay.captures": total.captures,
        "replay.replays": window.replays,
        "replay.invalidations": window.invalidations,
        "replay.eager_fallbacks": window.eager_fallbacks,
        "replay.hit_share": window.replays / steps,
        "replay.capture_ms": 1e3 * statistics.median(wl.capture_seconds),
    }
    out["replay.per_eager_ratio"], parity = _replay_vs_eager(
        wl, 48 if wl.quick else 480)
    checks.add(parity)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    jsonl = WORK_DIR / f"planes-{os.getpid()}.jsonl"
    try:
        out.update(probes.obs_planes(wl.cfg, wl.pool, wl.seed,
                                     10 if wl.quick else 200, str(jsonl)))
    finally:
        jsonl.unlink(missing_ok=True)
    return out


def _tiled_extras(wl: GPTLongTiled, log: SpanLog, win: Window,
                  checks: Checks, budget: float) -> Metrics:
    """Step-1 loss of the tiled model against a fused-attention twin, both
    at dropout 0: tiling must not change the function computed."""
    batch = wl.next_batch()
    losses = []
    for impl in ("tiled", "fused"):
        cfg = GPTLongTiled.config(attn_impl=impl, dropout=0.0,
                                  attn_dropout=0.0)
        loss, ntok = GPTModel(cfg, seed=wl.seed).forward(*batch)
        losses.append(loss / ntok)
    rel = abs(losses[0] - losses[1]) / abs(losses[1])
    checks.add([] if rel <= 1e-4 else [
        f"tiled loss {losses[0]:.6f} vs fused twin {losses[1]:.6f} "
        f"(rel {rel:.2e} > 1e-4)"])
    return {}


def _ddp_extras(wl: GPTDdp2Zero1Ckpt, log: SpanLog, win: Window,
                checks: Checks, budget: float) -> Metrics:
    saves = wl.save_seconds
    out: Metrics = {
        "ckpt.saves": len(saves),
        "ckpt.bytes_per_save": wl.checkpoint_bytes(),
        "ckpt.validate_ms": 1e3 * wl.validate_s,
        "ckpt.resume_ms": 1e3 * wl.resume_s,
        "dp.params_in_sync": int(wl.in_sync),
    }
    if saves:
        out["ckpt.save_ms_p50"] = 1e3 * statistics.median(saves)
        out["ckpt.stall_share"] = sum(saves) / win.busy_s
    out.update(probes.data_parallel(
        wl.make_dp(), [wl.next_batch() for _ in range(1 if wl.quick else 4)],
        budget))
    out.update(probes.metrics_observe(str(wl.dir / "probe.jsonl"), budget))
    return out


#: metrics (and checks) of the layers only one workload runs.
EXTRAS = {BertTinyReplay: _replay_extras, GPTLongTiled: _tiled_extras,
          GPTDdp2Zero1Ckpt: _ddp_extras}


def run_traced(name: str, seed: int, seconds: float, quick: bool = False,
               trace_path: Optional[str] = None) -> PassResult:
    cls = WORKLOADS[name]
    budget = 0.003 if quick else 0.03          # seconds per micro-timing
    n = traced_step_count(cls, seconds)
    metrics: Metrics = dict(probes.host(budget))
    checks = Checks()

    # Two instances from one seed: the twin goes through the public one-call
    # step with nothing installed, the traced one through the re-issued body
    # under spans with a Device recording.  They are stepped alternately, so
    # warm-up drift and neighbour noise land on both sides of the
    # tracing-overhead ratio — unless the workload cannot share a process
    # with its twin, in which case the twin runs to completion first.
    untraced, win = Window(), Window()
    dev, log = Device(), SpanLog()
    twin = cls(seed, quick)
    wl = None
    try:
        if cls.exclusive:
            for _ in range(n):
                one_step(twin, untraced)
            twin.close()
        wl = cls(seed, quick)
        hits = misses = new_allocs = 0      # the traced lane's share only
        cpu0, t_start = time.process_time(), time.perf_counter()
        for _ in range(n):
            if not cls.exclusive:
                one_step(twin, untraced)
            before = alloc_counters().snapshot()
            with use_device(dev):
                one_step(wl, win, log, dev)
            delta = alloc_counters().since(before)
            hits += delta.arena_hits
            misses += delta.arena_misses
            new_allocs += delta.new_allocs
        win.wall_s = time.perf_counter() - t_start
        win.cpu_s = time.process_time() - cpu0
        steps = len(win.step_s)

        checks.add([] if untraced.losses == win.losses else [
            "per-step losses differ between the untraced and the traced "
            "pass"])
        checks.add(loss_trend_failure(win.per_token))
        checks.add(wl.check())

        # -- the step on both simulated clocks, from the recorded launches
        metrics.update(_sim_metrics(wl, dev, win))

        # -- spans: where the traced step's time went
        step_total = sum(log.durations(STEP))
        self_share = {span_name: s / step_total for span_name, s
                      in log.self_seconds(under=STEP).items()}
        checks.add([] if abs(sum(self_share.values()) - 1.0) <= 1e-6 else [
            "span self times do not sum to the step time"])
        untraced_p50 = statistics.median(untraced.step_s)
        metrics.update({
            "trace.residual_share": self_share[STEP],
            "trace.overhead_share":
                statistics.median(win.step_s) / untraced_p50 - 1.0,
            "host.cpu_share": win.cpu_share,
            "loss.final_per_token": statistics.fmean(win.per_token[-10:]),
        })
        for metric, span_name in (
                ("models.forward_ms_p50", "model.forward"),
                ("models.backward_ms_p50", "model.backward"),
                ("trainer.zero_grad_ms_p50", "trainer.zero_grad"),
                ("trainer.update_ms_p50", "trainer.step")):
            durations = log.durations(span_name)
            if durations:
                metrics[metric] = 1e3 * statistics.median(durations)

        # -- data
        for key, readings in wl.data_log.items():
            if readings:
                metrics[f"data.{key}_ms"] = 1e3 * statistics.median(readings)
        metrics["data.pad_share"] = wl.pad_share()
        metrics["data.distinct_shapes"] = wl.distinct_shapes()

        # -- arena (absent under DataParallel, whose step takes none)
        capacity = max((a.capacity for a in wl.arenas), default=0)
        metrics["arena_peak_mib"] = capacity / 2 ** 20
        if wl.arenas:
            metrics.update({
                "arena.capacity_mib": capacity / 2 ** 20,
                "arena.reservations": max(a.reservations for a in wl.arenas),
                "arena.hits_per_step": hits / steps,
                "arena.misses_per_step": misses / steps,
                "arena.fresh_allocs_per_step": new_allocs / steps,
            })
        metrics.update(probes.arena_request(budget))

        # -- trainer / precision
        trainers = wl.trainers()
        metrics["trainer.workspace_mib"] = sum(
            t.workspace.params.nbytes + t.workspace.grads.nbytes
            + t.m.nbytes + t.v.nbytes for t in trainers) / 2 ** 20
        metrics["precision.skipped_steps"] = win.skipped
        if trainers[0].scaler is not None:
            metrics["precision.final_loss_scale"] = trainers[0].scaler.scale

        # -- kernels and layers at the modal shape; what a no-op span costs
        metrics.update(_kernel_metrics(wl, dev, steps, 1e3 * untraced_p50,
                                       budget))
        metrics.update(probes.layers(
            wl.cfg, wl.modal_shape, decoder=isinstance(wl, MTFp16Eager),
            cls_head=isinstance(wl, BertTinyReplay), budget_s=budget))
        metrics.update(probes.span_noop(budget))

        if cls in EXTRAS:
            metrics.update(EXTRAS[cls](wl, log, win, checks, budget))
        if trace_path is not None:
            log.write(trace_path)
    finally:
        twin.close()
        if wl is not None:
            wl.close()

    attempted = untraced.attempted + win.attempted + checks.run
    failed = untraced.failed + win.failed + len(checks.failures)
    metrics["failed_step_share"] = failed / attempted
    return PassResult(metrics, attempted, failed, checks.failures,
                      {"traced_steps": n, "cpu_share": win.cpu_share,
                       "disturbed": win.cpu_share < MIN_CPU_SHARE,
                       "step_self_share": self_share})
