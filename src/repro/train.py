"""Training CLI: ``python -m repro.train``.

A fairseq-style command-line entry point over the whole library: pick a
task (mt / bert / gpt / vit), a model preset, a trainer, precision and
batch budget; it builds the synthetic workload, trains, reports wall-clock
and simulated-GPU throughput per log interval, and optionally checkpoints
and resumes.

Examples::

    python -m repro.train --task mt --steps 40 --max-tokens 1024 --fp16
    python -m repro.train --task gpt --trainer naive --steps 20
    python -m repro.train --task mt --save-dir /tmp/ckpt --steps 10
    python -m repro.train --task mt --save-dir /tmp/ckpt --resume --steps 20
"""

from __future__ import annotations

import argparse
import time
from contextlib import ExitStack
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .backend.arena import ActivationArena, use_memory_tracer
from .backend.device import Device, KernelLaunch, use_device
from .backend.profiler import replay_counters
from .config import LSConfig, get_config
from .obs import (MetricsRecorder, NumericsCollector, SpanRecorder,
                  perfetto_trace, use_collector, use_recorder, write_trace)
from .data import (SyntheticLMCorpus, SyntheticTranslationCorpus,
                   batch_by_tokens, synthetic_images,
                   synthetic_sentence_pairs)
from .layers.base import Layer
from .models import BertModel, GPTModel, TransformerModel, ViTModel
from .precision import DynamicLossScaler
from .sim import GPUS, trace_cost
from .resilience import (CheckpointMismatch, CheckpointStore,
                         FaultInjector, FaultPlan, PeriodicCheckpointer,
                         TornWrite, use_faults)
from .training import (CaptureReplayEngine, InverseSqrtSchedule,
                       OptimizerSpec, make_trainer, train_step)

#: shrunken-but-faithful model dims so the CLI runs in seconds on a laptop;
#: pass --full for the paper presets.
QUICK_DIMS = dict(hidden_dim=128, nhead=8, ffn_dim=512, vocab_size=2048)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.train",
        description="Train a Transformer-family model on a synthetic "
                    "workload with the LightSeq2 reproduction stack.")
    p.add_argument("--task", choices=("mt", "bert", "gpt", "vit"),
                   default="mt")
    p.add_argument("--model", default=None,
                   help="config preset (default chosen per task)")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--max-tokens", type=int, default=1024,
                   help="token budget per batch (mt/gpt) or batch size "
                        "(bert/vit)")
    p.add_argument("--trainer", choices=("lightseq", "naive", "apex"),
                   default="lightseq")
    p.add_argument("--fp16", action="store_true")
    p.add_argument("--no-fused", action="store_true",
                   help="use the naive per-op kernel path")
    p.add_argument("--attn-impl", choices=("auto", "naive", "fused", "tiled"),
                   default="auto",
                   help="attention score-path kernels: tiled = "
                        "FlashAttention-style blockwise forward/backward "
                        "with O(L) activation memory (auto follows "
                        "--no-fused); stamped into run provenance")
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--log-interval", type=int, default=10)
    p.add_argument("--gpu", choices=sorted(GPUS), default="V100",
                   help="GPU model for the simulated-throughput report")
    p.add_argument("--full", action="store_true",
                   help="use full paper-size presets (slow on CPU)")
    p.add_argument("--save-dir", default=None,
                   help="write a checkpoint here after training")
    p.add_argument("--resume", action="store_true",
                   help="first restore the newest checksum-valid "
                        "checkpoint in --save-dir (falling back past "
                        "corrupt ones) and continue the loop from its "
                        "step")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="write a crash-safe checkpoint (one atomic, "
                        "CRC-checked file with RNG state) to --save-dir "
                        "every N steps; "
                        "0 disables periodic checkpointing")
    p.add_argument("--keep", type=int, default=3, metavar="K",
                   help="retain the newest K periodic checkpoints "
                        "(default 3)")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="arm a deterministic fault-injection plan (JSON); "
                        "an injected replica crash exits with code 4, "
                        "leaving checkpoints for '--resume'")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="override the fault plan's seed (reproduce or "
                        "vary a fault scenario)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace JSON of the run "
                        "(host spans + simulated kernel slices + roofline "
                        "counter tracks)")
    p.add_argument("--memory-out", default=None, metavar="PATH",
                   help="run arena-backed with the memory observatory "
                        "tracing every request, and write the memory "
                        "report (occupancy timeline, peak attribution, "
                        "waste, replayable shape plan for what-if "
                        "projections) as JSON; inspect with "
                        "'python -m repro.obs memory PATH'")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="append per-step metrics (loss, tokens/s, "
                        "loss-scale, alloc counters) as JSONL")
    p.add_argument("--numerics-every", type=int, default=0, metavar="N",
                   help="sample per-layer tensor health (grad norms, FP16 "
                        "saturation, update ratios) every N steps; 0 "
                        "disables the numerics observatory")
    p.add_argument("--halt-on-anomaly", action="store_true",
                   help="stop the run on the first error-severity "
                        "numerics anomaly (exit code 3)")
    p.add_argument("--anomaly-dump", default=None, metavar="PATH",
                   help="with --halt-on-anomaly: write a diagnostic "
                        "snapshot (recent numerics records + anomalies) "
                        "here before halting")
    p.add_argument("--capture-replay", action="store_true",
                   help="capture the forward+backward kernel sequence once "
                        "per batch signature and replay it through the flat "
                        "dispatch loop on subsequent steps (arena-backed)")
    return p


def _config(args) -> LSConfig:
    defaults = {"mt": "transformer-base", "bert": "bert-base",
                "gpt": "gpt2-small", "vit": "vit-b-32"}
    preset = args.model or defaults[args.task]
    extra = {} if args.full else dict(QUICK_DIMS)
    if not args.full:
        if args.task in ("bert", "vit"):
            extra["num_encoder_layers"] = 3
            extra["nhead"] = 8
        if args.task == "gpt":
            extra["num_decoder_layers"] = 3
        if args.task == "mt":
            extra["num_encoder_layers"] = 2
            extra["num_decoder_layers"] = 2
        if args.task == "vit":
            extra.update(image_size=64, patch_size=32)
            extra.pop("vocab_size")
    return get_config(preset, max_batch_tokens=max(args.max_tokens, 256),
                      max_seq_len=256, fp16=args.fp16,
                      fused=not args.no_fused, attn_impl=args.attn_impl,
                      **extra)


def _build_task(args, cfg: LSConfig
                ) -> Tuple[Layer, Callable[[int], Sequence]]:
    """Returns (model, batch_fn(step) -> forward args)."""
    seed = args.seed
    if args.task == "mt":
        model = TransformerModel(cfg, seed=seed)
        corpus = SyntheticTranslationCorpus(cfg.vocab_size, max_len=64,
                                            seed=seed)
        batches = [b.as_tuple() for b in batch_by_tokens(
            corpus.sample(64 * max(1, args.max_tokens // 256)),
            args.max_tokens)]
        return model, lambda step: batches[step % len(batches)]
    if args.task == "gpt":
        model = GPTModel(cfg, seed=seed)
        corpus = SyntheticLMCorpus(cfg.vocab_size, block_len=64, seed=seed)
        bsz = max(1, args.max_tokens // 64)
        return model, lambda step: corpus.sample_batch(bsz)
    if args.task == "bert":
        model = BertModel(cfg, seed=seed)
        toks, labels = synthetic_sentence_pairs(
            512, vocab_size=cfg.vocab_size, max_len=64,
            pad_idx=cfg.padding_idx, seed=seed)
        bsz = min(args.max_tokens, 64)

        def batch_fn(step):
            lo = (step * bsz) % (512 - bsz)
            return toks[lo:lo + bsz], labels[lo:lo + bsz]

        return model, batch_fn
    if args.task == "vit":
        model = ViTModel(cfg, seed=seed)
        imgs, labels = synthetic_images(256, image_size=cfg.image_size,
                                        num_classes=cfg.num_classes,
                                        seed=seed)
        bsz = min(args.max_tokens, 32)

        def batch_fn(step):
            lo = (step * bsz) % (256 - bsz)
            return imgs[lo:lo + bsz], labels[lo:lo + bsz]

        return model, batch_fn
    raise ValueError(args.task)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    plan = None
    if args.fault_seed is not None and not args.fault_plan:
        print("--fault-seed requires --fault-plan")
        return 2
    if args.fault_plan:
        plan = FaultPlan.from_file(args.fault_plan)
        if args.fault_seed is not None:
            plan = plan.with_seed(args.fault_seed)
        args.fault_plan_digest = plan.digest()   # into vars(args) provenance
    if args.checkpoint_every < 0:
        print("--checkpoint-every must be >= 0")
        return 2
    if args.checkpoint_every and not args.save_dir:
        print("--checkpoint-every requires --save-dir")
        return 2
    if args.keep < 1:
        print("--keep must be >= 1")
        return 2
    if args.resume and not args.save_dir:
        print("--resume requires --save-dir")
        return 2
    for flag in ("log_interval", "warmup", "max_tokens"):
        if getattr(args, flag) < 1:
            print(f"--{flag.replace('_', '-')} must be >= 1")
            return 2
    if args.anomaly_dump and not args.halt_on_anomaly:
        print("--anomaly-dump requires --halt-on-anomaly")
        return 2
    cfg = _config(args)
    model, batch_fn = _build_task(args, cfg)
    scaler = DynamicLossScaler() if args.fp16 else None
    trainer = make_trainer(args.trainer, model, OptimizerSpec(lr=args.lr),
                           scaler=scaler)
    store = (CheckpointStore(args.save_dir, keep=args.keep)
             if args.save_dir else None)
    start_step = 0
    if args.resume:
        try:
            manifest = store.resume_auto(model, trainer)
        except CheckpointMismatch as e:     # another model or trainer's
            print(f"--resume: {e}")
            return 2
        if manifest is None:
            print(f"no valid checkpoint in {args.save_dir}; "
                  f"starting fresh")
        else:
            start_step = manifest["extra"].get("loop_step",
                                               manifest["step"])
            skipped = manifest.get("skipped") or {}
            for bad_step, problems in sorted(skipped.items()):
                print(f"skipped corrupt checkpoint step {bad_step}: "
                      f"{problems[0]}")
            print(f"resumed from {args.save_dir} at step {start_step} "
                  f"(trainer step {trainer.step_count})")
    sched = InverseSqrtSchedule(peak_lr=args.lr, warmup_steps=args.warmup)
    spec = GPUS[args.gpu]
    lib = "pytorch" if args.no_fused else "lightseq2"
    print(f"task={args.task} model={cfg.model} params="
          f"{model.num_parameters():,} trainer={args.trainer} "
          f"fp16={cfg.fp16} fused={cfg.fused}")

    dev = Device(lib=lib)
    recorder = SpanRecorder() if args.trace_out else None
    metrics = (MetricsRecorder(path=args.metrics_out, config=vars(args))
               if args.metrics_out else None)
    collector = None
    if args.numerics_every > 0:
        from .obs.health import AnomalyEngine
        collector = NumericsCollector(
            args.numerics_every, metrics=metrics, engine=AnomalyEngine(),
            halt_on_anomaly=args.halt_on_anomaly,
            dump_path=args.anomaly_dump)
    # one arena either way: the capture engine owns it when replaying (note
    # that replay steps dispatch baked slots without re-requesting, so only
    # capture/eager steps contribute memory-timeline events)
    arena = (ActivationArena()
             if args.capture_replay or args.memory_out else None)
    engine = (CaptureReplayEngine(model, trainer, arena=arena)
              if args.capture_replay else None)
    mem_tracer = None
    if args.memory_out:
        from .obs.memory import MemoryTracer
        mem_tracer = MemoryTracer(
            epoch=recorder.epoch if recorder is not None else None)
    checkpointer = (PeriodicCheckpointer(store, args.checkpoint_every)
                    if args.checkpoint_every else None)
    injector = FaultInjector(plan) if plan is not None else None
    kept_launches: List[KernelLaunch] = []
    window_loss = window_tokens = 0
    window_t0 = time.perf_counter()
    halted = crashed = None
    last_step = start_step
    rc = replay_counters()
    with ExitStack() as ambient:
        ambient.enter_context(use_device(dev))
        for install, plane in ((use_recorder, recorder),
                               (use_collector, collector),
                               (use_memory_tracer, mem_tracer),
                               (use_faults, injector)):
            if plane is not None:
                ambient.enter_context(install(plane))
        for step in range(start_step + 1, args.steps + 1):
            step_t0 = time.perf_counter()
            rc0 = rc.snapshot()
            if injector is not None:
                injector.begin_step(step)
                if injector.fire("replica.crash", rank=0) is not None:
                    crashed = f"replica crash at step {step}"
                    break
            try:
                lr = sched.lr(trainer.step_count + 1)
                res = (engine.step(batch_fn(step - 1), lr=lr)
                       if engine is not None
                       else train_step(model, trainer, batch_fn(step - 1),
                                       lr=lr, arena=arena))
            except Exception as e:
                from .obs.health import AnomalyHalted
                if not isinstance(e, AnomalyHalted):
                    raise
                halted = e.anomaly
                break
            last_step = step
            if checkpointer is not None:
                try:
                    checkpointer.after_step(model, trainer, step=step)
                except TornWrite as e:
                    crashed = (f"torn checkpoint write at step {step} "
                               f"({e.written}/{e.total} bytes)")
                    break
            if metrics is not None:
                metrics.observe_step(
                    step=step, loss=res.loss, num_tokens=res.num_tokens,
                    wall_s=time.perf_counter() - step_t0,
                    applied=res.applied, scaler=scaler, arena=arena,
                    replay=rc if engine is not None else None,
                    replayed=rc.since(rc0).replays > 0,
                    faults=injector)
            window_loss += res.loss
            window_tokens += res.num_tokens
            if step % args.log_interval == 0 or step == args.steps:
                wall = time.perf_counter() - window_t0
                sim = trace_cost(dev.launches, spec).total_s
                if args.trace_out:
                    kept_launches.extend(dev.launches)
                dev.reset()
                print(f"step {step:>5} | loss/tok "
                      f"{window_loss / max(window_tokens, 1):7.3f} | "
                      f"{window_tokens / wall:9.0f} tok/s wall | "
                      f"{window_tokens / max(sim, 1e-12):12.0f} tok/s "
                      f"sim-{args.gpu}"
                      + (f" | skipped {trainer.skipped_steps}"
                         if trainer.skipped_steps else ""))
                window_loss = window_tokens = 0
                window_t0 = time.perf_counter()
    anomalies = collector.engine.anomalies if collector else []
    # step-model metadata: everything repro.obs.profile needs to rebuild
    # StepInputs from the saved trace (GPU, comm sizing, attention
    # geometry for the attn_impl=tiled what-if)
    step_meta = {
        "task": args.task, "trainer": args.trainer, "steps": args.steps,
        "gpu": args.gpu, "lib": lib, "world_size": 1, "itemsize": 4,
        "grad_elems": model.num_parameters(),
        "attn": {"head_dim": cfg.hidden_dim // cfg.nhead,
                 "tile_q": cfg.attn_tile_q, "tile_k": cfg.attn_tile_k,
                 "causal": args.task == "gpt",
                 "attn_impl": cfg.resolved_attn_impl},
    }
    mem_report = None
    if mem_tracer is not None:
        from .obs.memory import (memory_report, model_dims,
                                 write_memory_report)
        # fold the final step's demand into the reservation so the
        # timeline peak is bitwise comparable to the slab high-water mark
        arena.begin_step()
        first = next((a for a in batch_fn(0)
                      if isinstance(a, np.ndarray)), None)
        base = {
            "batch": int(first.shape[0]) if first is not None else 0,
            # ViT batches are (B, C, H, W) images: no sequence axis to
            # scale, so seq_len stays 0 and only batch what-ifs apply
            "seq_len": (int(first.shape[1])
                        if first is not None and args.task != "vit"
                        and first.ndim >= 2 else 0),
            "attn": step_meta["attn"],
            "model_dims": model_dims(cfg),
        }
        mem_report = memory_report(mem_tracer, arena=arena, base=base)
        write_memory_report(args.memory_out, mem_report)
        peak = mem_report.peak_demand_bytes
        print(f"memory report written to {args.memory_out} "
              f"(peak {peak / 2**20:.1f} MiB, slab "
              f"{mem_report.capacity_bytes / 2**20:.1f} MiB, bitwise "
              f"peak==reserved: {mem_report.bitwise_peak_equal})")
    if args.trace_out:
        write_trace(args.trace_out, perfetto_trace(
            spans=recorder.spans, kernels=kept_launches, spec=spec,
            anomalies=anomalies or None,
            metrics=metrics.records if metrics is not None else None,
            memory=mem_tracer,
            metadata=step_meta))
        print(f"trace written to {args.trace_out} "
              f"({len(recorder.spans)} spans, {len(kept_launches)} kernel "
              f"slices)")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out} "
              f"({metrics.steps} steps)")
    if store is not None and crashed is None:
        store.save(model, trainer, step=last_step,
                   extra={"loop_step": last_step})
        print(f"checkpoint written to {args.save_dir}")
    if collector:
        if anomalies:
            print(f"numerics: {len(anomalies)} anomalies "
                  f"({sum(1 for a in anomalies if a.severity == 'error')} "
                  f"errors); first: {anomalies[0]}")
        else:
            print(f"numerics: no anomalies in "
                  f"{len(collector.records)} observed steps")
    if engine is not None:
        print(f"capture-replay: {rc.captures} captures, {rc.replays} "
              f"replays, {rc.invalidations} invalidations, "
              f"{rc.eager_fallbacks} eager fallbacks "
              f"({len(engine.programs)} cached programs)")
    if injector is not None and injector.injections:
        print(f"faults injected: {len(injector.injections)} "
              f"(plan {plan.digest()})")
    if halted is not None:
        print(f"HALTED on anomaly: {halted}"
              + (f" (snapshot: {args.anomaly_dump})"
                 if args.anomaly_dump else ""))
        return 3
    if crashed is not None:
        print(f"CRASHED (injected): {crashed} — resume with "
              f"'--resume'")
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
