#!/usr/bin/env python
"""Machine translation training — the paper's flagship workload (WMT-style).

Trains a small encoder–decoder Transformer on a synthetic parallel corpus
with the full LightSeq2 stack: fused layers, fused criterion, the
workspace trainer with FP16 storage, token-budget batching with a corpus
scan, and an inverse-sqrt schedule.  Prints the per-stage time breakdown
(Fig. 4) at the end.

Run:  python examples/train_translation.py [--epochs 3]
"""

import argparse
import time

import numpy as np

from repro.backend.device import Device, use_device
from repro.config import get_config
from repro.data import (SyntheticTranslationCorpus, batch_by_tokens,
                        max_batch_footprint)
from repro.models import TransformerModel, activation_bytes
from repro.precision import DynamicLossScaler
from repro.sim import V100
from repro.sim.timeline import StepInputs
from repro.training import InverseSqrtSchedule, OptimizerSpec, make_trainer, train_epoch


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--max-tokens", type=int, default=1024,
                    help="token budget per batch (fairseq --max-tokens)")
    args = ap.parse_args()

    cfg = get_config(
        "transformer-base", max_batch_tokens=args.max_tokens,
        max_seq_len=64, fp16=True,
        # scaled down so the example runs in seconds on a laptop
        hidden_dim=128, nhead=8, ffn_dim=512, vocab_size=2000,
        num_encoder_layers=2, num_decoder_layers=2)

    # -- data: synthetic WMT-shaped corpus, token-budget batches ----------
    corpus = SyntheticTranslationCorpus(cfg.vocab_size, max_len=60, seed=1)
    pairs = corpus.sample(400)
    batches = batch_by_tokens(pairs, args.max_tokens, shuffle_seed=7)
    bsz, ml = max_batch_footprint(batches)
    print(f"{len(batches)} batches; worst-case shape {bsz}x{ml} -> "
          f"scanned activation bound "
          f"{activation_bytes(cfg, bsz, ml) / 1e6:.1f} MB "
          f"(LightSeq2 reserves this once, §3.3)")

    # -- model + fused workspace trainer ----------------------------------
    model = TransformerModel(cfg, seed=0)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=5e-4),
                           scaler=DynamicLossScaler())
    sched = InverseSqrtSchedule(peak_lr=5e-4, warmup_steps=40)
    print(f"model: {model.num_parameters():,} params, FP16 workspace of "
          f"{trainer.workspace.nbytes() / 1e6:.1f} MB")

    dev = Device(lib="lightseq2")
    data = [b.as_tuple() for b in batches]
    with use_device(dev):
        for epoch in range(args.epochs):
            t0 = time.perf_counter()
            stats = train_epoch(model, trainer, data, lr_fn=sched.lr)
            print(f"epoch {epoch}: loss/token "
                  f"{stats.mean_loss_per_token:.3f} "
                  f"({stats.tokens} tokens, {stats.skipped} skipped, "
                  f"{time.perf_counter() - t0:.1f}s wall)")

    # -- Fig.-4-style stage breakdown of the recorded kernel trace --------
    tl = StepInputs(tuple(dev.launches), V100).timeline()
    steps = max(trainer.step_count, 1)
    print("\nsimulated V100 per-step stage breakdown (ms):")
    for stage, s in (("forward", tl.forward_s), ("backward", tl.backward_s),
                     ("sync", tl.sync_exposed_s), ("update", tl.update_s),
                     ("total", tl.total_s)):
        print(f"  {stage:<10}{s / steps * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
