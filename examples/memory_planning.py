#!/usr/bin/env python
"""Memory management demo — §3.3 and Figs. 8/16 in miniature.

1. Plans the Fig.-8 self-attention-backward temporaries with the
   lifetime-sharing offset planner and compares against the unshared
   layout (the 9BLH + BL²N -> 3BLH + max(3BLH, BL²N) saving).
2. Replays a variable-length batch stream through the PyTorch-style
   caching allocator (the Fig.-16 model in ``repro.sim.utilization``) vs
   LightSeq2's scan-and-reserve discipline, whose reservation is the
   block-rounded maximum step, and prints the Fig.-16 growth curves.

Run:  python examples/memory_planning.py
"""

import numpy as np

from repro.backend.allocator import (attention_backward_specs, plan_offsets,
                                     round_block, validate_plan)
from repro.config import get_config
from repro.data import SyntheticTranslationCorpus, batch_by_tokens
from repro.models import activation_bytes
from repro.sim.utilization import CachingAllocator


def fig8_demo() -> None:
    b, l, h, n = 32, 256, 1024, 16        # Transformer-big shapes
    specs = attention_backward_specs(b, l, h, n, itemsize=2)
    offsets, total = plan_offsets(specs)
    validate_plan(specs, offsets)
    unshared = sum(s.nbytes for s in specs)
    print("Fig. 8 — self-attention backward temporaries "
          f"(B={b}, L={l}, H={h}, N={n}):")
    for s in sorted(specs, key=lambda s: offsets[s.name]):
        print(f"  {s.name:<16} {s.nbytes / 1e6:8.1f} MB @ offset "
              f"{offsets[s.name] / 1e6:8.1f} MB, live [{s.start},{s.end})")
    print(f"  unshared layout: {unshared / 1e6:9.1f} MB")
    print(f"  shared plan:     {total / 1e6:9.1f} MB "
          f"({(1 - total / unshared):.0%} saved)\n")


def fig16_demo() -> None:
    cfg = get_config("transformer-base", max_batch_tokens=2048,
                     max_seq_len=256, fp16=True, hidden_dim=256, nhead=8,
                     ffn_dim=1024, vocab_size=4000)
    corpus = SyntheticTranslationCorpus(cfg.vocab_size, max_len=256, seed=3)
    batches = batch_by_tokens(corpus.sample(3000), 2048, shuffle_seed=5)

    caching = CachingAllocator()
    static = round_block(max(activation_bytes(cfg, b.batch_size, b.max_len)
                             for b in batches))   # the §3.3 corpus scan

    print("Fig. 16 — reserved temporary memory over a training run:")
    print(f"  {'step':>6} {'caching (PyTorch)':>20} {'static (LS2)':>14}")
    growth_events = 0
    for i, batch in enumerate(batches):
        need = activation_bytes(cfg, batch.batch_size, batch.max_len)
        before = caching.reserved_bytes
        blk = caching.alloc(need)
        caching.free(blk)
        if caching.reserved_bytes > before:
            growth_events += 1
        if i % max(1, len(batches) // 8) == 0 or i == len(batches) - 1:
            print(f"  {i:>6} {caching.reserved_bytes / 1e6:>17.1f} MB"
                  f" {static / 1e6:>11.1f} MB")
    print(f"\n  caching allocator grew {growth_events} times mid-run "
          f"(each one a cudaMalloc stall); the static slab never moved.")


if __name__ == "__main__":
    fig8_demo()
    fig16_demo()
