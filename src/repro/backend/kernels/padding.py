"""Padding waste of token-budget batches.

Token-budget batches pad every sentence to the batch maximum, so position-
wise work (FFN GEMMs, criterion, embedding) burns FLOPs on pad tokens the
loss ignores.  :func:`padding_stats` measures how much — the quantity the
ablation bench reports.  Removing the padding is the paper's named future
work (effective_transformer); no kernel here does it.
"""

from __future__ import annotations

import numpy as np


def padding_stats(lengths: np.ndarray, seq_len: int) -> dict:
    """Fraction of a padded batch's positions (hence position-wise FLOPs)
    spent on padding."""
    b = int(lengths.size)
    valid = int(lengths.sum())
    total = b * seq_len
    return {
        "batch_size": b,
        "seq_len": seq_len,
        "valid_tokens": valid,
        "padded_tokens": total - valid,
        "waste_fraction": (total - valid) / total if total else 0.0,
    }
