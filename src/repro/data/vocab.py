"""Integer vocabulary conventions (fairseq layout).

All synthetic corpora share fairseq's special-symbol layout so padding /
BOS / EOS handling in models matches the real toolkit the paper baselines
against: ``<s>``=0 (BOS), ``<pad>``=1, ``</s>``=2 (EOS), ``<unk>``=3,
content tokens from 4.
"""

from __future__ import annotations

from dataclasses import dataclass

BOS = 0
PAD = 1
EOS = 2
UNK = 3
FIRST_CONTENT_ID = 4


@dataclass(frozen=True)
class Vocab:
    """A sized vocabulary with the fairseq special symbols."""

    size: int

    def __post_init__(self):
        if self.size <= FIRST_CONTENT_ID:
            raise ValueError(
                f"vocab must exceed {FIRST_CONTENT_ID} (special symbols), "
                f"got {self.size}")

    @property
    def pad(self) -> int:
        return PAD

    @property
    def num_content(self) -> int:
        return self.size - FIRST_CONTENT_ID
