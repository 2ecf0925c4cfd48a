"""Synthetic corpora and token-budget batching."""

import numpy as np
import pytest

from repro.data import (EOS, PAD, MTBatch, SyntheticLMCorpus,
                        SyntheticTranslationCorpus, Vocab, batch_by_tokens,
                        make_mt_batch, max_batch_footprint, pad_sequences,
                        scan_corpus_shapes, synthetic_images,
                        synthetic_sentence_pairs)
from repro.data.vocab import EOS, FIRST_CONTENT_ID


class TestVocab:
    def test_specials(self):
        v = Vocab(100)
        assert v.pad == 1 and EOS == 2
        assert FIRST_CONTENT_ID == 4
        assert v.num_content == 96

    def test_too_small(self):
        with pytest.raises(ValueError):
            Vocab(4)


class TestTranslationCorpus:
    def test_pairs_well_formed(self):
        c = SyntheticTranslationCorpus(1000, max_len=64, seed=3)
        for p in c.sample(50):
            assert 2 <= len(p.source) <= 64
            assert 2 <= len(p.target) <= 64
            assert p.source[-1] == EOS and p.target[-1] == EOS
            assert np.all(p.source[:-1] >= FIRST_CONTENT_ID)
            assert np.all(p.source < 1000)

    def test_length_distribution_wmt_like(self):
        c = SyntheticTranslationCorpus(1000, max_len=256, seed=0)
        lens = [len(p.source) for p in c.sample(2000)]
        med = np.median(lens)
        assert 15 < med < 35            # WMT median ~ 22-25 tokens
        assert max(lens) > 2.5 * med    # heavy right tail

    def test_zipf_token_frequencies(self):
        c = SyntheticTranslationCorpus(2000, max_len=64, seed=1)
        toks = np.concatenate([p.source[:-1] for p in c.sample(800)])
        counts = np.bincount(toks, minlength=2000)[FIRST_CONTENT_ID:]
        top = np.sort(counts)[::-1]
        # rank-1 token much more frequent than rank-100
        assert top[0] > 10 * max(top[100], 1)

    def test_deterministic_by_seed(self):
        a = SyntheticTranslationCorpus(500, seed=5).sample_pair()
        b = SyntheticTranslationCorpus(500, seed=5).sample_pair()
        np.testing.assert_array_equal(a.source, b.source)


class TestLMCorpus:
    def test_shift_by_one(self):
        c = SyntheticLMCorpus(300, block_len=16, seed=0)
        x, y = c.sample_batch(4)
        assert x.shape == y.shape == (4, 16)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])


class TestClassificationAndImages:
    def test_sentence_pairs(self):
        toks, labels = synthetic_sentence_pairs(16, vocab_size=500,
                                                max_len=64, pad_idx=0)
        assert toks.shape == (16, 64)
        assert set(np.unique(labels)) <= {0, 1}
        # padded tail exists and content avoids pad id
        lengths = (toks != 0).sum(axis=1)
        assert np.all(lengths >= 8)
        for i, ln in enumerate(lengths):
            assert np.all(toks[i, :ln] != 0)

    def test_images(self):
        imgs, labels = synthetic_images(4, image_size=32)
        assert imgs.shape == (4, 3, 32, 32)
        assert imgs.dtype == np.float32
        assert labels.shape == (4,)


class TestBatching:
    def _pairs(self, n=100, max_len=48):
        return SyntheticTranslationCorpus(500, max_len=max_len,
                                          seed=11).sample(n)

    def test_pad_sequences(self):
        out = pad_sequences([np.array([5, 6]), np.array([7])])
        np.testing.assert_array_equal(out,
                                      [[5, 6], [7, PAD]])
        with pytest.raises(ValueError):
            pad_sequences([])

    def test_make_mt_batch_teacher_forcing(self):
        pairs = self._pairs(3)
        b = make_mt_batch(pairs)
        for i, p in enumerate(pairs):
            n = len(p.target)
            assert b.tgt_input[i, 0] == EOS
            np.testing.assert_array_equal(b.tgt_input[i, 1:n],
                                          p.target[:n - 1])
            np.testing.assert_array_equal(b.tgt_output[i, :n], p.target)
            assert np.all(b.tgt_output[i, n:] == PAD)

    def test_token_budget_respected(self):
        pairs = self._pairs(200)
        batches = batch_by_tokens(pairs, max_tokens=512)
        for b in batches:
            assert b.batch_size * b.max_len <= 512
        # every sentence appears exactly once
        assert sum(b.batch_size for b in batches) == 200

    def test_bucketing_reduces_padding(self):
        pairs = self._pairs(300)
        bucketed = batch_by_tokens(pairs, 512, bucket=True)
        unbucketed = batch_by_tokens(pairs, 512, bucket=False)

        def pad_frac(batches):
            pad = sum(int((b.tgt_output == PAD).sum()) for b in batches)
            tot = sum(b.tgt_output.size for b in batches)
            return pad / tot

        assert pad_frac(bucketed) <= pad_frac(unbucketed)

    def test_oversized_sentence_rejected(self):
        pairs = self._pairs(5, max_len=48)
        with pytest.raises(ValueError):
            batch_by_tokens(pairs, max_tokens=8)

    def test_scan_and_footprint(self):
        pairs = self._pairs(50)
        batches = batch_by_tokens(pairs, 256)
        shapes = scan_corpus_shapes(batches)
        assert len(shapes) == len(batches)
        bsz, ml = max_batch_footprint(batches)
        assert bsz * ml == max(b.num_tokens for b in batches)

    def test_shuffle_deterministic(self):
        pairs = self._pairs(100)
        a = batch_by_tokens(pairs, 256, shuffle_seed=1)
        b = batch_by_tokens(pairs, 256, shuffle_seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.src_tokens, y.src_tokens)
