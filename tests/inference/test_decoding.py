"""Incremental decoding: step logits must equal the teacher-forced forward,
greedy/beam behave correctly."""

import numpy as np
import pytest

from repro.config import get_config
from repro.data.vocab import EOS
from repro.inference import IncrementalDecoder
from repro.models import TransformerModel


def _model(activation="relu"):
    cfg = get_config("transformer-base", max_batch_tokens=512,
                     max_seq_len=32, hidden_dim=32, nhead=4, ffn_dim=64,
                     vocab_size=70, num_encoder_layers=2,
                     num_decoder_layers=2, dropout=0.0, attn_dropout=0.0,
                     activation=activation)
    return TransformerModel(cfg, seed=2)


@pytest.fixture
def model():
    return _model()


@pytest.fixture
def src(rng):
    s = rng.integers(4, 70, (2, 9))
    s[:, -1] = EOS
    return s


class TestConsistency:
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_incremental_matches_teacher_forced(self, activation, src, rng):
        """The KV-cache path must produce exactly the logits the training
        forward produces at each position — the unification guarantee."""
        model = _model(activation)
        dec = IncrementalDecoder(model)
        tgt_prefix = rng.integers(4, 70, (2, 5)).astype(np.int64)
        tgt_prefix[:, 0] = EOS

        # teacher-forced full forward (eval mode)
        model.eval()
        enc = model.encode(src)
        dec_out = model.decode(tgt_prefix, enc, src)
        full_logits = model.out_proj.forward(dec_out)
        model.clear_saved()

        # incremental replay of the same prefix
        _, cross_mask, caches = dec._prepare(src)
        for pos in range(tgt_prefix.shape[1]):
            step_logits = dec._step(tgt_prefix[:, pos], pos, caches,
                                    cross_mask)
            np.testing.assert_allclose(
                step_logits, full_logits[:, pos, :], atol=1e-3,
                err_msg=f"position {pos}")

    def test_cache_grows_per_step(self, model, src):
        dec = IncrementalDecoder(model)
        _, cross_mask, caches = dec._prepare(src)
        toks = np.full(2, EOS, dtype=np.int64)
        dec._step(toks, 0, caches, cross_mask)
        assert caches[0].self_k.shape[2] == 1
        dec._step(toks, 1, caches, cross_mask)
        assert caches[0].self_k.shape[2] == 2
        # cross K/V projected once, never regrown
        assert caches[0].cross_k.shape[2] == src.shape[1]


class TestGreedy:
    def test_outputs_well_formed(self, model, src):
        dec = IncrementalDecoder(model)
        outs = dec.greedy(src, max_len=12)
        assert len(outs) == 2
        for o in outs:
            assert 1 <= len(o) <= 12
            assert np.all(o >= 0) and np.all(o < 70)

    def test_deterministic(self, model, src):
        dec = IncrementalDecoder(model)
        a = dec.greedy(src, max_len=10)
        b = dec.greedy(src, max_len=10)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_stops_at_eos(self, model, src):
        dec = IncrementalDecoder(model)
        outs = dec.greedy(src, max_len=30)
        for o in outs:
            if EOS in o:
                assert o[-1] == EOS
                assert (o == EOS).sum() == 1

    def test_validations(self, model, src):
        dec = IncrementalDecoder(model)
        with pytest.raises(ValueError):
            dec.greedy(src[0], max_len=4)
        with pytest.raises(ValueError):
            dec.greedy(src, max_len=0)


class TestBeam:
    def test_hypotheses_ranked(self, model, src):
        dec = IncrementalDecoder(model)
        hyps = dec.beam_search(src[:1], beam_size=3, max_len=12)
        assert 1 <= len(hyps) <= 3
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        for h in hyps:
            assert h.tokens[-1] == EOS

    def test_beam1_matches_greedy_tokens(self, model, src):
        """Beam size 1 is greedy search (beam appends EOS when the length
        limit truncates an unfinished hypothesis; greedy does not)."""
        dec = IncrementalDecoder(model)
        greedy = dec.greedy(src[:1], max_len=12)[0]
        beam = dec.beam_search(src[:1], beam_size=1, max_len=12)[0].tokens
        n = min(len(greedy), len(beam))
        np.testing.assert_array_equal(beam[:n - 1], greedy[:n - 1])

    def test_bigger_beam_never_worse(self, model, src):
        """The beam-4 best hypothesis scores >= the beam-1 best (same
        length penalty)."""
        dec = IncrementalDecoder(model)
        h1 = dec.beam_search(src[:1], beam_size=1, max_len=12)[0]
        h4 = dec.beam_search(src[:1], beam_size=4, max_len=12)[0]
        assert h4.score >= h1.score - 1e-9

    def test_validations(self, model, src):
        dec = IncrementalDecoder(model)
        with pytest.raises(ValueError):
            dec.beam_search(src, beam_size=2)        # batch must be 1
        with pytest.raises(ValueError):
            dec.beam_search(src[:1], beam_size=0)
