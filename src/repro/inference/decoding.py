"""Incremental sequence generation: greedy and beam search with KV cache.

The paper's conclusion commits to "unify[ing] the training and inference
libraries"; this module is that unification for the reproduction: it runs
*inference* directly on a trained :class:`~repro.models.transformer.
TransformerModel`'s parameters, with the auto-regressive optimisations the
LightSeq inference library pioneered:

* encoder runs once; each decoder layer's **cross-attention K/V are
  projected once** from the encoder output and cached;
* decoder **self-attention K/V are cached incrementally** — each step
  projects only the newest position and appends (the "incremental length
  in auto regressive decoding" of §2.2);
* no dropout, no saved activations (eval path).

Consistency is guaranteed by construction *and* by test: the step-t logits
of the incremental decoder equal the teacher-forced training forward's
logits at position t (``tests/inference/test_decoding.py``).

Beam search follows fairseq: log-prob accumulation, GNMT length penalty,
EOS-finished hypotheses bank, early stop when the best live hypothesis
cannot beat the worst finished one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..backend.kernels import elementwise as ew
from ..backend.kernels import gemm, softmax, transform
from ..backend.kernels.embedding import sinusoidal_positions
from ..data.vocab import EOS
from ..layers.attention import padding_mask
from ..models.transformer import TransformerModel


@dataclass
class Hypothesis:
    """One finished beam-search hypothesis."""

    tokens: np.ndarray          # generated tokens, EOS-terminated
    score: float                # length-normalised log-prob

    def __len__(self) -> int:
        return len(self.tokens)


class _LayerCache:
    """Per-decoder-layer K/V state for one generation."""

    def __init__(self):
        self.self_k: Optional[np.ndarray] = None   # (B, N, t, D)
        self.self_v: Optional[np.ndarray] = None
        self.cross_k: Optional[np.ndarray] = None  # (B, N, Ls, D)
        self.cross_v: Optional[np.ndarray] = None

    def append_self(self, k: np.ndarray, v: np.ndarray) -> None:
        if self.self_k is None:
            self.self_k, self.self_v = k, v
        else:
            self.self_k = np.concatenate([self.self_k, k], axis=2)
            self.self_v = np.concatenate([self.self_v, v], axis=2)

    def reorder(self, order: np.ndarray) -> None:
        """Beam reordering: select cache rows for the surviving beams."""
        self.self_k = self.self_k[order]
        self.self_v = self.self_v[order]
        self.cross_k = self.cross_k[order]
        self.cross_v = self.cross_v[order]


class IncrementalDecoder:
    """Auto-regressive generator over a trained TransformerModel."""

    def __init__(self, model: TransformerModel):
        self.model = model.eval()
        cfg = model.config
        self.cfg = cfg
        self.pos_table = sinusoidal_positions(cfg.max_seq_len,
                                              cfg.hidden_dim)
        self.scale = float(cfg.hidden_dim) ** 0.5

    # -- building blocks -------------------------------------------------------

    def _ln(self, x: np.ndarray, w, b) -> np.ndarray:
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return w.compute() * ((x - mu) / np.sqrt(var + 1e-5)) + b.compute()

    def _embed_step(self, tokens: np.ndarray, pos: int) -> np.ndarray:
        """(B,) token ids at position ``pos`` -> (B, 1, H) embeddings."""
        table = self.model.tgt_embed.table.compute()
        x = table[tokens] * np.float32(self.scale) + self.pos_table[pos]
        return x[:, None, :]

    def _prepare(self, src_tokens: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, List[_LayerCache]]:
        """Encode the source and pre-project cross-attention K/V."""
        enc_out = self.model.encode(src_tokens)
        self.model.clear_saved()
        cross_mask = padding_mask(src_tokens, self.cfg.padding_idx)
        caches = []
        nhead = self.cfg.nhead
        for layer in self.model.decoder_layers:
            c = _LayerCache()
            ca = layer.cross_attn
            k = gemm.linear_forward(enc_out, ca.w_k.compute(), fp16=False,
                                    name="gemm_k_proj")
            v = gemm.linear_forward(enc_out, ca.w_v.compute(), fp16=False,
                                    name="gemm_v_proj")
            c.cross_k = transform.bias_split_heads_fused(
                k, ca.b_k.compute(), nhead)
            c.cross_v = transform.bias_split_heads_fused(
                v, ca.b_v.compute(), nhead)
            caches.append(c)
        return enc_out, cross_mask, caches

    def _attend(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                scale: float, mask: Optional[np.ndarray]) -> np.ndarray:
        scores = np.matmul(q, np.swapaxes(k, -1, -2))
        probs = softmax.attn_softmax_forward_fused(scores, scale, mask)
        ctx = np.matmul(probs, v)
        return transform.merge_heads_naive(ctx)

    def _step(self, tokens: np.ndarray, pos: int,
              caches: List[_LayerCache],
              cross_mask: np.ndarray) -> np.ndarray:
        """Advance one position; returns (B, V) logits for position pos."""
        cfg = self.cfg
        nhead = cfg.nhead
        x = self._embed_step(tokens, pos)
        for layer, cache in zip(self.model.decoder_layers, caches):
            # --- causal self-attention over the cache
            residual = x
            y = self._ln(x, layer.ln1_w, layer.ln1_b)
            sa = layer.self_attn
            qkv = gemm.linear_forward(y, sa.w_qkv.compute(), fp16=False,
                                      name="gemm_qkv_packed")
            q, k, v = transform.qkv_bias_split_heads_fused(
                qkv, sa.b_qkv.compute(), nhead)
            cache.append_self(k, v)
            ctx = self._attend(q, cache.self_k, cache.self_v, sa.scale,
                               mask=None)   # cache holds only the past
            out = gemm.linear_forward(ctx, sa.w_o.compute(), fp16=False,
                                      name="gemm_out_proj")
            x = out + layer.b_self_o.compute() + residual
            # --- cross-attention over the pre-projected encoder K/V
            residual = x
            y = self._ln(x, layer.ln2_w, layer.ln2_b)
            ca = layer.cross_attn
            qc = gemm.linear_forward(y, ca.w_q.compute(), fp16=False,
                                     name="gemm_q_proj")
            qh = transform.bias_split_heads_fused(qc, ca.b_q.compute(),
                                                  nhead)
            ctx = self._attend(qh, cache.cross_k, cache.cross_v, ca.scale,
                               mask=cross_mask)
            out = gemm.linear_forward(ctx, ca.w_o.compute(), fp16=False,
                                      name="gemm_out_proj")
            x = out + layer.b_cross_o.compute() + residual
            # --- FFN
            residual = x
            y = self._ln(x, layer.ln3_w, layer.ln3_b)
            ffn = layer.ffn
            inner = gemm.linear_forward(y, ffn.w1.compute(), fp16=False,
                                        name="gemm_ffn1") + ffn.b1.compute()
            act = (ew.relu_forward_naive(inner) if cfg.activation == "relu"
                   else ew.gelu_forward_naive(inner))
            out = gemm.linear_forward(act, ffn.w2.compute(), fp16=False,
                                      name="gemm_ffn2")
            x = out + layer.b_ffn_o.compute() + residual
        if cfg.pre_layer_norm:
            x = self._ln(x, self.model.dec_ln_w, self.model.dec_ln_b)
        logits = gemm.linear_forward(
            x, self.model.out_proj.weight.compute(), fp16=False,
            name="gemm_vocab_proj")
        return logits[:, 0, :]

    # -- public API --------------------------------------------------------------

    def greedy(self, src_tokens: np.ndarray, max_len: int = 64
               ) -> List[np.ndarray]:
        """Greedy decode a batch; returns per-sentence EOS-terminated ids."""
        if src_tokens.ndim != 2:
            raise ValueError("src_tokens must be (batch, src_len)")
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        b = src_tokens.shape[0]
        _, cross_mask, caches = self._prepare(src_tokens)
        prev = np.full(b, EOS, dtype=np.int64)    # fairseq: decode from EOS
        done = np.zeros(b, dtype=bool)
        outputs = [[] for _ in range(b)]
        for pos in range(max_len):
            logits = self._step(prev, pos, caches, cross_mask)
            prev = logits.argmax(-1)
            for i in range(b):
                if not done[i]:
                    outputs[i].append(int(prev[i]))
                    if prev[i] == EOS:
                        done[i] = True
            if done.all():
                break
        return [np.asarray(o, dtype=np.int64) for o in outputs]

    def beam_search(self, src_tokens: np.ndarray, beam_size: int = 4,
                    max_len: int = 64, length_penalty: float = 0.6
                    ) -> List[Hypothesis]:
        """Beam-search decode ONE source sentence; returns ranked
        hypotheses (best first)."""
        if src_tokens.ndim != 2 or src_tokens.shape[0] != 1:
            raise ValueError("beam_search decodes one sentence: (1, Ls)")
        if beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        src = np.repeat(src_tokens, beam_size, axis=0)
        _, cross_mask, caches = self._prepare(src)

        def lp(length: int) -> float:
            return ((5.0 + length) / 6.0) ** length_penalty

        prev = np.full(beam_size, EOS, dtype=np.int64)
        scores = np.full(beam_size, -np.inf, dtype=np.float64)
        scores[0] = 0.0                  # all beams start identical
        beams: List[List[int]] = [[] for _ in range(beam_size)]
        finished: List[Hypothesis] = []
        for pos in range(max_len):
            logits = self._step(prev, pos, caches, cross_mask)
            # stable log-softmax
            m = logits.max(-1, keepdims=True)
            logp = logits - m - np.log(np.exp(logits - m).sum(
                -1, keepdims=True))
            total = scores[:, None] + logp            # (beam, V)
            flat = total.reshape(-1)
            top = np.argpartition(-flat, 2 * beam_size)[:2 * beam_size]
            top = top[np.argsort(-flat[top])]
            new_beams, new_scores, new_prev, order = [], [], [], []
            for idx in top:
                bi, tok = divmod(int(idx), logits.shape[-1])
                cand = beams[bi] + [tok]
                if tok == EOS:
                    finished.append(Hypothesis(
                        tokens=np.asarray(cand, dtype=np.int64),
                        score=float(flat[idx]) / lp(len(cand))))
                    continue
                new_beams.append(cand)
                new_scores.append(float(flat[idx]))
                new_prev.append(tok)
                order.append(bi)
                if len(new_beams) == beam_size:
                    break
            if not new_beams:
                break
            # early stop: best live path can no longer beat worst kept
            if len(finished) >= beam_size:
                best_live = max(new_scores) / lp(pos + 2)
                if best_live <= min(h.score for h in sorted(
                        finished, key=lambda h: -h.score)[:beam_size]):
                    break
            beams = new_beams
            scores = np.asarray(new_scores)
            prev = np.asarray(new_prev, dtype=np.int64)
            reorder = np.asarray(order)
            for c in caches:
                c.reorder(reorder)
        if not finished:          # length limit hit: emit live beams
            finished = [Hypothesis(
                tokens=np.asarray(bm + [EOS], dtype=np.int64),
                score=float(s) / lp(len(bm) + 1))
                for bm, s in zip(beams, scores)]
        finished.sort(key=lambda h: -h.score)
        return finished[:beam_size]
