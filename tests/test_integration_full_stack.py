"""Full-stack integration: every subsystem composed in one training run.

Exercises, together: synthetic corpus + token batching, FP16 fused layers,
the workspace trainer with dynamic loss scaling, 2-way data parallelism
with the real ring all-reduce, activation checkpointing on the encoder
stack, gradient accumulation, and the kernel trace + cost model.
"""

import pytest

from repro.backend.device import Device, use_device
from repro.config import get_config
from repro.data import SyntheticTranslationCorpus, batch_by_tokens
from repro.data.synthetic import SentencePair
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.sim import V100, StepInputs
from repro.training import (CheckpointedLayer, DataParallel, OptimizerSpec,
                            make_trainer, shard_batch,
                            train_step_accumulated)


@pytest.fixture
def cfg():
    return get_config("transformer-base", max_batch_tokens=256,
                      max_seq_len=24, fp16=True, hidden_dim=32, nhead=4,
                      ffn_dim=64, vocab_size=90, num_encoder_layers=2,
                      num_decoder_layers=2)


def _copy_batches(vocab, n=32, max_tokens=256):
    corpus = SyntheticTranslationCorpus(vocab, max_len=14, seed=4)
    pairs = [SentencePair(source=p.source, target=p.source.copy())
             for p in corpus.sample(n)]
    return [b.as_tuple() for b in batch_by_tokens(pairs, max_tokens)]


def test_fp16_checkpointed_accumulated_training_with_tracing(cfg):
    """FP16 + loss scaling + checkpointed encoder + accumulation, traced."""
    model = TransformerModel(cfg, seed=1)
    # checkpoint the encoder stack in place
    model.encoder_layers = [CheckpointedLayer(l)
                            for l in model.encoder_layers]
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3),
                           scaler=DynamicLossScaler(init_scale=2.0 ** 8))
    batches = _copy_batches(cfg.vocab_size)
    dev = Device(lib="lightseq2")
    losses = []
    with use_device(dev):
        for _ in range(3):
            epoch_loss = epoch_tokens = 0
            for i in range(0, len(batches), 2):
                res = train_step_accumulated(model, trainer,
                                             batches[i:i + 2])
                epoch_loss += res.loss
                epoch_tokens += res.num_tokens
            losses.append(epoch_loss / epoch_tokens)
    # it trains
    assert losses[-1] < losses[0]
    # the trace covers all stages and yields a sane simulated timeline
    tl = StepInputs(tuple(dev.launches), V100).timeline()
    assert tl.forward_s > 0 and tl.backward_s > 0 and tl.update_s > 0
    # no FP32 master copies exist anywhere (the §3.2 memory claim)
    assert trainer.extra_state_bytes() == 8 * trainer.workspace.total_elems
    # parameters still live in the workspace (symbolic link intact)
    for p in model.parameters():
        assert trainer.workspace.is_linked(p.data), p.name


def test_data_parallel_fp16_training(cfg):
    """2-replica FP16 DP training on a copy task."""
    dp = DataParallel(lambda: TransformerModel(cfg, seed=3), 2,
                      "lightseq", OptimizerSpec(lr=3e-3))
    batches = _copy_batches(cfg.vocab_size, n=48)
    first = last = None
    for epoch in range(6):
        total_loss = total_tok = 0
        for batch in batches:
            # shard only batches that split evenly into 2
            if batch[0].shape[0] < 2:
                continue
            loss, ntok = dp.train_step(shard_batch(list(batch), 2))
            total_loss += loss
            total_tok += ntok
        lpt = total_loss / total_tok
        first = lpt if first is None else first
        last = lpt
    assert last < first
    assert dp.parameters_in_sync()


def test_trace_launch_budget_end_to_end(cfg):
    """Whole-model fused/naive launch ratio stays in the expected band —
    a regression guard on the fusion coverage of the full graph."""
    batches = _copy_batches(cfg.vocab_size, n=8)
    counts = {}
    for fused, lib, trainer_kind in ((True, "lightseq2", "lightseq"),
                                     (False, "pytorch", "naive")):
        model = TransformerModel(cfg.with_overrides(fused=fused), seed=0)
        trainer = make_trainer(trainer_kind, model, OptimizerSpec(lr=1e-4))
        dev = Device(lib=lib)
        with use_device(dev):
            from repro.training import train_step
            train_step(model, trainer, batches[0])
        counts[lib] = dev.launch_count()
    ratio = counts["lightseq2"] / counts["pytorch"]
    assert ratio < 0.55, counts
