"""FP16 parameters widen once per forward+backward pass.

:func:`repro.layers.base.widened` widens every FP16 parameter at the entry
of a pass, and inside it ``Parameter.compute`` hands out that buffer as it
is.  Whatever writes FP16 data *between* passes — the trainer's update, a
checkpoint resume, a direct ``p.data[...] = ...`` — must be seen by the
next pass, bitwise as if every use re-widened.
"""

from contextlib import nullcontext

import numpy as np

from repro.config import get_config
from repro.models import TransformerModel
from repro.precision import DynamicLossScaler
from repro.resilience.checkpoint import CheckpointStore
from repro.training import OptimizerSpec, make_trainer, train_step
from repro.training import loop
from repro.training.loop import staged_forward_backward

CFG = get_config("transformer-base", max_batch_tokens=256, max_seq_len=16,
                 hidden_dim=32, nhead=4, ffn_dim=64, vocab_size=61,
                 num_encoder_layers=1, num_decoder_layers=1, fp16=True)


def _batches(n, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.integers(4, CFG.vocab_size, (3, 6)) for _ in range(3))
            for _ in range(n)]


def _run(model, batches):
    """Train on ``batches``; every step must apply its update (a loss
    scaler skip would leave the weights unwritten)."""
    trainer = make_trainer("lightseq", model, OptimizerSpec(),
                           DynamicLossScaler(init_scale=8.0))
    results = [train_step(model, trainer, b) for b in batches]
    assert all(r.applied for r in results)
    return trainer, [r.loss for r in results]


def test_trainer_update_is_seen_by_the_next_pass(monkeypatch):
    batches = _batches(3)
    trainer, losses = _run(TransformerModel(CFG, seed=1), batches)
    with monkeypatch.context() as m:        # re-widen at every use
        m.setattr(loop, "widened", lambda params: nullcontext())
        ref_trainer, ref_losses = _run(TransformerModel(CFG, seed=1),
                                       batches)
    assert losses == ref_losses
    assert np.array_equal(trainer.workspace.params.view(np.uint16),
                          ref_trainer.workspace.params.view(np.uint16))


def test_resume_is_seen_by_the_next_pass(tmp_path):
    batches = _batches(3, seed=2)
    model = TransformerModel(CFG, seed=1)
    trainer, _ = _run(model, batches[:2])
    store = CheckpointStore(tmp_path)
    store.save(model, trainer)
    want = train_step(model, trainer, batches[2]).loss

    # the twin's widen buffers hold its own (other-seed) weights first
    twin = TransformerModel(CFG, seed=9)
    twin_trainer, _ = _run(twin, batches[:1])
    assert store.resume_auto(twin, twin_trainer) is not None
    assert train_step(twin, twin_trainer, batches[2]).loss == want
    for p, q in zip(model.parameters(), twin.parameters()):
        assert np.array_equal(p.data.view(np.uint16), q.data.view(np.uint16))


def test_direct_data_write_is_seen_by_the_next_pass():
    batch = _batches(1, seed=3)[0]
    model, source = TransformerModel(CFG, seed=1), TransformerModel(CFG, seed=2)
    staged_forward_backward(model, batch, 1.0)      # widen its own weights
    for p, q in zip(model.parameters(), source.parameters()):
        p.data[...] = q.data
    model.set_rng_states(source.rng_states())
    model.zero_grad()
    source.zero_grad()
    assert staged_forward_backward(model, batch, 1.0) == \
        staged_forward_backward(source, batch, 1.0)
    for p, q in zip(model.parameters(), source.parameters()):
        assert np.array_equal(p.grad.view(np.uint16), q.grad.view(np.uint16))
        # and outside a pass every compute() re-widens
        p.data[...] = 2 * q.data
        assert np.array_equal(p.compute(), (2 * q.data).astype(np.float32))
