"""Acceptance gate: an injected NaN is caught, attributed, and triaged.

A NaN is poisoned into ONE layer's gradient mid-run (step 3 of 5).  The
observatory must (a) detect it on that very step, (b) attribute it to the
poisoned layer, and (c) make ``python -m repro.obs.health`` exit non-zero
naming the layer and the step — the full silent-failure-to-triage path.
"""

import numpy as np
import pytest

from repro.config import get_config
from repro.models import TransformerModel
from repro.obs.health import AnomalyEngine, AnomalyHalted, main
from repro.obs.metrics import MetricsRecorder
from repro.obs.numerics import NumericsCollector, group_of, use_collector
from repro.training import LSFusedTrainer, OptimizerSpec, train_step

_POISON_STEP = 3
_STEPS = 5


def _build():
    cfg = get_config("transformer-base", max_batch_tokens=256,
                     max_seq_len=16, hidden_dim=32, nhead=4, ffn_dim=64,
                     vocab_size=64, num_encoder_layers=1,
                     num_decoder_layers=1, fused=True)
    model = TransformerModel(cfg, seed=0)
    trainer = LSFusedTrainer(model, OptimizerSpec(lr=1e-3))  # no scaler
    names = [name for name, _ in trainer.named_grads()]
    target = names[len(names) // 2]          # a mid-list parameter
    return model, trainer, target


def _poisoning_backward(model, trainer, target, counter):
    """Wrap model.backward: after the real pass, NaN one layer's grads."""
    orig = model.backward

    def poisoned(*args, **kwargs):
        out = orig(*args, **kwargs)
        counter[0] += 1
        if counter[0] == _POISON_STEP:
            view = dict(trainer.named_grads())[target]
            view[...] = np.nan
        return out

    return poisoned


def _run(metrics_path=None, halt=False):
    model, trainer, target = _build()
    counter = [0]
    model.backward = _poisoning_backward(model, trainer, target, counter)
    metrics = (MetricsRecorder(metrics_path, config={"fault": "nan"})
               if metrics_path else None)
    engine = AnomalyEngine()
    collector = NumericsCollector(1, metrics=metrics, engine=engine,
                                  halt_on_anomaly=halt)
    rng = np.random.default_rng(0)
    halted = None
    with use_collector(collector):
        for _ in range(_STEPS):
            batch = (rng.integers(4, 64, (2, 8)),
                     rng.integers(4, 64, (2, 8)),
                     rng.integers(4, 64, (2, 8)))
            try:
                train_step(model, trainer, batch)
            except AnomalyHalted as e:
                halted = e
                break
    return engine, target, halted


def test_nan_detected_within_one_step_and_attributed():
    engine, target, _ = _run()
    assert any(a.severity == "error" for a in engine.anomalies)
    fb = engine.first_bad
    assert fb.step == _POISON_STEP          # caught on the poisoned step
    assert fb.kind == "nonfinite_grad"
    assert fb.layer == group_of(target)     # attributed to that layer
    assert fb.severity == "error"           # fp32, no scaler to catch it


def test_no_detection_before_poison():
    engine, _, _ = _run()
    assert all(a.step >= _POISON_STEP for a in engine.anomalies)


def test_halt_on_anomaly_stops_the_run():
    engine, target, halted = _run(halt=True)
    assert halted is not None
    assert halted.anomaly.step == _POISON_STEP
    assert halted.anomaly.layer == group_of(target)


def test_health_cli_triages_the_recorded_run(tmp_path, capsys):
    path = str(tmp_path / "m.jsonl")
    _, target, _ = _run(metrics_path=path)
    rc = main([path])
    out = capsys.readouterr().out
    assert rc == 1                           # CI gate trips
    assert f"FIRST BAD STEP: {_POISON_STEP}" in out
    assert group_of(target) in out
    assert "nonfinite_grad" in out
