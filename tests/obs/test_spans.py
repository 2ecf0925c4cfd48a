"""Span tracing: nesting, thread-safety, counter deltas, loop integration."""

import threading

import numpy as np

from repro.backend.device import Device, use_device
from repro.backend.profiler import count_fresh_alloc, reset_alloc_counters
from repro.obs.spans import SpanRecorder, current_recorder, span, use_recorder


def test_noop_without_recorder():
    assert current_recorder() is None
    with span("anything") as sp:
        assert sp is None          # fast path: nothing recorded, no timing


def test_span_records_wall_time_and_name():
    rec = SpanRecorder()
    with use_recorder(rec):
        with span("fwd/encoder") as sp:
            sum(range(1000))
    assert current_recorder() is None
    (got,) = rec.spans
    assert got is sp
    assert got.name == "fwd/encoder"
    assert got.dur_s > 0
    assert got.start_s >= 0


def test_nesting_depth_and_parent():
    rec = SpanRecorder()
    with use_recorder(rec):
        with span("step"):
            with span("fwd"):
                with span("fwd/attn"):
                    pass
            with span("bwd"):
                pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["step"].depth == 0 and by_name["step"].parent is None
    assert by_name["fwd"].parent == "step" and by_name["fwd"].depth == 1
    assert by_name["fwd/attn"].parent == "fwd"
    assert by_name["bwd"].parent == "step"


def test_children_contained_in_parents():
    """No overlap violations: a child's interval lies inside its parent's."""
    rec = SpanRecorder()
    with use_recorder(rec):
        with span("outer"):
            with span("inner1"):
                sum(range(100))
            with span("inner2"):
                sum(range(100))
    by_name = {s.name: s for s in rec.spans}
    outer = by_name["outer"]
    for inner in (by_name["inner1"], by_name["inner2"]):
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s
    # siblings don't overlap
    assert (by_name["inner1"].end_s <= by_name["inner2"].start_s
            or by_name["inner2"].end_s <= by_name["inner1"].start_s)


def test_kernel_launch_delta():
    rec = SpanRecorder()
    dev = Device()
    with use_device(dev), use_recorder(rec):
        with span("two-kernels"):
            dev.record("a", 10, 10, family="elementwise")
            dev.record("b", 10, 10, family="elementwise")
        with span("no-kernels"):
            pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["two-kernels"].launches == 2
    assert by_name["no-kernels"].launches == 0


def test_alloc_counter_delta():
    reset_alloc_counters()
    rec = SpanRecorder()
    with use_recorder(rec):
        with span("allocs"):
            count_fresh_alloc(1024)
            count_fresh_alloc(1024)
    (got,) = rec.spans
    assert got.alloc.new_allocs == 2
    assert got.alloc.new_alloc_bytes == 2048
    reset_alloc_counters()


def test_threads_get_distinct_tids():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def work(name):
        barrier.wait()
        with span(name):
            sum(range(1000))

    with use_recorder(rec):
        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    spans = rec.spans
    assert len(spans) == 2
    assert len({s.tid for s in spans}) == 2


def test_train_step_emits_stage_spans(tiny_config):
    """The training loop's instrumentation produces the stage spans."""
    from repro.models.transformer import TransformerModel
    from repro.training import OptimizerSpec, make_trainer, train_step
    from repro.bench.tracegen import fixed_shape_mt_batch

    model = TransformerModel(tiny_config, seed=0)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=1e-3))
    batch = fixed_shape_mt_batch(2, 8, tiny_config.vocab_size)
    rec = SpanRecorder()
    with use_recorder(rec):
        train_step(model, trainer, batch)
    names = {s.name for s in rec.spans}
    assert {"train/step", "train/zero_grad", "train/forward",
            "train/backward", "train/update", "trainer/apply"} <= names
    step_span = rec.by_name("train/step")[0]
    for child in ("train/forward", "train/backward", "train/update"):
        sp = rec.by_name(child)[0]
        assert sp.parent == "train/step"
        assert step_span.start_s <= sp.start_s <= sp.end_s <= step_span.end_s
    # forward + backward + update wall time is bounded by the step's
    assert (rec.total_s("train/forward") + rec.total_s("train/backward")
            + rec.total_s("train/update")) <= step_span.dur_s


def test_as_dict_is_json_ready():
    import json
    rec = SpanRecorder()
    with use_recorder(rec):
        with span("x"):
            pass
    d = rec.spans[0].as_dict()
    assert json.loads(json.dumps(d)) == d
