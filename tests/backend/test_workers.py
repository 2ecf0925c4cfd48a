"""Host worker threads: the join-then-raise contract, the context a part
runs in, when kernel workers start, and flash's block split under capture.

:func:`repro.backend.workers.run_parts` is what ``DataParallel`` runs its
ranks with and what the multi-tile flash kernels split their (batch,
head) blocks with; the kernel workers are process-wide and start on the
first multi-tile call.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.backend import workers
from repro.backend.kernels import flash
from repro.backend.program import capture_callable

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.mark.parametrize("failing", [(1,), (1, 2), (0, 2)])
def test_part_exception_is_raised_after_every_part_finishes(failing):
    jobs = workers.kernel_workers(2)
    before = threading.active_count()
    finished = []

    def part(i):
        if i in failing:
            raise RuntimeError(f"part {i} failed")
        finished.append(i)
        return i

    with pytest.raises(RuntimeError, match=f"part {min(failing)} failed"):
        workers.run_parts(part, jobs)
    assert sorted(finished) == [i for i in range(3) if i not in failing]
    assert threading.active_count() == before
    assert workers.run_parts(lambda i: i * i, jobs) == [0, 1, 4]


def test_parts_inherit_the_callers_errstate():
    jobs = workers.kernel_workers(2)
    with np.errstate(over="raise", under="ignore"):
        seen = workers.run_parts(lambda i: np.geterr(), jobs)
    assert [(e["over"], e["under"]) for e in seen] \
        == [("raise", "ignore")] * 3


def test_kernel_workers_are_shared_and_named():
    first = workers.kernel_workers(2)
    assert workers.kernel_workers(1) == first[:1]
    assert {"kernel/worker1", "kernel/worker2"} <= set(
        _kernel_worker_names())


def _kernel_worker_names():
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith("kernel/worker"))


def test_racing_callers_start_each_kernel_worker_once():
    want = len(_kernel_worker_names()) + 3
    seen, barrier = [], threading.Barrier(8)

    def call():
        barrier.wait(timeout=10)
        seen.append(workers.kernel_workers(want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8 and all(jobs == seen[0] for jobs in seen)
    assert len({id(jobs) for jobs in seen[0]}) == want
    assert _kernel_worker_names() == sorted(
        f"kernel/worker{i + 1}" for i in range(want))


_NO_THREAD = """
import sys, threading
import numpy as np
import repro
from repro.backend.kernels import flash
assert threading.active_count() == 1, threading.enumerate()
rng = np.random.default_rng(0)
q, k, v = (rng.standard_normal((1, 4, 128, 8)).astype(np.float32)
           for _ in range(3))
o, stats, seed = flash.flash_attn_forward(q, k, v, 0.5, None, 0.1,
                                          rng, causal=True)
flash.flash_attn_backward(q, q, k, v, o, stats, seed, 0.5, None, 0.1,
                          causal=True)
# multi-tile, but too small a score tile per block range to split
flash.flash_attn_forward(q, k, v, 0.5, None, 0.0, None, tile_q=64,
                         tile_k=64)
assert threading.active_count() == 1, threading.enumerate()
assert "queue" not in sys.modules
q, k, v = (np.concatenate([a, a], axis=2) for a in (q, k, v))
flash.flash_attn_forward(q, k, v, 0.5, None, 0.0, None)
print(threading.active_count())
"""


def test_import_and_single_tile_flash_start_no_thread():
    done = subprocess.run([sys.executable, "-c", _NO_THREAD],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    # the multi-tile call over four 128 x 128 blocks started a worker,
    # if there is a further CPU to run it on
    assert int(done.stdout) == 1 + min(1, workers.worker_count())


def test_multi_tile_flash_under_capture_replays_bitwise(monkeypatch):
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    monkeypatch.setattr(flash, "_MIN_RANGE_ELEMS", 1)
    kw = dict(causal=True, tile_q=8, tile_k=8)

    def step(gen):
        def fwd_bwd(q, k, v, d_o):
            o, stats, seed = flash.flash_attn_forward(
                q, k, v, 0.5, None, 0.2, gen, **kw)
            return (o,) + flash.flash_attn_backward(
                d_o, q, k, v, o, stats, seed, 0.5, None, 0.2, **kw)
        return fwd_bwd

    replayed = capture_callable(step(np.random.default_rng(4)))
    eager = step(np.random.default_rng(4))
    rng = np.random.default_rng(0)
    for _ in range(3):              # capture, then two replays
        args = [rng.standard_normal((1, 3, 20, 4)).astype(np.float32)
                for _ in range(4)]
        got = [a.copy() for a in replayed(*args)]
        for a, b in zip(got, eager(*args)):
            assert np.array_equal(a, b)
    assert replayed.capture_state["program"] is not None
