"""Host worker threads: one serve loop, one join-then-raise.

Two things run parts of one call on several host threads at once, as a
GPU runs thread blocks on several SMs: :class:`~repro.training.
data_parallel.DataParallel` (one thread per simulated GPU, living as long
as the object) and the multi-tile flash-attention kernels (process-wide
*kernel workers* that split a launch's (batch, head) blocks).  numpy
releases the GIL inside its kernels, so the parts overlap.

A worker is a thread serving a job queue (:func:`start_worker`);
:func:`run_parts` runs part 0 on the caller and part ``i`` on the
``i``-th queue, waits for all of them, and only then raises.  Nothing
here starts a thread or imports :mod:`queue` until a worker is asked for.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from typing import Callable, List, Optional, Sequence, TypeVar

_T = TypeVar("_T")


def _serve(jobs) -> None:
    """A worker's loop: run each ``(job, done)`` it is handed, then set
    ``done``; ``None`` stops the thread."""
    while True:
        item = jobs.get()
        if item is None:
            return
        job, done = item
        try:
            job()
        finally:
            # drop the job before blocking again: it may hold the object
            # whose collection is what stops this thread
            item = job = None
            done.set()


def start_worker(name: str):
    """Start a daemon thread called ``name``; returns its job queue.

    A worker lives as long as its owner rather than one call: glibc gives
    every thread a malloc arena, and a thread started while the previous
    one is still exiting opens a *new* arena that keeps the memory it
    frees, so a thread per call lets peak RSS creep upward call after
    call.
    """
    # deferred: importing it adds ~0.2 MiB to the peak RSS of every run
    # that never starts a worker
    import queue
    jobs = queue.SimpleQueue()
    # the thread holds its queue only, never the owner
    threading.Thread(target=_serve, args=(jobs,), name=name,
                     daemon=True).start()
    return jobs


def stop_workers(job_queues) -> None:
    for jobs in job_queues:
        jobs.put(None)


def run_parts(fn: Callable[[int], _T], job_queues: Sequence) -> List[_T]:
    """Run ``fn(i)`` for ``i`` in ``0..len(job_queues)`` at once; results
    in part order.

    Part 0 runs on the calling thread, part ``i`` on the worker serving
    ``job_queues[i - 1]``, inside a copy of the caller's context (numpy's
    errstate is a context variable).  Nothing is raised before every part
    has finished, and the lowest failing part's exception is the one
    raised.
    """
    n = len(job_queues) + 1
    results: List[Optional[_T]] = [None] * n
    errors: List[Optional[BaseException]] = [None] * n

    def run(i: int) -> None:
        try:
            results[i] = fn(i)
        except BaseException as e:      # re-raised once all are done
            errors[i] = e

    done: List[threading.Event] = []
    for i, jobs in enumerate(job_queues, start=1):
        done.append(threading.Event())
        jobs.put((functools.partial(contextvars.copy_context().run, run, i),
                  done[-1]))
    try:
        run(0)
    finally:
        for event in done:
            event.wait()
    for e in errors:
        if e is not None:
            raise e
    return results


def worker_count() -> int:
    """Kernel workers this process may use: one per CPU it may run on,
    beside the caller's own."""
    return len(os.sched_getaffinity(0)) - 1


#: job queues of the process-wide kernel workers, started on demand
_KERNEL_JOBS: list = []
_KERNEL_LOCK = threading.Lock()


def kernel_workers(n: int) -> list:
    """The job queues of the first ``n`` kernel workers, starting any not
    yet running.  They live as long as the process."""
    with _KERNEL_LOCK:
        while len(_KERNEL_JOBS) < n:
            _KERNEL_JOBS.append(
                start_worker(f"kernel/worker{len(_KERNEL_JOBS) + 1}"))
        return _KERNEL_JOBS[:n]
