"""Simulated GPU device: kernel-trace recording and execution context.

Every numpy "kernel" in :mod:`repro.backend.kernels` performs its real math
eagerly and then reports *what a GPU kernel doing the same work would have
cost* — a :class:`KernelLaunch` record with element counts, FLOPs, the
storage precision and the kernel family the kernel declares.  The roofline
model in :mod:`repro.sim.costmodel` replays a trace into simulated wall
time for a given GPU spec.

This is the substitution layer documented in DESIGN.md §2: kernel *fidelity*
(launch counts, bytes moved, fusion structure) is preserved even though the
arithmetic runs on the CPU.

Usage::

    dev = Device(lib="lightseq2")
    with use_device(dev):
        with dev.stage_scope("forward"):
            y = layer.forward(x)
    trace = dev.launches

A process-global *null device* swallows records when no device is active, so
kernels can call :func:`current_device` unconditionally with negligible
overhead.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from .ambient import Slot

#: canonical training-stage names, in paper (Fig. 3/4) order.
STAGES = ("forward", "backward", "sync", "update")

#: library tags used to select per-kernel efficiency in the cost model.
LIBS = ("lightseq2", "pytorch", "deepspeed", "tensorflow", "apex")

#: the kernel families a launch can declare: ``gemm`` for cuBLAS matmuls,
#: then every family :mod:`repro.sim.gpu_specs` holds a per-library
#: bandwidth-efficiency curve for.
FAMILIES = ("gemm", "layernorm", "softmax", "dropout", "elementwise",
            "transpose", "embedding", "criterion", "optimizer", "reduction",
            "memcpy", "attention")
_FAMILY_SET = frozenset(FAMILIES)     # the per-launch membership check


class UnknownKernelFamily(ValueError):
    """A launch declared a family outside :data:`FAMILIES`."""


@dataclass(frozen=True)
class KernelLaunch:
    """One simulated GPU kernel launch.

    ``elems_read``/``elems_written`` are element counts; bytes are derived as
    ``elems * dtype_bytes`` so FP16 storage halves traffic, exactly as on the
    GPU.  ``family`` is the kernel family the kernel declares (one of
    :data:`FAMILIES`); every per-family attribution reads it, and the cost
    model prices ``gemm``/``attention`` launches with (tensor-core) FLOP
    throughput rather than a bandwidth-efficiency curve.
    """

    name: str
    elems_read: int
    elems_written: int
    flops: int = 0
    dtype_bytes: int = 4
    stage: str = "forward"
    lib: str = "lightseq2"
    family: str = field(kw_only=True)

    def __post_init__(self):
        if self.family not in _FAMILY_SET:
            raise UnknownKernelFamily(
                f"kernel {self.name!r} declares unknown family "
                f"{self.family!r}; expected one of {FAMILIES}")

    @property
    def is_gemm(self) -> bool:
        """Priced on FLOP throughput: cuBLAS GEMMs and the tiled attention
        kernels, whose inner loops are GEMMs."""
        return self.family in ("gemm", "attention")

    @property
    def bytes_read(self) -> int:
        return self.elems_read * self.dtype_bytes

    @property
    def bytes_written(self) -> int:
        return self.elems_written * self.dtype_bytes

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read + self.bytes_written


class Device:
    """A simulated GPU accumulating a kernel trace."""

    def __init__(self, name: str = "sim0", lib: str = "lightseq2",
                 trace: bool = True):
        if lib not in LIBS:
            raise ValueError(f"unknown lib tag {lib!r}; expected one of {LIBS}")
        self.name = name
        self.lib = lib
        self.trace_enabled = trace
        self.launches: List[KernelLaunch] = []
        self._stage = "forward"

    # -- kernel recording ---------------------------------------------------

    def record(self, name: str, elems_read: int, elems_written: int,
               flops: int = 0, dtype_bytes: int = 4, *, family: str) -> None:
        """Record one kernel launch of ``family`` under the current stage."""
        if not self.trace_enabled:
            return
        self.launches.append(KernelLaunch(
            name=name,
            elems_read=int(elems_read),
            elems_written=int(elems_written),
            flops=int(flops),
            dtype_bytes=dtype_bytes,
            stage=self._stage,
            lib=self.lib,
            family=family,
        ))

    # -- stage scoping -----------------------------------------------------

    @property
    def stage(self) -> str:
        return self._stage

    @contextmanager
    def stage_scope(self, stage: str) -> Iterator[None]:
        """Attribute kernels launched inside the scope to ``stage``."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        prev, self._stage = self._stage, stage
        try:
            yield
        finally:
            self._stage = prev

    # -- trace management ----------------------------------------------------

    def reset(self) -> None:
        self.launches.clear()

    def launch_count(self, stage: Optional[str] = None) -> int:
        if stage is None:
            return len(self.launches)
        return sum(1 for k in self.launches if k.stage == stage)

    def total_bytes(self, stage: Optional[str] = None) -> int:
        return sum(k.bytes_moved for k in self.launches
                   if stage is None or k.stage == stage)


class _NullDevice(Device):
    """Sink device used when no real device is active: records nothing."""

    def __init__(self):
        super().__init__(name="null", lib="lightseq2", trace=False)


NULL_DEVICE = _NullDevice()

#: the active device, per thread; the null sink when none is active.
DEVICE = Slot("device", per_thread=True, default=NULL_DEVICE)
use_device = DEVICE.use
current_device = DEVICE.current
