"""GPU hardware specifications for the roofline cost model.

Numbers are the public datasheet figures for the two GPUs the paper
evaluates (NVIDIA Tesla V100-SXM2 and Ampere A100-SXM4) plus calibration
constants for effects datasheets don't capture:

* ``kernel_launch_us`` — CUDA launch latency (the per-kernel fixed cost that
  fusion amortises);
* ``host_overhead_us`` — per-op host-side dispatch cost, *library specific*
  (PyTorch dispatches each fine-grained op through its autograd/dispatcher
  stack; a fused LightSeq2 layer is a single extension op, TensorFlow's
  graph executor sits in between);
* per-(library, kernel-family) bandwidth efficiency curves — how close each
  implementation gets to peak HBM bandwidth as a function of problem size.
  These encode the measured behaviours the paper reports in Figs. 13–14
  (e.g. DeepSpeed's LayerNorm degrading at large element counts, LightSeq2's
  softmax improving with size thanks to shape-specialised kernels).

Efficiency constants were calibrated once against the paper's reported
speedup ranges and are fixed; no experiment tunes them per-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..backend.device import FAMILIES as KERNEL_FAMILIES


@dataclass(frozen=True)
class GPUSpec:
    """Datasheet + calibration numbers for one GPU model."""

    name: str
    mem_bandwidth_gbs: float      # HBM2(e) peak bandwidth, GB/s
    fp32_tflops: float            # CUDA-core FP32 peak
    fp16_tflops: float            # tensor-core FP16 peak
    memory_gb: float              # device memory capacity
    kernel_launch_us: float       # CUDA kernel launch latency
    nvlink_gbs: float             # per-GPU NVLink bandwidth (all-reduce bus)
    nvlink_latency_us: float      # per-hop latency for the ring

    @property
    def mem_bandwidth(self) -> float:
        """bytes/second"""
        return self.mem_bandwidth_gbs * 1e9

    def flops_per_s(self, fp16: bool) -> float:
        return (self.fp16_tflops if fp16 else self.fp32_tflops) * 1e12


V100 = GPUSpec(
    name="V100",
    mem_bandwidth_gbs=900.0,
    fp32_tflops=15.7,
    fp16_tflops=125.0,
    memory_gb=16.0,
    kernel_launch_us=4.5,
    nvlink_gbs=150.0,
    nvlink_latency_us=7.0,
)

A100 = GPUSpec(
    name="A100",
    mem_bandwidth_gbs=1555.0,
    fp32_tflops=19.5,
    fp16_tflops=312.0,
    memory_gb=40.0,
    kernel_launch_us=4.0,
    nvlink_gbs=300.0,
    nvlink_latency_us=6.0,
)

H100 = GPUSpec(
    name="H100",
    mem_bandwidth_gbs=3350.0,    # HBM3, SXM5
    fp32_tflops=67.0,
    fp16_tflops=989.0,           # dense tensor-core BF16/FP16
    memory_gb=80.0,
    kernel_launch_us=3.5,
    nvlink_gbs=450.0,            # NVLink4 per-GPU aggregate
    nvlink_latency_us=5.0,
)

GPUS: Dict[str, GPUSpec] = {"V100": V100, "A100": A100, "H100": H100}


def ridge_point(spec: GPUSpec, fp16: bool = False) -> float:
    """Roofline ridge point (FLOPs/byte) of a GPU.

    Kernels whose arithmetic intensity sits below this are memory-bound at
    peak; above it they are compute-bound.  The what-if engine and the
    roofline attribution both measure each kernel's distance from this
    knee, which is why it lives here next to the datasheet numbers.
    """
    return spec.flops_per_s(fp16) / spec.mem_bandwidth


#: per-step host setup cost (s): data loading, collation, Python loop —
#: identical for every library (LightSeq2 runs inside the same fairseq/HF
#: training loop).  Constant in batch size and depth, which is what lets
#: deeper models and bigger batches amortise it (Fig. 9's depth trend).
STEP_SETUP_S = 6e-3

#: host-side per-op dispatch cost (µs): the framework-stack tax per kernel.
HOST_OVERHEAD_US: Dict[str, float] = {
    "lightseq2": 2.0,     # one C++ extension op per fused layer call
    "pytorch": 16.0,      # 2021-era eager dispatcher + autograd per op
    "deepspeed": 6.0,     # fused extension ops, python glue around them
    "tensorflow": 18.0,   # session executor per node (XLA improves GEMMs)
    "apex": 6.0,
}


def _flat(eff: float) -> Callable[[int], float]:
    return lambda n: eff


def _decay(eff0: float, n_ref: float, power: float,
           floor: float = 0.02) -> Callable[[int], float]:
    """Efficiency that degrades once n exceeds n_ref (DeepSpeed pattern)."""
    def f(n: int) -> float:
        if n <= n_ref:
            return eff0
        return max(floor, eff0 * (n_ref / n) ** power)
    return f


def _grow(eff_lo: float, eff_hi: float, n_mid: float
          ) -> Callable[[int], float]:
    """Efficiency that improves with size (LightSeq2 softmax pattern:
    block/grid/buffer settings specialised per input shape)."""
    def f(n: int) -> float:
        t = 1.0 / (1.0 + (n_mid / max(n, 1)) ** 0.7)
        return eff_lo + (eff_hi - eff_lo) * t
    return f


#: kernel families priced on a bandwidth-efficiency curve: every family a
#: launch can declare except ``gemm`` (FLOP throughput only).
FAMILIES = tuple(f for f in KERNEL_FAMILIES if f != "gemm")

#: bandwidth efficiency (fraction of peak HBM BW) by (lib, family) and size.
#: Calibrated to the paper's kernel benchmarks:
#:   Fig. 13 — LS2 LayerNorm ≈4× PyTorch, flat; DeepSpeed decays below
#:             PyTorch at large sizes; TF below PyTorch mostly.
#:   Fig. 14a — LS2 Dropout 1.2–1.5×; DeepSpeed < PyTorch past ~5M elems.
#:   Fig. 14b — LS2 Softmax speedup grows with size.
EFFICIENCY: Dict[str, Dict[str, Callable[[int], float]]] = {
    "lightseq2": {
        "layernorm": _flat(0.88),
        "softmax": _grow(0.45, 0.92, 2.0e6),
        # tiled flash-style kernels: tile residency improves with size
        "attention": _grow(0.55, 0.92, 1.0e6),
        "dropout": _flat(0.85),
        "elementwise": _flat(0.85),
        "transpose": _flat(0.80),
        "embedding": _flat(0.82),
        "criterion": _flat(0.85),
        "optimizer": _flat(0.88),
        "reduction": _flat(0.80),
        "memcpy": _flat(0.90),
    },
    "pytorch": {
        "layernorm": _flat(0.45),
        "softmax": _flat(0.42),
        "attention": _flat(0.50),
        "dropout": _grow(0.55, 0.75, 5.0e6),
        "elementwise": _grow(0.55, 0.70, 5.0e6),
        "transpose": _flat(0.55),
        "embedding": _flat(0.50),
        "criterion": _flat(0.45),
        "optimizer": _flat(0.55),
        "reduction": _flat(0.55),
        "memcpy": _flat(0.85),
    },
    "deepspeed": {
        "layernorm": _decay(0.80, 6.0e6, 1.2),
        "softmax": _decay(0.55, 6.0e6, 0.6),
        "attention": _flat(0.55),
        "dropout": _decay(0.75, 8.0e6, 0.9),
        "elementwise": _flat(0.70),
        "transpose": _flat(0.65),
        "embedding": _flat(0.50),   # not optimised by DeepSpeed
        "criterion": _flat(0.45),   # not optimised by DeepSpeed
        "optimizer": _flat(0.70),
        "reduction": _flat(0.60),
        "memcpy": _flat(0.85),
    },
    "tensorflow": {
        "layernorm": _grow(0.12, 0.40, 3.0e7),  # catches up only when huge
        "softmax": _flat(0.30),
        "attention": _flat(0.40),
        "dropout": _grow(0.40, 0.58, 5.0e6),
        "elementwise": _flat(0.50),
        "transpose": _flat(0.50),
        "embedding": _flat(0.45),
        "criterion": _flat(0.40),
        "optimizer": _flat(0.50),
        "reduction": _flat(0.50),
        "memcpy": _flat(0.85),
    },
    "apex": {
        "layernorm": _flat(0.60),
        "softmax": _flat(0.45),
        "attention": _flat(0.50),
        "dropout": _flat(0.62),
        "elementwise": _flat(0.60),
        "transpose": _flat(0.55),
        "embedding": _flat(0.50),
        "criterion": _flat(0.45),
        "optimizer": _flat(0.80),   # apex multi-tensor Adam is good
        "reduction": _flat(0.60),
        "memcpy": _flat(0.85),
    },
}


def efficiency(lib: str, family: str, elems: int) -> float:
    """Bandwidth efficiency for a kernel of ``family`` from ``lib``."""
    try:
        return EFFICIENCY[lib][family](elems)
    except KeyError:
        raise ValueError(f"no efficiency entry for ({lib!r}, {family!r})")


def gemm_efficiency(flops: int, fp16: bool) -> float:
    """cuBLAS efficiency vs problem size: small GEMMs underutilise the SMs;
    tensor-core (FP16) GEMMs need larger tiles to reach peak."""
    ref = 4.0e10 if fp16 else 1.0e10
    t = 1.0 / (1.0 + (ref / max(flops, 1)) ** 0.6)
    return 0.10 + 0.75 * t
