"""GPU performance simulation: specs, roofline cost model, communication,
training timelines, and memory/utilization time series."""

from . import comm, costmodel, gpu_specs, timeline, utilization
from .costmodel import (KernelTimeParts, TraceCost, kernel_time,
                        kernel_time_parts, speedup, trace_cost)
from .gpu_specs import A100, GPUS, H100, V100, GPUSpec, ridge_point
from .timeline import (BucketSchedule, StepInputs, TwoStreamTimeline,
                       overlap_schedule, two_stream_step_timeline)

__all__ = [
    "comm", "costmodel", "gpu_specs", "timeline", "utilization",
    "GPUSpec", "V100", "A100", "H100", "GPUS", "ridge_point",
    "kernel_time", "kernel_time_parts", "KernelTimeParts",
    "trace_cost", "TraceCost", "speedup",
    "StepInputs", "BucketSchedule", "TwoStreamTimeline",
    "overlap_schedule", "two_stream_step_timeline",
]
