"""Execution substrate: simulated device, kernels, activation arena, workspace.

See DESIGN.md §2 for how this substitutes for the paper's CUDA layer.
"""

from . import allocator, device, dtypes, kernels, profiler, workspace
from .device import Device, KernelLaunch, current_device, use_device
from .workspace import Workspace, build_workspace

__all__ = [
    "allocator", "device", "dtypes", "kernels", "profiler", "workspace",
    "Device", "KernelLaunch", "current_device", "use_device",
    "Workspace", "build_workspace",
]
