"""Parameter/gradient workspace with symbolic tensor link — §3.2, Fig. 7.

At trainer initialisation every parameter tensor is copied *once* into a
contiguous workspace (one array for weights, one for gradients) and the
original tensors are **re-linked as views** into it — the "symbolic tensor
link": they have "no actual memory storage" of their own.  From then on:

* layers keep reading/writing their parameters through the views, so the
  model code is untouched;
* the trainer sees the whole model as ONE flat tensor pair and updates it
  with a single fused kernel (:func:`repro.backend.kernels.optimizer.
  adam_update_ls_fused`).

numpy views over a 1-D base array give exactly this aliasing semantics, so
the reproduction is structural, not just cosmetic: mutating the workspace
really changes what the layers compute with next step, and tests assert
``param.data.base is workspace``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .device import current_device
from .dtypes import storage_dtype


class Workspace:
    """Contiguous storage for all model parameters and their gradients."""

    def __init__(self, shapes: Sequence[Tuple[str, Tuple[int, ...]]],
                 fp16: bool = True):
        """``shapes``: ordered (name, shape) pairs; order fixes offsets."""
        names = [n for n, _ in shapes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in workspace")
        self.fp16 = fp16
        dt = storage_dtype(fp16)
        self._offsets: Dict[str, Tuple[int, int, Tuple[int, ...]]] = {}
        total = 0
        for name, shape in shapes:
            n = int(np.prod(shape)) if shape else 1
            self._offsets[name] = (total, n, tuple(shape))
            total += n
        self.total_elems = total
        self.params = np.zeros(total, dtype=dt)
        self.grads = np.zeros(total, dtype=dt)

    # -- linking --------------------------------------------------------------

    def param_view(self, name: str) -> np.ndarray:
        off, n, shape = self._offsets[name]
        return self.params[off:off + n].reshape(shape)

    def grad_view(self, name: str) -> np.ndarray:
        off, n, shape = self._offsets[name]
        return self.grads[off:off + n].reshape(shape)

    def load(self, name: str, value: np.ndarray) -> None:
        """Copy an initial parameter value into its workspace fragment.

        This is the one-time copy of Fig. 7 (right): after it, the caller
        should replace its tensor with :meth:`param_view`.
        """
        off, n, shape = self._offsets[name]
        if tuple(value.shape) != shape:
            raise ValueError(
                f"{name}: shape {value.shape} != registered {shape}")
        self.params[off:off + n] = value.reshape(-1)
        current_device().record("workspace_init_copy", value.size, n,
                                dtype_bytes=self.params.dtype.itemsize,
                                family="memcpy")

    def zero_grad(self) -> None:
        """One kernel to clear ALL gradients (vs one memset per tensor)."""
        self.grads[...] = 0
        current_device().record("ls_zero_grad", 0, self.grads.size,
                                dtype_bytes=self.grads.dtype.itemsize,
                                family="optimizer")

    # -- per-parameter walks over the flat slabs -------------------------------

    def named_param_views(self):
        """Ordered (name, shaped param view) pairs — one slab walk.

        The numerics observatory iterates these to compute per-layer
        health without touching layer code: every view is zero-copy
        into the contiguous ``params`` array.
        """
        for name in self._offsets:
            yield name, self.param_view(name)

    def named_grad_views(self):
        """Ordered (name, shaped grad view) pairs (see above)."""
        for name in self._offsets:
            yield name, self.grad_view(name)

    # -- introspection ---------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return list(self._offsets)

    def nbytes(self) -> int:
        """Bytes held by the workspace pair (permanent memory region)."""
        return self.params.nbytes + self.grads.nbytes

    def offset_of(self, name: str) -> int:
        return self._offsets[name][0]

    def is_linked(self, arr: np.ndarray) -> bool:
        """True if ``arr`` is a view into this workspace (symbolic link)."""
        return arr.base is self.params or arr.base is self.grads


def build_workspace(named_params: Sequence[Tuple[str, np.ndarray]],
                    fp16: bool = True) -> Workspace:
    """Create a workspace from existing (name, value) parameters and load
    their values. Callers then re-link via :meth:`Workspace.param_view`."""
    ws = Workspace([(n, tuple(v.shape)) for n, v in named_params], fp16=fp16)
    for n, v in named_params:
        ws.load(n, v)
    return ws
