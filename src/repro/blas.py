"""One BLAS thread per process, so a run's bits do not depend on the host.

OpenBLAS splits some GEMMs across its threads, and for the weight gradient
``dy^T @ x`` — a reduction over the token count — the split changes the
order of the sum: the same inputs give different bits at one and at two
threads (OpenBLAS 0.3.31 at K = 588, 600 and 1 008).  A checkpoint resumed
on a host with another core count would then diverge silently.  Importing
:mod:`repro` therefore pins the OpenBLAS that numpy bundles to one thread,
through that library's own ``scipy_openblas_set_num_threads64_``, found
by file pattern under ``numpy.libs/``.  When the library or the symbol is
absent the import still succeeds, and :data:`BLAS_THREADS` reads ``None``
in run-record provenance and checkpoint manifests: such a run cannot
claim host-independent bits.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Optional

import numpy as np

_LIB_PATTERN = "libscipy_openblas*.so*"
_SET = "scipy_openblas_set_num_threads64_"
_GET = "scipy_openblas_get_num_threads64_"


def _pin_one_thread() -> Optional[int]:
    """Pin the bundled OpenBLAS to one thread; its thread count after, or
    ``None`` when there is no such library to pin."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, _LIB_PATTERN))):
        try:
            lib = ctypes.CDLL(path)
            set_threads, get_threads = getattr(lib, _SET), getattr(lib, _GET)
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads(1)
        return get_threads()
    return None


#: BLAS threads after the pin (1), or ``None`` when the bundled OpenBLAS
#: was not found and results may depend on the host's core count.
BLAS_THREADS: Optional[int] = _pin_one_thread()
