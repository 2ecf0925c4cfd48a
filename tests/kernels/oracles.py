"""Float64 reference oracles for kernels (ROADMAP: "float64 oracle per kernel").

An oracle evaluates a kernel's defining formula in float64 with no regard
for speed, fusion or operation order.  Bitwise tests pin a kernel to its own
previous implementation; an oracle bounds it against the mathematics, which
is what a rewrite that *changes* bits has to be re-baselined against.
"""

import numpy as np


def gelu_tanh_f64(pre):
    """tanh-approximation GeLU and its derivative at ``pre``, in float64.

    Returns ``(act, d_act)`` with ``act = 0.5*x*(1 + tanh(u))``,
    ``u = sqrt(2/pi) * (x + 0.044715*x**3)`` and
    ``d_act = 0.5*(1 + tanh(u)) + 0.5*x*(1 - tanh(u)**2) * du/dx``.
    """
    x = np.asarray(pre, dtype=np.float64)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    act = 0.5 * x * (1.0 + t)
    d_act = (0.5 * (1.0 + t)
             + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x))
    return act, d_act
