"""Float64 reference oracles for kernels (ROADMAP: "float64 oracle per kernel").

An oracle evaluates a kernel's defining formula in float64 with no regard
for speed, fusion or operation order.  Bitwise tests pin a kernel to its own
previous implementation; an oracle bounds it against the mathematics, which
is what a rewrite that *changes* bits has to be re-baselined against.
"""

import numpy as np


def cube_f64(x):
    """``x**3`` in float64 — exact to far below a float32 ulp, since a
    float32 cube carries 72 significant bits and float64 rounds at 53."""
    x = np.asarray(x, dtype=np.float64)
    return x * x * x


def ulp_error_f32(got, exact):
    """``|got - exact|`` in float32 ulps of ``exact`` (elementwise)."""
    exact = np.asarray(exact, dtype=np.float64)
    ulp = np.spacing(np.abs(exact).astype(np.float32)).astype(np.float64)
    return np.abs(np.asarray(got, dtype=np.float64) - exact) / ulp


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


def raw_u32(bitgen, n):
    """The first ``n`` 32-bit words of ``bitgen``'s raw 64-bit stream, split
    arithmetically (low half of each word first) — the order in which
    ``bernoulli_keep`` spends them, stated without a dtype view."""
    words = bitgen.random_raw((n + 1) // 2)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)],
                      axis=-1)
    return halves.reshape(-1)[:n]


def keep_f64(u32, p):
    """Keep decisions of 32-bit uniform words at drop rate ``p``: the word
    read as the float64 uniform ``u * 2**-32`` (exact: a 32-bit integer
    times a power of two fits a 53-bit mantissa), kept iff ``>= p``."""
    return np.asarray(u32, dtype=np.float64) * 2.0 ** -32 >= p


def keep_rate_sigma(p, n):
    """Standard deviation of the kept fraction of ``n`` independent
    Bernoulli(1-p) draws."""
    return float(np.sqrt(p * (1.0 - p) / n))
