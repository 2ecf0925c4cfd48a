"""Finite-difference gradcheck for every fused backward kernel.

Unlike the fused-vs-naive equivalence tests, these check each backward
against *numerical* gradients of its own forward: a shared analytic bug
in both implementations cannot hide here.  Inputs are float64 so central
differences with a tiny eps are trustworthy; the embedding kernel casts
its output to float32, so it runs with a large eps and looser tolerances.

Every backward is checked twice over: once eager, and once routed through
:func:`repro.backend.program.capture_callable` so the *replayed* kernel
program — the flat dispatch loop of DESIGN §11, with its slot rebinding
and baked constants — is held to the same finite-difference bar as the
eager code it was captured from.
"""

import numpy as np
import pytest

from repro.backend.kernels.criterion import (criterion_backward_fused,
                                             criterion_forward_fused)
from repro.backend.kernels.elementwise import (bias_act_dropout_backward,
                                               bias_act_dropout_forward,
                                               bias_dropout_residual_backward,
                                               bias_dropout_residual_forward,
                                               make_dropout_mask)
from repro.backend.kernels.embedding import (embedding_backward_fused,
                                             embedding_forward_fused,
                                             sinusoidal_positions)
from repro.backend.kernels.flash import (flash_attn_backward,
                                         flash_attn_forward)
from repro.backend.kernels.layernorm import (layernorm_backward_fused,
                                             layernorm_forward_fused)
from repro.backend.kernels.softmax import (softmax_backward_fused,
                                           softmax_forward_fused)
from repro.backend.program import capture_callable
from repro.tools import gradcheck


@pytest.fixture(params=["eager", "replay"])
def mode(request):
    return request.param


def _check(mode, name, fwd, core, make_args, *, bwd_from_core=None,
           constants=(), **kw):
    """Gradcheck ``core`` (the kernel-pure backward) in the given mode.

    Eager mode runs it directly.  Replay mode wraps it in
    :func:`capture_callable` and gradchecks twice: the first run captures
    (itself an eager execution), the second replays the sealed program —
    and must still match finite differences.  ``bwd_from_core`` adapts the
    captured core to gradcheck's ``bwd(dy, *args)`` calling convention
    when host-side glue (a cotangent multiply, a dtype cast) has to stay
    *outside* the captured program.
    """
    core_fn = (capture_callable(core, constants=constants)
               if mode == "replay" else core)
    bwd = bwd_from_core(core_fn) if bwd_from_core is not None else core_fn
    report = gradcheck(name, fwd, bwd, make_args, **kw)
    assert report.passed, report.format()
    if mode == "replay":
        report = gradcheck(name, fwd, bwd, make_args, **kw)
        assert report.passed, report.format()
        prog = core_fn.capture_state["program"]
        assert prog is not None and prog.replays >= 1, \
            f"{name}: second gradcheck did not replay the captured program"


def test_gradcheck_layernorm_backward_fused(mode):
    def fwd(x, w, b):
        return layernorm_forward_fused(x, w, b)[0]

    def bwd(dy, x, w, b):
        _, mu, rstd = layernorm_forward_fused(x, w, b)
        return layernorm_backward_fused(dy, x, w, mu, rstd)

    _check(mode, "layernorm_bwd", fwd, bwd,
           lambda rng: (rng.standard_normal((3, 4, 8)),
                        1.0 + 0.1 * rng.standard_normal(8),
                        0.1 * rng.standard_normal(8)),
           eps=1e-6, rtol=1e-4, atol=1e-7)


def test_gradcheck_softmax_backward_fused(mode):
    def bwd(dy, x):
        return softmax_backward_fused(dy, softmax_forward_fused(x))

    _check(mode, "softmax_bwd", softmax_forward_fused, bwd,
           lambda rng: (rng.standard_normal((3, 5, 7)),),
           eps=1e-6, rtol=1e-4, atol=1e-7)


def test_gradcheck_bias_dropout_residual_backward(mode):
    p = 0.25
    mask = make_dropout_mask((4, 6, 8), p, np.random.default_rng(11))

    def fwd(x, bias, residual):
        y, _ = bias_dropout_residual_forward(
            x, bias, residual, p, np.random.default_rng(0), mask=mask)
        return y

    def bwd(dy, x, bias, residual):
        return bias_dropout_residual_backward(dy, mask, p)

    _check(mode, "bias_dropout_residual_bwd", fwd, bwd,
           lambda rng: (rng.standard_normal((4, 6, 8)),
                        rng.standard_normal(8),
                        rng.standard_normal((4, 6, 8))),
           constants=(mask,), eps=1e-6, rtol=1e-4, atol=1e-7)


def test_gradcheck_bias_gelu_dropout_backward(mode):
    p = 0.25
    mask = make_dropout_mask((3, 5, 8), p, np.random.default_rng(13))

    def fwd(x, bias):
        y, _, _ = bias_act_dropout_forward(
            x, bias, p, np.random.default_rng(0), activation="gelu",
            mask=mask)
        return y

    def bwd(dy, x, bias):
        # the residual comes from a (captured) forward call so the program
        # records it as a product (computing it outside a kernel would bake
        # capture-time values in as a constant)
        _, _, residual = bias_act_dropout_forward(
            x, bias, p, np.random.default_rng(0), activation="gelu",
            mask=mask)
        return bias_act_dropout_backward(dy, mask, residual, p,
                                         activation="gelu")

    _check(mode, "bias_gelu_dropout_bwd", fwd, bwd,
           lambda rng: (rng.standard_normal((3, 5, 8)),
                        rng.standard_normal(8)),
           constants=(mask,), eps=1e-6, rtol=1e-4, atol=1e-7)


def test_gradcheck_embedding_backward_fused(mode):
    # forward casts to float32 and is *linear* in the table, so a big eps
    # is exact up to the cast; tolerances absorb the float32 rounding
    vocab, h, p = 11, 4, 0.25
    tokens = np.array([[1, 3, 5], [7, 2, 0]])
    pos = sinusoidal_positions(8, h)
    mask = make_dropout_mask((2, 3, h), p, np.random.default_rng(17))
    scale = float(np.sqrt(h))

    def fwd(table):
        y, _ = embedding_forward_fused(tokens, table, pos, scale, p,
                                       np.random.default_rng(0),
                                       pad_idx=0, mask=mask)
        return y

    def bwd(dy, table):
        return embedding_backward_fused(dy, tokens, mask, scale, p, vocab,
                                        pad_idx=0)

    _check(mode, "embedding_bwd", fwd, bwd,
           lambda rng: (rng.standard_normal((vocab, h)),),
           constants=(tokens, mask), eps=1e-2, rtol=1e-3, atol=1e-4)


def test_gradcheck_criterion_backward_fused(mode):
    alpha, ignore = 0.1, -100
    targets = np.array([2, 5, 0, ignore, 3])

    def fwd(logits):
        loss, _, _ = criterion_forward_fused(logits, targets, alpha,
                                             ignore_index=ignore)
        return np.asarray(loss, dtype=np.float64)

    def core(dy, logits):
        _, _, q = criterion_forward_fused(logits, targets, alpha,
                                          ignore_index=ignore)
        return criterion_backward_fused(q, targets, alpha,
                                        ignore_index=ignore)

    # the cotangent multiply is host glue on the *result*, outside the
    # captured program (dy is a scalar-shaped array the program never
    # needs to dispatch on)
    _check(mode, "criterion_bwd", fwd, core,
           lambda rng: (rng.standard_normal((5, 7)),),
           bwd_from_core=lambda c: (lambda dy, logits: c(dy, logits) * dy),
           constants=(targets,), eps=1e-6, rtol=1e-4, atol=1e-7)


def _flash_qkv(rng, lq, lk, dh=4):
    return (rng.standard_normal((1, 2, lq, dh)),
            rng.standard_normal((1, 2, lk, dh)),
            rng.standard_normal((1, 2, lk, dh)))


@pytest.mark.parametrize("geometry", ["single_tile", "multi_tile",
                                      "multi_tile_causal"])
def test_gradcheck_flash_attn_backward(mode, geometry):
    """The tiled attention backward (probs recomputed per tile, dq/dk/dv
    accumulated tile-wise) against finite differences of its own forward —
    in both the bitwise single-tile branch and the general streaming loop,
    eager and replayed."""
    lq, lk, tile, causal = {
        "single_tile":       (6, 6, 64, False),
        "multi_tile":        (10, 12, 4, False),
        "multi_tile_causal": (12, 12, 4, True),
    }[geometry]
    scale = 0.5

    def fwd(q, k, v):
        return flash_attn_forward(q, k, v, scale, None, 0.0, None,
                                  causal=causal, tile_q=tile, tile_k=tile)[0]

    def core(dy, q, k, v):
        o, stats, seed = flash_attn_forward(
            q, k, v, scale, None, 0.0, None, causal=causal,
            tile_q=tile, tile_k=tile)
        return flash_attn_backward(dy, q, k, v, o, stats, seed, scale,
                                   None, 0.0, causal=causal,
                                   tile_q=tile, tile_k=tile)

    _check(mode, f"flash_attn_bwd[{geometry}]", fwd, core,
           lambda rng: _flash_qkv(rng, lq, lk),
           eps=1e-6, rtol=1e-4, atol=1e-7)


def test_gradcheck_flash_attn_backward_dropout():
    """Dropout on: the backward regenerates keep-masks from the saved seed
    (counter-based RNG) rather than storing them.  Eager only — a captured
    program would bake the *advancing* Generator in as a constant, so the
    replayed forward draws a different seed than the numeric one."""
    p, scale, tile = 0.25, 0.5, 4

    def fwd(q, k, v):
        # a fresh fixed-seed rng per call: every forward evaluation draws
        # the same dropout seed, so finite differences see one function
        return flash_attn_forward(q, k, v, scale, None, p,
                                  np.random.default_rng(9),
                                  tile_q=tile, tile_k=tile)[0]

    def bwd(dy, q, k, v):
        o, stats, seed = flash_attn_forward(
            q, k, v, scale, None, p, np.random.default_rng(9),
            tile_q=tile, tile_k=tile)
        return flash_attn_backward(dy, q, k, v, o, stats, seed, scale,
                                   None, p, tile_q=tile, tile_k=tile)

    report = gradcheck("flash_attn_bwd[dropout]", fwd, bwd,
                       lambda rng: _flash_qkv(rng, 10, 10),
                       eps=1e-6, rtol=1e-4, atol=1e-7)
    assert report.passed, report.format()


def test_gradcheck_catches_broken_backward(mode):
    """A softmax backward missing the dot-product term must FAIL — in
    eager mode and just as loudly when replayed from a captured program."""

    def broken_bwd(dy, x):
        return softmax_backward_fused(x, softmax_forward_fused(x))  # wrong

    bwd = capture_callable(broken_bwd) if mode == "replay" else broken_bwd
    if mode == "replay":
        rng = np.random.default_rng(0)
        bwd(rng.standard_normal((2, 6)), rng.standard_normal((2, 6)))

    report = gradcheck(
        "softmax_bwd_broken", softmax_forward_fused, bwd,
        lambda rng: (rng.standard_normal((2, 6)),),
        eps=1e-6, rtol=1e-4, atol=1e-7)
    assert not report.passed
    assert report.max_abs_err > 1e-3


def test_gradcheck_rejects_gradless_signatures():
    with pytest.raises(ValueError):
        gradcheck("no_inputs", lambda t: t.astype(np.float64),
                  lambda dy, t: dy, lambda rng: (np.arange(3),))
