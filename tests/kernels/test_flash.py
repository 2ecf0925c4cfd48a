"""Tiled (flash) attention kernels: bitwise small-L parity, causal tile
skipping, counter-based dropout regeneration, launch accounting.

The parity contract under test is the one ``backend/kernels/flash.py``
documents: when one tile covers the whole problem the kernels replay the
*exact* op order of the fused path, so results are bit-identical; with
multiple tiles only the summation tree changes, so results agree to
rounding.
"""

import numpy as np
import pytest

from repro.backend.device import Device, use_device
from repro.backend.kernels import flash, softmax


def _qkv(rng, b=2, n=2, lq=8, lk=8, dh=4, dtype=np.float32):
    q = rng.standard_normal((b, n, lq, dh)).astype(dtype)
    k = rng.standard_normal((b, n, lk, dh)).astype(dtype)
    v = rng.standard_normal((b, n, lk, dh)).astype(dtype)
    return q, k, v


def _fused_reference(q, k, v, scale, mask, p, dmask):
    """The fused kernel chain the flash kernels must match bitwise."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    probs_d, probs, _ = softmax.attn_softmax_dropout_forward_fused(
        scores, scale, mask, p, None, dmask=dmask)
    return np.matmul(probs_d, v), probs


class TestSingleTileBitwiseParity:
    """One tile covering the problem == the fused kernels, bit for bit."""

    def test_forward_no_dropout(self, rng):
        q, k, v = _qkv(rng)
        mask = (-1e9 * (rng.random((2, 1, 1, 8)) < 0.3)).astype(np.float32)
        o_ref, _ = _fused_reference(q, k, v, 0.5, mask, 0.0, None)
        o, stats, seed = flash.flash_attn_forward(
            q, k, v, 0.5, mask, 0.0, None, tile_q=64, tile_k=64)
        np.testing.assert_array_equal(o, o_ref)
        assert stats.shape == (2, 2, 8, 2)
        assert seed.dtype == np.uint64 and int(seed[1]) == 0

    def test_forward_with_dropout(self, rng):
        q, k, v = _qkv(rng)
        p = 0.3
        o, stats, seed = flash.flash_attn_forward(
            q, k, v, 0.5, None, p, np.random.default_rng(7),
            tile_q=64, tile_k=64)
        assert int(seed[1]) == 1
        dmask = flash.regen_dropout_mask(seed[0], 0, (2, 2, 8, 8), p)
        o_ref, _ = _fused_reference(q, k, v, 0.5, None, p, dmask)
        np.testing.assert_array_equal(o, o_ref)

    def test_backward_no_dropout(self, rng):
        q, k, v = _qkv(rng)
        d_o = rng.standard_normal(q.shape).astype(np.float32)
        o, stats, seed = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.0, None, tile_q=64, tile_k=64)
        _, probs = _fused_reference(q, k, v, 0.5, None, 0.0, None)
        # reference backward: the fused softmax backward sandwiched
        # between the two attention GEMM backwards
        d_probs = np.matmul(d_o, np.swapaxes(v, -1, -2))
        dv_ref = np.matmul(np.swapaxes(probs, -1, -2), d_o)
        ds = softmax.attn_softmax_dropout_backward_fused(
            d_probs, probs, None, 0.5, 0.0)
        dq_ref = np.matmul(ds, k)
        dk_ref = np.matmul(np.swapaxes(ds, -1, -2), q)
        dq, dk, dv = flash.flash_attn_backward(
            d_o, q, k, v, o, stats, seed, 0.5, None, 0.0,
            tile_q=64, tile_k=64)
        np.testing.assert_array_equal(dq, dq_ref)
        np.testing.assert_array_equal(dk, dk_ref)
        np.testing.assert_array_equal(dv, dv_ref)

    def test_backward_with_dropout(self, rng):
        q, k, v = _qkv(rng)
        p = 0.25
        d_o = rng.standard_normal(q.shape).astype(np.float32)
        o, stats, seed = flash.flash_attn_forward(
            q, k, v, 0.5, None, p, np.random.default_rng(3),
            tile_q=64, tile_k=64)
        dmask = flash.regen_dropout_mask(seed[0], 0, (2, 2, 8, 8), p)
        _, probs = _fused_reference(q, k, v, 0.5, None, p, dmask)
        d_probs_d = np.matmul(d_o, np.swapaxes(v, -1, -2))
        keep = np.float32(1.0 / (1.0 - p))
        pd = probs * (dmask * keep)
        dv_ref = np.matmul(np.swapaxes(pd, -1, -2), d_o)
        ds = softmax.attn_softmax_dropout_backward_fused(
            d_probs_d, probs, dmask, 0.5, p)
        dq_ref = np.matmul(ds, k)
        dk_ref = np.matmul(np.swapaxes(ds, -1, -2), q)
        dq, dk, dv = flash.flash_attn_backward(
            d_o, q, k, v, o, stats, seed, 0.5, None, p,
            tile_q=64, tile_k=64)
        np.testing.assert_array_equal(dq, dq_ref)
        np.testing.assert_array_equal(dk, dk_ref)
        np.testing.assert_array_equal(dv, dv_ref)


class TestMultiTile:
    def test_forward_matches_reference_to_rounding(self, rng):
        q, k, v = _qkv(rng, lq=20, lk=20)
        o_ref, _ = _fused_reference(q, k, v, 0.5, None, 0.0, None)
        o, _, _ = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.0, None, tile_q=8, tile_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-5, atol=1e-6)

    def test_ragged_final_tile(self, rng):
        """Lq/Lk not multiples of the tile edge: the last tile is short."""
        q, k, v = _qkv(rng, lq=13, lk=11)
        o_ref, _ = _fused_reference(q, k, v, 0.5, None, 0.0, None)
        o, _, _ = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.0, None, tile_q=5, tile_k=4)
        np.testing.assert_allclose(o, o_ref, rtol=1e-5, atol=1e-6)

    def test_stats_are_the_row_logsumexp_factors(self, rng):
        q, k, v = _qkv(rng, lq=16, lk=16)
        _, stats, _ = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.0, None, tile_q=4, tile_k=4)
        s = np.matmul(q, np.swapaxes(k, -1, -2)) * np.float32(0.5)
        m = s.max(axis=-1)
        lse = np.log(np.exp(s - m[..., None]).sum(axis=-1)) + m
        np.testing.assert_allclose(stats[..., 0], m, rtol=1e-6)
        np.testing.assert_allclose(
            np.log(stats[..., 1]) + stats[..., 0], lse, rtol=1e-5)


class TestCausal:
    def test_causal_flag_matches_materialised_mask(self, rng):
        """causal=True == passing the full (L, L) triangle, to rounding —
        without ever allocating it."""
        from repro.layers.attention import causal_mask
        q, k, v = _qkv(rng, lq=24, lk=24)
        tri = causal_mask(24)
        o_ref, _, _ = flash.flash_attn_forward(
            q, k, v, 0.5, np.asarray(tri), 0.0, None, tile_q=8, tile_k=8)
        o, _, _ = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.0, None, causal=True, tile_q=8, tile_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-5, atol=1e-6)

    def test_causal_backward_matches_materialised_mask(self, rng):
        from repro.layers.attention import causal_mask
        q, k, v = _qkv(rng, lq=24, lk=24)
        d_o = rng.standard_normal(q.shape).astype(np.float32)
        tri = np.asarray(causal_mask(24))
        o1, st1, sd1 = flash.flash_attn_forward(
            q, k, v, 0.5, tri, 0.0, None, tile_q=8, tile_k=8)
        ref = flash.flash_attn_backward(
            d_o, q, k, v, o1, st1, sd1, 0.5, tri, 0.0, tile_q=8, tile_k=8)
        o2, st2, sd2 = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.0, None, causal=True, tile_q=8, tile_k=8)
        got = flash.flash_attn_backward(
            d_o, q, k, v, o2, st2, sd2, 0.5, None, 0.0, causal=True,
            tile_q=8, tile_k=8)
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-6)

    def test_skip_tile_predicate(self):
        # tile rows [0, 8): any key tile starting at >= 8 is all-future
        assert flash._skip_tile(True, 8, 8)
        assert flash._skip_tile(True, 8, 16)
        assert not flash._skip_tile(True, 8, 7)
        assert not flash._skip_tile(False, 8, 16)

    def test_causal_tile_memoized_and_readonly(self):
        a = flash._causal_tile(8, 8, 0)
        b = flash._causal_tile(8, 8, 0)
        assert a is b and not a.flags.writeable
        # entirely on/below the diagonal: nothing to mask
        assert flash._causal_tile(8, 8, -8) is None

    def test_causal_skipping_prices_fewer_flops(self, rng):
        """Skipped tiles are never computed: the recorded launch carries
        roughly half the FLOPs of the non-causal pass."""
        q, k, v = _qkv(rng, lq=32, lk=32)
        dev = Device()
        with use_device(dev):
            flash.flash_attn_forward(q, k, v, 0.5, None, 0.0, None,
                                     tile_q=8, tile_k=8)
            flash.flash_attn_forward(q, k, v, 0.5, None, 0.0, None,
                                     causal=True, tile_q=8, tile_k=8)
        dense, causal = dev.launches
        assert causal.flops < 0.7 * dense.flops
        assert causal.elems_read < dense.elems_read


class TestDropoutRegeneration:
    def test_deterministic_per_seed_and_tile(self):
        a = flash.regen_dropout_mask(1234, 2, (1, 2, 8, 16), 0.3)
        b = flash.regen_dropout_mask(1234, 2, (1, 2, 8, 16), 0.3)
        c = flash.regen_dropout_mask(1234, 3, (1, 2, 8, 16), 0.3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.dtype == np.uint8

    def test_tile_size_invariance(self, rng):
        """The same seed drives identical keep decisions whatever the key
        tile edge — the mask is drawn per query tile at full width."""
        q, k, v = _qkv(rng, lq=8, lk=32)
        o1, _, s1 = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.4, np.random.default_rng(5),
            tile_q=8, tile_k=8)
        o2, _, s2 = flash.flash_attn_forward(
            q, k, v, 0.5, None, 0.4, np.random.default_rng(5),
            tile_q=8, tile_k=16)
        assert int(s1[0]) == int(s2[0])
        np.testing.assert_allclose(o1, o2, rtol=1e-5, atol=1e-6)

    def test_forward_requires_rng_when_dropping(self, rng):
        q, k, v = _qkv(rng)
        with pytest.raises(ValueError):
            flash.flash_attn_forward(q, k, v, 0.5, None, 0.1, None)


class TestLaunchAccounting:
    def test_one_launch_per_pass_family_attention(self, rng):
        q, k, v = _qkv(rng, lq=32, lk=32)
        dev = Device()
        with use_device(dev):
            o, stats, seed = flash.flash_attn_forward(
                q, k, v, 0.5, None, 0.0, None, tile_q=8, tile_k=8)
            flash.flash_attn_backward(
                np.ones_like(q), q, k, v, o, stats, seed, 0.5, None, 0.0,
                tile_q=8, tile_k=8)
        assert [k_.name for k_ in dev.launches] == \
            ["ls_flash_attn_fwd", "ls_flash_attn_bwd"]
        for launch in dev.launches:
            assert launch.is_gemm
            assert launch.family == "attention"

    def test_written_elems_are_linear_not_quadratic(self, rng):
        """The launch writes O + stats (+ seed) — O(L·Dh), never the L²
        probs tensor the fused path round-trips."""
        q, k, v = _qkv(rng, b=1, n=1, lq=64, lk=64, dh=4)
        dev = Device()
        with use_device(dev):
            flash.flash_attn_forward(q, k, v, 0.5, None, 0.0, None,
                                     tile_q=16, tile_k=16)
        (launch,) = dev.launches
        assert launch.elems_written == q.size + 64 * 2 + 2
        assert launch.elems_written < 64 * 64      # << the probs tensor

    @pytest.mark.parametrize("lq,lk,tq,tk,causal,padded", [
        (8, 8, 64, 64, False, False),     # one tile: both fast paths
        (8, 8, 64, 64, True, False),
        (24, 8, 8, 16, False, False),     # one key tile, three query tiles
        (32, 32, 8, 8, False, False),     # multi-tile
        (32, 32, 8, 8, True, False),      # causal, Lq == Lk
        (30, 30, 8, 8, True, False),      # causal with ragged last tiles
        (20, 27, 8, 8, False, False),     # ragged last tiles
        (16, 16, 8, 8, False, True),      # padding mask
    ])
    def test_recorded_launch_is_flash_launch_cost(self, rng, lq, lk, tq, tk,
                                                  causal, padded):
        b, n, dh = 2, 2, 4
        q, k, v = _qkv(rng, b=b, n=n, lq=lq, lk=lk, dh=dh)
        mask = ((-1e9 * (rng.random((b, 1, 1, lk)) < 0.3)).astype(np.float32)
                if padded else None)
        mask_elems = mask.size if padded else 0
        dev = Device()
        with use_device(dev):
            o, stats, seed = flash.flash_attn_forward(
                q, k, v, 0.5, mask, 0.0, None, causal=causal,
                tile_q=tq, tile_k=tk)
            flash.flash_attn_backward(
                np.ones_like(q), q, k, v, o, stats, seed, 0.5, mask, 0.0,
                causal=causal, tile_q=tq, tile_k=tk)
        fwd, bwd = dev.launches
        for launch, direction in ((fwd, "fwd"), (bwd, "bwd")):
            assert (launch.elems_read, launch.elems_written,
                    launch.flops) == flash.flash_launch_cost(
                direction, b * n, lq, lk, dh, tile_q=tq, tile_k=tk,
                causal=causal, mask_elems=mask_elems)
        if not causal:
            # every tile is processed: dense FLOPs, K/V read once per
            # query tile
            assert fwd.flops == b * n * lq * lk * (4 * dh + 8)
            assert bwd.flops == b * n * lq * lk * (10 * dh + 12)
            assert fwd.elems_read == (q.size + 2 * -(-lq // tq) * k.size
                                      + mask_elems)
