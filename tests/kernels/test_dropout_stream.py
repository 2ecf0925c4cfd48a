"""The dropout keep-mask stream against its oracle: one 32-bit word per
decision, thresholded exactly, at the right rate, per (seed, tile)."""

from math import prod

import numpy as np
import pytest
from numpy.random import PCG64

from repro.backend.kernels import elementwise as ew
from repro.backend.kernels import flash

from .oracles import keep_f64, keep_rate_sigma, raw_u32

TWO32 = 2.0 ** 32

#: exact multiples of 2**-32, tiny rates, and rates just below 1 (where the
#: integer threshold ceil(p * 2**32) reaches 2**32)
EDGE_P = [1 / TWO32, 2 / TWO32, 0.5, 12345 / TWO32, (TWO32 - 1) / TWO32,
          5e-324, 1e-12, 1.0 - 2.0 ** -33, np.nextafter(1.0, 0.0),
          0.1, 0.3]


class _Words:
    """A bit generator stand-in serving fixed raw 64-bit words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        assert size == len(self.words)
        return self.words


def _pack(u32):
    """64-bit words whose (low, high) halves are consecutive ``u32``."""
    u = np.asarray(u32, dtype=np.uint64)
    return u[0::2] | (u[1::2] << np.uint64(32))


@pytest.mark.parametrize("p", EDGE_P)
def test_threshold_exact_at_its_edges(p):
    """u >= ceil(p * 2**32) <=> u * 2**-32 >= p, on the words either side
    of the threshold and at both ends of the range."""
    t = int(np.ceil(p * TWO32))
    u = np.array(sorted({0, 1, 0xFFFFFFFE, 0xFFFFFFFF}
                        | {min(max(t + d, 0), 0xFFFFFFFF)
                           for d in (-2, -1, 0, 1)}), dtype=np.uint64)
    u = np.concatenate([u, u[:1]]) if len(u) % 2 else u
    got = ew.bernoulli_keep(_Words(_pack(u)), (len(u),), p)
    np.testing.assert_array_equal(got, keep_f64(u, p).astype(np.uint8))


@pytest.mark.parametrize("shape", [(7,), (2, 3, 5), (4, 16, 32)])
@pytest.mark.parametrize("p", EDGE_P)
def test_stream_matches_oracle(shape, p):
    """On a real generator, odd sizes included: element i spends the i-th
    32-bit word, the rest of the last 64-bit word is dropped."""
    got = ew.bernoulli_keep(PCG64(7), shape, p)
    assert got.dtype == np.uint8 and got.shape == shape
    want = keep_f64(raw_u32(PCG64(7), prod(shape)), p).reshape(shape)
    np.testing.assert_array_equal(got, want.astype(np.uint8))


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1e-3])
def test_keep_rate_within_6_sigma(p):
    n = (1 << 20) + 1
    rate = ew.bernoulli_keep(PCG64(11), (n,), p).mean(dtype=np.float64)
    assert abs(rate - (1.0 - p)) <= 6 * keep_rate_sigma(p, n)


def test_distinct_seed_tile_streams_differ():
    shape, p = (1, 2, 16, 64), 0.5
    keys = [(1, 0), (1, 1), (2, 0), (0, 1), (1, 2), (2, 1), (2 ** 63, 0)]
    masks = [flash.regen_dropout_mask(s, i, shape, p) for s, i in keys]
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            assert not np.array_equal(masks[a], masks[b]), (keys[a], keys[b])


@pytest.mark.parametrize("seed,tile", [(0, 0), (1234, 3), (2 ** 63 - 1, 7)])
def test_regen_is_bernoulli_keep_of_pcg64(seed, tile):
    shape, p = (2, 2, 8, 33), 0.1
    np.testing.assert_array_equal(
        flash.regen_dropout_mask(np.uint64(seed), tile, shape, p),
        ew.bernoulli_keep(PCG64([seed, tile]), shape, p))


def test_make_dropout_mask_draws_from_the_generator():
    """make_dropout_mask spends ceil(n/2) words of ``rng``'s own stream."""
    rng = np.random.default_rng(5)
    twin = np.random.default_rng(5)
    mask = ew.make_dropout_mask((3, 5), 0.2, rng)
    np.testing.assert_array_equal(
        mask, ew.bernoulli_keep(twin.bit_generator, (3, 5), 0.2))
    assert rng.integers(1 << 62) == twin.integers(1 << 62)
