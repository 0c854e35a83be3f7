from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

from arsurvival import rng
from arsurvival.rng import (_dense_uniforms, _open_interval, path_uniform_block,
                            philox_block, refill_buffer, words_to_uniform)

M64 = 2**64


def draw(seed, ids, step, steps_left=1):
    """path_uniform_block in a buffer of its own, large enough for the span of
    ``ids`` and for the whole sparse look-ahead, so only steps_left caps it."""
    span = int(ids[-1]) - int(ids[0]) + 1
    return path_uniform_block(seed, ids, step, steps_left,
                              refill_buffer(max(span, rng._LOOKAHEAD_WORDS // 4)))


def numpy_words(seed, path, block):
    """numpy's Philox4x64-10 at counter (path, block, 0, 0), key (seed, 0).

    numpy adds one to its 256-bit counter before each output block, so it
    starts one below the wanted counter.
    """
    counter = (path + (block << 64) - 1) % 2**256
    key = np.array([seed % M64, 0], dtype=np.uint64)
    return Philox(key=key, counter=counter).random_raw(4)


def stream_uniforms(seed, path, n):
    """Draws 0..n-1 of stream (seed, path), cut from whole counter blocks."""
    blocks = np.arange(-(-n // 4), dtype=np.uint64)
    return words_to_uniform(philox_block(np.uint64(path), blocks, seed)).ravel()[:n]


@pytest.mark.parametrize("key", [(0, 0), (12345, 678), (2**64 - 1, 3), (42, 2**63)])
def test_philox_matches_numpy(key):
    seed, path = key
    for b in (0, 1, 2, 3, 17, 1000, 2**40, 2**64 - 1):
        ref = numpy_words(seed, path, b)
        assert (philox_block(np.uint64(path), np.uint64(b), seed) == ref).all()


def test_philox_block_zero_matches_numpy():
    # path 0 at block 0: numpy starts from the all-ones counter and wraps to 0
    full = Philox(counter=[2**64 - 1] * 4, key=[7, 0]).random_raw(4)
    assert (numpy_words(7, 0, 0) == full).all()
    assert (philox_block(np.uint64(0), np.uint64(0), 7) == full).all()


@pytest.mark.parametrize("seed, path, block", [
    (5, 0, 9),              # path 0 borrows from the block word
    (5, 0, 0),              # ... down to the all-ones counter
    (5, 2**64 - 1, 3),      # last path: the top of the c0 word
    (-1, 11, 2),            # seed -1 is key word 2^64 - 1
    (-1, 2**64 - 1, 0),     # ... with the last path, at blocks 0 and 1
    (-1, 2**64 - 1, 1),
])
def test_counter_carry_edges_match_numpy(seed, path, block):
    ref = (((numpy_words(seed, path, block) >> np.uint64(11)).astype(np.float64) + 0.5)
           * 2.0**-53)
    ids = np.array([path], dtype=np.uint64)
    assert (draw(seed, ids, 4 * block) == ref).all()
    expect = numpy_words(seed, path, block)
    assert (_dense_uniforms(seed % M64, ids, block, *refill_buffer(1))
            == words_to_uniform(expect)).all()
    assert (philox_block(ids, np.uint64(block), seed % M64) == expect).all()


@pytest.mark.parametrize("ids", [
    np.arange(1000, 1400),
    np.array([0, 1, 5, 6, 7, 40, 41, 300]),
    np.array([2**64 - 3, 2**64 - 1]),
    np.array([123456]),
], ids=["contiguous", "gappy", "top", "single"])
def test_dense_and_sparse_evaluators_agree(ids):
    ids = ids.astype(np.uint64)
    out = refill_buffer(int(ids[-1] - ids[0]) + 1)
    for seed, block in [(0, 0), (99, 3), (2**64 - 1, 2**40)]:
        dense = _dense_uniforms(seed, ids, block, *out)
        assert dense.shape == (ids.size, 4)
        sparse = words_to_uniform(philox_block(ids, np.uint64(block), seed))
        assert dense.tobytes() == sparse.tobytes()


def test_generator_random_is_shifted_words():
    # the dense route's premise: numpy's Generator.random gives (w >> 11) * 2^-53
    # of the very words random_raw gives, from a counter one below the first block
    key = np.array([2**64 - 1, 0], np.uint64)
    for counter in (0, 2**64 - 1, 2**200 + 12345):
        words = Philox(key=key, counter=counter).random_raw(4096)
        u = np.empty(4096)
        Generator(Philox(key=key, counter=counter)).random(out=u)
        assert u.tobytes() == ((words >> np.uint64(11)).astype(np.float64)
                               * 2.0**-53).tobytes()


def exact_uniforms(words):
    """min(((w >> 11) + 0.5) * 2^-53, 1 - 2^-53) of each word, rounded once from
    the exact value."""
    return np.array([min(float(Fraction(2 * (int(w) >> 11) + 1, 2**54)), 1.0 - 2.0**-53)
                     for w in words])


def test_open_interval_matches_words_to_uniform_at_edges():
    # 0 and 2^11 - 1 give U_MIN, 2^63 the tie at 0.5 + 2^-54, the top two U_MAX
    edges = np.array([0, 2**11 - 1, 2**63, (2**53 - 1) << 11, 2**64 - 1], np.uint64)
    assert exact_uniforms(edges).tolist() == [rng.U_MIN, rng.U_MIN, 0.5, rng.U_MAX, rng.U_MAX]
    words = np.concatenate([edges, np.random.default_rng(5).integers(
        0, 2**64, 10_000, dtype=np.uint64, endpoint=False)])
    expect = exact_uniforms(words).tobytes()
    assert words_to_uniform(words).tobytes() == expect
    # the dense route: Generator.random's (w >> 11) * 2^-53, then the same map
    shifted = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert _open_interval(shifted).tobytes() == expect
    ids = np.arange(40, 2540, dtype=np.uint64)
    dense = _dense_uniforms(3, ids, 7, *refill_buffer(ids.size))
    expect = exact_uniforms(philox_block(ids, np.uint64(7), 3).ravel()).tobytes()
    assert dense.tobytes() == expect


@pytest.mark.parametrize("ids", [
    np.arange(1000, 1400),                  # live == span: no gather
    np.arange(1000, 1400, 3),               # live < span: rows gathered
    np.array([2**64 - 3, 2**64 - 1]),
], ids=["whole-span", "gathered", "top"])
def test_dense_route_fills_the_callers_buffer(ids):
    ids = ids.astype(np.uint64)
    span = int(ids[-1] - ids[0]) + 1
    # the smallest buffer the route may be given, and a tile's larger one
    for out in (refill_buffer(span), refill_buffer(1400)):
        for seed, step in [(0, 0), (2**64 - 1, 4 * (2**64 - 1)), (77, 4 * 2**40)]:
            u = path_uniform_block(seed, ids, step, 1000, out=out)
            assert u.shape == (ids.size, 4)
            # the result is the front of the buffer's first array
            assert u.ctypes.data == out[0].ctypes.data and u.flags.c_contiguous
            expect = words_to_uniform(philox_block(ids, np.uint64(step // 4), seed))
            assert u.tobytes() == expect.tobytes()
            assert draw(seed, ids, step, 1000).tobytes() == expect.tobytes()


def test_philox_vectorized_consistent_with_scalar():
    blocks = np.arange(1, 200, dtype=np.uint64)
    words = philox_block(np.uint64(6), blocks, 5)
    for i, b in enumerate(blocks):
        assert (words[i] == philox_block(np.uint64(6), np.uint64(b), 5)).all()


def test_uniforms_open_interval_and_deterministic():
    u = stream_uniforms(123, 45, 10_000)
    assert ((u > 0.0) & (u < 1.0)).all()
    assert (u == stream_uniforms(123, 45, 10_000)).all()
    assert abs(u.mean() - 0.5) < 0.02


def test_top_words_map_below_one():
    # top 53 bits all ones: (2^53 - 1) + 0.5 rounds to 2^53, which must not give 1.0
    from scipy.special import ndtri

    u = words_to_uniform(np.array([2**64 - 1, 2**64 - 2**11], np.uint64))
    assert (u < 1.0).all() and (u == 1.0 - 2.0**-53).all()
    assert np.isfinite(ndtri(u)).all()
    assert words_to_uniform(np.array([0, 2**11 - 1], np.uint64)).tolist() == [2.0**-54] * 2


def test_streams_are_independent_and_reproducible():
    u1 = stream_uniforms(1, 0, 256)
    u2 = stream_uniforms(1, 1, 256)
    u3 = stream_uniforms(2, 0, 256)
    assert (u1 != u2).any() and (u1 != u3).any()
    assert (stream_uniforms(1, 0, 256) == u1).all()


def test_path_uniform_block_matches_streams():
    # dense (all ten) and sparse (two far apart) id sets read the same streams
    for ids in (np.arange(10, dtype=np.uint64), np.array([3, 9000], np.uint64)):
        block = draw(99, ids, 4 * 3)
        for row, i in zip(block, ids):
            expect = words_to_uniform(numpy_words(99, int(i), 3))
            assert (row == expect).all()


@pytest.mark.parametrize("ids", [
    np.arange(1000, 1400),
    np.array([3, 9000]),
    np.arange(0, 6000, 97),
    np.arange(0, 10**6, 10),
], ids=["dense", "two-far", "spread", "wide-sparse"])
@pytest.mark.parametrize("block, blocks_left", [
    (0, 1), (5, 3), (2**64 - 2, 5), (0, 300), (2**64 - 2, 300)])
def test_block_count_equals_single_blocks(ids, block, blocks_left):
    # the width is one block on the dense route and, on the sparse route,
    # about 2^16 words (at least one block, at most blocks_left); the k blocks
    # are what k one-block calls read, through the counter's wrap at 2^64 too
    ids = ids.astype(np.uint64)
    u = draw(31, ids, 4 * block, 4 * blocks_left)
    if ids.size >= rng._DENSE_SHARE * (int(ids[-1]) - int(ids[0]) + 1):
        k = 1
    else:
        k = max(1, min(rng._LOOKAHEAD_WORDS // (4 * ids.size), blocks_left))
    assert u.shape == (ids.size, 4 * k)
    singles = [draw(31, ids, 4 * (block + i)) for i in range(k)]
    assert all(s.shape == (ids.size, 4) for s in singles)
    assert u.tobytes() == np.concatenate(singles, axis=1).tobytes()


def test_sparse_width_fits_the_callers_buffer():
    # given a small tile's buffer, a sparse call draws no more words than an
    # array of it holds, so its result fits in the idle second array
    ids = np.arange(0, 3000, 10, dtype=np.uint64)
    out = refill_buffer(3000)
    u = path_uniform_block(31, ids, 0, 400, out=out)
    assert u.size <= out[1].size and u.shape[1] > 4
    assert u.tobytes() == draw(31, ids, 0, 400)[:, :u.shape[1]].tobytes()
