from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

from arsurvival import rng
from arsurvival.rng import (_dense_uniforms, _lookahead, _open_interval,
                            path_uniform_block, philox_block, refill_buffer,
                            words_to_uniform)

M64 = 2**64


def draw(seed, ids, step, steps_left=1):
    """path_uniform_block in a buffer of its own, made for the span of ``ids``."""
    span = int(ids[-1]) - int(ids[0]) + 1
    return path_uniform_block(seed, ids, step, steps_left, refill_buffer(span))


def expected_width(ids, step, steps_left):
    """4k for the one look-ahead rule: k = max(1, min(2^16 // (4 rows), ceil(steps_left
    / 4), step // 4)), where rows is the span on the dense route and the ids on the
    sparse one."""
    span = int(ids[-1]) - int(ids[0]) + 1
    rows = span if ids.size >= rng._DENSE_SHARE * span else ids.size
    return 4 * max(1, min(2**16 // (4 * rows), -(-steps_left // 4), step // 4))


def stream_words(seed, ids, block, k):
    """The (len(ids), 4k) uniforms of blocks block .. block + k - 1 (mod 2^64)."""
    blocks = np.uint64(block) + np.arange(k, dtype=np.uint64)
    return words_to_uniform(philox_block(ids[:, None], blocks[None, :], seed)).reshape(
        ids.size, 4 * k)


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


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_philox_broadcast_shapes_match_numpy(seed):
    # the rounds broadcast from the counters' own shapes: (n, 1) x (1, k) as the
    # sparse route passes them, the transpose, and a 0-d counter against a 1-d one,
    # on ids up to 2^64 - 1 and blocks that wrap from 2^64 - 1 to 0
    ids = np.array([0, 1, 7, 2**63, 2**64 - 2, 2**64 - 1], np.uint64)
    blocks = np.uint64(2**64 - 2) + np.arange(4, dtype=np.uint64)
    assert blocks.tolist() == [2**64 - 2, 2**64 - 1, 0, 1]
    expect = np.array([[numpy_words(seed, int(i), int(b)) for b in blocks] for i in ids])
    assert philox_block(ids[:, None], blocks[None, :], seed).tobytes() == expect.tobytes()
    assert (philox_block(blocks[None, :], ids[:, None], seed).tobytes()
            == np.array([[numpy_words(seed, int(b), int(i)) for b in blocks]
                         for i in ids]).tobytes())
    for i, row in zip(ids, expect):
        assert philox_block(i, blocks, seed).tobytes() == row.tobytes()
    for b, col in zip(blocks, expect.transpose(1, 0, 2)):
        assert philox_block(ids, b, seed).tobytes() == col.tobytes()


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
    assert (_dense_uniforms(seed % M64, ids, block, 1, *refill_buffer(1))
            == words_to_uniform(expect)).all()
    assert (philox_block(ids, np.uint64(block), seed % M64) == expect).all()


@pytest.mark.parametrize("ids", [
    np.arange(1000, 1400),
    np.array([0, 1, 5, 6, 7, 40, 41, 300]),
    np.array([2**64 - 3, 2**64 - 1]),
    np.array([123456]),
], ids=["contiguous", "gappy", "top", "single"])
def test_dense_and_sparse_evaluators_agree(ids):
    # one block, and k blocks gathered into the same (ids, 4k) layout, through
    # the block index's wrap from 2^64 - 1 to 0
    ids = ids.astype(np.uint64)
    span = int(ids[-1] - ids[0]) + 1
    out = refill_buffer(span)
    for k in (1, 2, 5):
        for seed, block in [(0, 0), (99, 3), (2**64 - 1, 2**40), (7, 2**64 - 2)]:
            dense = _dense_uniforms(seed, ids, block, k, *out)
            assert dense.shape == (ids.size, 4 * k)
            assert dense.tobytes() == stream_words(seed, ids, block, k).tobytes()


@pytest.mark.parametrize("ids", [
    np.array([2**64 - 3, 2**64 - 2, 2**64 - 1]),
    np.array([2**64 - 9, 2**64 - 8, 2**64 - 1]),
], ids=["whole-span", "gathered"])
@pytest.mark.parametrize("k", [3, 4])
def test_dense_look_ahead_wraps_the_block_index_like_numpy(ids, k):
    # blocks 2^64 - 2, 2^64 - 1, 0, ... on ids that end at 2^64 - 1: each is
    # numpy's own words at the wrapped counter (id, block mod 2^64, 0, 0)
    ids = ids.astype(np.uint64)
    block, seed = 2**64 - 2, 2**64 - 1
    u = _dense_uniforms(seed, ids, block, k, *refill_buffer(int(ids[-1] - ids[0]) + 1))
    for row, i in zip(u, ids):
        expect = [words_to_uniform(numpy_words(seed, int(i), (block + t) % M64))
                  for t in range(k)]
        assert row.tobytes() == np.concatenate(expect).tobytes()
    # numpy's 256-bit counter carries into the third word instead: advancing
    # from block 2^64 - 1 to the next one by 2^64 does not reach block 0
    bits = Philox(key=np.array([seed, 0], np.uint64),
                  counter=(int(ids[0]) + ((2**64 - 1) << 64) - 1))
    bits.advance(2**64)
    assert (bits.random_raw(4) != numpy_words(seed, int(ids[0]), 0)).any()


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
    dense = _dense_uniforms(3, ids, 7, 1, *refill_buffer(ids.size))
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
    # one block and a look-ahead of many, each in the smallest buffer the
    # route may be given and in a tile's larger one
    for steps_left in (4, 1000):
        for seed, step in [(0, 0), (2**64 - 1, 4 * (2**64 - 1)), (77, 4 * 2**40), (5, 500)]:
            for out in (refill_buffer(span), refill_buffer(1400)):
                u = path_uniform_block(seed, ids, step, steps_left, out=out)
                width = expected_width(ids, step, steps_left)
                assert u.shape == (ids.size, width) and u.size <= out[1].size
                # the result is the front of the buffer's first array
                assert u.ctypes.data == out[0].ctypes.data and u.flags.c_contiguous
                expect = stream_words(seed, ids, step // 4, width // 4)
                assert u.tobytes() == expect.tobytes()
                assert draw(seed, ids, step, steps_left).tobytes() == expect.tobytes()


@pytest.mark.parametrize("m", [rng._M0, rng._M1], ids=["M0", "M1"])
def test_mulhilo_is_the_128_bit_product(m):
    words = [0, 1, 2**32 - 1, 2**32, 2**63, M64 - 1]
    words += np.random.default_rng(29).integers(0, M64, 1000, dtype=np.uint64).tolist()
    c = np.array(words, np.uint64)
    hi, lo = rng._mulhilo(m, c)
    assert hi.tolist() == [(m * w) >> 64 for w in words]
    assert lo.tolist() == [(m * w) & (M64 - 1) for w in words]
    assert c.tolist() == words


@pytest.mark.filterwarnings("error")
def test_philox_block_leaves_its_inputs_untouched():
    ids = np.arange(5, 12, dtype=np.uint64)     # writable, as the walker's ids are
    blocks = np.arange(3, dtype=np.uint64)
    cases = [(ids[:, None], blocks[None, :]),   # as the sparse route passes them
             (np.broadcast_to(np.uint64(9), (4, 3)), blocks),    # read-only
             (np.uint64(6), np.uint64(2)),
             (np.array(6, np.uint64), np.array(2, np.uint64)),
             (ids, np.uint64(4)),               # one array the size of the result
             (np.uint64(6), blocks)]
    for c0, c1 in cases:
        before = (np.array(c0), np.array(c1))
        words = philox_block(c0, c1, 17)
        assert np.array_equal(c0, before[0]) and np.array_equal(c1, before[1])
        b0, b1 = np.broadcast_arrays(c0, c1)
        assert words.shape == b0.shape + (4,)
        for i in np.ndindex(b0.shape):
            assert (words[i] == numpy_words(17, int(b0[i]), int(b1[i]))).all()


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
    # both routes draw about 2^16 words ahead (at least one block, at most
    # blocks_left and at most block), the dense one counting its span and the
    # sparse one its ids; the k blocks are what k one-block calls read,
    # through the counter's wrap at 2^64 too
    ids = ids.astype(np.uint64)
    u = draw(31, ids, 4 * block, 4 * blocks_left)
    k = expected_width(ids, 4 * block, 4 * blocks_left) // 4
    assert u.shape == (ids.size, 4 * k)
    singles = [draw(31, ids, 4 * (block + i)) for i in range(k)]
    assert all(s.shape == (ids.size, 4) for s in singles)
    assert u.tobytes() == np.concatenate(singles, axis=1).tobytes()


def test_sparse_route_draws_into_the_first_array_only():
    # the walker keeps X and the lags in the buffer's second array, so a sparse
    # refill must return a view of the first and leave the second as it was
    ids = np.arange(0, 3000, 10, dtype=np.uint64)
    assert ids.size < rng._DENSE_SHARE * (int(ids[-1]) - int(ids[0]) + 1)
    out = refill_buffer(3000)
    out[1][:] = np.arange(out[1].size)
    kept = out[1].tobytes()
    for seed, step, steps_left in [(31, 0, 4), (31, 200, 200), (2**64 - 1, 4 * (2**64 - 2), 9)]:
        u = path_uniform_block(seed, ids, step, steps_left, out=out)
        assert u.ctypes.data == out[0].ctypes.data and u.flags.c_contiguous
        assert out[1].tobytes() == kept
        assert u.tobytes() == stream_words(seed, ids, step // 4, u.shape[1] // 4).tobytes()


def test_sparse_width_fits_the_callers_buffer():
    # given a small tile's buffer, a sparse call draws no more words than an
    # array of it holds, so its result fits in the idle second array
    ids = np.arange(0, 3000, 10, dtype=np.uint64)
    out = refill_buffer(3000)
    u = path_uniform_block(31, ids, 200, 200, out=out)
    assert u.size <= out[1].size and u.shape[1] > 4
    assert u.tobytes() == draw(31, ids, 200, 200)[:, :u.shape[1]].tobytes()


@pytest.mark.parametrize("paths, steps", [(1, 1), (10, 6), (10, 400), (3000, 20),
                                          (3000, 400), (20_000, 9)])
def test_every_width_fits_the_callers_buffer(paths, steps):
    # a range's buffer holds the words of any call on ids inside the range,
    # dense or sparse, so each result fits in the idle second array
    out = refill_buffer(paths)
    assert out[0].size == out[1].size == max(4 * paths, 2**16)
    half = max(1, -(-steps // 4) // 2)
    whole = np.arange(paths, dtype=np.uint64)
    for ids in (whole, whole[::10], whole[-1:], np.unique(whole[[0, -1]])):
        for step in sorted({0, 4, 4 * (half - 1), 4 * half, 4 * ((steps - 1) // 4)}):
            for steps_left in {1, 4, 5, steps - step}:
                if step + steps_left > steps:
                    continue
                u = path_uniform_block(31, ids, step, steps_left, out=out)
                span = int(ids[-1]) - int(ids[0]) + 1
                rows = span if ids.size >= rng._DENSE_SHARE * span else ids.size
                assert u.shape == (ids.size, expected_width(ids, step, steps_left))
                assert u.size <= out[1].size and rows * u.shape[1] <= out[1].size
    # no larger than needed: one block of the whole range fills it, or, when
    # that is less than 2^16 words, a span of 2^10 ids 16 blocks ahead does
    if 4 * paths >= 2**16:
        assert path_uniform_block(31, whole, 0, 4, out=out).size == out[1].size
    else:
        ids = np.arange(2**10, dtype=np.uint64)
        assert path_uniform_block(31, ids, 64, 64, out=out).size == out[1].size


def test_both_routes_take_one_look_ahead_rule():
    # _lookahead is the rule: the dense route counts the span, the sparse the
    # ids, and no call looks further ahead than the blocks before it
    for rows, steps_left, step, k in [
            (1, 10**6, 4 * 2**20, 2**14), (400, 1000, 4000, 40), (2**14, 10**6, 4000, 1),
            (2**14 + 1, 10**6, 4000, 1), (10, 6, 8, 2), (3, 1, 8, 1),
            (1, 10**6, 0, 1), (1, 10**6, 4, 1), (1, 10**6, 8, 2), (1, 10**6, 28, 7),
            (400, 1000, 64, 16)]:
        assert _lookahead(rows, steps_left, step) == k
    dense = np.arange(100, 500, 2, dtype=np.uint64)         # 200 of a 399-id span
    sparse = np.arange(0, 4000, 20, dtype=np.uint64)        # 200 of a 3981-id span
    out = refill_buffer(4000)
    for step in (0, 8, 400):
        assert (path_uniform_block(5, dense, step, 1000 - step, out).shape[1]
                == 4 * _lookahead(399, 1000 - step, step))
        assert (path_uniform_block(5, sparse, step, 1000 - step, out).shape[1]
                == 4 * _lookahead(200, 1000 - step, step))
