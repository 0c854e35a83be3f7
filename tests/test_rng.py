import numpy as np
import pytest
from numpy.random import Philox

from arsurvival._philox import philox_block, uniform_run
from arsurvival.rng import RNGStream, _dense_words, path_uniform_block

M64 = 2**64


def numpy_words(seed, path, block):
    """numpy's Philox4x64-10 at counter (path, block, 0, 0), key (seed, 0).

    numpy adds one to its 256-bit counter before each output block, so it
    starts one below the wanted counter.
    """
    counter = (path + (block << 64) - 1) % 2**256
    key = np.array([seed % M64, 0], dtype=np.uint64)
    return Philox(key=key, counter=counter).random_raw(4)


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
])
def test_counter_carry_edges_match_numpy(seed, path, block):
    ref = (((numpy_words(seed, path, block) >> np.uint64(11)).astype(np.float64) + 0.5)
           * 2.0**-53)
    ids = np.array([path], dtype=np.uint64)
    assert (path_uniform_block(seed, ids, block) == ref).all()
    expect = numpy_words(seed, path, block)
    assert (_dense_words(seed % M64, ids, block) == expect).all()
    assert (philox_block(ids, np.uint64(block), seed % M64) == expect).all()


@pytest.mark.parametrize("ids", [
    np.arange(1000, 1400),
    np.array([0, 1, 5, 6, 7, 40, 41, 300]),
    np.array([2**64 - 3, 2**64 - 1]),
    np.array([123456]),
], ids=["contiguous", "gappy", "top", "single"])
def test_dense_and_sparse_evaluators_agree(ids):
    ids = ids.astype(np.uint64)
    for seed, block in [(0, 0), (99, 3), (2**64 - 1, 2**40)]:
        dense = _dense_words(seed, ids, block)
        assert dense.shape == (ids.size, 4)
        assert (dense == philox_block(ids, np.uint64(block), seed)).all()


def test_philox_vectorized_consistent_with_scalar():
    blocks = np.arange(1, 200, dtype=np.uint64)
    words = philox_block(np.uint64(6), blocks, 5)
    for i, b in enumerate(blocks):
        assert (words[i] == philox_block(np.uint64(6), np.uint64(b), 5)).all()


def test_uniforms_open_interval_and_deterministic():
    u = uniform_run(123, 45, 0, 10_000)
    assert ((u > 0.0) & (u < 1.0)).all()
    assert (u == uniform_run(123, 45, 0, 10_000)).all()
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_run_slices_blocks_consistently():
    whole = uniform_run(9, 1, 0, 40)
    assert (uniform_run(9, 1, 7, 12) == whole[7:19]).all()
    assert uniform_run(9, 1, 13, 0).size == 0


def test_stream_cursor_matches_run():
    s = RNGStream(seed=77, stream=5)
    a = s.uniforms(7)
    b = s.uniforms(9)
    assert (np.concatenate([a, b]) == uniform_run(77, 5, 0, 16)).all()
    assert s.cursor == 16


def test_streams_are_independent_and_reproducible():
    u1 = RNGStream(1, 0).uniforms(256)
    u2 = RNGStream(1, 1).uniforms(256)
    u3 = RNGStream(2, 0).uniforms(256)
    assert (u1 != u2).any() and (u1 != u3).any()
    assert (RNGStream(1, 0).uniforms(256) == u1).all()


def test_path_uniform_block_matches_streams():
    # dense (all ten) and sparse (two far apart) id sets read the same streams
    for ids in (np.arange(10, dtype=np.uint64), np.array([3, 9000], np.uint64)):
        block = path_uniform_block(99, ids, 3)
        for row, i in zip(block, ids):
            expect = uniform_run(99, int(i), 12, 4)
            assert (row == expect).all()


def test_negative_seed_and_large_stream_wrap():
    s = RNGStream(seed=-1, stream=2**64 - 1)
    u = s.uniforms(8)
    assert ((u > 0) & (u < 1)).all()
    assert (u == uniform_run(2**64 - 1, 2**64 - 1, 0, 8)).all()
