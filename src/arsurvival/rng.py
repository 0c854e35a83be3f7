"""Reproducible random number streams.

Streams are counter-based: stream (seed, index) produces the fixed sequence

    u_j = ((philox4x64_10((index, j//4, 0, 0), key=(seed, 0))[j % 4] >> 11) + 0.5) * 2^-53

of uniforms on (0, 1).  Because u_j is a pure function of (seed, index, j),
results are bit-identical regardless of how work is chunked or spread over
workers, and independent streams are derived by index rather than by
splitting state.

Block j//4 of consecutive streams sits at consecutive counters, so
``path_uniform_block`` draws a dense set of streams from numpy's C Philox
in one call and evaluates a sparse set with the vectorized ``_philox``; both
give the same words.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

from ._philox import philox_block, words_to_uniform

__all__ = ["path_uniform_block"]

_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1

# C Philox makes words about 6x faster than the vectorized one but also
# draws the dead streams inside the span, so it pays while at least this
# share of the span is live
_DENSE_SHARE = 1 / 6


def _as_u64(value: int) -> int:
    return int(value) & _MASK64


def _dense_words(seed: int, ids: np.ndarray, block: int) -> np.ndarray:
    """Words of ``block`` for ascending ``ids``, drawn over their whole span by C Philox.

    numpy's Philox adds one to the 256-bit counter (c0 first, then carries)
    before each output block, so starting from (ids[0], block) - 1 yields
    the counters (ids[0], block), (ids[0] + 1, block), ... in order.
    """
    lo = int(ids[0])
    span = int(ids[-1]) - lo + 1
    start = (lo + (block << 64) - 1) & _MASK256
    key = np.array([seed, 0], np.uint64)
    words = Philox(key=key, counter=start).random_raw(4 * span).reshape(span, 4)
    if span == ids.size:
        return words
    return words[(ids - np.uint64(lo)).astype(np.intp)]


def path_uniform_block(seed: int, path_ids: np.ndarray, block: int) -> np.ndarray:
    """Uniform lanes of one counter block for many streams at once.

    Returns shape ``(len(path_ids), 4)``: row i holds draws 4*block .. 4*block+3
    of stream (seed, path_ids[i]).  ``path_ids`` must be ascending.  Used by
    the simulation engine, which walks streams in step with each other.
    """
    ids = np.asarray(path_ids, dtype=np.uint64)
    if ids.size == 0:
        return np.empty((0, 4), np.float64)
    seed = _as_u64(seed)
    block = _as_u64(block)
    span = int(ids[-1]) - int(ids[0]) + 1
    if ids.size >= _DENSE_SHARE * span:
        words = _dense_words(seed, ids, block)
    else:
        words = philox_block(ids, np.uint64(block), np.uint64(seed))
    return words_to_uniform(words)
