"""Reproducible random number streams.

Streams are counter-based: stream (seed, index) produces the fixed sequence

    u_j = min(((philox4x64_10((index, j//4, 0, 0), key=(seed, 0))[j % 4] >> 11) + 0.5) * 2^-53,
              1 - 2^-53)

of uniforms in [2^-54, 1 - 2^-53], strictly inside (0, 1).  Because u_j is
a pure function of (seed, index, j), results are bit-identical regardless of
how work is chunked or spread over workers, and independent streams are
derived by index rather than by splitting state.

Block j//4 of consecutive streams sits at consecutive counters, so
``path_uniform_block`` draws one block of a dense set from numpy's C Philox
and several blocks ahead of a sparse set from the vectorized ``_philox``,
and the width of its result says how many.  Both give the same words, so
the choice never changes a draw.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

from ._philox import philox_block, words_to_uniform

__all__ = ["path_uniform_block"]

_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1

# C Philox makes words about 5x faster than the vectorized one (4-6x with
# the look-ahead, measured at live shares 1/8 to 1/4 of 50k- and 64k-path
# spans) but also draws the dead streams inside the span, so it pays while
# at least this share of the span is live; simulations ran no faster with
# 1/5, 1/4 or 1/3 in its place
_DENSE_SHARE = 1 / 6

# words a sparse call may draw ahead: per-call overhead dominates small live
# sets, and a 2^18-word buffer was slower than 2^16 on the integrated walk
_LOOKAHEAD_WORDS = 1 << 16


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


def _is_dense(ids: np.ndarray) -> bool:
    return ids.size >= _DENSE_SHARE * (int(ids[-1]) - int(ids[0]) + 1)


def path_uniform_block(seed: int, path_ids: np.ndarray, block: int,
                       blocks_left: int = 1) -> np.ndarray:
    """Uniform lanes of k consecutive counter blocks for many streams at once.

    Row i of the ``(len(path_ids), 4 * k)`` result holds draws 4*block ..
    4*(block+k)-1 of stream (seed, path_ids[i]); ``path_ids`` must ascend.
    k is 1 on the dense route, whose cost is per block anyway, and on the
    sparse route enough for about 2^16 words, at most ``blocks_left``.
    """
    ids = np.asarray(path_ids, dtype=np.uint64)
    if ids.size == 0:
        return np.empty((0, 4), np.float64)
    seed = _as_u64(seed)
    block = _as_u64(block)
    if _is_dense(ids):
        return words_to_uniform(_dense_words(seed, ids, block))
    k = max(1, min(_LOOKAHEAD_WORDS // (4 * ids.size), blocks_left))
    blocks = np.uint64(block) + np.arange(k, dtype=np.uint64)
    u = words_to_uniform(philox_block(ids[:, None], blocks[None, :], np.uint64(seed)))
    return u.reshape(ids.size, 4 * k)
