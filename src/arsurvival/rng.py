"""Reproducible random number streams, and the one statement of their layout.

Stream (seed, i) is the fixed sequence of uniforms

    u_j = min(((philox4x64_10((i, j//4, 0, 0), key=(seed, 0))[j % 4] >> 11) + 0.5) * 2^-53,
              1 - 2^-53)

in [U_MIN, U_MAX] = [2^-54, 1 - 2^-53], strictly inside (0, 1).  Philox4x64
with 10 rounds is the keyed bijection behind ``numpy.random.Philox``, and
``philox_block`` is tested bit-for-bit against it.  Because u_j is a pure
function of (seed, i, j), results are bit-identical regardless of how work
is chunked or spread over workers, and independent streams are derived by
index rather than by splitting state.  ``RNG_PROVENANCE`` records this
layout in every curve file.

Block j//4 of consecutive streams sits at consecutive counters, so
``path_uniform_block`` draws one block of a dense set from numpy's C Philox
and several blocks ahead of a sparse set from the vectorized
``philox_block``, and the width of its result says how many.  Both give the
same words, so the choice never changes a draw.  The dense route makes its
uniforms in C as well: ``Generator.random`` gives (w >> 11) * 2^-53 of the
same words w, and ``_open_interval``, the one map from there to u_j, adds
2^-54, which rounds as ((w >> 11) + 0.5) * 2^-53 does: scaling by a power
of two is exact.  The module keeps no state: the dense route works in the
``refill_buffer`` its caller owns, so a refill allocates no array of its size.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["path_uniform_block", "refill_buffer", "RNG_PROVENANCE", "U_MIN", "U_MAX"]

RNG_PROVENANCE = ("philox4x64-10 counter mode; key = (seed, 0); "
                  "draw j of path i = lane j%4 of counter (i, j//4, 0, 0); "
                  "uniform = min(((word >> 11) + 0.5) * 2^-53, 1 - 2^-53); "
                  "inverse-cdf transform")

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
# key increments per round, as Python ints so the schedule wraps without warnings
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_M64 = 1 << 64
_MASK64 = _M64 - 1
_MASK256 = (1 << 256) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)

# low/high 32-bit halves of the two round multipliers
_M0L = np.uint64(_M0 & _MASK32)
_M0H = np.uint64(_M0 >> _S32)
_M1L = np.uint64(_M1 & _MASK32)
_M1H = np.uint64(_M1 >> _S32)

ROUNDS = 10

# 2**-53; uniforms are ((word >> 11) + 0.5) * 2**-53, open on both ends
_U53 = np.float64(1.0 / 9007199254740992.0)

# the smallest and the largest uniform words_to_uniform returns: top 53 bits
# all zero give 2^-54, and all ones would round to 1.0 and are clamped
U_MIN = 2.0 ** -54
U_MAX = 1.0 - 2.0 ** -53

# C Philox makes words about 5x faster than the vectorized one (4-6x with
# the look-ahead, measured at live shares 1/8 to 1/4 of 50k- and 64k-path
# spans) but also draws the dead streams inside the span, so it pays while
# at least this share of the span is live; simulations ran no faster with
# 1/5, 1/4 or 1/3 in its place
_DENSE_SHARE = 1 / 6

# words a sparse call may draw ahead: per-call overhead dominates small live
# sets, and a 2^18-word buffer was slower than 2^16 on the integrated walk
_LOOKAHEAD_WORDS = 1 << 16


def _mulhilo(ml, mh, c, t1, t2, t3, hi):
    """hi/lo words of the 128-bit product (ml + 2^32*mh) * c.

    ml/mh are uint64 scalars (halves of a multiplier constant), c a uint64
    array.  Scratch arrays t1/t2/t3/hi must have c's shape.  Returns
    (hi, lo); lo is freshly allocated, hi is the passed buffer.
    """
    np.bitwise_and(c, _MASK32, out=t1)      # cl
    np.right_shift(c, _S32, out=t2)         # ch
    np.multiply(ml, t1, out=t3)             # ml*cl
    np.right_shift(t3, _S32, out=t3)
    np.multiply(ml, t2, out=hi)             # ml*ch
    np.bitwise_and(hi, _MASK32, out=t2)
    np.add(t3, t2, out=t3)
    np.multiply(mh, t1, out=t2)             # mh*cl
    np.add(t3, t2, out=t3)                  # mid = mh*cl + (ml*cl >> 32) + (ml*ch & mask)
    np.right_shift(t3, _S32, out=t3)
    np.right_shift(hi, _S32, out=hi)        # (ml*ch) >> 32
    np.add(hi, t3, out=hi)
    np.right_shift(c, _S32, out=t1)         # ch again (t1 was clobbered)
    np.multiply(mh, t1, out=t2)             # mh*ch
    np.add(hi, t2, out=hi)
    lo = c * (ml + (mh << _S32))            # wrapping low word
    return hi, lo


def philox_block(c0, c1, seed):
    """Evaluate Philox4x64-10 at counter (c0, c1, 0, 0) under key (seed, 0).

    ``c0`` and ``c1`` broadcast against each other; ``seed`` is one scalar in
    [0, 2^64), so round r uses the scalar key (seed + r W0, r W1) mod 2^64.
    The result is a uint64 array of the broadcast shape plus a last axis
    holding the four output lanes.
    """
    seed = int(np.uint64(seed))
    c0, c1 = (np.asarray(v, np.uint64) for v in (c0, c1))
    shape = np.broadcast_shapes(c0.shape, c1.shape)
    c0 = np.broadcast_to(c0, shape).astype(np.uint64)
    c1 = np.broadcast_to(c1, shape).astype(np.uint64)
    c2 = np.zeros(shape, np.uint64)
    c3 = np.zeros(shape, np.uint64)
    t1 = np.empty(shape, np.uint64)
    t2 = np.empty(shape, np.uint64)
    t3 = np.empty(shape, np.uint64)
    h0 = np.empty(shape, np.uint64)
    h1 = np.empty(shape, np.uint64)
    for r in range(ROUNDS):
        k0 = np.uint64((seed + r * _W0) % _M64)
        k1 = np.uint64(r * _W1 % _M64)
        hi0, lo0 = _mulhilo(_M0L, _M0H, c0, t1, t2, t3, h0)
        hi1, lo1 = _mulhilo(_M1L, _M1H, c2, t1, t2, t3, h1)
        np.bitwise_xor(hi1, c1, out=hi1)
        np.bitwise_xor(hi1, k0, out=hi1)
        np.bitwise_xor(hi0, c3, out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        # old counter buffers become next round's scratch
        c0, c1, c2, c3, h0, h1 = hi1, lo1, hi0, lo0, c0, c2
    out = np.empty(shape + (4,), np.uint64)
    for lane, word in enumerate((c0, c1, c2, c3)):
        out[..., lane] = word
    return out


def _open_interval(u):
    """Turn (w >> 11) * 2^-53 into ((w >> 11) + 0.5) * 2^-53, clamped to U_MAX, in place."""
    u += U_MIN
    # (2^53 - 1) + 0.5 rounds to 2^53, which would give exactly 1.0
    return np.minimum(u, U_MAX, out=u)


def words_to_uniform(words):
    """Map uint64 words to float64 uniforms in [U_MIN, U_MAX], strictly inside (0, 1)."""
    u = (words >> _S11).astype(np.float64)
    u *= _U53
    return _open_interval(u)


def refill_buffer(paths: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense route's buffer for ids inside a range of ``paths``: 4 floats per
    path for its result and 4 for its span's draws.  The second array is idle
    once a call returns, and no result of a call given this buffer is larger,
    so a caller may write a block of that size there.  Two arrays, not one
    twice the size: glibc raises its mmap threshold to the largest block
    freed, which would change how fast the rest of the process allocates
    large arrays."""
    return np.empty(4 * paths), np.empty(4 * paths)


def _dense_uniforms(seed: int, ids: np.ndarray, block: int,
                    result: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Uniforms of ``block`` for ascending ``ids``, drawn over their whole span by C Philox.

    numpy's Philox adds one to the 256-bit counter (c0 first, then carries)
    before each output block, so starting from (ids[0], block) - 1 yields
    the counters (ids[0], block), (ids[0] + 1, block), ... in order.
    (result, draws) is a ``refill_buffer`` of the span at least; the (len(ids),
    4) result is a view of the front of ``result``, and a span with gaps is
    drawn into ``draws`` before its live rows are gathered.
    """
    lo = int(ids[0])
    span = int(ids[-1]) - lo + 1
    start = (lo + (block << 64) - 1) & _MASK256
    gen = Generator(Philox(key=np.array([seed, 0], np.uint64), counter=start))
    u = result[:4 * ids.size].reshape(ids.size, 4)
    if span == ids.size:
        gen.random(out=result[:4 * span])
    else:
        whole = draws[:4 * span]
        gen.random(out=whole)
        # mode "clip" writes straight into u; "raise" would buffer a copy
        np.take(whole.reshape(span, 4), (ids - np.uint64(lo)).astype(np.intp),
                axis=0, out=u, mode="clip")
    return _open_interval(u)


def path_uniform_block(seed: int, path_ids: np.ndarray, step: int,
                       steps_left: int, out: tuple) -> np.ndarray:
    """Draws ``step`` onwards of many streams at once, whole counter blocks at a time.

    ``step`` is a multiple of 4, the first draw of block step//4.  Row i of
    the ``(len(path_ids), 4 * k)`` result holds draws step .. step + 4k - 1
    of stream (seed, path_ids[i]); ``path_ids`` must ascend.  k is 1 on the
    dense route, whose cost is per block anyway, and on the sparse route
    enough for about 2^16 words, at most the blocks that ``steps_left``
    draws reach into and the words an array of ``out`` holds.  The dense
    route works in ``out``, a ``refill_buffer`` of the span ids[0]..ids[-1]
    at least, and returns a view of its first array; the sparse route
    returns a new array.
    """
    ids = np.asarray(path_ids, dtype=np.uint64)
    if ids.size == 0:
        return np.empty((0, 4), np.float64)
    seed = int(seed) & _MASK64
    block = (int(step) >> 2) & _MASK64
    span = int(ids[-1]) - int(ids[0]) + 1
    if ids.size >= _DENSE_SHARE * span:
        return _dense_uniforms(seed, ids, block, *out)
    words = min(_LOOKAHEAD_WORDS, out[1].size)
    k = max(1, min(words // (4 * ids.size), -(-steps_left // 4)))
    blocks = np.uint64(block) + np.arange(k, dtype=np.uint64)
    u = words_to_uniform(philox_block(ids[:, None], blocks[None, :], np.uint64(seed)))
    return u.reshape(ids.size, 4 * k)
