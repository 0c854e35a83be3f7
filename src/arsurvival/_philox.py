"""Vectorized Philox4x64-10 counter-based random bits.

One block is the keyed bijection ``(c0, c1, c2, c3) -> 4 x uint64`` of
Philox4x64 with 10 rounds (the algorithm behind ``numpy.random.Philox``;
this implementation is tested bit-for-bit against it).  We only ever use
counters of the form ``(stream, block, 0, 0)`` and the key ``(seed, 0)``,
which gives every (seed, stream) pair an independent, randomly-accessible
sequence of 64-bit words:

    word[stream, 4*block + lane] = philox(counter=(stream, block, 0, 0), key=(seed, 0))[lane]

Random access is the point: a consumer may evaluate any (stream, index)
in any order, on any worker, and always sees the same bits.  Streams of
one block sit at consecutive counters, which is what lets ``rng`` draw a
run of them from numpy's C Philox in one call.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
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

    ``c0``, ``c1``, ``seed`` broadcast against each other; the result is a
    uint64 array of the broadcast shape plus a last axis holding the four
    output lanes.
    """
    c0, c1, k0 = (np.asarray(v, np.uint64) for v in (c0, c1, seed))
    shape = np.broadcast_shapes(c0.shape, c1.shape, k0.shape)
    c0 = np.broadcast_to(c0, shape).astype(np.uint64)
    c1 = np.broadcast_to(c1, shape).astype(np.uint64)
    c2 = np.zeros(shape, np.uint64)
    c3 = np.zeros(shape, np.uint64)
    k0 = np.broadcast_to(k0, shape).astype(np.uint64)
    k1 = np.zeros(shape, np.uint64)
    t1 = np.empty(shape, np.uint64)
    t2 = np.empty(shape, np.uint64)
    t3 = np.empty(shape, np.uint64)
    h0 = np.empty(shape, np.uint64)
    h1 = np.empty(shape, np.uint64)
    for r in range(ROUNDS):
        if r:
            np.add(k0, _W0, out=k0)
            np.add(k1, _W1, out=k1)
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


def words_to_uniform(words):
    """Map uint64 words to float64 uniforms strictly inside (0, 1)."""
    u = (words >> _S11).astype(np.float64)
    u += 0.5
    u *= _U53
    return u


def uniform_run(seed, stream, start, count):
    """``count`` consecutive uniforms of stream (seed, stream) from index ``start``.

    Draw index j lives in lane j % 4 of counter block j // 4, so arbitrary
    runs are cut out of whole blocks.
    """
    if count == 0:
        return np.empty(0, np.float64)
    b0 = start >> 2
    b1 = (start + count - 1) >> 2
    blocks = np.arange(b0, b1 + 1, dtype=np.uint64)
    words = philox_block(np.uint64(stream), blocks, np.uint64(seed))
    off = start - 4 * b0
    return words_to_uniform(words.ravel()[off:off + count])
