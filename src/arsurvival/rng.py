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
``path_uniform_block`` draws the blocks ahead of a dense set from numpy's C
Philox, one counter run per block, and those of a sparse set from the
vectorized ``philox_block``; one rule, ``_lookahead``, says how many, and the
width of the result tells the caller.  A call looks no further ahead than
the blocks before it, so a walk that drops a path at the end of the call it
crossed in steps it no further than max(4, 2 tau), tau its crossing step.
Both routes give the same words, so the choice never changes a draw.  The
dense route makes its uniforms in C as well: ``Generator.random`` gives
(w >> 11) * 2^-53 of the same words w, and ``_open_interval``, the one map
from there to u_j, adds 2^-54, which rounds as ((w >> 11) + 0.5) * 2^-53
does: scaling by a power of two is exact.  The module keeps no state: the
dense route works in the ``refill_buffer`` its caller owns, so a refill
allocates no array of its size.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["path_uniform_block", "refill_buffer", "RNG_PROVENANCE", "U_MIN", "U_MAX"]

RNG_PROVENANCE = ("philox4x64-10 counter mode; key = (seed, 0); "
                  "draw j of path i = lane j%4 of counter (i, j//4, 0, 0); "
                  "uniform = min(((word >> 11) + 0.5) * 2^-53, 1 - 2^-53); "
                  "inverse-cdf transform")

# the two round multipliers and the key increments per round, as Python ints
# so that the products and the key schedule wrap without warnings
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1
_MASK32 = 0xFFFFFFFF
_S11 = np.uint64(11)

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

# words a call may draw ahead: per-call overhead dominates small live sets,
# and a 2^18-word buffer was slower than 2^16 on the integrated walk
_LOOKAHEAD_WORDS = 1 << 16


def _mulhilo(m, c):
    """(hi, lo): the high and low words of the 128-bit products m * c.

    ``m`` is a Python int in [0, 2^64) and ``c`` a 1-d uint64 array, which is
    only read.  The high word adds the four 32-bit partial products of
    m = mh 2^32 + ml and c = ch 2^32 + cl with their carries; the low word is
    the wrapping product.  The in-place steps write only arrays made here.
    """
    ml, mh = m & _MASK32, m >> 32
    cl = c & _MASK32
    ch = c >> 32
    mid = cl * ml
    mid >>= 32
    cl *= mh
    mid += cl                   # mh cl + (ml cl >> 32) < 2^64 - 2^32
    hi = ch * ml
    mid += hi & _MASK32         # + (ml ch mod 2^32) < 2^64
    mid >>= 32
    hi >>= 32
    hi += mid
    ch *= mh
    hi += ch
    return hi, c * m


def philox_block(c0, c1, seed):
    """Evaluate Philox4x64-10 at counter (c0, c1, 0, 0) under key (seed, 0).

    ``c0`` and ``c1`` broadcast against each other and are only read;
    ``seed`` is one scalar in [0, 2^64), so round r uses the scalar key
    (seed + r W0, r W1) mod 2^64.  The result is a uint64 array of the
    broadcast shape plus a last axis holding the four output lanes.  The
    rounds run on flat arrays, even for 0-d counters, since numpy warns
    when a product of scalars wraps but not when one of arrays does.
    """
    seed = int(np.uint64(seed))
    c0, c1 = (np.asarray(v, np.uint64) for v in (c0, c1))
    shape = np.broadcast_shapes(c0.shape, c1.shape)
    c0, c1 = (np.broadcast_to(v, shape).ravel() for v in (c0, c1))
    c2 = c3 = np.zeros(c0.size, np.uint64)
    for r in range(ROUNDS):
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        hi1 ^= c1
        hi1 ^= (seed + r * _W0) & _MASK64
        hi0 ^= c3
        hi0 ^= r * _W1 & _MASK64
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(shape + (4,))


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


def _lookahead(rows: int, steps_left: int, step: int) -> int:
    """Blocks a call from ``step`` on draws for ``rows`` counters per block: as
    many as 2^16 words hold, at most the blocks that ``steps_left`` draws reach
    into, no more than the ``step // 4`` blocks before it, and at least one.
    The dense route counts the span's counters, the sparse route the live ids.
    A walk's refills thus start at steps 0, 4, 8, 16, 32, ... until 2^16
    words cap them."""
    return max(1, min(_LOOKAHEAD_WORDS // (4 * rows), -(-steps_left // 4), step // 4))


def refill_buffer(paths: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The buffer for calls on ids inside a range of ``paths`` that end their
    draws by step ``steps``: two arrays, each of the most words such a call
    draws by ``_lookahead``.  That is one block of the range, or 2^16 words
    once a thinned span looks further ahead, but never more than half the
    blocks that ``steps`` reaches into, since a call looks no further ahead
    than the blocks before it.  The second array is idle once a call
    returns, and no result of a call given this buffer is larger, so a
    caller may write a block of that size there.  Two arrays, not one twice
    the size: glibc raises its mmap threshold to the largest block freed,
    which would change how fast the rest of the process allocates large
    arrays."""
    words = min(max(4 * paths, _LOOKAHEAD_WORDS), 4 * paths * max(1, -(-steps // 4) // 2))
    return np.empty(words), np.empty(words)


def _dense_uniforms(seed: int, ids: np.ndarray, block: int, k: int,
                    result: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Uniforms of blocks ``block`` .. ``block + k - 1`` (mod 2^64) for ascending
    ``ids``, drawn over their whole span by C Philox, one counter run per block.

    numpy's Philox adds one to the 256-bit counter (c0 first, then carries)
    before each output block, so a run that starts from (ids[0], b) - 1
    yields the counters (ids[0], b), (ids[0] + 1, b), ... in order.  Each run
    after the first advances the counter by the difference of the two starts
    mod 2^256, which wraps b from 2^64 - 1 to 0 as the layout does, where a
    plain advance would carry into the third word.  (result, draws) is a
    ``refill_buffer`` that holds k blocks of the span; the (len(ids), 4k)
    result is a view of the front of ``result``, and the runs are drawn into
    ``draws`` before the rows of ``ids`` are gathered, unless one block of a
    span without gaps can be drawn in place.
    """
    lo = int(ids[0])
    span = int(ids[-1]) - lo + 1
    starts = [(lo + (((block + t) & _MASK64) << 64) - 1) & _MASK256 for t in range(k)]
    bits = Philox(key=np.array([seed, 0], np.uint64), counter=starts[0])
    gen = Generator(bits)
    u = result[:4 * k * ids.size].reshape(ids.size, 4 * k)
    if k == 1 and span == ids.size:
        gen.random(out=u)
        return _open_interval(u)
    runs = draws[:4 * k * span].reshape(k, span, 4)
    gen.random(out=runs[0])
    for t in range(1, k):
        bits.advance((starts[t] - starts[t - 1] - span) & _MASK256)
        gen.random(out=runs[t])
    rows = (ids - np.uint64(lo)).astype(np.intp)[:, None] + span * np.arange(k)
    # mode "clip" writes straight into u; "raise" would buffer a copy
    np.take(runs.reshape(k * span, 4), rows, axis=0, out=u.reshape(rows.shape + (4,)),
            mode="clip")
    return _open_interval(u)


def path_uniform_block(seed: int, path_ids: np.ndarray, step: int,
                       steps_left: int, out: tuple) -> np.ndarray:
    """Draws ``step`` onwards of many streams at once, whole counter blocks at a time.

    ``step`` is a multiple of 4, the first draw of block step//4.  Row i of
    the ``(len(path_ids), 4 * k)`` result holds draws step .. step + 4k - 1
    of stream (seed, path_ids[i]); ``path_ids`` must be non-empty and
    ascend.  k is ``_lookahead`` of the counters drawn per block, the span
    ids[0]..ids[-1] on the dense route and the ids on the sparse one, and of
    ``step``: a call looks no further ahead than the steps before it.
    ``out`` is a ``refill_buffer`` of a range that holds the ids, made for
    ``step + steps_left`` steps or more; the dense route works in it and
    returns a view of its first array, and the sparse route returns a new
    array.
    """
    ids = np.asarray(path_ids, dtype=np.uint64)
    seed = int(seed) & _MASK64
    block = (int(step) >> 2) & _MASK64
    span = int(ids[-1]) - int(ids[0]) + 1
    if ids.size >= _DENSE_SHARE * span:
        return _dense_uniforms(seed, ids, block, _lookahead(span, steps_left, step), *out)
    k = _lookahead(ids.size, steps_left, step)
    blocks = np.uint64(block) + np.arange(k, dtype=np.uint64)
    u = words_to_uniform(philox_block(ids[:, None], blocks[None, :], np.uint64(seed)))
    return u.reshape(ids.size, 4 * k)
