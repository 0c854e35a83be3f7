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

``path_uniform_block`` draws many streams at once by two routes that give
the same words: numpy's C Philox over a dense span of streams
(``_dense_uniforms``) and the vectorized ``philox_block`` over a sparse
set.  ``_lookahead`` says how many blocks a call draws, and
``refill_buffer`` makes the buffer that the caller owns for them: both
routes return their uniforms in its first array, so the module keeps no
state.
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

ROUNDS = 10

# 2**-53; uniforms are ((word >> 11) + 0.5) * 2**-53, open on both ends
_U53 = np.float64(1.0 / 9007199254740992.0)

# the smallest and the largest uniform words_to_uniform returns: top 53 bits
# all zero give 2^-54, and all ones would round to 1.0 and are clamped
U_MIN = 2.0 ** -54
U_MAX = 1.0 - 2.0 ** -53

# C Philox makes words about 5x faster than the vectorized one but also draws
# the dead streams inside the span, so it pays while at least this share of
# the span is live.  The dense route everywhere took the three mc_long_horizon
# configs from 0.73-0.84 s to 2.0-3.0 s.  Re-measured once the sparse rounds
# broadcast, in 20 s perfbench pairs: mc_long_horizon wall_ref_s 1.413 ->
# 1.396 at 1/4 (lower in 2 of 4 pairs) and 1.392 -> 1.409 at 1/3 (1 of 4),
# mc_wide_short 0.815 -> 0.776 and 0.779 -> 0.777 (3 and 1 of 3): no value
# wins on mc_long_horizon
_DENSE_SHARE = 1 / 6

# words a call may draw ahead: per-call overhead dominates small live sets,
# and a 2^18-word buffer was slower than 2^16 on the integrated walk
_LOOKAHEAD_WORDS = 1 << 16


def _mulhilo(m, c):
    """(hi, lo): the high and low words of the 128-bit products m * c.

    ``m`` is a Python int in [0, 2^64) and ``c`` a uint64 array of at least
    one dimension, which is only read.  The high word adds the four 32-bit
    partial products of m = mh 2^32 + ml and c = ch 2^32 + cl with their
    carries; the low word is the wrapping product.  The in-place steps write
    only arrays made here.
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
    rounds broadcast from c2 = c3 = 0 as one-word arrays, so only from round
    2 on are products of the broadcast shape, and run on counters made at
    least 1-d: numpy warns when a product of scalars wraps, not of arrays.
    """
    seed = int(np.uint64(seed))
    c0, c1 = (np.asarray(v, np.uint64) for v in (c0, c1))
    shape = np.broadcast_shapes(c0.shape, c1.shape)
    c0, c1 = np.atleast_1d(c0, c1)
    c2 = c3 = np.zeros(1, np.uint64)
    for r in range(ROUNDS):
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        # hi1 has the broadcast shape from round 2 on, hi0 from round 3 on
        c0 = np.bitwise_xor(hi1, c1, out=hi1 if r > 1 else None)
        c0 ^= (seed + r * _W0) & _MASK64
        c2 = np.bitwise_xor(hi0, c3, out=hi0 if r > 2 else None)
        c2 ^= r * _W1 & _MASK64
        c1, c3 = lo1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(shape + (4,))


def _open_interval(u):
    """Turn (w >> 11) * 2^-53 into ((w >> 11) + 0.5) * 2^-53, clamped to U_MAX, in place.

    ``Generator.random`` gives (w >> 11) * 2^-53 of its words w, and adding
    2^-54 rounds as the layout's map does, since scaling by a power of two
    is exact.
    """
    u += U_MIN
    # (2^53 - 1) + 0.5 rounds to 2^53, which would give exactly 1.0
    return np.minimum(u, U_MAX, out=u)


def words_to_uniform(words, out=None):
    """Map uint64 words to float64 uniforms in [U_MIN, U_MAX], strictly inside
    (0, 1), in a new array or in ``out``, a float64 array of their shape."""
    return _open_interval(np.multiply(words >> 11, _U53, out=out))


def _lookahead(rows: int, steps_left: int, step: int) -> int:
    """Blocks a call from ``step`` on draws for ``rows`` counters per block: as
    many as 2^16 words hold, at most the blocks that ``steps_left`` draws reach
    into, no more than the ``step // 4`` blocks before it, and at least one.
    The dense route counts the span's counters, the sparse route the live ids.
    A walk's refills thus start at steps 0, 4, 8, 16, 32, ... until 2^16
    words cap them, and a path dropped at the end of the refill it crossed
    in is stepped no further than max(4, 2 tau), tau its crossing step.  The
    ``step // 4`` cap cut ``mc_wide_short``'s ``wall_ref_s`` by 7%."""
    return max(1, min(_LOOKAHEAD_WORDS // (4 * rows), -(-steps_left // 4), step // 4))


def refill_buffer(paths: int) -> tuple[np.ndarray, np.ndarray]:
    """The buffer for calls on ids inside a range of ``paths``: two arrays,
    each of the most words ``_lookahead`` lets such a call draw, one block of
    the range or 2^16 words.  Both routes return a view of the first array,
    and only the dense route works in the second, which is idle once a call
    returns; no result of a call given this buffer is larger, so a caller
    may write a block of that size there.  Two arrays, not one twice the
    size: glibc raises its mmap threshold to the largest block freed, which
    would change how fast the rest of the process allocates large arrays
    (one array read +23.5% ``wall_ref_s`` and +31.5% ``setup_s`` on
    ``mc_long_horizon`` at an equal raw time)."""
    words = max(4 * paths, _LOOKAHEAD_WORDS)
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
    ``draws`` before the rows of ``ids`` are gathered.
    """
    lo = int(ids[0])
    span = int(ids[-1]) - lo + 1
    starts = [(lo + (((block + t) & _MASK64) << 64) - 1) & _MASK256 for t in range(k)]
    bits = Philox(key=np.array([seed, 0], np.uint64), counter=starts[0])
    gen = Generator(bits)
    u = result[:4 * k * ids.size].reshape(ids.size, 4 * k)
    if k == 1 and span == ids.size:
        # in place: 1.50 ms against 2.15 ms by the gather for 62,500 ids, and
        # every tile's first refill is such a span
        gen.random(out=u)
        return _open_interval(u)
    runs = draws[:4 * k * span].reshape(k, span, 4)
    gen.random(out=runs[0])
    # k > 1 serves R1's 400-path tiles, 137 of the 271 ms of an exact_analysis pass
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
    ascend.  k is ``_lookahead`` of ``step`` and of the counters drawn per
    block: the span ids[0]..ids[-1] on the dense route and the ids on the
    sparse one.  ``out`` is a ``refill_buffer`` of a range that holds the
    ids; both routes return a view of its first array, and only the dense
    route writes the second.
    """
    ids = np.asarray(path_ids, dtype=np.uint64)
    seed = int(seed) & _MASK64
    block = (int(step) >> 2) & _MASK64
    span = int(ids[-1]) - int(ids[0]) + 1
    if ids.size >= _DENSE_SHARE * span:
        return _dense_uniforms(seed, ids, block, _lookahead(span, steps_left, step), *out)
    k = _lookahead(ids.size, steps_left, step)
    blocks = np.uint64(block) + np.arange(k, dtype=np.uint64)
    u = out[0][:4 * k * ids.size].reshape(ids.size, k, 4)
    words_to_uniform(philox_block(ids[:, None], blocks[None, :], seed), out=u)
    return u.reshape(ids.size, 4 * k)
