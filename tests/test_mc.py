import json
import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arsurvival.coeffs import ar_params, ar_step
from arsurvival.innovations import (exponential_centered, gaussian, rademacher,
                                    two_point, uniform)
from arsurvival.mc import (ConstraintError, ReductionKind, SurvivalCurve,
                           _innovation_bound, _range_counts, _survival_level,
                           _tile_counts, _Walk,
                           estimate_survival, pair_survival_frequency,
                           pathwise_reduction_check)
from arsurvival.oracle import enumerate_survival
from arsurvival.rng import (_DENSE_SHARE, _lookahead, path_uniform_block, philox_block,
                            refill_buffer, words_to_uniform)

RW = ar_params([1.0])
IRW = ar_params([2.0, -1.0])
SIGNS = ((-1.0, 0.5), (1.0, 0.5))


class NonFiniteSampleError(ArithmeticError):
    """A reference path reached an indeterminate (NaN) state."""


def crossing_time_from_innovations(params, x, y) -> int:
    """First n with X_n > x for a given innovation sequence, len(y)+1 if none.

    The scalar reference that the vectorized engine is tested against, path
    for path.  Overflow resolves faithfully: +inf exceeds any finite
    barrier, -inf survives one; an indeterminate NaN state raises.
    """
    a, p = params.a, params.p
    state = [0.0] * p
    for n, yn in enumerate(np.asarray(y, dtype=float), start=1):
        xval = float(yn)
        for k in range(p):
            xval += a[k] * state[k]
        if math.isnan(xval):
            raise NonFiniteSampleError(f"X_{n} is indeterminate (NaN)")
        if xval > x:
            return n
        state.insert(0, xval)
        state.pop()
    return len(y) + 1


def innovations(spec, seed, ids, n):
    """Y[row, step] for steps 1..n of the given paths, straight from Philox."""
    blocks = np.arange(-(-n // 4), dtype=np.uint64)
    words = philox_block(ids[:, None], blocks[None, :], seed).reshape(ids.size, -1)
    return spec.transform(words_to_uniform(words))[:, :n]


def reference_tau(params, x, y) -> int:
    """The scalar reference's crossing time, or 0 for a path that goes NaN first."""
    try:
        return crossing_time_from_innovations(params, x, y)
    except NonFiniteSampleError:
        return 0


def step_counts(params, spec, x, n_max, seed, lo, hi) -> np.ndarray:
    """The engine's histogram of paths lo..hi-1 on the grid 1..n_max: bin n holds
    the paths that cross at step n, bin 0 the non-finite paths and bin n_max + 1
    the survivors, so it is the bincount of the reference's crossing times."""
    return _range_counts(params, spec, x, np.arange(1, n_max + 1), seed, lo, hi)


def reference_counts(taus, n_max) -> list:
    return np.bincount(taus, minlength=n_max + 2).tolist()


def record_refills(monkeypatch) -> list:
    """(ids, step, steps) of every refill the engine draws from now on."""
    from arsurvival import mc

    drawn = []

    def recorded(seed, ids, step, steps_left, out):
        u = path_uniform_block(seed, ids, step, steps_left, out)
        drawn.append((ids.copy(), step, min(u.shape[1], steps_left)))
        return u

    monkeypatch.setattr(mc, "path_uniform_block", recorded)
    return drawn


def path_values(params, y) -> np.ndarray:
    """X[row, n - 1] for every step of every row, walked on past any crossing."""
    lags = [np.zeros(len(y))] * params.p
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):
        for col in y.T:
            lags = [ar_step(params.a, col, lags)] + lags[:-1]
            cols.append(lags[0])
    return np.array(cols).T


def test_crossing_time_hand_cases():
    # random walk crosses 0 immediately on an up-tick
    assert crossing_time_from_innovations(RW, 0.0, [1.0, -1.0]) == 1
    # integrated walk with signs (-1, +1, +1, +1): partial sums of partial sums
    assert crossing_time_from_innovations(IRW, 0.0, [-1, 1, 1, 1, 1]) == 4
    # never crossing returns len + 1
    assert crossing_time_from_innovations(RW, 10.0, [1.0] * 5) == 6


def test_engine_never_crosses_large_barrier():
    counts = step_counts(ar_params([0.0]), two_point(1.0), 1e9, 50, 3, 0, 1)
    assert counts.tolist() == reference_counts([51], 50)


@pytest.mark.parametrize("a, spec, x", [
    ((0.5, 0.25), gaussian(), 0.0),
    ((2.0, -1.0), rademacher(), 0.0),       # lattice laws hit X_n = x exactly
    ((1.0, 1.0, -1.0), rademacher(), 1.0),
    ((0.5, -0.3), two_point(2.0), 0.5),
], ids=["ar2-gaussian", "iw-rademacher", "ar3-rademacher", "ar2-two_point"])
def test_engine_matches_scalar_reference(a, spec, x):
    # row i of the innovation matrix is stream (99, i), the engine's path i
    params = ar_params(a)
    counts = step_counts(params, spec, x, 64, 99, 0, 300)
    y = innovations(spec, 99, np.arange(300, dtype=np.uint64), 64)
    tau_scalar = np.array([crossing_time_from_innovations(params, x, row) for row in y])
    assert counts.tolist() == reference_counts(tau_scalar, 64)
    # a walk that keeps every row crosses first at the same step on every row
    walk = _Walk(params, spec, 99, 0, 300, 64, refill_buffer(300))
    crossed = []
    while walk.j < 64:
        xs, _ = walk.block()
        assert np.shares_memory(xs, walk.out[1])
        crossed.append(xs > x)
        walk.compact()
    crossed = np.concatenate(crossed).T
    tau_walk = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, 65)
    assert (tau_walk == tau_scalar).all()


@pytest.mark.parametrize("a, spec, x", [
    ((1.0,), gaussian(), 0.0),
    ((2.0, -1.0), rademacher(), 0.0),
    ((0.5, -0.3), two_point(2.0), 0.5),
], ids=["rw-gaussian", "iw-rademacher", "ar2-two_point"])
def test_engine_lookahead_matches_scalar_reference(monkeypatch, a, spec, x):
    # a horizon that ends inside a block, on a tile whose live set thins out
    # enough for the rng to draw many blocks per call
    drawn = record_refills(monkeypatch)
    n_max, lo, hi = 4 * 97 + 3, 500, 8700
    params = ar_params(a)
    counts = step_counts(params, spec, x, n_max, 99, lo, hi)
    y = innovations(spec, 99, np.arange(lo, hi, dtype=np.uint64), n_max)
    tau = np.array([crossing_time_from_innovations(params, x, row) for row in y])
    assert counts.tolist() == reference_counts(tau, n_max)
    # every refill's width is the one look-ahead rule's, on the route it took
    for ids, step, steps in drawn:
        span = int(ids[-1]) - int(ids[0]) + 1
        rows = span if ids.size >= _DENSE_SHARE * span else ids.size
        assert steps == min(4 * _lookahead(rows, n_max - step, step), n_max - step)
    ahead = [(step, step + steps) for _, step, steps in drawn if steps > 4]
    assert ahead
    # paths died before the last column of a look-ahead refill, and on the
    # last column of a refill before the horizon
    j = tau[tau <= n_max] - 1
    assert any(((start <= j) & (j < end - 1)).any() for start, end in ahead)
    assert np.isin(tau, [step + steps for _, step, steps in drawn[:-1]]).any()


def test_compact_keeps_each_live_paths_own_draws():
    # a tile thinned below the dense share takes the sparse route, whose
    # refills span many steps; after each compaction the next block's rows
    # are the kept paths' own draws, and X lies in the idle refill array
    params, spec, seed, n, x = RW, gaussian(), 99, 400, 0.0
    walk = _Walk(params, spec, seed, 0, 3000, n, refill_buffer(3000))
    walk.compact(np.arange(3000) % 10 == 0)
    ids0 = walk.ids
    tau = np.full(ids0.size, n + 1)
    widths = []
    while walk.ids.size and walk.j < n:
        j = walk.j
        xs, ys = walk.block()
        widths.append(len(xs))
        assert np.shares_memory(xs, walk.out[1])
        assert (ys == innovations(spec, seed, walk.ids, walk.j)[:, j:].T).all()
        crossed = (xs > x).any(axis=0)
        tau[np.searchsorted(ids0, walk.ids[crossed])] = j + 1 + (xs[:, crossed] > x).argmax(axis=0)
        walk.compact(~crossed)
    # a refill looks no further ahead than the walk has come
    assert widths[:3] == [4, 4, 8] and max(widths) > 8
    y = innovations(spec, seed, ids0, n)
    assert tau.tolist() == [crossing_time_from_innovations(params, x, row) for row in y]


def test_compact_by_one_index_keeps_ascending_ids_and_their_lags():
    params = ar_params([0.5, 0.25, 0.1])
    walk = _Walk(params, gaussian(), 3, 100, 1_100, 40, refill_buffer(1_000))
    walk.block()
    ids, lags = walk.ids.copy(), [lag.copy() for lag in walk.lags]
    live = np.random.default_rng(1).random(1_000) < 0.6
    walk.compact(live)
    assert walk.ids.tolist() == ids[live].tolist()
    assert (np.diff(walk.ids.astype(np.int64)) > 0).all()
    for kept, lag in zip(walk.lags, lags):
        assert kept.tobytes() == lag[live].tobytes()
        assert not np.shares_memory(kept, walk.out[1])


@pytest.mark.parametrize("a, spec, x, paths, n_max", [
    ((-0.4, -0.4), gaussian(), 0.0, 2_000, 40),
    ((1.0,), gaussian(), 0.0, 10, 4_096),
    ((1.0, 1.0), gaussian(), 0.0, 10, 1_024),
    # every path is held from the start, and leaves at the first block's end
    ((0.3, 0.2), uniform(-1.0, 1.0), 2.0, 600, 301),
], ids=["e1", "walk", "c1", "held-from-start"])
def test_no_path_is_walked_past_twice_its_crossing_step(monkeypatch, a, spec, x, paths,
                                                        n_max):
    # a refill looks no further ahead than the walk has come, so a path that
    # crosses at step tau is stepped to max(4, 2 tau) at most, and one that
    # survives to the horizon counts as tau = n_max
    params = ar_params(a)
    reached = np.zeros(paths, dtype=np.int64)
    real = _Walk.block

    def block(self):
        ids = self.ids.astype(np.intp)
        result = real(self)
        reached[ids] = self.j
        return result

    monkeypatch.setattr(_Walk, "block", block)
    counts = step_counts(params, spec, x, n_max, 5, 0, paths)
    y = innovations(spec, 5, np.arange(paths, dtype=np.uint64), n_max)
    tau = np.array([reference_tau(params, x, row) for row in y])
    assert counts.tolist() == reference_counts(tau, n_max)
    assert (reached <= np.maximum(4, 2 * np.minimum(tau, n_max))).all()
    if x == 2.0:
        assert (reached == 4).all()


def test_a_block_transforms_only_the_columns_it_walks(monkeypatch):
    # N = 6 ends inside the second block: its refill draws 4 columns and the
    # walk transforms and steps 2 of them
    from arsurvival.innovations import InnovationSpec

    transformed, walked = [], []
    real_transform, real_block = InnovationSpec.transform, _Walk.block

    def transform(self, u, out=None):
        transformed.append(u.size)
        return real_transform(self, u, out=out)

    def block(self):
        xs, ys = real_block(self)
        walked.append(xs.size)
        return xs, ys

    monkeypatch.setattr(InnovationSpec, "transform", transform)
    monkeypatch.setattr(_Walk, "block", block)
    pair_survival_frequency(ar_params([0.5, 0.25]), gaussian(), 6, 2_000, 9)
    assert transformed == walked == [8_000, 4_000]


def test_nan_inside_a_refill_after_or_before_a_crossing():
    # X_3 overflows to +-inf and X_4 = inf - inf is NaN, inside the first
    # refill (all 10 steps): a path that crossed at step 1 counts at step 1,
    # and one that went NaN before any crossing in the non-finite bin
    params, spec = ar_params([1e200, -1e200]), gaussian()
    counts = step_counts(params, spec, 0.0, 10, 3, 0, 300)
    y = innovations(spec, 3, np.arange(300, dtype=np.uint64), 10)
    tau = np.array([reference_tau(params, 0.0, row) for row in y])
    assert counts.tolist() == reference_counts(tau, 10)
    assert set(tau.tolist()) == {0, 1}
    assert np.isnan(path_values(params, y[tau == 1])[:, 3]).all()


class BlockWalk:
    """Hand-built X in place of a ``_Walk``, with no rng: the blocks are the
    rows of the time-major (steps, paths) array ``xs`` cut into runs of the
    given lengths, of the columns still walked.  ``kept`` lists the ids each
    compaction keeps; lags before step 1 are 0, as from the zero start."""

    def __init__(self, xs, lengths, p):
        self.xs = np.asarray(xs, dtype=float)
        self.ends = np.cumsum(lengths).tolist()
        self.p = p
        self.ids = np.arange(self.xs.shape[1])
        self.n_max = len(self.xs)
        self.j = 0
        self.lags = [np.zeros(self.ids.size)] * p
        self.kept = []

    def block(self):
        start, self.j = self.j, next(end for end in self.ends if end > self.j)
        cols = self.xs[:, self.ids]
        self.lags = [cols[self.j - 1 - k] if self.j > k else np.zeros(self.ids.size)
                     for k in range(self.p)]
        return cols[start:self.j], None

    def compact(self, live):
        self.ids = self.ids[live]
        self.lags = [lag[live] for lag in self.lags]
        self.kept.append(self.ids.tolist())


def hand_counts(xs, x, lengths=None, level=None, p=1):
    """``_tile_counts`` on hand-built blocks and the grid 1..steps: its
    histogram (bin n holds the paths leaving at step n, bin 0 the NaN paths,
    the last bin the survivors) and the ids kept at each block's end."""
    walk = BlockWalk(xs, lengths or [len(xs)], p)
    hist = np.zeros(len(xs) + 2, dtype=np.int64)
    _tile_counts(walk, x, level, np.arange(1, len(xs) + 1), hist)
    return hist.tolist(), walk.kept


def scanned_counts(xs, x, lengths=None, level=None, p=1):
    """The same by a scan of each path: its first step with X > x or NaN, or
    the first block end at which it is live with every lag <= level."""
    xs = np.asarray(xs, dtype=float)
    steps, paths = xs.shape
    ends = np.cumsum(lengths or [steps]).tolist()
    hist = [0] * (steps + 2)
    out = [math.inf] * paths    # the block end at which each path is dropped
    for i in range(paths):
        col = [0.0] * (p - 1) + xs[:, i].tolist()
        for n in range(1, steps + 1):
            v = col[n + p - 2]
            if math.isnan(v) or v > x:
                hist[0 if math.isnan(v) else n] += 1
                out[i] = next(end for end in ends if end >= n)
                break
            if n in ends and level is not None and max(col[n - 1:n + p - 1]) <= level:
                hist[-1] += 1
                out[i] = n
                break
        else:
            hist[-1] += 1
    # a block is walked while some path is left; each walked block keeps the
    # paths not dropped at or before its end
    walked = [end for k, end in enumerate(ends) if k == 0 or max(out) > ends[k - 1]]
    kept = [[i for i in range(paths) if out[i] > end] for end in walked]
    return hist, kept


nan, inf = math.nan, math.inf


@pytest.mark.parametrize("xs, x, lengths, level, p, hist, kept", [
    # X = x survives; crossings in the first row and in the last
    ([[0.0, 1.0, -1.0, -1.0],
      [0.0, -5.0, 0.5, -1.0]], 0.0, None, None, 1, [0, 1, 1, 2], [[0, 3]]),
    # +inf crosses, -inf does not
    ([[inf, -inf, 0.0],
      [-1.0, -1.0, inf]], 0.0, None, None, 1, [0, 1, 1, 1], [[1]]),
    # NaN in row 0, NaN before any crossing, NaN after a crossing in the first
    # row and in a later one, and a path that stays in
    ([[nan, -1.0, 2.0, -1.0, -1.0],
      [nan, nan, nan, 3.0, -1.0],
      [nan, nan, nan, nan, -1.0]], 0.0, None, None, 1, [2, 1, 1, 0, 1], [[4]]),
    # x = +inf: only the NaN paths leave, +inf itself stays in
    ([[1e308, inf, nan],
      [inf, nan, nan]], inf, None, None, 1, [2, 0, 0, 1], [[0]]),
    # x = -inf: every finite path leaves at row 0
    ([[-1e308, 0.0, 5.0],
      [-1.0, -1.0, -1.0]], -inf, None, None, 1, [0, 3, 0, 0], [[]]),
    # a one-row block
    ([[1.0, -1.0, nan]], 0.0, None, None, 1, [1, 1, 1], [[1]]),
    # a one-path block
    ([[-1.0], [-2.0], [3.0], [nan]], 0.0, None, None, 1, [0, 0, 0, 1, 0, 0], [[]]),
    # every path leaves in row 0
    ([[1.0, 2.0, 3.0],
      [-1.0, -1.0, -1.0]], 0.0, None, None, 1, [0, 3, 0, 0], [[]]),
    # order 2, level -10, blocks of two steps: paths 0 and 3 are held at the
    # first block's end and stay survivors whatever their rows say after it;
    # path 1's newer lag is above the level, so it is walked on and crosses
    ([[-20.0, -20.0, -1.0, -20.0],
      [-30.0, -5.0, -1.0, -20.0],
      [5.0, 5.0, 5.0, nan],
      [-1.0, -1.0, -1.0, -1.0]], 0.0, [2, 2], -10.0, 2, [0, 0, 0, 2, 0, 2], [[1, 2], []]),
], ids=["equal-first-last", "infinities", "nan", "x-plus-inf", "x-minus-inf",
        "one-row", "one-path", "all-leave-row-0", "held"])
def test_block_counts_on_hand_built_blocks(xs, x, lengths, level, p, hist, kept):
    assert hand_counts(xs, x, lengths, level, p) == (hist, kept)
    assert scanned_counts(xs, x, lengths, level, p) == (hist, kept)


@st.composite
def hand_built_walks(draw):
    steps, paths, p = (draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                       draw(st.integers(1, 3)))
    values = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, -inf, inf, nan])
    xs = np.array(draw(st.lists(st.lists(values, min_size=paths, max_size=paths),
                                min_size=steps, max_size=steps)))
    # NaN persists down a column, as ar_step makes it
    xs[np.maximum.accumulate(np.isnan(xs), axis=0)] = nan
    lengths = []
    while sum(lengths) < steps:
        lengths.append(draw(st.integers(1, steps - sum(lengths))))
    x = draw(st.sampled_from([-1.0, 0.0, 1.0, -inf, inf]))
    level = draw(st.sampled_from([None, -2.0, -1.0, 0.0]))
    return xs, x, lengths, level, p


@settings(max_examples=300, deadline=None)
@given(walk=hand_built_walks())
def test_block_counts_match_a_scan_of_each_path(walk):
    assert hand_counts(*walk) == scanned_counts(*walk)


def test_a_held_path_leaves_at_its_refills_end(monkeypatch):
    # mostly negative innovations sink paths below the level: those held at
    # the first refill's end draw no more, while a path that crossed and then
    # sank below the level inside that refill keeps its crossing time; the
    # first refill is one block, so that some paths are still live, and not
    # held, at its end
    drawn = record_refills(monkeypatch)
    params, spec, n_max, paths = ar_params([0.5, 0.6]), uniform(-100.0, 1.0), 50, 8_193
    level = _survival_level(params, spec, 0.0)
    assert level is not None
    counts = step_counts(params, spec, 0.0, n_max, 5, 0, paths)
    y = innovations(spec, 5, np.arange(paths, dtype=np.uint64), n_max)
    tau = np.array([reference_tau(params, 0.0, row) for row in y])
    assert counts.tolist() == reference_counts(tau, n_max)
    # the first refill is the dense route's on the whole tile
    w = min(4 * _lookahead(paths, n_max, 0), n_max)
    assert w == 4
    xs = path_values(params, y)
    held = np.maximum(xs[:, w - 2], xs[:, w - 1]) <= level
    assert ((tau <= w) & held).any()
    assert (drawn[0][2], drawn[1][1]) == (w, w)
    assert drawn[1][0].tolist() == np.flatnonzero((tau > w) & ~held).tolist()
    assert (tau[(tau > w) & held] == n_max + 1).all()


@pytest.mark.parametrize("a, spec, x", [
    ((1.0, 1.0), gaussian(), 0.0),
    ((1.0, 1.0), rademacher(), 0.0),
    ((0.5, 0.8, 0.3), uniform(-1.0, 1.0), 0.0),
    ((1.5,), exponential_centered(1.0), -0.5),
    # sum a < 1 and x above B / (1 - sum a): every path is held from the
    # start, so the tile draws its first refill (one block, 2,400 words) and stops
    ((0.3, 0.2), uniform(-1.0, 1.0), 2.0),
], ids=["c1-gaussian", "c1-rademacher", "ar3-uniform", "ar1-exponential",
        "stable-uniform"])
def test_certified_paths_keep_their_crossing_times(monkeypatch, a, spec, x):
    from arsurvival import mc

    params, n_max, lo, hi = ar_params(a), 301, 100, 700
    assert _survival_level(params, spec, x) is not None
    words = []

    def counted(seed, ids, step, steps_left, out):
        u = path_uniform_block(seed, ids, step, steps_left, out)
        words.append(u.size)
        return u

    monkeypatch.setattr(mc, "path_uniform_block", counted)
    counts = step_counts(params, spec, x, n_max, 5, lo, hi)
    certified = words.copy()
    y = innovations(spec, 5, np.arange(lo, hi, dtype=np.uint64), n_max)
    tau = [crossing_time_from_innovations(params, x, row) for row in y]
    assert counts.tolist() == reference_counts(tau, n_max)
    assert certified[0] == 4 * _lookahead(hi - lo, n_max, 0) * (hi - lo) == 2_400
    if x == 2.0:
        assert certified == [2_400]
    words.clear()
    monkeypatch.setattr(mc, "_survival_level", lambda *args: None)
    walked = step_counts(params, spec, x, n_max, 5, lo, hi)
    assert (walked == counts).all()
    # held rows were dropped: fewer words drawn than by the full walk
    assert sum(certified) < sum(words)


def test_no_certificate_without_positive_coefficients(monkeypatch):
    from arsurvival import mc

    for a in [(0.0, 9.0), (2.0, -1.0), (1.0, -0.5, 1.0)]:
        assert _survival_level(ar_params(a), gaussian(), 0.0) is None
    # 0 times a lag at -inf is NaN: the run overflows and counts those paths
    params = ar_params([0.0, 9.0])
    curve = estimate_survival(params, gaussian(), 0.0, [700], 2_000, 5)
    assert curve.nonfinite_paths > 0
    monkeypatch.setattr(mc, "_survival_level", lambda *args: None)
    walked = estimate_survival(params, gaussian(), 0.0, [700], 2_000, 5)
    assert json.dumps(walked.to_json_dict()) == json.dumps(curve.to_json_dict())


@pytest.mark.parametrize("spec", [gaussian(), rademacher(), uniform(-1.0, 1.0),
                                  exponential_centered(1.0)],
                         ids=lambda spec: spec.kind.value)
def test_every_positive_c_point_gets_a_level(spec):
    # (a1, a2) on the 0.05 grid in (0, 2)^2 with a1 + a2 > 1; the fixed point
    # c* alone fails the float check at hundreds of these
    points = [(i / 20, j / 20) for i in range(1, 40) for j in range(1, 40) if i + j > 20]
    assert len(points) == 1331
    assert all(_survival_level(ar_params(a), spec, 0.0) is not None for a in points)


def test_c1_level_is_the_fixed_point():
    # C1 passes the check at c* = -B itself, so it keeps that level
    level = _survival_level(ar_params([1.0, 1.0]), gaussian(), 0.0)
    assert level == -_innovation_bound(gaussian())
    assert level == pytest.approx(-8.2095, abs=1e-4)


@pytest.mark.parametrize("spec", [gaussian(0.3, 2.0), rademacher(), two_point(2.0),
                                  uniform(-0.5, 1.5), exponential_centered(2.5)],
                         ids=lambda spec: spec.kind.value)
def test_innovation_bound_covers_both_ends(spec):
    # the 2^20 smallest and the 2^20 largest 53-bit values the rng can give
    k = np.arange(2**20, dtype=np.uint64)
    words = np.concatenate([k, np.uint64(2**53 - 1) - k]) << np.uint64(11)
    samples = spec.transform(words_to_uniform(words))
    assert samples.max() <= _innovation_bound(spec) < math.inf


def test_c1_curve_file_independent_of_workers(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    c1 = ar_params([1.0, 1.0])
    files = [json.dumps(estimate_survival(c1, gaussian(), 0.0, list(range(1, 513)),
                                          20_000, 6, workers=w).to_json_dict())
             for w in (1, 2)]
    assert files[0] == files[1]


def test_curve_file_independent_of_tiles_and_workers(monkeypatch):
    from arsurvival import mc

    def curve_json(workers):
        curve = estimate_survival(RW, gaussian(), 0.0, list(range(1, 300)), 20_000, 8,
                                  workers=workers)
        return json.dumps(curve.to_json_dict())

    base = curve_json(1)
    assert curve_json(2) == base
    real = mc._tile_counts
    walked = []

    def tile_counts(walk, *args):
        walked.append((int(walk.ids[0]), int(walk.ids[-1]) + 1))
        return real(walk, *args)

    monkeypatch.setattr(mc, "_tile_counts", tile_counts)
    monkeypatch.setattr(mc, "_TILE_PATHS", 1_000)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert curve_json(1) == base
    assert curve_json(2) == base
    # one process walks all paths in 1,000-path tiles; at 2 workers this
    # process walks range 0 the same way and a forked child the other range
    assert walked == [(lo, lo + 1_000) for lo in range(0, 20_000, 1_000)] + \
        [(lo, lo + 1_000) for lo in range(0, 10_000, 1_000)]


def test_a_range_draws_every_tile_into_one_buffer(monkeypatch):
    # 131,074 paths make tiles of 43,691, 43,691 and 43,692: the one buffer
    # is made for the last, larger tile, and every tile's refills work in it
    from arsurvival import mc

    made, tiles, used = [], [], set()

    def buffer(paths):
        made.append(paths)
        return refill_buffer(paths)

    real = mc._tile_counts

    def tile_counts(walk, *args):
        tiles.append(walk.ids.size)
        used.add(id(walk.out))
        return real(walk, *args)

    monkeypatch.setattr(mc, "refill_buffer", buffer)
    monkeypatch.setattr(mc, "_tile_counts", tile_counts)
    grid = np.array([1, 4])
    counts = _range_counts(RW, rademacher(), 0.0, grid, 3, 0, 131_074)
    assert tiles == [43_691, 43_691, 43_692]
    assert made == [43_692] and len(used) == 1
    # a tile's counts do not depend on what the tile before it left in the buffer
    parts = [_range_counts(RW, rademacher(), 0.0, grid, 3, lo, hi)
             for lo, hi in [(0, 43_691), (43_691, 131_074)]]
    assert counts.sum() == 131_074 and (counts == sum(parts)).all()


def test_processes_capped_at_cpu_count(monkeypatch):
    # one range of paths per process, and no more processes than CPUs
    from arsurvival import mc

    started = []

    def fork_ranges(jobs):
        started.append(len(jobs))
        return [mc._range_counts(*job) for job in jobs]

    monkeypatch.setattr(mc, "_fork_ranges", fork_ranges)
    base = estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=1)
    for cpus, expect in [(3, [3]), (1, [1]), (None, [1])]:
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        curve = estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=5000)
        assert started == expect
        assert (curve.survivors == base.survivors).all()


def test_estimate_rw_single_step_probability():
    # survivors at N=1 counts exactly the non-positive first innovations
    curve = estimate_survival(RW, rademacher(), 0.0, [1], 50_000, 17)
    assert abs(curve.p_hat[0] - 0.5) <= 3 * curve.stderr[0]


def test_estimate_matches_enumeration_small():
    for a, seed in [([1.0], 21), ([2.0, -1.0], 22), ([0.5, 0.5], 23)]:
        params = ar_params(a)
        curve = estimate_survival(params, rademacher(), 0.0, [3, 6, 9],
                                  100_000, seed)
        for i, n in enumerate([3, 6, 9]):
            exact = enumerate_survival(params, SIGNS, 0.0, n)
            assert abs(curve.p_hat[i] - exact) <= 3 * curve.stderr[i]


def test_estimate_matches_enumeration_two_point():
    params = ar_params([0.5, -0.3])
    support = ((-2.0, 0.5), (2.0, 0.5))
    curve = estimate_survival(params, two_point(2.0), 0.5, [2, 5, 10],
                              100_000, 27)
    for i, n in enumerate([2, 5, 10]):
        exact = enumerate_survival(params, support, 0.5, n)
        assert abs(curve.p_hat[i] - exact) <= 3 * curve.stderr[i]


def test_estimate_matches_ballot_formula():
    # symmetric continuous innovations: P(M_N <= 0) = C(2N, N) / 4^N
    for spec, seed in [(gaussian(), 31), (uniform(-1, 1), 32)]:
        curve = estimate_survival(RW, spec, 0.0, [4, 8, 16], 100_000, seed)
        for i, n in enumerate([4, 8, 16]):
            exact = math.comb(2 * n, n) / 4.0 ** n
            assert abs(curve.p_hat[i] - exact) <= 3 * curve.stderr[i]


def test_two_interleaved_walks_square_identity():
    both = estimate_survival(ar_params([0.0, 1.0]), gaussian(), 0.0, [64],
                             100_000, 41)
    one = estimate_survival(RW, gaussian(), 0.0, [32], 100_000, 42)
    q = float(one.p_hat[0])
    comb = math.hypot(float(both.stderr[0]), 2 * q * float(one.stderr[0]))
    assert abs(float(both.p_hat[0]) - q * q) <= 3 * comb


def test_survivors_non_increasing():
    curve = estimate_survival(ar_params([0.5, -0.3]), gaussian(), 0.5,
                              [1, 2, 4, 8, 16, 32], 20_000, 5)
    assert (np.diff(curve.survivors) <= 0).all()
    assert (curve.p_hat == curve.survivors / curve.paths).all()
    expect_se = np.sqrt(curve.p_hat * (1 - curve.p_hat) / curve.paths)
    assert np.allclose(curve.stderr, expect_se, rtol=0, atol=0)


def test_monotone_in_barrier_under_common_random_numbers():
    grid = [1, 2, 4, 8, 16, 32, 64]
    low = estimate_survival(IRW, gaussian(), 0.0, grid, 20_000, 7)
    high = estimate_survival(IRW, gaussian(), 0.5, grid, 20_000, 7)
    assert (high.survivors >= low.survivors).all()


def test_worker_count_does_not_change_counts(monkeypatch):
    # 20k paths make one tile per range; 140k paths at two workers make two
    # ranges of two tiles each
    for grid, paths, counts in [([1, 4, 16, 64], 20_000, (2, 8)),
                                ([1, 4], 140_000, (2, 3))]:
        base = estimate_survival(ar_params([0.5, 0.25]), gaussian(), 0.0, grid,
                                 paths, 13, workers=1)
        for workers in counts:
            other = estimate_survival(ar_params([0.5, 0.25]), gaussian(), 0.0, grid,
                                      paths, 13, workers=workers)
            assert (other.survivors == base.survivors).all()
            assert other.nonfinite_paths == base.nonfinite_paths
    # (2.5, -0.5) runs 8,232 of these paths off to NaN; the patched CPU count
    # walks half the paths in a forked child on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    walk = (ar_params([2.5, -0.5]), gaussian(), 0.0, [2 ** k for k in range(11)], 20_000, 1)
    base = estimate_survival(*walk, workers=1)
    other = estimate_survival(*walk, workers=2)
    assert base.nonfinite_paths > 0
    assert (other.survivors == base.survivors).all()
    assert other.nonfinite_paths == base.nonfinite_paths


def test_threads_running_at_once_get_their_serial_curves():
    # a draw is a pure function of (seed, path, step), so two runs that share
    # one process at the same time must not share a buffer either
    from concurrent.futures import ThreadPoolExecutor

    grid = list(range(1, 65))
    runs = [(RW, gaussian(), 0.0, grid, 50_000, seed) for seed in (7, 8)]
    serial = [estimate_survival(*run).survivors for run in runs]
    start = threading.Barrier(len(runs), timeout=60)

    def run_at_once(run):
        start.wait()
        return estimate_survival(*run).survivors

    with ThreadPoolExecutor(len(runs)) as pool:
        for _ in range(5):
            for got, want in zip(pool.map(run_at_once, runs), serial):
                assert (got == want).all()


def test_worker_failure_raises_instead_of_hanging(monkeypatch):
    from arsurvival import mc

    caller = os.getpid()
    real = mc._tile_counts

    def tile_counts(*args):
        if os.getpid() != caller:
            raise MemoryError("worker failed")
        return real(*args)

    # a forked child looks the function up when it runs, so it sees the patch
    monkeypatch.setattr(mc, "_tile_counts", tile_counts)
    # two forked workers on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    # the child's own exception reaches the caller, with the child's traceback
    with pytest.raises(MemoryError, match="worker failed") as excinfo:
        estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=3)
    assert "tile_counts" in "".join(traceback.format_exception(excinfo.value))
    assert multiprocessing.active_children() == []
    # active_children sees no os.fork child; waitpid sees every one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_raises_instead_of_hanging(monkeypatch):
    from arsurvival import mc

    caller = os.getpid()
    real = mc._tile_counts

    def tile_counts(*args):
        if os.getpid() != caller:
            os._exit(1)
        return real(*args)

    # a forked child looks the function up when it runs, so it sees the patch
    monkeypatch.setattr(mc, "_tile_counts", tile_counts)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(RuntimeError):
        estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=3)
    assert time.monotonic() - start < 30
    # every child is reaped before the call raises
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_exception_of_the_callers_range_does_not_wait_for_the_children(monkeypatch):
    from arsurvival import mc

    caller = os.getpid()

    def tile_counts(*args):
        if os.getpid() != caller:
            time.sleep(3)
        raise MemoryError("caller failed")

    monkeypatch.setattr(mc, "_tile_counts", tile_counts)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(MemoryError, match="caller failed"):
        estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=2)
    # the sleeping child is killed, not waited for
    assert time.monotonic() - start < 1
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _TwoArgumentError(Exception):
    # pickles with args (message,) and so cannot be rebuilt from them
    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


@pytest.mark.parametrize("make, match", [
    (lambda: ValueError("worker failed", lambda: 0), "ValueError: .*worker failed"),
    (lambda: _TwoArgumentError("worker failed", 1), "does not unpickle"),
], ids=["does-not-pickle", "does-not-unpickle"])
def test_an_exception_that_cannot_cross_the_pipe_raises_runtime_error(monkeypatch, make,
                                                                       match):
    from arsurvival import mc

    caller = os.getpid()
    real = mc._tile_counts

    def tile_counts(*args):
        if os.getpid() != caller:
            raise make()
        return real(*args)

    monkeypatch.setattr(mc, "_tile_counts", tile_counts)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match=match):
        estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_histogram_larger_than_the_pipe_buffer_comes_back_whole(monkeypatch):
    # 20,002 int64 bins: 160 KB, well past a 64 KB pipe buffer.  A caller that
    # reaped the child before reading its pipe would wait forever; the alarm
    # turns that wait into a failure
    def expire(signum, frame):
        raise TimeoutError("the 2-worker call did not return")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run = (ar_params([-0.4, -0.4]), gaussian(), 0.0, list(range(1, 20_001)), 20_000, 3)
    base = estimate_survival(*run, workers=1)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        other = estimate_survival(*run, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert base.survivors[0] > 0
    assert (other.survivors == base.survivors).all()
    assert other.nonfinite_paths == base.nonfinite_paths


def test_engine_memory_is_bounded_by_tiles():
    tracemalloc.start()
    try:
        estimate_survival(ar_params([-0.4, -0.4]), gaussian(), 0.0, [1, 2, 3, 4],
                          2_000_000, 5, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_survivor_counts_do_not_grow_with_horizon():
    # C1's paths are all certified or crossed near N = 30, so a horizon of
    # 10^12 costs what 1024 does: the histogram has one bin per grid gap
    base = estimate_survival(ar_params([1.0, 1.0]), gaussian(), 0.0, [16, 1024],
                             2_000, 11, workers=1)
    tracemalloc.start()
    try:
        far = estimate_survival(ar_params([1.0, 1.0]), gaussian(), 0.0, [16, 10 ** 12],
                                2_000, 11, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert far.survivors.tolist() == base.survivors.tolist()
    assert peak < 4 * 2**20


def test_counts_beyond_int64_rejected():
    big = 2 ** 63
    for grid in ([1, big], [1, big - 1]):       # tau stores grid[-1] + 1
        with pytest.raises(ValueError, match="grid"):
            estimate_survival(RW, rademacher(), 0.0, grid, 10, 1)
    with pytest.raises(ValueError, match="paths"):
        estimate_survival(RW, rademacher(), 0.0, [1], big, 1)
    with pytest.raises(ValueError, match="survivors"):
        SurvivalCurve(RW, rademacher(), 0.0, [1], [big], big - 1, 1)


def test_pathwise_memory_is_bounded_by_tiles():
    # G1's pair frequency at 1M paths and a long integrated check walk
    # tiles of paths step by step instead of holding paths x steps matrices
    for run in (lambda: pair_survival_frequency(ar_params([0.5, 0.25]), gaussian(),
                                                6, 1_000_000, 110),
                lambda: pathwise_reduction_check(ar_params([0.5, 0.25]), gaussian(),
                                                 ReductionKind.INTEGRATED, 2_000, 1_000, 7)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


def test_e2_trivial_upper_bound():
    for spec, seed in [(gaussian(), 51), (uniform(-1, 1), 52)]:
        pnp = spec.prob_nonpositive()
        curve = estimate_survival(ar_params([-0.4, -0.4]), spec, 0.0,
                                  list(range(1, 13)), 100_000, seed)
        for i, n in enumerate(curve.grid):
            assert curve.p_hat[i] <= pnp ** int(n) + 3 * curve.stderr[i]


def test_grid_validation():
    with pytest.raises(ValueError):
        estimate_survival(RW, gaussian(), 0.0, [4, 2], 100, 1)
    with pytest.raises(ValueError):
        estimate_survival(RW, gaussian(), 0.0, [0, 2], 100, 1)
    with pytest.raises(ValueError):
        estimate_survival(RW, gaussian(), 0.0, [], 100, 1)
    with pytest.raises(ValueError):
        estimate_survival(RW, gaussian(), 0.0, [4], 0, 1)
    # the rng keys on the seed mod 2^64: seeds outside [0, 2^64) are refused
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            estimate_survival(RW, gaussian(), 0.0, [4], 100, seed)
    assert estimate_survival(RW, gaussian(), 0.0, [4], 100, 2 ** 64 - 1).seed == 2 ** 64 - 1
    # no path would ever cross a NaN barrier; infinite barriers are valid
    with pytest.raises(ValueError, match="NaN"):
        estimate_survival(RW, gaussian(), math.nan, [4], 100, 1)
    for x, survivors in [(math.inf, 100), (-math.inf, 0)]:
        assert estimate_survival(RW, gaussian(), x, [4], 100, 1).survivors[0] == survivors
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            estimate_survival(RW, gaussian(), 0.0, [4], 100, 1, workers=workers)
    # horizons are integers, and the barrier a real number that is not a bool
    for grid in ([1.5, 2.5], [True, 2], np.array([1.0, 2.0]), ["4"]):
        with pytest.raises(ValueError, match="grid"):
            estimate_survival(RW, gaussian(), 0.0, grid, 100, 1)
    for x in (True, np.bool_(False), "0", None):
        with pytest.raises(ValueError, match="barrier x"):
            estimate_survival(RW, gaussian(), x, [4], 100, 1)
    # the curve reader builds the curve, so its constructor keeps the same rule
    for field, value in [("survivors", [1.5]), ("survivors", [True]),
                         ("nonfinite_paths", True), ("nonfinite_paths", 1.0),
                         ("x", True)]:
        fields = dict(params=RW, spec=gaussian(), x=0.0, grid=[4], survivors=[1],
                      paths=10, seed=1)
        with pytest.raises(ValueError, match=field):
            SurvivalCurve(**{**fields, field: value})


@pytest.mark.parametrize("run", [
    lambda paths, seed, n=4: estimate_survival(RW, rademacher(), 0.0, [n], paths, seed),
    lambda paths, seed, n=4: SurvivalCurve(RW, rademacher(), 0.0, [n], [0], paths, seed),
    lambda paths, seed, n=4: pair_survival_frequency(RW, rademacher(), n, paths, seed),
    lambda paths, seed, n=4: pathwise_reduction_check(ar_params([0.5, 0.5]), rademacher(),
                                                      "walk_sum", paths, n, seed),
], ids=["estimate_survival", "SurvivalCurve", "pair_survival_frequency",
        "pathwise_reduction_check"])
def test_seed_and_path_ranges_refused_by_every_entry_point(run):
    # the rng keys on the seed mod 2^64: -1 would repeat the stream of
    # 2^64 - 1 and 2^64 + 5 that of 5 under another recorded seed
    for seed in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError, match="seed must be in"):
            run(10, seed)
    for paths in (0, 2 ** 63):
        with pytest.raises(ValueError, match="paths must be in"):
            run(paths, 1)
    # seed 1.5 would draw seed 1's stream and record 1.5
    for seed in (1.5, True, np.float64(2.0), "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            run(10, seed)
    for paths in (100.0, True, np.bool_(True)):
        with pytest.raises(ValueError, match="paths must be an integer"):
            run(paths, 1)
    for n in (3.5, 5.0, True):
        with pytest.raises(ValueError, match=r"\b(grid|n|n_max) must be an integer"):
            run(10, 1, n)
    run(10, 0)
    run(10, 2 ** 64 - 1)
    # numpy integers are integers, and give what Python ints give
    assert repr(run(np.int64(10), np.uint64(2 ** 64 - 1), np.int32(4))) == \
        repr(run(10, 2 ** 64 - 1, 4))


def test_nonfinite_paths_marked_invalid():
    # oscillating divergence with an infinite barrier: paths overflow to
    # +-inf and then hit inf - inf = NaN without ever crossing
    params = ar_params([-1.0, -2.0])
    curve = estimate_survival(params, gaussian(), math.inf, [2200], 64, 19)
    assert curve.nonfinite_paths > 0
    assert curve.invalid
    y = innovations(gaussian(), 19, np.zeros(1, np.uint64), 2200)[0]
    with pytest.raises(NonFiniteSampleError):
        crossing_time_from_innovations(params, math.inf, y)


def test_finite_run_is_valid():
    curve = estimate_survival(IRW, gaussian(), 0.0, [16], 5_000, 23)
    assert curve.nonfinite_paths == 0 and not curve.invalid


# ---- serialization ----------------------------------------------------------


def test_json_round_trip():
    curve = estimate_survival(IRW, rademacher(), 0.0, [2, 4, 8], 5_000, 77)
    obj = curve.to_json_dict()
    assert obj["schema_version"] == 3
    back = SurvivalCurve.from_json_dict(json.loads(json.dumps(obj)))
    assert back.params == curve.params and back.spec == curve.spec
    assert (back.survivors == curve.survivors).all()
    assert (back.p_hat == curve.p_hat).all()
    assert back.seed == curve.seed


def test_csv_text_layout():
    curve = estimate_survival(RW, rademacher(), 0.0, [1, 2], 1_000, 3)
    lines = curve.to_csv_text().strip().split("\n")
    assert lines[0] == "N,survivors,paths,p_hat,stderr,zero_flag"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[2] == "1000"


def csv_rows(curve):
    """The CSV by per-element conversion of each row's numpy values, the reference layout."""
    lines = [",".join(curve.CSV_COLUMNS)]
    for i, n in enumerate(curve.grid):
        lines.append(",".join([
            str(int(n)), str(int(curve.survivors[i])), str(curve.paths),
            repr(float(curve.p_hat[i])), repr(float(curve.stderr[i])),
            str(int(curve.zero_flag[i]))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("survivors", [[700, 300, 0, 0], [1000, 1000, 999, 1], [0, 0, 0, 0]],
                         ids=["to-zero", "p-hat-one", "all-zero"])
def test_csv_text_equals_per_row_conversion(survivors):
    curve = SurvivalCurve(params=RW, spec=rademacher(), x=0.0, grid=[1, 2, 5, 2**40],
                          survivors=survivors, paths=1000, seed=2**64 - 1)
    assert curve.to_csv_text() == csv_rows(curve)
    assert curve.to_json_dict()["zero_flag"] == [s == 0 for s in survivors]
    walked = estimate_survival(ar_params([-0.4, -0.4]), gaussian(), 0.0, [1, 2, 30, 31], 2_000, 29)
    assert walked.survivors[-1] == 0 and walked.to_csv_text() == csv_rows(walked)


def test_zero_flag_and_rule_of_three():
    curve = estimate_survival(ar_params([-0.4, -0.4]), gaussian(), 0.0,
                              [1, 30], 2_000, 29)
    assert not curve.zero_flag[0] and curve.zero_flag[1]
    assert curve.p_hat[1] == 0.0
    assert curve.zero_upper_bound == pytest.approx(3.0 / 2_000)


# ---- pair frequency and reductions ------------------------------------------


def test_pair_frequency_basics():
    freq, se = pair_survival_frequency(RW, rademacher(), 2, 100_000, 61)
    # P(S1 <= 0, S2 <= 0) = P(down)(1) ... enumerate: sequences --,-+,+-,++
    # survivors: --, -+ -> 1/2
    assert abs(freq - 0.5) <= 3 * se
    with pytest.raises(ValueError):
        pair_survival_frequency(RW, rademacher(), 1, 10, 1)
    for paths in (0, -3):
        with pytest.raises(ValueError, match="paths must be in"):
            pair_survival_frequency(RW, rademacher(), 2, paths, 1)


def test_pair_frequency_spans_tiles(monkeypatch):
    # tiles change where a path is walked, never what it counts
    from arsurvival import mc

    base = pair_survival_frequency(IRW, gaussian(), 5, 2_500, 9)
    monkeypatch.setattr(mc, "_TILE_PATHS", 1_000)
    assert pair_survival_frequency(IRW, gaussian(), 5, 2_500, 9) == base


@pytest.mark.parametrize("a,kind,rho", [
    ((-0.5, 0.5), ReductionKind.PAIR_SUM, None),
    ((0.5, 0.25), ReductionKind.ROOT_SHIFT, 0.8090169943749477),
    ((0.5, 0.5), ReductionKind.WALK_SUM, None),
])
def test_reductions_hold_pathwise(a, kind, rho):
    rep = pathwise_reduction_check(ar_params(a), gaussian(), kind, 200, 400, 83)
    assert rep.violations == 0
    assert rep.max_rel_err < 1e-10
    if rho is None:
        assert rep.rho is None
    else:
        assert rep.rho == pytest.approx(rho, abs=1e-12)


def test_reduction_counts_non_finite_entries_as_violations():
    # both sides overflow to inf and NaN, which fails no tolerance test by
    # itself; the check must report it without a warning
    for a, kind, n_max in [((0.5, 1.5), "pair_sum", 2000), ((1.2,), "integrated", 4500)]:
        rep = pathwise_reduction_check(ar_params(a), gaussian(), kind, 100, n_max, 1)
        assert rep.violations > 0 and rep.max_rel_err == math.inf


def test_reduction_accepts_string_kind():
    rep = pathwise_reduction_check(ar_params([0.5, 0.5]), rademacher(),
                                   "walk_sum", 50, 100, 3)
    assert rep.violations == 0


def test_integration_identity():
    for a in [[0.5], [0.5, 0.25], [0.3, -0.2, 0.1]]:
        rep = pathwise_reduction_check(ar_params(a), gaussian(),
                                       ReductionKind.INTEGRATED, 100, 500, 91)
        assert rep.violations == 0, a


def test_reduction_sizes_must_be_positive():
    for paths, n_max, what in [(0, 10, "paths must be in"), (-3, 10, "paths must be in"),
                               (10, 0, "n_max must be >= 1"), (10, -1, "n_max must be >= 1")]:
        for kind in ReductionKind:
            with pytest.raises(ValueError, match=what):
                pathwise_reduction_check(ar_params([-0.5, 0.5]), gaussian(),
                                         kind, paths, n_max, 1)


def test_reductions_span_tiles(monkeypatch):
    from arsurvival import mc

    checks = [(ar_params([0.5, 0.25]), ReductionKind.ROOT_SHIFT),
              (ar_params([0.3, -0.2, 0.1]), ReductionKind.INTEGRATED)]
    base = [pathwise_reduction_check(a, gaussian(), kind, 2_500, 50, 5) for a, kind in checks]
    monkeypatch.setattr(mc, "_TILE_PATHS", 1_000)
    assert [pathwise_reduction_check(a, gaussian(), kind, 2_500, 50, 5)
            for a, kind in checks] == base


def test_reduction_constraints_enforced():
    with pytest.raises(ConstraintError):
        pathwise_reduction_check(ar_params([0.5, 0.25]), gaussian(),
                                 ReductionKind.PAIR_SUM, 10, 10, 1)
    with pytest.raises(ConstraintError):
        pathwise_reduction_check(ar_params([0.5, 0.25]), gaussian(),
                                 ReductionKind.WALK_SUM, 10, 10, 1)
    with pytest.raises(ConstraintError):
        # complex roots: no real AR(1) reduction
        pathwise_reduction_check(ar_params([0.5, -0.5]), gaussian(),
                                 ReductionKind.ROOT_SHIFT, 10, 10, 1)
    with pytest.raises(ConstraintError):
        # a2 > 0 but a1 + a2 >= 1
        pathwise_reduction_check(ar_params([0.6, 0.4]), gaussian(),
                                 ReductionKind.ROOT_SHIFT, 10, 10, 1)
