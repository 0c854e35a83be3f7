"""Monte Carlo estimation of AR(p) survival probabilities.

A path survives to horizon N when X_n <= x for every n = 1..N; the crossing
time tau_x = inf{n >= 0 : X_n > x} makes the survival probability
p_N(x) = P(tau_x > N).  The engine walks every path to its crossing or to
the largest grid entry and counts the crossings of each grid interval, so
one pass serves every horizon.

Innovation j of path i in a run with seed s is the transform of draw j of
rng stream (s, i), whose layout ``rng`` states, so an estimate is a pure
function of (seed, path, step): bit-identical for any worker count and any
tiling, and runs at different barriers share their noise (common random
numbers).  Each rule is stated where it is enforced: the worker processes
in ``_fork_ranges``, the tiles and their one refill buffer in ``_walks``,
a tile's blocks, each handed out with the row before it, in ``_Walk``, the
counting and dropping of paths in ``_tile_counts``, and the survival
certificate in ``_survival_level``.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bounds import PreconditionError, integrate_params
from .coeffs import (ARParams, ar2_closed_form, ar_step, Branch, check_barrier, check_int,
                     check_real)
from .innovations import InnovationSpec, spec_from_json
from .rng import RNG_PROVENANCE, U_MAX, U_MIN, path_uniform_block, refill_buffer

__all__ = [
    "SurvivalCurve",
    "estimate_survival",
    "pair_survival_frequency",
    "ReductionKind",
    "ReductionReport",
    "pathwise_reduction_check",
]

SCHEMA_VERSION = 3

# curve files of these versions carry the same fields; version 1 curves were
# drawn from the earlier stream layout key = (seed, path), counter = (j//4, 0, 0, 0),
# and version 2 mapped a word whose top 53 bits are all ones to 1.0, not 1 - 2^-53
_READABLE_SCHEMA_VERSIONS = (1, 2, 3)

# paths per tile at most; tiles bound the engine's memory for any path count
_TILE_PATHS = 65_536

# the benchmark's tracer (perfbench/spans.py) lists mc.uniform_block among the
# rng entry points, and its self-test requires every listed target to exist;
# nothing here calls it, the name stays until that list drops it
uniform_block = path_uniform_block

# estimates with more than this fraction of non-finite paths are invalid
_NONFINITE_LIMIT = 1e-3


# ---------------------------------------------------------------------------
# vectorized crossing-time engine


class _Walk:
    """Paths lo..hi-1 of one run, stepped together from the zero start.

    ``block()`` makes one rng call and steps the recursion through every
    column it returned that the horizon reaches.  It returns (prev, X, Y):
    prev is X_j of the live paths before the block, and X and Y are
    time-major (steps, live) blocks, row t holding step j + t + 1.  It
    leaves lags[k] = X_{j-k} for the new j, the steps taken.  ``out`` is the
    ``refill_buffer`` of a range that holds lo..hi-1.  X is written into its
    second array, which the refill no longer needs, so the next refill
    overwrites the blocks a caller was given; the walk copies its own lags
    out of that array before it refills.  ``compact(live)`` drops paths: it
    keeps the rows where the boolean ``live`` is True, gathering each array
    by one index of the kept rows.
    """

    def __init__(self, params: ARParams, spec: InnovationSpec, seed: int,
                 lo: int, hi: int, n_max: int, out: tuple):
        self.a = params.a
        self.spec = spec
        self.seed = seed
        self.ids = np.arange(lo, hi, dtype=np.uint64)
        self.lags = [np.zeros(hi - lo) for _ in range(params.p)]
        self.n_max = n_max
        self.out = out
        self.j = 0      # steps taken

    def block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lags = self.lags
        # lags still in the last block's rows, with no compaction since: a
        # dense refill draws its span over that array
        if np.may_share_memory(lags[0], self.out[1]):
            lags = [lag.copy() for lag in lags]
        u = path_uniform_block(self.seed, self.ids, self.j, self.n_max - self.j,
                               out=self.out)
        # columns past the horizon are drawn, not transformed: G1's walk to
        # N = 6 transforms 1.2M samples for its 1.2M steps, not 1.6M
        u = u[:, :self.n_max - self.j]
        ys = self.spec.transform(u, out=u).T
        xs = self.out[1][:ys.size].reshape(ys.shape)
        prev = lags[0]
        # a path stepped past its crossing may overflow; it is decided already
        with np.errstate(invalid="ignore", over="ignore"):
            for y, x in zip(ys, xs):
                lags = [ar_step(self.a, y, lags, out=x)] + lags[:-1]
        self.lags = lags
        self.j += len(ys)
        return prev, xs, ys

    def compact(self, live) -> None:
        keep = np.flatnonzero(live)
        self.ids = self.ids.take(keep)
        self.lags = [lag.take(keep) for lag in self.lags]


def _walks(params: ARParams, spec: InnovationSpec, seed: int, lo: int, hi: int,
           n_max: int):
    """A walk of each tile of paths lo..hi-1 in turn, all on one refill buffer.

    The tiles are the fewest equal ranges of at most ``_TILE_PATHS`` paths,
    which bounds the memory of any path count.  They differ in size by at
    most one, so the buffer is made for ceil((hi - lo) / tiles) paths: not
    every tile, and not always the first, is the largest.  The walks share
    it one after another, so no refill allocates an array of its size.
    """
    tiles = -(-(hi - lo) // _TILE_PATHS)
    out = refill_buffer(-(-(hi - lo) // tiles))
    for a, b in _split(lo, hi, tiles):
        yield _Walk(params, spec, seed, a, b, n_max, out)


def _innovation_bound(spec: InnovationSpec) -> float:
    """The largest innovation the rng can give: every transform is monotone,
    so it is taken at an end of the uniform range [U_MIN, U_MAX]."""
    return float(spec.transform(np.array([U_MIN, U_MAX])).max())


def _survival_level(params: ARParams, spec: InnovationSpec, x: float) -> float | None:
    """A level c <= x that a path whose lags are all <= c never leaves, or None.

    Needs every a_k > 0 (0 times a -inf lag is NaN) and the float64 check
    ar_step(a, B, [c]*p) <= c, with B = ``_innovation_bound(spec)``: rounding
    is then monotone in the lags, so such a path stays at or below c forever,
    never crossing and never turning NaN.  When sum(a) > 1 the candidates
    are c* = -B/(sum(a) - 1) and then 2c*, each capped at x: c* is the fixed
    point itself, where rounding can fail the check, and any level below it
    holds too.  Otherwise the candidate is x.
    """
    a = params.a
    if min(a) <= 0.0:
        return None
    b = _innovation_bound(spec)
    total = sum(a)
    if total > 1.0:
        star = -b / (total - 1.0)
        levels = (min(x, star), min(x, 2.0 * star))
    else:
        levels = (x,)
    for c in levels:
        if ar_step(a, b, [c] * params.p) <= c <= x:
            return c
    return None


def _split(lo: int, hi: int, parts: int):
    """(lo, hi) of ``parts`` ranges that cover lo..hi-1 and differ in size by at
    most one.  Made one at a time, so a huge path count holds no list of cuts."""
    return ((lo + (hi - lo) * k // parts, lo + (hi - lo) * (k + 1) // parts)
            for k in range(parts))


def _tile_counts(walk: _Walk, x: float, level: float | None, grid: np.ndarray,
                 hist: np.ndarray) -> None:
    """Add the crossing times of the walk's paths to ``hist``, block by block.

    A path that crosses at step n goes into the grid bin of n, one that goes
    non-finite (NaN) into bin 0, and one that is still live or held at the
    tile's end into the last bin.  A block is counted row by row: a running
    AND of its rows' X <= x holds the paths still in after each step, and the
    differences of its counts are the paths that leave at each step.  NaN
    persists, so a path that went NaN in the block is NaN in its last row:
    only when that row holds a NaN are those columns searched, and a path
    whose first exit is the NaN moves from its step to bin 0, while one that
    crossed before it went NaN keeps its step.  Each block's end also drops
    the paths held below the survival ``level``: they stay in the last bin,
    which is what walking them would give, and the next refill draws no
    words for them, which changes no other path's words.
    """
    hist[-1] += walk.ids.size
    while walk.ids.size and walk.j < walk.n_max:
        n0, paths = walk.j, walk.ids.size
        _, xs, _ = walk.block()
        # NaN fails <= x, so a path leaves at its first crossing or NaN
        below = xs <= x
        live = below[0].copy()
        alive = [np.count_nonzero(live)]
        for row in below[1:]:
            live &= row
            alive.append(np.count_nonzero(live))
        left = -np.diff(alive, prepend=paths)
        # every path that went NaN here is NaN in the last row
        nan = np.isnan(xs[-1])
        if nan.any():
            cols = np.flatnonzero(nan)
            first = np.argmin(below[:, cols], axis=0)
            nan_first = first[np.isnan(xs[first, cols])]
            left -= np.bincount(nan_first, minlength=len(xs))
            hist[0] += nan_first.size
        # the bin of each of the block's steps; the steps are few, the paths many
        bins = np.searchsorted(grid, np.arange(n0 + 1, n0 + 1 + len(xs))) + 1
        np.add.at(hist, bins, left)
        hist[-1] -= paths - alive[-1]
        if level is not None:
            # held: every lag at or below the level; it stays in the last bin
            live &= np.maximum.reduce(walk.lags) > level
        walk.compact(live)


def _range_counts(params: ARParams, spec: InnovationSpec, x: float, grid: np.ndarray,
                  seed: int, lo: int, hi: int) -> np.ndarray:
    """The histogram of the crossing times of paths lo..hi-1 over the grid.

    Bin 0 holds the non-finite paths, bin k + 1 those that cross at a step
    n with grid[k-1] < n <= grid[k], which survive exactly k horizons, and
    the last bin those that survive every horizon.  The range is walked
    tile by tile (``_walks``).
    """
    # the level first: its transform may import scipy, whose module objects,
    # allocated above the range's arrays, would keep their memory in the heap
    level = _survival_level(params, spec, x)
    hist = np.zeros(grid.size + 2, dtype=np.int64)
    for walk in _walks(params, spec, seed, lo, hi, int(grid[-1])):
        _tile_counts(walk, x, level, grid, hist)
    return hist


def _fork_ranges(jobs):
    """The histogram of each range: the first here, each other in a forked child.

    Running the first range here saves a fork and its cold heap, and one
    range forks nothing.  Each child writes one pickled (ok, value) message
    to its pipe and exits at once; each pipe is read to EOF before its child
    is reaped, since a histogram may outgrow the pipe's buffer.  A child's
    exception is raised here with the child's traceback in a note, or as a
    RuntimeError that names it when it does not pickle.  A child that exits
    non-zero or sends a message that does not unpickle raises RuntimeError.
    However this call ends, by an exception of the first range or an
    interrupt too, every child not yet reaped is killed and reaped at once,
    so none outlives it.
    """
    children = {}       # pid -> read end of its pipe, for each child not yet reaped
    try:
        for job in jobs[1:]:
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(reader)
                    try:
                        message = pickle.dumps((True, _range_counts(*job)))
                    except Exception as exc:
                        import traceback
                        note = (f"raised in worker process {os.getpid()}:\n"
                                + "".join(traceback.format_exception(exc)).rstrip())
                        exc.add_note(note)
                        try:
                            message = pickle.dumps((False, exc))
                        except Exception:
                            # it carries what pickle cannot take, a lambda say
                            failure = RuntimeError(f"{type(exc).__name__}: {exc}")
                            failure.add_note(note)
                            message = pickle.dumps((False, failure))
                    with open(writer, "wb") as pipe:
                        pipe.write(message)
                    status = 0
                finally:
                    os._exit(status)
            os.close(writer)
            children[pid] = open(reader, "rb")
        results = [_range_counts(*jobs[0])]
        for pid, pipe in list(children.items()):
            with pipe:
                message = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(f"a simulation worker exited with status {code}")
            try:
                ok, value = pickle.loads(message)
            except Exception:
                raise RuntimeError("a simulation worker's result does not unpickle") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children.items():
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


_INT64_MAX = np.iinfo(np.int64).max


def _int64_array(values, name: str) -> np.ndarray:
    """``values`` as int64; ValueError naming ``name`` unless every entry is
    an integer (``check_int``) that fits."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.array(values, dtype=object)
        # one entry of each type: the check reads the type alone
        for v in {type(v): v for v in values.flat}.values():
            check_int(v, f"each of {name}")
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} must fit in int64") from None


def _check_grid(grid) -> np.ndarray:
    """The grid as int64; ValueError unless 1-d, non-empty, of integers and
    increasing from 1 to below 2^63 - 1, so that each block's step numbers,
    ``np.arange(n0 + 1, n0 + 1 + steps)`` with a stop of at most grid[-1] + 1,
    stay int64."""
    grid = _int64_array(grid, "grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if grid[0] < 1 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be strictly increasing horizons >= 1")
    if grid[-1] >= _INT64_MAX:
        raise ValueError(f"grid horizons must be below {_INT64_MAX}")
    return grid


def _check_paths(paths) -> int:
    return check_int(paths, "paths", 1, _INT64_MAX)


def _check_seed(seed) -> int:
    # the rng keys on the seed mod 2^64, so two seeds outside the range could
    # give one stream while their files record different seeds
    return check_int(seed, "seed", 0, 2 ** 64 - 1)


def json_int(value, name: str) -> int:
    """``check_int`` of a JSON integer, where an integral float such as 1e5 is its int."""
    integral = isinstance(value, float) and value.is_integer()
    return check_int(int(value) if integral else value, name)


def json_run_fields(obj: dict, a) -> tuple[tuple, dict]:
    """The fields a simulation config and a curve file share, read from JSON.

    Returns the coefficients ``a``, which must be a list, for ``ARParams`` to
    check, and the keyword arguments spec, x, grid, paths and seed.  Their
    types are checked here, by the rule of ``coeffs``, and their ranges by the
    entry point that takes them.
    """
    if not isinstance(a, list):
        raise ValueError(f"a must be a list of numbers, got {a!r}")
    return tuple(a), {
        "spec": spec_from_json(obj["innovation"]),
        "x": check_real(obj["x"], "x"),
        "grid": [json_int(n, "grid") for n in obj["grid"]],
        "paths": json_int(obj["paths"], "paths"),
        "seed": json_int(obj["seed"], "seed"),
    }


@dataclass(eq=False)
class SurvivalCurve:
    """Monte Carlo survival estimates over a grid of horizons.

    survivors[i] counts paths with tau > grid[i].  Construction checks what
    estimate_survival guarantees, so a curve read from a file obeys it too:
    paths >= 1, a seed in [0, 2^64), a grid strictly increasing from 1,
    survivors in [0, paths] that do not increase along the grid, and
    nonfinite_paths in [0, paths - survivors[0]].
    Entries with zero survivors are censored (zero_flag): p_hat is reported
    as 0 and only the rule-of-three bound 3/paths is claimed.
    nonfinite_paths counts paths whose state became indeterminate (NaN);
    they are counted as non-survivors everywhere, and once they exceed 0.1%
    of all paths the whole estimate is invalid.
    """

    params: ARParams
    spec: InnovationSpec
    x: float
    grid: np.ndarray
    survivors: np.ndarray
    paths: int
    seed: int
    nonfinite_paths: int = 0
    p_hat: np.ndarray = field(init=False)
    stderr: np.ndarray = field(init=False)
    zero_flag: np.ndarray = field(init=False)

    def __post_init__(self):
        self.x = check_barrier(self.x)
        self.grid = _check_grid(self.grid)
        self.survivors = _int64_array(self.survivors, "survivors")
        if self.grid.shape != self.survivors.shape:
            raise ValueError("grid and survivors must have equal length")
        self.paths = _check_paths(self.paths)
        self.seed = _check_seed(self.seed)
        self.nonfinite_paths = check_int(self.nonfinite_paths, "nonfinite_paths")
        if self.survivors[0] > self.paths or self.survivors[-1] < 0 or (
                np.diff(self.survivors) > 0).any():
            raise ValueError("survivors must be non-increasing counts in [0, paths]")
        # a non-finite path survives no horizon, so it is not among survivors[0]
        if not 0 <= self.nonfinite_paths <= self.paths - self.survivors[0]:
            raise ValueError("nonfinite_paths must be in [0, paths - survivors[0]]")
        self.p_hat = self.survivors / self.paths
        self.stderr = np.sqrt(self.p_hat * (1.0 - self.p_hat) / self.paths)
        self.zero_flag = self.survivors == 0

    @property
    def invalid(self) -> bool:
        return self.nonfinite_paths > _NONFINITE_LIMIT * self.paths

    @property
    def zero_upper_bound(self) -> float:
        """Rule-of-three 95% upper bound attached to censored entries."""
        return 3.0 / self.paths

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "survival_curve",
            "params": {"a": list(self.params.a)},
            "innovation": self.spec.to_json_dict(),
            "x": self.x,
            "grid": self.grid.tolist(),
            "survivors": self.survivors.tolist(),
            "paths": self.paths,
            "p_hat": self.p_hat.tolist(),
            "stderr": self.stderr.tolist(),
            "zero_flag": self.zero_flag.tolist(),
            "zero_upper_bound": self.zero_upper_bound,
            "seed": self.seed,
            "nonfinite_paths": self.nonfinite_paths,
            "invalid": self.invalid,
            "rng": RNG_PROVENANCE,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SurvivalCurve":
        if not isinstance(obj, dict) or obj.get("type") != "survival_curve":
            raise ValueError("not a survival_curve object")
        if obj.get("schema_version") not in _READABLE_SCHEMA_VERSIONS:
            raise ValueError(f"unsupported schema_version {obj.get('schema_version')!r}")
        a, run = json_run_fields(obj, obj["params"]["a"])
        return cls(
            params=ARParams(a),
            survivors=[json_int(n, "survivors") for n in obj["survivors"]],
            nonfinite_paths=json_int(obj.get("nonfinite_paths", 0), "nonfinite_paths"),
            **run,
        )

    CSV_COLUMNS = ("N", "survivors", "paths", "p_hat", "stderr", "zero_flag")

    def to_csv_text(self) -> str:
        rows = zip(self.grid.tolist(), self.survivors.tolist(), self.p_hat.tolist(),
                   self.stderr.tolist(), self.zero_flag.tolist())
        lines = [f"{n},{s},{self.paths},{p!r},{e!r},{z:d}\n" for n, s, p, e, z in rows]
        return ",".join(self.CSV_COLUMNS) + "\n" + "".join(lines)


def estimate_survival(params: ARParams, spec: InnovationSpec, x: float, grid,
                      paths: int, seed: int, workers: int = 1) -> SurvivalCurve:
    """Estimate p_N(x) on a grid of horizons from ``paths`` simulated paths.

    One walk per path serves the whole grid.  Paths are cut into
    min(workers, paths, CPU count) contiguous ranges, one per process
    (``_fork_ranges``).  Each range returns one histogram of its crossing
    times (``_range_counts``); their sum gives the survivors and, in bin 0,
    the non-finite count.  Innovations are a pure function of (seed, path,
    step), so the result does not depend on the ranges, the tiles or the
    worker count.  A grid, path count, seed or worker count that is not
    made of integers or is out of range, and a barrier that is not a real
    number or is NaN, raise ValueError; x = +-inf is allowed.
    """
    grid = _check_grid(grid)
    paths = _check_paths(paths)
    seed = _check_seed(seed)
    x = check_barrier(x)
    workers = check_int(workers, "workers", lo=1)
    procs = min(workers, paths, os.cpu_count() or 1)
    jobs = [(params, spec, x, grid, seed, lo, hi) for lo, hi in _split(0, paths, procs)]
    hist = sum(_fork_ranges(jobs))
    # survivors of horizon grid[k] are the paths in bins k + 2 and above
    return SurvivalCurve(params=params, spec=spec, x=x, grid=grid,
                         survivors=np.cumsum(hist[:1:-1])[::-1], paths=paths,
                         seed=seed, nonfinite_paths=int(hist[0]))


# ---------------------------------------------------------------------------
# auxiliary statistics and pathwise identities


def pair_survival_frequency(params: ARParams, spec: InnovationSpec, n: int,
                            paths: int, seed: int) -> tuple[float, float]:
    """MC frequency of {X_{n-1} <= 0 and X_n <= 0} with its standard error."""
    n = check_int(n, "n", lo=2)
    paths = _check_paths(paths)
    seed = _check_seed(seed)
    hits = 0
    for walk in _walks(params, spec, seed, 0, paths, n):
        while walk.j < n:
            prev, xs, _ = walk.block()
        # X_{n-1} is the last block's next-to-last row, or the row before the block
        before = xs[-2] if len(xs) > 1 else prev
        hits += int(np.count_nonzero((before <= 0.0) & (xs[-1] <= 0.0)))
    freq = hits / paths
    return freq, float(np.sqrt(freq * (1.0 - freq) / paths))


class ReductionKind(Enum):
    # each kind factors one real root s out of a characteristic polynomial:
    # Z_n = V_n - s V_{n-1} is the AR process with the quotient's coefficients b
    PAIR_SUM = "pair_sum"        # V = X, s = -1, b = (a2,)
    ROOT_SHIFT = "root_shift"    # V = X, s = s2, b = (-a2/s2,), reported as rho
    WALK_SUM = "walk_sum"        # V = X, s = -a2, b = (1,): a random walk
    INTEGRATED = "integrated"    # V = W of integrate_params, s = 1, b = a: W sums X


@dataclass(frozen=True)
class ReductionReport:
    kind: ReductionKind
    paths: int
    n_max: int
    violations: int
    max_rel_err: float
    rho: float | None = None


_REL_TOL = 1e-8


def pathwise_reduction_check(params: ARParams, spec: InnovationSpec,
                             kind: ReductionKind | str, paths: int, n_max: int,
                             seed: int) -> ReductionReport:
    """Verify a process transform pathwise on shared innovations.

    Every kind factors one real root s out of a characteristic polynomial,
    so Z_n = V_n - s V_{n-1} is the AR process with the quotient's
    coefficients b, driven by the innovations Y that drive V:

    ==============  ==============================================  ===  =========
    kind            V, the walked process                           s    b
    ==============  ==============================================  ===  =========
    ``pair_sum``    X                                               -1   (a2,)
    ``walk_sum``    X                                               -a2  (1,)
    ``root_shift``  X                                               s2   (-a2/s2,)
    ``integrated``  W, the AR(p+1) of ``integrate_params(params)``  1    a
    ==============  ==============================================  ===  =========

    The walker steps V from the zero start, and the check asserts
    Z_n = ar_step(b, Y_n, [Z_{n-1}, ..., Z_{n-q}]) entrywise to 1e-8
    relative tolerance, with Z zero before step 1.  For ``integrated`` this
    says that W is the running sum of X.  A non-finite entry on either side
    is a violation, and makes max_rel_err inf.  ``root_shift`` reports
    -a2/s2 as rho.  Raises bounds.PreconditionError when the coefficients
    are outside the transform's region of validity.
    """
    kind = ReductionKind(kind)
    paths = _check_paths(paths)
    n_max = check_int(n_max, "n_max", lo=1)
    seed = _check_seed(seed)
    a = params.a
    walked, rho = params, None
    if kind is not ReductionKind.INTEGRATED:
        if params.p != 2:
            raise PreconditionError(f"{kind.value} applies to order-2 processes")
        a1, a2 = a
    if kind is ReductionKind.PAIR_SUM:
        if a2 != a1 + 1.0:
            raise PreconditionError(f"pair_sum needs a2 = a1 + 1, got {a}")
        s, b = -1.0, (a2,)
    elif kind is ReductionKind.WALK_SUM:
        if a1 + a2 != 1.0:
            raise PreconditionError(f"walk_sum needs a1 + a2 = 1, got {a}")
        s, b = -a2, (1.0,)
    elif kind is ReductionKind.ROOT_SHIFT:
        sol = ar2_closed_form(a1, a2)
        ok = sol.branch is Branch.DISTINCT_REAL and (
            (a1 < 0.0 and a2 < 0.0) or (a2 > 0.0 and a1 + a2 < 1.0))
        if not ok:
            raise PreconditionError(
                f"root_shift needs a1^2 + 4a2 > 0 and (a1, a2 < 0 or "
                f"a2 > 0 with a1 + a2 < 1), got {a}")
        s = sol.s2.real
        rho = -a2 / s
        b = (rho,)
    else:
        walked, s, b = integrate_params(params), 1.0, a
    q = len(b)
    violations, worst = 0, 0.0
    for walk in _walks(walked, spec, seed, 0, paths, n_max):
        z = np.zeros((q, walk.ids.size))    # z[-q:] is Z_{n-q} .. Z_{n-1} at a block's start
        while walk.j < n_max:
            v_prev, vs, ys = walk.block()
            # a non-finite entry is a violation, not a warning
            with np.errstate(invalid="ignore", over="ignore"):
                z = np.concatenate([z[-q:], vs - s * np.vstack([v_prev, vs[:-1]])])
                lhs = z[q:]
                rhs = ar_step(b, ys, [z[q - k:len(z) - k] for k in range(1, q + 1)])
                rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
            # NaN fails <= as well: it comes only from a non-finite entry
            violations += int(np.count_nonzero(~(rel <= _REL_TOL)))
            worst = np.maximum(worst, rel.max())
    worst = np.inf if np.isnan(worst) else float(worst)
    return ReductionReport(kind=kind, paths=paths, n_max=n_max,
                           violations=violations, max_rel_err=worst, rho=rho)
