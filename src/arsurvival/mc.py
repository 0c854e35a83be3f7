"""Monte Carlo estimation of AR(p) survival probabilities.

A path survives to horizon N when X_n <= x for every n = 1..N; the crossing
time tau_x = inf{n >= 0 : X_n > x} makes the survival probability
p_N(x) = P(tau_x > N).  The engine walks every path to its crossing or to
the largest grid entry and counts the crossings of each grid interval, so
one pass serves every horizon.

Reproducibility: innovation j of path i in a run with seed s is the
transform of draw j of rng stream (s, i), whose layout ``rng`` states.
Innovations are therefore a pure function of (seed, path, step), which
makes estimates bit-identical for any worker count and any tiling, and
makes runs at different barriers share their noise (common random
numbers).  With more than one worker the calling process walks the first
range of paths and a forked child each other range; a child sends its
histogram back through a pipe and exits at once.  Every simulation here,
the engine, the pair frequency and the reduction checks, steps tiles of at
most ``_TILE_PATHS`` paths with one walker, ``_Walk``, so memory is bounded
whatever the path count, and all tiles of a range reuse one refill buffer.
It makes one rng call per refill, which gives a small or thinned-out live
set many steps at once, but never more than the tile has walked, and steps
the recursion through the whole refill as one time-major block: no
innovation changes, only when it is made.

Survival certificate: innovations are bounded above by B, the largest value
the transform takes on the rng's uniform range [2^-54, 1 - 2^-53].  When
every a_k > 0, a level c <= x with B + a_1 c + ... + a_p c <= c in float64,
summed as ``ar_step`` sums, keeps a path whose lags are all <= c at or below
c forever, since rounding is monotone: it never crosses and never turns NaN.
The engine takes the first of c* = -B/(a_1 + ... + a_p - 1) and 2c*, each
capped at x, that passes the check when the sum exceeds 1 (c* itself is the
fixed point, where rounding decides), and c = x otherwise.  The engine
counts and compacts once per block: each path that crossed inside it goes
into the grid bin of its first crossing's step, each that went NaN first
into the non-finite bin, and it drops both, along with the live paths whose
lags are all <= c at the block's end.  Those stay among the survivors of
every horizon, which is what walking them would give, and the next refill
draws no words for them.  Words are counter-based, so no other path's
draws change.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bounds import integrate_params
from .coeffs import ARParams, ar2_closed_form, ar_step, Branch
from .innovations import InnovationSpec, json_int, json_number, spec_from_json
from .rng import RNG_PROVENANCE, U_MAX, U_MIN, path_uniform_block, refill_buffer

__all__ = [
    "SurvivalCurve",
    "ConstraintError",
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
# rng entry points; nothing here calls it, the name stays until that list drops it
uniform_block = path_uniform_block

# estimates with more than this fraction of non-finite paths are invalid
_NONFINITE_LIMIT = 1e-3


class ConstraintError(ValueError):
    """Coefficients do not satisfy the requested transform's constraints."""


# ---------------------------------------------------------------------------
# vectorized crossing-time engine


class _Walk:
    """Paths lo..hi-1 of one run, stepped together from the zero start.

    ``block()`` makes one rng call and steps the recursion through every
    column it returned that the horizon reaches: it returns X and Y as
    time-major (steps, live) blocks, row t holding step j + t + 1, and
    leaves lags[k] = X_{j-k} for the new j, the steps taken.  The call looks
    ahead no further than the walk has come, so the blocks end at steps 4,
    8, 16, 32, ... until 2^16 words cap them.  ``out`` is a
    ``refill_buffer`` of a range that holds lo..hi-1, made for ``n_max``
    steps, which walks of its tiles share one after another.  X is written
    into its second array, which the refill no longer needs; the next refill
    overwrites both blocks, so ``compact(live)``, called once after each
    block, copies the lags out and keeps only the rows where the boolean
    ``live`` is True (every row when None), gathering each array by one
    index of the kept rows.  The dense route's refills draw and transform in
    place in ``out`` too: no refill allocates an array of its size, whose
    memory the allocator would hand back to the system.
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

    def block(self) -> tuple[np.ndarray, np.ndarray]:
        u = path_uniform_block(self.seed, self.ids, self.j, self.n_max - self.j,
                               out=self.out)
        # columns past the horizon are drawn, not transformed
        u = u[:, :self.n_max - self.j]
        ys = self.spec.transform(u, out=u).T
        xs = self.out[1][:ys.size].reshape(ys.shape)
        lags = self.lags
        # a path stepped past its crossing may overflow; it is decided already
        with np.errstate(invalid="ignore", over="ignore"):
            for y, x in zip(ys, xs):
                lags = [ar_step(self.a, y, lags, out=x)] + lags[:-1]
        self.lags = lags
        self.j += len(ys)
        return xs, ys

    def compact(self, live=None) -> None:
        if live is None:
            self.lags = [lag.copy() for lag in self.lags]
        else:
            keep = np.flatnonzero(live)
            self.ids = self.ids.take(keep)
            self.lags = [lag.take(keep) for lag in self.lags]


def _walks(params: ARParams, spec: InnovationSpec, seed: int, lo: int, hi: int,
           n_max: int):
    """A walk of each tile of paths lo..hi-1 in turn, all on one refill buffer.

    The tiles are the fewest equal ranges of at most ``_TILE_PATHS`` paths.
    They differ in size by at most one, so the buffer is made for
    ceil((hi - lo) / tiles) paths: not every tile, and not always the first,
    is the largest.
    """
    tiles = -(-(hi - lo) // _TILE_PATHS)
    out = refill_buffer(-(-(hi - lo) // tiles), n_max)
    for a, b in _split(lo, hi, tiles):
        yield _Walk(params, spec, seed, a, b, n_max, out)


def _innovation_bound(spec: InnovationSpec) -> float:
    """The largest innovation the rng can give: every transform is monotone,
    so it is taken at an end of the uniform range [U_MIN, U_MAX]."""
    return float(spec.transform(np.array([U_MIN, U_MAX])).max())


def _survival_level(params: ARParams, spec: InnovationSpec, x: float) -> float | None:
    """A level c <= x that a path whose lags are all <= c never leaves, or None.

    Needs every a_k > 0 (0 times a -inf lag is NaN) and the float64 check
    ar_step(a, B, [c]*p) <= c, with B = ``_innovation_bound(spec)``.  When
    sum(a) > 1 the candidates are c* = -B/(sum(a) - 1) and then 2c*, each
    capped at x: c* is the fixed point itself, where rounding can fail the
    check, and any level below it holds too.
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
    tile's end into the last bin.  Each block's end also drops the paths
    held below the survival ``level``, since they can never cross, so no
    refill draws for them.
    """
    hist[-1] += walk.ids.size
    while walk.ids.size and walk.j < walk.n_max:
        n0 = walk.j
        xs, _ = walk.block()
        # NaN fails <= x, so a path leaves at its first crossing or NaN
        below = xs <= x
        live = below.all(axis=0)
        gone = np.flatnonzero(~live)
        if gone.size:
            first = np.argmin(below[:, gone], axis=0)
            crossed = first[xs[first, gone] > x]
            # the bin of each of the block's steps; the steps are few, the paths many
            bins = np.searchsorted(grid, np.arange(n0 + 1, n0 + 1 + len(xs))) + 1
            np.add.at(hist, bins, np.bincount(crossed, minlength=len(xs)))
            hist[0] += gone.size - crossed.size
            hist[-1] -= gone.size
        if level is not None:
            # held: every lag at or below the level; it stays in the last bin
            live &= np.maximum.reduce(walk.lags) > level
        walk.compact(live)


def _range_counts(params: ARParams, spec: InnovationSpec, x: float, grid: np.ndarray,
                  seed: int, lo: int, hi: int) -> np.ndarray:
    """The histogram of the crossing times of paths lo..hi-1 over the grid.

    Bin 0 holds the non-finite paths, bin k + 1 those that cross at a step
    n with grid[k-1] < n <= grid[k], which survive exactly k horizons, and
    the last bin those that survive every horizon.  The range is walked in
    equal tiles of at most ``_TILE_PATHS`` paths, which bounds the engine's
    memory, and every tile reuses one refill buffer.
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

    Running one range here saves a fork and its cold heap.  Each child writes
    one pickled (ok, value) message to its pipe and exits at once; each pipe
    is read to EOF before its child is reaped, since a histogram may outgrow
    the pipe's buffer.  A child's exception is raised here with the child's
    traceback in a note, or as a RuntimeError that names it when it does not
    pickle.  A child that exits non-zero or sends a message that does not
    unpickle raises RuntimeError.  However this call ends, by an exception of
    the first range or an interrupt too, every child not yet reaped is killed
    and reaped at once, so none outlives it.
    """
    import signal
    import traceback

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
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


_INT64_MAX = np.iinfo(np.int64).max


def _int64_array(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} must fit in int64") from None


def _check_grid(grid) -> np.ndarray:
    """The grid as int64; ValueError unless 1-d, non-empty and increasing from 1
    to below 2^63 - 1, so that each block's step numbers, ``np.arange(n0 + 1,
    n0 + 1 + steps)`` with a stop of at most grid[-1] + 1, stay int64."""
    grid = _int64_array(grid, "grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if grid[0] < 1 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be strictly increasing horizons >= 1")
    if grid[-1] >= _INT64_MAX:
        raise ValueError(f"grid horizons must be below {_INT64_MAX}")
    return grid


def _check_paths(paths: int) -> None:
    if not 1 <= paths <= _INT64_MAX:
        raise ValueError(f"paths must be in [1, {_INT64_MAX}]")


def _check_seed(seed: int) -> None:
    # the rng keys on the seed mod 2^64, so two seeds outside the range could
    # give one stream while their files record different seeds
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be in [0, 2^64)")


def json_run_fields(obj: dict, a) -> tuple[tuple[float, ...], dict]:
    """The fields a simulation config and a curve file share, read from JSON.

    Returns the coefficients ``a``, which must be a list of numbers, and the
    keyword arguments spec, x, grid, paths and seed.  Numbers follow
    ``json_number`` and integers ``json_int``; anything else raises.
    """
    if not isinstance(a, list):
        raise ValueError(f"a must be a list of numbers, got {a!r}")
    return tuple(json_number(v, "a") for v in a), {
        "spec": spec_from_json(obj["innovation"]),
        "x": json_number(obj["x"], "x"),
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
        if np.isnan(self.x):
            raise ValueError("barrier x must not be NaN")
        self.grid = _check_grid(self.grid)
        self.survivors = _int64_array(self.survivors, "survivors")
        if self.grid.shape != self.survivors.shape:
            raise ValueError("grid and survivors must have equal length")
        _check_paths(self.paths)
        _check_seed(self.seed)
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
            "grid": [int(n) for n in self.grid],
            "survivors": [int(s) for s in self.survivors],
            "paths": self.paths,
            "p_hat": [float(v) for v in self.p_hat],
            "stderr": [float(v) for v in self.stderr],
            "zero_flag": [bool(z) for z in self.zero_flag],
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
        lines = [",".join(self.CSV_COLUMNS)]
        for i, n in enumerate(self.grid):
            lines.append(",".join([
                str(int(n)), str(int(self.survivors[i])), str(self.paths),
                repr(float(self.p_hat[i])), repr(float(self.stderr[i])),
                str(int(self.zero_flag[i])),
            ]))
        return "\n".join(lines) + "\n"


def estimate_survival(params: ARParams, spec: InnovationSpec, x: float, grid,
                      paths: int, seed: int, workers: int = 1) -> SurvivalCurve:
    """Estimate p_N(x) on a grid of horizons from ``paths`` simulated paths.

    One walk per path serves the whole grid.  Paths are cut into one
    contiguous range per process, and each process walks its range in equal
    tiles of at most 65,536 paths on one refill buffer.  There are
    min(workers, paths, CPU count) processes: the calling one and a child
    forked per further range, which sends its result through a pipe and
    exits (``_fork_ranges``).  Each range returns one histogram of its
    crossing times (``_range_counts``); their sum gives the survivors and,
    in bin 0, the non-finite count.
    Innovation j of path i is built from draw j of rng stream (seed, i), so
    the result does not depend on the ranges, the tiles or the worker count.
    A NaN barrier, a seed outside [0, 2^64) or workers < 1 raises ValueError;
    +-inf is allowed.  A child's exception is raised here with its traceback,
    a child that dies raises a RuntimeError, and no child outlives the call:
    an exception or interrupt in the calling process kills the children at
    once instead of waiting for them.
    """
    grid = _check_grid(grid)
    _check_paths(paths)
    _check_seed(seed)
    if np.isnan(x):
        raise ValueError("barrier x must not be NaN")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    procs = min(workers, paths, os.cpu_count() or 1)
    jobs = [(params, spec, x, grid, seed, lo, hi) for lo, hi in _split(0, paths, procs)]
    hist = sum([_range_counts(*jobs[0])] if procs == 1 else _fork_ranges(jobs))
    # survivors of horizon grid[k] are the paths in bins k + 2 and above
    return SurvivalCurve(params=params, spec=spec, x=float(x), grid=grid,
                         survivors=np.cumsum(hist[:1:-1])[::-1], paths=paths,
                         seed=seed, nonfinite_paths=int(hist[0]))


# ---------------------------------------------------------------------------
# auxiliary statistics and pathwise identities


def pair_survival_frequency(params: ARParams, spec: InnovationSpec, n: int,
                            paths: int, seed: int) -> tuple[float, float]:
    """MC frequency of {X_{n-1} <= 0 and X_n <= 0} with its standard error."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_paths(paths)
    _check_seed(seed)
    hits = 0
    for walk in _walks(params, spec, seed, 0, paths, n):
        while walk.j < n:
            prev = walk.lags[0]
            xs, _ = walk.block()
            walk.compact()
        # X_{n-1} is the last block's next-to-last row, or the block before ends on it
        before = xs[-2] if len(xs) > 1 else prev
        hits += int(np.count_nonzero((before <= 0.0) & (xs[-1] <= 0.0)))
    freq = hits / paths
    return freq, float(np.sqrt(freq * (1.0 - freq) / paths))


class ReductionKind(Enum):
    PAIR_SUM = "pair_sum"        # Z_n = X_n + X_{n-1} is AR(1) with coefficient a2
    ROOT_SHIFT = "root_shift"    # Z_n = X_n - s2 X_{n-1} is AR(1) with -a2/s2
    WALK_SUM = "walk_sum"        # S_n = X_n + a2 X_{n-1} is a random walk
    INTEGRATED = "integrated"    # order-lifted coefficients give the running sum


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

    Simulates X and the transformed process from the same innovations and
    asserts the transformed recursion entrywise to 1e-8 relative tolerance.
    A non-finite entry on either side is a violation, and makes max_rel_err
    inf.  Raises ConstraintError when the coefficients do not meet the transform's
    requirements.
    """
    if not isinstance(kind, ReductionKind):
        kind = ReductionKind(kind)
    _check_paths(paths)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_seed(seed)
    a = params.a
    rho = None
    if kind is not ReductionKind.INTEGRATED:
        if params.p != 2:
            raise ConstraintError(f"{kind.value} applies to order-2 processes")
        a1, a2 = a
    # the AR(1) kinds check Z_n = X_n - s X_{n-1} = r Z_{n-1} + Y_n
    if kind is ReductionKind.PAIR_SUM:
        if a2 != a1 + 1.0:
            raise ConstraintError(f"pair_sum needs a2 = a1 + 1, got {a}")
        s, r = -1.0, a2
    elif kind is ReductionKind.WALK_SUM:
        if a1 + a2 != 1.0:
            raise ConstraintError(f"walk_sum needs a1 + a2 = 1, got {a}")
        s, r = -a2, 1.0
    elif kind is ReductionKind.ROOT_SHIFT:
        sol = ar2_closed_form(a1, a2)
        ok = sol.branch is Branch.DISTINCT_REAL and (
            (a1 < 0.0 and a2 < 0.0) or (a2 > 0.0 and a1 + a2 < 1.0))
        if not ok:
            raise ConstraintError(
                f"root_shift needs a1^2 + 4a2 > 0 and (a1, a2 < 0 or "
                f"a2 > 0 with a1 + a2 < 1), got {a}")
        s = sol.s2.real
        r = rho = -a2 / s
    lifted = integrate_params(params).a if kind is ReductionKind.INTEGRATED else None
    violations, worst = 0, 0.0
    for walk in _walks(params, spec, seed, 0, paths, n_max):
        w_lags = [np.zeros(walk.ids.size)] * (params.p + 1)
        z_prev = total = np.zeros((1, walk.ids.size))
        while walk.j < n_max:
            x_prev = walk.lags[0][None]
            xs, ys = walk.block()
            walk.compact()
            # a non-finite entry is a violation, not a warning
            with np.errstate(invalid="ignore", over="ignore"):
                if lifted is None:
                    lhs = xs - s * np.concatenate([x_prev, xs[:-1]])
                    rhs = ar_step((r,), ys, [np.concatenate([z_prev, lhs[:-1]])])
                    z_prev = lhs[-1:]
                else:
                    lhs = np.empty_like(xs)         # W_n, the running sum of X
                    for y, w in zip(ys, lhs):
                        w_lags = [ar_step(lifted, y, w_lags, out=w)] + w_lags[:-1]
                    # accumulate adds along time in the order a loop would
                    rhs = np.add.accumulate(np.concatenate([total, xs]))[1:]
                    total = rhs[-1:]
                rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
            # NaN fails <= as well: it comes only from a non-finite entry
            violations += int(np.count_nonzero(~(rel <= _REL_TOL)))
            worst = np.maximum(worst, rel.max())
    worst = np.inf if np.isnan(worst) else float(worst)
    return ReductionReport(kind=kind, paths=paths, n_max=n_max,
                           violations=violations, max_rel_err=worst, rho=rho)
