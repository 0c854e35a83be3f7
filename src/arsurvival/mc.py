"""Monte Carlo estimation of AR(p) survival probabilities.

A path survives to horizon N when X_n <= x for every n = 1..N; the crossing
time tau_x = inf{n >= 0 : X_n > x} makes the survival probability
p_N(x) = P(tau_x > N).  The engine draws one crossing time per path with the
horizon set to the largest grid entry, so tail counts serve every horizon in
one pass.

Reproducibility: innovation j of path i in a run with seed s is built from
lane j%4 of Philox4x64-10 at key (s, 0) and counter (i, j//4, 0, 0) (see
rng).  Innovations are therefore a pure function of (seed, path, step),
which makes estimates bit-identical for any worker count and any tiling,
and makes runs at different barriers share their noise (common random
numbers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bounds import integrate_params
from .coeffs import ARParams, ar2_closed_form, Branch
from .innovations import InnovationSpec, spec_from_json
from .rng import RNGStream, path_uniform_block

__all__ = [
    "SurvivalCurve",
    "NonFiniteSampleError",
    "ConstraintError",
    "crossing_time_from_innovations",
    "simulate_crossing_time",
    "estimate_survival",
    "pair_survival_frequency",
    "ReductionKind",
    "ReductionReport",
    "pathwise_reduction_check",
    "resolve_workers",
]

SCHEMA_VERSION = 2

# curve files of these versions carry the same fields; version 1 curves were
# drawn from the earlier stream layout key = (seed, path), counter = (j//4, 0, 0, 0)
_READABLE_SCHEMA_VERSIONS = (1, 2)

RNG_PROVENANCE = ("philox4x64-10 counter mode; key = (seed, 0); "
                  "draw j of path i = lane j%4 of counter (i, j//4, 0, 0); "
                  "uniform = ((word >> 11) + 0.5) * 2^-53; inverse-cdf transform")

# paths per tile at most; tiles bound the engine's memory for any path count
_TILE_PATHS = 65_536

# the benchmark's tracer (perfbench/spans.py) lists mc.uniform_block among the
# rng entry points; nothing here calls it, the name stays until that list drops it
uniform_block = path_uniform_block

# estimates with more than this fraction of non-finite paths are invalid
_NONFINITE_LIMIT = 1e-3

WORKERS_ENV = "ARSURVIVAL_WORKERS"


class NonFiniteSampleError(ArithmeticError):
    """A simulated path produced a non-finite value."""


class ConstraintError(ValueError):
    """Coefficients do not satisfy the requested transform's constraints."""


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# single-path operations


def crossing_time_from_innovations(params: ARParams, x: float, y) -> int:
    """First n with X_n > x for a given innovation sequence, len(y)+1 if none.

    Overflow resolves faithfully: +inf exceeds any finite barrier, -inf
    survives one; an indeterminate NaN state raises.
    """
    a = params.a
    p = params.p
    y = np.asarray(y, dtype=float)
    state = [0.0] * p
    for n, yn in enumerate(y, start=1):
        xval = float(yn)
        for k in range(p):
            xval += a[k] * state[k]
        if np.isnan(xval):
            raise NonFiniteSampleError(f"X_{n} is indeterminate (NaN)")
        if xval > x:
            return n
        state.insert(0, xval)
        state.pop()
    return len(y) + 1


def simulate_crossing_time(params: ARParams, spec: InnovationSpec, x: float,
                           n_max: int, stream: RNGStream) -> int:
    """Simulate one path and return tau_x, or n_max + 1 when it never crosses.

    O(p) state; innovations are drawn lazily in chunks, so the draw positions
    consumed for step n are exactly draws 0..n-1 of the stream.  Matches the
    vectorized estimator path for path: NaN states raise, signed overflow
    resolves as in crossing_time_from_innovations.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = params.a
    p = params.p
    state = [0.0] * p
    n = 0
    while n < n_max:
        block = spec.transform(stream.uniforms(min(256, n_max - n)))
        for yn in block:
            n += 1
            xval = float(yn)
            for k in range(p):
                xval += a[k] * state[k]
            if np.isnan(xval):
                raise NonFiniteSampleError(f"X_{n} is indeterminate (NaN)")
            if xval > x:
                return n
            state.insert(0, xval)
            state.pop()
    return n_max + 1


# ---------------------------------------------------------------------------
# vectorized crossing-time engine


def _crossing_times_range(params: ARParams, spec: InnovationSpec, x: float,
                          n_max: int, seed: int, lo: int, hi: int):
    """Crossing times for paths lo..hi-1; returns (tau array, nonfinite count).

    tau = n_max + 1 marks survival through n_max; tau = 0 marks a path that
    went non-finite (NaN) and is excluded from every survivor count.
    """
    a = params.a
    p = params.p
    n_paths = hi - lo
    tau = np.full(n_paths, n_max + 1, dtype=np.int64)
    pos = np.arange(n_paths, dtype=np.int64)
    ids = np.arange(lo, hi, dtype=np.uint64)
    state = [np.zeros(n_paths) for _ in range(p)]
    ybuf = None
    nonfinite = 0
    for n in range(1, n_max + 1):
        j = n - 1
        lane = j & 3
        if lane == 0:
            ybuf = spec.transform(path_uniform_block(seed, ids, j >> 2))
        with np.errstate(invalid="ignore", over="ignore"):
            xval = ybuf[:, lane] + a[0] * state[0]
            for k in range(1, p):
                xval += a[k] * state[k]
        bad = np.isnan(xval)
        crossed = xval > x
        dead = crossed | bad
        if dead.any():
            tau[pos[crossed]] = n
            if bad.any():
                tau[pos[bad]] = 0
                nonfinite += int(bad.sum())
            keep = ~dead
            pos = pos[keep]
            ids = ids[keep]
            xval = xval[keep]
            ybuf = ybuf[keep]
            for k in range(p):
                state[k] = state[k][keep]
            if pos.size == 0:
                break
        state.insert(0, xval)
        state.pop()
    return tau, nonfinite


def _tile_worker(args):
    """Survivor counts on the grid and the non-finite count of one tile."""
    params, spec, x, n_max, seed, lo, hi, grid = args
    tau, nonfinite = _crossing_times_range(params, spec, x, n_max, seed, lo, hi)
    # at_least[k] counts paths with tau >= k, so survivors of horizon n are
    # at_least[n + 1]; non-finite paths (tau = 0) fall below every horizon
    at_least = np.cumsum(np.bincount(tau, minlength=n_max + 2)[::-1])[::-1]
    return at_least[np.asarray(grid) + 1], nonfinite


def _drain(jobs, next_tile):
    """Run the tiles a shared counter hands out until none is left."""
    done = []
    while True:
        with next_tile.get_lock():
            i = next_tile.value
            next_tile.value = i + 1
        if i >= len(jobs):
            return done
        done.append(_tile_worker(jobs[i]))


def _drain_into(jobs, next_tile, conn):
    conn.send(_drain(jobs, next_tile))
    conn.close()


def _run_tiles(jobs, workers):
    """Tile results from the calling process and ``workers - 1`` forked ones.

    Each process takes the next unclaimed tile when it finishes one, so a
    process that starts late or runs slow takes fewer tiles.  The calling
    process works too, which saves a fork and its cold heap.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    next_tile = ctx.Value("q", 0)
    procs, readers = [], []
    try:
        for _ in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_drain_into, args=(jobs, next_tile, writer),
                               daemon=True)
            proc.start()
            writer.close()
            procs.append(proc)
            readers.append(reader)
        results = _drain(jobs, next_tile)
        for reader in readers:
            try:
                results += reader.recv()
            except EOFError:
                raise RuntimeError("a simulation worker exited without its result") from None
        return results
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()


@dataclass(eq=False)
class SurvivalCurve:
    """Monte Carlo survival estimates over a grid of horizons.

    survivors[i] counts paths with tau > grid[i]; it is non-increasing along
    the grid by construction.  Entries with zero survivors are censored
    (zero_flag): p_hat is reported as 0 and only the rule-of-three bound
    3/paths is claimed.  nonfinite_paths counts paths whose state became
    indeterminate (NaN); they are counted as non-survivors everywhere, and
    once they exceed 0.1% of all paths the whole estimate is invalid.
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
        self.grid = np.asarray(self.grid, dtype=np.int64)
        self.survivors = np.asarray(self.survivors, dtype=np.int64)
        if self.grid.shape != self.survivors.shape:
            raise ValueError("grid and survivors must have equal length")
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
        if obj.get("type") != "survival_curve":
            raise ValueError("not a survival_curve object")
        if obj.get("schema_version") not in _READABLE_SCHEMA_VERSIONS:
            raise ValueError(f"unsupported schema_version {obj.get('schema_version')!r}")
        return cls(
            params=ARParams(tuple(obj["params"]["a"])),
            spec=spec_from_json(obj["innovation"]),
            x=float(obj["x"]),
            grid=np.asarray(obj["grid"], dtype=np.int64),
            survivors=np.asarray(obj["survivors"], dtype=np.int64),
            paths=int(obj["paths"]),
            seed=int(obj["seed"]),
            nonfinite_paths=int(obj.get("nonfinite_paths", 0)),
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
                      paths: int, seed: int, workers: int | None = None) -> SurvivalCurve:
    """Estimate p_N(x) on a grid of horizons from ``paths`` simulated paths.

    One crossing time per path serves the whole grid.  Paths are cut into
    equal contiguous tiles of at most 65,536 paths, at least one per worker,
    and the workers take tiles until none is left.  Every path owns a
    counter-based stream keyed by (seed, path index), so the result does not
    depend on the tiling or the worker count.
    """
    grid = np.asarray(grid, dtype=np.int64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if grid[0] < 1 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be strictly increasing horizons >= 1")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    workers = resolve_workers(workers)
    n_max = int(grid[-1])
    n_tiles = min(paths, max(workers, -(-paths // _TILE_PATHS)))
    cuts = np.linspace(0, paths, n_tiles + 1).astype(int)
    jobs = [(params, spec, x, n_max, seed, int(lo), int(hi), tuple(int(n) for n in grid))
            for lo, hi in zip(cuts[:-1], cuts[1:])]
    if workers == 1 or len(jobs) == 1:
        results = [_tile_worker(job) for job in jobs]
    else:
        results = _run_tiles(jobs, min(workers, len(jobs)))
    survivors = np.zeros(grid.size, dtype=np.int64)
    nonfinite = 0
    for counts, bad in results:
        survivors += np.asarray(counts, dtype=np.int64)
        nonfinite += bad
    return SurvivalCurve(params=params, spec=spec, x=float(x), grid=grid,
                         survivors=survivors, paths=paths, seed=seed,
                         nonfinite_paths=nonfinite)


# ---------------------------------------------------------------------------
# auxiliary statistics and pathwise identities


def _innovation_matrix(spec: InnovationSpec, seed: int, paths: int, n: int) -> np.ndarray:
    """Innovations Y[path, step] for steps 1..n of paths 0..paths-1."""
    n_blocks = (n + 3) // 4
    ids = np.arange(paths, dtype=np.uint64)
    u = np.empty((paths, n_blocks, 4))
    for b in range(n_blocks):
        u[:, b] = path_uniform_block(seed, ids, b)
    return spec.transform(u.reshape(paths, 4 * n_blocks)[:, :n])


def _path_matrix(params: ARParams, y: np.ndarray) -> np.ndarray:
    """X[path, n] for n = 0..n_max (column 0 is the zero start)."""
    a = params.a
    p = params.p
    n_paths, n_max = y.shape
    xs = np.zeros((n_paths, n_max + 1))
    for n in range(1, n_max + 1):
        acc = y[:, n - 1].copy()
        for k in range(1, p + 1):
            if n - k >= 1:
                acc += a[k - 1] * xs[:, n - k]
        xs[:, n] = acc
    return xs


def pair_survival_frequency(params: ARParams, spec: InnovationSpec, n: int,
                            paths: int, seed: int) -> tuple[float, float]:
    """MC frequency of {X_{n-1} <= 0 and X_n <= 0} with its standard error."""
    if n < 2:
        raise ValueError("n must be >= 2")
    y = _innovation_matrix(spec, seed, paths, n)
    xs = _path_matrix(params, y)
    hits = int(np.count_nonzero((xs[:, n - 1] <= 0.0) & (xs[:, n] <= 0.0)))
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


def _count_violations(lhs: np.ndarray, rhs: np.ndarray) -> tuple[int, float]:
    scale = np.maximum(1.0, np.abs(lhs))
    rel = np.abs(lhs - rhs) / scale
    return int(np.count_nonzero(rel > _REL_TOL)), float(rel.max())


def pathwise_reduction_check(params: ARParams, spec: InnovationSpec,
                             kind: ReductionKind | str, paths: int, n_max: int,
                             seed: int) -> ReductionReport:
    """Verify a process transform pathwise on shared innovations.

    Simulates X and the transformed process from the same innovations and
    asserts the transformed recursion entrywise to 1e-8 relative tolerance.
    Raises ConstraintError when the coefficients do not meet the transform's
    requirements.
    """
    if not isinstance(kind, ReductionKind):
        kind = ReductionKind(kind)
    a = params.a
    rho = None
    if kind is not ReductionKind.INTEGRATED:
        if params.p != 2:
            raise ConstraintError(f"{kind.value} applies to order-2 processes")
        a1, a2 = a
    y = _innovation_matrix(spec, seed, paths, n_max)
    xs = _path_matrix(params, y)
    if kind is ReductionKind.PAIR_SUM:
        if a2 != a1 + 1.0:
            raise ConstraintError(f"pair_sum needs a2 = a1 + 1, got {a}")
        z = xs[:, 1:] + xs[:, :-1]
        z_prev = np.concatenate([np.zeros((paths, 1)), z[:, :-1]], axis=1)
        violations, worst = _count_violations(z, a2 * z_prev + y)
    elif kind is ReductionKind.WALK_SUM:
        if a1 + a2 != 1.0:
            raise ConstraintError(f"walk_sum needs a1 + a2 = 1, got {a}")
        s = xs[:, 1:] + a2 * xs[:, :-1]
        s_prev = np.concatenate([np.zeros((paths, 1)), s[:, :-1]], axis=1)
        violations, worst = _count_violations(s, s_prev + y)
    elif kind is ReductionKind.ROOT_SHIFT:
        sol = ar2_closed_form(a1, a2)
        ok = sol.branch is Branch.DISTINCT_REAL and (
            (a1 < 0.0 and a2 < 0.0) or (a2 > 0.0 and a1 + a2 < 1.0))
        if not ok:
            raise ConstraintError(
                f"root_shift needs a1^2 + 4a2 > 0 and (a1, a2 < 0 or "
                f"a2 > 0 with a1 + a2 < 1), got {a}")
        s2 = sol.s2.real
        rho = -a2 / s2
        z = xs[:, 1:] - s2 * xs[:, :-1]
        z_prev = np.concatenate([np.zeros((paths, 1)), z[:, :-1]], axis=1)
        violations, worst = _count_violations(z, rho * z_prev + y)
    elif kind is ReductionKind.INTEGRATED:
        lifted = integrate_params(params)
        ws = _path_matrix(lifted, y)
        violations, worst = _count_violations(ws[:, 1:], np.cumsum(xs[:, 1:], axis=1))
    else:  # pragma: no cover
        raise ValueError(f"unknown reduction kind {kind!r}")
    return ReductionReport(kind=kind, paths=paths, n_max=n_max,
                           violations=violations, max_rel_err=worst, rho=rho)
