"""The three benchmark workloads: inputs derived from a seed, operations, checks.

An operation is one CLI run or one public call.  It fails when it raises,
exits non-zero or fails its correctness check.  Checks compare against exact
ground truth or hold for any RNG layout, so a versioned change of the random
stream keeps them valid: no golden digests.

The layers are called through their modules (``oracle.enumerate_survival``,
not a name imported here), so the tracer's rebinding reaches these calls.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from arsurvival import acceptance, asymptotics, bounds, cli, innovations, mc, oracle
from arsurvival.asymptotics import DecayClass
from arsurvival.coeffs import ar_params

import spans

Z = 4.0     # every Monte Carlo check is two-sided at 4 sigma of the exact value


@dataclass
class Op:
    """One operation of a pass.

    ``run`` does the work and is the only timed part.  ``check(out, outs)``
    returns a list of failures, given this op's output and the outputs of the
    whole pass by op name; ``steps(out)`` counts the path-steps it simulated.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    steps: Callable[[object], int] = lambda out: 0


@dataclass
class PassResult:
    wall: float
    ref_wall: float | None      # wall in reference seconds, see calibrate()
    failures: list
    attempted: int
    failed: int
    path_steps: int


# The shared machine's speed drifts by up to 1.45x over seconds to minutes.
# A fixed kernel timed between operations measures that speed, and a pass's
# wall time is rescaled to the speed at which the kernel takes CAL_REF_S:
# reference seconds.
CAL_REF_S = 0.025
CAL_EVERY_S = 0.25          # operation time between two calibrations
_CAL_WORDS = np.arange(200_000, dtype=np.uint64)


def calibrate() -> float:
    """Time a fixed mix of interpreter and numpy work that never calls arsurvival."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    words = _CAL_WORDS
    for _ in range(6):
        words = words * np.uint64(0x9E3779B97F4A7C15) + (words >> np.uint64(7))
    return time.perf_counter() - start


def run_ops(ops: list[Op], calibrated: bool = True) -> PassResult:
    """Run ops in order and time them; check the outputs after the clock stops.

    The wall time sums the operations only.  Calibrations run before the
    first op, after every CAL_EVERY_S of op time and after the last op.
    """
    outs, failures = {}, []
    cals = [calibrate()] if calibrated else []
    wall = since = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            outs[op.name] = op.run()
        except Exception:
            failures.append(f"{op.name}: raised\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        wall += elapsed
        since += elapsed
        if calibrated and since >= CAL_EVERY_S:
            cals.append(calibrate())
            since = 0.0
    if calibrated and since:
        cals.append(calibrate())
    failed, steps = len(failures), 0
    for op in ops:
        if op.name not in outs:
            continue
        try:
            bad = op.check(outs[op.name], outs)
            steps += 0 if bad else op.steps(outs[op.name])
        except Exception:
            bad = [f"check raised\n{traceback.format_exc()}"]
        failed += bool(bad)
        failures += [f"{op.name}: {b}" for b in bad]
    ref_wall = wall * CAL_REF_S / statistics.median(cals) if calibrated else None
    return PassResult(wall, ref_wall, failures, len(ops), failed, steps)


def _grid(n_max: int) -> list[int]:
    return list(range(1, n_max + 1))


def _within(p_hat: float, exact: float, paths: int) -> bool:
    """|p_hat - p| <= Z sigma, with sigma the binomial error at the exact p."""
    return abs(p_hat - exact) <= Z * math.sqrt(exact * (1.0 - exact) / paths) + 1e-15


# ---------------------------------------------------------------------------
# Monte Carlo workloads: `arsurvival simulate` on generated config files


TWIN = "_w2"


@dataclass
class SimConfig:
    name: str
    a: list
    innovation: dict
    x: float
    n_max: int
    paths: int
    # extra check of the stored curve: list of failures
    check: Callable[[dict], list] = lambda curve: []


class MonteCarlo:
    """Config files built from the seed, run through ``cli.main``.

    Every config has a twin that differs only in its output stem; the pass
    runs the configs at 1 worker and the scaling step runs the twins at 2.
    """

    def __init__(self, configs: list[SimConfig], seed: int, work: Path,
                 facts: dict | None = None):
        rng = random.Random(seed)
        self.configs = configs
        self.work = work
        self.facts = facts or {}
        for cfg in configs:
            cfg_seed = rng.randrange(1, 2 ** 62)
            for stem in (cfg.name, cfg.name + TWIN):
                (work / f"{stem}.cfg.json").write_text(json.dumps({
                    "a": cfg.a, "innovation": cfg.innovation, "x": cfg.x,
                    "grid": _grid(cfg.n_max), "paths": cfg.paths, "seed": cfg_seed,
                    "out": str(work / stem)}))

    def _op(self, cfg: SimConfig, stem: str, workers: int) -> Op:
        argv = ["simulate", str(self.work / f"{stem}.cfg.json"), "--workers", str(workers)]
        return Op(stem, lambda: cli.main(argv),
                  lambda rc, outs: self._check(cfg, stem, rc),
                  lambda rc: self._steps(stem))

    def _curve(self, stem: str) -> dict:
        return json.loads((self.work / f"{stem}.json").read_text())

    def _steps(self, stem: str) -> int:
        curve = self._curve(stem)
        return spans.path_steps(curve["grid"], curve["survivors"], curve["paths"])

    def _check(self, cfg: SimConfig, stem: str, rc) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        curve = self._curve(stem)
        bad = []
        if curve["invalid"] or curve["nonfinite_paths"]:
            bad.append("non-finite paths")
        if curve["grid"] != _grid(cfg.n_max) or curve["paths"] != cfg.paths:
            bad.append("grid or paths differ from the config")
        surv = curve["survivors"]
        if any(b > a for a, b in zip(surv, surv[1:])) or surv[0] > cfg.paths:
            bad.append("survivors not non-increasing")
        if stem.endswith(TWIN):
            bad += [f"{ext} differs from the 1-worker file" for ext in (".json", ".csv")
                    if (self.work / f"{stem}{ext}").read_bytes()
                    != (self.work / f"{cfg.name}{ext}").read_bytes()]
        return bad + cfg.check(curve)

    def ops(self) -> list[Op]:
        return [self._op(cfg, cfg.name, 1) for cfg in self.configs]

    def warm(self) -> None:
        """Touch every code path once on a tiny config (imports, pool start-up)."""
        path = self.work / "warm.cfg.json"
        path.write_text(json.dumps({
            "a": [1.0], "innovation": {"kind": "rademacher", "params": {}},
            "x": 0.0, "grid": [1, 2, 3, 4], "paths": 1000, "seed": 1,
            "out": str(self.work / "warm")}))
        for workers in (1, 2):
            cli.main(["simulate", str(path), "--workers", str(workers)])

    def scale(self) -> PassResult:
        """The pass's configs at 2 workers, run after a pass at 1 worker.

        Their curve files must be byte-identical to the 1-worker ones.
        """
        return run_ops([self._op(cfg, cfg.name + TWIN, 2) for cfg in self.configs],
                       calibrated=False)

    @staticmethod
    def efficiency(t1: float, t2: float) -> float:
        """Strong scaling: the same work at 2 workers, t1 / (2 t2)."""
        return t1 / (2.0 * t2)


def _sparre_andersen(n: int) -> float:
    """Exact survival of a symmetric continuous walk: C(2n, n) / 4^n."""
    return math.comb(2 * n, n) / 4 ** n


def _check_walk(curve: dict) -> list:
    paths = curve["paths"]
    return [f"p_hat({n}) = {curve['p_hat'][n - 1]:.6g} not within {Z} sigma of "
            f"C(2N,N)/4^N = {_sparre_andersen(n):.6g}"
            for n in (4 ** k for k in range(7)) if n <= len(curve["grid"])
            and not _within(curve["p_hat"][n - 1], _sparre_andersen(n), paths)]


GAUSSIAN = {"kind": "gaussian", "params": {"mu": 0.0, "sigma": 1.0}}
LONG_PATHS = 50_000


def mc_long_horizon(seed: int, work: Path) -> MonteCarlo:
    configs = [
        SimConfig("C1", [1.0, 1.0], GAUSSIAN, 0.0, 1024, LONG_PATHS),
        SimConfig("P2", [2.0, -1.0], GAUSSIAN, 0.0, 2048, LONG_PATHS),
        SimConfig("P1", [1.0], GAUSSIAN, 0.0, 4096, LONG_PATHS, _check_walk),
    ]
    return MonteCarlo(configs, seed, work)


O1_CASES = ([1.0, 0.0], [2.0, -1.0], [0.5, 0.5], [-0.4, -0.4])
O1_HORIZONS = (4, 8, 12)
TWO_POINT_CASES = (0, 3)    # the walk and the E-region process, at a seeded barrier
WIDE_PATHS = 500_000


def _check_cells(a, support, x):
    """Each O1 cell within Z sigma of exhaustive enumeration.

    The exact values are computed once, before any timed pass.
    """
    exact = {n: oracle.enumerate_survival(ar_params(a), support, x, n)
             for n in O1_HORIZONS}

    def check(curve: dict) -> list:
        return [f"N={n}: p_hat {curve['p_hat'][n - 1]:.6g} vs exact {exact[n]:.6g}"
                for n in O1_HORIZONS
                if not _within(curve["p_hat"][n - 1], exact[n], curve["paths"])]
    return check


def mc_wide_short(seed: int, work: Path) -> MonteCarlo:
    rng = random.Random(seed ^ 0x5EED)
    y = round(rng.uniform(0.5, 2.0), 6)
    x2 = round(rng.uniform(0.0, 0.5) * y, 6)
    rademacher = {"kind": "rademacher", "params": {}}
    two_point = {"kind": "two_point", "params": {"y": y}}
    configs = [SimConfig("E1", [-0.4, -0.4], GAUSSIAN, 0.0, 40, WIDE_PATHS)]
    for i, a in enumerate(O1_CASES):
        configs.append(SimConfig(
            f"O1_{i}_rademacher", a, rademacher, 0.0, O1_HORIZONS[-1], WIDE_PATHS,
            _check_cells(a, ((-1.0, 0.5), (1.0, 0.5)), 0.0)))
    for i in TWO_POINT_CASES:
        a = O1_CASES[i]
        configs.append(SimConfig(
            f"O1_{i}_two_point", a, two_point, x2, O1_HORIZONS[-1], WIDE_PATHS,
            _check_cells(a, ((-y, 0.5), (y, 0.5)), x2)))
    # computed from the array shapes, not measured: one AR state vector and
    # one block of innovations of the engine at full width (one worker)
    return MonteCarlo(configs, seed, work, facts={
        "computed_widest_state_bytes": WIDE_PATHS * 8,
        "computed_innovation_block_bytes": WIDE_PATHS * 4 * 8,
    })


# ---------------------------------------------------------------------------
# exact analysis: oracle, coefficients, bounds, fits, pathwise identities


RADEMACHER = ((-1.0, 0.5), (1.0, 0.5))
WALK_N = 20             # the DFS budget of enumerate_survival for +-1 steps
F1_GRID = 11            # points per axis of the closed-form coefficient grid
F1_N = 200
BOUND_POINTS = 10       # coefficient pairs per innovation kind
R1_PATHS, R1_N = 400, 1000
G1_PATHS, G1_N = 200_000, 6
BOUND_SPECS = (innovations.uniform(-1.0, 1.0), innovations.exponential_centered(1.0),
               innovations.rademacher(), innovations.two_point(1.0))
R1_CHECKS = (([-0.5, 0.5], "pair_sum"), ([0.5, 0.25], "root_shift"),
             ([0.5, 0.5], "walk_sum"), ([0.5], "integrated"),
             ([0.5, 0.25], "integrated"))
# (a1, a2) -> (predicted class, theta)
PREDICTIONS = {(1.0, 0.0): (DecayClass.POLYNOMIAL, 0.5),
               (2.0, -1.0): (DecayClass.POLYNOMIAL, 0.25),
               (0.0, 1.0): (DecayClass.POLYNOMIAL, 1.0),
               (1.0, 1.0): (DecayClass.POSITIVE_LIMIT, None),
               (-0.4, -0.4): (DecayClass.EXPONENTIAL, None)}


def _exact(value, expected, tol=1e-12) -> list:
    return [] if abs(value - expected) <= tol else [f"{value!r} != {expected!r}"]


class ExactAnalysis:
    facts: dict = {}

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.bound_points = []
        while len(self.bound_points) < BOUND_POINTS:
            a1, a2 = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
            if abs(a1) + abs(a2) < 0.95:
                self.bound_points.append((round(a1, 6), round(a2, 6)))
        self.r1_seed = rng.randrange(1, 2 ** 62)
        self.g1_seed = rng.randrange(1, 2 ** 62)
        grid = [2 ** k for k in range(4, 14)]
        big = 10 ** 12
        self.walk_curve = mc.SurvivalCurve(
            params=ar_params([1.0]), spec=innovations.gaussian(), x=0.0, grid=grid,
            survivors=[round(big * _sparre_andersen(n)) for n in grid], paths=big, seed=0)

    def ops(self) -> list[Op]:
        walk, both = ar_params([1.0]), ar_params([0.0, 1.0])
        ops = [Op(f"walk_{n}", lambda n=n: oracle.enumerate_survival(walk, RADEMACHER, 0.0, n),
                  lambda v, outs, n=n: _exact(v, math.comb(n, n // 2) / 2 ** n))
               for n in range(1, WALK_N + 1)]
        # P3: two interleaved walks survive to 2n exactly when both walks survive to n
        ops += [Op(f"p3_{n}", lambda n=n: oracle.enumerate_survival(both, RADEMACHER, 0.0, 2 * n),
                   lambda v, outs, n=n: _exact(v, outs[f"walk_{n}"] ** 2))
                for n in range(1, WALK_N // 2 + 1)]
        ops.append(Op("f1", lambda: acceptance.coefficient_grid_discrepancy(F1_N, F1_GRID),
                      lambda v, outs: [] if v[0] <= 1e-9 else [f"max rel err {v[0]:.3g}"]))
        for spec in BOUND_SPECS:
            for a in self.bound_points:
                ops.append(Op(f"bound_{spec}_{a}",
                              lambda a=a, spec=spec: bounds.exp_lower_bound(ar_params(a), spec),
                              lambda v, outs, spec=spec: self._check_bound(v, spec)))
        ops.append(Op("fit_walk", lambda: asymptotics.fit_decay(self.walk_curve),
                      lambda v, outs: [] if v.decay_class is DecayClass.POLYNOMIAL
                      and 0.45 <= v.theta <= 0.55 else [f"{v.decay_class} theta={v.theta}"]))
        for (a1, a2), want in PREDICTIONS.items():
            ops.append(Op(f"predict_{a1}_{a2}",
                          lambda a1=a1, a2=a2: asymptotics.predict(a1, a2, innovations.gaussian(), 0.0),
                          lambda v, outs, want=want: [] if (v.decay_class, v.theta) == want
                          else [f"{v.decay_class} theta={v.theta}"]))
        for a, kind in R1_CHECKS:
            ops.append(Op(f"r1_{kind}_{a}",
                          lambda a=a, kind=kind: mc.pathwise_reduction_check(
                              ar_params(a), innovations.gaussian(), kind, R1_PATHS, R1_N,
                              self.r1_seed),
                          lambda v, outs: [] if v.violations == 0 else [f"{v.violations} violations"],
                          lambda v: R1_PATHS * R1_N))
        g1 = ar_params([0.5, 0.25])
        ops.append(Op("g1_exact", lambda: oracle.gaussian_pair_probability(g1, G1_N),
                      lambda v, outs: []))
        ops.append(Op("g1_mc", lambda: mc.pair_survival_frequency(
                          g1, innovations.gaussian(), G1_N, G1_PATHS, self.g1_seed),
                      lambda v, outs: [] if _within(v[0], outs["g1_exact"], G1_PATHS)
                      else [f"{v[0]:.6g} vs {outs['g1_exact']:.6g}"],
                      lambda v: G1_PATHS * G1_N))
        return ops

    @staticmethod
    def _check_bound(res, spec) -> list:
        # p_N >= c^N at N = 1 means c <= P(Y <= 0)
        if 0.0 < res.c <= spec.prob_nonpositive() + 1e-12:
            return []
        return [f"c = {res.c!r} outside (0, P(Y<=0)]"]

    def warm(self) -> None:
        oracle.enumerate_survival(ar_params([1.0]), RADEMACHER, 0.0, 4)
        acceptance.coefficient_grid_discrepancy(10, 3)
        mc.pathwise_reduction_check(ar_params([0.5]), innovations.gaussian(),
                                    "integrated", 10, 10, 1)

    def _replica(self, conn) -> None:
        # no calibration here: it would pause the load on the other replica
        result = run_ops(self.ops(), calibrated=False)
        conn.send((result.attempted, result.failed, result.failures))
        conn.close()

    @staticmethod
    def efficiency(t1: float, t2: float) -> float:
        """Weak scaling: the work doubles with the workers, so t1 / t2."""
        return t1 / t2

    def scale(self) -> PassResult:
        """Two copies of the pass at once, in two forked processes."""
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe(duplex=False) for _ in range(2)]
        procs = [ctx.Process(target=self._replica, args=(send,)) for _, send in pipes]
        start = time.perf_counter()
        for proc in procs:
            proc.start()
        attempted, failed, failures = 0, 0, []
        for (recv, send), proc in zip(pipes, procs):
            send.close()
            try:
                n, bad, msgs = recv.recv()
            except EOFError:
                n, bad, msgs = 1, 1, [f"replica exited with code {proc.exitcode}"]
            attempted += n
            failed += bad
            failures += msgs
        for proc in procs:
            proc.join()
        wall = time.perf_counter() - start
        return PassResult(wall, None, failures, attempted, failed, 0)


WORKLOADS = {
    "mc_long_horizon": mc_long_horizon,
    "mc_wide_short": mc_wide_short,
    "exact_analysis": ExactAnalysis,
}
