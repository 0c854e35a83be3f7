import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from arsurvival.coeffs import ar_params
from arsurvival.innovations import gaussian, rademacher, two_point, uniform
from arsurvival.mc import (ConstraintError, NonFiniteSampleError, ReductionKind,
                           SurvivalCurve, _crossing_times_range,
                           crossing_time_from_innovations, estimate_survival,
                           pair_survival_frequency, pathwise_reduction_check,
                           simulate_crossing_time)
from arsurvival.oracle import enumerate_survival
from arsurvival.rng import RNGStream

RW = ar_params([1.0])
IRW = ar_params([2.0, -1.0])
SIGNS = ((-1.0, 0.5), (1.0, 0.5))


def test_crossing_time_hand_cases():
    # random walk crosses 0 immediately on an up-tick
    assert crossing_time_from_innovations(RW, 0.0, [1.0, -1.0]) == 1
    # integrated walk with signs (-1, +1, +1, +1): partial sums of partial sums
    assert crossing_time_from_innovations(IRW, 0.0, [-1, 1, 1, 1, 1]) == 4
    # never crossing returns len + 1
    assert crossing_time_from_innovations(RW, 10.0, [1.0] * 5) == 6


def test_simulate_crossing_time_never_crosses_large_barrier():
    tau = simulate_crossing_time(ar_params([0.0]), two_point(1.0), 1e9, 50,
                                 RNGStream(3, 0))
    assert tau == 51


def test_simulate_crossing_time_matches_vector_engine():
    params = ar_params([0.5, 0.25])
    spec = gaussian()
    tau_vec, bad = _crossing_times_range(params, spec, 0.0, 64, 99, 0, 300)
    assert bad == 0
    tau_scalar = [simulate_crossing_time(params, spec, 0.0, 64, RNGStream(99, i))
                  for i in range(300)]
    assert (tau_vec == np.array(tau_scalar)).all()


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


def test_worker_count_does_not_change_counts():
    # 20k paths make one tile per worker; 140k paths make three tiles, so
    # two workers take more than one tile each
    for grid, paths, counts in [([1, 4, 16, 64], 20_000, (2, 8)),
                                ([1, 4], 140_000, (2, 3))]:
        base = estimate_survival(ar_params([0.5, 0.25]), gaussian(), 0.0, grid,
                                 paths, 13, workers=1)
        for workers in counts:
            other = estimate_survival(ar_params([0.5, 0.25]), gaussian(), 0.0, grid,
                                      paths, 13, workers=workers)
            assert (other.survivors == base.survivors).all()
            assert other.nonfinite_paths == base.nonfinite_paths


def test_worker_failure_raises_instead_of_hanging(monkeypatch):
    from arsurvival import mc

    caller = os.getpid()
    real = mc._drain

    def drain(jobs, next_tile):
        if os.getpid() != caller:
            raise MemoryError("worker failed")
        return real(jobs, next_tile)

    monkeypatch.setattr(mc, "_drain", drain)
    with pytest.raises(RuntimeError, match="without its result"):
        estimate_survival(RW, rademacher(), 0.0, [4], 20_000, 3, workers=3)


def test_engine_memory_is_bounded_by_tiles():
    tracemalloc.start()
    try:
        estimate_survival(ar_params([-0.4, -0.4]), gaussian(), 0.0, [1, 2, 3, 4],
                          2_000_000, 5, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("ARSURVIVAL_WORKERS", "2")
    curve = estimate_survival(RW, rademacher(), 0.0, [4], 10_000, 3)
    base = estimate_survival(RW, rademacher(), 0.0, [4], 10_000, 3, workers=1)
    assert (curve.survivors == base.survivors).all()


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


def test_nonfinite_paths_marked_invalid():
    # oscillating divergence with an infinite barrier: paths overflow to
    # +-inf and then hit inf - inf = NaN without ever crossing
    params = ar_params([-1.0, -2.0])
    curve = estimate_survival(params, gaussian(), math.inf, [2200], 64, 19)
    assert curve.nonfinite_paths > 0
    assert curve.invalid
    with pytest.raises(NonFiniteSampleError):
        simulate_crossing_time(params, gaussian(), math.inf, 2200, RNGStream(19, 0))


def test_finite_run_is_valid():
    curve = estimate_survival(IRW, gaussian(), 0.0, [16], 5_000, 23)
    assert curve.nonfinite_paths == 0 and not curve.invalid


# ---- serialization ----------------------------------------------------------


def test_json_round_trip():
    curve = estimate_survival(IRW, rademacher(), 0.0, [2, 4, 8], 5_000, 77)
    obj = curve.to_json_dict()
    assert obj["schema_version"] == 2
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


def test_reduction_accepts_string_kind():
    rep = pathwise_reduction_check(ar_params([0.5, 0.5]), rademacher(),
                                   "walk_sum", 50, 100, 3)
    assert rep.violations == 0


def test_integration_identity():
    for a in [[0.5], [0.5, 0.25], [0.3, -0.2, 0.1]]:
        rep = pathwise_reduction_check(ar_params(a), gaussian(),
                                       ReductionKind.INTEGRATED, 100, 500, 91)
        assert rep.violations == 0, a


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
