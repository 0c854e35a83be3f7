import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arsurvival.coeffs import ar_params, coeff_recursion
from arsurvival.innovations import gaussian, rademacher
from arsurvival.mc import estimate_survival, pair_survival_frequency
from arsurvival.oracle import (BudgetExceededError, enumerate_survival,
                               gaussian_pair_probability,
                               pair_orthant_probability)

SIGNS = ((-1.0, 0.5), (1.0, 0.5))
THREE_POINT = ((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3))
RW = ar_params([1.0])


def brute_force(a, support, x, n):
    """p_n(x) by walking every innovation sequence, and whether a surviving
    path touches the barrier exactly."""
    leaves, touched = [], False
    for seq in itertools.product(support, repeat=n):
        past = [0.0] * len(a)
        prob = 1.0
        for value, q in seq:
            xval = value
            for k in range(len(a)):
                xval += a[k] * past[k]
            if xval > x:
                break
            touched |= xval == x
            past = [xval] + past[:-1]
            prob *= q
        else:
            leaves.append(prob)
    return math.fsum(leaves), touched


def test_random_walk_two_steps():
    # 4 sign sequences; only those starting with -1 survive
    assert enumerate_survival(RW, SIGNS, 0.0, 2) == pytest.approx(0.5, abs=1e-15)


def test_random_walk_matches_ballot_counts():
    # P(M_N <= 0) = C(N, floor(N/2)) / 2^N for the symmetric sign walk
    for n in range(1, 15):
        expect = math.comb(n, n // 2) / 2.0 ** n
        assert enumerate_survival(RW, SIGNS, 0.0, n) == pytest.approx(expect, abs=1e-14)


def test_integrated_walk_three_steps_hand_enumerated():
    # with Y1 = -1 every continuation survives; with Y1 = +1 none do
    assert enumerate_survival(ar_params([2, -1]), SIGNS, 0.0, 3) == pytest.approx(0.5)


def test_extreme_barriers():
    params = ar_params([0.5, 0.25])
    assert enumerate_survival(params, ((-2.0, 0.5), (2.0, 0.5)), 50.0, 5) == 1.0
    assert enumerate_survival(params, ((-2.0, 0.5), (2.0, 0.5)), -50.0, 5) == 0.0


def test_strongly_negative_a1_dies_in_two_steps():
    # after a surviving first step (Y1 = -y), the rebound -a1*y exceeds y
    assert enumerate_survival(ar_params([-1.5, -0.1]), ((-2.0, 0.5), (2.0, 0.5)),
                              0.0, 2) == 0.0


def test_three_point_support():
    support = ((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3))
    # X survives one step unless Y1 = +1
    assert enumerate_survival(RW, support, 0.0, 1) == pytest.approx(0.7)
    val = enumerate_survival(RW, support, 0.0, 8)
    assert 0.0 < val < 0.7


def test_budget_guard():
    # 64 values and an irrational coefficient: no two states ever merge and
    # nothing is pruned, so step 4 would expand 64^3 states x 64 > 2^22
    wide = tuple((float(v), 1 / 64) for v in range(-32, 32))
    params = ar_params([math.pi / 4])
    assert enumerate_survival(params, wide, 1e9, 3) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BudgetExceededError):
        enumerate_survival(params, wide, 1e9, 4)
    # the walk has at most n + 1 states, so horizons far past 2^n <= 2^22 run
    for n in (23, 1024):
        expect = math.comb(n, n // 2) / 2 ** n
        assert abs(enumerate_survival(RW, SIGNS, 0.0, n) - expect) <= 1e-15 * expect


@pytest.mark.parametrize("a, support, x, n, touches", [
    ((-0.4, -0.4), SIGNS, 0.0, 10, False),
    ((0.5, 0.5), SIGNS, 0.0, 10, False),
    ((1.0, 1.0, -1.0), SIGNS, 1.0, 10, True),
    ((0.3, -0.2, 0.4), SIGNS, 0.2, 9, False),
    ((1.0,), THREE_POINT, 0.0, 8, True),
    ((0.5, 0.5), THREE_POINT, 0.0, 8, True),
    ((1.0,), SIGNS, 1.0, 10, True),
    ((0.5, -0.3), ((-2.0, 0.5), (2.0, 0.5)), 0.5, 10, False),
], ids=["e1", "walk_sum", "ar3", "ar3-irregular", "three_point-walk",
        "three_point-ar2", "walk-x1", "two_point"])
def test_matches_brute_force(a, support, x, n, touches):
    # touches: some surviving path has X_k == x exactly (the barrier is inclusive)
    expect, touched = brute_force(a, support, x, n)
    assert touched == touches
    assert abs(enumerate_survival(ar_params(a), support, x, n) - expect) <= 1e-15


def test_rejects_nonfinite_input():
    with pytest.raises(ValueError, match="NaN"):
        enumerate_survival(RW, SIGNS, math.nan, 5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            enumerate_survival(RW, ((bad, 0.5), (1.0, 0.5)), 0.0, 5)
    # infinite barriers are valid
    assert enumerate_survival(RW, SIGNS, math.inf, 5) == 1.0
    assert enumerate_survival(RW, SIGNS, -math.inf, 5) == 0.0


def test_probability_validation():
    with pytest.raises(ValueError):
        enumerate_survival(RW, ((-1.0, 0.6), (1.0, 0.6)), 0.0, 2)
    with pytest.raises(ValueError):
        enumerate_survival(RW, ((-1.0, -0.5), (1.0, 1.5)), 0.0, 2)
    with pytest.raises(ValueError):
        enumerate_survival(RW, ((-1.0, math.nan), (1.0, 0.5)), 0.0, 2)


def test_zero_horizon_is_one():
    assert enumerate_survival(RW, SIGNS, 0.0, 0) == 1.0


def test_interleaved_walks_identities_exact():
    # the lag-2 pure process runs two independent copies of the walk, so
    # p(2N) = P_N^2 and p(2N-1) = P_N * P_{N-1}
    both = ar_params([0.0, 1.0])
    for n in range(1, 9):
        p_even = enumerate_survival(both, SIGNS, 0.0, 2 * n)
        p_odd = enumerate_survival(both, SIGNS, 0.0, 2 * n - 1)
        walk_n = enumerate_survival(RW, SIGNS, 0.0, n)
        walk_prev = enumerate_survival(RW, SIGNS, 0.0, n - 1)
        assert abs(p_even - walk_n ** 2) <= 1e-12
        assert abs(p_odd - walk_n * walk_prev) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(a1=st.floats(-1.5, 1.5), a2=st.floats(-0.9, 0.9),
       x=st.floats(0.0, 2.0), n=st.integers(1, 9))
def test_monotone_in_x_and_n(a1, a2, x, n):
    params = ar_params([a1, a2])
    p_n = enumerate_survival(params, SIGNS, x, n)
    assert 0.0 <= p_n <= 1.0
    assert enumerate_survival(params, SIGNS, x + 0.5, n) >= p_n
    assert enumerate_survival(params, SIGNS, x, n + 1) <= p_n


def test_orthant_probability_edges():
    assert pair_orthant_probability(0.0) == 0.25
    assert pair_orthant_probability(1.0) == pytest.approx(0.5, abs=1e-15)
    assert pair_orthant_probability(-1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        pair_orthant_probability(1.5)


def test_gaussian_pair_probability_hand_value():
    # c = (1, 0.5, 0.5) at (0.5, 0.25); rho_3 = 0.75 / sqrt(1.25 * 1.5)
    rho = 0.75 / math.sqrt(1.25 * 1.5)
    expect = 0.25 + math.asin(rho) / (2 * math.pi)
    assert gaussian_pair_probability(ar_params([0.5, 0.25]), 3) == pytest.approx(
        expect, abs=1e-14)
    with pytest.raises(ValueError):
        gaussian_pair_probability(ar_params([0.5, 0.25]), 1)


def test_gaussian_pair_probability_sigma_free():
    # the correlation is scale free, so only the weights matter
    c = coeff_recursion(ar_params([0.3, -0.2]), 5)
    num = float(np.dot(c[:-1], c[1:]))
    den = math.sqrt(float(np.dot(c[:-1], c[:-1])) * float(np.dot(c, c)))
    expect = 0.25 + math.asin(num / den) / (2 * math.pi)
    assert gaussian_pair_probability(ar_params([0.3, -0.2]), 6) == pytest.approx(expect)


def test_gaussian_pair_probability_explosive():
    # the weights are scaled before the sums, so growth that overflows their
    # products still gives rho -> 1; G1's value keeps its bits
    for a, n in [((3.0, 1.0), 200), ((3.0, 1.0), 400), ((1.5,), 1000)]:
        assert gaussian_pair_probability(ar_params(a), n) == 0.5, (a, n)
    assert gaussian_pair_probability(ar_params([0.5, 0.25]), 6) == float.fromhex(
        "0x1.713e8826f836dp-2")
    with pytest.raises(ArithmeticError, match="overflow"):
        gaussian_pair_probability(ar_params([1.5]), 2000)


def test_pair_probability_against_mc():
    params = ar_params([0.5, 0.25])
    exact = gaussian_pair_probability(params, 6)
    freq, se = pair_survival_frequency(params, gaussian(), 6, 100_000, 311)
    assert abs(freq - exact) <= 3 * se


def test_pair_probability_upper_bounds_survival():
    params = ar_params([0.5, 0.25])
    bound = gaussian_pair_probability(params, 6)
    curve = estimate_survival(params, gaussian(), 0.0, [6], 100_000, 313)
    assert curve.p_hat[0] <= bound + 3 * curve.stderr[0]


@pytest.mark.parametrize("a, horizons, seed", [
    ((1.0,), [64, 128, 256], 401),
    ((0.0, 1.0), [64, 128, 256], 402),
    ((2.0, -1.0), [64], 403),
], ids=["walk", "interleaved", "integrated"])
def test_engine_matches_exact_dp_past_n12(a, horizons, seed):
    params = ar_params(a)
    curve = estimate_survival(params, rademacher(), 0.0, horizons, 100_000, seed)
    for i, n in enumerate(horizons):
        exact = enumerate_survival(params, SIGNS, 0.0, n)
        assert abs(curve.p_hat[i] - exact) <= 4 * curve.stderr[i]
