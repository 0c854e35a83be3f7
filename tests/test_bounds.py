import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import norm

from arsurvival.asymptotics import DecayClass, fit_decay
from arsurvival.bounds import (BoundMethod, DegenerateBoundError,
                               PreconditionError, _scan_alpha,
                               e1_rate_bound, e3_sign_change_index,
                               exp_lower_bound, integrate_params)
from arsurvival.coeffs import ar_params, coeff_recursion
from arsurvival.innovations import (exponential_centered, gaussian, rademacher,
                                    two_point, uniform)
from arsurvival.mc import estimate_survival
from arsurvival.regions import Region, classify_ar2


def _dense_scan(spec, a_plus, a_minus, n=1_000_000, lo=-10.0):
    alphas = np.linspace(lo, -1e-9, n)[:: max(1, n // 1_000_000)]
    probs = spec.interval_prob(alphas * (1 - a_plus), alphas * abs(a_minus))
    return max(0.0, float(probs.max()))


def test_gaussian_closed_form_example():
    res = exp_lower_bound(ar_params([0.3, -0.2]), gaussian())
    assert res.method is BoundMethod.GAUSSIAN_CLOSED_FORM
    alpha_expect = -math.sqrt(math.log((0.7 / 0.2) ** 2) / (0.7 ** 2 - 0.2 ** 2))
    assert res.alpha_star == pytest.approx(alpha_expect, rel=1e-12)
    c_expect = norm.cdf(0.2 * alpha_expect) - norm.cdf(0.7 * alpha_expect)
    assert res.c == pytest.approx(c_expect, rel=1e-12)
    assert res.a_plus == 0.3 and res.a_minus == -0.2
    assert res.A == pytest.approx(0.2 / 0.7)


def test_gaussian_closed_form_vs_dense_grid():
    spec = gaussian()
    for a in [[0.3, -0.2], [-0.4, -0.4], [0.1, -0.05, 0.2]]:
        res = exp_lower_bound(ar_params(a), spec)
        grid_best = _dense_scan(spec, res.a_plus, res.a_minus)
        assert res.c == pytest.approx(grid_best, abs=1e-6)
        assert res.c >= grid_best - 1e-12       # certified: never above-estimates


def test_scan_agrees_with_closed_form():
    spec = gaussian()
    for a in [[0.3, -0.2], [-0.4, -0.4], [0.25, -0.35, 0.1]]:
        closed = exp_lower_bound(ar_params(a), spec)
        assert closed.method is BoundMethod.GAUSSIAN_CLOSED_FORM
        width, abs_minus = 1.0 - closed.a_plus, abs(closed.a_minus)
        alpha = _scan_alpha(spec, width, abs_minus)
        assert abs(alpha - closed.alpha_star) <= 1e-6 * abs(closed.alpha_star)
        assert abs(closed.c - spec.interval_prob(alpha * width, alpha * abs_minus)) <= 1e-6


def test_gaussian_scaled_sigma_same_c():
    base = exp_lower_bound(ar_params([0.3, -0.2]), gaussian())
    scaled = exp_lower_bound(ar_params([0.3, -0.2]), gaussian(0.0, 3.0))
    assert scaled.c == pytest.approx(base.c, rel=1e-12)
    assert scaled.alpha_star == pytest.approx(3.0 * base.alpha_star, rel=1e-12)


@pytest.mark.parametrize("sigma", [5e-324, 1e-320, 1e-310, 2e-308])
def test_closed_form_of_subnormal_sigma_keeps_the_unit_c(sigma):
    # alpha* (1 - a_+) and alpha* |a_-| would round on the subnormal grid, where
    # gaussian(0, 5e-324) gave c = 0.34134, above the supremum 0.26920: the ends
    # are taken in sigma units, so c is the unit law's, bit for bit
    base = exp_lower_bound(ar_params([0.3, -0.2]), gaussian())
    res = exp_lower_bound(ar_params([0.3, -0.2]), gaussian(0.0, sigma))
    assert res.method is BoundMethod.GAUSSIAN_CLOSED_FORM
    assert res.c == base.c
    assert res.alpha_star == sigma * base.alpha_star


def test_closed_form_of_the_least_normal_sigma_is_the_objective():
    # from the least normal sigma on, a subnormal end is rounded within 2^-53
    # sigma, as fine as a normal end, and c is the objective at alpha*
    spec = gaussian(0.0, sys.float_info.min)
    res = exp_lower_bound(ar_params([0.3, -0.2]), spec)
    assert 0.0 < abs(res.alpha_star * 0.2) < sys.float_info.min
    assert res.c == spec.interval_prob(res.alpha_star * 0.7, res.alpha_star * 0.2)
    assert res.c == pytest.approx(
        exp_lower_bound(ar_params([0.3, -0.2]), gaussian()).c, rel=1e-12)


def test_scan_follows_the_law_scale():
    # the |alpha| bracket scales with the law, so c does not depend on its unit
    base = exp_lower_bound(ar_params([0.3, -0.2]), uniform(-1.0, 1.0))
    for s in (1e-9, 1e3, 1e8, 1e15):
        res = exp_lower_bound(ar_params([0.3, -0.2]), uniform(-s, s))
        assert res.c == pytest.approx(base.c, rel=1e-6)
        assert res.alpha_star == pytest.approx(s * base.alpha_star, rel=1e-6)


def test_uniform_scan_vs_dense_grid():
    spec = uniform(-1, 1)
    res = exp_lower_bound(ar_params([0.3, -0.2]), spec)
    assert res.method is BoundMethod.NUMERIC_SCAN
    assert res.c == pytest.approx(_dense_scan(spec, 0.3, -0.2), abs=1e-4)


@pytest.mark.parametrize("a, lo, hi", [
    ((0.3, -0.2), -1.0, 1.0), ((-0.4, -0.4), -1.0, 1.0),
    ((0.25, -0.35, 0.1), -2.0, 3.0), ((0.3, -0.2), -1e15, 1e15),
], ids=["ar2", "both-negative", "ar3", "wide"])
def test_uniform_scan_reaches_the_exact_supremum(a, lo, hi):
    # the mass grows with |alpha| until alpha (1 - a_+) meets lo, then falls:
    # the supremum is -lo (1 - A) / (hi - lo), with A = |a_-| / (1 - a_+)
    res = exp_lower_bound(ar_params(a), uniform(lo, hi))
    big_a = Fraction(abs(res.a_minus)) / (1 - Fraction(res.a_plus))
    sup = -Fraction(lo) * (1 - big_a) / (Fraction(hi) - Fraction(lo))
    assert sup - Fraction(1e-12) <= Fraction(res.c) <= sup


_SCANNED_LAWS = [gaussian(0.5, 2.0), gaussian(-1.0, 1.0), uniform(-1.0, 1.0),
                 uniform(-2.0, 3.0), uniform(-1e303, 1e303), exponential_centered(),
                 exponential_centered(1e-305), rademacher(), two_point(2.5),
                 two_point(1e-320)]
_CENTERED_GAUSSIANS = [gaussian(), gaussian(0.0, 3.0), gaussian(0.0, 1e308)]


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(_SCANNED_LAWS + _CENTERED_GAUSSIANS),
       a1=st.floats(-0.95, 0.95), a2=st.floats(-0.95, 0.95))
def test_scan_certificate_is_the_objective_at_alpha_star(spec, a1, a2):
    # c is the objective evaluated at the alpha* reported, for the scan and the
    # closed form alike, so it certifies itself
    assume(abs(a1) + abs(a2) < 0.95)
    res = exp_lower_bound(ar_params([a1, a2]), spec)
    closed = spec in _CENTERED_GAUSSIANS and res.a_minus < 0.0
    assert res.method is (BoundMethod.GAUSSIAN_CLOSED_FORM if closed
                          else BoundMethod.NUMERIC_SCAN)
    assert res.c == spec.interval_prob(res.alpha_star * (1.0 - res.a_plus),
                                       res.alpha_star * abs(res.a_minus))
    assert 0.0 < res.c <= spec.prob_nonpositive()


def test_positive_coefficients_hit_nonpositive_mass():
    # a_minus = 0: the interval [alpha/2, 0] sweeps up all mass at <= 0
    res = exp_lower_bound(ar_params([0.5]), uniform(-1, 1))
    assert res.c == pytest.approx(0.5, abs=1e-9)
    res = exp_lower_bound(ar_params([0.5]), gaussian())
    assert res.c == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("a, spec", [
    ((0.2, 0.0), gaussian()), ((0.5,), uniform(-1, 1)), ((0.3, 0.2), rademacher()),
    ((-0.3, 0.2), gaussian()), ((-0.3, 0.2), two_point(1.0)),
], ids=["gaussian-scan", "uniform", "rademacher", "closed-form", "two_point"])
def test_result_fields_are_python_floats_and_a_is_nonnegative(a, spec):
    # with no negative coefficient, -a_minus used to give A = -0.0
    res = exp_lower_bound(ar_params(a), spec)
    for value in (res.c, res.alpha_star, res.a_plus, res.a_minus, res.A):
        assert type(value) is float
    assert math.copysign(1.0, res.A) == 1.0


def test_discrete_atoms_are_found():
    res = exp_lower_bound(ar_params([0.3, -0.2]), rademacher())
    assert res.c == pytest.approx(0.5)
    # the atom interval requires alpha in [-5, -10/7]
    assert -5.0 <= res.alpha_star <= -10.0 / 7.0


def test_preconditions_and_degenerate_cases():
    with pytest.raises(PreconditionError):
        exp_lower_bound(ar_params([0.7, -0.4]), gaussian())    # sum |a| >= 1
    with pytest.raises(DegenerateBoundError):
        exp_lower_bound(ar_params([0.5]), uniform(3.0, 5.0))   # no mass at <= 0


def test_huge_coefficient_sum_refused_without_warning():
    # sum |a_k| overflows to inf; numpy's reduce used to warn about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError):
            exp_lower_bound(ar_params([-1.7e308, 1.7e308]), gaussian())


@pytest.mark.parametrize("a, spec", [
    ((0.3, 0.2), gaussian(0.0, 1e308)),
    ((0.3, 0.2), uniform(-1e303, 1e303)),
    ((0.3, 0.2), exponential_centered(1e-305)),
    ((-0.3, 0.2), two_point(1e305)),
    # the atom's seed -1e300 / |a_-| overflows, not the grid
    ((1e-300, -1e-300), two_point(1e300)),
    # the atom's seeds reach -1.1e308 and, clipped, -1.8e308: a refining grid spans
    # nearly the whole float range
    ((0.5, -2.2e-308), two_point(2.5)),
], ids=["gaussian", "uniform", "exponential", "two_point", "two_point-atom",
        "two_point-tiny-a-minus"])
def test_scan_of_huge_scale_stays_in_float_range(a, spec):
    # 1e6 times a scale above about 1.8e302 overflows: the scan clips its far
    # seeds to the largest float instead of evaluating -inf and NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = exp_lower_bound(ar_params(a), spec)
    assert res.method is BoundMethod.NUMERIC_SCAN
    assert 0.0 < res.c <= spec.prob_nonpositive()
    assert math.isfinite(res.alpha_star)


def test_closed_form_of_huge_scale_stays_in_float_range():
    # sigma * t* overflows past -1.8e308: alpha* is clipped, and c is the
    # objective there, below the unit law's c, which the clip no longer reaches
    spec = gaussian(0.0, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = exp_lower_bound(ar_params([-0.3, 0.2]), spec)
    assert res.method is BoundMethod.GAUSSIAN_CLOSED_FORM
    assert res.alpha_star == -sys.float_info.max
    assert res.c == spec.interval_prob(res.alpha_star * 0.8, res.alpha_star * 0.3)
    assert res.c == 0.21964208554845432
    assert res.c < exp_lower_bound(ar_params([-0.3, 0.2]), gaussian()).c


def test_scan_of_a_law_near_the_float_limit_keeps_its_certificate():
    # y - mu overflows where y and mu are far apart: the cdf must not read that
    # as z = -inf, or c exceeds the supremum of the unit law (0.07662)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = exp_lower_bound(ar_params([0.3, -0.2]), gaussian(1e308, 1e308))
    assert res.c == pytest.approx(exp_lower_bound(ar_params([0.3, -0.2]),
                                                  gaussian(1.0, 1.0)).c, rel=1e-9)


def test_bound_certifies_simulation():
    # p_hat_N >= c^N - 3 se on an all-negative point (uniform innovations)
    spec = uniform(-1, 1)
    params = ar_params([-0.3, -0.3])
    res = exp_lower_bound(params, spec)
    curve = estimate_survival(params, spec, 0.0, list(range(1, 16)), 200_000, 431)
    for i, n in enumerate(curve.grid):
        if not curve.zero_flag[i]:
            assert curve.p_hat[i] >= res.c ** int(n) - 3 * curve.stderr[i]


# ---- E1 rate bound -----------------------------------------------------------


def test_e1_rate_bound_examples():
    assert e1_rate_bound(-1.0, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # when a1 + a2 > 1 the bound is log(|s2| / s1); roots from the polynomial
    for a1, a2 in [(-0.5, 2.0), (-1.0, 2.5)]:
        roots = sorted(np.roots([1.0, -a1, -a2]).real)
        s2, s1 = roots[0], roots[1]
        assert a1 + a2 > 1
        assert e1_rate_bound(a1, a2) == pytest.approx(math.log(abs(s2) / s1),
                                                      rel=1e-9)


def test_e1_rate_bound_huge_coefficients():
    # references from the roots in 50-digit arithmetic; the old root formula
    # overflows h = sqrt(a1^2 + 4 a2) at both points
    assert e1_rate_bound(-1e200, 1e300) == pytest.approx(230.258509299, rel=1e-11)
    assert e1_rate_bound(-1e155, 1e308) == pytest.approx(4.62487668255, rel=1e-11)
    # a1 + a2 <= 1: log |s2| with |s2| = 1e300 + 5e-301
    assert e1_rate_bound(-1e300, 0.5) == pytest.approx(300 * math.log(10), rel=1e-14)


def test_e1_rate_bound_region_checked():
    with pytest.raises(PreconditionError):
        e1_rate_bound(0.5, 0.5)
    with pytest.raises(PreconditionError):
        e1_rate_bound(-0.4, -0.4)


def test_e1_rate_bound_empirical():
    # fitted decay rate must not undercut the bound by more than 0.1; the
    # dominant root is negative, so sample even horizons only to fix the
    # phase of the alternating decay
    a1, a2 = -1.0, 2.0
    bound = e1_rate_bound(a1, a2)
    # stop the grid before the near-censored tail: single-digit cells only
    # survive by upward fluctuation and would flatten the fitted slope
    curve = estimate_survival(ar_params([a1, a2]), gaussian(), 0.0,
                              [2, 4, 6, 8, 10, 12], 400_000, 433)
    fit = fit_decay(curve)
    assert fit.decay_class is DecayClass.EXPONENTIAL
    assert fit.lam >= bound - 0.1


# ---- E3 sign-change index ----------------------------------------------------


def test_e3_index_examples():
    assert e3_sign_change_index(0.1, -1.0) == 2
    assert e3_sign_change_index(1.0, -1.0) == 2     # c_2 = 0 counts (non-strict)
    q = e3_sign_change_index(1.9, -0.95)
    phi = math.atan2(math.sqrt(-(1.9 ** 2 - 4 * 0.95)), 1.9)
    assert q <= math.ceil(math.pi / phi)
    # oracle: first k with c_k <= 0 by direct recursion
    c = coeff_recursion(ar_params([1.9, -0.95]), 50)
    assert q == next(k for k in range(1, 51) if c[k] <= 0.0)


def test_e3_index_exact_zero():
    # a1^2 = 3|a2| exactly: phi = pi/6 and c_5 = 0, which a float walk misses
    # by rounding (it reads 6); one ulp nearer the real roots, c_5 > 0
    a1, a2 = 3 * 4293 / 2**20, -3 * 4293**2 / 2**40
    assert e3_sign_change_index(a1, a2) == 5
    assert e3_sign_change_index(a1, math.nextafter(a2, 0.0)) == 6


def test_e3_index_region_checked():
    with pytest.raises(PreconditionError):
        e3_sign_change_index(-0.5, -1.0)


def test_e3_cap_on_grid():
    rng = np.random.default_rng(999)
    checked = 0
    while checked < 50:
        a1 = rng.uniform(0.01, 2.5)
        a2 = rng.uniform(-3.0, -0.01)
        if classify_ar2(a1, a2) is not Region.E3:
            continue
        q = e3_sign_change_index(a1, a2)
        phi = math.atan2(math.sqrt(-(a1 * a1 + 4 * a2)), a1)
        assert 1 <= q <= math.ceil(math.pi / phi)
        c = coeff_recursion(ar_params([a1, a2]), q)
        assert c[q] <= 0.0 and (c[1:q] > 0.0).all()
        checked += 1


# ---- integration map ---------------------------------------------------------


def test_integrate_params_examples():
    assert integrate_params(ar_params([1.0])).a == (2.0, -1.0)
    assert integrate_params(ar_params([0.5])).a == (1.5, -0.5)
    assert integrate_params(ar_params([0.5, 0.25])).a == (1.5, -0.25, -0.25)
    assert integrate_params(ar_params([0.0])).a == (1.0,)   # noise integrates to a walk


def test_integrate_params_is_injective_affine():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = tuple(rng.uniform(-1, 1, size=3))
        if a[-1] == 0.0:
            continue
        lifted = integrate_params(ar_params(a))
        assert lifted.p == 4
        # invert: partial sums of the lifted coefficients are (a_k + 1, ..., 1)
        back = np.cumsum(lifted.a) - 1.0
        assert np.allclose(back[:3], a) and np.isclose(back[3], 0.0)
