import math
import sys
import warnings

import numpy as np
import pytest

from arsurvival.asymptotics import DecayClass, fit_decay, predict
from arsurvival.coeffs import ar_params
from arsurvival.innovations import (exponential_centered, gaussian, rademacher,
                                    two_point, uniform)
from arsurvival.mc import SurvivalCurve
from arsurvival.regions import Region

BIG = 10 ** 12

ALL_SPECS = [gaussian(), gaussian(0.3, 2.0), rademacher(), two_point(2.0),
             uniform(-1.0, 1.0), uniform(0.0, 1.0), exponential_centered(1.0),
             exponential_centered(2.5)]


def synthetic_curve(grid, probs, paths=BIG, a=(1.0,)):
    survivors = np.rint(np.asarray(probs) * paths).astype(np.int64)
    return SurvivalCurve(params=ar_params(a), spec=gaussian(), x=0.0,
                         grid=np.asarray(grid, dtype=np.int64),
                         survivors=survivors, paths=paths, seed=0)


@pytest.mark.parametrize("theta0", [0.25, 0.5, 1.0])
def test_power_law_recovery(theta0):
    grid = [2 ** k for k in range(4, 14)]
    fit = fit_decay(synthetic_curve(grid, [n ** -theta0 for n in grid]))
    assert fit.decay_class is DecayClass.POLYNOMIAL
    assert fit.theta == pytest.approx(theta0, rel=0.01)
    assert fit.window[0] > grid[0]


def test_exponential_recovery():
    grid = list(range(1, 61))
    fit = fit_decay(synthetic_curve(grid, [0.8 * 0.5 ** n for n in grid]))
    assert fit.decay_class is DecayClass.EXPONENTIAL
    assert fit.lam == pytest.approx(math.log(2.0), rel=0.01)
    assert fit.n_censored > 0          # 0.8 * 0.5^N * 1e12 rounds to 0 past N ~ 40


def test_exponential_recovery_other_rate():
    grid = list(range(1, 31))
    fit = fit_decay(synthetic_curve(grid, [0.9 ** n for n in grid]))
    assert fit.decay_class is DecayClass.EXPONENTIAL
    assert fit.lam == pytest.approx(-math.log(0.9), rel=0.01)


def test_plateau_detection():
    grid = [2 ** k for k in range(4, 12)]
    fit = fit_decay(synthetic_curve(grid, [0.3 - 1e-9 * k for k in range(8)]))
    assert fit.decay_class is DecayClass.POSITIVE_LIMIT
    assert fit.p_inf == pytest.approx(0.3, rel=1e-4)
    assert fit.plateau_stat <= 2.0


def test_exact_one_entries_pool_without_warning():
    # p_hat = 1 has stderr 0; in the plateau pool it weighs as relative error 1/paths
    grid = [2 ** k for k in range(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = fit_decay(synthetic_curve(grid, [1.0] * 8, paths=1000))
        mixed = fit_decay(synthetic_curve(grid, [1.0] * 7 + [0.999], paths=1000))
    assert flat.decay_class is DecayClass.POSITIVE_LIMIT
    assert flat.p_inf == 1.0
    for fit in (flat, mixed):
        numbers = [v for v in fit.to_json_dict().values() if isinstance(v, float)]
        assert not any(math.isnan(v) for v in numbers)


def test_too_few_usable_points_is_inconclusive():
    grid = [1, 2, 3, 4, 5, 6, 7, 8]
    probs = [0.5, 0.2, 0.05, 0.01, 0.0, 0.0, 0.0, 0.0]
    fit = fit_decay(synthetic_curve(grid, probs, paths=10_000))
    assert fit.decay_class is DecayClass.INCONCLUSIVE
    assert fit.n_usable == 4 and fit.n_censored == 4


def test_short_window_inside_r2_band_is_inconclusive():
    # N^(-1/2) over N = 100..111 is nearly linear in N too: the two R^2 differ by
    # less than the 0.02 band, so neither class wins
    grid = list(range(100, 112))
    fit = fit_decay(synthetic_curve(grid, [n ** -0.5 for n in grid]))
    assert fit.decay_class is DecayClass.INCONCLUSIVE
    assert fit.r2_loglog == pytest.approx(1.0)
    assert fit.r2_semilog == pytest.approx(0.99979, abs=1e-5)


def test_censored_entries_never_enter_regression():
    grid = list(range(1, 31))
    probs = [0.7 * 0.5 ** n for n in grid]
    paths = 10 ** 6
    fit = fit_decay(synthetic_curve(grid, probs, paths=paths))
    assert fit.n_censored > 0
    assert fit.decay_class is DecayClass.EXPONENTIAL
    assert fit.lam == pytest.approx(math.log(2.0), rel=0.05)
    assert fit.window[1] <= 20          # window stays inside uncensored range


# ---- predictions -------------------------------------------------------------


def test_predict_examples():
    p = predict(2.0, -1.0, gaussian(), 0.0)
    assert p.decay_class is DecayClass.POLYNOMIAL and p.theta == 0.25

    p = predict(0.0, 1.0, gaussian(), 0.0)
    assert p.decay_class is DecayClass.POLYNOMIAL and p.theta == 1.0

    p = predict(1.0, 0.0, gaussian(), 0.0)
    assert p.decay_class is DecayClass.POLYNOMIAL and p.theta == 0.5

    p = predict(-0.4, -0.4, gaussian(), 0.0)
    assert p.decay_class is DecayClass.EXPONENTIAL
    assert p.region is Region.E2
    assert p.rate_upper_bound is not None          # from the c^N lower bound
    assert p.rate_lower_bound == pytest.approx(math.log(2.0))

    p = predict(1.0, 1.0, gaussian(), 0.0)
    assert p.decay_class is DecayClass.POSITIVE_LIMIT
    assert p.region is Region.C


def test_predict_hypothesis_failures():
    # nonzero mean breaks the polynomial-decay hypotheses
    p = predict(1.0, 0.0, uniform(0.0, 1.0), 0.0)
    assert p.decay_class is DecayClass.INCONCLUSIVE
    assert "mean zero" in p.hypotheses.violated

    # lattice law on the oscillating-divergence region: no cf decay
    p = predict(-1.0, 2.0, rademacher(), 0.0)
    assert p.region is Region.E1
    assert p.decay_class is DecayClass.INCONCLUSIVE
    assert "characteristic function -> 0 at infinity" in p.hypotheses.violated

    # but on the all-nonpositive quadrant the sign bound needs no cf decay
    p = predict(-0.4, -0.4, rademacher(), 0.0)
    assert p.decay_class is DecayClass.EXPONENTIAL
    assert p.rate_lower_bound == pytest.approx(math.log(2.0))


# one point per region: P, C, E1, E2, E3 and the rest of E
REGION_POINTS = [(1.0, 0.0), (1.0, 1.0), (-1.0, 2.0), (-0.4, -0.4), (0.5, -0.5),
                 (0.5, 0.25)]


def test_predict_hypothesis_examples():
    rep = predict(0.5, 0.25, rademacher(), 0.0).hypotheses
    assert rep.theorem == "superpolynomial-decay"
    assert not rep.satisfied
    assert rep.violated == ("characteristic function -> 0 at infinity",)

    assert predict(1.0, 0.0, gaussian(), 0.0).hypotheses.satisfied

    rep = predict(1.0, 0.0, uniform(0, 1), 0.0).hypotheses
    assert not rep.satisfied
    assert "mean zero" in rep.violated


def test_predict_hypotheses_cover_catalog():
    for a1, a2 in REGION_POINTS:
        for spec in ALL_SPECS:
            rep = predict(a1, a2, spec, 0.0).hypotheses
            assert rep.satisfied == (not rep.violated)


def test_uniform_positive_only_violates_sign_hypotheses():
    rep = predict(1.0, 1.0, uniform(0.5, 1.0), 0.0).hypotheses
    assert rep.theorem == "positive-limit"
    assert not rep.satisfied and "P(Y < 0) > 0" in rep.violated
    rep = predict(0.5, 0.25, uniform(0.5, 1.0), 0.0).hypotheses
    assert rep.theorem == "superpolynomial-decay"
    assert "P(Y <= 0) > 0" in rep.violated


_P, _E, _C, _I = (DecayClass.POLYNOMIAL, DecayClass.EXPONENTIAL,
                  DecayClass.POSITIVE_LIMIT, DecayClass.INCONCLUSIVE)
_MEAN = ("mean zero",)
_CF = ("characteristic function -> 0 at infinity",)
_NEG = ("P(Y < 0) > 0",)
_NONPOS = ("P(Y <= 0) > 0",)


# (class, violated) for each law of ALL_SPECS, in order, at each region point
@pytest.mark.parametrize("point, expected", list(zip(REGION_POINTS, [
    [(_P, ()), (_I, _MEAN), (_P, ()), (_P, ()), (_P, ()), (_I, _MEAN), (_P, ()), (_P, ())],
    [(_C, ()), (_C, ()), (_C, ()), (_C, ()), (_C, ()), (_I, _NEG), (_C, ()), (_C, ())],
    [(_E, ()), (_E, ()), (_I, _CF), (_I, _CF), (_E, ()), (_E, ()), (_E, ()), (_E, ())],
    [(_E, ()), (_E, ()), (_E, _CF), (_E, _CF), (_E, ()), (_E, _NONPOS), (_E, ()), (_E, ())],
    [(_E, ()), (_E, ()), (_E, _CF), (_E, _CF), (_E, ()), (_E, _NONPOS), (_E, ()), (_E, ())],
    [(_E, ()), (_E, ()), (_E, _CF), (_E, _CF), (_E, ()), (_I, _NONPOS), (_E, ()), (_E, ())],
])), ids=["P", "C", "E1", "E2", "E3", "EOther"])
def test_predict_region_table(point, expected):
    got = [predict(*point, spec, 0.0) for spec in ALL_SPECS]
    assert [(p.decay_class, p.hypotheses.violated) for p in got] == expected


# -log P(Y <= 0): the Gaussian's -log ndtr(-37.8) from 50-digit arithmetic,
# the uniforms' log((hi - lo) / -lo) = log(1e400) and log(1.4e323)
@pytest.mark.parametrize("spec, rate", [(gaussian(37.8, 1.0), 718.97194628),
                                        (gaussian(40.0, 1.0), 804.60844),
                                        (uniform(-1e-300, 1e100), 400 * math.log(10)),
                                        (uniform(-1e-300, 1.4e23),
                                         math.log(1.4) + 323 * math.log(10))])
def test_predict_e2_underflowing_nonpositive_mass(spec, rate):
    # P(Y <= 0) > 0 underflows to 0.0 or to a subnormal in floats for these
    # laws; 1.4e23's 7.1e-324 rounds down to 5e-324, whose -log exceeds the rate
    assert spec.prob_nonpositive() < sys.float_info.min
    p = predict(-0.4, -0.4, spec, 0.0)
    assert p.decay_class is DecayClass.EXPONENTIAL
    assert p.hypotheses.satisfied and p.hypotheses.violated == ()
    # -log of the least normal float, 2^-1022, which bounds P(Y <= 0) from above
    assert p.rate_lower_bound == -math.log(sys.float_info.min)
    assert p.rate_lower_bound < rate
    assert predict(0.5, 0.25, spec, 0.0).hypotheses.violated == ()


def test_predict_e1_carries_rate_bound():
    p = predict(-1.0, 2.0, gaussian(), 0.0)
    assert p.decay_class is DecayClass.EXPONENTIAL
    assert p.rate_lower_bound == pytest.approx(math.log(2.0), abs=1e-12)
    assert p.rate_upper_bound is None             # sum |a_k| >= 1 here


def test_predict_gaussian_covers_all_of_e():
    # centered Gaussian innovations admit a genuine exponential bound on E
    for a1, a2 in [(-0.4, -0.4), (0.5, -0.5), (-1.0, 2.0), (-0.5, 0.5),
                   (0.9, -0.8)]:
        p = predict(a1, a2, gaussian(), 0.0)
        assert p.region.major == "E"
        assert p.decay_class is DecayClass.EXPONENTIAL
        assert not p.log_corrected_plausible


def test_predict_log_corrected_flag_for_non_gaussian():
    # vanishing-weights interior point, absolutely continuous non-Gaussian law
    p = predict(0.5, 0.25, uniform(-1.0, 1.0), 0.0)
    assert p.region is Region.E_OTHER
    assert p.decay_class is DecayClass.EXPONENTIAL
    assert p.log_corrected_plausible


@pytest.mark.parametrize("a1, a2, spec, cls, note", [
    (1.0, 1.0, uniform(0.5, 1.0), DecayClass.INCONCLUSIVE, None),
    (-0.4, -0.4, uniform(-1.0, 0.0), DecayClass.INCONCLUSIVE, "no upward mass"),
    (0.5, -0.5, uniform(-1.0, 0.0), DecayClass.INCONCLUSIVE, "no upward mass"),
    (0.5, 0.25, rademacher(), DecayClass.EXPONENTIAL, None),
    (0.5, 0.25, uniform(0.0, 1.0), DecayClass.INCONCLUSIVE, None),
], ids=["C-no-downward-mass", "E2-no-upward-mass", "E3-no-upward-mass",
        "Eother-lattice", "Eother-one-sided"])
def test_predict_region_rules(a1, a2, spec, cls, note):
    p = predict(a1, a2, spec, 0.0)
    assert p.decay_class is cls
    if note is not None:
        assert note in p.notes
    if cls is DecayClass.EXPONENTIAL:
        assert p.log_corrected_plausible
    else:
        assert p.theta is None and not p.log_corrected_plausible
        assert p.rate_lower_bound is None and p.rate_upper_bound is None


def test_predict_is_pure():
    a = predict(0.5, 0.5, gaussian(), 0.0)
    b = predict(0.5, 0.5, gaussian(), 0.0)
    assert a == b


def test_predict_agrees_with_acceptance_classes():
    # the classes the acceptance simulations are asserted to produce
    expected = {
        (1.0, 0.0): (DecayClass.POLYNOMIAL, 0.5),
        (2.0, -1.0): (DecayClass.POLYNOMIAL, 0.25),
        (0.0, 1.0): (DecayClass.POLYNOMIAL, 1.0),
        (0.5, 0.5): (DecayClass.POLYNOMIAL, 0.5),
        (-0.4, -0.4): (DecayClass.EXPONENTIAL, None),
        (1.0, 1.0): (DecayClass.POSITIVE_LIMIT, None),
    }
    for (a1, a2), (cls, theta) in expected.items():
        p = predict(a1, a2, gaussian(), 0.0)
        assert p.decay_class is cls, (a1, a2)
        assert p.theta == theta, (a1, a2)


def test_predict_notes_negative_barrier():
    p = predict(1.0, 0.0, gaussian(), -1.0)
    assert any("x >= 0" in note for note in p.notes)


def test_predict_rejects_nan_barrier():
    with pytest.raises(ValueError, match="NaN"):
        predict(0.5, 0.25, gaussian(), math.nan)
    # infinite barriers stay valid, as in estimate_survival
    assert predict(0.5, 0.25, gaussian(), math.inf).decay_class is DecayClass.EXPONENTIAL


def test_prediction_json_shape():
    obj = predict(2.0, -1.0, gaussian(), 0.0).to_json_dict()
    assert obj["region"] == "P" and obj["predicted"] == "polynomial"
    assert obj["theta"] == 0.25
    assert obj["hypotheses"]["satisfied"] is True
