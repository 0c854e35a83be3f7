import math

import numpy as np
import pytest

from arsurvival.innovations import (InnovationSpec, Kind, exponential_centered,
                                    gaussian, rademacher, spec_from_json,
                                    two_point, uniform)
from arsurvival.rng import philox_block, words_to_uniform

ALL_SPECS = [gaussian(), gaussian(0.3, 2.0), rademacher(), two_point(2.0),
             uniform(-1.0, 1.0), uniform(0.0, 1.0), exponential_centered(1.0),
             exponential_centered(2.5)]


def sample(spec, seed, path, n):
    """Draws 0..n-1 of stream (seed, path) through ``spec``'s inverse cdf."""
    blocks = np.arange(-(-n // 4), dtype=np.uint64)
    u = words_to_uniform(philox_block(np.uint64(path), blocks, seed)).ravel()[:n]
    return spec.transform(u)


def variance(spec):
    """Var Y; every law but the uniform has its scale as standard deviation."""
    if spec.kind is Kind.UNIFORM:
        lo, hi = spec.params
        return (hi - lo) ** 2 / 12.0
    return spec.scale ** 2


def test_factory_validation():
    with pytest.raises(ValueError):
        gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        two_point(-1.0)
    with pytest.raises(ValueError):
        uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        exponential_centered(0.0)
    with pytest.raises(ValueError):
        InnovationSpec(Kind.RADEMACHER, (1.0,))


@pytest.mark.parametrize("kind, params", [
    ("gaussian", {"mu": math.nan, "sigma": 1.0}),
    ("gaussian", {"mu": 0.0, "sigma": math.inf}),
    ("gaussian", {"mu": -math.inf, "sigma": 1.0}),
    ("two_point", {"y": math.inf}),
    ("two_point", {"y": math.nan}),
    ("uniform", {"lo": -math.inf, "hi": 1.0}),
    ("uniform", {"lo": 0.0, "hi": math.nan}),
    ("exponential_centered", {"rate": math.inf}),
    ("exponential_centered", {"rate": math.nan}),
    # finite ends whose width hi - lo overflows to inf
    ("uniform", {"lo": -1e308, "hi": 1e308}),
])
def test_nonfinite_parameters_rejected(kind, params):
    with pytest.raises(ValueError, match="finite"):
        spec_from_json({"kind": kind, "params": params})


def test_sample_support():
    r = sample(rademacher(), 11, 0, 1000)
    assert set(np.unique(r)) == {-1.0, 1.0}
    t = sample(two_point(2.0), 11, 1, 1000)
    assert (np.abs(t) == 2.0).all()
    u = sample(uniform(-0.5, 0.25), 11, 2, 1000)
    assert (u >= -0.5).all() and (u <= 0.25).all()
    e = sample(exponential_centered(2.0), 11, 3, 1000)
    assert (e >= -0.5).all()


def test_gaussian_big_sample_mean():
    g = sample(gaussian(), 123, 0, 1_000_000)
    assert abs(g.mean()) < 4e-3
    assert abs(g.std() - 1.0) < 3e-3


def test_sample_determinism():
    for spec in ALL_SPECS:
        a = sample(spec, 5, 9, 64)
        b = sample(spec, 5, 9, 64)
        assert (a == b).all()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_sample_moments_match_flags(spec):
    vals = sample(spec, 2024, 7, 200_000)
    var = variance(spec)
    tol = 5.0 * math.sqrt(var / vals.size)
    assert abs(vals.mean() - spec.mean) < tol + 1e-3
    assert abs(vals.var() - var) / max(1.0, var) < 0.03
    # the scale of a bounded law is the bound on |Y|
    if spec.kind in (Kind.RADEMACHER, Kind.TWO_POINT, Kind.UNIFORM):
        assert (np.abs(vals) <= spec.scale + 1e-12).all()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_flags_are_total(spec):
    assert math.isfinite(spec.mean)
    assert math.isfinite(spec.scale) and spec.scale > 0
    assert isinstance(spec.cf_decays, bool)
    assert isinstance(spec.pos_mass, bool)
    assert isinstance(spec.neg_mass, bool)


def test_cdf_and_interval_probabilities():
    assert gaussian().prob_nonpositive() == pytest.approx(0.5)
    assert uniform(-1, 1).prob_nonpositive() == pytest.approx(0.5)
    assert uniform(0, 1).prob_nonpositive() == pytest.approx(0.0)
    assert exponential_centered(1.0).prob_nonpositive() == pytest.approx(1 - math.exp(-1))
    assert rademacher().prob_nonpositive() == pytest.approx(0.5)
    # closed endpoints count atoms
    assert rademacher().interval_prob(-1.0, -1.0) == pytest.approx(0.5)
    assert rademacher().interval_prob(-0.5, 0.5) == 0.0
    assert two_point(2.0).interval_prob(-3.0, 2.0) == pytest.approx(1.0)
    assert gaussian().interval_prob(0.5, -0.5) == 0.0
    assert uniform(-1, 1).interval_prob(-0.5, 0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_interval_prob_vectorizes_scalar_calls(spec):
    # endpoints at the atoms, between them, outside, equal, reversed and NaN
    ends = np.array([-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.3, 1.0, 2.0, 2.5,
                     np.inf, -np.inf, np.nan])
    lo, hi = np.meshgrid(ends, ends, indexing="ij")
    got = spec.interval_prob(lo, hi)
    assert got.shape == lo.shape
    scalar = [[spec.interval_prob(float(l), float(h)) for h in ends] for l in ends]
    assert (got == np.array(scalar)).all()
    # and both equal the definition, one interval at a time
    atoms = spec.atoms()
    for l, h, g in zip(lo.ravel(), hi.ravel(), got.ravel()):
        if h < l:
            ref = 0.0
        elif atoms is not None:
            ref = sum(p for v, p in atoms if l <= v <= h)
        else:
            ref = max(0.0, float(spec.cdf(h)) - float(spec.cdf(l)))
        assert g == ref
    assert isinstance(spec.interval_prob(-1.0, 1.0), float)


def test_cdf_against_sample_frequencies():
    for spec in [gaussian(0.3, 2.0), uniform(-0.5, 0.25), exponential_centered(2.0)]:
        vals = sample(spec, 3, 3, 100_000)
        for q in (-0.4, 0.0, 0.3):
            freq = float((vals <= q).mean())
            assert abs(freq - float(spec.cdf(q))) < 0.006


def test_json_round_trip():
    for spec in ALL_SPECS:
        assert spec_from_json(spec.to_json_dict()) == spec
    with pytest.raises(ValueError):
        spec_from_json({"kind": "cauchy", "params": {}})
    with pytest.raises(ValueError):
        spec_from_json({"kind": "gaussian", "params": {"mu": 0}})
    with pytest.raises(ValueError):
        spec_from_json({"kind": "gaussian", "params": {"mu": 0, "sigma": 1},
                        "extra": 1})
    for params in (1, ["mu", "sigma"], {"mu": None, "sigma": 1}):
        with pytest.raises(ValueError):
            spec_from_json({"kind": "gaussian", "params": params})
