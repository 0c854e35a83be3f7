from fractions import Fraction

import numpy as np
import pytest

from arsurvival.coeffs import LimitKind, coeff_limit_class
from arsurvival.asymptotics import predict
from arsurvival.innovations import gaussian
from arsurvival.regions import Region, classify_ar2

GRID = np.linspace(-3.0, 3.0, 201)


def _in_c(a1, a2):
    # restated from the set definitions, as an independent oracle
    d = a1 * a1 + 4 * a2
    return ((a1 >= 2 and d > 0) or (0 < a1 < 2 and a1 + a2 > 1)
            or (d == 0 and a1 > 2) or (a1 == 0 and a2 > 1))


def _in_p(a1, a2):
    return a1 + a2 == 1 and -1 <= a2 <= 1


def test_classification_examples():
    assert classify_ar2(2, -1) is Region.P
    assert classify_ar2(1, 1) is Region.C
    assert classify_ar2(-1, 2) is Region.E1
    assert classify_ar2(-0.4, -0.4) is Region.E2
    assert classify_ar2(0, 1) is Region.P
    assert classify_ar2(0.5, -0.5) is Region.E3
    assert classify_ar2(3, -1) is Region.C
    assert classify_ar2(0, 2) is Region.C
    assert str(classify_ar2(-0.4, -0.4)) == "E/E2"


# region -> a point in it, str(), .major and .sub
REGION_CASES = {
    Region.C: ((1.0, 1.0), "C", "C", None),
    Region.P: ((0.5, 0.5), "P", "P", None),
    Region.E1: ((-1.0, 2.0), "E/E1", "E", "E1"),
    Region.E2: ((-0.4, -0.4), "E/E2", "E", "E2"),
    Region.E3: ((0.5, -0.5), "E/E3", "E", "E3"),
    Region.E_OTHER: ((0.3, 0.2), "E/EOther", "E", "EOther"),
}


@pytest.mark.parametrize("region", list(Region), ids=lambda r: r.name)
def test_every_region_value(region):
    (a1, a2), text, major, sub = REGION_CASES[region]
    assert classify_ar2(a1, a2) is region
    assert (str(region), region.major, region.sub) == (text, major, sub)
    obj = predict(a1, a2, gaussian(), 0.0).to_json_dict()
    assert (obj["region"], obj["sub"]) == (major, sub)


def test_boundary_semantics_are_exact():
    # the P line is sharp
    assert classify_ar2(0.5, 0.5) is Region.P
    assert classify_ar2(0.5, 0.5 + 1e-12) is Region.C
    assert classify_ar2(0.5, 0.5 - 1e-12).major == "E"
    # a1 >= 2 boundary of C
    assert classify_ar2(2.0, 0.1) is Region.C
    # origin is E2 (closed quadrant)
    assert classify_ar2(0.0, 0.0) is Region.E2


@pytest.mark.parametrize("a1, a2, region", [(1e155, -1e308, Region.C),
                                             (2e154, -1.5e308, Region.E3)])
def test_discriminant_keeps_its_sign_where_it_overflows(a1, a2, region):
    # a1^2 and 4 a2 overflow with opposite signs: unscaled, inf - inf is NaN
    # and fails every comparison; the exact sign decides C against E3
    assert (Fraction(a1) ** 2 + 4 * Fraction(a2) > 0) == (region is Region.C)
    assert classify_ar2(a1, a2) is region


def test_classify_rejects_non_finite():
    with pytest.raises(ValueError):
        classify_ar2(float("nan"), 0.0)


def test_partition_single_label_on_grid():
    counts = {"C": 0, "P": 0, "E": 0}
    for a1 in GRID:
        for a2 in GRID:
            region = classify_ar2(a1, a2)
            counts[region.major] += 1
            assert (region.sub is not None) == (region.major == "E")
            # C and P oracles must agree with the region (so no point could
            # carry two regions)
            assert _in_p(a1, a2) == (region is Region.P)
            assert _in_c(a1, a2) == (region is Region.C)
    assert sum(counts.values()) == len(GRID) ** 2
    assert counts["C"] > 0 and counts["E"] > 0
    # the P line is measure zero; this grid's float sums never hit 1 exactly,
    # so P membership is checked at exactly-representable points instead
    for a1, a2 in [(2.0, -1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5),
                   (1.5, -0.5), (0.25, 0.75)]:
        assert classify_ar2(a1, a2) is Region.P


def test_sub_regions_inside_e_on_grid():
    for a1 in GRID:
        for a2 in GRID:
            e1 = a1 < 0 and a2 > 0 and a2 > 1 + a1
            e2 = a1 <= 0 and a2 <= 0
            e3 = a1 > 0 and a1 * a1 + 4 * a2 < 0
            if e1 or e2 or e3:
                assert not _in_c(a1, a2) and not _in_p(a1, a2)
                region = classify_ar2(a1, a2)
                assert region.major == "E"
                if e1:
                    assert region is Region.E1


def test_p_with_small_a2_iff_nonzero_limit():
    for a1 in GRID:
        for a2 in GRID:
            lhs = classify_ar2(a1, a2) is Region.P and abs(a2) < 1
            rhs = coeff_limit_class(a1, a2).kind is LimitKind.CONVERGES_NONZERO
            assert lhs == rhs, (a1, a2)

