import numpy as np
import pytest

from arsurvival.coeffs import LimitKind, coeff_limit_class
from arsurvival.regions import Major, RegionLabel, Sub, classify_ar2

GRID = np.linspace(-3.0, 3.0, 201)


def _in_c(a1, a2):
    # restated from the set definitions, as an independent oracle
    d = a1 * a1 + 4 * a2
    return ((a1 >= 2 and d > 0) or (0 < a1 < 2 and a1 + a2 > 1)
            or (d == 0 and a1 > 2) or (a1 == 0 and a2 > 1))


def _in_p(a1, a2):
    return a1 + a2 == 1 and -1 <= a2 <= 1


def test_classification_examples():
    assert classify_ar2(2, -1) == RegionLabel(Major.P)
    assert classify_ar2(1, 1) == RegionLabel(Major.C)
    assert classify_ar2(-1, 2) == RegionLabel(Major.E, Sub.E1)
    assert classify_ar2(-0.4, -0.4) == RegionLabel(Major.E, Sub.E2)
    assert classify_ar2(0, 1) == RegionLabel(Major.P)
    assert classify_ar2(0.5, -0.5) == RegionLabel(Major.E, Sub.E3)
    assert classify_ar2(3, -1) == RegionLabel(Major.C)
    assert classify_ar2(0, 2) == RegionLabel(Major.C)
    assert str(classify_ar2(-0.4, -0.4)) == "E/E2"


def test_boundary_semantics_are_exact():
    # the P line is sharp
    assert classify_ar2(0.5, 0.5).major is Major.P
    assert classify_ar2(0.5, 0.5 + 1e-12).major is Major.C
    assert classify_ar2(0.5, 0.5 - 1e-12).major is Major.E
    # a1 >= 2 boundary of C
    assert classify_ar2(2.0, 0.1).major is Major.C
    # origin is E2 (closed quadrant)
    assert classify_ar2(0.0, 0.0) == RegionLabel(Major.E, Sub.E2)


def test_classify_rejects_non_finite():
    with pytest.raises(ValueError):
        classify_ar2(float("nan"), 0.0)


def test_partition_single_label_on_grid():
    counts = {Major.C: 0, Major.P: 0, Major.E: 0}
    for a1 in GRID:
        for a2 in GRID:
            label = classify_ar2(a1, a2)
            counts[label.major] += 1
            assert (label.sub is not None) == (label.major is Major.E)
            # C and P oracles must agree with the label (so no point could
            # carry two labels)
            assert _in_p(a1, a2) == (label.major is Major.P)
            assert _in_c(a1, a2) == (label.major is Major.C)
    assert sum(counts.values()) == len(GRID) ** 2
    assert counts[Major.C] > 0 and counts[Major.E] > 0
    # the P line is measure zero; this grid's float sums never hit 1 exactly,
    # so P membership is checked at exactly-representable points instead
    for a1, a2 in [(2.0, -1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5),
                   (1.5, -0.5), (0.25, 0.75)]:
        assert classify_ar2(a1, a2).major is Major.P


def test_sub_regions_inside_e_on_grid():
    for a1 in GRID:
        for a2 in GRID:
            e1 = a1 < 0 and a2 > 0 and a2 > 1 + a1
            e2 = a1 <= 0 and a2 <= 0
            e3 = a1 > 0 and a1 * a1 + 4 * a2 < 0
            if e1 or e2 or e3:
                assert not _in_c(a1, a2) and not _in_p(a1, a2)
                label = classify_ar2(a1, a2)
                assert label.major is Major.E
                if e1:
                    assert label.sub is Sub.E1


def test_p_with_small_a2_iff_nonzero_limit():
    for a1 in GRID:
        for a2 in GRID:
            label = classify_ar2(a1, a2)
            lhs = label.major is Major.P and abs(a2) < 1
            rhs = coeff_limit_class(a1, a2).kind is LimitKind.CONVERGES_NONZERO
            assert lhs == rhs, (a1, a2)

