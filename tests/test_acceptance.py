"""Acceptance suite: every criterion at full scale, one pass/fail line each."""

import pytest

from arsurvival.acceptance import (CRITERIA, SUITES, coefficient_grid_discrepancy,
                                   criterion_f1, run_suite)


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid, capsys):
    result = CRITERIA[cid](quick=False)
    with capsys.disabled():
        print(f"\n{result.summary()}")
        for line in result.details:
            print(f"      {line}")
    assert result.passed, "\n".join([result.summary()] + result.details)


def test_suite_registry_shape():
    assert list(CRITERIA) == ["P1", "P2", "P3", "P4", "E1", "C1", "O1", "F1",
                              "R1", "G1"]
    assert set(SUITES["quick"]) <= set(SUITES["full"])
    with pytest.raises(ValueError):
        run_suite("nope")


def test_coefficient_grid_counts():
    assert coefficient_grid_discrepancy(200, 11)[1] == 8978
    f1 = criterion_f1()
    assert f1.metrics["values"] == 133260
    assert f1.metrics["skipped"] == 41 * 41 * 201 - 133260
