"""Acceptance suite: every criterion at full scale, one pass/fail line each."""

import pytest

from arsurvival import acceptance
from arsurvival.acceptance import (CRITERIA, CriterionResult,
                                   coefficient_grid_discrepancy, criterion_f1,
                                   run_suite)


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid, capsys):
    result = CRITERIA[cid]()
    with capsys.disabled():
        print(f"\n{result.summary()}")
        for line in result.details:
            print(f"      {line}")
    assert result.passed, "\n".join([result.summary()] + result.details)


def test_suite_registry_shape():
    assert list(CRITERIA) == ["P1", "P2", "P3", "P4", "E1", "C1", "O1", "F1",
                              "R1", "G1"]


def test_run_suite_selects_in_registry_order(monkeypatch):
    ran = []

    def stub(cid):
        def run(workers):
            ran.append((cid, workers))
            return CriterionResult(cid, "stub", True)
        return run

    monkeypatch.setattr(acceptance, "CRITERIA", {cid: stub(cid) for cid in CRITERIA})
    assert [r.cid for r in run_suite()] == list(CRITERIA)
    assert ran == [(cid, 1) for cid in CRITERIA]
    ran.clear()
    assert [r.cid for r in run_suite(["G1", "P1"], workers=2)] == ["P1", "G1"]
    assert ran == [("P1", 2), ("G1", 2)]
    ran.clear()
    with pytest.raises(ValueError, match="unknown criteria"):
        run_suite(["P1", "nope"])
    assert ran == []


def test_coefficient_grid_counts():
    assert coefficient_grid_discrepancy(200, 11)[1] == 8978
    f1 = criterion_f1()
    assert f1.metrics["values"] == 133260
    assert f1.metrics["skipped"] == 41 * 41 * 201 - 133260
