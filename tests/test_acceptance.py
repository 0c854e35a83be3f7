"""Acceptance suite: every criterion at full scale, one pass/fail line each."""

import hashlib

import pytest

from arsurvival import acceptance
from arsurvival.acceptance import (CRITERIA, CriterionResult,
                                   coefficient_grid_discrepancy, criterion_f1,
                                   run_suite)
from test_golden import versions_note

# SHA-256 of each gate's lines as ``verify --verbose`` prints them; see
# test_golden.py for when a digest may change
GATE_DIGESTS = {
    "P1": "bbc0e7653eead85d07a26dc267c2d523eaf199715e0ff0a57610714bd5bad980",
    "P2": "ba35cecaf28cc5009918c60a09d8ad7ad277aee5c1c2c5781c35497b4dd6c5ce",
    "P3": "ff16dc34bea7717e5d9977967050217efa2c329671c9789c5d2bdd096d5bd971",
    "P4": "d383b7d1fe2e193751e8212dcf66a48f61c7cc18c01679b1ff1d0ce002accc03",
    "E1": "546622d26d8440ea882c36dc9d11e4fcf8887ad45a83106df9583282e690d4ca",
    "C1": "a947638625c936471f1ca1413f9429a77c6dc59823c5332ebe0daaa8ebbe02d4",
    "O1": "281005f91f94875837a967bb6b9f3f356cca7559dabb0f597880ef72c14e90d0",
    "F1": "e64e5542a3a7b9c1a954997fdd8f8e7ac551408d89e88cb85e4f15ce3f968f85",
    "R1": "0bad62248878de63a5db147d80b836045a1b279a35973c2bca76c9c98be3d980",
    "G1": "3c4d60c813c6419e434aac34a928b76ec159944a75519f1e801e5af8df00cd95",
}


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid, capsys):
    result = CRITERIA[cid]()
    with capsys.disabled():
        print(f"\n{result.summary()}")
        for line in result.details:
            print(f"      {line}")
    assert result.passed, "\n".join([result.summary()] + result.details)
    text = "".join([f"{result.summary()}\n"] + [f"      {line}\n" for line in result.details])
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_DIGESTS[cid], versions_note()


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
