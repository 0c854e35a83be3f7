"""Parameter regions of AR(2) processes.

The plane of coefficients (a1, a2) splits into three disjoint sets that
govern the long-run behaviour of the survival probability:

    C = {a1 >= 2, a1^2 + 4 a2 > 0} u {a1 in (0,2), a1 + a2 > 1}
        u {a1^2 + 4 a2 = 0, a1 > 2} u {a1 = 0, a2 > 1}        (positive limit)
    P = {a1 + a2 = 1, a2 in [-1, 1]}                          (polynomial decay)
    E = R^2 \\ (C u P)                                         (fast decay)

Within E three sub-regions get dedicated treatment elsewhere:

    E1 = {a1 < 0, a2 > 0, a2 > 1 + a1}      oscillating divergent weights
    E2 = (-inf, 0]^2                        all-nonpositive coefficients
    E3 = {a1 > 0, a1^2 + 4 a2 < 0}          sine/cosine weights

All boundary comparisons are exact floating comparisons, as the sets are
sharp (P is a line); callers needing robustness should round their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Major",
    "Sub",
    "RegionLabel",
    "classify_ar2",
]


class Major(Enum):
    C = "C"
    P = "P"
    E = "E"


class Sub(Enum):
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"
    E_OTHER = "EOther"


@dataclass(frozen=True)
class RegionLabel:
    major: Major
    sub: Sub | None = None

    def __post_init__(self):
        if (self.sub is not None) != (self.major is Major.E):
            raise ValueError("sub-region present iff major region is E")

    def __str__(self) -> str:
        if self.sub is None:
            return self.major.value
        return f"{self.major.value}/{self.sub.value}"


def classify_ar2(a1: float, a2: float) -> RegionLabel:
    """Assign (a1, a2) to exactly one of C, P, E (with E sub-region).

    Sub-regions are checked in the fixed order E1, E2, E3; they are disjoint
    in exact arithmetic, the order just pins the outcome under floats.
    """
    a1 = float(a1)
    a2 = float(a2)
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError("coefficients must be finite")
    if a1 + a2 == 1.0 and -1.0 <= a2 <= 1.0:
        return RegionLabel(Major.P)
    disc = a1 * a1 + 4.0 * a2
    in_c = ((a1 >= 2.0 and disc > 0.0)
            or (0.0 < a1 < 2.0 and a1 + a2 > 1.0)
            or (disc == 0.0 and a1 > 2.0)
            or (a1 == 0.0 and a2 > 1.0))
    if in_c:
        return RegionLabel(Major.C)
    if a1 < 0.0 and a2 > 0.0 and a2 > 1.0 + a1:
        return RegionLabel(Major.E, Sub.E1)
    if a1 <= 0.0 and a2 <= 0.0:
        return RegionLabel(Major.E, Sub.E2)
    if a1 > 0.0 and disc < 0.0:
        return RegionLabel(Major.E, Sub.E3)
    return RegionLabel(Major.E, Sub.E_OTHER)

