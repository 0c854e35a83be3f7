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
from enum import Enum

from .coeffs import ar2_discriminant, check_real

__all__ = [
    "Region",
    "classify_ar2",
]


class Region(Enum):
    """One cell of the partition: C, P, or E with its sub-region."""

    C = "C"
    P = "P"
    E1 = "E/E1"
    E2 = "E/E2"
    E3 = "E/E3"
    E_OTHER = "E/EOther"

    @property
    def major(self) -> str:
        """The major region: "C", "P" or "E"."""
        return self.value.partition("/")[0]

    @property
    def sub(self) -> str | None:
        """The sub-region on E: "E1", "E2", "E3" or "EOther"; None off E."""
        return self.value.partition("/")[2] or None

    def __str__(self) -> str:
        return self.value


def classify_ar2(a1: float, a2: float) -> Region:
    """Assign (a1, a2) to exactly one of C, P and the four cells of E.

    Sub-regions are checked in the fixed order E1, E2, E3; they are disjoint
    in exact arithmetic, the order just pins the outcome under floats.
    """
    a1 = check_real(a1, "a1")
    a2 = check_real(a2, "a2")
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError("coefficients must be finite")
    if a1 + a2 == 1.0 and -1.0 <= a2 <= 1.0:
        return Region.P
    # scaled, so that it cannot overflow; only its sign is compared
    disc, _ = ar2_discriminant(a1, a2)
    in_c = ((a1 >= 2.0 and disc > 0.0)
            or (0.0 < a1 < 2.0 and a1 + a2 > 1.0)
            or (disc == 0.0 and a1 > 2.0)
            or (a1 == 0.0 and a2 > 1.0))
    if in_c:
        return Region.C
    if a1 < 0.0 and a2 > 0.0 and a2 > 1.0 + a1:
        return Region.E1
    if a1 <= 0.0 and a2 <= 0.0:
        return Region.E2
    if a1 > 0.0 and disc < 0.0:
        return Region.E3
    return Region.E_OTHER
