"""Innovation distributions and their analytic capabilities.

The driving noise Y_1, Y_2, ... is drawn from a closed catalog of five
distributions.  Each kind carries exact analytic metadata (mean, scale,
characteristic-function decay, sign masses, cdf and closed-interval
probabilities), so ``asymptotics.predict`` decides every theorem hypothesis
on the law without sampling.

    kind                    parameters      support
    --------------------    -----------     -----------------------
    gaussian                mu, sigma       R
    rademacher              (none)          {-1, +1} each w.p. 1/2
    two_point               y > 0           {-y, +y} each w.p. 1/2
    uniform                 lo < hi         [lo, hi]
    exponential_centered    rate > 0        [-1/rate, inf)

Sampling is inverse-cdf over counter-based uniform streams, so a sample is
a pure function of (spec, seed, path, step).  The Gaussian cdf and quantile
import ``scipy.special`` inside the call, not with this module: that import
takes longer than the rest of the package, and the other laws never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coeffs import check_real

__all__ = [
    "Kind",
    "InnovationSpec",
    "gaussian",
    "rademacher",
    "two_point",
    "uniform",
    "exponential_centered",
    "spec_from_json",
]


class Kind(Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    TWO_POINT = "two_point"
    UNIFORM = "uniform"
    EXPONENTIAL_CENTERED = "exponential_centered"


@dataclass(frozen=True)
class InnovationSpec:
    """One member of the innovation catalog; build via the factory functions."""

    kind: Kind
    params: tuple[float, ...] = ()

    def __post_init__(self):
        k, names = self.kind, _PARAM_NAMES[self.kind]
        if len(self.params) != len(names):
            raise ValueError(f"{k.value} needs params {list(names)}, got {self.params!r}")
        q = tuple(check_real(v, f"{k.value} {n}") for v, n in zip(self.params, names))
        object.__setattr__(self, "params", q)
        if not all(math.isfinite(v) for v in q):
            raise ValueError(f"{k.value} parameters must be finite, got {q}")
        if k is Kind.GAUSSIAN and q[1] <= 0:
            raise ValueError("gaussian needs (mu, sigma) with sigma > 0")
        if k is Kind.TWO_POINT and q[0] <= 0:
            raise ValueError("two_point needs y > 0")
        if k is Kind.UNIFORM and not 0.0 < q[1] - q[0] < math.inf:
            raise ValueError(f"uniform needs lo < hi and a finite hi - lo, got {q}")
        if k is Kind.EXPONENTIAL_CENTERED and q[0] <= 0:
            raise ValueError("exponential_centered needs rate > 0")

    # ---- mean, scale and capability flags -------------------------------------

    @property
    def mean(self) -> float:
        k, q = self.kind, self.params
        if k is Kind.GAUSSIAN:
            return q[0]
        if k is Kind.UNIFORM:
            return (q[0] + q[1]) / 2.0
        return 0.0

    @property
    def scale(self) -> float:
        """sigma, 1/rate, or the almost-sure bound on |Y| of a bounded law."""
        k, q = self.kind, self.params
        if k is Kind.GAUSSIAN:
            return q[1]
        if k is Kind.EXPONENTIAL_CENTERED:
            return 1.0 / q[0]
        if k is Kind.RADEMACHER:
            return 1.0
        if k is Kind.TWO_POINT:
            return q[0]
        return max(abs(q[0]), abs(q[1]))

    @property
    def cf_decays(self) -> bool:
        """Whether the characteristic function vanishes at infinity.

        Declared per kind: the absolutely continuous laws decay, the lattice
        ones keep |cf| = 1 along a subsequence.
        """
        return self.kind in (Kind.GAUSSIAN, Kind.UNIFORM, Kind.EXPONENTIAL_CENTERED)

    @property
    def pos_mass(self) -> bool:
        return self.kind is not Kind.UNIFORM or self.params[1] > 0.0

    @property
    def neg_mass(self) -> bool:
        return self.kind is not Kind.UNIFORM or self.params[0] < 0.0

    # ---- distribution functions -------------------------------------------

    def atoms(self) -> tuple[tuple[float, float], ...] | None:
        """(value, probability) atoms for discrete kinds, else None."""
        if self.kind is Kind.RADEMACHER:
            return ((-1.0, 0.5), (1.0, 0.5))
        if self.kind is Kind.TWO_POINT:
            y = self.params[0]
            return ((-y, 0.5), (y, 0.5))
        return None

    def cdf(self, y):
        """P(Y <= y), vectorized."""
        y = np.asarray(y, dtype=float)
        k, q = self.kind, self.params
        if k is Kind.GAUSSIAN:
            from scipy.special import ndtr
            mu, sigma = q
            with np.errstate(over="ignore", invalid="ignore"):
                d = y - mu
                # y - mu overflows only where y and mu have opposite signs, and
                # then y / sigma and mu / sigma do too: their difference cannot cancel
                far = np.isinf(d) & np.isfinite(y)
                z = np.where(far, y / sigma - mu / sigma, d / sigma)
            return ndtr(z)
        if k is Kind.UNIFORM:
            return np.clip((y - q[0]) / (q[1] - q[0]), 0.0, 1.0)
        if k is Kind.EXPONENTIAL_CENTERED:
            rate = q[0]
            z = rate * y + 1.0
            return np.where(z > 0.0, -np.expm1(-np.maximum(z, 0.0)), 0.0)
        out = np.zeros_like(y)
        for v, p in self.atoms():
            out = out + p * (y >= v)
        return out

    def prob_nonpositive(self) -> float:
        return float(self.cdf(0.0))

    def interval_prob(self, lo, hi):
        """P(Y in [lo, hi]) with closed endpoints, 0 when hi < lo; vectorized.

        Scalar endpoints give a float, arrays an array of their broadcast shape.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        atoms = self.atoms()
        if atoms is not None:
            prob = sum(p * ((lo <= v) & (v <= hi)) for v, p in atoms)
        else:
            # fmax, like max(0.0, .), reads a NaN difference as 0
            prob = np.fmax(0.0, self.cdf(hi) - self.cdf(lo))
        prob = np.where(hi < lo, 0.0, prob)
        return float(prob) if prob.ndim == 0 else prob

    def transform(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map (0,1) uniforms to Y samples by the inverse cdf.

        The samples go into ``out`` (``out=u`` works in place) or, when it is
        None, into a new array; either way every kind takes the same float
        operations in the same order, so the samples are the same bits.
        """
        k, q = self.kind, self.params
        if k is Kind.GAUSSIAN:
            from scipy.special import ndtri
            y = ndtri(u, out=out)
            y *= q[1]
            y += q[0]
            return y
        if k is Kind.RADEMACHER or k is Kind.TWO_POINT:
            # u - 0.5 is negative exactly when u < 0.5, and u = 0.5 gives +0.0
            y = np.subtract(u, 0.5, out=out)
            return np.copysign(q[0] if q else 1.0, y, out=out)
        if k is Kind.UNIFORM:
            y = np.multiply(u, q[1] - q[0], out=out)
            y += q[0]
            return y
        rate = q[0]
        y = np.negative(np.log(u, out=out), out=out)
        y /= rate
        y -= 1.0 / rate
        return y

    # ---- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        names = _PARAM_NAMES[self.kind]
        return {"kind": self.kind.value,
                "params": dict(zip(names, self.params))}


_PARAM_NAMES = {
    Kind.GAUSSIAN: ("mu", "sigma"),
    Kind.RADEMACHER: (),
    Kind.TWO_POINT: ("y",),
    Kind.UNIFORM: ("lo", "hi"),
    Kind.EXPONENTIAL_CENTERED: ("rate",),
}


def gaussian(mu: float = 0.0, sigma: float = 1.0) -> InnovationSpec:
    return InnovationSpec(Kind.GAUSSIAN, (mu, sigma))


def rademacher() -> InnovationSpec:
    return InnovationSpec(Kind.RADEMACHER)


def two_point(y: float) -> InnovationSpec:
    return InnovationSpec(Kind.TWO_POINT, (y,))


def uniform(lo: float, hi: float) -> InnovationSpec:
    return InnovationSpec(Kind.UNIFORM, (lo, hi))


def exponential_centered(rate: float = 1.0) -> InnovationSpec:
    return InnovationSpec(Kind.EXPONENTIAL_CENTERED, (rate,))


def spec_from_json(obj: dict) -> InnovationSpec:
    """Parse {"kind": ..., "params": {...}}, where a missing params means {};
    unknown kinds or params and params that are not an object fail, and
    InnovationSpec refuses the values."""
    if not isinstance(obj, dict) or set(obj) - {"kind", "params"}:
        raise ValueError(f"bad innovation object: {obj!r}")
    try:
        kind = Kind(obj["kind"])
    except (KeyError, ValueError):
        raise ValueError(f"unknown innovation kind: {obj.get('kind')!r}") from None
    names = _PARAM_NAMES[kind]
    given = obj.get("params", {})
    if not isinstance(given, dict):
        raise ValueError(f"{kind.value} params must be an object, got {given!r}")
    if set(given) != set(names):
        raise ValueError(f"{kind.value} needs params {list(names)}, got {sorted(given)}")
    return InnovationSpec(kind, tuple(given[n] for n in names))
