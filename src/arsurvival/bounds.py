"""Explicit bounds and coefficient transforms.

Covers the constructive results that come with computable constants:

* an exponential lower bound p_N >= c^N valid whenever sum |a_k| < 1, with
  c = sup_{alpha < 0} P(Y in [alpha (1 - a_+), alpha |a_-|]) where a_+ / a_-
  sum the positive / negative coefficients (empty sums are 0); for centered
  Gaussian innovations the maximizer has a closed form,

* a lower bound on the exponential decay rate on the oscillating-divergence
  region E1, from the characteristic roots,

* the first sign-change index q = inf{k >= 1 : c_k <= 0} on E3, which is
  ceil(pi / phi) - 1 for the oscillation angle phi,

* the order-raising coefficient map T_p of running sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .coeffs import ARParams, ar2_closed_form, ar_params, ar_step
from .innovations import Kind
from .regions import Region, classify_ar2

__all__ = [
    "BoundMethod",
    "LowerBoundResult",
    "PreconditionError",
    "DegenerateBoundError",
    "exp_lower_bound",
    "e1_rate_bound",
    "e3_sign_change_index",
    "integrate_params",
]


class PreconditionError(ValueError):
    """The parameters are outside the result's region of validity."""


class DegenerateBoundError(ArithmeticError):
    """The innovation law puts no mass on the certifying intervals."""


class BoundMethod(Enum):
    GAUSSIAN_CLOSED_FORM = "gaussian_closed_form"
    NUMERIC_SCAN = "numeric_scan"


@dataclass(frozen=True)
class LowerBoundResult:
    """Certified constant c in (0, 1] with p_N >= c^N, and its maximizer."""

    c: float
    alpha_star: float
    a_plus: float
    a_minus: float
    A: float
    method: BoundMethod


_SCAN_POINTS = 1000
_SCAN_LO, _SCAN_HI = 1e-6, 1e6   # |alpha| bracket over the law's scale, log-spaced
_GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EXACT_STEPS = 64         # e3_sign_change_index walks this many steps exactly


def _golden_max(f, lo: float, hi: float, scale: float):
    """Golden-section maximum of f on [lo, hi]; returns the best point seen.

    Stops once the bracket is narrower than 1e-8 times max(scale, |lo|), or
    once its inner points round onto its ends, which a bracket a few ulps
    wide does when that width underflows (a law of subnormal scale).
    """
    best_x, best_f = lo, f(lo)
    fhi = f(hi)
    if fhi > best_f:
        best_x, best_f = hi, fhi
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > _GOLDEN_TOL * max(scale, abs(lo)) and lo < c < d < hi:
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return best_x, best_f


def exp_lower_bound(params: ARParams, spec) -> LowerBoundResult:
    """Constant c with p_N >= c^N for all N, for processes with sum |a_k| < 1.

    Maximizes P(Y in [alpha (1 - a_+), alpha |a_-|]) over alpha < 0.  Centered
    Gaussian innovations with a_- != 0 use the closed-form maximizer

        alpha* = -sigma * sqrt((log(1-a_+)^2 - log|a_-|^2) / ((1-a_+)^2 - |a_-|^2));

    everything else is a log-spaced scan of 1000 seed points on |alpha| in
    [1e-6, 1e6] times the law's scale (sigma, the bound on |Y| or 1/rate)
    followed by golden-section refinement.  For purely discrete
    innovations the interval endpoints generated by each negative atom are
    added as extra seeds.  The reported c is the best value actually
    evaluated, hence always a certified lower bound even when the supremum is
    only attained in a limit (flat tails are reported at the bracket edge).
    """
    # a Python sum: numpy warns when the sum overflows, fsum raises
    total = sum(abs(v) for v in params.a)
    if not total < 1.0:
        raise PreconditionError(f"needs sum |a_k| < 1, got {total}")
    a = np.asarray(params.a)
    a_plus, a_minus = float(a[a > 0].sum()), float(a[a < 0].sum())
    abs_minus = abs(a_minus)        # -a_minus is -0.0 when no coefficient is negative
    if not (spec.kind is Kind.GAUSSIAN and spec.params[0] == 0.0 and abs_minus > 0.0):
        return _scan_lower_bound(spec, a_plus, a_minus)
    sigma = spec.params[1]
    width = 1.0 - a_plus
    # 2 log|a_-|, not log(|a_-|^2): the square underflows below ~1e-162
    t_star = -math.sqrt((2 * math.log(width) - 2 * math.log(abs_minus))
                        / (width ** 2 - abs_minus ** 2))
    from scipy.special import ndtr
    c = float(ndtr(t_star * abs_minus) - ndtr(t_star * width))
    # a sigma near the float limit takes alpha* past -1.8e308: clip it, as the scan does
    alpha_star = max(sigma * t_star, -sys.float_info.max)
    return LowerBoundResult(c=c, alpha_star=alpha_star, a_plus=a_plus,
                            a_minus=a_minus, A=abs_minus / width,
                            method=BoundMethod.GAUSSIAN_CLOSED_FORM)


def _scan_lower_bound(spec, a_plus: float, a_minus: float) -> LowerBoundResult:
    """exp_lower_bound's numeric scan, for any innovation law."""
    abs_minus = abs(a_minus)
    scale = spec.scale

    def objective(alpha):
        # P(Y in [alpha (1 - a_+), alpha |a_-|]) at a float or an array of them
        return spec.interval_prob(alpha * (1.0 - a_plus), alpha * abs_minus)

    # a seed past -1.8e308 (the far end of the grid when the scale exceeds about
    # 1.8e302, or an atom's seed) is -inf: clip it into float range
    with np.errstate(over="ignore"):
        seeds = -scale * np.logspace(math.log10(_SCAN_LO), math.log10(_SCAN_HI),
                                     _SCAN_POINTS)
    seeds = list(np.maximum(seeds, -sys.float_info.max))
    atoms = spec.atoms()
    if atoms is not None and abs_minus > 0.0:
        for v, _ in atoms:
            if v < 0.0:
                lo_a, hi_a = v / abs_minus, v / (1.0 - a_plus)
                seeds += [max(alpha, -sys.float_info.max)
                          for alpha in (lo_a, hi_a, -math.sqrt(lo_a * hi_a))]
    seeds.sort()
    values = objective(np.array(seeds))
    i = int(np.argmax(values))
    best_alpha, best_c = seeds[i], float(values[i])
    lo = seeds[max(0, i - 1)]
    hi = seeds[min(len(seeds) - 1, i + 1)]
    if hi > lo:
        x, fx = _golden_max(objective, lo, hi, scale)
        if fx > best_c:
            best_alpha, best_c = x, fx
    if best_c <= 0.0:
        raise DegenerateBoundError(
            "no negative interval carries innovation mass; the certified "
            "constant would be 0")
    return LowerBoundResult(c=float(best_c), alpha_star=float(best_alpha),
                            a_plus=a_plus, a_minus=a_minus,
                            A=abs_minus / (1.0 - a_plus),
                            method=BoundMethod.NUMERIC_SCAN)


def e1_rate_bound(a1: float, a2: float) -> float:
    """Lower bound on the exponential decay rate of p_N on region E1.

    With real roots s1 > 0 > s2 and |s2| > max(s1, 1), the rate is at least
    log(|s2| / s1) when a1 + a2 > 1 and log |s2| otherwise.
    """
    region = classify_ar2(a1, a2)
    if region is not Region.E1:
        raise PreconditionError(f"({a1}, {a2}) is not in region E1 (got {region})")
    sol = ar2_closed_form(a1, a2)
    s1, s2 = sol.s1.real, sol.s2.real
    if a1 + a2 > 1.0:
        return math.log(abs(s2) / s1)
    return math.log(abs(s2))


def e3_sign_change_index(a1: float, a2: float) -> int:
    """First k >= 1 with c_k <= 0 on region E3 (c_k <= 0 is non-strict).

    On E3, c_k = |a2|^(k/2) sin((k+1) phi) / sin phi for the oscillation
    angle phi in (0, pi/2) with tan(phi)^2 = -(a1^2 + 4 a2) / a1^2, so the
    index is ceil(pi / phi) - 1.  c_k is exactly 0 only at phi in
    {pi/3, pi/4, pi/6}, where rounding would decide the non-strict sign, so
    the first 64 steps of the recursion are walked exactly in rationals.
    Past them the formula is used, with tan(phi)^2 rounded once from its
    exact value: near the real-root boundary the float discriminant loses
    its digits to cancellation, and a float walk underflows or overflows
    long before ceil(pi / phi) steps.
    """
    region = classify_ar2(a1, a2)
    if region is not Region.E3:
        raise PreconditionError(f"({a1}, {a2}) is not in region E3 (got {region})")
    a = (Fraction(a1), Fraction(a2))
    c_prev, c_cur = Fraction(1), a[0]     # c_0, c_1
    for k in range(1, _EXACT_STEPS + 1):
        if c_cur <= 0:
            return k
        c_prev, c_cur = c_cur, ar_step(a, 0, (c_cur, c_prev))
    phi = math.atan(math.sqrt(-(a[0] * a[0] + 4 * a[1]) / (a[0] * a[0])))
    return math.ceil(math.pi / phi) - 1


def integrate_params(params: ARParams) -> ARParams:
    """Coefficients of the running sum: T_p(a) = (a1+1, a2-a1, ..., -a_p).

    The AR(p+1) process with these coefficients equals, pathwise, the running
    sum of the AR(p) process with coefficients ``a`` driven by the same
    innovations.
    """
    a = params.a
    lifted = [a[0] + 1.0]
    lifted += [a[k] - a[k - 1] for k in range(1, params.p)]
    lifted.append(-a[-1])
    return ar_params(lifted)
