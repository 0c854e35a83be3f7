"""Explicit bounds and coefficient transforms.

Covers the constructive results that come with computable constants:

* an exponential lower bound p_N >= c^N valid whenever sum |a_k| < 1, with
  c = sup_{alpha < 0} P(Y in [alpha (1 - a_+), alpha |a_-|]) where a_+ / a_-
  sum the positive / negative coefficients (empty sums are 0); for centered
  Gaussian innovations the maximizer has a closed form, and every other law
  takes a fixed grid search whose best evaluated point certifies c,

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
_REFINE_PASSES = 4        # grid passes between the best point's neighbours
_EXACT_STEPS = 64         # e3_sign_change_index walks this many steps exactly


def exp_lower_bound(params: ARParams, spec) -> LowerBoundResult:
    """Constant c with p_N >= c^N for all N, for processes with sum |a_k| < 1.

    Maximizes P(Y in [alpha (1 - a_+), alpha |a_-|]) over alpha < 0.  Centered
    Gaussian innovations with a_- != 0 use the closed-form maximizer

        alpha* = -sigma * sqrt((log(1-a_+)^2 - log|a_-|^2) / ((1-a_+)^2 - |a_-|^2));

    everything else is a grid search: 1000 log-spaced seed points on |alpha|
    in [1e-6, 1e6] times the law's scale (sigma, the bound on |Y| or 1/rate),
    then four passes of 1000 evenly spaced points, each between the two
    neighbours of the previous pass's best point.  For purely discrete
    innovations the interval endpoints generated by each negative atom are
    added as extra seeds.  The reported c is the best value actually
    evaluated and alpha* the point where it was, so c = P(Y in [alpha* (1 -
    a_+), alpha* |a_-|]) is always a certified lower bound, even when the
    supremum is only attained in a limit (flat tails are reported at the
    bracket edge).
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
    """exp_lower_bound's grid search, for any innovation law.

    Evaluates P(Y in [alpha (1 - a_+), alpha |a_-|]) on the sorted seeds,
    then on _REFINE_PASSES grids of _SCAN_POINTS evenly spaced points, each
    spanning the two neighbours of the previous grid's best point.  Each pass
    narrows the bracket about 500-fold, so four take the 6% gap between log
    seeds below 1e-12 of |alpha|, a fixed cost that needs no stopping rule.
    """
    abs_minus = abs(a_minus)
    # a seed past -1.8e308 (the far end of the grid when the scale exceeds about
    # 1.8e302, or an atom's seed) is -inf: clip it into float range
    with np.errstate(over="ignore"):
        seeds = -spec.scale * np.logspace(math.log10(_SCAN_LO), math.log10(_SCAN_HI),
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
    alphas = np.array(seeds)
    best_alpha, best_c = 0.0, 0.0
    for _ in range(1 + _REFINE_PASSES):
        values = spec.interval_prob(alphas * (1.0 - a_plus), alphas * abs_minus)
        i = int(np.argmax(values))
        if values[i] > best_c:
            best_alpha, best_c = float(alphas[i]), float(values[i])
        alphas = np.linspace(alphas[max(0, i - 1)],
                             alphas[min(alphas.size - 1, i + 1)], _SCAN_POINTS)
    if best_c <= 0.0:
        raise DegenerateBoundError(
            "no negative interval carries innovation mass; the certified "
            "constant would be 0")
    return LowerBoundResult(c=best_c, alpha_star=best_alpha,
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
