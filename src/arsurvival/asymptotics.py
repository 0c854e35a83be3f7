"""Decay-class fitting and theory-side predictions for survival curves.

A survival curve is matched to one of three limiting classes:

    polynomial      p_N ~ c N^-theta      (log p linear in log N)
    exponential     p_N ~ c e^(-lambda N) (log p linear in N)
    positive limit  p_N -> p_inf > 0      (curve plateaus)

``fit_decay`` estimates the class and its parameter from the Monte Carlo
curve; ``predict`` derives the class the parameter region and innovation
hypotheses imply, so the two can be compared.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import e1_rate_bound, exp_lower_bound, PreconditionError, DegenerateBoundError
from .coeffs import ar_params, check_barrier
from .innovations import InnovationSpec, Kind
from .mc import SurvivalCurve
from .regions import Region, classify_ar2

__all__ = [
    "DecayClass",
    "DecayFit",
    "HypothesisReport",
    "Prediction",
    "fit_decay",
    "predict",
]


class DecayClass(Enum):
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"
    POSITIVE_LIMIT = "positive_limit"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay class with diagnostics.

    Exactly one class is reported; the value/ci fields of the other classes
    stay None.  r2 values are weighted coefficients of determination over all
    uncensored points, the parameter estimates come from the asymptotic
    window only.
    """

    decay_class: DecayClass
    theta: float | None = None
    theta_ci: float | None = None
    lam: float | None = None
    lam_ci: float | None = None
    p_inf: float | None = None
    p_inf_ci: float | None = None
    r2_loglog: float | None = None
    r2_semilog: float | None = None
    plateau_stat: float | None = None
    window: tuple[int, int] | None = None
    n_usable: int = 0
    n_censored: int = 0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "type": "decay_fit",
            "class": self.decay_class.value,
            "theta": self.theta, "theta_ci": self.theta_ci,
            "lambda": self.lam, "lambda_ci": self.lam_ci,
            "p_inf": self.p_inf, "p_inf_ci": self.p_inf_ci,
            "r2_loglog": self.r2_loglog, "r2_semilog": self.r2_semilog,
            "plateau_stat": self.plateau_stat,
            "window": list(self.window) if self.window else None,
            "n_usable": self.n_usable, "n_censored": self.n_censored,
        }


_MIN_USABLE = 6
_R2_BAND = 0.02
_PLATEAU_Z = 2.0
_CI_Z = 1.96


def _wls_line(xv: np.ndarray, yv: np.ndarray, w: np.ndarray):
    """Weighted least-squares line fit; returns (slope, intercept, slope_se)."""
    sw = w.sum()
    xb = (w * xv).sum() / sw
    yb = (w * yv).sum() / sw
    sxx = (w * (xv - xb) ** 2).sum()
    slope = (w * (xv - xb) * (yv - yb)).sum() / sxx
    intercept = yb - slope * xb
    return slope, intercept, 1.0 / math.sqrt(sxx)


def _weighted_r2(xv, yv, w):
    slope, intercept, _ = _wls_line(xv, yv, w)
    resid = yv - (intercept + slope * xv)
    yb = (w * yv).sum() / w.sum()
    ss_tot = (w * (yv - yb) ** 2).sum()
    ss_res = (w * resid ** 2).sum()
    if ss_tot == 0.0:
        return 1.0
    return float(1.0 - ss_res / ss_tot)


def fit_decay(curve: SurvivalCurve) -> DecayFit:
    """Fit the decay class of a survival curve.

    Censored (zero-survivor) entries never enter any regression.  An invalid
    curve (too many non-finite paths, which count as non-survivors from
    N = 1 on) and a curve with fewer than 6 uncensored points are
    INCONCLUSIVE.  The plateau test runs first: if the last quarter of the
    uncensored entries agree pairwise within 2 combined standard errors, the
    curve is a POSITIVE_LIMIT.  The flatness claim needs a resolved level, so
    the plateau additionally requires the pooled tail estimate to carry at
    most 25% relative standard error, and survivors at the last horizon; a
    near-censored tail of single-digit counts is flat only for lack of power
    and must not pass, and a true positive limit never ends in zero.
    Otherwise log p is regressed on log N and on N (weighted by inverse
    squared relative standard error) over the
    upper half of the uncensored grid, and the class follows the
    better-explaining model: POLYNOMIAL when the log-log R^2 (over all
    uncensored points) beats the semilog R^2 by at least 0.02, EXPONENTIAL
    in the mirror case, INCONCLUSIVE inside the band.
    """
    usable = ~curve.zero_flag
    n_censored = int(curve.zero_flag.sum())
    n_usable = int(usable.sum())
    if curve.invalid or n_usable < _MIN_USABLE:
        return DecayFit(DecayClass.INCONCLUSIVE, n_usable=n_usable,
                        n_censored=n_censored)
    nn = curve.grid[usable].astype(float)
    p = curve.p_hat[usable]
    se = curve.stderr[usable]
    # inverse squared relative stderr; exact-1 entries get their neighbour scale
    rel = np.where(se > 0.0, se / p, 1.0 / curve.paths)
    w = 1.0 / rel ** 2

    # plateau test on the last quarter
    q = max(2, -(-n_usable // 4))
    tail_p, tail_se = p[-q:], se[-q:]
    stats = []
    for i in range(q):
        for j in range(i + 1, q):
            comb = math.hypot(tail_se[i], tail_se[j])
            stats.append(abs(tail_p[i] - tail_p[j]) / comb if comb > 0.0 else 0.0)
    plateau_stat = float(max(stats))

    # asymptotic window: upper half of the usable grid
    m = -(-n_usable // 2)
    wn, wp, ww = nn[-m:], p[-m:], w[-m:]
    window = (int(wn[0]), int(wn[-1]))
    logp = np.log(wp)
    slope_ll, _, se_ll = _wls_line(np.log(wn), logp, ww)
    slope_sl, _, se_sl = _wls_line(wn, logp, ww)
    r2_ll = _weighted_r2(np.log(nn), np.log(p), w)
    r2_sl = _weighted_r2(nn, np.log(p), w)

    common = dict(r2_loglog=r2_ll, r2_semilog=r2_sl, plateau_stat=plateau_stat,
                  window=window, n_usable=n_usable, n_censored=n_censored)
    # exact-1 entries (se = 0) get the floor of w: relative error 1/paths
    wq = 1.0 / np.where(se > 0.0, se, 1.0 / curve.paths)[-q:] ** 2
    p_pool = float((wq * tail_p).sum() / wq.sum())
    se_pool = 1.0 / math.sqrt(wq.sum())
    if (plateau_stat <= _PLATEAU_Z and se_pool <= 0.25 * p_pool
            and curve.survivors[-1] > 0):
        return DecayFit(DecayClass.POSITIVE_LIMIT, p_inf=p_pool,
                        p_inf_ci=_CI_Z * se_pool, **common)
    if r2_ll - r2_sl >= _R2_BAND:
        return DecayFit(DecayClass.POLYNOMIAL, theta=max(0.0, -slope_ll),
                        theta_ci=_CI_Z * se_ll, **common)
    if r2_sl - r2_ll >= _R2_BAND:
        return DecayFit(DecayClass.EXPONENTIAL, lam=max(0.0, -slope_sl),
                        lam_ci=_CI_Z * se_sl, **common)
    return DecayFit(DecayClass.INCONCLUSIVE, **common)


@dataclass(frozen=True)
class HypothesisReport:
    """The hypotheses on the law of Y_1 that ``theorem`` states, decided exactly."""

    theorem: str
    satisfied: bool
    violated: tuple[str, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Prediction:
    """Decay class implied by the parameter region and innovation hypotheses."""

    region: Region
    decay_class: DecayClass
    theta: float | None = None
    rate_lower_bound: float | None = None
    rate_upper_bound: float | None = None
    log_corrected_plausible: bool = False
    hypotheses: HypothesisReport | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        hyp = None
        if self.hypotheses is not None:
            hyp = {"theorem": self.hypotheses.theorem,
                   "satisfied": self.hypotheses.satisfied,
                   "violated": list(self.hypotheses.violated),
                   "notes": list(self.hypotheses.notes)}
        return {
            "region": self.region.major,
            "sub": self.region.sub,
            "predicted": self.decay_class.value,
            "theta": self.theta,
            "rate_lower_bound": self.rate_lower_bound,
            "rate_upper_bound": self.rate_upper_bound,
            "log_corrected_plausible": self.log_corrected_plausible,
            "hypotheses": hyp,
            "notes": list(self.notes),
        }


def _rate_upper(a1: float, a2: float, spec: InnovationSpec) -> float | None:
    """-log c from the exponential lower bound, when it applies."""
    try:
        res = exp_lower_bound(ar_params([a1, a2]), spec)
    except (PreconditionError, DegenerateBoundError):
        return None
    return -math.log(res.c)


_CF_DECAYS = "characteristic function -> 0 at infinity"

# hypotheses on the law of Y_1, each decided from the analytic flags without
# sampling.  Two more that the theorems state hold for every catalog law and so
# are never violated: a finite exponential moment E exp(|Y|^a), and the upper
# tail bound P(Y >= t) <= (log t)^(-a) for some a > 1 (no tail is heavier than
# exponential).
_LAW_CHECKS = {
    "mean zero": lambda spec: spec.mean == 0.0,
    "P(Y > 0) > 0": lambda spec: spec.pos_mass,
    "P(Y < 0) > 0": lambda spec: spec.neg_mass,
    # every catalog law with mass below 0 has mass at or below it, and vice
    # versa; the float P(Y <= 0) can underflow to 0 while it is positive
    "P(Y <= 0) > 0": lambda spec: spec.neg_mass,
    _CF_DECAYS: lambda spec: spec.cf_decays,
}

_CF_BOUND_NOTE = ("the stated |cf| <= delta < |root| condition is checked only "
                  "as characteristic-function decay; the delta/|root| "
                  "comparison is ill-posed for |root| > 1 and is not resolved "
                  "here")

# theorem -> the hypotheses it states, in report order, and its notes
_THEOREMS = {
    "polynomial-decay": (("mean zero",), ()),
    "superpolynomial-decay": (("P(Y > 0) > 0", "P(Y <= 0) > 0", _CF_DECAYS), ()),
    "positive-limit": (("P(Y < 0) > 0",), ()),
    "alternating-rate-bound": ((_CF_DECAYS,), (_CF_BOUND_NOTE,)),
}

_NO_UPWARD_MASS = ("no upward mass",)

# region -> theorem whose hypotheses are reported, the class predicted, the
# hypotheses that prediction needs, and the notes added when one of them
# fails.  On E2, all-nonpositive coefficients force Y_k <= 0 along a surviving
# path, so p_N <= P(Y <= 0)^N needs only upward mass; E3 needs the same, and
# the rest of E a law with mass on both sides of 0.
_REGIONS = {
    Region.P: ("polynomial-decay", DecayClass.POLYNOMIAL, ("mean zero",), ()),
    Region.C: ("positive-limit", DecayClass.POSITIVE_LIMIT, ("P(Y < 0) > 0",), ()),
    Region.E1: ("alternating-rate-bound", DecayClass.EXPONENTIAL, (_CF_DECAYS,), ()),
    Region.E2: ("superpolynomial-decay", DecayClass.EXPONENTIAL, ("P(Y > 0) > 0",),
                _NO_UPWARD_MASS),
    Region.E3: ("superpolynomial-decay", DecayClass.EXPONENTIAL, ("P(Y > 0) > 0",),
                _NO_UPWARD_MASS),
    Region.E_OTHER: ("superpolynomial-decay", DecayClass.EXPONENTIAL,
                     ("P(Y > 0) > 0", "P(Y <= 0) > 0"), ()),
}


def _extra(region: Region, a1: float, a2: float, spec: InnovationSpec) -> dict:
    """The Prediction fields of a region whose prediction holds, beyond its class."""
    if region is Region.P:
        # a2 = 1: two interleaved walks; a2 = -1: the integrated walk
        return {"theta": {1.0: 1.0, -1.0: 0.25}.get(a2, 0.5)}
    if region is Region.E1:
        return {"rate_lower_bound": e1_rate_bound(a1, a2)}
    if region is Region.E2:
        if not spec.neg_mass:
            return {"rate_lower_bound": math.inf}
        # below the least normal float P(Y <= 0) loses its digits: the
        # uniform's quotient rounds to a subnormal or to 0, and ndtr returns 0
        # past x = -37.677, where log P < -714.3; the normal floor holds for both
        pnp = spec.prob_nonpositive()
        return {"rate_lower_bound": -math.log(max(pnp, sys.float_info.min))}
    if region is Region.E_OTHER:
        # vanishing weights or the a2 = 1 + a1 strip: general laws only
        # guarantee exp(-c N / log N), which is flagged, not resolved
        centered = spec.kind is Kind.GAUSSIAN and spec.params[0] == 0.0
        return {"log_corrected_plausible": not centered}
    return {}


def predict(a1: float, a2: float, spec: InnovationSpec, x: float) -> Prediction:
    """Predicted decay class for the AR(2) process (a1, a2) at barrier x.

    A pure function of the region and the innovation's analytic flags.
    When the region's rule does not hold for the innovation the prediction
    is INCONCLUSIVE and carries the hypothesis report.  The comparison with
    fitted curves is only claimed for x >= 0; a barrier that is not a real
    number, or is NaN, raises ValueError.
    """
    x = check_barrier(x)
    region = classify_ar2(a1, a2)
    notes = ("predictions are stated for barriers x >= 0",) if x < 0.0 else ()
    theorem, decay_class, needs, fail_notes = _REGIONS[region]
    stated, theorem_notes = _THEOREMS[theorem]
    violated = tuple(name for name in stated if not _LAW_CHECKS[name](spec))
    hyp = HypothesisReport(theorem, not violated, violated, theorem_notes)
    if not all(_LAW_CHECKS[name](spec) for name in needs):
        return Prediction(region, DecayClass.INCONCLUSIVE, hypotheses=hyp,
                          notes=notes + fail_notes)
    extra = _extra(region, a1, a2, spec)
    if decay_class is DecayClass.EXPONENTIAL:
        extra["rate_upper_bound"] = _rate_upper(a1, a2, spec)
    return Prediction(region, decay_class, hypotheses=hyp, notes=notes, **extra)
