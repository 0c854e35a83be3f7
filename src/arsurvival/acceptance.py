"""Acceptance suite: end-to-end checks at desk scale.

Each criterion pins one verifiable consequence of the theory to a concrete
simulation or computation with a fixed seed, so the whole suite is
deterministic.  The suite is the release gate: ``arsurvival verify`` runs
every criterion, each at its one size, and ``--only`` picks among them.
Every criterion takes the worker count for its ``estimate_survival`` calls,
which does not change a number; F1, R1 and G1 make no such call.

    P1  random walk               theta in [0.45, 0.55]
    P2  integrated random walk    theta in [0.18, 0.32]
    P3  two interleaved walks     theta in [0.85, 1.15] + squared identity
    P4  interior of the P line    theta in [0.40, 0.60]
    E1  all-negative coefficients exponential fit + two-sided bounds
    C1  supercritical growth      plateau at a positive level
    O1  MC vs exact enumeration   within 3 sigma in >= 11 of 12 cells
    F1  closed form vs recursion  1e-9 relative over the coefficient grid
    R1  pathwise reductions       zero violations
    G1  Gaussian pair formula     matches MC pair frequency within 3 sigma
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import DecayClass, fit_decay
from .bounds import exp_lower_bound
from .coeffs import ar2_closed_form, ar2_coeffs, ar_params, coeff_recursion
from .innovations import gaussian, rademacher
from .mc import ReductionKind, estimate_survival, pair_survival_frequency, \
    pathwise_reduction_check
from .oracle import enumerate_survival, gaussian_pair_probability, \
    pair_orthant_probability

__all__ = ["CriterionResult", "run_suite", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    details: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.cid:4s} {status}  {self.description}"


def _dyadic(lo: int, hi: int) -> list[int]:
    return [2 ** k for k in range(lo, hi + 1)]


def _theta_fit(a, grid, paths, seed, lo, hi, workers):
    """Fit a Gaussian curve from x = 0: polynomial with theta in [lo, hi] passes."""
    curve = estimate_survival(ar_params(a), gaussian(), 0.0, grid, paths, seed, workers)
    fit = fit_decay(curve)
    ok = fit.decay_class is DecayClass.POLYNOMIAL and fit.theta is not None \
        and lo <= fit.theta <= hi
    theta = fit.theta if fit.theta is not None else float("nan")
    detail = (f"class={fit.decay_class.value} theta={theta:.4f} "
              f"target=[{lo}, {hi}] paths={paths}")
    return curve, fit, ok, detail


def _theta_criterion(cid, desc, a, grid, paths, seed, lo, hi):
    def run(workers: int = 1) -> CriterionResult:
        _, fit, ok, detail = _theta_fit(a, grid, paths, seed, lo, hi, workers)
        return CriterionResult(
            cid, desc, ok, details=[detail],
            metrics={"theta": fit.theta, "class": fit.decay_class.value,
                     "r2_loglog": fit.r2_loglog, "r2_semilog": fit.r2_semilog})
    return run


criterion_p1 = _theta_criterion(
    "P1", "random walk decays like N^-1/2", [1.0, 0.0], _dyadic(4, 13),
    100_000, 101, 0.45, 0.55)

criterion_p2 = _theta_criterion(
    "P2", "integrated random walk decays like N^-1/4", [2.0, -1.0],
    _dyadic(4, 12), 100_000, 102, 0.18, 0.32)

criterion_p4 = _theta_criterion(
    "P4", "interior P-line point decays like N^-1/2", [0.5, 0.5],
    _dyadic(4, 13), 100_000, 104, 0.40, 0.60)


def criterion_p3(workers: int = 1) -> CriterionResult:
    """Two interleaved walks: theta near 1 plus the exact squared identity."""
    paths, top = 200_000, 12
    curve, fit, ok_theta, detail = _theta_fit([0.0, 1.0], _dyadic(4, top), paths,
                                              103, 0.85, 1.15, workers)
    details = [detail]

    # p_hat(2N) must match the squared one-walk estimate at N
    half = 2 ** (top - 1)
    walk = estimate_survival(ar_params([1.0]), gaussian(), 0.0, [half],
                             paths, 1031, workers)
    p2n = float(curve.p_hat[-1])
    q, qse = float(walk.p_hat[0]), float(walk.stderr[0])
    comb = math.hypot(float(curve.stderr[-1]), 2.0 * q * qse)
    ok_square = abs(p2n - q * q) <= 3.0 * comb
    details.append(f"p({2 * half})={p2n:.5g} vs squared={q * q:.5g} "
                   f"(3*comb={3 * comb:.2g})")

    # and exactly, via enumeration, for sign innovations
    worst = 0.0
    signs = rademacher().atoms()
    for n in range(1, 11):
        both = enumerate_survival(ar_params([0.0, 1.0]), signs, 0.0, 2 * n)
        one = enumerate_survival(ar_params([1.0]), signs, 0.0, n)
        worst = max(worst, abs(both - one * one))
    ok_exact = worst <= 1e-12
    details.append(f"enumeration identity max |diff| = {worst:.2e} (tol 1e-12)")

    return CriterionResult(
        "P3", "two interleaved walks: N^-1 decay and squared identity",
        ok_theta and ok_square and ok_exact, details,
        metrics={"theta": fit.theta, "p_2n": p2n, "squared": q * q,
                 "enum_max_diff": worst})


def criterion_e1(workers: int = 1) -> CriterionResult:
    """All-negative coefficients: exponential decay between the two bounds."""
    paths = 1_000_000
    params = ar_params([-0.4, -0.4])
    spec = gaussian()
    curve = estimate_survival(params, spec, 0.0, list(range(1, 41)), paths, 105, workers)
    fit = fit_decay(curve)
    details = [f"class={fit.decay_class.value} "
               f"lambda={fit.lam if fit.lam is not None else float('nan'):.4f} "
               f"usable={fit.n_usable} censored={fit.n_censored}"]
    ok_class = fit.decay_class is DecayClass.EXPONENTIAL

    bound = exp_lower_bound(params, spec)
    lower_ok = True
    upper_ok = True
    pnp = spec.prob_nonpositive()
    for i, n in enumerate(curve.grid):
        n = int(n)
        phat = float(curve.p_hat[i])
        se = float(curve.stderr[i])
        if not curve.zero_flag[i] and phat < bound.c ** n - 3.0 * se:
            lower_ok = False
        if phat > pnp ** n + 3.0 * se:
            upper_ok = False
    details.append(f"lower bound c={bound.c:.5f} ({bound.method.value}): "
                   f"{'holds' if lower_ok else 'violated'}")
    details.append(f"upper bound P(Y<=0)^N = {pnp}^N: "
                   f"{'holds' if upper_ok else 'violated'}")
    return CriterionResult(
        "E1", "exponential decay for all-negative coefficients",
        ok_class and lower_ok and upper_ok, details,
        metrics={"class": fit.decay_class.value, "lambda": fit.lam,
                 "c": bound.c, "paths": paths})


def criterion_c1(workers: int = 1) -> CriterionResult:
    """Supercritical region: the survival curve plateaus at a positive level."""
    paths = 100_000
    curve = estimate_survival(ar_params([1.0, 1.0]), gaussian(), 0.0,
                              _dyadic(4, 10), paths, 106, workers)
    fit = fit_decay(curve)
    ok_class = fit.decay_class is DecayClass.POSITIVE_LIMIT
    p_last, p_prev = float(curve.p_hat[-1]), float(curve.p_hat[-2])
    comb = math.hypot(float(curve.stderr[-1]), float(curve.stderr[-2]))
    ok_tail = abs(p_last - p_prev) < 2.0 * comb and p_last > 0.0 and p_prev > 0.0
    p_inf = fit.p_inf if fit.p_inf is not None else float("nan")
    return CriterionResult(
        "C1", "positive limit for supercritical coefficients",
        ok_class and ok_tail,
        details=[f"class={fit.decay_class.value} p_inf={p_inf:.4f} "
                 f"plateau_stat={fit.plateau_stat:.2f}",
                 f"last two: {p_prev:.4f} vs {p_last:.4f} (2*comb={2 * comb:.4f})"],
        metrics={"class": fit.decay_class.value, "p_inf": fit.p_inf})


def criterion_o1(workers: int = 1) -> CriterionResult:
    """MC agrees with the exact oracle in at least 11 of 12 cells."""
    paths = 1_000_000
    cases = ([1.0, 0.0], [2.0, -1.0], [0.5, 0.5], [-0.4, -0.4])
    horizons = [4, 8, 12]
    hits = 0
    details = []
    for i, a in enumerate(cases):
        params = ar_params(a)
        curve = estimate_survival(params, rademacher(), 0.0, horizons, paths,
                                  107 + i, workers)
        for j, n in enumerate(horizons):
            exact = enumerate_survival(params, rademacher().atoms(), 0.0, n)
            err = abs(float(curve.p_hat[j]) - exact)
            tol = 3.0 * float(curve.stderr[j])
            ok = err <= tol
            hits += ok
            details.append(f"a={a} N={n}: |{float(curve.p_hat[j]):.6f} - "
                           f"{exact:.6f}| = {err:.2e} {'<=' if ok else '>'} {tol:.2e}")
    return CriterionResult(
        "O1", "Monte Carlo within 3 sigma of exact enumeration (>= 11/12)",
        hits >= 11, details, metrics={"cells_ok": hits, "paths": paths})


_EPS = 2.0 ** -52


def coefficient_grid_discrepancy(n_max: int = 200, grid_points: int = 41):
    """Worst closed-form vs recursion discrepancy over the coefficient grid.

    Compares |ar2_coeffs - coeff_recursion| <= 1e-9 * max(1, |c_n|) for all
    n <= n_max, skipping indices where |c_n| > 1e12.  On the oscillatory
    branch an index is also skipped when the recursion's own rounding bound,
    envelope * (n+1) * eps with envelope = |a2|^(n/2), exceeds the demanded
    tolerance: at such indices the true coefficient can be an exact zero deep
    inside the envelope, the double-precision recursion returns pure rounding
    residue there, and no evaluation of the closed form could (or should)
    match that residue.  Returns (worst relative error, values checked).
    """
    worst = 0.0
    checked = 0
    index = np.arange(n_max + 1)
    for a1 in np.linspace(-3.0, 3.0, grid_points):
        for a2 in np.linspace(-3.0, 3.0, grid_points):
            ref = coeff_recursion(ar_params([a1, a2]), n_max)
            sol = ar2_closed_form(a1, a2)
            scale = np.maximum(1.0, np.abs(ref))
            skip = np.abs(ref) > 1e12
            if sol.modulus is not None:
                env = np.full(n_max + 1, sol.modulus)
                env[0] = 1.0
                env = np.cumprod(env)       # |a2|^(n/2) as 1 * m * m * ..., in order
                skip |= env * (index + 1) * _EPS > 1e-9 * scale
            kept = np.flatnonzero(~skip)
            if kept.size == 0:
                continue
            last = int(kept[-1])
            err = np.abs(ar2_coeffs(sol, last)[kept] - ref[kept]) / scale[kept]
            worst = max(worst, float(err.max()))
            checked += kept.size
    return worst, checked


def criterion_f1(workers: int = 1) -> CriterionResult:
    """Closed forms agree with the recursion across the coefficient grid."""
    n_max, grid_points = 200, 41
    worst, checked = coefficient_grid_discrepancy(n_max, grid_points)
    skipped = grid_points ** 2 * (n_max + 1) - checked
    ok = worst <= 1e-9
    return CriterionResult(
        "F1", "closed-form coefficients match the recursion on the grid", ok,
        details=[f"max relative error {worst:.2e} over {checked} values (tol 1e-9)",
                 f"skipped {skipped} values (|c_n| > 1e12 or below the "
                 f"recursion's rounding)"],
        metrics={"max_rel_err": worst, "values": checked, "skipped": skipped})


def criterion_r1(workers: int = 1) -> CriterionResult:
    """Pathwise process transforms hold exactly on shared innovations."""
    paths, n_max, seed = 1000, 1000, 109
    spec = gaussian()
    checks = [
        (ar_params([-0.5, 0.5]), ReductionKind.PAIR_SUM),
        (ar_params([0.5, 0.25]), ReductionKind.ROOT_SHIFT),
        (ar_params([0.5, 0.5]), ReductionKind.WALK_SUM),
        (ar_params([0.5]), ReductionKind.INTEGRATED),
        (ar_params([0.5, 0.25]), ReductionKind.INTEGRATED),
    ]
    details = []
    total = 0
    for params, kind in checks:
        rep = pathwise_reduction_check(params, spec, kind, paths, n_max, seed)
        total += rep.violations
        extra = f" rho={rep.rho:.4f}" if rep.rho is not None else ""
        details.append(f"{kind.value} a={params.a}: violations={rep.violations} "
                       f"max_rel_err={rep.max_rel_err:.2e}{extra}")
    return CriterionResult(
        "R1", "pathwise reduction identities hold with 0 violations",
        total == 0, details, metrics={"violations": total})


def criterion_g1(workers: int = 1) -> CriterionResult:
    """Arcsine pair formula matches the MC pair frequency; rho=0 gives 1/4."""
    paths = 1_000_000
    params = ar_params([0.5, 0.25])
    exact = gaussian_pair_probability(params, 6)
    freq, se = pair_survival_frequency(params, gaussian(), 6, paths, 110)
    err = abs(freq - exact)
    ok_mc = err <= 3.0 * se
    ok_quarter = pair_orthant_probability(0.0) == 0.25
    return CriterionResult(
        "G1", "Gaussian pair probability formula agrees with MC", ok_mc and ok_quarter,
        details=[f"formula={exact:.6f} mc={freq:.6f} |diff|={err:.2e} 3*se={3 * se:.2e}",
                 f"orthant(rho=0) == 1/4: {ok_quarter}"],
        metrics={"exact": exact, "mc": freq, "stderr": se})


CRITERIA = {
    "P1": criterion_p1,
    "P2": criterion_p2,
    "P3": criterion_p3,
    "P4": criterion_p4,
    "E1": criterion_e1,
    "C1": criterion_c1,
    "O1": criterion_o1,
    "F1": criterion_f1,
    "R1": criterion_r1,
    "G1": criterion_g1,
}

def run_suite(only: list[str] | None = None, workers: int = 1) -> list[CriterionResult]:
    """Run every criterion, or only the named ones, in registry order, each
    simulating with ``workers`` processes."""
    cids = list(CRITERIA)
    if only:
        unknown = sorted(set(only) - set(CRITERIA))
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
        cids = [c for c in CRITERIA if c in only]
    return [CRITERIA[cid](workers) for cid in cids]
