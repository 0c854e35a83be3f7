"""Exact survival probabilities.

Two independent routes to p_N(x) that never touch the simulator:

* exact enumeration when Y has finite support (the ground truth every
  Monte Carlo estimate is tested against), run as a dynamic programme over
  the distinct states (X_n, ..., X_{n-p+1}) of the surviving paths, so its
  cost grows with the number of distinct states rather than with the
  |support|^N innovation sequences,
* the bivariate-normal orthant formula for the consecutive-pair bound
  P(X_{n-1} <= 0, X_n <= 0) under centered Gaussian innovations.
"""

from __future__ import annotations

import math

import numpy as np

from .coeffs import ARParams, ar_step, check_barrier, check_int, check_real, coeff_recursion

__all__ = [
    "BudgetExceededError",
    "enumerate_survival",
    "pair_orthant_probability",
    "gaussian_pair_probability",
]

# at most 2^22 candidate states (surviving states x |support|) per step
_BUDGET = 1 << 22


class BudgetExceededError(ValueError):
    """The enumeration would expand too many states in one step."""


def enumerate_survival(params: ARParams, support, x: float, n: int) -> float:
    """Exact p_n(x) = P(X_k <= x, k = 1..n) for finite-support innovations.

    ``support`` is a sequence of (value, probability) pairs with finite
    values whose probabilities must sum to 1 within 1e-12; ``x`` may be
    +-inf but not NaN.

    The frontier after step k is an (m, p) array of the distinct states
    (X_k, ..., X_{k-p+1}) reached without crossing, each with the total
    probability of the sequences reaching it.  A step expands every state by
    every support value, drops candidates with X > x and merges bitwise
    identical rows, summing their masses.  The new value y + a_1 s_1 + ... +
    a_p s_p comes from ``coeffs.ar_step``, the left-to-right float order the
    Monte Carlo engine shares, so every survive/cross decision is the one a
    path-by-path recursion on that path's own state makes.  A value that
    overflows keeps its decision: -inf survives, and +inf crosses unless x
    is +inf.  The result is the correctly rounded ``math.fsum`` of the final
    masses; with dyadic probabilities they are exact while path counts fit
    in 53 bits.

    Raises BudgetExceededError before a step whose candidates (states x
    |support|) would exceed 2^22, which bounds memory; every input with
    |support|^n <= 2^22 stays inside the budget.  Raises ArithmeticError,
    naming the step, when a candidate is NaN (inf - inf once two lags have
    overflowed): the engine counts such a path as non-finite, neither a
    survivor nor a crossing, so p_n has no exact value to give.
    """
    n = check_int(n, "n", lo=0)
    values = np.array([check_real(v, "support value") for v, _ in support])
    probs = np.array([check_real(q, "support probability") for _, q in support])
    if not np.isfinite(values).all():
        raise ValueError(f"support values must be finite, got {values.tolist()}")
    if not (probs >= 0.0).all() or not abs(math.fsum(probs) - 1.0) <= 1e-12:
        raise ValueError("support probabilities must be >= 0 and sum to 1")
    x = check_barrier(x)
    a, p = params.a, params.p
    row = np.dtype((np.void, 8 * p))
    states = np.zeros((1, p))
    mass = np.ones(1)
    for step in range(n):
        if mass.size * values.size > _BUDGET:
            raise BudgetExceededError(
                f"{mass.size} states x {values.size} support values at step "
                f"{step + 1} exceed the {_BUDGET} budget")
        with np.errstate(over="ignore", invalid="ignore"):
            xval = ar_step(a, values, states.T[:, :, None])
        if np.isnan(xval).any():
            raise ArithmeticError(
                f"a candidate state is NaN at step {step + 1}: the process "
                "leaves double precision, and p_n has no exact value")
        rows, cols = np.nonzero(xval <= x)
        nxt = np.empty((rows.size, p))
        nxt[:, 0] = xval[rows, cols]
        nxt[:, 1:] = states[rows, :-1]
        keys, inverse = np.unique(nxt.view(row).ravel(), return_inverse=True)
        states = keys.view(np.float64).reshape(-1, p)
        mass = np.bincount(inverse, weights=mass[rows] * probs[cols])
    return math.fsum(mass.tolist())


def pair_orthant_probability(rho: float) -> float:
    """P(Z1 <= 0, Z2 <= 0) for centered jointly Gaussian Z with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {rho}")
    return (math.pi / 2.0 + math.asin(rho)) / (2.0 * math.pi)


def gaussian_pair_probability(params: ARParams, n: int) -> float:
    """Exact P(X_{n-1} <= 0, X_n <= 0) under centered Gaussian innovations.

    The lag-one correlation comes from the moving-average weights,

        rho_n = sum_{i<n-1} c_i c_{i+1} / sqrt(sum_{i<n-1} c_i^2 * sum_{i<n} c_i^2),

    (the innovation variance cancels), and the probability is
    (pi/2 + arcsin rho_n) / (2 pi).  Since the pair event contains survival
    to n, this is an upper bound on p_n(0).  The weights are first scaled
    by 2^-e, with max|c_i| in [2^(e-1), 2^e), so the sums cannot overflow
    for explosive processes; rho is scale free, and a power of two rounds
    no weight above the subnormal range.  Weights that leave the double
    range, or a correlation outside [-1, 1] by more than 1e-10, signal
    numerical failure and raise ArithmeticError.
    """
    n = check_int(n, "n", lo=2)
    c = coeff_recursion(params, n - 1)
    if not np.isfinite(c).all():
        raise ArithmeticError(f"weights c_i for i < {n} overflow double precision")
    c = np.ldexp(c, -math.frexp(float(np.abs(c).max()))[1])
    num = float(np.dot(c[:-1], c[1:]))
    den = math.sqrt(float(np.dot(c[:-1], c[:-1])) * float(np.dot(c, c)))
    rho = num / den
    if not abs(rho) <= 1.0 + 1e-10:
        raise ArithmeticError(f"correlation {rho} escapes [-1, 1]")
    rho = min(1.0, max(-1.0, rho))
    return pair_orthant_probability(rho)
