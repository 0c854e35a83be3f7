"""Moving-average coefficients of AR(p) processes.

An AR(p) process X_n = a_1 X_{n-1} + ... + a_p X_{n-p} + Y_n (with X_n = 0
for n <= 0) expands as X_n = sum_{k=1..n} c_{n-k} Y_k, where the weights
solve the linear difference equation

    c_0 = 1,   c_n = 0 (n < 0),   c_n = a_1 c_{n-1} + ... + a_p c_{n-p}.

This module computes (c_n) by direct recursion for any order, provides the
closed forms for p = 2 in terms of the characteristic roots

    s_1 = (a_1 + h)/2,   s_2 = (a_1 - h)/2,   h = sqrt(a_1^2 + 4 a_2),

and classifies the limiting behaviour of (c_n).

It also owns the package's rule for input numbers, since every other
module imports it: ``check_int`` for counts, seeds and horizons,
``check_real`` for coefficients and law parameters, and ``check_barrier``
for the barrier x.  Each entry point passes its numbers through them, so
a bool, a string or a fraction where an integer belongs raises the same
ValueError, naming the field, wherever it is given.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "ARParams",
    "ar_params",
    "Branch",
    "CoeffSolution",
    "LimitKind",
    "CoeffLimit",
    "CoeffOverflowError",
    "ar_step",
    "coeff_recursion",
    "ar2_closed_form",
    "ar2_coeffs",
    "coeff_limit_class",
]

# relative threshold on the discriminant below which the double-root form is
# used; nearer than this the two-root form is numerically meaningless
_DOUBLE_ROOT_RTOL = 1e-12


def check_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer, Python or numpy, that is not a bool and lies in [lo, hi] where given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = (f">= {lo}" if hi is None else f"<= {hi}" if lo is None
                else f"in [{lo}, {hi}]")
        raise ValueError(f"{name} must be {span}")
    return value


def check_real(value, name: str) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a real
    number, Python or numpy, that is not a bool and fits in float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within float range") from None


def check_barrier(x) -> float:
    """The barrier as a float: ``check_real``, and not NaN; +-inf is allowed."""
    x = check_real(x, "barrier x")
    if math.isnan(x):
        raise ValueError("barrier x must not be NaN")
    return x


class CoeffOverflowError(ArithmeticError):
    """A coefficient value exceeds the double-precision range."""


@dataclass(frozen=True)
class ARParams:
    """Order and coefficient vector (a_1, ..., a_p) of an AR(p) process.

    Takes any sequence of real numbers and checks every entry, then drops
    trailing zero coefficients: zero lags do not change the process, so a
    random walk written (1, 0) is the model (1,).  At least one coefficient
    stays, and every coefficient must be finite.
    """

    a: tuple[float, ...]

    def __post_init__(self):
        a = [check_real(v, "a") for v in self.a]
        while len(a) > 1 and a[-1] == 0.0:
            a.pop()
        object.__setattr__(self, "a", tuple(a))
        if len(a) < 1:
            raise ValueError("need at least one coefficient")
        if not all(math.isfinite(v) for v in a):
            raise ValueError(f"coefficients must be finite, got {tuple(a)}")

    @property
    def p(self) -> int:
        return len(self.a)


# the constructor's older name, kept for the callers that build models with it
ar_params = ARParams


class Branch(Enum):
    DISTINCT_REAL = "distinct_real"
    DOUBLE_ROOT = "double_root"
    COMPLEX_PAIR = "complex_pair"


@dataclass(frozen=True)
class CoeffSolution:
    """Closed-form description of (c_n) for an AR(2) process.

    For DISTINCT_REAL / COMPLEX_PAIR, c_n = (s1^(n+1) - s2^(n+1)) / h.
    For DOUBLE_ROOT, c_n = (a1/2)^n (n + 1).
    On the COMPLEX_PAIR branch h = i h_tilde with h_tilde = sqrt(-(a1^2 + 4 a2)),
    and ``modulus`` is the common root modulus sqrt(|a2|); it is None on the
    real branches.
    """

    a1: float
    a2: float
    branch: Branch
    s1: complex
    s2: complex
    h: complex
    modulus: float | None = None


def ar_step(a, y, state, out=None):
    """One AR step: y + a[0]*state[0] + ... + a[p-1]*state[p-1], left to right.

    state[k] holds X_{n-1-k}.  Works on floats and on broadcastable arrays;
    the later terms must broadcast to the shape of y + a[0]*state[0].  The
    sum goes into ``out`` when given, by the same float operations in the
    same order.  Every recursion in the package steps through here, so all
    of them make the same survive/cross decision when a lattice path hits
    the barrier exactly.
    """
    acc = y + a[0] * state[0] if out is None else np.add(y, a[0] * state[0], out=out)
    for k in range(1, len(a)):
        acc += a[k] * state[k]      # in place on the fresh sum: no new array
    return acc


def coeff_recursion(params: ARParams, n_max: int) -> np.ndarray:
    """c_0 .. c_{n_max} by direct recursion in double precision.

    The impulse response of ar_step: y = 0 and the state starts at
    (c_0, c_{-1}, ...) = (1, 0, ...).
    """
    n_max = check_int(n_max, "n_max", lo=0)
    p = params.p
    # p - 1 zero lags ahead of c_0; c[:-p - 1:-1] lists the last p values, newest first
    c = [0.0] * (p - 1) + [1.0]
    for _ in range(n_max):
        c.append(ar_step(params.a, 0.0, c[:-p - 1:-1]))
    return np.array(c[p - 1:])


def ar2_discriminant(a1: float, a2: float) -> tuple[float, int]:
    """(a1^2 + 4 a2) / 4^k and k, the discriminant in a scale that cannot
    overflow.

    Where max(|a1|, sqrt|a2|) >= 2^500 it is formed from a1 / 2^k and
    a2 / 4^k; a power of two scales exactly, and below 2^500 k = 0.  Its
    sign is the discriminant's, also where a1 * a1 + 4 a2 unscaled would
    overflow to inf - inf = NaN.
    """
    k = max(0, math.frexp(max(abs(a1), math.sqrt(abs(a2))))[1] - 500)
    b1 = math.ldexp(a1, -k)
    return b1 * b1 + 4.0 * math.ldexp(a2, -2 * k), k


def ar2_closed_form(a1: float, a2: float) -> CoeffSolution:
    """Solve the order-2 difference equation for (c_n).

    The branch is picked from the discriminant a1^2 + 4 a2, in the scale of
    ``ar2_discriminant``: positive gives two real roots, negative a
    conjugate pair, and anything within 1e-12 * max(1, a1^2) of zero is
    treated as a double root.  Where a1 +- h cancels more than 26 bits
    (a2 tiny against a1^2), the smaller real root is -a2 over the larger.
    """
    a1 = check_real(a1, "a1")
    a2 = check_real(a2, "a2")
    disc, k = ar2_discriminant(a1, a2)
    b1, b2 = math.ldexp(a1, -k), math.ldexp(a2, -2 * k)
    if abs(disc) <= _DOUBLE_ROOT_RTOL * max(math.ldexp(1.0, -2 * k), b1 * b1):
        s = a1 / 2.0
        return CoeffSolution(a1, a2, Branch.DOUBLE_ROOT,
                             complex(s), complex(s), complex(0.0))
    if disc > 0.0:
        h = math.sqrt(disc)
        s1, s2 = (b1 + h) / 2.0, (b1 - h) / 2.0
        if b2 != 0.0 and b1 * b1 > 2.0 ** 27 * abs(b2):
            if b1 < 0.0:
                s1 = -b2 / s2
            else:
                s2 = -b2 / s1
        return CoeffSolution(a1, a2, Branch.DISTINCT_REAL,
                             complex(math.ldexp(s1, k)), complex(math.ldexp(s2, k)),
                             complex(math.ldexp(h, k)))
    h_tilde = math.ldexp(math.sqrt(-disc), k)
    s1 = complex(a1 / 2.0, h_tilde / 2.0)
    return CoeffSolution(a1, a2, Branch.COMPLEX_PAIR, s1, s1.conjugate(),
                         complex(0.0, h_tilde), modulus=math.sqrt(abs(a2)))


def _complex_pair_coeffs(sol: CoeffSolution, n_max: int) -> list[float]:
    """c_0 .. c_{n_max} on the COMPLEX_PAIR branch, in integer arithmetic.

    On this branch (s1^(n+1) - s2^(n+1)) / h = Re(s1^n) + (a1/h_tilde) Im(s1^n).
    s1 = (a1 + i h_tilde)/2 is held as (zr + i zi) 2^-k with `bits` bits,
    h_tilde from math.isqrt of the exact dyadic h_tilde^2 = -(a1^2 + 4 a2);
    s1^n = (wr + i wi) 2^e is advanced by one integer complex product per
    step and cut back to `bits` bits.  Each truncation costs about 2^-bits
    of the envelope |a2|^(n/2), so the bits carry 25 digits plus the digits
    of n_max lost to n_max truncations, plus guard bits.  Each value is one
    correctly rounded integer division, c_n = (zi wr + zr wi) 2^e / zi.
    """
    bits = 10 * (25 + len(str(n_max)) + 1) // 3 + 8
    a1 = Fraction(sol.a1)
    h_sq = -(a1 * a1 + 4 * Fraction(sol.a2))
    k = bits - math.frexp(sol.modulus)[1]      # |s1| 2^k in [2^(bits-1), 2^bits)
    zr = math.floor(a1 * Fraction(2) ** (k - 1))
    zi = math.isqrt(math.floor(h_sq * Fraction(4) ** (k - 1)))
    wr, wi, e = 1, 0, 0
    out = []
    for _ in range(n_max + 1):
        num = zi * wr + zr * wi
        out.append((num << e) / zi if e >= 0 else num / (zi << -e))
        wr, wi = wr * zr - wi * zi, wr * zi + wi * zr
        e -= k
        cut = max(abs(wr), abs(wi)).bit_length() - bits
        if cut > 0:
            wr >>= cut
            wi >>= cut
            e += cut
    return out


def ar2_coeffs(sol: CoeffSolution, n_max: int) -> np.ndarray:
    """c_0 .. c_{n_max} from the closed form, in one pass.

    Raises CoeffOverflowError instead of returning an IEEE infinity when a
    value leaves the double range, so callers never see non-finite numbers.
    The real branches take scalar Python powers per index: a1 = 0 gives
    s2 = -s1, and (-s)**m == s**m exactly for even m, so the odd-index
    zeros the recursion keeps come out exact (np.power does not keep them).
    The oscillatory branch is evaluated in integer arithmetic: double
    precision trig cannot reproduce the resonance zeros (angle a rational
    multiple of pi) that the recursion keeps exactly.
    """
    n_max = check_int(n_max, "n_max", lo=0)
    try:
        if sol.branch is Branch.DOUBLE_ROOT:
            s = sol.a1 / 2.0
            vals = [s ** n * (n + 1) for n in range(n_max + 1)]
        elif sol.branch is Branch.DISTINCT_REAL:
            s1 = sol.s1.real
            s2 = sol.s2.real
            h = sol.h.real
            vals = [(s1 ** (n + 1) - s2 ** (n + 1)) / h for n in range(n_max + 1)]
        else:
            vals = _complex_pair_coeffs(sol, n_max)
    except OverflowError as exc:
        raise CoeffOverflowError(f"c_n for n <= {n_max} overflows double precision") \
            from exc
    out = np.array(vals)
    if not np.isfinite(out).all():
        raise CoeffOverflowError(f"c_n for n <= {n_max} overflows double precision")
    return out


class LimitKind(Enum):
    TO_ZERO = "to_zero"
    CONVERGES_NONZERO = "converges_nonzero"
    DIVERGES = "diverges"


@dataclass(frozen=True)
class CoeffLimit:
    kind: LimitKind
    limit: float | None = None


def coeff_limit_class(a1: float, a2: float) -> CoeffLimit:
    """Limiting behaviour of (c_n) for an AR(2) process.

    c_n -> 0 exactly when a1 + a2 < 1, a2 < 1 + a1 and a2 > -1 (all strict);
    c_n -> 1/(1 + a2) != 0 exactly when a1 + a2 = 1 with |a2| < 1.  Everything
    else neither vanishes nor converges to a nonzero constant and is reported
    as DIVERGES (this includes bounded oscillation, e.g. a1 = 0, a2 = 1).

    Comparisons are exact: the convergent-to-nonzero case lives on a line,
    and fuzzing would misclassify it everywhere.
    """
    a1 = check_real(a1, "a1")
    a2 = check_real(a2, "a2")
    if a1 + a2 < 1.0 and a2 < 1.0 + a1 and a2 > -1.0:
        return CoeffLimit(LimitKind.TO_ZERO)
    if a1 + a2 == 1.0 and abs(a2) < 1.0:
        return CoeffLimit(LimitKind.CONVERGES_NONZERO, 1.0 / (1.0 + a2))
    return CoeffLimit(LimitKind.DIVERGES)
