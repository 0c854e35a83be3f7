import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arsurvival.asymptotics import predict
from arsurvival.coeffs import (ARParams, Branch, CoeffOverflowError, LimitKind,
                               ar2_closed_form, ar2_coeffs, ar_params, ar_step,
                               check_barrier, check_int, check_real,
                               coeff_limit_class, coeff_recursion)
from arsurvival.innovations import gaussian, rademacher, two_point, uniform
from arsurvival.mc import estimate_survival
from arsurvival.oracle import enumerate_survival, gaussian_pair_probability


def test_recursion_hand_unrolled_cases():
    # integrated walk: weights count up
    assert coeff_recursion(ar_params([2, -1]), 4).tolist() == [1, 2, 3, 4, 5]
    # random walk: constant weights
    assert coeff_recursion(ar_params([1, 0]), 3).tolist() == [1, 1, 1, 1]
    # pure alternation c_n = -c_{n-2}
    assert coeff_recursion(ar_params([0, -1]), 4).tolist() == [1, 0, -1, 0, 1]


def test_ar_step_adds_left_to_right():
    # (1 + 1e16) + -1e16 is 0 in doubles; any other order would give 1
    assert ar_step((1.0, -1.0), 1.0, (1e16, 1e16)) == 0.0
    assert ar_step((0.5,), 2.0, [4.0]) == 4.0
    # arrays broadcast: 2 states x 3 innovations
    y = np.array([-1.0, 0.0, 1.0])
    state = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    out = ar_step((2.0, -1.0), y, state)
    assert out.shape == (2, 3)
    assert out.tolist() == [[-2.0, -1.0, 0.0], [-1.0, 0.0, 1.0]]


def test_recursion_matches_manual_order3():
    a = (0.3, -0.2, 0.5)
    c = coeff_recursion(ARParams(a), 6)
    manual = [1.0]
    for n in range(1, 7):
        manual.append(sum(a[k - 1] * manual[n - k] for k in range(1, 4) if n - k >= 0))
    assert np.allclose(c, manual, rtol=0, atol=0)


def test_ar_params_validation():
    # one constructor: trailing zeros are dropped, so (1, 0) is the walk (1,)
    assert ar_params is ARParams
    assert ARParams((1.0, 0.0)) == ARParams((1.0,))
    assert ARParams([0.5, 0.0, 0.0]).a == (0.5,)
    with pytest.raises(ValueError):
        ARParams(())
    with pytest.raises(ValueError):
        ARParams((math.inf,))
    assert ar_params([1, 0]).a == (1.0,)
    assert ar_params([0]).a == (0.0,)
    assert ar_params([0.5, 0.25]).p == 2


def test_closed_form_branches():
    double = ar2_closed_form(2, -1)
    assert double.branch is Branch.DOUBLE_ROOT
    assert double.s1 == double.s2 == 1.0

    osc = ar2_closed_form(0, -1)
    assert osc.branch is Branch.COMPLEX_PAIR
    assert osc.modulus == 1.0
    assert osc.s1 == complex(0, 0.5 * math.sqrt(4.0))  # roots +-i
    assert osc.s1.conjugate() == osc.s2

    real = ar2_closed_form(1, 0)
    assert real.branch is Branch.DISTINCT_REAL
    assert (real.s1, real.s2, real.h) == (1.0, 0.0, 1.0)


def test_closed_form_roots_without_overflow_or_cancellation():
    # a1^2 + 4 a2 overflows at the first two points; it used to be read as a
    # double root s1 = s2 = a1 / 2
    for a1, a2, s1, s2 in [(-1e300, 0.5, 5e-301, -1e300), (-1e200, 1e300, 1e100, -1e200),
                           # a1 - h cancels to 0 in the plain formula
                           (1e9, -1.0, 1e9, 1e-9), (1.0, 1e-20, 1.0, -1e-20)]:
        sol = ar2_closed_form(a1, a2)
        assert sol.branch is Branch.DISTINCT_REAL
        assert sol.s1.real == pytest.approx(s1, rel=1e-14)
        assert sol.s2.real == pytest.approx(s2, rel=1e-14)
        assert sol.h.real == pytest.approx(s1 - s2, rel=1e-14)


def test_complex_pair_modulus_is_root_modulus():
    sol = ar2_closed_form(0.8, -0.9)
    assert abs(sol.s1) == pytest.approx(math.sqrt(0.9), rel=1e-14)
    assert sol.modulus == pytest.approx(math.sqrt(0.9), rel=1e-14)


def test_coeff_at_examples():
    assert ar2_coeffs(ar2_closed_form(2, -1), 10)[10] == pytest.approx(11.0, rel=1e-12)
    assert ar2_coeffs(ar2_closed_form(0, -1), 2)[2] == pytest.approx(-1.0, rel=1e-12)
    assert ar2_coeffs(ar2_closed_form(1, 0), 50)[50] == pytest.approx(1.0, rel=1e-12)


def test_coeff_at_overflow_reported():
    with pytest.raises(CoeffOverflowError):
        ar2_coeffs(ar2_closed_form(3.0, 1.0), 3000)[3000]
    with pytest.raises(CoeffOverflowError):
        ar2_coeffs(ar2_closed_form(4.0, -4.0), 2000)[2000]   # double root at 2
    with pytest.raises(CoeffOverflowError):
        ar2_coeffs(ar2_closed_form(0.0, -3.0), 1300)[1300]   # 3^650 on the complex branch
    assert ar2_coeffs(ar2_closed_form(0.0, -3.0), 1200)[1200] == float(3 ** 600)
    # the double root's s^2 is finite but 3 s^2 is not: no OverflowError comes
    # first, and the final check on the values reports it
    with pytest.raises(CoeffOverflowError) as info:
        ar2_coeffs(ar2_closed_form(2e154, -1e308), 2)
    assert info.value.__cause__ is None
    with pytest.raises(ValueError):
        ar2_coeffs(ar2_closed_form(1.0, 0.0), -1)[-1]


def exact_coeffs(a1: float, a2: float, n_max: int) -> list[float]:
    """c_0 .. c_{n_max} by the recursion in exact dyadic arithmetic, each
    correctly rounded: c_n = u_n / 2^(d n) with integer u_n."""
    d = max(Fraction(a1).denominator, Fraction(a2).denominator).bit_length() - 1
    b1, b2 = int(Fraction(a1) * 2 ** d), int(Fraction(a2) * 4 ** d)
    prev, cur, out = 0, 1, []
    for n in range(n_max + 1):
        out.append(cur / (1 << (d * n)))
        prev, cur = cur, b1 * cur + b2 * prev
    return out


def test_complex_pair_matches_exact_coefficients():
    n_max = 200
    grid = [(a1, a2) for a1 in np.linspace(-3, 3, 41) for a2 in np.linspace(-3, 3, 41)]
    for a1, a2 in grid + [(0.5, -0.5), (-1.0, -0.75)]:
        sol = ar2_closed_form(a1, a2)
        if sol.branch is not Branch.COMPLEX_PAIR:
            continue
        got = ar2_coeffs(sol, n_max)
        ref = np.array(exact_coeffs(float(a1), float(a2), n_max))
        # a true zero (angle a rational multiple of pi) is resolved to the
        # 25 digits the closed form carries; every other value to 2 ulp
        zero = ref == 0.0
        env = sol.modulus ** np.arange(n_max + 1)
        assert (np.abs(got[zero]) <= 1e-25 * env[zero]).all(), (a1, a2)
        assert (np.abs(got - ref)[~zero] <= 2 * np.spacing(np.abs(ref[~zero]))).all(), \
            (a1, a2)


def test_odd_coefficients_vanish_exactly():
    # a1 = 0: c_n = a2 c_{n-2}, so every odd c_n is 0 on both branches
    for a2, branch in [(3.0, Branch.DISTINCT_REAL), (-1.0, Branch.COMPLEX_PAIR)]:
        sol = ar2_closed_form(0.0, a2)
        assert sol.branch is branch
        assert (ar2_coeffs(sol, 201)[1::2] == 0.0).all()


def test_roots_match_closed_form_on_grid():
    for a1 in np.linspace(-3, 3, 41):
        for a2 in np.linspace(-3, 3, 41):
            if a2 == 0.0:
                continue
            sol = ar2_closed_form(a1, a2)
            expect = sorted([sol.s1, sol.s2], key=lambda z: (z.real, z.imag))
            got = sorted(np.roots([1.0, -a1, -a2]), key=lambda z: (z.real, z.imag))
            assert max(abs(got[0] - expect[0]), abs(got[1] - expect[1])) <= 1e-10


def test_limit_class_examples():
    assert coeff_limit_class(0.5, 0.25).kind is LimitKind.TO_ZERO
    lim = coeff_limit_class(0.5, 0.5)
    assert lim.kind is LimitKind.CONVERGES_NONZERO
    assert lim.limit == pytest.approx(2.0 / 3.0)
    assert coeff_limit_class(2, -1).kind is LimitKind.DIVERGES
    assert coeff_limit_class(0, 1).kind is LimitKind.DIVERGES    # bounded oscillation
    assert coeff_limit_class(1, 0).limit == pytest.approx(1.0)


def test_limit_class_matches_root_moduli_on_grid():
    for a1 in np.linspace(-3, 3, 41):
        for a2 in np.linspace(-3, 3, 41):
            sol = ar2_closed_form(a1, a2)
            top = max(abs(sol.s1), abs(sol.s2))
            if abs(top - 1.0) <= 1e-9:
                continue
            to_zero = coeff_limit_class(a1, a2).kind is LimitKind.TO_ZERO
            assert to_zero == (top < 1.0), (a1, a2, top)


def test_limit_class_limit_is_actual_limit():
    for a1, a2 in [(0.5, 0.5), (1.2, -0.2), (0.1, 0.9)]:
        lim = coeff_limit_class(a1, a2)
        assert lim.kind is LimitKind.CONVERGES_NONZERO
        c = coeff_recursion(ar_params([a1, a2]), 400)
        assert c[-1] == pytest.approx(lim.limit, rel=1e-6)


@settings(max_examples=150, deadline=None)
@given(a1=st.floats(-2.5, 2.5), a2=st.floats(-1.5, 1.5), n=st.integers(0, 40))
def test_closed_form_matches_recursion_random(a1, a2, n):
    c = coeff_recursion(ar_params([a1, a2]), n)
    val = ar2_coeffs(ar2_closed_form(a1, a2), n)[n]
    assert abs(val - c[n]) <= 1e-9 * max(1.0, abs(c[n]))


def test_number_rule():
    # Python and numpy numbers pass, as Python ints and floats
    assert check_int(np.int64(5), "n", 0, 5) == 5 and type(check_int(np.uint8(3), "n")) is int
    assert check_real(np.float32(0.5), "a") == 0.5 and check_real(Fraction(1, 4), "a") == 0.25
    assert check_barrier(-math.inf) == -math.inf
    for value in (True, np.bool_(False), 2.0, "2"):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_int(value, "n")
    with pytest.raises(ValueError, match="n must be >= 0"):
        check_int(-1, "n", lo=0)
    with pytest.raises(ValueError, match="n must be <= 5"):
        check_int(6, "n", hi=5)
    with pytest.raises(ValueError, match=r"n must be in \[0, 5\]"):
        check_int(6, "n", 0, 5)
    for value in (True, np.bool_(True), "0.5", None, 1j):
        with pytest.raises(ValueError, match="a must be a number"):
            check_real(value, "a")
    with pytest.raises(ValueError, match="a must be within float range"):
        check_real(10 ** 400, "a")
    with pytest.raises(ValueError, match="barrier x must not be NaN"):
        check_barrier(math.nan)


_RW, _SIGNS = ar_params([1.0]), rademacher().atoms()


@pytest.mark.parametrize("field,call,values", [
    ("workers", lambda v: estimate_survival(_RW, rademacher(), 0.0, [4], 10, 1, workers=v),
     (1.5, True, "2")),
    ("n", lambda v: enumerate_survival(_RW, _SIGNS, 0.0, v), (2.5, True)),
    ("n", lambda v: gaussian_pair_probability(_RW, v), (2.5, True)),
    ("n_max", lambda v: coeff_recursion(_RW, v), (2.5, True)),
    ("n_max", lambda v: ar2_coeffs(ar2_closed_form(0.5, 0.25), v), (2.5, True)),
    ("a", lambda v: ar_params([0.5, v]), ("0.5", True, np.False_)),
    ("a", lambda v: ARParams((v, 0.5)), ("0.5", True)),
    ("gaussian mu", lambda v: gaussian(v, 1.0), ("0", True)),
    ("gaussian sigma", lambda v: gaussian(0.0, v), ("1", True)),
    ("two_point y", two_point, ("1", True)),
    ("uniform hi", lambda v: uniform(-1.0, v), ("1", True)),
    ("barrier x", lambda v: enumerate_survival(_RW, _SIGNS, v, 3), ("0", True)),
    ("barrier x", lambda v: predict(0.5, 0.5, gaussian(), v), ("0", True)),
    ("a1", lambda v: predict(v, 0.5, gaussian(), 0.0), ("0.5", True)),
    ("a2", lambda v: coeff_limit_class(0.5, v), ("0.5", True)),
    ("a1", lambda v: ar2_closed_form(v, 0.5), ("0.5", True)),
], ids=["estimate_survival", "enumerate_survival", "gaussian_pair_probability",
        "coeff_recursion", "ar2_coeffs", "ar_params", "ARParams", "gaussian-mu",
        "gaussian-sigma", "two_point", "uniform", "enumerate_survival-x", "predict-x",
        "predict-a1", "coeff_limit_class", "ar2_closed_form"])
def test_every_entry_point_refuses_numbers_of_the_wrong_type(field, call, values):
    # a bool, a string or a fraction is refused, never converted, truncated or dropped
    for value in values:
        with pytest.raises(ValueError, match=rf"^{field} must be an? (integer|number)"):
            call(value)
