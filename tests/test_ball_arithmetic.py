"""ValueWithBound arithmetic rounds outward: every operation encloses the exact result.

Operands are seeded floats and complex numbers over the whole double range,
magnitudes near 1e+-300 and subnormals included, as exact numbers or as
discs.  The exact result is a Fraction for real midpoints and 2,200-bit
mpmath otherwise, enough to hold a sum or product of two doubles exactly.
"""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dskernel import ValueWithBound
from dskernel.series import LIBM_UNITS

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
MAGNITUDES = [1e-320, 3e-310, 1e-300, 1e-150, 1e-20, 1.0, 7.5, 1e20, 1e150, 1e300]


def _real(rng) -> float:
    x = float(rng.choice(MAGNITUDES) * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    return x if math.isfinite(x) else 1e300


def _number(rng):
    """A float, or a complex number whose parts may differ in size by 600 decades."""
    if rng.random() < 0.5:
        return _real(rng)
    return complex(_real(rng), _real(rng) if rng.random() < 0.8 else 0.0)


def _operand(rng):
    """A number (exact), or a disc around one with a radius from 0 to its own size."""
    x = _number(rng)
    if rng.random() < 0.4:
        return x
    return ValueWithBound(x, abs(x) * float(rng.choice([0.0, 1e-16, 1e-3, 0.4])))


def _mid_radius(x):
    return (x.value, x.error_radius) if isinstance(x, ValueWithBound) else (x, 0.0)


def _exact(op, x, y):
    """op(x, y) for two exact numbers: a Fraction when both are real, else a 2,200-bit mpc."""
    if not isinstance(x, complex) and not isinstance(y, complex):
        return OPS[op](Fraction(x), Fraction(y))
    with mpmath.workprec(2200):
        return OPS[op](mpmath.mpc(x), mpmath.mpc(y))


def _distance(ball: ValueWithBound, exact) -> mpmath.mpf:
    with mpmath.workprec(2200):
        if isinstance(exact, Fraction):
            exact = mpmath.mpf(exact.numerator) / exact.denominator
        return abs(mpmath.mpc(ball.value) - exact)


def _assert_holds(ball: ValueWithBound, exact) -> None:
    with mpmath.workprec(2200):
        assert _distance(ball, exact) <= mpmath.mpf(ball.error_radius), (ball, exact)


def _points(x, rng):
    """The midpoint of an operand and, for a disc, two points of its boundary shrunk by 1e-9."""
    mid, r = _mid_radius(x)
    out = [mid]
    for _ in range(2 if r else 0):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        with mpmath.workprec(2200):
            out.append(mpmath.mpc(mid) + mpmath.mpf(r) * (1 - mpmath.mpf(10) ** -9) * mpmath.expjpi(theta / math.pi))
    return out


def _exact_at(op, p, q):
    if isinstance(p, mpmath.mpc) or isinstance(q, mpmath.mpc):
        with mpmath.workprec(2200):
            return OPS[op](mpmath.mpc(p), mpmath.mpc(q))
    return _exact(op, p, q)


class TestSeededOperations:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_result_holds_every_combination_of_operand_points(self, op):
        rng = np.random.default_rng(["+", "-", "*", "/"].index(op))
        checked = 0
        while checked < 400:
            x, y = _operand(rng), _operand(rng)
            if not isinstance(x, ValueWithBound) and not isinstance(y, ValueWithBound):
                x = ValueWithBound(x)
            try:
                ball = OPS[op](x, y)
            except ZeroDivisionError:
                mid, r = _mid_radius(y)
                assert abs(mid) <= r or isinstance(mid, complex)
                continue
            assert not math.isnan(ball.error_radius) and ball.error_radius >= 0.0
            if not math.isfinite(ball.error_radius):
                continue
            for p in _points(x, rng):
                for q in _points(y, rng):
                    _assert_holds(ball, _exact_at(op, p, q))
            checked += 1

    def test_subnormal_and_huge_products_and_quotients(self):
        tiny, huge = 5e-324, 1.7e308
        for x, y in [(tiny, 0.5), (tiny, 3.0), (1e-200, 1e-200), (3e-310, 1e-10), (1e-300, 1e-30)]:
            _assert_holds(ValueWithBound(x) * y, _exact("*", x, y))
            _assert_holds(ValueWithBound(x) / (1 / y), _exact("/", x, 1 / y))
        assert ValueWithBound(huge) * 2.0 == ValueWithBound(math.inf, math.inf)
        assert math.isinf((ValueWithBound(huge) + huge).error_radius)

    @pytest.mark.parametrize("x, y, op", [(0.1, 0.2, "+"), (0.1, 0.3, "*"), (1.0, 3.0, "/"), (0.3, 0.1, "-")])
    def test_rounded_floats_are_not_exact(self, x, y, op):
        ball = OPS[op](ValueWithBound(x, 0.0), ValueWithBound(y, 0.0))
        assert ball.error_radius > 0.0
        _assert_holds(ball, _exact(op, x, y))


class TestNumbersOnEitherSide:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_reflected_operations_enclose(self, op):
        rng = np.random.default_rng(10 + sorted(OPS).index(op))
        for _ in range(200):
            x, y = _number(rng), _number(rng)
            for left, ball in ((x, OPS[op](x, ValueWithBound(y))), (x.real, OPS[op](np.float64(x.real), ValueWithBound(y)))):
                assert isinstance(ball, ValueWithBound)
                if ball.error_radius < math.inf:  # an overflowing result has radius inf
                    _assert_holds(ball, _exact(op, left, y))

    def test_zero_operands_are_exact(self):
        one = ValueWithBound(1.0, 0.25)
        assert one + 0 == one and 0 + one == one and one - 0 == one and 0 - one == ValueWithBound(-1.0, 0.25)
        assert (0 * one) == ValueWithBound(0.0) and ValueWithBound(0.0) / one == ValueWithBound(0.0)


class TestDivisorDiscs:
    def test_a_complex_divisor_disc_widens_the_quotient_as_a_real_one_does(self):
        # the exact bound r / (|y| (|y| - r)) is 0.0209 here; dividing by conj(y) / |y|**2 gave 0.086
        ball = 1 / ValueWithBound(2 + 1j, 0.1)
        assert ball.error_radius <= 0.022
        rng = np.random.default_rng(3)
        for q in _points(ValueWithBound(2 + 1j, 0.1), rng):
            _assert_holds(ball, _exact_at("/", 1.0, q))

    @pytest.mark.parametrize("y", [ValueWithBound(0.5, 0.5), ValueWithBound(0.0), ValueWithBound(-1.0, 2.0),
                                   ValueWithBound(1 + 1j, 1.5), ValueWithBound(1.0, math.inf)])
    def test_a_disc_holding_zero_is_refused(self, y):
        with pytest.raises(ZeroDivisionError):
            ValueWithBound(1.0) / y

    def test_non_finite_midpoints_get_infinite_radii(self):
        for ball in (ValueWithBound(math.inf) + 1.0, ValueWithBound(math.inf, 1.0) * 0.0,
                     ValueWithBound(1e300) * 1e300, ValueWithBound.fsum([1e308, 1e308]),
                     ValueWithBound.fsum([math.inf, -math.inf])):
            assert ball.error_radius == math.inf


class TestSumAndLibm:
    def test_fsum_encloses_the_exact_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            terms = [_operand(rng) for _ in range(int(rng.integers(1, 12)))]
            terms = [t if isinstance(t, ValueWithBound) or not isinstance(t, complex) else t.real for t in terms]
            ball = ValueWithBound.fsum(terms)
            mids = [_mid_radius(t) for t in terms]
            exact = sum(Fraction(m.real) for m, _ in mids)
            with mpmath.workprec(2200):
                exact = mpmath.mpc(mpmath.mpf(exact.numerator) / exact.denominator,
                                   mpmath.fsum(mpmath.mpf(m.imag) for m, _ in mids))
                slack = mpmath.fsum(mpmath.mpf(r) for _, r in mids)
                assert _distance(ball, exact) <= mpmath.mpf(ball.error_radius) - slack

    def test_fsum_of_tenths(self):
        ball = ValueWithBound.fsum([0.1] * 10)
        assert ball.value == 1.0 and ball.error_radius > 0.0
        _assert_holds(ball, 10 * Fraction(0.1))

    @pytest.mark.parametrize("f, g", [(math.exp, mpmath.exp), (math.log, mpmath.log), (math.cos, mpmath.cos),
                                      (math.sin, mpmath.sin), (math.expm1, mpmath.expm1),
                                      (lambda x: x**0.3, lambda x: x ** mpmath.mpf(0.3))])
    def test_libm_results_are_enclosed(self, f, g):
        rng = np.random.default_rng(31)
        for x in [*rng.uniform(1e-3, 700.0, 200), 1e-300, 5e-324, 1e-10, 0.5]:
            try:
                y = f(float(x))
            except (ValueError, OverflowError):
                continue
            with mpmath.workprec(2200):
                _assert_holds(ValueWithBound.libm(y), g(mpmath.mpf(float(x))))
        assert ValueWithBound.libm(2.0).error_radius >= LIBM_UNITS * 2.0**-52


class TestDirectedEnds:
    def test_lower_and_upper_bound_the_exact_ends(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            v, r = _real(rng), abs(_real(rng))
            ball = ValueWithBound(v, r)
            assert Fraction(ball.lower) <= Fraction(v) - Fraction(r) <= Fraction(ball.upper) - 2 * Fraction(r)
            # each end within one ulp of the exact one
            assert Fraction(ball.upper) - Fraction(ball.lower) - 2 * Fraction(r) <= math.ulp(ball.upper) + math.ulp(ball.lower)

    def test_exact_ends_are_not_moved(self):
        assert ValueWithBound(1.0, 0.25).lower == 0.75 and ValueWithBound(1.0, 0.25).upper == 1.25
        assert ValueWithBound(0.0).lower == 0.0
