"""Certified coupling sums: the Euler-Maclaurin zeta, priced closed forms, the priced Schur margin."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dskernel import (
    ArrowheadMatrix,
    CertificationError,
    SequenceRule,
    SpecError,
    psd_margin,
    weighted_ratio_sum,
    zeta_enclosure,
)
from dskernel.kernel import eigensolve_rounding
from dskernel.rules import ZETA_N
from dskernel.structured import coupling_sum


def assert_encloses(value: float, radius: float, truth) -> None:
    with mpmath.workdps(40):
        assert abs(truth - mpmath.mpf(value)) <= radius, (value, radius, truth)


class TestZetaEnclosure:
    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(min_value=1.0, max_value=1e3, exclude_min=True))
    def test_disc_contains_zeta(self, beta):
        value, radius = zeta_enclosure(beta)
        with mpmath.workdps(40):
            assert_encloses(value, radius, mpmath.zeta(mpmath.mpf(beta)))

    @pytest.mark.parametrize("beta", [1 + 1e-9, 1.02, 2.0, 60.0, 1e6])
    def test_fixed_cases_are_tight_and_fast(self, beta):
        value, radius = zeta_enclosure(beta)
        with mpmath.workdps(40):
            assert_encloses(value, radius, mpmath.zeta(mpmath.mpf(beta)))
        assert radius <= 1e-14 * value
        best = min(_seconds(zeta_enclosure, beta) for _ in range(5))
        assert best <= 1e-3

    def test_term_count_does_not_grow_with_beta(self):
        assert zeta_enclosure(1e300) == (1.0, zeta_enclosure(1e300)[1])
        assert min(_seconds(zeta_enclosure, 1e300) for _ in range(5)) <= 1e-3
        assert zeta_enclosure(math.inf) == (1.0, 0.0)

    @pytest.mark.parametrize("beta", [1.0, 0.5, -2.0, math.nan])
    def test_divergent_argument_refused(self, beta):
        with pytest.raises(SpecError):
            zeta_enclosure(beta)


def _seconds(f, *args) -> float:
    t = time.perf_counter()
    f(*args)
    return time.perf_counter() - t


def geometric(scale: float, ratio: float) -> SequenceRule:
    return SequenceRule("geometric", scale=scale, ratio=ratio)


def power(scale: float, exponent: float) -> SequenceRule:
    return SequenceRule("power", scale=scale, exponent=exponent)


def true_sum(num: SequenceRule, den: SequenceRule):
    """sum |num(l)|**2 / den(l) at 40 digits from the rules' exact binary parameters."""
    mp = mpmath.mpf
    A = mp(abs(num.scale)) ** 2 / mp(abs(den.scale))
    q = (mp(num.ratio) ** 2 if num.kind == "geometric" else 1) / (mp(den.ratio) if den.kind == "geometric" else 1)
    beta = (mp(den.exponent) if den.kind == "power" else 0) - (2 * mp(num.exponent) if num.kind == "power" else 0)
    if beta == 0:
        return A * q / (1 - q)
    assert q == 1
    return A * mpmath.zeta(beta)


class TestPricedClosedForms:
    @pytest.mark.parametrize("num, den", [
        (geometric(1.0, 0.5), geometric(1.0, 4.0)),
        (SequenceRule("constant", scale=1.0), geometric(1.0, 4.0)),
        (geometric(0.3, math.sqrt(0.999)), SequenceRule("constant", scale=1.0)),  # q = 0.999
        (geometric(1.7, 0.9995), geometric(0.9, 1.0)),
        (SequenceRule("constant", scale=0.45), power(1.0, 1.001)),  # beta = 1.001
        (power(0.45, -0.55), power(1.0, 0.45)),  # beta = 1.55, rounded
        (power(2.0, 0.3), power(3.0, 1.601)),  # beta = 1.001, rounded
        (power(1.0, -3.0), SequenceRule("constant", scale=2.0)),  # beta = 6
    ])
    def test_truth_lies_in_the_disc(self, num, den):
        s = weighted_ratio_sum(num, den)
        with mpmath.workdps(40):
            assert_encloses(s.total, s.remainder_bound, true_sum(num, den))

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.05, 1.5), d=st.floats(0.05, 4.0), c=st.floats(0.01, 10.0))
    def test_geometric_truth_lies_in_the_disc(self, r, d, c):
        assume(r * r / d < 0.9999)
        num, den = geometric(c, r), geometric(1.0, d)
        s = weighted_ratio_sum(num, den)
        assert s.exact and s.remainder_bound > 0
        with mpmath.workdps(40):
            assert_encloses(s.total, s.remainder_bound, true_sum(num, den))

    @settings(max_examples=100, deadline=None)
    @given(e1=st.floats(-5.0, 5.0), beta=st.floats(1.0005, 50.0), c=st.floats(0.01, 10.0))
    def test_power_truth_lies_in_the_disc(self, e1, beta, c):
        num, den = power(c, e1), power(1.0, beta + 2 * e1)
        s = weighted_ratio_sum(num, den)
        assert not s.exact and s.partial_terms == ZETA_N - 1
        with mpmath.workdps(40):
            assert_encloses(s.total, s.remainder_bound, true_sum(num, den))

    def test_ratio_within_rounding_of_one_is_refused(self):
        with pytest.raises(CertificationError):
            weighted_ratio_sum(geometric(1.0, 1.0 - 2.0**-53), SequenceRule("constant", scale=1.0))

    def test_exponent_within_rounding_of_one_is_refused(self):
        # beta = 1.02 + 2**-52 - 0.02 is computed as the float just above 1, with a rounding
        with pytest.raises(CertificationError, match="within rounding"):
            weighted_ratio_sum(power(1.0, 0.01), power(1.0, 1.0200000000000002))


class TestPricedMargin:
    def test_margin_subtracts_the_eigensolve_allowance_and_the_upper_sum(self):
        head = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = ArrowheadMatrix(2, head, SequenceRule("constant", scale=0.3), power(1.0, 2.0))
        cert = psd_margin(m)
        w = np.linalg.eigvalsh(head)
        upper = cert.coupling_sum + cert.coupling_sum_radius
        assert cert.lambda_min_head == float(w[0])
        assert cert.margin == float(w[0]) - eigensolve_rounding(2, float(np.max(np.abs(w)))) - 2 * upper
        assert cert.coupling_sum_radius > 0 and not cert.coupling_sum_exact
        with mpmath.workdps(40):
            assert_encloses(cert.coupling_sum, cert.coupling_sum_radius, mpmath.mpf(0.3) ** 2 * mpmath.zeta(2))

    def test_zero_coupling_margin_sits_below_the_head_eigenvalue(self):
        m = ArrowheadMatrix(1, np.array([[1.0]]), SequenceRule("constant", scale=0.0), geometric(1.0, 2.0))
        cert = psd_margin(m)
        assert cert.margin == 1.0 - eigensolve_rounding(1, 1.0) < 1.0


def exact_rule_value(rule: SequenceRule, l: int):
    """The rule's value at l in 40-digit arithmetic, from its float parameters."""
    if rule.kind == "explicit":
        return mpmath.mpc(complex(rule.values[l - 1])) if l <= len(rule.values) else mpmath.mpf(0)
    scale = mpmath.mpc(complex(rule.scale))
    if rule.kind == "constant":
        return scale
    if rule.kind == "geometric":
        return scale * mpmath.mpf(rule.ratio) ** l
    return scale * mpmath.mpf(l) ** mpmath.mpf(rule.exponent)


def exact_finite_sum(num: SequenceRule, den: SequenceRule, extra: float = 0.0):
    with mpmath.workdps(40):
        return mpmath.fsum(
            abs(exact_rule_value(num, l)) ** 2 * mpmath.mpf(l) ** mpmath.mpf(extra) / mpmath.re(exact_rule_value(den, l))
            for l in range(1, len(num.values) + 1)
        )


class TestFiniteSums:
    """The explicit branch and the tail-override corrections price their rounding."""

    def test_thousand_tenths_over_three(self):
        num, den = SequenceRule("explicit", values=(0.1,) * 1000), SequenceRule("constant", scale=3.0)
        s = weighted_ratio_sum(num, den)
        assert s.exact and 0.0 < s.remainder_bound <= 1e-14
        assert_encloses(s.total, s.remainder_bound, exact_finite_sum(num, den))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=200),
        den=st.one_of(
            st.builds(lambda c: SequenceRule("constant", scale=c), st.floats(1e-3, 1e3)),
            st.builds(lambda c, r: SequenceRule("geometric", scale=c, ratio=r), st.floats(1e-3, 1e3), st.floats(0.5, 1.5)),
            st.builds(lambda c, p: SequenceRule("power", scale=c, exponent=p), st.floats(1e-3, 1e3), st.floats(-3.0, 3.0)),
            st.builds(lambda v: SequenceRule("explicit", values=tuple(v)), st.lists(st.floats(1e-3, 1e3), min_size=200, max_size=200)),
        ),
        extra=st.sampled_from([0.0, 1.0, -0.5, 0.3]),
    )
    def test_explicit_disc_contains_the_sum(self, values, den, extra):
        num = SequenceRule("explicit", values=tuple(values))
        s = weighted_ratio_sum(num, den, extra)
        assert_encloses(s.total, s.remainder_bound, exact_finite_sum(num, den, extra))

    def test_tail_override_corrections_are_priced(self):
        m = ArrowheadMatrix(1, np.array([[5.0]]), SequenceRule("explicit", values=(0.1,) * 50),
                            SequenceRule("constant", scale=3.0))
        for idx in (2, 7, 30):
            m = m.with_tail_override(idx, 0.7)
        s = coupling_sum(m)
        tail = SequenceRule("explicit", values=tuple(0.7 if l + 1 in (2, 7, 30) else 3.0 for l in range(1, 51)))
        assert s.remainder_bound > 0.0
        assert_encloses(s.total, s.remainder_bound, exact_finite_sum(m.coupling, tail))
