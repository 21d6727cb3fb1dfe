"""Series evaluation, abscissa bounds, merged-exponent products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskernel import (
    CollisionError,
    ConvergenceRegionError,
    Envelope,
    ExponentRule,
    GeneralDirichletSeries,
    SequenceRule,
    SpecError,
    abscissa_upper_bound,
    evaluate,
    merge_log_exponents,
    multiply_merged,
    series_equal,
)

SQRT2 = math.sqrt(2.0)


def ones_series(order: int) -> GeneralDirichletSeries:
    return GeneralDirichletSeries.from_rules(
        ExponentRule("log", omega=1.0),
        SequenceRule("constant", scale=1.0),
        order,
        envelope=Envelope(1.0, 0.0),
    )


def brute_zeta(s: float, order: int) -> float:
    n = np.arange(1, order + 1, dtype=float)
    return float(np.sum(n ** (-s)))


class TestEvaluate:
    def test_zeta2_against_brute_force(self):
        oracle = brute_zeta(2.0, 10**7)
        v = evaluate(ones_series(10**4), 2.0, 10**4)
        assert abs(v.value.real - 1.644934) < 2e-4
        assert v.error_radius < 1e-4
        assert abs(v.value - oracle) <= v.error_radius

    def test_zero_series(self):
        v = evaluate(GeneralDirichletSeries.zero(), 3.7 + 2j, 10)
        assert v.value == 0 and v.error_radius == 0.0

    def test_single_term_exact(self):
        s = GeneralDirichletSeries.single_term(1.0, 1.0)
        v = evaluate(s, 1.0, 5)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            assert abs(mpmath.mpc(v.value.real, v.value.imag) - mpmath.exp(-1)) <= v.error_radius
        assert v.error_radius <= 1e-14 * abs(v.value)
        assert abs(v.value - math.exp(-1.0)) < 1e-15

    def test_refuses_outside_certified_region(self):
        with pytest.raises(ConvergenceRegionError):
            evaluate(ones_series(100), 0.9, 100)

    def test_no_envelope_means_infinite_radius(self):
        s = GeneralDirichletSeries.ordinary([1.0, 0.5, 0.25])
        # not finite, no envelope: value-only mode
        nf = GeneralDirichletSeries(s.exponents, s.coefficients, s.exponent_rule)
        v = evaluate(nf, 2.0, 3)
        assert math.isinf(v.error_radius)

    def test_linear_exponent_tail(self):
        s = GeneralDirichletSeries.from_rules(
            ExponentRule("linear", slope=1.0),
            SequenceRule("constant", scale=1.0),
            50,
            envelope=Envelope(1.0, 0.0),
        )
        v = evaluate(s, 1.0, 50)
        # geometric: sum e**(-n) = 1/(e-1)
        assert abs(v.value - 1.0 / (math.e - 1.0)) <= v.error_radius + 1e-12

    @pytest.mark.parametrize("M", [100, 1000])
    def test_tail_bound_soundness(self, M):
        rng = np.random.default_rng(11)
        for _ in range(10):
            C = float(rng.uniform(0.1, 2.0))
            alpha = float(rng.uniform(-1.0, 1.0))
            coef = SequenceRule("power", scale=C, exponent=alpha)
            s = GeneralDirichletSeries.from_rules(
                ExponentRule("log", omega=1.0), coef, 10 * M, envelope=Envelope(C, alpha)
            )
            sigma = alpha + 1.0 + 0.5 + float(rng.uniform(0, 2))
            lo = evaluate(s, sigma, M)
            hi = evaluate(s, sigma, 10 * M)
            assert abs(hi.value - lo.value) <= lo.error_radius


class TestAbscissa:
    def test_log_rule_omega_one(self):
        assert abscissa_upper_bound(ones_series(50), 0.0) == 1.0

    def test_log_rule_omega_sqrt2(self):
        s = GeneralDirichletSeries.from_rules(
            ExponentRule("log", omega=SQRT2), SequenceRule("constant"), 50
        )
        assert abs(abscissa_upper_bound(s, 0.0) - 1.0 / SQRT2) < 1e-15

    def test_linear_rule_is_zero(self):
        s = GeneralDirichletSeries.from_rules(
            ExponentRule("linear", slope=1.0), SequenceRule("constant"), 50
        )
        assert abscissa_upper_bound(s, 0.0) == 0.0

    def test_explicit_prefix_estimate_decays(self):
        # lambda_n = n without a declared rule: estimate shrinks with the prefix
        def est(N):
            lam = tuple(float(n) for n in range(1, N + 1))
            coef = (1.0,) * N
            return abscissa_upper_bound(GeneralDirichletSeries(lam, coef), 0.0)

        assert est(2000) < est(100) < est(20)
        assert est(2000) < 0.01

    def test_offset_propagates(self):
        assert abscissa_upper_bound(ones_series(10), 2.5) == 3.5


class TestMerge:
    def test_two_by_two_sqrt2(self):
        got = merge_log_exponents(SQRT2, 2, 2)
        log2 = math.log(2.0)
        expected = sorted(
            [
                (math.log(m) + SQRT2 * math.log(n), m, n)
                for m in (1, 2)
                for n in (1, 2)
            ]
        )
        assert [(m, n) for _, m, n in got] == [(m, n) for _, m, n in expected]
        assert got[0] == (0.0, 1, 1)
        assert abs(got[1][0] - log2) < 1e-15 and got[1][1:] == (2, 1)
        assert abs(got[2][0] - SQRT2 * log2) < 1e-15 and got[2][1:] == (1, 2)

    def test_single_column(self):
        got = merge_log_exponents(SQRT2, 5, 1)
        assert [(m, n) for _, m, n in got] == [(q, 1) for q in range(1, 6)]
        for nu, m, _ in got:
            assert abs(nu - math.log(m)) < 1e-15

    def test_rational_omega_collides(self):
        with pytest.raises(CollisionError):
            merge_log_exponents(1.0, 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8))
    def test_merge_is_a_bijection(self, m_max, n_max):
        got = merge_log_exponents(SQRT2, m_max, n_max)
        assert len(got) == m_max * n_max
        assert {(m, n) for _, m, n in got} == {
            (m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)
        }
        nus = [nu for nu, _, _ in got]
        assert nus == sorted(nus)


class TestMultiply:
    def test_single_terms(self):
        f = GeneralDirichletSeries.single_term(1.0, 1.0)
        g = GeneralDirichletSeries.single_term(SQRT2, 1.0)
        prod = multiply_merged(f, g)
        assert len(prod) == 1
        assert abs(prod.exponents[0] - (1.0 + SQRT2)) < 1e-15

    def test_zero_times_anything(self):
        f = GeneralDirichletSeries.zero()
        g = GeneralDirichletSeries.single_term(0.5, 2.0)
        assert len(multiply_merged(f, g)) == 0
        assert len(multiply_merged(g, f)) == 0

    def test_two_by_two_order(self):
        log2 = math.log(2.0)
        f = GeneralDirichletSeries.ordinary([1.0, 1.0], finite=True)
        g = GeneralDirichletSeries(
            (0.0, SQRT2 * log2), (1.0, 1.0),
            ExponentRule("log", omega=SQRT2), finite=True,
        )
        prod = multiply_merged(f, g)
        expected = sorted([0.0, log2, SQRT2 * log2, (1 + SQRT2) * log2])
        assert np.allclose(prod.exponents, expected, atol=1e-14)
        assert np.allclose(prod.coefficients, 1.0)

    def test_collision_raises(self):
        f = GeneralDirichletSeries.ordinary([1.0, 1.0], finite=True)
        with pytest.raises(CollisionError):
            multiply_merged(f, f)

    @pytest.mark.parametrize("s", [2.5, 3.0 + 1.0j, 4.0 - 0.5j])
    def test_pointwise_product_matches(self, s):
        rng = np.random.default_rng(3)
        f = GeneralDirichletSeries.ordinary(rng.standard_normal(3), finite=True)
        g = GeneralDirichletSeries(
            tuple(SQRT2 * math.log(n) for n in range(1, 4)),
            tuple(rng.standard_normal(3)),
            ExponentRule("log", omega=SQRT2),
            finite=True,
        )
        prod = multiply_merged(f, g)
        lhs = evaluate(f, s, 3) * evaluate(g, s, 3)
        rhs = evaluate(prod, s, len(prod))
        assert abs(lhs.value - rhs.value) <= lhs.error_radius + rhs.error_radius + 1e-12


class TestSeriesEqual:
    def test_identical(self):
        f = GeneralDirichletSeries.ordinary([1.0, 2.0, 3.0])
        assert series_equal(f, f, 0.0)

    def test_shifted_support(self):
        f = GeneralDirichletSeries.ordinary([1.0])
        g = GeneralDirichletSeries.ordinary([0.0, 1.0])
        assert not series_equal(f, g, 0.5)

    def test_independent_recomputation(self):
        f = GeneralDirichletSeries.ordinary([1.0 / n**2 for n in range(1, 51)])
        g = GeneralDirichletSeries.ordinary([float(n) ** -2.0 for n in range(1, 51)])
        assert series_equal(f, g, 1e-15)

    def test_rejects_general_series(self):
        f = GeneralDirichletSeries.single_term(1.0, 1.0)
        with pytest.raises(SpecError):
            series_equal(f, f, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=0, max_size=6),
        st.lists(st.integers(-3, 3), min_size=0, max_size=6),
        st.lists(st.integers(-3, 3), min_size=0, max_size=6),
    )
    def test_equivalence_relation_at_zero_tol(self, a, b, c):
        fa = GeneralDirichletSeries.ordinary([complex(x) for x in a])
        fb = GeneralDirichletSeries.ordinary([complex(x) for x in b])
        fc = GeneralDirichletSeries.ordinary([complex(x) for x in c])
        assert series_equal(fa, fa, 0.0)
        assert series_equal(fa, fb, 0.0) == series_equal(fb, fa, 0.0)
        if series_equal(fa, fb, 0.0) and series_equal(fb, fc, 0.0):
            assert series_equal(fa, fc, 0.0)


class TestInvariants:
    def test_generator_rule_must_match_prefix(self):
        with pytest.raises(SpecError):
            GeneralDirichletSeries(
                (0.0, 1.0), (1.0, 1.0), ExponentRule("log", omega=1.0)
            )

    def test_exponents_strictly_increasing(self):
        with pytest.raises(SpecError):
            GeneralDirichletSeries((0.0, 0.0), (1.0, 1.0))

    def test_envelope_must_bound_prefix(self):
        with pytest.raises(SpecError):
            GeneralDirichletSeries.ordinary([5.0], envelope=Envelope(1.0, 0.0))
