"""Series evaluation and merged-exponent products."""

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
    evaluate,
    merge_log_exponents,
    multiply_merged,
)

SQRT2 = math.sqrt(2.0)


def ones_series(order: int) -> GeneralDirichletSeries:
    exponents, coefficients = ExponentRule("log", omega=1.0), SequenceRule("constant", scale=1.0)
    return GeneralDirichletSeries(tuple(exponents.prefix(order)), tuple(coefficients.prefix(order)),
                                  exponents, coefficients, Envelope(1.0, 0.0))


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
        s = GeneralDirichletSeries((1.0,), (1.0 + 0.0j,), finite=True)
        v = evaluate(s, 1.0, 5)
        import mpmath
        with mpmath.workdps(40):
            assert abs(mpmath.mpc(v.value.real, v.value.imag) - mpmath.exp(-1)) <= v.error_radius
        assert v.error_radius <= 1e-14 * abs(v.value)
        assert abs(v.value - math.exp(-1.0)) < 1e-15

    def test_finite_series_below_its_length_covers_the_whole_sum(self):
        import mpmath
        coef = [1.0, -0.5, 0.25j, 2.0, 0.125 - 1j]
        s = 1.5 + 2.0j
        v = evaluate(GeneralDirichletSeries.ordinary(coef, finite=True), s, 2)
        with mpmath.workdps(40):
            truth = mpmath.fsum(mpmath.mpc(c) * mpmath.power(n, -mpmath.mpc(s)) for n, c in enumerate(coef, 1))
            assert abs(mpmath.mpc(v.value.real, v.value.imag) - truth) <= v.error_radius
        head = sum(c * n**-s for n, c in enumerate(coef[:2], 1))
        rest = math.fsum(abs(c) * n**-s.real for n, c in enumerate(coef[2:], 3))
        assert abs(v.value - head) < 1e-15 and rest <= v.error_radius < rest + 1e-14

    @pytest.mark.parametrize("negligible_head, cases", [(True, 3000), (False, 2000)])
    def test_finite_remainder_sweep_holds_every_sum(self, negligible_head, cases):
        """Seeded finite series cut short, ordinary and with general exponents: the disc holds the whole
        finite sum.  With a negligible head the radius is the remainder sum |a_n| e**(-lambda_n sigma) alone,
        so a remainder rounded to nearest would miss about half the time; it is rounded up."""
        import mpmath
        rng = np.random.default_rng(26 + negligible_head)
        misses = []
        for case in range(cases):
            L = int(rng.integers(2, 9))
            order = int(rng.integers(1, L))
            coef = rng.standard_normal(L) + 1j * rng.standard_normal(L) * (case % 4 == 0)
            if negligible_head:
                coef[:order] *= 1e-300
            s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-20.0, 20.0) * (case % 3 == 0))
            if case % 2:
                lam = np.cumsum(rng.uniform(0.01, 2.0, L)) - 0.01
                series = GeneralDirichletSeries(tuple(lam), tuple(coef), finite=True)
            else:
                series = GeneralDirichletSeries.ordinary(coef, finite=True)
            v = evaluate(series, s, order)
            with mpmath.workdps(40):
                z = mpmath.mpc(s)
                powers = ([mpmath.power(n, -z) for n in range(1, L + 1)] if case % 2 == 0
                          else [mpmath.exp(-mpmath.mpf(x) * z) for x in lam])
                truth = mpmath.fsum(mpmath.mpc(c) * p for c, p in zip(coef, powers))
                if not abs(mpmath.mpc(v.value) - truth) <= v.error_radius:
                    misses.append(case)
        assert not misses, (len(misses), misses[:10])

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
        exponents, coefficients = ExponentRule("linear", slope=1.0), SequenceRule("constant", scale=1.0)
        s = GeneralDirichletSeries(tuple(exponents.prefix(50)), tuple(coefficients.prefix(50)),
                                   exponents, coefficients, Envelope(1.0, 0.0))
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
            exponents = ExponentRule("log", omega=1.0)
            s = GeneralDirichletSeries(tuple(exponents.prefix(10 * M)), tuple(coef.prefix(10 * M)),
                                       exponents, coef, Envelope(C, alpha))
            sigma = alpha + 1.0 + 0.5 + float(rng.uniform(0, 2))
            lo = evaluate(s, sigma, M)
            hi = evaluate(s, sigma, 10 * M)
            assert abs(hi.value - lo.value) <= lo.error_radius


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
        f = GeneralDirichletSeries((1.0,), (1.0 + 0.0j,), finite=True)
        g = GeneralDirichletSeries((SQRT2,), (1.0 + 0.0j,), finite=True)
        prod = multiply_merged(f, g)
        assert len(prod) == 1
        assert abs(prod.exponents[0] - (1.0 + SQRT2)) < 1e-15

    def test_zero_times_anything(self):
        f = GeneralDirichletSeries.zero()
        g = GeneralDirichletSeries((0.5,), (2.0 + 0.0j,), finite=True)
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
