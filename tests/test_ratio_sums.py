"""Certified coupling sums: zeta as the Euler-Maclaurin sum to infinity, priced closed forms, the priced Schur margin."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dskernel import (
    ArrowheadMatrix,
    CertificationError,
    DiagonalMatrix,
    DirichletKernel,
    HalfPlane,
    SequenceRule,
    SpecError,
    kernel_eval,
    psd_margin,
    weighted_ratio_sum,
)
from dskernel.kernel import eigensolve_rounding
from dskernel.series import em_start, partial_zeta


def assert_encloses(value: float, radius: float, truth) -> None:
    with mpmath.workdps(40):
        assert abs(truth - mpmath.mpf(value)) <= radius, (value, radius, truth)


def zeta(beta: float) -> tuple[float, float]:
    """zeta(beta) from the one Euler-Maclaurin routine: ``partial_zeta(beta, 0, 1, math.inf)``, a real value."""
    value, radius = partial_zeta(beta, 0.0, 1, math.inf)
    assert value.imag == 0.0
    return value.real, radius


class TestZetaEnclosure:
    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(min_value=1.0, max_value=1e3, exclude_min=True))
    def test_disc_contains_zeta(self, beta):
        value, radius = zeta(beta)
        with mpmath.workdps(40):
            assert_encloses(value, radius, mpmath.zeta(mpmath.mpf(beta)))

    @pytest.mark.parametrize("beta", [1 + 1e-9, 1.02, 2.0, 60.0, 1e6])
    def test_fixed_cases_are_tight_and_fast(self, beta):
        value, radius = zeta(beta)
        with mpmath.workdps(40):
            assert_encloses(value, radius, mpmath.zeta(mpmath.mpf(beta)))
        assert radius <= 1e-14 * value
        best = min(_seconds(zeta, beta) for _ in range(5))
        assert best <= 1e-3

    def test_a_call_at_two_and_a_half_is_fast(self):
        """About 15 us per call on a 2-core x86_64 (130 us when each Euler-Maclaurin term was a priced ball).  A
        loose guard at 60 us, best of 5 x 200 calls: it fails if per-term balls come back into zeta(beta)."""
        best = min(_seconds(lambda: [zeta(2.5) for _ in range(200)]) for _ in range(5))
        assert best / 200 <= 60e-6

    def test_term_count_does_not_grow_with_beta(self):
        assert zeta(1e300) == (1.0, zeta(1e300)[1])
        assert min(_seconds(zeta, 1e300) for _ in range(5)) <= 1e-3
        assert zeta(math.inf) == (1.0, 0.0)

    @pytest.mark.parametrize("beta", [1.0, 0.5, -2.0, math.nan])
    def test_divergent_argument_refused(self, beta):
        with pytest.raises(SpecError):
            zeta(beta)


class TestScalarZetaPathWallClock:
    def test_recover_block_grid_of_constant_diagonal_evaluations(self):
        """2,500 ``kernel_eval`` calls on a constant diagonal at N = 2e4, over ``recover_block``'s 50 x 50 real grid
        p = 2.1 + 0.25 r, best of 3: 0.064 s on a 2-core x86_64 with the fused Euler-Maclaurin tail and the fsum
        head (0.128 s before them).  A loose guard at 3 times that, 0.19 s, which a busy machine still meets: it
        fails if per-pass numpy calls or per-term balls come back into the scalar zeta path."""
        kern = DirichletKernel(DiagonalMatrix(SequenceRule("constant", scale=1.3)), HalfPlane(0.5))
        grid = (2.1 + 0.25 * np.arange(50)).tolist()

        def sweep():
            for p in grid:
                for q in grid:
                    kernel_eval(kern, p, q, 20000)
        assert min(_seconds(sweep) for _ in range(3)) <= 0.19


def _seconds(f, *args) -> float:
    t = time.perf_counter()
    f(*args)
    return time.perf_counter() - t


def geometric(scale: float, ratio: float) -> SequenceRule:
    return SequenceRule("geometric", scale=scale, ratio=ratio)


def power(scale: float, exponent: float) -> SequenceRule:
    return SequenceRule("power", scale=scale, exponent=exponent)


def true_sum(num: SequenceRule, den: SequenceRule):
    """sum |num(l)|**2 / den(l) at 40 digits from the rules' exact binary parameters.

    A q**l l**-beta sums to A q/(1 - q), A zeta(beta) or, when neither q = 1
    nor beta = 0, the polylogarithm A Li_beta(q).
    """
    mp = mpmath.mpf
    A = mp(abs(num.scale)) ** 2 / mp(abs(den.scale))
    q = (mp(num.ratio) ** 2 if num.kind == "geometric" else 1) / (mp(den.ratio) if den.kind == "geometric" else 1)
    beta = (mp(den.exponent) if den.kind == "power" else 0) - (2 * mp(num.exponent) if num.kind == "power" else 0)
    if beta == 0:
        return A * q / (1 - q)
    if q != 1:
        return A * mpmath.polylog(beta, q)
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
        (geometric(1.0, 1.0 - 2.0**-53), SequenceRule("constant", scale=1.0)),  # q < 1 exactly, its disc reaching 1
        (geometric(1.0, 0.9999999999999999), power(1.0, 2.0)),  # the same q over l**-2: zeta(2, 65) bounds the tail
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
        # zeta at the exponent as rounded: partial_zeta's value, and its direct head as the partial terms
        rounded = -math.fsum([0.0, 2 * e1, -den.exponent])
        assert s.total == c * c * partial_zeta(rounded, 0.0, 1, math.inf)[0].real
        assert not s.exact and s.partial_terms == em_start(complex(rounded), 1, math.inf) - 1
        with mpmath.workdps(40):
            assert_encloses(s.total, s.remainder_bound, true_sum(num, den))

    def test_ratio_of_exactly_one_over_a_power_is_zeta(self):
        """A geometric numerator of ratio 1 is the constant one: q = 1 exactly picks zeta(3), bit for bit."""
        s = weighted_ratio_sum(geometric(1.0, 1.0), power(1.0, 3.0))
        assert s == weighted_ratio_sum(SequenceRule("constant", scale=1.0), power(1.0, 3.0))
        assert (s.total, s.partial_terms) == (1.2020569031595942, 13) and s.remainder_bound < 4.2e-15

    def test_graded_arrowhead_coupling_sum_diverges(self):
        # |c_l|**2 / d_l = 0.01 (4/4)**l: q = 1 exactly and gamma = 0
        with pytest.raises(CertificationError, match="diverges"):
            weighted_ratio_sum(geometric(0.1, 2.0), geometric(1.0, 4.0))

    def test_exponent_within_rounding_of_one_is_refused(self):
        # beta = 1.02 + 2**-52 - 0.02 is computed as the float just above 1, with a rounding
        with pytest.raises(CertificationError, match="within rounding"):
            weighted_ratio_sum(power(1.0, 0.01), power(1.0, 1.0200000000000002))


class TestMixedSums:
    """Geometric x power sums: a partial sum and a ratio-test remainder, their rounding priced."""

    def test_reported_miss_lies_in_the_disc(self):
        # ratio 0.7395, scale 2.771 over exponent -2.754, scale 0.2636: the
        # truncation-only radius was 3.06e-11 against an error of 3.07e-11
        ratio, scale, exponent, den_scale = 0.7395035642518034, 2.770888466262316, -2.7541588563828316, 0.26362359173243805
        s = weighted_ratio_sum(geometric(scale, ratio), power(den_scale, exponent))
        with mpmath.workdps(40):
            r, e = mpmath.mpf(ratio), mpmath.mpf(exponent)
            terms = mpmath.nsum(lambda l: r ** (2 * l) * l ** -e, [1, mpmath.inf])
            assert_encloses(s.total, s.remainder_bound, mpmath.mpf(scale) ** 2 / mpmath.mpf(den_scale) * terms)

    def test_seeded_sweep_lies_in_the_disc(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            ratio, scale, exponent, den_scale = (rng.uniform(0.3, 0.99), rng.uniform(0.1, 10),
                                                 rng.uniform(-3, 3), rng.uniform(0.1, 10))
            num, den = geometric(scale, ratio), power(den_scale, exponent)
            s = weighted_ratio_sum(num, den)
            assert not s.exact and s.remainder_bound > 0
            with mpmath.workdps(40):
                assert_encloses(s.total, s.remainder_bound, true_sum(num, den))

    def test_long_partial_sum_is_one_array_fsum(self):
        """q = 0.999995**2 over l**-1 takes L = 131,072 terms.  Their balls are summed from two arrays by
        ``series.ball_fsum``, not built one per term: 22 ms on a 2-core x86_64 (154 ms with a ball per term), so
        the guard at 40 ms fails if the per-term balls come back.  The sum is pinned bit for bit."""
        num, den = geometric(1.0, 0.999995), power(1.0, -1.0)
        s = weighted_ratio_sum(num, den)
        assert (s.total, s.remainder_bound, s.partial_terms, s.exact) == (
            float.fromhex("0x1.4e7ba17e46156p+33"), float.fromhex("0x1.bc46062b864b8p+32"), 131072, False)
        assert min(_seconds(weighted_ratio_sum, num, den) for _ in range(5)) <= 0.040

    def test_ratio_within_rounding_of_one_is_refused(self):
        # q = 1 - 2**-40 over l**2: the ratio test needs about 2**41 terms
        with pytest.raises(CertificationError, match="too close to 1"):
            weighted_ratio_sum(geometric(1.0, 1.0 - 2.0**-41), power(1.0, -2.0))

    def test_ratio_near_one_over_a_power_tail_is_enclosed(self):
        num, den = geometric(1.0, 1.0 - 2.0**-41), power(1.0, 2.0)  # q = 1 - 2**-40
        s = weighted_ratio_sum(num, den)
        assert math.isfinite(s.remainder_bound) and s.partial_terms == 64
        with mpmath.workdps(40):
            assert_encloses(s.total, s.remainder_bound, true_sum(num, den))

    def test_seeded_ratios_up_to_one_over_a_convergent_power(self):
        """q from 1 - 10**-1 to within rounding of 1 over l**-beta, beta > 1: L = 64, and the tail's lesser bound
        is at most q**65 zeta(beta, 65), so every sum is certified, with a radius below A zeta(beta, 65), and its
        disc holds the polylogarithm."""
        rng = np.random.default_rng(3)
        with mpmath.workdps(40):
            for _ in range(100):
                num = geometric(float(rng.uniform(0.1, 3.0)), 1.0 - 10.0 ** float(rng.uniform(-15.5, -1.0)))
                den = power(float(rng.uniform(0.1, 3.0)), float(rng.uniform(1.05, 4.0)))
                s = weighted_ratio_sum(num, den)
                assert s.partial_terms == 64
                assert s.remainder_bound <= num.scale**2 / den.scale * mpmath.zeta(den.exponent, 65)
                assert_encloses(s.total, s.remainder_bound, true_sum(num, den))


class TestPricedMargin:
    def test_margin_subtracts_the_eigensolve_allowance_and_the_upper_sum(self):
        head = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = ArrowheadMatrix(2, head, SequenceRule("constant", scale=0.3), power(1.0, 2.0))
        cert = psd_margin(m)
        w = np.linalg.eigvalsh(head)
        upper = Fraction(cert.coupling_sum) + Fraction(cert.coupling_sum_radius)
        exact = Fraction(float(w[0])) - Fraction(eigensolve_rounding(2, float(np.max(np.abs(w))))) - 2 * upper
        assert cert.lambda_min_head == float(w[0])
        # the lower end of the ball, rounded down: never above the exact difference, a few ulps below it
        assert cert.margin <= exact and exact - Fraction(cert.margin) <= 1e-15
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


def exact_finite_sum(num: SequenceRule, den: SequenceRule):
    with mpmath.workdps(40):
        return mpmath.fsum(
            abs(exact_rule_value(num, l)) ** 2 / mpmath.re(exact_rule_value(den, l)) for l in range(1, len(num.values) + 1)
        )


class TestFiniteSums:
    """The explicit branch prices its rounding."""

    def test_thousand_tenths_over_three(self):
        num, den = SequenceRule("explicit", values=(0.1,) * 1000), SequenceRule("constant", scale=3.0)
        s = weighted_ratio_sum(num, den)
        assert s.exact and 0.0 < s.remainder_bound <= 1e-14
        assert_encloses(s.total, s.remainder_bound, exact_finite_sum(num, den))

    def test_total_is_the_fsum_of_the_quotients_term_by_term(self):
        """The array quotients round as the scalar ones do: the total is fsum of |v|**2 / d formed per term."""
        rng = np.random.default_rng(4)
        for den in (SequenceRule("constant", scale=0.7), SequenceRule("explicit", values=tuple(rng.uniform(0.1, 5.0, 60)))):
            num = SequenceRule("explicit", values=tuple(complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(50)))
            quotients = [(v.real * v.real + v.imag * v.imag) / den.value(l).real
                         for l, v in enumerate(map(complex, num.values), start=1)]
            assert weighted_ratio_sum(num, den).total == math.fsum(quotients)

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
    )
    def test_explicit_disc_contains_the_sum(self, values, den):
        num = SequenceRule("explicit", values=tuple(values))
        s = weighted_ratio_sum(num, den)
        assert_encloses(s.total, s.remainder_bound, exact_finite_sum(num, den))


KINDS = ("constant", "geometric", "power", "explicit")


def _rule(rng, kind: str, numerator: bool) -> SequenceRule:
    """A seeded rule of the kind; denominators are positive, numerator scales may be complex."""
    scale = float(rng.uniform(0.1, 3.0))
    if numerator and rng.random() < 0.3:
        scale = complex(scale, float(rng.uniform(-2.0, 2.0)))
    if kind == "constant":
        return SequenceRule("constant", scale=scale)
    if kind == "geometric":
        return geometric(scale, float(rng.uniform(0.05, 1.1) if numerator else rng.uniform(0.5, 5.0)))
    if kind == "power":
        return power(scale, float(rng.uniform(-3.0, 1.0) if numerator else rng.uniform(-2.0, 5.0)))
    if numerator:
        return SequenceRule("explicit", values=tuple(complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(rng.integers(1, 30))))
    return SequenceRule("explicit", values=tuple(float(v) for v in rng.uniform(0.1, 5.0, 40)))


def _sweep_truth(num: SequenceRule, den: SequenceRule):
    """The 40-digit sum of |num(l)|**2 / den(l), inf when it diverges, None within 2 % of the border."""
    if num.kind == "explicit":
        return exact_finite_sum(num, den)
    if den.kind == "explicit":
        return mpmath.inf  # den(l) = 0 beyond the list
    mp = mpmath.mpf
    A = abs(mpmath.mpc(complex(num.scale))) ** 2 / mp(complex(den.scale).real)
    q = (mp(num.ratio) ** 2 if num.kind == "geometric" else 1) / (mp(den.ratio) if den.kind == "geometric" else 1)
    beta = (mp(den.exponent) if den.kind == "power" else 0) - (2 * mp(num.exponent) if num.kind == "power" else 0)
    if q == 1 and abs(beta - 1) > 0.02 or q != 1 and abs(q - 1) > 0.02:
        if q > 1 or (q == 1 and beta < 1):
            return mpmath.inf
        if beta == 0:
            return A * q / (1 - q)
        return A * (mpmath.zeta(beta) if q == 1 else mpmath.polylog(beta, q))
    return None


class TestRuleKindSweep:
    """Every numerator x denominator rule kind: a certified disc holds the 40-digit sum, and only divergent sums are refused."""

    def test_thousand_seeded_pairs_over_all_sixteen_kinds(self):
        rng = np.random.default_rng(2024)
        counts, certified = dict.fromkeys([(a, b) for a in KINDS for b in KINDS], 0), 0
        with mpmath.workdps(40):
            while min(counts.values()) < 63:
                pair = min(counts, key=counts.get)
                num, den = _rule(rng, pair[0], True), _rule(rng, pair[1], False)
                truth = _sweep_truth(num, den)
                if truth is None:
                    continue
                counts[pair] += 1
                if truth == mpmath.inf:
                    with pytest.raises(CertificationError):
                        weighted_ratio_sum(num, den)
                    continue
                s = weighted_ratio_sum(num, den)
                assert_encloses(s.total, s.remainder_bound, truth)
                certified += 1
        assert sum(counts.values()) >= 1000 and certified >= 673


class TestZetaSweep:
    def test_seeded_betas_up_to_a_million(self):
        rng = np.random.default_rng(7)
        betas = [1.0 + 10.0 ** float(e) for e in rng.uniform(-9.0, 6.0, 400)]
        with mpmath.workdps(40):
            for beta in [*betas, 1.0 + 2.0**-52, 2.0, 1e6]:
                value, radius = zeta(beta)
                assert_encloses(value, radius, mpmath.zeta(mpmath.mpf(beta)))
