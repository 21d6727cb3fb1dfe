"""Translate spans, exact homogeneity, Gram matrices, adjoint diagnostics."""

import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dskernel import homogeneous
from dskernel.series import em_start, exponent_sum, power_tail_bound
from dskernel import (
    AdmissibleSupport,
    ExactComplex,
    SequenceRule,
    SpecError,
    TranslateSpan,
    adjoint_condition_check,
    admissibility_check,
    apply_generator,
    apply_shift,
    homogeneity_residual,
    span_vector,
    translate_gram,
)


def ones_span(offsets, order=10000, a=1.0) -> TranslateSpan:
    return TranslateSpan(
        a=a,
        offsets=tuple(Fraction(o) for o in offsets),
        diagonal=SequenceRule("constant", scale=1.0),
        support=AdmissibleSupport("all"),
        order=order,
        rho=0.5,
    )


def searched_admissibility(support: AdmissibleSupport, M: int) -> tuple:
    """(admissible, closed, coprime pair) by a search over the members up to M: the reference for the
    closed-form ``admissibility_check``, which agrees with it once M covers the generators and elements."""
    members = [int(n) for n in support.indices_up_to(M) if n != 1]
    in_support = set(members)  # a product of two members is at least 4: 1 need not be in it
    closed = all(m * n in in_support for i, m in enumerate(members) for n in members[i : bisect_right(members, M // m)])
    pair = next(((p, q) for i, p in enumerate(members) for q in members[i + 1 :] if math.gcd(p, q) == 1), None)
    return closed and pair is not None, closed, pair


def random_support(rng) -> AdmissibleSupport:
    kind = ("powers", "generated", "explicit")[int(rng.integers(3))]
    if kind == "powers":
        return AdmissibleSupport("powers", base=int(rng.integers(2, 61)))
    if kind == "generated":
        return AdmissibleSupport("generated", generators=tuple(rng.integers(2, 61, int(rng.integers(1, 5))).tolist()))
    return AdmissibleSupport("explicit", elements=tuple(rng.integers(-2, 61, int(rng.integers(1, 9))).tolist()))


class TestAdmissibility:
    def test_full_support(self):
        rep = admissibility_check(AdmissibleSupport("all"))
        assert rep.admissible and rep.multiplicatively_closed
        assert rep.coprime_pair == (2, 3)

    def test_powers_of_two_lack_coprime_pair(self):
        rep = admissibility_check(AdmissibleSupport("powers", base=2))
        assert rep.multiplicatively_closed
        assert rep.coprime_pair is None
        assert not rep.admissible

    def test_two_three_generated(self):
        rep = admissibility_check(AdmissibleSupport("generated", generators=(2, 3)))
        assert rep.admissible
        assert rep.coprime_pair == (2, 3)

    def test_explicit_non_closed(self):
        rep = admissibility_check(AdmissibleSupport("explicit", elements=(2, 3, 5)))
        assert not rep.multiplicatively_closed  # 2*3 = 6 missing

    def test_generators_coprime_beyond_any_cutoff(self):
        """(50, 77) has no member pair below 20, where a search at the span order found none."""
        rep = admissibility_check(AdmissibleSupport("generated", generators=(77, 50)))
        assert rep == homogeneous.AdmissibilityReport(True, True, (50, 77))
        assert searched_admissibility(AdmissibleSupport("generated", generators=(50, 77)), 20) == (False, True, None)

    def test_explicit_products_beyond_the_cutoff_are_missing(self):
        # 100 * 100 = 10,000 lies past a search at 4,096, which found the list closed
        rep = admissibility_check(AdmissibleSupport("explicit", elements=(100, 101)))
        assert rep == homogeneous.AdmissibilityReport(False, False, (100, 101))
        assert searched_admissibility(AdmissibleSupport("explicit", elements=(100, 101)), 4096)[1]

    def test_explicit_element_beyond_a_double(self):
        rep = admissibility_check(AdmissibleSupport("explicit", elements=(2**70, 3)))
        assert rep == homogeneous.AdmissibilityReport(False, False, (3, 2**70))

    def test_equals_the_search_on_seeded_supports(self):
        rng = np.random.default_rng(32)
        supports = [AdmissibleSupport("all"), *(random_support(rng) for _ in range(3000))]
        assert {sup.kind for sup in supports} == {"all", "powers", "generated", "explicit"}
        for sup in supports:
            rep = admissibility_check(sup)
            assert (rep.admissible, rep.multiplicatively_closed, rep.coprime_pair) == searched_admissibility(sup, 4096)

    def test_even_elements_answer_without_a_pair_search(self):
        rep = admissibility_check(AdmissibleSupport("explicit", elements=tuple(range(2, 200_002, 2))))
        assert rep == homogeneous.AdmissibilityReport(False, False, None)


def is_member(support: AdmissibleSupport, n: int) -> bool:
    """Membership by division, one n at a time: the loop reference for indices_up_to."""
    if support.kind in ("all", "explicit"):
        return n >= 1 and (support.kind == "all" or n in support.elements)
    # search every chain of divisions: dividing greedily by the
    # largest generator misses products such as 900 = 6 * 10 * 15
    generators = (support.base,) if support.kind == "powers" else support.generators
    stack, seen = [n], set()
    while stack:
        x = stack.pop()
        if x == 1:
            return True
        if x not in seen:
            seen.add(x)
            stack.extend(x // g for g in generators if x % g == 0)
    return False


class TestSupportMembers:
    """indices_up_to builds the members directly; is_member is the loop reference."""

    SUPPORTS = [
        AdmissibleSupport("all"),
        AdmissibleSupport("powers", base=2),
        AdmissibleSupport("powers", base=7),
        AdmissibleSupport("generated", generators=(2, 3)),
        AdmissibleSupport("generated", generators=(3, 5, 7)),
        AdmissibleSupport("generated", generators=(6, 10, 15)),
        AdmissibleSupport("generated", generators=(4, 2)),
        AdmissibleSupport("explicit", elements=(5, 3, 3, 4999, 5000, 5001, 0, -2)),
        AdmissibleSupport("explicit", elements=(17, 40, 2 ** 40)),
    ]

    @pytest.mark.parametrize("support", SUPPORTS, ids=lambda sup: f"{sup.kind}")
    @pytest.mark.parametrize("M", [0, 1, 2, 3, 16, 899, 900, 5000])
    def test_matches_contains_loop(self, support, M):
        ref = np.array([n for n in range(1, M + 1) if is_member(support, n)], dtype=int)
        got = support.indices_up_to(M)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    def test_below_first_member_is_empty(self):
        assert AdmissibleSupport("explicit", elements=(17, 40)).indices_up_to(16).size == 0

    def test_generated_products_sharing_factors(self):
        # 900 = 6 * 10 * 15; dividing by the largest generator first strands 4
        sup = AdmissibleSupport("generated", generators=(6, 10, 15))
        assert is_member(sup, 900) and 900 in sup.indices_up_to(900)
        assert not is_member(sup, 4) and 4 not in sup.indices_up_to(4)

    @pytest.mark.parametrize("generators", [(1,), (2, 0), (3, -2)])
    def test_generators_below_two_refused(self, generators):
        with pytest.raises(SpecError):
            AdmissibleSupport("generated", generators=generators)


class TestTranslateGram:
    def test_single_offset_matches_zeta2(self):
        span = ones_span(["0"], order=2_000_000)
        gram = translate_gram(span)
        assert abs(gram.matrix[0, 0].real - math.pi**2 / 6.0) < 1e-6
        assert gram.entry_radius < 1e-6

    def test_no_term_below_the_order_is_the_zero_gram(self):
        span = TranslateSpan(a=1.0, offsets=(Fraction(0), Fraction(1)), diagonal=SequenceRule("constant", scale=1.0),
                             support=AdmissibleSupport("explicit", elements=(17, 40)), order=10)
        gram = translate_gram(span)
        assert not gram.matrix.any() and not gram.independent

    def test_duplicate_offsets_refused(self):
        with pytest.raises(SpecError):
            ones_span(["1/2", "1/2"])

    def test_independence_at_four_offsets(self):
        span = ones_span(["0", "3/2", "-7/3", "5"], order=20000)
        gram = translate_gram(span)
        assert gram.min_eigenvalue > 0
        assert gram.independent

    def test_shift_leaves_gram_invariant(self):
        offsets = ["0", "3/2", "-7/3", "5"]
        span = ones_span(offsets, order=5000)
        shifted = ones_span([Fraction(o) + Fraction(9, 7) for o in offsets], order=5000)
        g0 = translate_gram(span).matrix
        g1 = translate_gram(shifted).matrix
        assert np.max(np.abs(g0 - g1)) < 1e-12

    def test_conditioning_decays_as_offsets_cluster(self):
        eigs = []
        for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
            span = ones_span([0, eps, 2 * eps, 3 * eps], order=2000)
            eigs.append(translate_gram(span).min_eigenvalue)
        assert eigs[0] > eigs[1] > eigs[2] > 0

    def test_entry_discs_contain_zeta_with_rounding_priced(self):
        # at these parameters the tail bound alone leaves the diagonal entry
        # about 4e-17 outside its disc; the summation rounding closes the gap
        import mpmath
        a, scale = 1.195217806810569, 0.8041855120340046
        offsets = (Fraction(0), Fraction(1))
        span = TranslateSpan(a=a, offsets=offsets, diagonal=SequenceRule("constant", scale=scale),
                             support=AdmissibleSupport("all"), order=20000, rho=0.5)
        gram = translate_gram(span)
        with mpmath.workdps(30):
            for j, bj in enumerate(offsets):
                for k, bk in enumerate(offsets):
                    truth = scale * mpmath.zeta(mpmath.mpc(2 * a, float(bj - bk)))
                    assert abs(mpmath.mpc(gram.matrix[j, k]) - truth) <= gram.entry_radius


    def test_explicit_diagonal_past_its_length_has_no_tail(self):
        d, offsets, a = (1.0, 0.5, 0.25), (Fraction(0), Fraction(1)), 0.9
        span = TranslateSpan(a=a, offsets=offsets, diagonal=SequenceRule("explicit", values=d),
                             support=AdmissibleSupport("all"), order=10)
        gram = translate_gram(span)
        assert gram.entry_radius <= 1e-12 and gram.independent
        with mpmath.workdps(30):
            for j, bj in enumerate(offsets):
                for k, bk in enumerate(offsets):
                    z = mpmath.mpc(2 * a, float(bj - bk))
                    truth = mpmath.fsum(dn * mpmath.power(n, -z) for n, dn in enumerate(d, 1))
                    assert abs(mpmath.mpc(gram.matrix[j, k]) - truth) <= gram.entry_radius

    def test_growing_diagonal_has_no_envelope(self):
        span = TranslateSpan(a=1.0, offsets=(Fraction(0), Fraction(1)),
                             diagonal=SequenceRule("geometric", scale=1.0, ratio=1.5),
                             support=AdmissibleSupport("all"), order=40)
        gram = translate_gram(span)
        assert gram.entry_radius == math.inf and not gram.independent


class TestGramTails:
    """The Euler-Maclaurin Gram path of an unmasked constant or power diagonal, priced on its own."""

    @staticmethod
    def span(a, rule, offsets, order):
        return TranslateSpan(a=a, offsets=offsets, diagonal=rule, support=AdmissibleSupport("all"),
                             order=order, rho=0.5)

    @staticmethod
    def start(span):
        """K = em_start at the widest pair, with N large enough for Euler-Maclaurin."""
        law = span.diagonal.power_law()
        s, _ = exponent_sum(2.0 * span.a, -law[1])
        return em_start(complex(s.real, float(max(span.offsets) - min(span.offsets))), 1, 10**9)

    @staticmethod
    def rounding(span, gram):
        """entry_radius less the envelope tail bound, exactly: the radius of the order-N partial sum."""
        C, p = span.diagonal.poly_bound()
        return mpmath.mpf(gram.entry_radius) - mpmath.mpf(C * power_tail_bound(span.order, 2.0 * span.a - p))

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_are_the_partial_zeta_sums_on_both_sides_of_the_switch(self, seed):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(0.8, 3.0))
        scale = float(rng.uniform(0.5, 2.0))
        if seed % 2:
            p = float(rng.uniform(-0.5, min(0.5, 2.0 * a - 1.1)))
            rule = SequenceRule("power", scale=scale, exponent=p)
        else:
            p, rule = 0.0, SequenceRule("constant", scale=scale)
        offsets = (Fraction(-500), Fraction(500), *(Fraction(int(rng.integers(-500, 501)), int(rng.integers(1, 8)))
                                                    for _ in range(3)))
        K = self.start(self.span(a, rule, offsets, 10**9))
        grams, radii = {}, {}
        for N in (K + 512, K + 513):  # the last direct order, the first Euler-Maclaurin one
            span = self.span(a, rule, offsets, N)
            assert (em_start(complex(2.0 * a - p, 1000.0), 1, N) <= N) == (N == K + 513)
            gram = translate_gram(span)
            grams[N], radii[N] = gram.matrix, self.rounding(span, gram)
            assert 0 < radii[N] < 1e-9
            with mpmath.workdps(30):
                for j, bj in enumerate(offsets):
                    for k, bk in enumerate(offsets):
                        d = bj - bk
                        z = mpmath.mpf(2.0 * a) - mpmath.mpf(p) + 1j * mpmath.mpf(d.numerator) / d.denominator
                        truth = scale * (mpmath.zeta(z) - mpmath.zeta(z, N + 1))
                        assert abs(mpmath.mpc(gram.matrix[j, k]) - truth) <= radii[N]
        # the two sides differ by the term n = K + 513 alone
        with mpmath.workdps(30):
            for j, bj in enumerate(offsets):
                for k, bk in enumerate(offsets):
                    d = bj - bk
                    z = mpmath.mpf(2.0 * a) - mpmath.mpf(p) + 1j * mpmath.mpf(d.numerator) / d.denominator
                    step = scale * mpmath.power(K + 513, -z)
                    gap = mpmath.mpc(grams[K + 513][j, k]) - mpmath.mpc(grams[K + 512][j, k]) - step
                    assert abs(gap) <= radii[K + 512] + radii[K + 513]

    def test_single_offset_switches_at_the_real_threshold(self):
        rule = SequenceRule("constant", scale=1.0)
        K = self.start(self.span(1.0, rule, (Fraction(0),), 10**9))
        for N in (K + 6144, K + 6145):
            span = self.span(1.0, rule, (Fraction(0),), N)
            gram = translate_gram(span)
            with mpmath.workdps(30):
                truth = mpmath.zeta(2) - mpmath.zeta(2, N + 1)
            assert abs(mpmath.mpf(gram.matrix[0, 0].real) - truth) <= self.rounding(span, gram)

    @pytest.mark.parametrize("rule", [SequenceRule("constant", scale=1.0),
                                      SequenceRule("power", scale=0.5, exponent=-0.25)], ids=["constant", "power"])
    def test_order_two_million_reads_no_table_beyond_the_head(self, monkeypatch, rule):
        rng = np.random.default_rng(7)
        offsets = tuple(sorted({Fraction(int(rng.integers(-700, 701)), int(rng.integers(1, 8))) for _ in range(64)}))
        span = self.span(1.0, rule, offsets, 2 * 10**6)
        K = self.start(span)

        def guarded(f):
            def g(*args):
                assert args[-1] <= K, f"asked for {args[-1]} entries, the head has {K}"
                return f(*args)
            return g

        for name in ("log_table", "powers"):
            monkeypatch.setattr(homogeneous, name, guarded(getattr(homogeneous, name)))
        monkeypatch.setattr(SequenceRule, "prefix", guarded(SequenceRule.prefix))
        gram = translate_gram(span)
        assert K < 3000 and gram.independent
        assert gram.entry_radius < 1e-6


class TestSpanOperators:
    def test_generator_eigenvalue(self):
        span = ones_span(["2"], order=16)
        out = apply_generator(span, span_vector({2: 1}))
        assert out == {Fraction(2): ExactComplex(Fraction(0), Fraction(2))}

    def test_generator_kills_zero_offset(self):
        span = ones_span(["0"], order=16)
        assert apply_generator(span, span_vector({0: 1})) == {}

    def test_generator_linear_combination(self):
        span = ones_span(["1", "-1"], order=16)
        v = span_vector({Fraction(1): 1, Fraction(-1): 1})
        out = apply_generator(span, v)
        assert out == {
            Fraction(1): ExactComplex(Fraction(0), Fraction(1)),
            Fraction(-1): ExactComplex(Fraction(0), Fraction(-1)),
        }

    def test_generator_refuses_unknown_label(self):
        span = ones_span(["1"], order=16)
        with pytest.raises(SpecError):
            apply_generator(span, span_vector({2: 1}))

    def test_shift_moves_labels(self):
        v = span_vector({2: 1})
        assert apply_shift(1, v) == span_vector({3: 1})
        assert apply_shift(0, v) == v

    def test_shift_group_law(self):
        v = span_vector({Fraction(1, 3): 2 + 1j, Fraction(-5, 7): -1})
        c = Fraction(9, 11)
        assert apply_shift(-c, apply_shift(c, v)) == v


class TestHomogeneity:
    def test_worked_pair(self):
        # U_1 T d_2 = 2i d_3; (T - i) d_3 = 3i d_3 - i d_3 = 2i d_3
        assert homogeneity_residual(1, 2) == {}

    def test_zero_shift(self):
        assert homogeneity_residual(0, 5) == {}

    def test_thousand_random_rationals_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            c = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 17)))
            b = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 17)))
            assert homogeneity_residual(c, b) == {}

    def test_float_offsets_are_exactified(self):
        # binary floats carry exact Fraction values, so the identity survives
        assert homogeneity_residual(0.3, 0.1) == {}

    @staticmethod
    def rebuilt(c, b, sign=-1):
        """U_c T delta_b - (T + sign icI) U_c delta_b from the span operators, coefficient by coefficient."""
        T = lambda v: {x: coef.times_imag(x) for x, coef in v.items()}
        shifted = apply_shift(c, span_vector({b: 1}))
        lhs, rhs = apply_shift(c, T(span_vector({b: 1}))), T(shifted)
        zero, out = ExactComplex(), {}
        for x in set(lhs) | set(rhs):
            l, r, s = lhs.get(x, zero), rhs.get(x, zero), shifted.get(x, zero).times_imag(sign * Fraction(c))
            out[x] = ExactComplex(l.re - r.re - s.re, l.im - r.im - s.im)
        return span_vector(out)

    def test_closed_form_matches_the_operators(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            c = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
            b = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
            assert self.rebuilt(c, b) == homogeneity_residual(c, b) == {}
            # negative control: T + icI breaks the relation by -2ic at b + c
            if c:
                assert self.rebuilt(c, b, sign=1) == {b + c: ExactComplex(Fraction(0), -2 * c)}


class TestRealDiagonal:
    """A Gram diagonal must be real: a value with a non-zero imaginary part is refused, not read by its real part."""

    NOT_REAL = [SequenceRule("constant", scale=1 + 1j), SequenceRule("power", scale=2 - 0.5j, exponent=-0.5),
                SequenceRule("explicit", values=(1.0, 0.5, 0.25 + 1e-3j, 0.125))]

    @staticmethod
    def span(rule) -> TranslateSpan:
        return TranslateSpan(a=1.0, offsets=(Fraction(0), Fraction(1)), diagonal=rule,
                             support=AdmissibleSupport("all"), order=20000, rho=0.5)

    @pytest.mark.parametrize("rule", NOT_REAL)
    def test_gram_refuses(self, rule):
        with pytest.raises(SpecError, match="real"):
            translate_gram(self.span(rule))

    @pytest.mark.parametrize("rule", NOT_REAL)
    def test_adjoint_condition_refuses(self, rule):
        with pytest.raises(SpecError, match="real"):
            adjoint_condition_check(self.span(rule), 0.25)

    @pytest.mark.parametrize("kind, extra", [("constant", {}), ("power", {"exponent": -0.5})])
    def test_complex_typed_real_scale_is_accepted(self, kind, extra):
        real, typed = (SequenceRule(kind, scale=s, **extra) for s in (2.0, 2 + 0j))
        g, h = translate_gram(self.span(real)), translate_gram(self.span(typed))
        assert np.array_equal(g.matrix, h.matrix) and g.entry_radius == h.entry_radius
        rep = adjoint_condition_check(self.span(typed), 0.25)
        assert rep == adjoint_condition_check(self.span(real), 0.25)


class TestAdjointCondition:
    @pytest.mark.parametrize("scale, message", [(-1.0, "non-negative"), (1j, "real")])
    def test_the_scale_decides_the_refusal(self, scale, message):
        """Every value of a non-explicit rule is its scale times a positive number: no prefix is formed."""
        span = TranslateSpan(a=1.0, offsets=(Fraction(0),), diagonal=SequenceRule("constant", scale=scale),
                             support=AdmissibleSupport("all"), order=4_000_000, rho=0.5)
        with pytest.raises(SpecError, match=message):
            adjoint_condition_check(span, 0.25)

    def test_explicit_values_are_scanned_to_their_length(self):
        rule = SequenceRule("explicit", values=(1.0, 0.5, -0.25))
        span = TranslateSpan(a=1.0, offsets=(Fraction(0),), diagonal=rule, support=AdmissibleSupport("all"),
                             order=4_000_000, rho=0.5)
        with pytest.raises(SpecError, match="non-negative"):
            adjoint_condition_check(span, 0.25)

    def test_a_deep_constant_diagonal_forms_no_prefix(self):
        """At order 4e6 the ζ path needs no term of the diagonal: the check's peak stays under 16 MB, where the
        whole prefix of 4e6 complex values alone is 64 MB."""
        span = ones_span(["0"], order=4_000_000)
        tracemalloc.start()
        try:
            rep = adjoint_condition_check(span, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "finite" and peak < 16e6
        assert abs(mpmath.mpc(rep.kernel_value) - mpmath.zeta(1.5)) <= rep.kernel_radius

    def test_ones_quarter_delta(self):
        rep = adjoint_condition_check(ones_span(["0"], order=1000), 0.25)
        assert rep.verdict == "finite"
        assert set(vars(rep)) == {"verdict", "exponent", "remainder_bound", "kernel_value", "kernel_radius"}
        # the sum is sum n**-1.5 = zeta(3/2) = 2.612..., which the kernel's one disc holds
        assert rep.kernel_radius is not None and rep.kernel_radius >= rep.remainder_bound
        assert abs(mpmath.mpc(rep.kernel_value) - mpmath.zeta(1.5)) <= rep.kernel_radius

    def test_divergent_boundary(self):
        rep = adjoint_condition_check(ones_span(["0"], order=500), 0.6)
        assert rep.verdict == "divergent"
        assert abs(rep.exponent - (-0.8)) < 1e-15
        assert rep.kernel_value is None and rep.kernel_radius is None  # a - delta = 0.4 is not past rho = 0.5

    def test_explicit_diagonal_to_its_length_is_finite(self):
        # the envelope exponent 2 delta - 2a = -0.8 alone would not decide: the support ends at 3
        d = (1.0, 0.5, 0.25)
        span = TranslateSpan(a=0.9, offsets=(Fraction(0),), diagonal=SequenceRule("explicit", values=d),
                             support=AdmissibleSupport("all"), order=3)
        rep = adjoint_condition_check(span, 0.5)
        assert rep.verdict == "finite" and rep.remainder_bound == 0.0
        assert abs(rep.exponent - (-0.8)) < 1e-15
        truth = math.fsum(dn * n**-0.8 for n, dn in enumerate(d, 1))
        assert abs(rep.kernel_value - truth) <= rep.kernel_radius

    @pytest.mark.parametrize("support, nonzero", [
        (AdmissibleSupport("all"), (1, 3, 5, 7)),
        (AdmissibleSupport("generated", generators=(2, 3)), (1, 3)),
        (AdmissibleSupport("explicit", elements=(2, 3, 4, 7, 9)), (3, 7)),
    ])
    def test_zero_values_leave_the_support(self, support, nonzero):
        """Support S and the explicit support S and {n : a_n != 0} give one Gram and one adjoint report."""
        rule = SequenceRule("explicit", values=(1.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.125))
        twin = AdmissibleSupport("explicit", elements=nonzero)
        offsets = (Fraction(0), Fraction(1, 3), Fraction(-2))
        g, h = (TranslateSpan(a=2.0, offsets=offsets, diagonal=rule, support=s, order=10) for s in (support, twin))
        assert np.array_equal(translate_gram(g).matrix, translate_gram(h).matrix)
        assert translate_gram(g).entry_radius == translate_gram(h).entry_radius
        rep = adjoint_condition_check(g, 0.5)
        assert rep.verdict == "finite" and rep == adjoint_condition_check(h, 0.5)
