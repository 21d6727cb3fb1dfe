"""The shared power table: cache bounds, read-only isolation, batched rewrites.

Every kernel sum reads n**(-z) from one cached log table and rule prefixes
from a memo, so these tests pin that nothing written by one caller reaches
another, that the caches stay bounded, and that the batched translate Gram,
symbol expansion and adjoint probe agree with the per-pair / per-symbol /
per-point loops they replaced, which are kept here as references.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dskernel import (
    AdmissibleSupport,
    ArrowheadMatrix,
    DeflatedMatrix,
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    GramModel,
    HalfPlane,
    RankOneMatrix,
    SequenceRule,
    TranslateSpan,
    adjoint_domain_probe,
    analytic_symbol,
    evaluate,
    expansion_check,
    kernel_eval,
    translate_gram,
)
from dskernel.rules import CACHE_LIMIT
from dskernel.series import log_table, power_sum, powers
from conftest import random_psd_dense

U = 2.0**-53


class TestLogTable:
    def test_values_and_read_only(self):
        L = log_table(1000)
        assert np.array_equal(L, np.log(np.arange(1, 1001, dtype=float)))
        with pytest.raises(ValueError):
            L[3] = 0.0

    def test_short_tables_share_one_cache(self):
        assert np.shares_memory(log_table(10), log_table(CACHE_LIMIT))

    def test_long_tables_are_fresh_and_leave_the_cache(self):
        cached = log_table(CACHE_LIMIT)
        deep = log_table(CACHE_LIMIT + 5)
        assert not deep.flags.writeable
        assert not np.shares_memory(deep, cached)
        assert not np.shares_memory(deep, log_table(CACHE_LIMIT + 5))
        assert np.shares_memory(log_table(CACHE_LIMIT), cached)
        assert deep[-1] == math.log(CACHE_LIMIT + 5)


class TestPowers:
    def test_real_exponent_takes_the_real_path(self):
        assert powers(2.5, 100).dtype == np.float64
        assert powers(2.5 + 0j, 100).dtype == np.float64
        assert powers(2.5 + 1j, 100).dtype == np.complex128

    @pytest.mark.parametrize("z", [2.5, -0.5, 1.1 + 3e3j, 0.7 - 1e9j])
    def test_within_the_rounding_model(self, z):
        mpmath = pytest.importorskip("mpmath")
        N = 2000
        p = powers(z, N)
        with mpmath.workdps(40):
            for n in (1, 2, 3, 97, 1024, N):
                truth = mpmath.power(n, -mpmath.mpc(complex(z).real, complex(z).imag))
                bound = U * (16 + 4 * abs(z) * math.log(n)) * abs(truth)
                assert abs(mpmath.mpc(complex(p[n - 1])) - truth) <= bound

    def test_output_is_a_new_writable_array(self):
        p = powers(3.0, 50)
        p[0] = 7.0
        assert powers(3.0, 50)[0] == 1.0

    @pytest.mark.parametrize("left, right", [(complex, float), (float, complex), (complex, complex),
                                             (float, float)])
    def test_power_sum_any_dtype_pair(self, left, right):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(40), rng.standard_normal(40)
        c = a.astype(left) * (1 + 0.5j if left is complex else 1)
        p = b.astype(right) * (1 - 0.25j if right is complex else 1)
        assert abs(power_sum(c, p) - complex(np.sum(c * p))) <= 1e-13 * np.sum(np.abs(c * p))


class TestRulePrefixMemo:
    def test_prefixes_are_read_only_views_of_one_memo(self):
        rule = SequenceRule("power", scale=2.0, exponent=0.5)
        long, short = rule.prefix(500), rule.prefix(20)
        assert np.shares_memory(long, short)
        for arr in (long, short, short.real):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.array_equal(short, 2.0 * np.arange(1, 21) ** 0.5)

    def test_long_prefixes_are_not_memoised(self):
        rule = SequenceRule("constant", scale=1.5)
        kept = rule.prefix(100)
        deep = rule.prefix(CACHE_LIMIT + 1)
        assert not deep.flags.writeable
        assert np.shares_memory(rule.prefix(100), kept)

    def test_memo_leaves_equality_and_hash(self):
        a, b = SequenceRule("geometric", ratio=0.5), SequenceRule("geometric", ratio=0.5)
        a.prefix(64)
        assert a == b and hash(a) == hash(b)


class TestCacheIsolation:
    def test_tail_override_never_reaches_the_shared_rule(self):
        tail = SequenceRule("power", scale=1.0, exponent=0.5)
        coupling = SequenceRule("constant", scale=0.2)
        head = np.eye(2, dtype=complex)
        plain = ArrowheadMatrix(2, head, coupling, tail)
        before = tail.prefix(40).copy()
        bent = plain.with_tail_override(5, 9.0)
        d = bent.tail_prefix(40)
        assert d[2] == 9.0 and d.flags.writeable
        assert not np.shares_memory(d, tail.prefix(40))
        bent.truncation(40)
        bent.partial_sum(2.0 + 1j, 2.5 - 1j, 40)
        assert np.array_equal(tail.prefix(40), before)
        assert np.array_equal(plain.tail_prefix(40), before[:38].real)
        T_plain, T_bent = plain.truncation(40), bent.truncation(40)
        diff = np.argwhere(T_plain != T_bent)
        assert diff.tolist() == [[4, 4]]
        assert T_plain[4, 4] == before[2] and T_bent[4, 4] == 9.0

    def test_shared_rule_keeps_independent_sections(self):
        tail = SequenceRule("constant", scale=1.0)
        coupling = SequenceRule("constant", scale=0.3)
        plain = ArrowheadMatrix(1, np.eye(1), coupling, tail)
        bent = plain.with_tail_override(3, 4.0)
        s, u = 2.2 + 0.3j, 2.4 - 0.1j
        first = plain.partial_sum(s, u, 200)
        bent.partial_sum(s, u, 200)
        assert plain.partial_sum(s, u, 200) == first
        assert bent.partial_sum(s, u, 200)[0] != first[0]

    @pytest.mark.parametrize("name", ["diagonal", "diagonal_powers", "arrowhead", "rank_one",
                                      "dense", "deflated"])
    def test_n_then_longer_then_n_is_identical(self, name):
        rng = np.random.default_rng(4)
        matrix = {
            "diagonal": lambda: DiagonalMatrix(SequenceRule("power", scale=1.1, exponent=-0.3)),
            "diagonal_powers": lambda: DiagonalMatrix(SequenceRule("constant", scale=1.0),
                                                      support=AdmissibleSupport("powers", base=3)),
            "arrowhead": lambda: ArrowheadMatrix(2, random_psd_dense(rng, 2), SequenceRule("constant", scale=0.2),
                                                 SequenceRule("constant", scale=1.0)),
            "rank_one": lambda: RankOneMatrix(rng.standard_normal(30) + 1j),
            "dense": lambda: DenseMatrix(random_psd_dense(rng, 30)),
            "deflated": lambda: DeflatedMatrix(DiagonalMatrix(SequenceRule("constant", scale=2.0))),
        }[name]()
        kern = DirichletKernel(matrix, HalfPlane(0.5))
        for s, u in ((2.1, 2.3), (2.1 + 40j, 2.3 - 1j)):
            first = kernel_eval(kern, s, u, 300)
            kernel_eval(kern, s, u, CACHE_LIMIT + 7)
            kernel_eval(kern, s, u, 40)
            again = kernel_eval(kern, s, u, 300)
            assert (again.value, again.error_radius) == (first.value, first.error_radius)


def pairwise_gram(span: TranslateSpan) -> np.ndarray:
    """The former translate_gram body: one phase vector per pair of offsets."""
    ns = span.support.indices_up_to(span.order).astype(float)
    diag = np.real(span.diagonal.prefix(span.order))[ns.astype(int) - 1]
    weights = diag * ns ** (-2.0 * span.a)
    logs = np.log(ns)
    offs = [float(b) for b in span.offsets]
    G = np.empty((len(offs), len(offs)), dtype=complex)
    for j in range(len(offs)):
        for k in range(j, len(offs)):
            G[j, k] = np.sum(weights * np.exp(-1j * (offs[j] - offs[k]) * logs))
            G[k, j] = np.conj(G[j, k])
    return G


class TestBatchedTranslateGram:
    @pytest.mark.parametrize("support, order, offsets", [
        (AdmissibleSupport("all"), 9000, ["0", "3/2", "-7/3", "5", "50", "-41/3"]),
        (AdmissibleSupport("all"), 3, ["0", "1/2"]),
        (AdmissibleSupport("powers", base=2), 5000, ["1", "2", "4"]),
        (AdmissibleSupport("generated", generators=(2, 3)), 20000, ["-9/2", "0", "1/7", "20"]),
    ])
    def test_matches_the_pairwise_loop_within_its_radius(self, support, order, offsets):
        span = TranslateSpan(a=1.1, offsets=tuple(Fraction(o) for o in offsets),
                             diagonal=SequenceRule("power", scale=0.8, exponent=0.3),
                             support=support, order=order, rho=0.5)
        gram = translate_gram(span)
        assert np.max(np.abs(gram.matrix - pairwise_gram(span))) <= gram.entry_radius
        assert np.array_equal(gram.matrix, gram.matrix.conj().T)

    @pytest.mark.parametrize("offsets, a", [
        ((Fraction(10**6), Fraction(10**6 + 3), Fraction(-(10**6))), 1.5),
        # far from zero but close together: the rounding radius prices the
        # spread only, so the phases must be taken relative to the offsets' centre
        ((Fraction(10**9), Fraction(10**9 + 3), Fraction(7 * 10**9 + 1, 7)), 3.0),
    ])
    def test_entries_against_zeta_with_large_offsets(self, offsets, a):
        mpmath = pytest.importorskip("mpmath")
        span = TranslateSpan(a=a, offsets=offsets, diagonal=SequenceRule("constant", scale=1.0),
                             support=AdmissibleSupport("all"), order=3000, rho=0.5)
        gram = translate_gram(span)
        with mpmath.workdps(30):
            for j, bj in enumerate(offsets):
                for k, bk in enumerate(offsets):
                    d = bj - bk
                    truth = mpmath.zeta(mpmath.mpc(2 * a, mpmath.mpf(d.numerator) / d.denominator))
                    assert abs(mpmath.mpc(complex(gram.matrix[j, k])) - truth) <= gram.entry_radius


def per_symbol_expansion(kernel, s, u, order) -> complex:
    """The former expansion_check right-hand side: one series object per symbol."""
    ub = np.conj(complex(u))
    return sum(evaluate(analytic_symbol(kernel.matrix, n, order=order).series, s, order).value
               * float(n) ** (-ub) for n in range(1, order + 1))


class TestBatchedExpansion:
    @pytest.mark.parametrize("name", ["diagonal", "dense", "arrowhead"])
    def test_agrees_with_the_per_symbol_sum(self, name):
        rng = np.random.default_rng(8)
        matrix = {
            "diagonal": DiagonalMatrix(SequenceRule("constant", scale=1.3)),
            "dense": DenseMatrix(random_psd_dense(rng, 7)),
            "arrowhead": ArrowheadMatrix(2, random_psd_dense(rng, 2), SequenceRule("constant", scale=0.2),
                                         SequenceRule("constant", scale=1.0)),
        }[name]
        kern = DirichletKernel(matrix, HalfPlane(0.5))
        s, u, order = 2.1 + 0.7j, 1.9 - 0.4j, 60
        lhs = kernel_eval(kern, s, u, order)
        assert abs(lhs.value - per_symbol_expansion(kern, s, u, order)) <= 1e-13 * (1 + abs(lhs.value))
        assert expansion_check(kern, s, u, order) <= 1e-13 * (1 + abs(lhs.value))


class TestBatchedAdjointProbe:
    def test_functional_matches_the_per_point_loop(self):
        h = np.array([1.0, 0.5 - 0.25j, 0.0, 2.0])
        a, bs = 1.3, np.linspace(-6, 6, 37)
        n = np.arange(1, h.size + 1, dtype=float)
        expected = -1j * bs * np.array([np.sum(h * n ** (-(a + 1j * b))) for b in bs])
        rep = adjoint_domain_probe(h, a, bs)
        assert np.max(np.abs(np.array(rep.functional) - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestGramModelPowers:
    def test_section_value_is_complex_and_matches(self):
        model = GramModel(DiagonalMatrix(SequenceRule("constant", scale=1.0)), 50)
        for t in (2.0, 2.0 - 3j):
            v = model.section_value(t)
            assert v.dtype == np.complex128
            n = np.arange(1, 51, dtype=float)
            assert np.max(np.abs(v - n ** (-np.conj(t)))) <= 1e-14
