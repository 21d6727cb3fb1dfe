"""The shared power table: cache bounds, read-only isolation, batched rewrites.

Every kernel sum reads n**(-z) from one cached log table and rule prefixes
from a memo, so these tests pin that nothing written by one caller reaches
another, that the caches stay bounded, and that the batched translate Gram
and symbol expansion agree with the per-pair / per-symbol loops they
replaced, which are kept here as references.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dskernel import (
    AdmissibleSupport,
    ArrowheadMatrix,
    BandedMatrix,
    DeflatedMatrix,
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    GramModel,
    HalfPlane,
    RankOneMatrix,
    SequenceRule,
    TranslateSpan,
    analytic_symbol,
    evaluate,
    expansion_check,
    kernel_eval,
    translate_gram,
)
from dskernel.series import CACHE_LIMIT, log_table, power_sum, powers
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
        import mpmath
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
        import mpmath
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
    @pytest.mark.parametrize("name", ["diagonal", "dense", "arrowhead", "banded", "rank_one", "deflated",
                                      "masked_diagonal"])
    def test_agrees_with_the_per_symbol_sum(self, name):
        rng = np.random.default_rng(8)
        dense, head, banded = random_psd_dense(rng, 7), random_psd_dense(rng, 2), random_psd_dense(rng, 9)
        m, n = np.indices(banded.shape)
        banded[np.abs(m - n) > 2] = 0.0
        matrix = {
            "diagonal": DiagonalMatrix(SequenceRule("constant", scale=1.3)),
            "dense": DenseMatrix(dense),
            "arrowhead": ArrowheadMatrix(2, head, SequenceRule("constant", scale=0.2), SequenceRule("constant", scale=1.0)),
            "banded": BandedMatrix(2, banded),
            "rank_one": RankOneMatrix(rng.standard_normal(11) + 1j * rng.standard_normal(11)),
            "deflated": DeflatedMatrix(ArrowheadMatrix(2, head + np.eye(2), SequenceRule("geometric", scale=0.3, ratio=0.5),
                                                       SequenceRule("power", scale=1.0, exponent=-0.5))),
            "masked_diagonal": DiagonalMatrix(SequenceRule("power", scale=0.8, exponent=0.25),
                                              support=AdmissibleSupport("powers", base=3)),
        }[name]
        kern = DirichletKernel(matrix, HalfPlane(0.5))
        s, u, order = 2.1 + 0.7j, 1.9 - 0.4j, 60
        lhs = kernel_eval(kern, s, u, order)
        assert abs(lhs.value - per_symbol_expansion(kern, s, u, order)) <= 1e-13 * (1 + abs(lhs.value))
        assert expansion_check(kern, s, u, order) <= 1e-13 * (1 + abs(lhs.value))

    @pytest.mark.parametrize("name", ["dense", "rank_one"])
    def test_memory_grows_with_the_order_not_its_square(self, name):
        """A stored block scatters its own nonzeros; a rank-one matrix, whose coordinate view is its dense
        section, takes the columns one at a time: either way no order x order array is formed."""
        rng, order = np.random.default_rng(3), 4000
        matrix = DenseMatrix(random_psd_dense(rng, 7)) if name == "dense" else RankOneMatrix(rng.standard_normal(50))
        kern = DirichletKernel(matrix, HalfPlane(0.5))
        expansion_check(kern, 2.1 + 0.7j, 1.9 - 0.4j, 2)  # the cached log table is formed outside the trace
        tracemalloc.start()
        try:
            residual = expansion_check(kern, 2.1 + 0.7j, 1.9 - 0.4j, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-13 and peak < 2**20


class TestGramModelPowers:
    def test_section_value_is_complex_and_matches(self):
        model = GramModel(DiagonalMatrix(SequenceRule("constant", scale=1.0)), 50)
        for t in (2.0, 2.0 - 3j):
            v = model.section_value(t)
            assert v.dtype == np.complex128
            n = np.arange(1, 51, dtype=float)
            assert np.max(np.abs(v - n ** (-np.conj(t)))) <= 1e-14
