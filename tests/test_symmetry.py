"""Invariance under translations and the linear subgroup, quasi-invariance classification."""

import math

import numpy as np
import pytest

from dskernel import (
    CertificationError,
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    HalfPlane,
    HermitianError,
    RankOneMatrix,
    SequenceRule,
    SpecError,
    kernel_eval,
    linear_invariance_test,
    psd_check,
    quasi_invariance_classify,
    rank_one_factor,
    translation_invariance_test,
)
from dskernel import symmetry
from dskernel.kernel import support_pattern
from dskernel.symmetry import LinearInvarianceReport, _dominance_sigma
from conftest import dense_kernel, rank_one_kernel


class TestRankOneFactor:
    def test_recovers_up_to_phase(self):
        f = np.array([0.5, 1.0, 0.0, -0.25 + 0.4j])
        m = RankOneMatrix(f)
        got = rank_one_factor(m, 4)
        assert got is not None
        assert np.max(np.abs(np.outer(got, np.conj(got)) - m.truncation(4))) < 1e-10

    def test_rank_two_diagonal_is_none(self):
        m = DenseMatrix(np.eye(2, dtype=complex))
        assert rank_one_factor(m, 2) is None

    def test_zero_matrix(self):
        got = rank_one_factor(DenseMatrix(np.zeros((3, 3))), 3)
        assert np.all(got == 0)

    def test_non_self_adjoint_raises_as_psd_check_does(self):
        m = DenseMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(HermitianError) as from_psd:
            psd_check(m, 2)
        with pytest.raises(HermitianError) as from_factor:
            rank_one_factor(m, 2)
        with pytest.raises(HermitianError) as from_classify:
            quasi_invariance_classify(DirichletKernel(m, HalfPlane(0.0)), 2)
        assert str(from_factor.value) == str(from_classify.value) == str(from_psd.value)


def assert_linear_shares_the_witness(kern, order: int, rep) -> None:
    """An off-diagonal kernel: the translation test draws no sample, and ``linear_invariance_test`` at the same
    tol reports its witness, the same b, s, u and violation, since the translations lie in the linear subgroup."""
    w = rep.witness
    assert not rep.structural_diagonal and rep.samples == 0 and w is not None
    lin = linear_invariance_test(kern, order, tol=1e-6)
    assert not lin.constant and not lin.invariant
    assert (lin.witness_kind, lin.witness_param, lin.witness_point, lin.violation) == (
        "translation", w.b, (w.s, w.u), w.violation)


class TestTranslationInvariance:
    def test_diagonal_ones_invariant(self, diag_ones_kernel):
        rep = translation_invariance_test(diag_ones_kernel, 64, tol=1e-6)
        assert rep.invariant and rep.structural_diagonal
        assert rep.witness is None and rep.samples == 20

    @pytest.mark.parametrize("entries, invariant", [(np.eye(2), True), ([[1e-7, 9e-7], [9e-7, 1e-7]], False)])
    def test_samples_count_the_translations_drawn(self, monkeypatch, entries, invariant):
        """Each sample is two ``kernel_eval`` calls; a witness ends the sampling, and the report says when.
        The second kernel's entries are all below tol, so its pattern is diagonal."""
        calls = []
        monkeypatch.setattr(symmetry, "kernel_eval", lambda *args: calls.append(args) or kernel_eval(*args))
        rep = translation_invariance_test(dense_kernel(entries), 2)
        assert rep.structural_diagonal and rep.invariant == invariant and (rep.witness is None) == invariant
        assert len(calls) == 2 * rep.samples and (rep.samples == 20) == invariant

    def test_off_diagonal_kernel_draws_no_sample(self):
        kern = DirichletKernel(DenseMatrix([[1, 0.5], [0.5, 1]]), HalfPlane(0.0))
        rep = translation_invariance_test(kern, 2)
        assert not rep.invariant and rep.samples == 0
        assert_linear_shares_the_witness(kern, 2, rep)

    def test_rank_one_with_offdiagonal_witness(self):
        kern = rank_one_kernel([1.0, 1.0])
        rep = translation_invariance_test(kern, 8, tol=1e-6)
        assert not rep.invariant and not rep.structural_diagonal
        assert rep.witness is not None
        assert rep.witness.violation > 1e-6
        # the witness translation comes from the (1,2) entry: b = pi/log 2
        assert abs(abs(rep.witness.b) - math.pi / math.log(2.0)) < 1e-9
        assert_linear_shares_the_witness(kern, 8, rep)

    def test_zero_kernel_invariant(self):
        rep = translation_invariance_test(dense_kernel(np.zeros((4, 4))), 4)
        assert rep.invariant

    def test_witness_entry_comes_first_by_product_then_row(self):
        # (2, 3), (3, 2), (1, 6) and (6, 1) all have m n = 6: the smallest m, (1, 6), leads
        A = np.eye(6)
        for m, n in ((2, 3), (3, 2), (1, 6), (6, 1)):
            A[m - 1, n - 1] = 0.3
        rep = translation_invariance_test(dense_kernel(A), 6, tol=1e-6)
        assert rep.witness is not None and rep.witness.b == math.pi / math.log(1 / 6)
        assert_linear_shares_the_witness(dense_kernel(A), 6, rep)

    @pytest.mark.parametrize("entries", [[[1, 1j], [-1j, 1]], [[0, 1j], [-1j, 0]], [[1, -1j], [1j, 1]]],
                             ids=["i", "i-zero-diagonal", "minus-i"])
    def test_imaginary_entry_has_a_witness(self, entries):
        """b = pi/log(m0/n0) leaves an imaginary pair's sum unchanged; the phase-aware b moves it by 2|a|."""
        rep = translation_invariance_test(dense_kernel(np.array(entries)), 2, tol=1e-6)
        assert not rep.invariant and rep.witness is not None
        assert rep.witness.violation == rep.max_deviation > 1e-6
        assert abs(rep.witness.violation - 2.0 * 2.0 ** -rep.witness.s.real) < 1e-15
        assert_linear_shares_the_witness(dense_kernel(np.array(entries)), 2, rep)

    @pytest.mark.parametrize("order", [2, 3])
    def test_complex_hermitian_entries_have_a_witness(self, order):
        rng = np.random.default_rng(order)
        for _ in range(20):
            X = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            A = 0.5 * (X + X.conj().T)
            rep = translation_invariance_test(dense_kernel(A), order, tol=1e-6)
            assert not rep.invariant and rep.witness is not None and rep.witness.violation > 1e-6
            assert_linear_shares_the_witness(dense_kernel(A), order, rep)
            if order == 2:  # the pair (1, 2) alone moves, by 2|a|(1 + |cos phi|) 2**-sigma
                a, sigma = A[0, 1], rep.witness.s.real
                expected = 2.0 * abs(a) * (1.0 + abs(a.real) / abs(a)) * 2.0 ** -sigma
                assert abs(rep.witness.violation - expected) <= 1e-12 * (1.0 + np.abs(A).max())

    def test_verdicts_agree_on_generated_matrices(self):
        rng = np.random.default_rng(15)
        for i in range(30):
            if i % 2 == 0:
                d = np.abs(rng.standard_normal(6)) + 0.1
                kern = dense_kernel(np.diag(d))
                expect = True
            else:
                d = np.abs(rng.standard_normal(6)) + 0.1
                A = np.diag(d)
                m0, n0 = sorted(rng.choice(6, size=2, replace=False))
                v = 0.1 + 0.9 * rng.random()
                A[m0, n0] = A[n0, m0] = v * math.sqrt(d[m0] * d[n0])
                kern = dense_kernel(A)
                expect = False
            rep = translation_invariance_test(kern, 6, tol=1e-6, seed=i)
            assert rep.invariant == expect
            if not expect:
                assert rep.witness is not None and rep.witness.violation > 1e-6
                assert_linear_shares_the_witness(kern, 6, rep)


class TestUnboundedDiscsAreRefused:
    """A kernel whose discs have an infinite radius bounds no deviation: both invariance tests refuse it."""

    GEOMETRIC_2 = DirichletKernel(DiagonalMatrix(SequenceRule("geometric", ratio=2.0)), HalfPlane(0.5))

    @pytest.mark.parametrize("test", [translation_invariance_test, linear_invariance_test])
    def test_is_a_certification_error(self, test):
        assert kernel_eval(self.GEOMETRIC_2, 2.0, 2.0, 8).error_radius == math.inf
        with pytest.raises(CertificationError, match="infinite error radius"):
            test(self.GEOMETRIC_2, 8)

    def test_a_finite_support_keeps_its_verdicts(self):
        kern = DirichletKernel(DiagonalMatrix(SequenceRule("explicit", values=(1.0, 2.0**1, 2.0**2))), HalfPlane(0.5))
        assert translation_invariance_test(kern, 8).invariant
        assert not linear_invariance_test(kern, 8).invariant


class TestToleranceMustBeFinite:
    """An infinite tol keeps no entry in the support pattern, so every kernel passed as invariant."""

    @pytest.mark.parametrize("test", [translation_invariance_test, linear_invariance_test,
                                      quasi_invariance_classify])
    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_is_a_spec_error(self, test, tol):
        with pytest.raises(SpecError, match="finite non-negative"):
            test(dense_kernel([[1.0, 0.5], [0.5, 1.0]]), 2, tol=tol)

    def test_the_same_kernel_is_not_invariant_at_a_finite_tol(self):
        kern = dense_kernel([[1.0, 0.5], [0.5, 1.0]])
        assert not translation_invariance_test(kern, 2).invariant
        assert not linear_invariance_test(kern, 2).invariant
        assert quasi_invariance_classify(kern, 2).verdict == "not_quasi_invariant"


class TestQuasiInvariance:
    def test_single_frequency_is_quasi_invariant(self):
        # kappa = c**2 j**(-s-conj(u)) for j = 3, c = 2
        f = np.array([0.0, 0.0, 2.0])
        rep = quasi_invariance_classify(rank_one_kernel(f), 3, grid=[1.5, 2.0 + 1j])
        assert rep.verdict == "quasi_invariant"
        assert np.max(np.abs(np.outer(rep.factor, np.conj(rep.factor))
                             - RankOneMatrix(f).truncation(3))) < 1e-10

    def test_diagonal_ones_is_not(self, diag_ones_kernel):
        rep = quasi_invariance_classify(diag_ones_kernel, 16, grid=[2.0])
        assert rep.verdict == "not_quasi_invariant"
        assert "rank" in rep.reason

    def test_zero_kernel_quasi_invariant(self):
        rep = quasi_invariance_classify(dense_kernel(np.zeros((3, 3))), 3)
        assert rep.verdict == "quasi_invariant"
        assert "zero" in rep.reason

    def test_vanishing_factor_detected(self):
        # f(s) = 1 - 2 * 2**-s vanishes at s = 1: flagged on a grid through it
        kern = rank_one_kernel([1.0, -2.0], rho=0.0)
        rep = quasi_invariance_classify(kern, 2, grid=[1.0])
        assert rep.verdict == "not_quasi_invariant"
        assert "vanishes" in rep.reason

    def test_classification_consistency_metamorphic(self):
        rng = np.random.default_rng(33)
        for i in range(30):
            if i % 2 == 0:
                f = np.zeros(6, dtype=complex)
                f[0] = 1.0
                f[1:] = 0.05 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
                kern = rank_one_kernel(f)
                expect = "quasi_invariant"
            else:
                d = np.abs(rng.standard_normal(6)) + 0.1
                kern = dense_kernel(np.diag(d))
                expect = "not_quasi_invariant"
            grid = [complex(1.5 + j * 0.7, (-1) ** j) for j in range(4)]
            rep = quasi_invariance_classify(kern, 6, grid=grid)
            assert rep.verdict == expect


def scanned_dominance_sigma(f: np.ndarray):
    """The reference: the first sigma of the 0.5-step grid on [0, 400) where the lead term dominates, term by term."""
    nz = [i + 1 for i in np.nonzero(np.abs(f) > 0)[0]]
    if not nz:
        return None
    for sigma in np.arange(0.0, 400.0, 0.5):
        if abs(f[nz[0] - 1]) * nz[0] ** (-sigma) > sum(abs(f[n - 1]) * n ** (-sigma) for n in nz[1:]):
            return float(sigma)
    return None


class TestDominanceSigma:
    def test_equals_the_scalar_scan(self):
        rng = np.random.default_rng(21)
        for i in range(400):
            size = int(rng.integers(1, 40))
            f = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * rng.uniform(0, 3, size) ** (i % 5)
            f[rng.uniform(size=size) < 0.5] = 0
            if i % 3 == 0:
                f = np.round(f)  # integer moduli, so some sums tie with the lead exactly
            assert _dominance_sigma(f) == scanned_dominance_sigma(f), f

    @pytest.mark.parametrize("f, expected", [([0.0, 0.0], None), ([0.0, 2.0], 0.0), ([1.0, 1.0], 0.5),
                                             ([1.0, 0.0, 0.0, 4.0], 1.5), ([1e-300, 1.0], None)])
    def test_ties_and_edges(self, f, expected):
        assert _dominance_sigma(np.array(f)) == scanned_dominance_sigma(np.array(f)) == expected


class TestLinearInvariance:
    def test_constant_kernel_invariant(self):
        A = np.zeros((4, 4))
        A[0, 0] = 2.5
        rep = linear_invariance_test(dense_kernel(A), 4)
        assert rep.constant and rep.invariant

    def test_single_frequency_scaling_witness(self):
        kern = rank_one_kernel([0.0, 1.0])  # kappa = 2**(-s-conj(u))
        rep = linear_invariance_test(kern, 4)
        assert not rep.invariant
        assert rep.witness_kind is not None
        assert rep.violation > 1e-8

    def test_diagonal_ones_witness(self, diag_ones_kernel):
        rep = linear_invariance_test(diag_ones_kernel, 32)
        assert not rep.invariant
        assert rep.witness_kind is not None
        assert rep.violation > 1e-8

    def test_an_off_diagonal_kernel_gets_the_translation_witness(self):
        kern = dense_kernel([[1.0, 0.5], [0.5, 1.0]])
        rep = linear_invariance_test(kern, 2)
        assert rep.witness_kind == "translation" and rep.witness_param == math.pi / math.log(0.5)
        assert rep.violation > 1e-6

    def test_a_diagonal_kernel_gets_a_scaling_witness(self):
        rep = linear_invariance_test(dense_kernel([[1.0, 1e-7], [1e-7, 1.0]]), 2)  # 1e-7 is below tol 1e-6
        assert rep.witness_kind == "scaling" and rep.witness_param == 2.0 and rep.violation > 1e-6

    def test_diagonal_witness_equals_the_search_bit_for_bit(self):
        """2,000 seeded diagonal kernels: the witness is the reference's, bit for bit.

        The scalings move each point as the reference's Moebius maps do, to the bit.  The composed candidate,
        which is gone, moves a diagonal kernel's s + conj(u) as scaling 2 does, up to rounding, so without a
        witness only the largest deviation seen, ``violation``, may differ, in its last bits."""
        rng = np.random.default_rng(2033)
        kinds = set()
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            kern = dense_kernel(np.diag(seeded_entries(rng, k)), rho=float(rng.uniform(-1.0, 1.0)))
            ref, rep = searched_linear_witness(kern, k, 1e-6), linear_invariance_test(kern, k)
            assert witness_fields(rep) == witness_fields(ref), (kern.matrix.entries, kern.rho)
            if ref.witness_kind is None:
                assert abs(rep.violation - ref.violation) <= 1e-9 * ref.violation
            kinds.add((ref.constant, ref.witness_kind))
        assert kinds == {(True, None), (False, "scaling"), (False, None)}

    def test_off_diagonal_witness_wherever_the_search_has_one(self):
        """1,500 seeded kernels with an off-diagonal entry above tol, every other one Hermitian: a witness wherever
        the reference has one, the translation test's whenever it finds one."""
        rng = np.random.default_rng(2034)
        found = {"reference": 0, "translation": 0, "scaling": 0}
        for i in range(1500):
            k = int(rng.integers(2, 7))
            A = np.diag(seeded_entries(rng, k))
            more = rng.uniform(size=(k, k)) < 0.4
            A[more] += seeded_entries(rng, int(more.sum()))
            if i % 2 == 0:
                A = np.triu(A, 1) + np.triu(A, 1).conj().T + np.diag(A.diagonal().real)
            m0, n0 = rng.choice(k, size=2, replace=False)
            A[m0, n0] = 10.0 ** rng.uniform(-5.9, 0.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            if i % 2 == 0:
                A[n0, m0] = np.conj(A[m0, n0])
            kern = dense_kernel(A, rho=float(rng.uniform(-1.0, 1.0)))
            ref, rep = searched_linear_witness(kern, k, 1e-6), linear_invariance_test(kern, k)
            assert not rep.constant and not rep.invariant
            if ref.witness_kind is not None:
                found["reference"] += 1
                assert rep.witness_kind is not None, A
            if rep.witness_kind is not None:
                found[rep.witness_kind] += 1
                assert rep.violation > 1e-6
            t = translation_invariance_test(kern, k)
            assert not t.structural_diagonal and (rep.witness_kind == "translation") == (t.witness is not None)
            if t.witness is not None:
                assert (rep.witness_param, rep.witness_point, rep.violation) == (
                    t.witness.b, (t.witness.s, t.witness.u), t.witness.violation)
        assert found["translation"] > 1000 and found["scaling"] > 0
        assert found["translation"] + found["scaling"] >= found["reference"]


def seeded_entries(rng, size: int) -> np.ndarray:
    """Moduli 10**-9 to 1, mixed signs, about a third of them complex."""
    mag = 10.0 ** rng.uniform(-9.0, 0.0, size)
    real = mag * rng.choice([-1.0, 1.0], size)
    return np.where(rng.uniform(size=size) < 1 / 3, mag * np.exp(1j * rng.uniform(-np.pi, np.pi, size)), real)


def witness_fields(rep) -> tuple:
    return rep.constant, rep.invariant, rep.witness_kind, rep.witness_param, rep.witness_point, (
        rep.violation if rep.witness_kind else None)


def searched_linear_witness(kernel, order: int, tol: float) -> LinearInvarianceReport:
    """The reference: the search over three scalings and a translation composed with scaling 2, each acting as
    the Moebius map (a (s - rho) - ib) / (ic (s - rho) + d) + rho of its SL2(R) matrix, with no look at the
    coefficients beyond the constant kernel."""
    m, n = support_pattern(kernel.matrix, order, tol)
    if np.all((m == 1) & (n == 1)):
        return LinearInvarianceReport(True, True, None, None, None, 0.0)
    edge, rho = kernel.certified_sigma(), kernel.rho
    moebius = lambda a, b, c, d: lambda z: (a * (z - rho) - 1j * b) / (1j * c * (z - rho) + d) + rho
    r2 = math.sqrt(2.0)
    candidates = [("scaling", 2.0, moebius(2.0, 0.0, 0.0, 0.5)), ("scaling", r2, moebius(r2, 0.0, 0.0, 1.0 / r2)),
                  ("scaling", 3.0, moebius(3.0, 0.0, 0.0, 1.0 / 3.0)),
                  ("translation+scaling", 2.0, moebius(2.0, 0.5, 0.0, 0.5))]  # (1, 1; 0, 1) (2, 0; 0, 1/2)
    best = 0.0
    for kind, param, phi in candidates:
        for sigma in np.arange(edge + 0.5, edge + 12.5, 0.5):
            for im in (0.0, 0.7, -1.3):
                s, u = complex(sigma, im), complex(sigma + 0.25, -im / 2)
                ps, pu = phi(s), phi(u)
                if ps.real <= edge or pu.real <= edge:
                    continue
                lhs, rhs = kernel_eval(kernel, ps, pu, order), kernel_eval(kernel, s, u, order)
                dev = abs(lhs.value - rhs.value)
                if dev > max(tol, 3.0 * (lhs.error_radius + rhs.error_radius)):
                    return LinearInvarianceReport(False, False, kind, param, (s, u), dev)
                best = max(best, dev)
    return LinearInvarianceReport(False, False, None, None, None, best)
