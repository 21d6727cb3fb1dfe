"""Automorphism group, invariance tests, quasi-invariance classification."""

import math

import numpy as np
import pytest

from dskernel import (
    Automorphism,
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    HalfPlane,
    HermitianError,
    OutsideDomainError,
    RankOneMatrix,
    SequenceRule,
    SpecError,
    linear_invariance_test,
    psd_check,
    quasi_invariance_classify,
    rank_one_factor,
    translation_invariance_test,
)
from dskernel.symmetry import _dominance_sigma
from conftest import dense_kernel, rank_one_kernel


def random_sl2(rng, rho=0.0) -> Automorphism:
    while True:
        a, b, c = rng.uniform(-2, 2, size=3)
        if abs(a) > 0.1:
            return Automorphism(a, b, c, (1.0 + b * c) / a, rho)


class TestAutomorphism:
    def test_translation(self):
        phi = Automorphism.translation(1.5, 0.0)
        s = 2.0 + 1.0j
        assert abs(phi(s) - (s - 1.5j)) < 1e-15

    def test_scaling(self):
        rho = 0.5
        phi = Automorphism.scaling(2.0, rho)
        s = 1.25 + 2.0j
        assert abs(phi(s) - (4.0 * (s - rho) + rho)) < 1e-15

    def test_preserves_half_plane(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            phi = random_sl2(rng, rho=0.25)
            s = complex(0.25 + rng.uniform(0.01, 5), rng.uniform(-5, 5))
            assert phi(s).real > 0.25

    def test_refuses_outside_domain(self):
        with pytest.raises(OutsideDomainError):
            Automorphism(1.0, 0.0, 0.0, 1.0, 1.0).apply(0.5)

    def test_determinant_validated(self):
        with pytest.raises(SpecError):
            Automorphism(2.0, 0.0, 0.0, 1.0, 0.0)

    def test_group_law_thousand_pairs(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            phi, psi = random_sl2(rng), random_sl2(rng)
            s = complex(rng.uniform(0.05, 4), rng.uniform(-4, 4))
            composed = phi.compose(psi)
            worst = max(worst, abs(phi(psi(s)) - composed(s)))
            ident = phi.compose(Automorphism(phi.d, -phi.b, -phi.c, phi.a, phi.rho))  # A A**-1
            worst = max(worst, abs(ident(s) - s))
        assert worst < 1e-10


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


class TestTranslationInvariance:
    def test_diagonal_ones_invariant(self, diag_ones_kernel):
        rep = translation_invariance_test(diag_ones_kernel, 64, tol=1e-6)
        assert rep.invariant and rep.structural_diagonal
        assert rep.witness is None

    def test_rank_one_with_offdiagonal_witness(self):
        kern = rank_one_kernel([1.0, 1.0])
        rep = translation_invariance_test(kern, 8, tol=1e-6)
        assert not rep.invariant and not rep.structural_diagonal
        assert rep.witness is not None
        assert rep.witness.violation > 1e-6
        # the witness translation comes from the (1,2) entry: b = pi/log 2
        assert abs(abs(rep.witness.b) - math.pi / math.log(2.0)) < 1e-9

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

    @pytest.mark.parametrize("entries", [[[1, 1j], [-1j, 1]], [[0, 1j], [-1j, 0]], [[1, -1j], [1j, 1]]],
                             ids=["i", "i-zero-diagonal", "minus-i"])
    def test_imaginary_entry_has_a_witness(self, entries):
        """b = pi/log(m0/n0) leaves an imaginary pair's sum unchanged; the phase-aware b moves it by 2|a|."""
        rep = translation_invariance_test(dense_kernel(np.array(entries)), 2, tol=1e-6)
        assert not rep.invariant and rep.witness is not None
        assert rep.witness.violation == rep.max_deviation > 1e-6
        assert abs(rep.witness.violation - 2.0 * 2.0 ** -rep.witness.s.real) < 1e-15

    @pytest.mark.parametrize("order", [2, 3])
    def test_complex_hermitian_entries_have_a_witness(self, order):
        rng = np.random.default_rng(order)
        for _ in range(20):
            X = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            A = 0.5 * (X + X.conj().T)
            rep = translation_invariance_test(dense_kernel(A), order, tol=1e-6)
            assert not rep.invariant and rep.witness is not None and rep.witness.violation > 1e-6
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
