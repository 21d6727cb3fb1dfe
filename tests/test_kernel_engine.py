"""Kernel evaluation, tail bounds, PSD certification, coefficient recovery."""

import math

import numpy as np
import pytest
from mpmath import zeta

import dskernel.kernel
import dskernel.rkhs
import dskernel.structured
from dskernel import (
    ArrowheadMatrix,
    ConvergenceRegionError,
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    Envelope,
    GramModel,
    HalfPlane,
    HermitianError,
    RankOneMatrix,
    RecoveryError,
    SequenceRule,
    SpecError,
    bandwidth_detect,
    coefficient_recover,
    example_arrowhead,
    kernel_eval,
    membership_test,
    psd_check,
    psd_margin,
    recover_block,
    self_adjoint_check,
    tail_bound,
)
from dskernel.kernel import hermitian_part, psd_cutoff
from conftest import dense_kernel, random_hermitian_with_negative, random_psd_dense


class TestKernelEval:
    def test_diagonal_ones_zeta4(self, diag_ones_kernel):
        n = np.arange(1, 10**7 + 1.0)
        oracle = float(np.sum(n**-4.0))
        v = kernel_eval(diag_ones_kernel, 2.0, 2.0, 10**5)
        assert abs(v.value.real - 1.0823232) < 1e-6
        assert abs(v.value - oracle) <= v.error_radius

    def test_zero_matrix(self):
        v = kernel_eval(dense_kernel(np.zeros((3, 3))), 1.0, 2.0, 10)
        assert v.value == 0 and v.error_radius == 0.0

    def test_rank_one_single_term(self):
        kern = DirichletKernel(RankOneMatrix(np.array([0.0, 1.0])), HalfPlane(0.0))
        v = kernel_eval(kern, 1.0, 1.0, 16)
        assert abs(v.value - 0.25) < 1e-15
        import mpmath
        with mpmath.workdps(40):
            assert abs(mpmath.mpc(v.value.real, v.value.imag) - mpmath.power(2, -2)) <= v.error_radius
        assert v.error_radius <= 1e-14 * abs(v.value)

    def test_refuses_outside_region(self, diag_ones_kernel):
        with pytest.raises(ConvergenceRegionError):
            kernel_eval(diag_ones_kernel, 0.4, 2.0, 100)
        with pytest.raises(ConvergenceRegionError):
            # joint condition for the diagonal: Re(s) + Re(u) must beat 1
            kernel_eval(diag_ones_kernel, 0.51, 0.49, 100)

    def test_variant_fast_paths_match_dense_sum(self):
        rng = np.random.default_rng(5)
        s, u = 2.3 + 0.7j, 2.1 - 1.2j
        n = np.arange(1, 13, dtype=float)
        # arrowhead
        head = random_psd_dense(rng, 2)
        arrow = ArrowheadMatrix(2, head, SequenceRule("constant", scale=0.3),
                                SequenceRule("power", scale=1.0, exponent=0.5))
        T = arrow.truncation(12)
        direct = complex(n ** (-s) @ T @ n ** (-np.conj(u)))
        kern = DirichletKernel(arrow, HalfPlane(2.0))
        assert abs(kernel_eval(kern, s, u, 12).value - direct) < 1e-12
        # rank one
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rk = RankOneMatrix(f)
        T = rk.truncation(12)
        direct = complex(n ** (-s) @ T @ n ** (-np.conj(u)))
        kern = DirichletKernel(rk, HalfPlane(0.0))
        assert abs(kernel_eval(kern, s, u, 12).value - direct) < 1e-12

    @pytest.mark.parametrize("M", [100, 1000])
    def test_tail_soundness_on_enveloped_kernels(self, M):
        rng = np.random.default_rng(21)
        for _ in range(6):
            p = float(rng.uniform(-1.0, 1.0))
            C = float(rng.uniform(0.2, 2.0))
            mat = DiagonalMatrix(SequenceRule("power", scale=C, exponent=p))
            kern = DirichletKernel(mat, HalfPlane(max(0.0, p / 2)))
            sigma = max(p / 2, (p + 1) / 2) + 0.5 + float(rng.uniform(0, 1.5))
            lo = kernel_eval(kern, sigma, sigma, M)
            hi = kernel_eval(kern, sigma, sigma, 10 * M)
            assert abs(hi.value - lo.value) <= lo.error_radius


class TestTailBound:
    def test_decays_to_zero_along_diagonal(self, diag_ones_kernel):
        bounds = [tail_bound(diag_ones_kernel, 1, 1, p, p, 2.0) for p in (3.0, 5.0, 9.0, 15.0)]
        assert all(b > 0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] < 1e-3

    def test_finite_matrix_no_tail(self):
        kern = dense_kernel([[1.0]])
        assert tail_bound(kern, 1, 1, 5.0, 5.0, 2.0) == 0.0

    def test_bound_covers_exact_zeta10_tail(self, diag_ones_kernel):
        # |1**5 1**5 kappa(5,5) - a_{1,1}| = zeta(10) - 1
        exact = float(zeta(10, 1)) - 1.0
        b = tail_bound(diag_ones_kernel, 1, 1, 5.0, 5.0, 2.0)
        assert b >= exact

    def test_refuses_small_r(self, diag_ones_kernel):
        with pytest.raises(ConvergenceRegionError):
            tail_bound(diag_ones_kernel, 1, 1, 5.0, 5.0, 1.2)

    def test_monotone_in_real_parts(self, diag_ones_kernel):
        for k, l in [(1, 1), (2, 3)]:
            vals = [tail_bound(diag_ones_kernel, k, l, p, p + 0.5, 2.0)
                    for p in (3.0, 4.0, 6.0, 10.0)]
            assert vals == sorted(vals, reverse=True)


class TestSelfAdjoint:
    def test_real_diagonal(self):
        m = DiagonalMatrix(SequenceRule("power", scale=1.0, exponent=-2.0))
        assert self_adjoint_check(m, 10)

    def test_complex_symmetric_is_not(self):
        m = DenseMatrix(np.array([[1.0, 1j], [1j, 1.0]]))
        assert not self_adjoint_check(m, 2)

    def test_example_arrowhead_is(self):
        m, _ = example_arrowhead()
        assert self_adjoint_check(m, 14)


class TestPsdCheck:
    def test_nonnegative_diagonal_is_psd(self):
        m = DiagonalMatrix(SequenceRule("power", scale=1.0, exponent=-2.0))
        cert = psd_check(m, 16)
        assert cert.is_psd
        assert list(cert.orders) == [2, 4, 8, 16]

    def test_planted_negative_two_by_two(self):
        entries = np.zeros((4, 4))
        entries[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        cert = psd_check(DenseMatrix(entries), 4)
        assert cert.verdict == "not_psd"
        assert cert.witness_order == 2
        # 2x2 oracle: eigenvalues of [[1,2],[2,1]] are 3 and -1
        assert abs(cert.min_eigenvalues[0] + 1.0) < 1e-12
        v = cert.witness_vector
        quad = v.conj() @ entries[:2, :2] @ v
        assert quad.real < 0

    def test_example_arrowhead_to_order_14(self):
        m, _ = example_arrowhead()
        assert psd_check(m, 14).is_psd

    def test_refuses_non_hermitian(self):
        m = DenseMatrix(np.array([[1.0, 1j], [1j, 1.0]]))
        with pytest.raises(HermitianError):
            psd_check(m, 2)

    def test_psd_equivalence_with_sampled_gram(self):
        # structural verdict == sampled-kernel-Gram verdict (small version of
        # the acceptance batch)
        rng = np.random.default_rng(77)
        for i in range(20):
            if i % 2 == 0:
                A = random_psd_dense(rng, 6)
            else:
                A = random_hermitian_with_negative(rng, 6)
            kern = dense_kernel(A, rho=0.0)
            structural = psd_check(kern.matrix, 6, tol=1e-8).is_psd
            pts = 2.05 + 0.4 * rng.random(8) + 1j * (16 * rng.random(8) - 8)
            G = np.array(
                [[kernel_eval(kern, si, sj, 6).value for sj in pts] for si in pts]
            )
            sampled = float(np.linalg.eigvalsh(0.5 * (G + G.conj().T))[0]) >= -1e-8
            assert structural == sampled


class TestOneCutoff:
    """psd_check, GramModel, membership_test and psd_margin judge PSD by ``kernel.psd_cutoff`` alone."""

    def test_cutoff_is_relative_to_the_spectrum(self):
        assert psd_cutoff(np.array([-3.0, 1.0]), 1e-9) == 1e-9 * 4.0
        assert psd_cutoff(np.empty(0), 1e-9) == 1e-9

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_tol_is_a_spec_error(self, tol):
        with pytest.raises(SpecError, match="non-negative"):
            psd_cutoff(np.array([1.0]), tol)
        m, _ = example_arrowhead()
        for certify in (lambda: psd_check(DenseMatrix(np.eye(4)), 4, tol),
                        lambda: membership_test(DenseMatrix(np.eye(4)), [1.0], 4, tol=tol),
                        lambda: psd_margin(m, tol)):
            with pytest.raises(SpecError, match="non-negative"):
                certify()

    def test_every_certificate_calls_it(self, monkeypatch):
        sizes = []

        def counted(eigenvalues, tol):
            sizes.append(eigenvalues.size)
            return psd_cutoff(eigenvalues, tol)

        for module in (dskernel.kernel, dskernel.rkhs, dskernel.structured):
            monkeypatch.setattr(module, "psd_cutoff", counted)
        m, _ = example_arrowhead()
        certificates = [
            (lambda: psd_check(m, 8), [2, 4, 8]),  # once per rung
            (lambda: GramModel(m, 4), [4]),
            (lambda: membership_test(m, [1.0], 4), [4]),
            (lambda: psd_margin(m), [2]),  # the 2 x 2 head
        ]
        for certify, expected in certificates:
            sizes.clear()
            certify()
            assert sizes == expected


class TestBandwidth:
    def test_diagonal_is_zero(self):
        assert bandwidth_detect(DiagonalMatrix(SequenceRule("constant")), 8) == 0

    def test_tridiagonal_is_one(self):
        N = 8
        T = np.zeros((N, N))
        for i in range(N):
            for j in range(N):
                if abs(i - j) <= 1:
                    T[i, j] = 1.0
        assert bandwidth_detect(DenseMatrix(T), N) == 1

    def test_full_rank_one_is_none(self):
        m = RankOneMatrix(np.ones(8))
        assert bandwidth_detect(m, 8) is None

    def test_zero_matrix_is_zero(self):
        assert bandwidth_detect(DenseMatrix(np.zeros((4, 4))), 4) == 0


class TestRecovery:
    def test_zeta_kernel_corner(self, diag_ones_kernel):
        # infinite kernel: keep the grid off the edge so the beyond-block
        # tail cannot bias the fit
        def ev(s, u):
            return kernel_eval(diag_ones_kernel, s, u, 20000).value

        a11 = coefficient_recover(ev, 1, 1, 16, sigma_min=2.0)
        a12 = coefficient_recover(ev, 1, 2, 16, sigma_min=2.0)
        assert abs(a11 - 1.0) < 1e-6
        assert abs(a12) < 1e-6

    def test_zero_kernel(self):
        a = coefficient_recover(lambda s, u: 0.0, 2, 3, 6, sigma_min=1.0)
        assert a == 0

    def test_round_trip_random_psd(self):
        rng = np.random.default_rng(123)
        A = random_psd_dense(rng, 6, scale=0.5)
        kern = dense_kernel(A, rho=0.0)

        def ev(s, u):
            return kernel_eval(kern, s, u, 6).value

        rec = recover_block(ev, 6, sigma_min=1.0)
        assert np.max(np.abs(rec.block[:4, :4] - A[:4, :4])) < 1e-6
        # spot-check the per-entry API agrees with the block
        a23 = coefficient_recover(ev, 2, 3, 6, sigma_min=1.0)
        assert abs(a23 - A[1, 2]) < 1e-6

    def test_junk_evaluator_diverges(self):
        with pytest.raises(RecoveryError):
            coefficient_recover(lambda s, u: np.exp(0.3 * (s + u).real), 1, 1, 4, sigma_min=1.0)

    def test_not_psd_matrix_recovery_shows_failing_minor(self):
        # plant the negativity in the visible corner and recover it back
        entries = np.zeros((5, 5))
        entries[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        entries[2:, 2:] = np.eye(3)
        kern = dense_kernel(entries, rho=0.0)

        def ev(s, u):
            return kernel_eval(kern, s, u, 5).value

        rec = recover_block(ev, 5, sigma_min=1.0)
        minor = rec.block[:2, :2]
        assert np.linalg.eigvalsh(0.5 * (minor + minor.conj().T))[0] < -0.5


class TestEnvelopeGate:
    def test_infinite_matrix_without_envelope_gives_infinite_radius(self):
        # geometric tail with ratio > 1 has no polynomial envelope
        m = ArrowheadMatrix(1, np.array([[1.0]]), SequenceRule("constant", scale=0.0),
                            SequenceRule("geometric", scale=1.0, ratio=4.0))
        assert m.envelope is None
        kern = DirichletKernel(m, HalfPlane(3.0))
        v = kernel_eval(kern, 4.0, 4.0, 8)
        assert math.isinf(v.error_radius)

    def test_envelope_alpha_must_fit_rho(self):
        m = DiagonalMatrix(SequenceRule("power", scale=1.0, exponent=4.0))
        with pytest.raises(Exception):
            DirichletKernel(m, HalfPlane(0.5))


def planted_not_psd(rng, n: int, j: int, delta: float = 0.1, neg: float = -0.3) -> np.ndarray:
    """C C* + delta*I with row and column j zeroed and a_{jj} = neg < 0.

    e_j is then an eigenvector for neg, and every other eigenvalue is at
    least delta, so the first failing ladder order is the first rung >= j+1.
    """
    C = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    A = C @ C.conj().T + delta * np.eye(n)
    A[j, :] = 0.0
    A[:, j] = 0.0
    A[j, j] = neg
    return A


def symmetrised(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.conj().T)


class TestPsdLadder:
    """Values-only ladder, verified inverse-iteration witness, eigen-solver budget."""

    @pytest.mark.parametrize("case", ["example_arrowhead_16", "hermitian_24"])
    def test_rung_minima_against_mpmath(self, case):
        import mpmath
        if case == "example_arrowhead_16":
            matrix, _ = example_arrowhead()
            order = 16
        else:
            rng = np.random.default_rng(24)
            matrix = DenseMatrix(symmetrised(
                rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
            ))
            order = 24
        cert = psd_check(matrix, order)
        S = symmetrised(matrix.truncation(order))
        with mpmath.workdps(40):
            for N, lam in zip(cert.orders, cert.min_eigenvalues):
                sec = S[:N, :N]
                if np.all(sec.imag == 0):
                    eigs = mpmath.eigsy(mpmath.matrix(sec.real.tolist()), eigvals_only=True)
                else:
                    eigs = mpmath.eighe(mpmath.matrix(sec.tolist()), eigvals_only=True)
                eigs = [float(e) for e in eigs]
                norm2 = max(abs(e) for e in eigs)
                assert abs(lam - min(eigs)) <= 4 * N * np.finfo(float).eps * norm2

    @pytest.mark.parametrize("n, j", [(64, 40), (200, 70), (200, 150)])
    def test_planted_witness_is_verified_eigenvector(self, n, j):
        A = planted_not_psd(np.random.default_rng(n + j), n, j)
        matrix = DenseMatrix(A)
        stored = matrix.entries.copy()
        cert = psd_check(matrix, n)
        assert np.array_equal(matrix.entries, stored)  # the witness never writes to the matrix
        assert cert.verdict == "not_psd"
        assert cert.witness_order == next(N for N in cert.orders if N >= j + 1)
        N = cert.witness_order
        S = symmetrised(A)[:N, :N]
        lam = cert.min_eigenvalues[cert.orders.index(N)]
        norm2 = np.linalg.norm(S, 2)
        v = cert.witness_vector
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.vdot(v, S @ v).real < -cert.tolerance * (1.0 + norm2)
        assert np.linalg.norm(S @ v - lam * v) <= 1e-8 * norm2
        ref = np.linalg.eigh(S)[1][:, 0]
        phase = np.vdot(ref, v)
        assert np.linalg.norm(v - phase / abs(phase) * ref) <= 1e-8

    def test_failed_solve_falls_back_to_eigh(self, monkeypatch):
        A = planted_not_psd(np.random.default_rng(5), 64, 20)
        ref = np.linalg.eigh(symmetrised(A)[:32, :32])[1][:, 0]

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        cert = psd_check(DenseMatrix(A), 64)
        assert cert.witness_order == 32
        assert np.allclose(cert.witness_vector, ref, rtol=0, atol=1e-14)

    def test_unverified_vector_falls_back_to_eigh(self, monkeypatch):
        # the identity "solve" hands back the start vector, whose Rayleigh
        # quotient is positive, so the check must reject it
        A = planted_not_psd(np.random.default_rng(6), 64, 20)
        ref = np.linalg.eigh(symmetrised(A)[:32, :32])[1][:, 0]
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: b)
        cert = psd_check(DenseMatrix(A), 64)
        assert np.allclose(cert.witness_vector, ref, rtol=0, atol=1e-14)

    def test_rising_minimum_is_internal_error(self, monkeypatch):
        from dskernel import InternalCheckError

        # lambda_min = N on the rung of order N: against Cauchy interlacing
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.arange(a.shape[0], 2.0 * a.shape[0]))
        with pytest.raises(InternalCheckError):
            psd_check(DiagonalMatrix(SequenceRule("constant", scale=1.0)), 16)

    @staticmethod
    def count_calls(monkeypatch, *names) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_psd_input_runs_no_eigh(self, monkeypatch):
        A = random_psd_dense(np.random.default_rng(8), 40)
        calls = self.count_calls(monkeypatch, "eigh", "eigvalsh")
        cert = psd_check(DenseMatrix(A), 40)
        assert cert.is_psd
        assert calls == {"eigh": 0, "eigvalsh": len(cert.orders)}

    def test_classify_uses_one_eigvalsh(self, monkeypatch):
        from dskernel import quasi_invariance_classify

        rng = np.random.default_rng(9)
        x, y = (rng.standard_normal(32) + 1j * rng.standard_normal(32) for _ in range(2))
        rank_two = dense_kernel(np.outer(x, x.conj()) + np.outer(y, y.conj()))
        calls = self.count_calls(monkeypatch, "eigh", "eigvalsh", "svd")
        rep = quasi_invariance_classify(rank_two, 32, grid=[2.0])
        assert rep.verdict == "not_quasi_invariant"
        assert calls == {"eigh": 0, "eigvalsh": 1, "svd": 0}
        # a factor is needed only once the rank test has passed: one eigh
        rep = quasi_invariance_classify(DirichletKernel(RankOneMatrix(x), HalfPlane(0.0)), 32, grid=[2.0])
        assert rep.verdict == "quasi_invariant"
        assert calls == {"eigh": 1, "eigvalsh": 2, "svd": 0}


class TestHermitianPart:
    """T - (T - T*)/2, formed in place on one new array: the rule and the values of (T + T*)/2."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_input_is_never_written(self, dtype):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((6, 6)).astype(dtype)
        T = T + T.T  # symmetric; for the real dtype ndarray.conj() would be T itself
        T[0, 1] += 1e-13
        stored = T.copy()
        H = hermitian_part(T)
        assert np.array_equal(T, stored) and not np.shares_memory(H, T)
        assert np.allclose(H, 0.5 * (T + T.conj().T), rtol=0, atol=1e-16)

    def test_exactly_hermitian_input_is_returned_unchanged(self):
        A = random_psd_dense(np.random.default_rng(5), 20)
        A = 0.5 * (A + A.conj().T)
        assert np.array_equal(hermitian_part(A), A)

    def test_diagonal_is_its_real_part(self):
        d = np.array([1.0 + 1e-12j, -2.0, 3.0 - 1e-12j])
        assert np.array_equal(hermitian_part(d), np.array([1.0, -2.0, 3.0], dtype=complex))
        with pytest.raises(HermitianError):
            hermitian_part(np.array([1.0 + 1e-3j]))
