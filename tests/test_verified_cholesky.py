"""Ladder rungs above order 256: one verified Cholesky factorisation instead of eigen-solves.

The shift s = min_N (eps_N - c_N) is checked against 40-digit mpmath on
near-singular sections and on exact sections whose least eigenvalue sits
at block edges, and the verdicts and witness orders against a test-side
eigenvalue ladder on planted inputs at orders 300-1536, also with the
least eigenvalue planted between the factor's cutoff and the eigen
ladder's, where ``membership_test`` must agree with the verdict.  The
factor is blocked and in place: it keeps the section's lower triangle and,
when it fails, leaves the Schur complement there, from which the judge takes
its witness before it restores the section.  One factor pass serves the
whole ladder, and a dense ladder holds one section.
"""

import functools
import sys

import mpmath
import numpy as np
import pytest

import dskernel.kernel as kernel
from dskernel import (
    ArrowheadMatrix,
    BandedMatrix,
    DeflatedMatrix,
    CertificationError,
    DenseMatrix,
    RankOneMatrix,
    SequenceRule,
    certify_psd,
    example_arrowhead,
    membership_test,
    psd_check,
)
from dskernel.kernel import BLOCK, EIGEN_LADDER_MAX, hermitian_section, psd_ladder_orders
from conftest import rss_growth_mib


def cplx(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def exactly_hermitian(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.conj().T)


def factor_cutoff(S: np.ndarray, N: int, tol: float) -> float:
    """eps_N of a rung above 256, tol (1 + kernel.norm_lower_bound), on the section in the dtype psd_check factors."""
    if not np.any(S.imag):
        S = np.ascontiguousarray(S.real)
    return tol * (1.0 + kernel.norm_lower_bound(S, N))


def ladder_cutoff(S: np.ndarray, N: int, tol: float) -> float:
    """The eigen ladder's cutoff tol (1 + ||S_N||_2)."""
    return tol * (1.0 + np.linalg.norm(S[:N, :N], 2))


def rounding_norm(S: np.ndarray, C: np.ndarray) -> mpmath.mpf:
    """||S - C C*||_F at 40 digits, exact for a Hermitian S: |lambda(S) - lambda(C C*)| is at most this."""
    n = S.shape[0]
    with mpmath.workdps(40):
        rows = [[mpmath.mpc(complex(z)) for z in row] for row in C]
        conj = [[mpmath.conj(z) for z in row] for row in rows]
        total = mpmath.mpf(0)
        for i in range(n):
            for j in range(i, n):
                e = abs(mpmath.mpc(complex(S[i, j])) - mpmath.fdot(rows[i], conj[j])) ** 2
                total += e if i == j else 2 * e
        return mpmath.sqrt(total)


def count_eigvalsh_orders(monkeypatch) -> list:
    orders, real = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        orders.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return orders


def dyadic_hole(n: int, j: int, lam: float, is_complex: bool) -> tuple[np.ndarray, np.ndarray]:
    """(S, C): S = C C* + (I - e_j e_j*)/4 + lam e_j e_j*, C of rank 3 with entries in Z[i]/8 and row j zero.

    Every entry of C C* is a sum of three products of such numbers, which
    floating point forms exactly, so e_j is an exact eigenvector for lam and
    the rest of the spectrum is at least 1/4.
    """
    rng = np.random.default_rng(n + j + is_complex)
    K = rng.integers(-4, 5, (n, 3)) + (1j * rng.integers(-4, 5, (n, 3)) if is_complex else 0)
    K[j] = 0
    C = K / 8.0
    S = C @ C.conj().T
    real, imag = np.real(K).astype(np.int64), np.imag(K).astype(np.int64)
    assert np.array_equal(64 * S, (real @ real.T + imag @ imag.T) + 1j * (imag @ real.T - real @ imag.T))
    S[np.diag_indices(n)] += 0.25
    S[j, j] = lam
    return S, C


def dyadic_quotient(C: np.ndarray, j: int, lam: float, x: np.ndarray) -> mpmath.mpf:
    """x* S x / x* x for ``dyadic_hole``'s S at 40 digits, from C and the diagonal: O(n) terms."""
    with mpmath.workdps(40):
        xs = [mpmath.mpc(complex(z)) for z in x]
        ys = [mpmath.fdot([mpmath.conj(mpmath.mpc(complex(c))) for c in col], xs) for col in C.T]  # C* x
        size = mpmath.fsum(abs(z) ** 2 for z in xs)
        total = mpmath.fsum(abs(y) ** 2 for y in ys) + (size - abs(xs[j]) ** 2) / 4 + mpmath.mpf(lam) * abs(xs[j]) ** 2
        return total / size


class TestVerifiedShift:
    """Every rung the Cholesky path certifies has a true lambda_min >= -eps_N (40-digit mpmath)."""

    @pytest.mark.parametrize("n, is_complex", [(520, False), (300, True)])
    def test_rank_deficient_section(self, monkeypatch, n, is_complex):
        rng = np.random.default_rng(n)
        g = cplx(rng, n, 1) if is_complex else rng.standard_normal((n, 1))
        S = exactly_hermitian(g @ g.conj().T)
        tol = 1e-12
        seen = count_eigvalsh_orders(monkeypatch)
        cert = psd_check(DenseMatrix(S), n, tol)
        assert cert.is_psd and "verified-cholesky" in cert.method
        assert max(seen) <= EIGEN_LADDER_MAX  # certified by the factor alone
        # lambda_min(S_N) >= lambda_min(g g*) - ||S - g g*|| >= -||S - g g*||_F
        lower = -rounding_norm(S, g)
        for N, value in zip(cert.orders, cert.min_eigenvalues):
            if N > EIGEN_LADDER_MAX:
                eps = factor_cutoff(S, N, tol)
                assert value == -eps and eps <= ladder_cutoff(S, N, tol)
                assert lower >= -eps

    @staticmethod
    @functools.cache
    def near_singular(is_complex: bool) -> tuple:
        """C C* (C of rank 3, row j = 280 zero), its two cutoffs at order 300 and ||S - C C*||_F."""
        rng = np.random.default_rng(17)
        C = (cplx(rng, 300, 3) if is_complex else rng.standard_normal((300, 3))) / 2.0
        C[280] = 0.0
        S = exactly_hermitian(C @ C.conj().T)
        return S, factor_cutoff(S, 300, 1e-9), ladder_cutoff(S, 300, 1e-9), rounding_norm(S, C)

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("side", [1e-3, -1e-3])
    def test_planted_eigenvalue_next_to_the_cutoff(self, monkeypatch, is_complex, side):
        # a_jj = -eta over C C* with row j of C zero: e_j is an exact
        # eigenvector for -eta, so lambda_min(S_300) lies in
        # [-eta - ||S - (C C* - eta e_j e_j*)||_F, -eta], and the (j, j)
        # entry is exact, so that norm is the spread of C C*.  Just above
        # the eigen ladder's cutoff the section is not PSD; just below the
        # factor's (never the larger of the two) it is certified
        n, j, tol = 300, 280, 1e-9
        S0, eps, ladder_eps, spread = self.near_singular(is_complex)
        assert spread < 1e-3 * eps and eps <= ladder_eps
        S = S0.copy()
        eta = (ladder_eps if side > 0 else eps) * (1.0 + side)
        S[j, j] = -eta
        assert factor_cutoff(S, n, tol) == eps
        cert = psd_check(DenseMatrix(S), n, tol)
        if side > 0:  # the true lambda_min is at most -eta < -ladder_eps
            assert cert.witness_order == n
            x = cert.witness_vector
            with mpmath.workdps(40):
                xs = [mpmath.mpc(complex(z)) for z in x]
                Sx = [mpmath.fdot([mpmath.mpc(complex(z)) for z in row], xs) for row in S]
                quotient = mpmath.re(mpmath.fdot([mpmath.conj(z) for z in xs], Sx))
                quotient /= mpmath.fsum(abs(z) ** 2 for z in xs)
            assert quotient < -ladder_eps
        else:  # the true lambda_min is at least -eta - spread > -eps: certified by the factor
            seen = count_eigvalsh_orders(monkeypatch)
            cert = psd_check(DenseMatrix(S), n, tol)
            assert cert.is_psd and cert.min_eigenvalues[-1] == -eps
            assert max(seen) <= EIGEN_LADDER_MAX
            assert -eta - spread >= -eps

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("multiple", [0.5, -0.5, 2.0, -2.0])
    @pytest.mark.parametrize("n, j", [(300, 280), (513, 256), (1000, 767)])
    def test_planted_eigenvalue_across_block_edges(self, n, j, multiple, is_complex):
        # lambda_min of every section of order > j is lam = multiple * eps
        # exactly (``dyadic_hole``), the others' is at least 1/4: the hole
        # sits in the last, partial block at 300, in the first row of the
        # second block at 513 (failing at the middle rung 512) and in the
        # last row of the third block at 1000 (failing at the top, with the
        # witness from the complement the factor leaves at order 768)
        tol = 1e-9
        lam = multiple * factor_cutoff(dyadic_hole(n, j, 0.0, is_complex)[0], n, tol)
        S, C = dyadic_hole(n, j, lam, is_complex)
        cert = psd_check(DenseMatrix(S), n, tol)
        assert "verified-cholesky" in cert.method
        assert_certificate_matches_the_eigen_ladder(DenseMatrix(S), n, cert, tol)
        assert (cert.verdict, cert.witness_order) == (("psd", None) if multiple > -1.0 else
                                                       ("not_psd", next(N for N in cert.orders if N > j)))
        failed = cert.witness_order or n + 1
        for N, value in zip(cert.orders, cert.min_eigenvalues):
            if EIGEN_LADDER_MAX < N < failed:  # certified by the factor: -eps_N is no more than the exact lambda_min
                assert value <= (min(lam, 0.25) if N > j else 0.25)
        if not cert.is_psd:
            assert dyadic_quotient(C, j, lam, cert.witness_vector) < -ladder_cutoff(S, cert.witness_order, tol)

    def test_rounding_constant_grows_with_the_order_and_the_trace(self):
        diag = np.full(2000, 3.0)
        cutoffs = np.full(3, 1e-9)
        real = kernel.cholesky_rounding([512, 1024, 2000], diag, cutoffs, False)
        cplx_ = kernel.cholesky_rounding([512, 1024, 2000], diag, cutoffs, True)
        assert np.all(np.diff(real) > 0) and np.all(cplx_ > real)
        u = 2.0**-53
        # at least Rump's gamma_{N+1} / (1 - gamma_{N+1}) tr(S_N)
        for N, c in zip([512, 1024, 2000], real):
            g = (N + 1) * u / (1 - (N + 1) * u)
            assert c >= g / (1 - g) * 3.0 * N


def planted_hole(rng, n: int, j: int, banded: bool = False) -> np.ndarray:
    """C C* + I/10 (C dense or lower-banded, bandwidth 3) with row j of C zero and a_jj = -0.3."""
    if banded:
        C = sum(np.diag(cplx(rng, n - d) / 2.0, -d) for d in range(4))
    else:
        C = cplx(rng, n, 32) / 8.0
    if j is not None:
        C[j] = 0.0
    A = C @ C.conj().T + 0.1 * np.eye(n)
    if j is not None:
        A[j, j] = -0.3
    return exactly_hermitian(A)


def power_arrowhead(rng, n: int, fail_rung, real: bool) -> ArrowheadMatrix:
    """k = 4, coupling 0.45 l**-0.55, tail l**0.45; the head's least eigenvalue sits on the all-ones direction.

    The Schur complement of the order-N section is head - S_{N-4} ones(4),
    whose least eigenvalue is lam0 - 4 S_{N-4}.  With fail_rung, lam0 lies
    halfway between the values at the rung before it and at it, so that rung
    fails first; without, lam0 clears 4 S_inf.
    """
    k = 4
    ls = np.arange(1, n + 1, dtype=float)
    partial = np.cumsum(0.45**2 * ls**-1.1 / ls**0.45)
    if fail_rung is None:
        lam0 = 1.5 * k * 0.45**2 * float(mpmath.zeta(1.55))
    else:
        orders = psd_ladder_orders(n)
        before = orders[orders.index(fail_rung) - 1]
        lam0 = k * 0.5 * (partial[before - k - 1] + partial[fail_rung - k - 1])
    X = rng.standard_normal((k, k)) if real else cplx(rng, k, k)
    X[:, 0] = 1.0
    Q, _ = np.linalg.qr(X)
    lam = np.concatenate([[lam0], lam0 + rng.uniform(0.5, 2.0, k - 1)])
    head = exactly_hermitian((Q * lam) @ Q.conj().T)
    return ArrowheadMatrix(k, head, SequenceRule("power", scale=0.45, exponent=-0.55),
                           SequenceRule("power", scale=1.0, exponent=0.45))


def eigen_ladder(S: np.ndarray, orders: list, tol: float):
    """Test-side oracle: the first rung whose eigvalsh minimum is below -tol (1 + max |lambda|)."""
    for N in orders:
        w = np.linalg.eigvalsh(S[:N, :N])
        if w[0] < -tol * (1.0 + np.max(np.abs(w))):
            return "not_psd", N
    return "psd", None


def parity_case(name: str):
    rng = np.random.default_rng(sum(map(ord, name)))
    return {
        "dense_psd_300": lambda: (DenseMatrix(planted_hole(rng, 300, None)), 300),
        "dense_middle_600": lambda: (DenseMatrix(planted_hole(rng, 600, 400)), 600),
        "dense_top_600": lambda: (DenseMatrix(planted_hole(rng, 600, 550)), 600),
        "banded_top_768": lambda: (BandedMatrix(3, planted_hole(rng, 768, 700, banded=True)), 768),
        "banded_middle_768": lambda: (BandedMatrix(3, planted_hole(rng, 768, 300, banded=True)), 768),
        "rank_one_1024": lambda: (RankOneMatrix(cplx(rng, 1024)), 1024),
        "deflated_psd_600": lambda: (DeflatedMatrix(DenseMatrix(planted_hole(rng, 600, None))), 600),
        "deflated_middle_600": lambda: (DeflatedMatrix(DenseMatrix(planted_hole(rng, 600, 450))), 600),
        "arrow_psd_1024": lambda: (power_arrowhead(rng, 1024, None, real=False), 1024),
        "arrow_middle_1536": lambda: (power_arrowhead(rng, 1536, 1024, real=False), 1536),
        "arrow_top_1536": lambda: (power_arrowhead(rng, 1536, 1536, real=True), 1536),
    }[name]()


PARITY_CASES = ["dense_psd_300", "dense_middle_600", "dense_top_600", "banded_top_768",
                "banded_middle_768", "rank_one_1024", "deflated_psd_600", "deflated_middle_600",
                "arrow_psd_1024", "arrow_middle_1536", "arrow_top_1536"]


def ladder_method(matrix, n) -> str:
    """The path that judges the rungs above 256: the matrix's structure, else one verified Cholesky factor."""
    form = matrix.psd_structure(n)
    return "verified-cholesky" if form is None else form.kind


def structural_value(matrix, N: int, tol: float) -> float:
    """What a rung above 256 that its structure certifies reports: 0 for rank one, -eps_N for an arrowhead."""
    form = matrix.psd_structure(N)
    if form.kind == "rank-one-exact":
        return 0.0
    return -tol * (1.0 + kernel.arrowhead_norm_bounds(kernel.hermitian_part(form.head), form.vector, form.diagonal)[0])


def assert_certificate_matches_the_eigen_ladder(matrix, n, cert, tol=1e-9, factored=True):
    """Same verdict and witness order as ``eigen_ladder``, and a verified witness.

    A rung above 256 that passes reports -eps_N when its factor certified
    it (factored), the structure's value when its structure did, else the
    least eigenvalue of its section.
    """
    S = hermitian_section(matrix, n)
    assert cert.orders == tuple(psd_ladder_orders(n))
    assert (cert.verdict, cert.witness_order) == eigen_ladder(S, cert.orders, tol)
    failed = cert.witness_order or n + 1
    for N, value in zip(cert.orders, cert.min_eigenvalues):
        if EIGEN_LADDER_MAX < N < failed:
            if factored and ladder_method(matrix, n) != "verified-cholesky":
                assert value == structural_value(matrix, N, tol)
            elif factored:
                assert value == -factor_cutoff(S, N, tol)
            else:
                lam = np.linalg.eigvalsh(S[:N, :N])[0]
                assert value == pytest.approx(lam, abs=1e-12 * (1 + np.linalg.norm(S[:N, :N], 2)))
    if cert.is_psd:
        return
    N, x = cert.witness_order, cert.witness_vector
    assert x.shape == (N,) and abs(np.linalg.norm(x) - 1.0) < 1e-12
    j = int(np.argmax(np.abs(x)))
    assert abs(x[j].imag) <= 1e-15 * x[j].real
    quotient = float(np.vdot(x, S[:N, :N] @ x).real)
    assert quotient < -ladder_cutoff(S, N, tol)
    if N > EIGEN_LADDER_MAX:  # the failing rung and every later one report the witness's quotient
        assert all(v == pytest.approx(quotient, rel=1e-12)
                   for M, v in zip(cert.orders, cert.min_eigenvalues) if M >= N)


class TestParityWithTheEigenLadder:
    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_same_verdict_and_witness_order(self, name):
        matrix, n = parity_case(name)
        cert = certify_psd(matrix, n) if isinstance(matrix, ArrowheadMatrix) else psd_check(matrix, n)
        assert ladder_method(matrix, n) in cert.method
        assert_certificate_matches_the_eigen_ladder(matrix, n, cert)

    @pytest.mark.parametrize("name", ["dense_middle_600", "banded_top_768", "arrow_top_1536"])
    def test_eigen_fallback_when_no_schur_witness_verifies(self, monkeypatch, name):
        matrix, n = parity_case(name)
        if isinstance(matrix, ArrowheadMatrix):  # the structural witness: its quotient never verifies
            monkeypatch.setattr(kernel, "_arrowhead_rayleigh", lambda *args: np.inf)
        else:  # the factor's witness must lie below -tol (1 + inf)
            monkeypatch.setattr(kernel, "norm_upper_bound", lambda *args: np.inf)
        assert_certificate_matches_the_eigen_ladder(matrix, n, psd_check(matrix, n))

    @pytest.mark.parametrize("name", ["dense_psd_300", "dense_top_600", "deflated_middle_600"])
    def test_every_factor_failing_leaves_the_eigen_verdict(self, monkeypatch, name):
        def broken(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        matrix, n = parity_case(name)
        monkeypatch.setattr(np.linalg, "cholesky", broken)
        assert_certificate_matches_the_eigen_ladder(matrix, n, psd_check(matrix, n), factored=False)

    def test_one_factor_and_no_eigen_solve_above_256_for_a_psd_input(self, monkeypatch):
        matrix, n = parity_case("dense_psd_300")
        factors, real = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a.shape) or real(a))
        seen = count_eigvalsh_orders(monkeypatch)
        cert = psd_check(matrix, n)
        # one pass over the top section: its diagonal blocks of order BLOCK, in order, and no other
        assert cert.is_psd and factors == [(BLOCK, BLOCK), (n - BLOCK, n - BLOCK)]
        assert seen == [N for N in cert.orders if N <= EIGEN_LADDER_MAX]

    def test_one_factor_pass_for_a_failing_ladder(self, monkeypatch):
        # the factor stops in the block of the hole at 1500; 512 and 1024 are
        # certified by its leading blocks, and 2000's witness comes from the
        # complement it leaves in place
        matrix = DenseMatrix(planted_hole(np.random.default_rng(2000), 2000, 1500))
        factors, real = [], kernel._cholesky
        monkeypatch.setattr(kernel, "_cholesky", lambda S, N, *args: factors.append(N) or real(S, N, *args))
        cert = psd_check(matrix, 2000)
        assert factors == [2000]
        assert (cert.verdict, cert.witness_order) == ("not_psd", 2000)
        S = hermitian_section(matrix, 2000)
        assert cert.min_eigenvalues[-3:-1] == tuple(-factor_cutoff(S, N, 1e-9) for N in (512, 1024))
        x = cert.witness_vector
        quotient = float(np.vdot(x, S @ x).real)
        assert quotient == pytest.approx(cert.min_eigenvalues[-1], rel=1e-12)
        assert quotient < -1e-9 * (1.0 + kernel.norm_upper_bound(S, 2000))  # below the eigen ladder's cutoff

    def test_real_section_is_factored_in_real_arithmetic(self, monkeypatch):
        arrow, n = parity_case("arrow_top_1536")
        matrix = DenseMatrix(hermitian_section(arrow, n))  # the arrowhead itself is decided from its structure
        dtypes, real = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: dtypes.append(a.dtype) or real(a))
        cert = psd_check(matrix, n)
        assert dtypes and all(d == np.float64 for d in dtypes)
        assert cert.witness_vector.dtype == hermitian_section(matrix, 8).dtype

    def test_a_failure_below_256_needs_no_factor(self, monkeypatch):
        matrix = DenseMatrix(planted_hole(np.random.default_rng(3), 600, 100))
        factors, real = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a.shape) or real(a))
        cert = psd_check(matrix, 600)
        assert cert.witness_order == 128 and not factors
        assert_certificate_matches_the_eigen_ladder(matrix, 600, cert)
        S = hermitian_section(matrix, 128)
        x = cert.witness_vector
        assert cert.min_eigenvalues[-2:] == (float(np.vdot(x, S @ x).real),) * 2


class TestInPlaceFactor:
    """``kernel._cholesky`` writes the upper triangle, never the strict lower one; the judge restores the section."""

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("n", [255, 256, 600])
    def test_factor_and_untouched_lower_triangle(self, n, is_complex):
        rng = np.random.default_rng(n)
        C = cplx(rng, n, n) if is_complex else rng.standard_normal((n, n))
        S = exactly_hermitian(C @ C.conj().T / n + np.eye(n))
        before, diag = S.copy(), S.diagonal().copy()
        assert kernel._cholesky(S, n, 1e-3, diag) == n
        assert np.tril(S, -1).tobytes() == np.tril(before, -1).tobytes()
        U = np.triu(S)
        np.testing.assert_allclose(U.conj().T @ U, before + 1e-3 * np.eye(n), rtol=0, atol=1e-12)
        kernel._restore(S, diag, n)
        assert np.array_equal(S, before)

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("n, hole", [(300, 255), (300, 256), (600, 255), (600, 256), (600, 511),
                                         (1000, 255), (1000, 256), (1000, 511), (1000, 767)])
    def test_breakdown_leaves_the_schur_complement(self, n, hole, is_complex):
        # the factor stops at the block that holds the hole; before it, L*
        # and L^{-1} B, after it the complement of the shifted leading block
        S = planted_hole(np.random.default_rng(n + hole), n, hole)
        if not is_complex:
            S = np.ascontiguousarray(S.real)
        before, t = S.copy(), 1e-6
        k = kernel._cholesky(S, n, t, S.diagonal().copy())
        assert k == hole // BLOCK * BLOCK
        assert np.tril(S, -1).tobytes() == np.tril(before, -1).tobytes()
        T = before + t * np.eye(n)
        L = np.linalg.cholesky(T[:k, :k])
        W = np.linalg.solve(L, T[:k, k:])
        complement = T[k:, k:] - W.conj().T @ W
        scale = np.linalg.norm(T, 2)
        np.testing.assert_allclose(np.triu(S[:k, :k]), L.conj().T, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(S[:k, k:], W, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(np.triu(S[k:, k:]), np.triu(complement), rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("fail_at", [100, 300, 599])
    def test_the_judge_restores_the_section(self, fail_at):
        # once the judge is built, the one factor has stopped, the witness
        # come from the complement and the section been rebuilt: the lower
        # triangle and the diagonal bit for bit, the upper triangle their
        # conjugate, equal in value (a zero may change sign)
        S = planted_hole(np.random.default_rng(fail_at), 600, fail_at)
        before = S.copy()
        assert kernel._cholesky_judge(S, [512, 600], 1e-9) is not kernel._undecided
        assert np.tril(S).tobytes() == np.tril(before).tobytes() and np.array_equal(S, before)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_substitution_reads_the_lower_triangle_only(self, is_complex):
        rng = np.random.default_rng(7)
        L = np.tril(cplx(rng, 100, 100) if is_complex else rng.standard_normal((100, 100))) + 10.0 * np.eye(100)
        L[np.diag_indices(100)] = L.diagonal().real
        garbage = L + np.triu(np.full((100, 100), np.nan), 1)
        for Y in (cplx(rng, 100), cplx(rng, 100, 7)):
            np.testing.assert_allclose(kernel._substitute(garbage, Y.copy()), np.linalg.solve(L, Y), rtol=1e-12)


class TestNormBounds:
    @pytest.mark.parametrize("name", ["dense_real", "dense_complex", "rank_one", "diagonal", "indefinite"])
    def test_bounds_enclose_the_spectral_norm(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        n = 400
        S = {
            "dense_real": lambda: exactly_hermitian(rng.standard_normal((n, n))),
            "dense_complex": lambda: exactly_hermitian(cplx(rng, n, n)),
            "rank_one": lambda: np.outer(*(lambda g: (g, g.conj()))(cplx(rng, n))),
            "diagonal": lambda: np.diag(rng.uniform(-3.0, 1.0, n)),
            "indefinite": lambda: exactly_hermitian(planted_hole(rng, n, 100) - 5.0 * np.eye(n)),
        }[name]()
        for N in (300, n):
            norm = np.linalg.norm(S[:N, :N], 2)
            assert kernel.norm_lower_bound(S, N) <= norm <= kernel.norm_upper_bound(S, N)
        assert kernel.norm_lower_bound(S, n) >= 0.5 * np.linalg.norm(S, 2)

    def test_zero_and_non_finite_sections(self):
        Z = np.zeros((300, 300))
        assert kernel.norm_lower_bound(Z, 300) == 0.0 == kernel.norm_upper_bound(Z, 300)
        Z[5, 7] = Z[7, 5] = np.nan
        assert np.isnan(kernel.norm_lower_bound(Z, 300))

    def test_graded_section_squares_do_not_overflow(self):
        S = np.ascontiguousarray(graded_section(False).real)
        norm = np.linalg.norm(S, 2)  # 2.6e179, within the SVD's rounding of the largest S_ii
        lower, upper = kernel.norm_lower_bound(S, 300), kernel.norm_upper_bound(S, 300)
        assert 0.5 * norm <= lower <= norm * (1 + 1e-12) and norm * (1 - 1e-12) <= upper <= 2.0 * norm

    def test_norm_beyond_the_float_range(self):
        S = np.full((300, 300), 1e307)  # ||S||_2 = 3e309: a power step overflows
        S[np.diag_indices(300)] = 2e307
        assert 2e307 <= kernel.norm_lower_bound(S, 300) < np.inf
        assert kernel.norm_upper_bound(S, 300) == np.inf


def graded_section(top_fails: bool) -> np.ndarray:
    """The bundled example's order-300 section, entries up to 2.6e179, whose squares overflow.

    With top_fails, its last diagonal entry (the largest) is negated, so
    only the order-300 rung fails.
    """
    S = hermitian_section(example_arrowhead()[0], 300)
    if top_fails:
        S[-1, -1] = -S[-1, -1]
    return S


class TestGradedSections:
    """A dense section graded over 179 decades is factored, and judged as the eigen ladder judges it."""

    @pytest.mark.parametrize("top_fails", [False, True])
    def test_same_verdict_and_witness_order(self, top_fails):
        matrix = DenseMatrix(graded_section(top_fails))
        cert = psd_check(matrix, 300)
        assert "verified-cholesky" in cert.method
        assert (cert.verdict, cert.witness_order) == (("not_psd", 300) if top_fails else ("psd", None))
        assert_certificate_matches_the_eigen_ladder(matrix, 300, cert)


def band_section(is_complex: bool, kappa: float, tol: float = 1e-9) -> np.ndarray:
    """diag(A, I/2) of order 1024, A = Q diag(lambda) Q* dense of order 512, lambda in [0.1, 1] and -eta.

    ||S_512|| = ||S_1024|| = ||A|| and lambda_min of both is -eta; eta sits
    at kappa between the factor's cutoff (0) and the eigen ladder's (1) at
    512 and 1024.
    """
    rng = np.random.default_rng(5 + is_complex)
    X = cplx(rng, 512, 512) if is_complex else rng.standard_normal((512, 512))
    Q, _ = np.linalg.qr(X)
    lam = np.concatenate([[0.0], rng.uniform(0.1, 1.0, 511)])
    lam[1] = 1.0
    S = np.zeros((1024, 1024), dtype=X.dtype)
    S[512:, 512:] = 0.5 * np.eye(512)
    S[:512, :512] = exactly_hermitian((Q * lam) @ Q.conj().T)
    low = max(factor_cutoff(S, N, tol) for N in (512, 1024))
    high = ladder_cutoff(S, 512, tol)
    assert low < 0.99 * high and high == pytest.approx(ladder_cutoff(S, 1024, tol), rel=1e-12)
    S[:512, :512] = exactly_hermitian((Q * np.concatenate([[-(low + kappa * (high - low))], lam[1:]])) @ Q.conj().T)
    return S


class TestCutoffBand:
    """lambda_min between the factor's cutoff and the eigen ladder's: the verdict is still the eigen ladder's."""

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_psd_inside_the_band_agrees_with_membership(self, monkeypatch, is_complex):
        S = band_section(is_complex, 0.5)
        factors, real = [], kernel._cholesky
        monkeypatch.setattr(kernel, "_cholesky", lambda S, N, *args: factors.append(N) or real(S, N, *args))
        cert = psd_check(DenseMatrix(S), 1024)
        assert cert.is_psd and "verified-cholesky" in cert.method
        # one factor pass: it stops inside the order-512 block, whose witness
        # does not verify, so 512 and 1024 are eigen rungs
        assert factors == [1024]
        assert_certificate_matches_the_eigen_ladder(DenseMatrix(S), 1024, cert, factored=False)
        f = np.random.default_rng(1).standard_normal(512)
        assert membership_test(DenseMatrix(S), f, 512).c_star > 0.0

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_not_psd_beyond_the_band_agrees_with_membership(self, is_complex):
        # eta beyond the eigen ladder's cutoff, yet inside the cutoff
        # tol (1 + largest absolute row sum) of a Gershgorin norm bound
        S = band_section(is_complex, 3.0)
        eta = -np.linalg.eigvalsh(S[:512, :512])[0]
        assert ladder_cutoff(S, 512, 1e-9) < eta < 1e-9 * (1 + np.max(np.abs(S[:512, :512]).sum(axis=1)))
        cert = psd_check(DenseMatrix(S), 1024)
        assert cert.witness_order == 512
        assert_certificate_matches_the_eigen_ladder(DenseMatrix(S), 1024, cert)
        with pytest.raises(CertificationError, match="not PSD at this order"):
            membership_test(DenseMatrix(S), np.ones(512), 512)


def test_no_factor_when_the_rounding_exceeds_the_cutoff(monkeypatch):
    # a projection of rank 256 at order 512: c_512 ~ 1e-13 tr(S) > eps_512 at
    # tol 1e-13, so a factor would need a shift below zero, which no singular
    # PSD section survives; the eigen ladder judges the rungs instead
    Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((512, 256)))
    S = exactly_hermitian(Q @ Q.T)
    factors, real = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a.shape[0]) or real(a))
    cert = psd_check(DenseMatrix(S), 512, 1e-13)
    assert not factors and cert.method == "eigenvalue-ladder"
    assert (cert.verdict, cert.witness_order) == eigen_ladder(S, cert.orders, 1e-13) == ("psd", None)


def test_no_shift_path_stops_solving_at_the_failing_rung(monkeypatch):
    # tol 1e-17 leaves no positive shift, so the rungs above 256 are eigen
    # rungs; the one at 512 fails, so 512 and 1024 report the witness's
    # Rayleigh quotient and no section above 512 is solved
    C = np.random.default_rng(3).standard_normal((1024, 64)) / 8.0
    A = C @ C.T + 0.1 * np.eye(1024)
    A[400, :] = A[:, 400] = 0.0
    A[400, 400] = -0.3
    A = exactly_hermitian(A)
    seen = count_eigvalsh_orders(monkeypatch)
    cert = psd_check(DenseMatrix(A), 1024, 1e-17)
    assert cert.method == "eigenvalue-ladder" and cert.witness_order == 512
    assert max(seen) == 512 and seen.count(512) == 1
    x = cert.witness_vector
    quotient = float(np.vdot(x, A[:512, :512] @ x).real)
    assert cert.min_eigenvalues[-2] == cert.min_eigenvalues[-1] == pytest.approx(quotient, rel=1e-14)
    assert quotient == pytest.approx(-0.3, rel=1e-12)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="rss_growth_mib reads /proc/self/status")
def test_dense_ladder_holds_one_section():
    # a complex section of order 1024 is 16 MiB; the ladder symmetrises and
    # factors it in its own storage, with temporaries of order 1024 x 256
    setup = "\n".join([
        "import numpy as np",
        "import dskernel as dk",
        "C = np.random.default_rng(1).standard_normal((1024, 128)).view(complex)",
        "A = C @ C.conj().T",
        "A[np.diag_indices(1024)] += 0.1",
        "matrix = dk.DenseMatrix(A)",
        "del A, C",
        "dk.psd_check(dk.DenseMatrix(matrix.truncation(300)), 300)  # LAPACK's and BLAS's first buffers",
    ])
    growth = rss_growth_mib(setup, "assert dk.psd_check(matrix, 1024).method.endswith('verified-cholesky')")
    assert growth <= 1.5 * 16.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="rss_growth_mib reads /proc/self/status")
@pytest.mark.parametrize("is_complex", [False, True])
def test_failing_dense_ladder_holds_one_section(is_complex):
    # the factor stops in its last block; the witness comes from the order-256
    # complement it leaves there, and the section is restored in place
    setup = "\n".join([
        "import numpy as np",
        "import dskernel as dk",
        f"C = np.random.default_rng(1).standard_normal((1024, {128 if is_complex else 64}))",
        "C = C.view(complex)" if is_complex else "",
        "C[1000] = 0.0",
        "A = C @ C.conj().T",
        "A[np.diag_indices(1024)] += 0.1",
        "A[1000, 1000] = -0.3",
        "matrix = dk.DenseMatrix(A)",
        "del A, C",
        "dk.psd_check(dk.DenseMatrix(matrix.truncation(300)), 300)  # LAPACK's and BLAS's first buffers",
    ])
    growth = rss_growth_mib(setup, "assert dk.psd_check(matrix, 1024).witness_order == 1024")
    assert growth <= 1.5 * 16.0
