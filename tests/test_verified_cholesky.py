"""Ladder rungs above order 256: one verified Cholesky factorisation instead of eigen-solves.

The shift s = min_N (eps_N - c_N) is checked against 40-digit mpmath on
near-singular sections, and the verdicts and witness orders against a
test-side eigenvalue ladder on planted inputs at orders 300-1536, also
with the least eigenvalue planted between the factor's cutoff and the
eigen ladder's, where ``membership_test`` must agree with the verdict.
"""

import functools

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
    membership_test,
    psd_check,
)
from dskernel.kernel import EIGEN_LADDER_MAX, hermitian_section, psd_ladder_orders


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


def assert_certificate_matches_the_eigen_ladder(matrix, n, cert, tol=1e-9, factored=True):
    """Same verdict and witness order as ``eigen_ladder``, and a verified witness.

    A rung above 256 that passes reports -eps_N when its factor certified
    it (factored), else the least eigenvalue of its section.
    """
    S = hermitian_section(matrix, n)
    assert cert.orders == tuple(psd_ladder_orders(n))
    assert (cert.verdict, cert.witness_order) == eigen_ladder(S, cert.orders, tol)
    failed = cert.witness_order or n + 1
    for N, value in zip(cert.orders, cert.min_eigenvalues):
        if EIGEN_LADDER_MAX < N < failed:
            if factored:
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
        assert "verified-cholesky" in cert.method
        assert_certificate_matches_the_eigen_ladder(matrix, n, cert)

    @pytest.mark.parametrize("name", ["dense_middle_600", "banded_top_768", "arrow_top_1536"])
    def test_eigen_fallback_when_no_schur_witness_verifies(self, monkeypatch, name):
        matrix, n = parity_case(name)
        monkeypatch.setattr(kernel, "_schur_witness", lambda *args: None)
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
        assert cert.is_psd and factors == [(n, n)]
        assert seen == [N for N in cert.orders if N <= EIGEN_LADDER_MAX]

    def test_real_section_is_factored_in_real_arithmetic(self, monkeypatch):
        matrix, n = parity_case("arrow_top_1536")
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
        factors, real = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a.shape[0]) or real(a))
        cert = psd_check(DenseMatrix(S), 1024)
        assert cert.is_psd and "verified-cholesky" in cert.method
        # the top factor and the 512 factor fail; the order-256 factor behind
        # the Schur witnesses is formed once and kept for the top rung
        assert factors == [1024, 512, 256]
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
