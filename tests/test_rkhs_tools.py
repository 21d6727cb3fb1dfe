"""Symbols, Gram models, deflation and membership."""

import math

import numpy as np
import pytest
from mpmath import zeta

from dskernel import (
    ArrowheadMatrix,
    CertificationError,
    DenseMatrix,
    InternalCheckError,
    DiagonalMatrix,
    GramModel,
    HermitianError,
    RankOneMatrix,
    SequenceRule,
    analytic_symbol,
    example_arrowhead,
    expansion_check,
    infinity_kernel,
    membership_test,
    psd_check,
    reproducing_check,
    self_adjoint_check,
)
from conftest import dense_kernel, random_psd_dense


def diag_ones() -> DiagonalMatrix:
    return DiagonalMatrix(SequenceRule("constant", scale=1.0))


class TestAnalyticSymbol:
    def test_diagonal_single_term(self):
        m = DiagonalMatrix(SequenceRule("power", scale=1.0, exponent=-1.0))
        sym = analytic_symbol(m, 3, order=8)
        coeffs = np.asarray(sym.series.coefficients)
        assert abs(coeffs[2] - (1.0 / 3.0)) < 1e-15
        assert np.all(coeffs[np.arange(8) != 2] == 0)

    def test_arrowhead_tail_column_is_polynomial(self):
        m, _ = example_arrowhead()
        sym = analytic_symbol(m, 5, order=12)
        coeffs = np.asarray(sym.series.coefficients)
        # rows 1..k carry the coupling value, row 5 the tail diagonal 4**3
        assert np.allclose(coeffs[:2], 1.0)
        assert abs(coeffs[4] - 4.0**3) < 1e-12
        assert np.all(coeffs[5:] == 0) and coeffs[2] == 0 and coeffs[3] == 0

    def test_zero_matrix(self):
        sym = analytic_symbol(DenseMatrix(np.zeros((4, 4))), 2)
        assert np.all(np.asarray(sym.series.coefficients) == 0)
        assert sym.series.finite


class TestExpansion:
    def test_diagonal_ones_regrouping(self, diag_ones_kernel):
        assert expansion_check(diag_ones_kernel, 2.0, 2.0, 1000) < 1e-12

    def test_rank_one_e2(self):
        kern = dense_kernel(RankOneMatrix(np.array([0.0, 1.0])).truncation(2))
        assert expansion_check(kern, 1.5, 1.2, 2) == 0.0

    def test_random_psd_dense(self):
        rng = np.random.default_rng(9)
        A = random_psd_dense(rng, 6)
        kern = dense_kernel(A)
        assert expansion_check(kern, 1.8 + 0.4j, 2.2 - 1.1j, 6) < 1e-10


class TestReproducing:
    def test_diagonal_ones_matches_zeta6(self, diag_ones_kernel):
        model = GramModel(diag_ones(), 4000)
        res = reproducing_check(model, diag_ones_kernel, 3.0, 3.0, 4000)
        assert res < 1e-12
        # and the inner product itself is the zeta(6) partial sum
        v = model.inner(model.section_value(3.0), model.section_value(3.0))
        assert abs(v.real - float(zeta(6, 1))) < 1e-4

    def test_order_one_model_exact(self, diag_ones_kernel):
        model = GramModel(diag_ones(), 1)
        assert reproducing_check(model, diag_ones_kernel, 2.5, 2.0, 1) == 0.0

    def test_random_psd_order5(self):
        rng = np.random.default_rng(10)
        A = random_psd_dense(rng, 5)
        kern = dense_kernel(A)
        model = GramModel(kern.matrix, 5)
        assert reproducing_check(model, kern, 2.0 + 1j, 1.7 - 0.3j, 5) < 1e-8

    def test_refuses_non_psd_model(self):
        with pytest.raises(CertificationError):
            GramModel(DenseMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), 2)


class TestInfinityKernel:
    def test_rank_one_collapses_exactly(self):
        m = RankOneMatrix(np.array([1.0, 0.5, 0.25]))
        out = infinity_kernel(m)
        assert np.all(out.truncation(3) == 0)

    def test_diagonal_ones_drops_first(self):
        out = infinity_kernel(diag_ones())
        T = out.truncation(5)
        assert np.allclose(T, np.diag([0.0, 1.0, 1.0, 1.0, 1.0]))

    def test_example_arrowhead_stays_psd_with_zero_first_row(self):
        m, _ = example_arrowhead()
        out = infinity_kernel(m)
        T = out.truncation(12)
        assert np.allclose(T[0, :], 0) and np.allclose(T[:, 0], 0)
        assert psd_check(out, 12).is_psd

    def test_psd_preserved_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            A = random_psd_dense(rng, 6)
            if abs(A[0, 0]) < 1e-9:
                continue
            out = infinity_kernel(DenseMatrix(A))
            assert psd_check(out, 6).is_psd

    def test_refuses_zero_corner(self):
        with pytest.raises(CertificationError):
            infinity_kernel(DenseMatrix(np.zeros((2, 2))))


class TestMembership:
    def test_unit_vector_in_diagonal_ones(self):
        res = membership_test(diag_ones(), [0.0, 1.0], order=6)
        assert res.member
        # diagonal oracle: c**2 * 1 >= 1, so c_star = 1
        assert abs(res.c_star - 1.0) <= 2e-6

    def test_zero_vector(self):
        res = membership_test(diag_ones(), [0.0, 0.0], order=4)
        assert res.member and res.c_star == 0.0

    def test_heavy_tail_not_member(self):
        # diagonal 2**-n against constant coefficients needs c**2 >= 2**n,
        # so c_star grows without bound in the order and eventually clears
        # any c_max
        m = DiagonalMatrix(SequenceRule("geometric", scale=1.0, ratio=0.5))
        stars = [membership_test(m, [1.0] * n, order=n, c_max=1e4).c_star for n in (6, 10, 14)]
        assert all(c is not None for c in stars)
        assert stars[0] >= 2.0**3 - 1e-3
        assert stars[1] > 3.5 * stars[0] and stars[2] > 3.5 * stars[1]
        res = membership_test(m, [1.0] * 40, order=40, c_max=1e3)
        assert not res.member
        assert res.c_star is None

    def test_c_star_monotone_in_order(self):
        rng = np.random.default_rng(23)
        A = random_psd_dense(rng, 8) + 0.5 * np.eye(8)
        f = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        m = DenseMatrix(A)
        c4 = membership_test(m, f, order=4).c_star
        c8 = membership_test(m, f, order=8).c_star
        assert c4 is not None and c8 is not None
        assert c4 <= c8 + 2e-6

    def test_refuses_non_psd_matrix(self):
        with pytest.raises(CertificationError):
            membership_test(DenseMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), [1.0], 2)


def bisection_membership(matrix, fhat, order, tol=1e-9, c_max=1e6, resolution=1e-6):
    """Reference: the bisection over c that membership_test replaced, as (member, c, probes).

    It tests the c-normalised a - (f/c)(f/c)* at the cutoff -tol (1 + scale),
    scale the largest |eigenvalue| of that test matrix, and returns the
    first accepted end of an interval narrowed below ``resolution``.
    """
    A = matrix.truncation(order)
    A = 0.5 * (A + A.conj().T)
    f = np.zeros(order, dtype=complex)
    fv = np.asarray(fhat, dtype=complex).ravel()
    f[: min(order, fv.size)] = fv[:order]
    F = np.outer(f, np.conj(f))
    probes = 0

    def is_psd_at(c):
        nonlocal probes
        probes += 1
        M = -F if c == 0.0 else A - F / (c * c)
        w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
        return bool(w[0] >= -tol * (1.0 + float(np.max(np.abs(w)))))

    if is_psd_at(0.0):
        return True, 0.0, probes
    if not is_psd_at(c_max):
        return False, None, probes
    lo, hi = 0.0, c_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if is_psd_at(mid):
            hi = mid
        else:
            lo = mid
    return True, hi, probes


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def membership_case(kind, seed):
    """(matrix, fhat, order, c_max, f in ran(a)) for one seeded input of the given kind."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    c_max = float(rng.choice([1e3, 1e6]))
    if kind == "well_conditioned":
        A = random_psd_dense(rng, n) + 0.1 * np.eye(n)
        return DenseMatrix(A), cplx(rng, n), n, c_max, True
    if kind == "rank_one":
        g = cplx(rng, n) * 10.0 ** rng.uniform(-2, 3)
        return RankOneMatrix(g), complex(*rng.standard_normal(2)) * g, n, c_max, True
    r = int(rng.integers(1, max(2, n // 2)))
    B = cplx(rng, n, r)
    f = B @ cplx(rng, r)
    if kind == "rank_deficient":
        return DenseMatrix(B @ B.conj().T), f, n, c_max, True
    # outside the range: add a part orthogonal to ran(B) of size 1e-4 .. 1
    Q, _ = np.linalg.qr(np.hstack([B, cplx(rng, n, 1)]))
    out = Q[:, -1] * 10.0 ** rng.uniform(-4, 0)
    return DenseMatrix(B @ B.conj().T), f + out, n, c_max, False


def pinv_norm(A, f):
    """sqrt(f* A^+ f), the pseudo-inverse cut at 1e-8 ||A||."""
    lam, V = np.linalg.eigh(A)
    keep = lam > 1e-8 * np.max(np.abs(lam))
    return math.sqrt(float(np.sum(np.abs(V[:, keep].conj().T @ f) ** 2 / lam[keep])))


MEMBERSHIP_CASES = [
    (kind, seed)
    for kind in ("well_conditioned", "rank_deficient", "outside_range", "rank_one")
    for seed in range(30)
]


class TestMembershipOracle:
    """The closed form against the bisection it replaced, on 120 seeded inputs."""

    @pytest.mark.parametrize("kind, seed", MEMBERSHIP_CASES)
    def test_agrees_with_bisection(self, kind, seed):
        matrix, f, n, c_max, in_range = membership_case(kind, seed)
        res = membership_test(matrix, f, n, c_max=c_max)
        member, oracle, _ = bisection_membership(matrix, f, n, c_max=c_max)
        assert res.member is member
        if not member:
            assert res.c_star is None and res.eig_trace == ()
            return
        assert len(res.eig_trace) == 1 and res.eig_trace[0] == (res.c_star, res.min_eig_at_c_star)
        ref = pinv_norm(matrix.truncation(n), np.asarray(f))
        if in_range:
            assert oracle - 1e-6 <= res.c_star <= ref + 1e-6
        else:
            # the part outside ran(a) is weighted by 1/(lambda + eps) at the
            # rounded zero eigenvalues lambda, which either eigen-solver
            # places within 8 n u ||a|| of 0: c* is that ill-conditioned
            rounding = 8 * n * np.finfo(float).eps / 1e-9
            assert ref <= res.c_star <= oracle * (1.0 + rounding) + 1e-6

    def test_every_kind_has_members_and_non_members(self):
        verdicts = {}
        for kind, seed in MEMBERSHIP_CASES:
            matrix, f, n, c_max, _ = membership_case(kind, seed)
            verdicts.setdefault(kind, set()).add(membership_test(matrix, f, n, c_max=c_max).member)
        assert verdicts["outside_range"] == {True, False}
        assert all(True in v for v in verdicts.values())

    def test_rank_one_self_certifies(self):
        # a = g g*, f = g: c*^2 = |g|^2 / (|g|^2 + eps), eps = tol (1 + |g|^2),
        # and the certifying probe must never miss (the cutoff eps = tol
        # alone missed on about half of such inputs)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 33))
            g = cplx(rng, n) * 10.0 ** rng.uniform(-3, 3)
            res = membership_test(RankOneMatrix(g), g, n)
            g2 = float(np.vdot(g, g).real)
            assert res.member
            assert abs(res.c_star**2 - g2 / (g2 + 1e-9 * (1.0 + g2))) < 1e-12

    def test_one_probe_where_the_bisection_took_about_forty(self):
        rng = np.random.default_rng(5)
        A = random_psd_dense(rng, 16) + 0.1 * np.eye(16)
        f = cplx(rng, 16)
        assert len(membership_test(DenseMatrix(A), f, 16).eig_trace) == 1
        assert bisection_membership(DenseMatrix(A), f, 16)[2] > 40

    def test_failing_certificate_is_internal_error(self, monkeypatch):
        # an eigen-solve that overstates every eigenvalue makes c* too small,
        # which the independent eigenvalue probe must catch
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda S: (eigh(S)[0] + 1.0, eigh(S)[1]))
        with pytest.raises(InternalCheckError):
            membership_test(diag_ones(), [0.0, 1.0], order=6)


class TestTotalityProxy:
    def test_nonsingular_gram_has_trivial_nullspace(self):
        model = GramModel(diag_ones(), 6)
        w = np.linalg.eigvalsh(model.gram)
        assert w[0] > 0.99  # identity section: strictly positive definite
        # the only coordinate vector orthogonal to every symbol is zero
        sol = np.linalg.solve(model.gram, np.zeros(6))
        assert np.all(sol == 0)


class TestMembershipSolvesOnce:
    """The PSD precondition and c* come from one eigh of one section; one eigvalsh certifies c*."""

    def test_one_eigh_one_eigvalsh_and_no_ladder(self, monkeypatch):
        import dskernel.kernel

        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solver=solver: calls.append(name) or solver(a))

        def no_ladder(*args, **kwargs):
            raise AssertionError("membership_test ran the psd_check ladder")

        monkeypatch.setattr(dskernel.kernel, "psd_check", no_ladder)
        rng = np.random.default_rng(3)
        res = membership_test(DenseMatrix(random_psd_dense(rng, 12) + 0.1 * np.eye(12)), cplx(rng, 12), 12)
        assert res.member
        assert sorted(calls) == ["eigh", "eigvalsh"]

    def test_non_self_adjoint_raises_as_psd_check_does(self):
        m = DenseMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(HermitianError) as from_psd:
            psd_check(m, 2)
        with pytest.raises(HermitianError) as from_membership:
            membership_test(m, [1.0, 0.0], 2)
        assert str(from_membership.value) == str(from_psd.value)

    def test_not_psd_at_the_order_is_refused(self):
        with pytest.raises(CertificationError):
            membership_test(DenseMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), [1.0, 0.0], 2)


class TestGramModelSelfAdjoint:
    """GramModel judges self-adjointness by the one relative rule of ``hermitian_part``."""

    def test_non_hermitian_dense_is_refused(self):
        with pytest.raises(HermitianError):
            GramModel(DenseMatrix(np.array([[1.0, 1.0], [0.0, 1.0]])), 2)

    def test_non_real_diagonal_is_refused(self):
        with pytest.raises(HermitianError):
            GramModel(DiagonalMatrix(SequenceRule("explicit", values=(1.0, 1j, 2.0))), 3)

    def test_rounding_sized_asymmetry_is_accepted_relative_to_the_entries(self):
        # 5e-5 on entries of 1e6 is within 1e-10 (1 + 1e6), as psd_check judges it
        entries = np.array([[1e6, 5e-5], [0.0, 1e6]])
        assert self_adjoint_check(DenseMatrix(entries), 2)
        assert psd_check(DenseMatrix(entries), 2).is_psd
        model = GramModel(DenseMatrix(entries), 2)
        assert np.allclose(model.gram, model.gram.conj().T, rtol=0, atol=0)
        diag = GramModel(DiagonalMatrix(SequenceRule("explicit", values=(1e6, 1e6 + 1e-5j))), 2)
        assert np.all(np.imag(diag.gram) == 0)
