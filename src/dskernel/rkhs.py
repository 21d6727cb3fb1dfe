"""Finite models of the reproducing kernel Hilbert space of a kernel.

For a PSD coefficient matrix the column series A_n(s) = sum_m a_{m,n} m**(-s)
(the analytic symbols) span the space, and their Grammian is the matrix
itself: <A_n, A_m> = a_{m,n}.  That identity makes the truncated coefficient
matrix a faithful finite Gram model, which is all the computable content the
space has.  Everything here works in symbol coordinates over that model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CertificationError, InternalCheckError, SpecError
from .kernel import DirichletKernel, check_order, eigensolve_rounding, hermitian_part, hermitian_section, kernel_eval, psd_cutoff
from .matrices import (
    CoefficientMatrix,
    DeflatedMatrix,
    DenseMatrix,
    DiagonalMatrix,
    RankOneMatrix,
)
from .series import Envelope, GeneralDirichletSeries, power_sum, powers

DEFAULT_SYMBOL_ORDER = 64


@dataclass(frozen=True)
class AnalyticSymbol:
    """Column n of the coefficient matrix, packaged as an ordinary series."""

    index: int
    series: GeneralDirichletSeries


def analytic_symbol(
    matrix: CoefficientMatrix, n: int, order: Optional[int] = None
) -> AnalyticSymbol:
    """Column-n series sum_m a_{m,n} m**(-s), with the matrix envelope inherited.

    For finitely supported matrices the symbol is an exact Dirichlet
    polynomial; otherwise a prefix of the requested order is taken.
    """
    if n < 1:
        raise SpecError("symbol index is 1-based")
    if order is not None:
        check_order(order)
    if matrix.order is not None:
        length = matrix.order
        finite = True
    else:
        length = order if order is not None else DEFAULT_SYMBOL_ORDER
        finite = False
    coeffs = matrix.column_prefix(n, max(length, 1))
    env = matrix.envelope
    series_env = None
    if env is not None:
        series_env = Envelope(env.C * max(1.0, float(n)) ** env.alpha, env.alpha)
    series = GeneralDirichletSeries.ordinary(coeffs, envelope=series_env, finite=finite)
    return AnalyticSymbol(n, series)


@dataclass(frozen=True, eq=False)
class GramModel:
    """Truncated Gram matrix of the symbols: G[m-1, n-1] = a_{m,n} = <A_n, A_m>.

    Inner products of symbol-coordinate vectors f = sum c_n A_n,
    g = sum d_m A_m are <f, g> = d* G c.  The section must be self-adjoint
    (``hermitian_section``; a HermitianError otherwise) and PSD within a
    scale-aware tolerance for the model to be a legitimate Hilbert space
    stand-in.
    """

    matrix: CoefficientMatrix
    order: int
    tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.matrix, DiagonalMatrix):
            d = hermitian_part(self.matrix.diagonal_prefix(self.order))
            # diagonal sections: eigenvalues are the diagonal itself
            w = np.sort(np.real(d))
            G = np.diag(d.astype(complex))
        else:
            G = hermitian_section(self.matrix, self.order)
            w = np.linalg.eigvalsh(G)
        if w.size and w[0] < -psd_cutoff(w, self.tol):
            raise CertificationError(
                f"Gram section is not PSD at order {self.order}: min eig {w[0]}"
            )
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "min_eigenvalue", float(w[0]) if w.size else 0.0)

    def inner(self, c: Sequence[complex], d: Sequence[complex]) -> complex:
        """<sum_n c_n A_n, sum_m d_m A_m> over the model."""
        c = np.asarray(c, dtype=complex)
        d = np.asarray(d, dtype=complex)
        if c.size != self.order or d.size != self.order:
            raise SpecError("coordinate vectors must match the model order")
        return complex(np.conj(d) @ self.gram @ c)

    def section_value(self, t: complex) -> np.ndarray:
        """Symbol coordinates of the kernel section kappa_t = sum_n n**(-conj(t)) A_n."""
        return powers(np.conj(complex(t)), self.order).astype(complex)


def expansion_check(kernel: DirichletKernel, s: complex, u: complex, order: int) -> float:
    """Residual of the symbol expansion kappa(s,u) = sum_n A_n(s) n**(-conj(u)).

    Both sides are the same truncated double sum regrouped, so the residual
    is pure floating-point noise; a large value signals an implementation
    inconsistency, not a mathematical one.  The symbol values A_n(s) are
    one scatter of the ``nonzero_entries`` terms a_{m,n} m**(-s) by n where
    that view is sparse, else the columns a_{1..order,n} against one power
    vector, in O(order) memory.
    """
    lhs = kernel_eval(kernel, s, u, order).value
    matrix, ps = kernel.matrix, powers(s, order)
    if matrix.sparse_view:
        m, n, values = matrix.nonzero_entries(order)
        symbols = np.zeros(order, dtype=complex)
        np.add.at(symbols, n - 1, values * ps[m - 1])
    else:
        symbols = np.array([power_sum(matrix.column_prefix(n, order), ps) for n in range(1, order + 1)])
    return abs(lhs - power_sum(symbols, powers(np.conj(complex(u)), order)))


def reproducing_check(
    model: GramModel, kernel: DirichletKernel, t: complex, s: complex, order: int
) -> float:
    """Residual of <kappa_t, kappa_s> = kappa(s, t) over the Gram model.

    The model side expands both sections in symbol coordinates; the kernel
    side is a direct truncated evaluation.
    """
    lhs = model.inner(model.section_value(t), model.section_value(s))
    rhs = kernel_eval(kernel, s, t, min(order, model.order)).value
    return abs(lhs - rhs)


def infinity_kernel(matrix: CoefficientMatrix) -> CoefficientMatrix:
    """Coefficient matrix of the subspace of functions vanishing at +infinity.

    b_{m,n} = a_{m,n} - a_{m,1} a_{1,n} / a_{1,1}; requires a_{1,1} != 0
    (equivalently, the kernel's iterated limit at infinity is nonzero).
    The output is PSD whenever the input is, being a rank-one Cholesky
    downdate.  A rank-one input collapses exactly to the zero matrix.
    """
    a11 = complex(matrix.entry(1, 1))
    if a11 == 0:
        raise CertificationError(
            "hypothesis fails: a_{1,1} = 0, no vanishing-at-infinity deflation"
        )
    if isinstance(matrix, RankOneMatrix):
        return DenseMatrix(np.zeros((matrix.order, matrix.order), dtype=complex))
    return DeflatedMatrix(matrix)


@dataclass(frozen=True)
class MembershipResult:
    """Order-relative membership verdict for a Dirichlet series in the space.

    member=True certifies (c_star**2 * a - fhat fhat*) is PSD at the stated
    truncation order, up to the cutoff of ``psd_check`` on the order x order
    section; the verdict says nothing beyond that order, and c_star is the
    norm at this truncation only.
    """

    member: bool
    c_star: Optional[float]
    order: int
    c_max: float
    #: min eigenvalue of the c-normalised test matrix a - (fhat/c)(fhat/c)*
    min_eig_at_c_star: Optional[float] = None
    #: the (c, min eigenvalue) probes that certify c_star: one for a member
    #: with fhat != 0, none otherwise
    eig_trace: tuple = ()


def membership_test(
    matrix: CoefficientMatrix,
    fhat: Sequence[complex],
    order: int,
    tol: float = 1e-9,
    c_max: float = 1e6,
) -> MembershipResult:
    """The least c with (c**2 a - fhat fhat*) PSD at the truncation, in closed form.

    The matrix must be self-adjoint (a HermitianError otherwise) and PSD at
    the order.  With (lambda, V) the eigenpairs of the Hermitian section S,
    from one ``eigh``, and eps = ``psd_cutoff(lambda, tol)``, the cutoff
    by which ``psd_check`` judges every rung, the PSD precondition is lambda_min >= -eps (a
    CertificationError otherwise).  Only the order x order section is
    tested: it is the one membership uses, and by Cauchy interlacing the
    smallest eigenvalue of every leading section lies at or above its own.
    The least c with S + eps I - f f*/c**2 PSD is c_star**2 =
    sum_i |(V* f)_i|**2 / (lambda_i + eps): the squared norm f* S^+ f of the
    space, regularised at that cutoff (Aronszajn, Trans. AMS 68, 1950;
    Paulsen-Raghupathi, An Introduction to the Theory of RKHS, 2016,
    Thm 3.11).  A weighted direction with lambda_i + eps <= 0, or
    c_star > c_max, is a non-member.  A member's c_star is certified by one
    eigenvalue probe of S - f f*/c_star**2, which must clear -eps less the
    eigen-solver's rounding; a miss means the two certificates disagree and
    is an InternalCheckError.  A NaN or infinite fhat, and a c_max that is
    negative or NaN, are SpecErrors.
    """
    fv = np.asarray(fhat, dtype=complex).ravel()
    if not np.all(np.isfinite(fv)):
        raise SpecError("fhat has a NaN or infinite coefficient")
    if not c_max >= 0:
        raise SpecError(f"c_max must be a non-negative number, got {c_max}")
    S = hermitian_section(matrix, order)
    lam, V = np.linalg.eigh(S)
    scale = float(np.max(np.abs(lam)))
    eps = psd_cutoff(lam, tol)
    if lam[0] < -eps:
        raise CertificationError("matrix is not PSD at this order; membership undefined")
    f = np.zeros(order, dtype=complex)
    f[: min(order, fv.size)] = fv[:order]
    if not np.any(f):
        return MembershipResult(True, 0.0, order, c_max, 0.0)
    weights = np.abs(V.conj().T @ f) ** 2
    pos = weights > 0
    shifted = lam[pos] + eps
    c_star = math.sqrt(float(np.sum(weights[pos] / shifted))) if np.all(shifted > 0) else math.inf
    if c_star > c_max:
        return MembershipResult(False, None, order, c_max)
    F = np.outer(f, np.conj(f)) / (c_star * c_star)
    eig = float(np.linalg.eigvalsh(S - F)[0])
    rounding = eigensolve_rounding(order, scale + float(np.vdot(f, f).real) / c_star**2)
    if eig < -eps - rounding:
        raise InternalCheckError(
            f"internal: S - f f*/c**2 has min eig {eig} at the closed-form c* = {c_star}, "
            f"below the cutoff {-eps} less rounding {rounding}"
        )
    return MembershipResult(True, c_star, order, c_max, eig, ((c_star, eig),))
