"""Dirichlet series kernel evaluation and positivity certification.

The kernel attached to a coefficient matrix a is the double series
kappa(s, u) = sum a_{m,n} m**(-s) n**(-conj(u)), regularly convergent on a
declared half-plane product.  Everything here works at finite truncation:
values carry certified radii built from the envelope (or exact finite
tails), positivity is certified by a ladder over leading principal
sections, and black-box coefficient recovery inverts the kernel on a real
evaluation grid.

Every certificate builds its self-adjoint section once (``hermitian_section``,
a HermitianError otherwise) and judges it by one cutoff (``psd_cutoff``).
``psd_check`` walks the ladder in one loop: rungs up to order 256 are
eigen-solves, and above it each rung is decided by its path's judge (the
matrix's structure, or one verified Cholesky factor pass) or, when the
judge leaves it undecided, eigen-solved too.  A ladder without structure
holds one section, symmetrised and factored in place in blocks of ``BLOCK``;
a factor that stops leaves there the Schur complement from which the next
rung's witness comes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    CertificationError,
    ConvergenceRegionError,
    HermitianError,
    InternalCheckError,
    RecoveryError,
    SpecError,
)
from .matrices import BLOCK, CoefficientMatrix, SectionStructure
from .series import MAX_LENGTH, UNIT_ROUNDOFF, HalfPlane, ValueWithBound, gamma, log_table, power_tail_bound, powers


@dataclass(frozen=True, eq=False)
class DirichletKernel:
    """Coefficient matrix plus the half-plane its double series lives on.

    When an envelope is declared it must satisfy alpha <= rho so that the
    envelope proves absolute convergence on Re > rho + 1.
    """

    matrix: CoefficientMatrix
    domain: HalfPlane

    def __post_init__(self):
        env = self.matrix.envelope
        if env is not None and self.matrix.order is None and env.alpha > self.domain.rho + 1e-12:
            raise SpecError(
                f"envelope alpha={env.alpha} exceeds rho={self.domain.rho}; "
                "absolute convergence on the declared half-plane is not certified"
            )
        # fixed with the matrix and the half-plane: kernel_eval's floors and the support's order, read once
        edge, joint = self.matrix.sigma_floors()
        object.__setattr__(self, "_floors", (max(self.rho, edge), joint, self.matrix.order))

    @property
    def rho(self) -> float:
        return self.domain.rho

    def certified_sigma(self) -> float:
        """Evaluation is certified for Re(s), Re(u) strictly above this."""
        return self._floors[0]


def kernel_eval(kernel: DirichletKernel, s: complex, u: complex, order: int) -> ValueWithBound:
    """Truncated kernel value with a certified three-piece tail radius.

    Refuses non-finite points, points outside the certified region and sums whose terms overflow a double;
    with no envelope (and infinite support) the radius is infinite.
    """
    s, u = complex(s), complex(u)
    if not (cmath.isfinite(s) and cmath.isfinite(u)):
        raise SpecError(f"evaluation point ({s}, {u}) is not finite")
    edge, joint, size = kernel._floors  # joint: the floor Re(s) + Re(u) must exceed; size: the support's order
    if s.real <= edge or u.real <= edge:
        raise ConvergenceRegionError(f"outside certified region: need Re(s), Re(u) > {edge}")
    if s.real + u.real <= joint:
        raise ConvergenceRegionError(f"outside certified region: need Re(s) + Re(u) > {joint}")
    check_order(order)
    matrix = kernel.matrix
    value, rounding = matrix.partial_sum(s, u, order if size is None or order <= size else size)
    if not cmath.isfinite(value) or math.isnan(rounding):
        raise SpecError(f"a term of the kernel sum at ({s}, {u}) overflows a double")
    radius = matrix.tail_radius(s.real, u.real, order)
    if math.isfinite(radius):
        radius += rounding
    return ValueWithBound(value, radius)


def tail_bound(
    kernel: DirichletKernel, k: int, l: int, s: complex, u: complex, r: float
) -> float:
    """Upper bound for |k**s l**u kappa_{>=k,>=l}(s,u) - a_{k,l}|.

    kappa_{>=k,>=l} is the kernel of the matrix restricted to indices
    m >= k, n >= l.  The bound has the standard three-term shape with a
    single constant C_r collecting the absolute row/column/corner sums at
    abscissa r; it decays to zero as Re(s), Re(u) grow, which is what makes
    scaled kernel sections converge to single coefficients.  On a finite
    support the sums are exact, over the matrix's ``nonzero_entries`` (no
    section for a diagonal or an arrowhead); otherwise the envelope bounds them.
    """
    s, u = complex(s), complex(u)
    if r <= kernel.rho + 1.0:
        raise ConvergenceRegionError(f"need r > rho + 1 = {kernel.rho + 1.0}")
    env = kernel.matrix.envelope
    if kernel.matrix.order is None and env is not None and r <= env.alpha + 1.0:
        raise ConvergenceRegionError(f"need r > alpha + 1 = {env.alpha + 1.0}")
    if s.real <= r or u.real <= r:
        raise ConvergenceRegionError("need Re(s), Re(u) > r")
    C_r = max(_abs_tails(kernel.matrix, k, l, r))
    if math.isinf(C_r):
        return math.inf
    t_row = l**u.real / (l + 1) ** (u.real - r)
    t_col = k**s.real / (k + 1) ** (s.real - r)
    t_corner = (k**s.real * l**u.real) / ((k + 1) ** (s.real - r) * (l + 1) ** (u.real - r))
    return C_r * (t_row + t_col + t_corner)


def _abs_tails(matrix: CoefficientMatrix, k: int, l: int, r: float) -> tuple[float, float, float]:
    """The row, column and corner tails sum_{n > l} |a_{k,n}| n**-r, sum_{m > k} |a_{m,l}| m**-r and
    sum_{m > k, n > l} |a_{m,n}| (m n)**-r: exact sums over the nonzero entries on a finite support, bounds by the
    envelope C m**alpha n**alpha otherwise, and infinite without one."""
    if matrix.order is not None:
        m, n, values = matrix.nonzero_entries(matrix.order)
        p = powers(r, matrix.order)
        start, stop = np.searchsorted(m, (k, k + 1))  # row by row: row k is [start, stop), the rows past it follow
        past_l = np.where(np.arange(1, p.size + 1) > l, p, 0.0)  # n**-r on the columns n > l, 0 on the others
        a, pm, pn = np.abs(values[start:]), p[m[start:] - 1], past_l[n[start:] - 1]
        j, col = stop - start, n[stop:] == l
        return float(a[:j] @ pn[:j]), float(a[j:][col] @ pm[j:][col]), float((a[j:] * pm[j:]) @ pn[j:])
    env = matrix.envelope
    if env is None:
        return math.inf, math.inf, math.inf
    row, col = power_tail_bound(l, r - env.alpha), power_tail_bound(k, r - env.alpha)
    return env.C * k**env.alpha * row, env.C * l**env.alpha * col, env.C * col * row


#: largest |a_{m,n} - conj(a_{n,m})|, relative to 1 + max |a_{m,n}|, with
#: which a block still counts as self-adjoint for a PSD certificate
#: (``psd_check``, ``dskernel psd``, the arrowhead head)
HERMITIAN_TOL = 1e-10

NOT_SELF_ADJOINT = f"matrix is not self-adjoint at this order (relative tolerance {HERMITIAN_TOL})"


def _symmetrised(X: np.ndarray, Y: np.ndarray, message: str, largest: float) -> np.ndarray:
    """X - D/2 with D = X - Y*, for blocks X = T[i, j] and Y = T[j, i] of T (Y is X on the diagonal), judged by
    ``hermitian_part``'s rule with largest >= max |T|: a SpecError if max |D| is not finite, a HermitianError if large."""
    D = np.conjugate(Y.T, order="C")  # the ufunc, since ndarray.conj() of a real T is T itself
    with np.errstate(invalid="ignore"):  # inf - inf; refused below
        np.subtract(X, D, out=D)
        deviation = np.max(np.abs(D), initial=0.0)
        D *= -0.5
        D += X
    if not math.isfinite(deviation):
        raise SpecError("block has a NaN or infinite entry")
    if deviation > HERMITIAN_TOL * (1.0 + largest):
        raise HermitianError(message)
    return D


def hermitian_part(T: np.ndarray, message: str = NOT_SELF_ADJOINT, largest: float = 0.0) -> np.ndarray:
    """(T + T*)/2 as a new array; a HermitianError(message) if T is not Hermitian.

    T counts as Hermitian when max |T - T*| <= HERMITIAN_TOL (1 + max |T|),
    relative since the rounding of a product such as ``np.outer(f, conj(f))``
    grows with the entries.  For a block of a larger section, ``largest``
    (its largest |entry|) stands in for max |T| when larger.  A 1-D T is a
    diagonal, so the result is its real part; a NaN or inf is a SpecError.
    """
    return _symmetrised(T, T, message, max(largest, np.max(np.abs(T), initial=0.0)))


def hermitian_section(matrix: CoefficientMatrix, order: int) -> np.ndarray:
    """``hermitian_part`` of the order x order truncation, bit for bit, in its storage: blocks T[i, j] and T[j, i]
    of order ``BLOCK`` are both read before either is written, and judged at max |T| (NaN if T is not finite)."""
    check_order(order)
    T = matrix.truncation(order)
    largest = float(np.max([np.max(np.abs(T[i:i + BLOCK]), initial=0.0) for i in range(0, order, BLOCK)]))
    for i in range(0, order, BLOCK):
        for j in range(i, order, BLOCK):
            X, Y = T[i:i + BLOCK, j:j + BLOCK], T[j:j + BLOCK, i:i + BLOCK]
            R = _symmetrised(X, Y, NOT_SELF_ADJOINT, largest)
            if j > i:
                Y[...] = _symmetrised(Y, X, NOT_SELF_ADJOINT, largest)
            X[...] = R
    return T


def self_adjoint_check(matrix: CoefficientMatrix, order: int) -> bool:
    """Whether the leading order x order section is Hermitian by ``hermitian_part``'s rule, from the prefixes (``judged_structure``) when there is a ``psd_structure``."""
    form = matrix.psd_structure(order)
    try:
        hermitian_section(matrix, order) if form is None else judged_structure(form)
    except HermitianError:
        return False
    return True


def check_order(order: int) -> None:
    """A SpecError for a truncation order below 1 (no section to judge) or above ``MAX_LENGTH`` (none numpy can index)."""
    if not 1 <= order <= MAX_LENGTH:
        raise SpecError(f"order must be >= 1 and <= {MAX_LENGTH}, got {order}")


def check_tol(tol: float) -> None:
    """A SpecError for a tol that is negative or NaN, which turns a tolerance rule around, or infinite, which passes all."""
    if not 0.0 <= tol < math.inf:
        raise SpecError(f"tol must be a finite non-negative number, got {tol}")


def psd_cutoff(eigenvalues: np.ndarray, tol: float) -> float:
    """The one PSD cutoff: eigenvalues may sit down to -tol (1 + max |lambda|), or -tol if there are none.

    A SpecError for a negative, infinite or NaN tol (``check_tol``); a
    CertificationError for a cutoff that overflows, which every section would pass.
    """
    check_tol(tol)
    cutoff = tol * (1.0 + float(np.max(np.abs(eigenvalues)))) if eigenvalues.size else tol
    if not math.isfinite(cutoff):
        raise CertificationError(f"PSD cutoff {cutoff} is not finite: an eigenvalue or tol overflows")
    return cutoff


def eigensolve_rounding(order: int, scale: float) -> float:
    """How far a computed eigenvalue of an order x order Hermitian section of norm scale may sit from the true one."""
    return 8 * order * np.finfo(float).eps * scale


def support_pattern(matrix: CoefficientMatrix, order: int, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-based (m, n) and the values of the entries with |a_{m,n}| > tol, row by row, from ``nonzero_entries``."""
    check_tol(tol)
    check_order(order)
    m, n, values = matrix.nonzero_entries(order)
    keep = np.abs(values) > tol
    return m[keep], n[keep], values[keep]


@dataclass(frozen=True)
class PsdCertificate:
    """Positivity certificate over a ladder of leading sections (``psd_check``).

    A rung passes when the least eigenvalue of its orders[i] section clears
    the cutoff -tol (1 + max |lambda|).  min_eigenvalues[i] is that
    eigenvalue on an eigen rung.  A rung above 256 that its judge certifies
    reports -eps_N, eps_N = tol (1 + l_N) with l_N a verified lower bound on
    the section's norm, so lambda_min >= -eps_N, a value no lower than the
    cutoff; a rank-one rung reports its exact lambda_min 0, a diagonal rung
    its least entry.  Above 256 the first failing rung and every later one
    report the witness's Rayleigh quotient, by interlacing an upper bound on
    lambda_min.  The verdict is "psd" when every rung passes; otherwise the
    first failing order and a witness vector are recorded: unit norm,
    largest component real and positive, and a Rayleigh quotient below that
    order's cutoff.  ``method`` names the judge of the rungs above 256:
    ``eigenvalue-ladder + verified-cholesky``, ``+ arrowhead-schur``, ``+
    rank-one-exact`` or ``+ diagonal-exact``.
    """

    orders: tuple
    min_eigenvalues: tuple
    tolerance: float
    verdict: str  # "psd" | "not_psd"
    witness_order: Optional[int] = None
    witness_vector: Optional[np.ndarray] = None
    method: str = "eigenvalue-ladder"
    margin: Optional[float] = None

    @property
    def is_psd(self) -> bool:
        return self.verdict == "psd"


def psd_ladder_orders(max_order: int) -> list[int]:
    """Doubling ladder 2, 4, 8, ... capped at and including max_order."""
    orders = []
    k = 2
    while k < max_order:
        orders.append(k)
        k *= 2
    orders.append(max_order)
    return orders


#: ladder rungs up to this order are eigen-solves; each rung above it is
#: first put to its path's judge (``psd_check``)
EIGEN_LADDER_MAX = 256

#: inverse iteration shifts this far below lambda_min, relative to
#: 1 + ||section||: clear of exact singularity, yet close enough that two
#: solves damp every other eigenvector by (shift / gap)**2
WITNESS_SHIFT = 1e-10


def unit_phase(x: np.ndarray) -> np.ndarray:
    """x divided by the phase of its largest component, which is then real and positive."""
    j = int(np.argmax(np.abs(x)))
    return x / (x[j] / abs(x[j]))


def _rayleigh(x: np.ndarray, S: np.ndarray) -> float:
    """Re(x* S x)."""
    return float(np.vdot(x, S @ x).real)


def _verified(x: np.ndarray, S: np.ndarray, cutoff: float) -> Optional[np.ndarray]:
    """The unit vector x, its largest component rotated to the positive real axis, if Re(x* S x) < cutoff; else None."""
    if not np.all(np.isfinite(x)):
        return None
    x = unit_phase(x)
    return x if _rayleigh(x, S) < cutoff else None


def _witness(S: np.ndarray, lam_min: float, scale: float, cutoff: float) -> np.ndarray:
    """Unit vector v with Re(v* S v) < cutoff, for the Hermitian S with smallest eigenvalue lam_min.

    Two solves (S - mu I) x_{k+1} = x_k from a fixed start vector, mu just
    below lam_min (inverse iteration; Ipsen, SIAM Review 39, 1997).  The
    result is normalised with its largest component rotated to the positive
    real axis and kept only when its Rayleigh quotient verifies; when a
    solve fails or the check does not hold, the eigenvector of a full
    ``eigh`` takes its place under the same rotation and check.  If that
    does not verify either: a CertificationError when lam_min lies within
    the eigen-solver's rounding below the cutoff (no witness can be
    verified there), an InternalCheckError otherwise.
    """
    n = S.shape[0]
    shifted = S.copy()
    shifted.flat[:: n + 1] -= lam_min - WITNESS_SHIFT * (1.0 + scale)
    x = np.random.default_rng(0).standard_normal(n)
    try:
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x /= np.linalg.norm(x)
    except np.linalg.LinAlgError:
        x = None
    x = None if x is None else _verified(x, S, cutoff)
    if x is None:
        x = _verified(np.linalg.eigh(S)[1][:, 0], S, cutoff)
    if x is None and lam_min >= cutoff - eigensolve_rounding(n, scale):
        raise CertificationError(
            f"lambda_min {lam_min} of the order-{n} section lies within the eigen-solver's rounding "
            f"of the cutoff {cutoff}: no witness verifies, so no verdict is certified at this tol"
        )
    if x is None:
        raise InternalCheckError(f"internal: no eigenvector of the order-{n} section verifies below {cutoff}")
    return x


def _eigen_rung(sec: np.ndarray, tol: float, previous: Optional[tuple], bounds: tuple, wanted: bool) -> tuple:
    """(lambda_min, Re(x* sec x), x) of the section sec from one ``eigvalsh``: the witness x (``_witness``) only when
    it fails and is wanted, else (lambda_min, inf, None).

    By Cauchy interlacing lambda_min cannot rise above that of the previous
    eigen rung, previous = (order, lambda_min); a rise beyond this rung's
    cutoff plus the eigen-solver's rounding is an InternalCheckError.  So is
    a lambda_min further than that rounding outside bounds = (lo, hi), the
    enclosure its structure certifies ((-inf, inf) without one).
    """
    N = sec.shape[0]
    w = np.linalg.eigvalsh(sec)
    scale = float(np.max(np.abs(w)))
    lam = float(w[0])
    slack = psd_cutoff(w, tol)
    rounding = eigensolve_rounding(N, scale)
    if previous is not None and lam > previous[1] + slack + rounding:
        raise InternalCheckError(
            f"internal: lambda_min rose from {previous[1]} at order {previous[0]} to "
            f"{lam} at order {N}, against Cauchy interlacing"
        )
    lo, hi = bounds
    if not lo - rounding <= lam <= hi + rounding:
        raise InternalCheckError(
            f"internal: lambda_min {lam} of the order-{N} section lies outside "
            f"[{lo}, {hi}], the enclosure its structure certifies"
        )
    x = _witness(sec, lam, scale, -slack) if wanted and lam < -slack else None
    return lam, math.inf if x is None else _rayleigh(x, sec), x


def _undecided(N: int) -> tuple:
    """The judge that decides no rung: (lo, hi, witness) = (-inf, inf, None)."""
    return -math.inf, math.inf, None


def cholesky_rounding(orders: list[int], diag: np.ndarray, cutoffs: np.ndarray, is_complex: bool) -> np.ndarray:
    """Rump's constant c_N for each order N, for factors of the section shifted by at most its cutoff.

    If the floating-point Cholesky factorisation of fl(S_N + t I), t <= the
    cutoff eps_N, runs to completion, then lambda_min(S_N) >= -t - c_N
    (Rump, "Verification of positive definiteness", BIT 46, 2006; Demmel's
    bound, Higham, ASNA, ch. 10): c_N = g/(1 - g) tr(fl(S_N + t I)) plus an
    underflow term, with g = gamma_{N+2} in real arithmetic (Rump's
    gamma_{N+1} and one rounding more for a pivot applied as a reciprocal)
    and gamma_{N+4} in complex arithmetic, where a product rounds like two
    more operations (Higham, ch. 3.6).  The trace is bounded by the sum of
    the positive diagonal entries of S_N plus N eps_N, and the first term is
    doubled to cover the rounding of the shift and of this formula.  diag
    holds the real diagonal of the section of the largest order.  Higham's Thm 10.3 takes the sum in each
    factor entry (a_ij - sum_k l_ik conj(l_jk)) / l_jj in any order, so c_N holds for ``_cholesky``'s blocks.
    """
    n = np.asarray(orders, dtype=float)
    g = gamma(n + (4.0 if is_complex else 2.0))
    trace = np.cumsum(np.maximum(diag, 0.0))[np.asarray(orders) - 1] + n * cutoffs
    largest = np.maximum.accumulate(np.abs(diag))[np.asarray(orders) - 1] + cutoffs
    eta = np.finfo(float).smallest_subnormal
    return 2.0 * g / (1.0 - g) * trace + 4.0 * (n + 1.0) * (2.0 * (n + 2.0) + largest) * eta


def _binade_scale(big: float) -> float:
    """An exact power of two that brings big near 1, so squares of entries up to big neither overflow nor underflow; 1.0 for 0, inf or NaN."""
    if not 0.0 < big < math.inf:
        return 1.0
    return math.ldexp(1.0, -min(max(math.frexp(big)[1], -1021), 1021))


def norm_lower_bound(S: np.ndarray, N: int) -> float:
    """A number no larger than ||S_N||_2, from four power-iteration steps on the leading order-N section.

    Each step's ||fl(S_N x)|| / ||x|| is shrunk by the rounding of the
    product and of the norms (|fl(S x) - S x| <= gamma_{N+4} |S| |x| and
    || |S_N| ||_2 <= sqrt(N) ||S_N||_2), so it stays below ||S_N||_2, as does
    the largest |S_ii|.  ||S x|| is taken in units of ``_binade_scale``, so
    a graded section's squares do not overflow; from a step that overflows
    on, the bound stays.  NaN when the section is not finite.
    """
    sec = S[:N, :N]
    best = float(np.max(np.abs(sec.diagonal())))
    shrink = 1.0 - 4.0 * (N + 4) * (1.0 + math.sqrt(N)) * UNIT_ROUNDOFF
    x = np.random.default_rng(0).standard_normal(N)
    x /= np.linalg.norm(x)
    for _ in range(4):
        with np.errstate(over="ignore", invalid="ignore"):
            y = sec @ x
        scale = _binade_scale(float(np.max(np.abs(y))))
        size = float(np.linalg.norm(y * scale)) / scale
        if not math.isfinite(size):
            return best if np.all(np.isfinite(sec)) else math.nan
        if size == 0.0:
            break
        best = max(best, shrink * size / float(np.linalg.norm(x)))
        x = y / size
    return best


def norm_upper_bound(S: np.ndarray, N: int) -> float:
    """A number no smaller than ||S_N||_2: the lesser of the largest absolute row sum and the Frobenius norm.

    Read ``BLOCK`` rows at a time, so no full-size copy of S is made; summed again
    in units of ``_binade_scale`` at the largest row sum when the squares
    overflow or underflow.  Raised by the rounding of the sums.
    """
    def sums(scale: float) -> tuple[float, float]:
        rows, square = 0.0, 0.0
        for i in range(0, N, BLOCK):
            with np.errstate(over="ignore"):  # an overflowing row sum is a valid bound, inf
                a = np.abs(S[i:i + BLOCK, :N])
                if scale != 1.0:
                    a *= scale
                rows = max(rows, float(np.max(a.sum(axis=1))))
            square += float(np.vdot(a, a))
        return rows, square

    scale = 1.0
    rows, square = sums(scale)
    if not 2.0**-900 < square < math.inf:
        scale = _binade_scale(rows)
        rows, square = sums(scale)
    return min(rows, math.sqrt(square)) / scale * (1.0 + 4.0 * (N * N + N) * UNIT_ROUNDOFF)


def _substitute(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """L^{-1} Y in Y's storage, reading only the lower triangle and the real diagonal of L: forward substitution by
    real pivots, no pivoting and no inverse, the rows before each 32 subtracted by one matrix product."""
    for i in range(0, L.shape[0], 32):
        Y[i:i + 32] -= L[i:i + 32, :i] @ Y[:i]
        for j in range(i, min(i + 32, L.shape[0])):
            Y[j] -= L[j, i:j] @ Y[i:j]
            Y[j] /= L[j, j].real
    return Y


def _restore(S: np.ndarray, diag: np.ndarray, N: int) -> None:
    """S_N as before ``_cholesky`` wrote into it: its upper triangle from its strict lower one, its diagonal from diag."""
    for k in range(0, N, BLOCK):
        e = min(k + BLOCK, N)
        np.copyto(S[k:e, k:N], np.conjugate(S[k:N, k:e].T), where=~np.tri(e - k, N - k, dtype=bool))
    S[np.diag_indices(N)] = diag[:N]


def _cholesky(S: np.ndarray, N: int, shift: float, diag: np.ndarray) -> int:
    """The order k at which the Cholesky factorisation L L* of fl(S_N + shift I) stops, N when it completes.

    Right-looking, ``BLOCK`` rows at a time, in S's upper triangle, so the strict lower one, which
    ``eigvalsh``, ``eigh`` and ``np.linalg.cholesky`` read, is never written: the diagonal block by
    ``np.linalg.cholesky``, the panel right of it by ``_substitute`` in place, the trailing upper blocks
    by one matrix product per block row.  When the block at k breaks down, S[:k, :k] holds L*, S[:k, k:N]
    holds L^{-1} B for B the section's S[:k, k:N], and the upper triangle of S[k:N, k:N] the Schur
    complement of S_k + shift I in S_N + shift I.  diag is S's saved diagonal; ``_restore`` rebuilds S_N.
    """
    S[np.diag_indices(N)] = diag[:N] + shift
    for k in range(0, N, BLOCK):
        e = min(k + BLOCK, N)
        try:
            L = np.linalg.cholesky(np.conjugate(S[k:e, k:e].T))  # the block as updated, from the upper triangle
        except np.linalg.LinAlgError:
            return k
        if not np.all(np.isfinite(L.diagonal())):
            return k
        np.copyto(S[k:e, k:e], np.conjugate(L.T), where=~np.tri(e - k, k=-1, dtype=bool))
        panel = _substitute(L, S[k:e, e:N])
        for j in range(e, N, BLOCK):
            G = np.conjugate(panel[:, j - e:j - e + BLOCK].T) @ panel[:, j - e:]
            trailing = S[j:j + G.shape[0], j:N]
            np.subtract(trailing, G, out=trailing, where=~np.tri(*G.shape, k=-1, dtype=bool))
    return N


def _cholesky_judge(S: np.ndarray, orders: list[int], tol: float) -> Callable[[int], tuple]:
    """The judge of the rungs above ``EIGEN_LADDER_MAX`` (orders, in increasing order) of a section without structure.

    eps_N = ``psd_cutoff`` at l_N = ``norm_lower_bound`` <= ||S_N||_2, so it is never above the
    eigen-ladder cutoff tol (1 + max |lambda|).  One factor pass over the top section shifted by s = min_N
    (eps_N - c_N) decides the ladder: its leading blocks are the factors of the leading sections, so
    reaching order k proves lambda_min(S_N) >= -eps_N at every rung N <= k (``cholesky_rounding``, whose
    c_N holds for any order of the sums in the factor entries, so for the blocks in which ``_cholesky``
    forms it in S itself).  When it stops at k > 0, the first rung N above k gets its witness from the
    complement left in place: y, the least eigenvector of its leading block, gives x = [-(S_k + s I)^{-1}
    B y; y] with x* (S_N + s I) x = y* C y.  S is then restored, and x kept only when its Rayleigh
    quotient hi is below -tol (1 + ``norm_upper_bound``), hence below the eigen-ladder cutoff.  Every
    other rung is undecided, as is every rung when s is not positive (or not finite): a factor shifted
    down cannot certify a singular PSD section, and eigen rungs are then the cheaper route.
    """
    cutoffs = np.array([psd_cutoff(np.array([norm_lower_bound(S, N)]), tol) for N in orders])
    diag = S.diagonal().copy()
    rounding = cholesky_rounding(orders, diag.real, cutoffs, np.iscomplexobj(S))
    shifts = cutoffs - rounding
    shifts -= 2.0 * UNIT_ROUNDOFF * np.abs(shifts)  # rounded down, so t + c_N <= eps_N holds exactly
    s = float(np.min(shifts))
    if not s > 0.0:
        return _undecided
    k = _cholesky(S, orders[-1], s, diag)
    failed, x = next((N for N in orders if N > k), None), None
    if failed is not None:
        if k > 0:
            y = np.linalg.eigh(S[k:failed, k:failed], UPLO="U")[1][:, 0]
            # z = L^{-*} L^{-1} B y by forward substitution, as L* reversed is lower triangular
            z = _substitute(S[k - 1::-1, k - 1::-1], (S[:k, k:failed] @ y)[::-1])[::-1]
            x = np.concatenate([-z, y])
        _restore(S, diag, orders[-1])
        if x is not None:
            x = _verified(x / np.linalg.norm(x), S[:failed, :failed], -tol * (1.0 + norm_upper_bound(S, failed)))

    def judge(N: int) -> tuple:
        if N <= k:
            return -float(cutoffs[orders.index(N)]), math.inf, None
        return _undecided(N) if N != failed or x is None else (-math.inf, _rayleigh(x, S[:N, :N]), x)
    return judge


def judged_structure(form: SectionStructure) -> tuple[SectionStructure, float]:
    """form with its head and diagonal made Hermitian by ``hermitian_part``'s rule, and the section's largest |entry|.

    The rule is the one ``hermitian_section`` applies to the whole section,
    read from the prefixes: only the head and the diagonal can break
    self-adjointness, since an arrowhead's coupling block and its
    conjugate transpose are built from the same c, and f f* is Hermitian by
    construction.
    """
    f = np.abs(form.vector)
    if form.kind == "rank-one-exact":
        with np.errstate(over="ignore"):  # an overflow is inf, which the ladder refuses
            return form, float(np.max(f) ** 2)
    largest = max(float(np.max(f, initial=0.0)), float(np.max(np.abs(form.diagonal), initial=0.0)))
    head = form.head
    if head.size:
        head = hermitian_part(head, NOT_SELF_ADJOINT, largest)
        largest = max(largest, float(np.max(np.abs(form.head))))
    diagonal = hermitian_part(form.diagonal, NOT_SELF_ADJOINT, largest).real
    return replace(form, head=head, diagonal=diagonal), largest


def schur_complements(
    head: np.ndarray, coupling: np.ndarray, tail: np.ndarray, orders: list[int], eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """The k x k complements head + eps I - sigma_N J of arrowhead sections, one per order, and the sigma_N.

    sigma_N = sum_{l <= N - k} |c_l|**2 / (d_l + eps) over the prefixes c
    (coupling) and d >= 0 (tail), J = ones(k, k) and head Hermitian.  The
    order-N section plus eps I is PSD exactly when its complement is, once
    every d_l + eps > 0 (Haynsworth, *Linear Algebra Appl.* 1, 1968).  A
    term with c_l = 0 is 0, as its row and column are diagonal; one with
    c_l != 0 over d_l + eps = 0 makes sigma_N infinite.  Below order k the
    complement is the whole head.
    """
    k, m = head.shape[0], max(0, max(orders) - head.shape[0])
    c2 = np.abs(coupling[:m]) ** 2
    with np.errstate(divide="ignore"):
        terms = np.divide(c2, tail[:m] + eps, out=np.zeros(m), where=c2 > 0.0)
    sigma = np.cumsum(np.concatenate(([0.0], terms)))[[max(0, N - k) for N in orders]]
    M = np.repeat(head[None], len(orders), axis=0)
    M[:, np.arange(k), np.arange(k)] += eps
    M -= sigma[:, None, None]
    return M, sigma


def arrowhead_norm_bounds(head: np.ndarray, coupling: np.ndarray, tail: np.ndarray) -> tuple[float, float]:
    """(l, u) with l <= ||S||_2 <= u for the arrowhead section with these prefixes, in O(N + k**2).

    l is the larger of the largest |entry| and sqrt(k) ||c||, the norm of
    the coupling block 1 c^T; u the lesser of the largest absolute row sum
    and the Frobenius norm.  Each is moved by the rounding of its sums.
    """
    k = head.shape[0]
    n = k + coupling.size
    ah, ac, ad = np.abs(head), np.abs(coupling), np.abs(tail)
    big = float(np.max(ac, initial=0.0))
    strip = math.sqrt(k * float(np.sum((ac / big) ** 2))) * big if big > 0.0 else 0.0
    lower = max(float(np.max(ah)), big, float(np.max(ad, initial=0.0)), strip if math.isfinite(strip) else 0.0)
    with np.errstate(over="ignore"):  # an overflowing sum leaves the other bound, or inf
        rows = max(float(np.max(ah.sum(axis=1))) + float(ac.sum()), float(np.max(k * ac + ad, initial=0.0)))
        frobenius = math.sqrt(float(np.vdot(ah, ah)) + 2.0 * k * float(ac @ ac) + float(ad @ ad))
    return lower * (1.0 - gamma(n + 6)), min(rows, frobenius) * (1.0 + 2.0 * gamma(n + 4))


def _arrowhead_rayleigh(head: np.ndarray, coupling: np.ndarray, tail: np.ndarray, x: np.ndarray) -> float:
    """Re(x* S x) for the arrowhead section S, x = [a; b]: a* H a + 2 Re(conj(sum a) c.b) + sum d |b|**2."""
    a, b = x[:head.shape[0]], x[head.shape[0]:]
    return float(np.vdot(a, head @ a).real + 2.0 * (np.conj(a.sum()) * (coupling @ b)).real + tail @ (b.real**2 + b.imag**2))


def _schur_rung(head: np.ndarray, coupling: np.ndarray, tail: np.ndarray, tol: float) -> tuple:
    """(lo, hi, witness) for the arrowhead section with these prefixes (``_structural_rung``).

    It passes at lo = -eps, eps = tol (1 + l) with l from
    ``arrowhead_norm_bounds``, when the complement at eps is certified PSD:
    its computed lambda_min clears the eigen-solver's rounding, the
    rounding of forming it and k times that of sigma.  Else, at eps' = tol
    (1 + u), a negative direction y of the complement gives x = [y;
    -(D + eps' I)^{-1} conj(c) (1^T y)] with x* (S + eps' I) x = y* M y < 0;
    normalised by ``unit_phase``, it is the witness when its Rayleigh
    quotient hi lies below -eps', hence below the eigen ladder's cutoff.
    Otherwise the rung is undecided.
    """
    k, n = head.shape[0], head.shape[0] + coupling.size
    lower, upper = arrowhead_norm_bounds(head, coupling, tail)
    eps = tol * (1.0 + lower)
    M, sigma = schur_complements(head, coupling, tail, [n], eps)
    s = float(sigma[0])
    if math.isfinite(eps) and math.isfinite(s):
        w = np.linalg.eigvalsh(M[0])
        formed = 3.0 * UNIT_ROUNDOFF * (float(np.max(np.abs(head))) + eps + s)
        if w[0] >= eigensolve_rounding(k, float(np.max(np.abs(w)))) + k * (2.0 * gamma(n + 6) * s + formed):
            return -eps, math.inf, None
    eps = tol * (1.0 + upper)
    M, sigma = schur_complements(head, coupling, tail, [n], eps)
    if math.isfinite(eps) and math.isfinite(float(sigma[0])):
        w, V = np.linalg.eigh(M[0])
        if w[0] < 0.0:
            y = V[:, 0]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # judged by the size below
                x = np.concatenate([y, -np.conj(coupling) * (y.sum() / (tail + eps))])
                size = float(np.linalg.norm(x))
            if 0.0 < size < math.inf:
                x = unit_phase(x / size)
                q = _arrowhead_rayleigh(head, coupling, tail, x)
                if q < -eps:
                    return -math.inf, q, x
    return -math.inf, math.inf, None


def _structural_rung(form: SectionStructure, N: int, tol: float) -> tuple:
    """(lo, hi, witness): lo <= lambda_min(S_N) <= hi, from the structure alone.

    A witness (a verified unit vector whose Rayleigh quotient hi lies below
    the rung's cutoff) means the rung fails; otherwise a finite lo means it
    passes, and (-inf, inf) that the structure does not decide it.  Rank
    one: lambda_min is 0 for N >= 2, |f_1|**2 at N = 1.  Diagonal: the
    least d_j, with witness e_j when it lies below the eigen ladder's
    cutoff, which for diag(d) is exact.  Arrowhead: ``_schur_rung``.
    """
    if form.kind == "rank-one-exact":
        lam = float(abs(form.vector[0]) ** 2) if N == 1 else 0.0
        return lam, lam, None
    if form.kind == "diagonal-exact":
        d = form.diagonal[:N]
        j = int(np.argmin(d))
        lam, x = float(d[j]), None
        if lam < -psd_cutoff(d, tol):
            x = np.zeros(N, dtype=complex)
            x[j] = 1.0
        return lam, lam, x
    k = form.head.shape[0]
    if N < k:
        return -math.inf, math.inf, None
    return _schur_rung(form.head, form.vector[:N - k], form.diagonal[:N - k], tol)


def psd_check(matrix: CoefficientMatrix, max_order: int, tol: float = 1e-9) -> PsdCertificate:
    """Certify formal positive semi-definiteness up to max_order.

    Formal PSD means every finite section is PSD, which is exactly
    equivalent to the kernel being a positive semi-definite function; the
    ladder documents how far that was actually checked.  Requires a
    self-adjoint matrix: with a ``psd_structure`` (arrowhead, rank-one,
    diagonal) it is judged at max_order from the prefixes (``judged_structure``) and
    only the order-256 section is built.

    One loop walks the rungs.  A rung up to ``EIGEN_LADDER_MAX`` is an eigen
    rung (``_eigen_rung``) within the enclosure its structure certifies.
    Above it each rung asks its path's judge for (lo, hi, witness): the
    structure (``_structural_rung``, O(N k + k**3) work), or for any other
    matrix one verified Cholesky factorisation (``_cholesky_judge``), in real
    arithmetic when the section is real.  A rung the judge leaves undecided
    is an eigen rung on its own section.  Once a rung has failed, no rung
    above 256 is decided: each reports the witness's Rayleigh quotient.
    """
    check_order(max_order)
    check_tol(tol)
    orders = psd_ladder_orders(max_order)
    form = matrix.psd_structure(max_order)
    if form is None:
        S, structural = hermitian_section(matrix, max_order), _undecided
    else:
        form, largest = judged_structure(form)
        S = hermitian_part(matrix.truncation(min(max_order, EIGEN_LADDER_MAX)), NOT_SELF_ADJOINT, largest)
        structural = lambda N: _structural_rung(form, N, tol)
    dtype, method, judge = S.dtype, "eigenvalue-ladder", None
    mins, previous, witness = [], None, None  # previous: (order, lambda_min) of the last eigen rung
    for N in orders:
        high = N > EIGEN_LADDER_MAX
        if high and witness is not None:
            mins.append(witness[2])
            continue
        if high and judge is None:
            judge = structural
            if form is None:
                if not (np.any(S[-1].imag) or np.any(S.imag)):  # the last row settles most complex sections
                    S = np.ascontiguousarray(S.real)
                judge = _cholesky_judge(S, [M for M in orders if M > EIGEN_LADDER_MAX], tol)
            if judge is not _undecided:
                method += " + " + (form.kind if form is not None else "verified-cholesky")
        lo, hi, x = judge(N) if high else (*structural(N)[:2], None)
        if x is None and (not high or lo == -math.inf):  # every low rung, and one its judge leaves undecided
            lo, hi, x = _eigen_rung(S[:N, :N] if form is None or not high else hermitian_part(
                matrix.truncation(N), NOT_SELF_ADJOINT, largest), tol, previous, (lo, hi), witness is None)
            previous = (N, lo)
        if x is not None:
            witness = (N, x.astype(dtype), hi)
        mins.append(hi if high and x is not None else lo)
    order, vector = (None, None) if witness is None else witness[:2]
    return PsdCertificate(
        tuple(orders), tuple(mins), tol, "psd" if witness is None else "not_psd", order, vector, method
    )


def bandwidth_detect(
    matrix: CoefficientMatrix, order: int, tol: float = 1e-12
) -> Optional[int]:
    """Smallest k with |a_{m,n}| <= tol whenever |m - n| > k, judged at truncation.

    Returns None when the only admissible k is the trivial order-1 (the
    truncation cannot distinguish that from unbounded bandwidth).
    """
    m, n, _ = support_pattern(matrix, order, tol)
    if not m.size:
        return 0
    k = int(np.max(np.abs(m - n)))
    if k == order - 1 and order > 1:
        return None
    return k


# -- black-box coefficient recovery ----------------------------------------


@dataclass(frozen=True)
class RecoveredBlock:
    """Result of block recovery: final block, earlier-grid estimates, kernel scale."""

    block: np.ndarray
    prefix_blocks: tuple
    kernel_scale: float


def recover_block(
    eval_fn: Callable[[complex, complex], complex],
    order: int,
    *,
    sigma_min: float,
    grid_count: int = 50,
) -> RecoveredBlock:
    """Recover the leading order x order coefficient block of a black-box kernel.

    The kernel is sampled on the fixed real grid p_r = sigma_min + 0.1 +
    0.25 r, r < grid_count.  Since kappa(p, q) = sum a_{m,n} m**(-p)
    n**(-q), the samples satisfy K = V A V^T with the known design matrix
    V[r, i] = i**(-p_r); the coefficient block is the induced least-squares
    solution.  Joint
    elimination is the numerically stable form of the peeling recursion
    a_{1,1} = lim kappa(p, p), then successively subtracting recovered
    rows/columns and rescaling by m**p n**q: both solve the same triangular
    system, but the joint solve does not compound subtraction noise.
    Blocks from two shorter grid prefixes are kept so callers can judge
    stabilisation along the increasing p sequence.
    """
    check_order(order)
    if grid_count < order + 12:
        raise SpecError("grid_count must be at least order + 12 for stable prefixes")
    ps = sigma_min + 0.1 + 0.25 * np.arange(grid_count)
    K = np.empty((grid_count, grid_count), dtype=complex)
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            K[i, j] = eval_fn(complex(p), complex(q))
    logs = log_table(order)

    def solve(R: int) -> np.ndarray:
        V = np.exp(np.outer(-ps[:R], logs))  # V[r, i] = i**(-p_r)
        scale = np.linalg.norm(V, axis=0)
        Vs = V / scale
        X, *_ = np.linalg.lstsq(Vs, K[:R, :R], rcond=None)
        Y, *_ = np.linalg.lstsq(Vs, X.conj().T, rcond=None)
        return (Y.conj().T) / scale[:, None] / scale[None, :]

    prefixes = [max(order + 2, grid_count - 10), max(order + 2, grid_count - 5), grid_count]
    blocks = [solve(R) for R in prefixes]
    return RecoveredBlock(blocks[-1], tuple(blocks[:-1]), float(np.max(np.abs(K))))


def coefficient_recover(
    eval_fn: Callable[[complex, complex], complex],
    m: int,
    n: int,
    order: int,
    *,
    sigma_min: float,
) -> complex:
    """Recover a_{m,n} from a black-box kernel evaluator.

    The estimate must stabilise along an increasing sequence of real grid
    arguments: the three successive estimates of ``recover_block`` on its
    50-point grid p_r = sigma_min + 0.1 + 0.25 r (two grid prefixes plus
    the full grid) have to agree within max(1e-8, 2e-6 max(1, kernel
    scale)), otherwise the evaluator is not behaving like a regularly
    convergent kernel and RecoveryError is raised.

    sigma_min should be the evaluator's certified edge for finitely
    supported kernels; for kernels with mass beyond the modeled order, move
    it up (edge + 1 or more) so the unmodeled tail cannot bias the fit -
    the stability check fails loudly when it does.
    """
    if m < 1 or n < 1:
        raise SpecError("indices are 1-based")
    if max(m, n) > order:
        raise SpecError("requested entry lies outside the recovered block")
    rec = recover_block(eval_fn, order, sigma_min=sigma_min)
    e1 = complex(rec.prefix_blocks[0][m - 1, n - 1])
    e2 = complex(rec.prefix_blocks[1][m - 1, n - 1])
    e3 = complex(rec.block[m - 1, n - 1])
    tol = max(1e-8, 2e-6 * max(1.0, rec.kernel_scale))
    if abs(e3 - e2) > tol or abs(e2 - e1) > tol:
        raise RecoveryError(
            f"recovery diverged at entry ({m},{n}): successive estimates "
            f"{e1!r}, {e2!r}, {e3!r} do not stabilise within {tol!r}"
        )
    return e3
