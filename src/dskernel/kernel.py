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
Ladder rungs up to order 256 compute eigenvalues only; the witness of the
first failing section comes from shifted inverse iteration and is verified,
with a full ``eigh`` of that section as the fallback.  The rungs above 256
are certified together by one Cholesky factorisation of the shifted top
section, verified by Rump's rounding bound at a cutoff no larger than the
eigen ladder's, which judges every rung the factor does not certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConvergenceRegionError,
    HermitianError,
    InternalCheckError,
    RecoveryError,
    SpecError,
)
from .matrices import CoefficientMatrix
from .rules import UNIT_ROUNDOFF
from .series import HalfPlane, ValueWithBound, log_table, rounding_radius


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

    @property
    def rho(self) -> float:
        return self.domain.rho

    def certified_sigma(self) -> float:
        """Evaluation is certified for Re(s), Re(u) strictly above this."""
        return max(self.rho, self.matrix.sigma_floors()[0])

    def joint_sigma_floor(self) -> float:
        """Lower bound that Re(s) + Re(u) must strictly exceed (-inf if none)."""
        return self.matrix.sigma_floors()[1]


def kernel_eval(kernel: DirichletKernel, s: complex, u: complex, order: int) -> ValueWithBound:
    """Truncated kernel value with a certified three-piece tail radius.

    Refuses points outside the certified region; with no envelope (and
    infinite support) the radius is infinite.
    """
    s, u = complex(s), complex(u)
    edge = kernel.certified_sigma()
    if s.real <= edge or u.real <= edge:
        raise ConvergenceRegionError(
            f"outside certified region: need Re(s), Re(u) > {edge}"
        )
    if s.real + u.real <= kernel.joint_sigma_floor():
        raise ConvergenceRegionError(
            f"outside certified region: need Re(s) + Re(u) > {kernel.joint_sigma_floor()}"
        )
    if order < 1:
        raise SpecError("order must be >= 1")
    N = order if kernel.matrix.order is None else min(order, kernel.matrix.order)
    value, mass, nnz = kernel.matrix.partial_sum(s, u, N)
    radius = kernel.matrix.tail_radius(s.real, u.real, order)
    # price the floating-point rounding of the partial sum itself: every
    # variant sums along chains of at most 2N + 8 roundings, the two products
    # of a dense section being the longest.  Even a lone term is a table
    # power, a few ulps off; only an all-zero sum is exact.
    if math.isfinite(radius) and nnz:
        radius += rounding_radius(mass, abs(s) + abs(u), math.log(N), 2 * N + 8)
    return ValueWithBound(value, radius)


def tail_bound(
    kernel: DirichletKernel, k: int, l: int, s: complex, u: complex, r: float
) -> float:
    """Upper bound for |k**s l**u kappa_{>=k,>=l}(s,u) - a_{k,l}|.

    kappa_{>=k,>=l} is the kernel of the matrix restricted to indices
    m >= k, n >= l.  The bound has the standard three-term shape with a
    single constant C_r collecting the absolute row/column/corner sums at
    abscissa r; it decays to zero as Re(s), Re(u) grow, which is what makes
    scaled kernel sections converge to single coefficients.
    """
    s, u = complex(s), complex(u)
    if r <= kernel.rho + 1.0:
        raise ConvergenceRegionError(f"need r > rho + 1 = {kernel.rho + 1.0}")
    env = kernel.matrix.envelope
    if kernel.matrix.order is None and env is not None and r <= env.alpha + 1.0:
        raise ConvergenceRegionError(f"need r > alpha + 1 = {env.alpha + 1.0}")
    if s.real <= r or u.real <= r:
        raise ConvergenceRegionError("need Re(s), Re(u) > r")
    m = kernel.matrix
    C_r = max(m.abs_row_tail(k, l, r), m.abs_col_tail(k, l, r), m.abs_corner_tail(k, l, r))
    if math.isinf(C_r):
        return math.inf
    t_row = l**u.real / (l + 1) ** (u.real - r)
    t_col = k**s.real / (k + 1) ** (s.real - r)
    t_corner = (k**s.real * l**u.real) / ((k + 1) ** (s.real - r) * (l + 1) ** (u.real - r))
    return C_r * (t_row + t_col + t_corner)


#: largest |a_{m,n} - conj(a_{n,m})|, relative to 1 + max |a_{m,n}|, with
#: which a block still counts as self-adjoint for a PSD certificate
#: (``psd_check``, ``dskernel psd``, the arrowhead head)
HERMITIAN_TOL = 1e-10

NOT_SELF_ADJOINT = f"matrix is not self-adjoint at this order (relative tolerance {HERMITIAN_TOL})"


def hermitian_part(T: np.ndarray, message: str = NOT_SELF_ADJOINT) -> np.ndarray:
    """(T + T*)/2; a HermitianError(message) if T is not Hermitian.

    T counts as Hermitian when max |T - T*| <= HERMITIAN_TOL (1 + max |T|):
    the rounding of a product such as ``np.outer(f, conj(f))`` grows with
    the entries, so an absolute cutoff would reject large Hermitian blocks.
    A 1-D T is read as the diagonal of a diagonal matrix, so the rule bounds
    its imaginary parts and the result is its real part.  The result is a
    new array, never a view of T: D = T - T* is formed once, tested, and
    turned into T - D/2 in place.
    """
    D = np.conjugate(T.T, order="C")  # the ufunc, since ndarray.conj() of a real T is T itself
    np.subtract(T, D, out=D)
    deviation = np.max(np.abs(D)) if T.size else 0.0
    if deviation > HERMITIAN_TOL * (1.0 + np.max(np.abs(T))):
        raise HermitianError(message)
    D *= -0.5
    D += T
    return D


def hermitian_section(matrix: CoefficientMatrix, order: int) -> np.ndarray:
    """The symmetrised order x order section (``hermitian_part``, which raises if it is not Hermitian)."""
    return hermitian_part(matrix.truncation(order))


def self_adjoint_check(matrix: CoefficientMatrix, order: int) -> bool:
    """Whether the leading order x order section is Hermitian by the rule of ``hermitian_part``."""
    try:
        hermitian_section(matrix, order)
    except HermitianError:
        return False
    return True


def check_tol(tol: float) -> None:
    """A SpecError for a tol that is negative or NaN, which would turn a tolerance rule around."""
    if not tol >= 0.0:
        raise SpecError(f"tol must be a non-negative number, got {tol}")


def psd_cutoff(eigenvalues: np.ndarray, tol: float) -> float:
    """The one PSD cutoff: eigenvalues may sit down to -tol (1 + max |lambda|), or -tol if there are none.

    A SpecError for a negative or NaN tol (``check_tol``).
    """
    check_tol(tol)
    return tol * (1.0 + float(np.max(np.abs(eigenvalues)))) if eigenvalues.size else tol


def eigensolve_rounding(order: int, scale: float) -> float:
    """How far a computed eigenvalue of an order x order Hermitian section of norm scale may sit from the true one."""
    return 8 * order * np.finfo(float).eps * scale


def support_pattern(matrix: CoefficientMatrix, order: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """1-based index arrays (m, n) of the entries with |a_{m,n}| > tol, from one truncation (``check_tol`` first)."""
    check_tol(tol)
    m, n = np.nonzero(np.abs(matrix.truncation(order)) > tol)
    return m + 1, n + 1


@dataclass(frozen=True)
class PsdCertificate:
    """Positivity certificate over a ladder of leading sections.

    The ladder has two regimes.  Up to order ``EIGEN_LADDER_MAX`` (256) each
    rung is an eigen-solve: min_eigenvalues[i] is the smallest eigenvalue of
    the leading orders[i] x orders[i] section, and the rung passes when it
    clears the cutoff -tol (1 + max |lambda|).  Above it one verified
    Cholesky factorisation certifies the rungs: min_eigenvalues[i] is
    -eps_N for a certified rung, eps_N = tol (1 + l_N) with l_N a verified
    lower bound on the section's norm, so the rung's true lambda_min is at
    least that value, which is no lower than the eigen-ladder cutoff.  A
    rung whose factor fails is judged by the eigen ladder's cutoff, so the
    verdicts are the eigen ladder's: when it passes, min_eigenvalues[i] is
    its smallest eigenvalue; for the first failing rung and every later one
    it is the witness's Rayleigh quotient, by interlacing an upper bound on
    lambda_min.  The verdict is "psd" when every rung passes; otherwise the
    first failing order and a witness vector are recorded: unit norm,
    largest component real and positive, and a Rayleigh quotient below that
    order's cutoff.  ``method`` names ``verified-cholesky`` when a factor
    judged the rungs above 256.
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
    return sorted(set(orders))


#: ladder rungs up to this order are eigen-solves, which give the reported
#: minima, the interlacing check and the inverse-iteration witness; the
#: rungs above it are certified by one verified Cholesky factorisation
EIGEN_LADDER_MAX = 256

#: inverse iteration shifts this far below lambda_min, relative to
#: 1 + ||section||: clear of exact singularity, yet close enough that two
#: solves damp every other eigenvector by (shift / gap)**2
WITNESS_SHIFT = 1e-10


def _verified(x: np.ndarray, S: np.ndarray, cutoff: float) -> Optional[np.ndarray]:
    """The unit vector x, its largest component rotated to the positive real axis, if Re(x* S x) < cutoff; else None."""
    if not np.all(np.isfinite(x)):
        return None
    j = int(np.argmax(np.abs(x)))
    x *= abs(x[j]) / x[j]
    return x if np.vdot(x, S @ x).real < cutoff else None


def _witness(S: np.ndarray, lam_min: float, scale: float, cutoff: float) -> np.ndarray:
    """Unit vector v with Re(v* S v) < cutoff, for the Hermitian S with smallest eigenvalue lam_min.

    Two solves (S - mu I) x_{k+1} = x_k from a fixed start vector, mu just
    below lam_min (inverse iteration; Ipsen, SIAM Review 39, 1997).  The
    result is normalised with its largest component rotated to the positive
    real axis and kept only when its Rayleigh quotient verifies; when a
    solve fails or the check does not hold, the eigenvector of a full
    ``eigh`` is returned instead.
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
    return np.linalg.eigh(S)[1][:, 0] if x is None else x


def _eigen_rungs(S: np.ndarray, orders: list[int], tol: float) -> tuple[list, Optional[int], Optional[np.ndarray]]:
    """Rung minima, first failing order and its witness, from one ``eigvalsh`` per rung.

    By Cauchy interlacing lambda_min cannot rise from one rung to the next;
    a rise beyond the rung's cutoff plus the eigen-solver's rounding is an
    InternalCheckError.
    """
    mins, witness_order, witness_vector = [], None, None
    for i, N in enumerate(orders):
        sec = S[:N, :N]
        w = np.linalg.eigvalsh(sec)
        scale = float(np.max(np.abs(w)))
        lam = float(w[0])
        slack = psd_cutoff(w, tol)
        if mins and lam > mins[-1] + slack + eigensolve_rounding(N, scale):
            raise InternalCheckError(
                f"internal: lambda_min rose from {mins[-1]} at order {orders[i - 1]} to "
                f"{lam} at order {N}, against Cauchy interlacing"
            )
        mins.append(lam)
        if lam < -slack and witness_order is None:
            witness_order = N
            witness_vector = _witness(sec, lam, scale, -slack)
    return mins, witness_order, witness_vector


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
    holds the real diagonal of the section of the largest order.
    """
    u = UNIT_ROUNDOFF
    n = np.asarray(orders, dtype=float)
    k = n + (4.0 if is_complex else 2.0)
    g = k * u / (1.0 - k * u)
    trace = np.cumsum(np.maximum(diag, 0.0))[np.asarray(orders) - 1] + n * cutoffs
    largest = np.maximum.accumulate(np.abs(diag))[np.asarray(orders) - 1] + cutoffs
    eta = np.finfo(float).smallest_subnormal
    return 2.0 * g / (1.0 - g) * trace + 4.0 * (n + 1.0) * (2.0 * (n + 2.0) + largest) * eta


def norm_lower_bound(S: np.ndarray, N: int) -> float:
    """A number no larger than ||S_N||_2, from four power-iteration steps on the leading order-N section.

    Each step's ||fl(S_N x)|| / ||x|| is shrunk by the rounding of the
    product and of the norms (|fl(S x) - S x| <= gamma_{N+4} |S| |x| and
    || |S_N| ||_2 <= sqrt(N) ||S_N||_2), so it stays below ||S_N||_2, as does
    the largest |S_ii|.  NaN when the section is not finite.
    """
    sec = S[:N, :N]
    best = float(np.max(np.abs(sec.diagonal())))
    shrink = 1.0 - 4.0 * (N + 4) * (1.0 + math.sqrt(N)) * UNIT_ROUNDOFF
    x = np.random.default_rng(0).standard_normal(N)
    x /= np.linalg.norm(x)
    for _ in range(4):
        y = sec @ x
        size = float(np.linalg.norm(y))
        if not math.isfinite(size):
            return math.nan
        if size == 0.0:
            break
        best = max(best, shrink * size / float(np.linalg.norm(x)))
        x = y / size
    return best


def norm_upper_bound(S: np.ndarray, N: int) -> float:
    """A number no smaller than ||S_N||_2: the lesser of the largest absolute row sum and the Frobenius norm.

    Read 256 rows at a time, so no full-size copy of S is made; the result
    is raised by the rounding of the sums.
    """
    rows, square = 0.0, 0.0
    for i in range(0, N, 256):
        a = np.abs(S[i:i + 256, :N])
        rows = max(rows, float(np.max(a.sum(axis=1))))
        square += float(np.vdot(a, a))
    return min(rows, math.sqrt(square)) * (1.0 + 4.0 * (N * N + N) * UNIT_ROUNDOFF)


def _shifted_cholesky(S: np.ndarray, N: int, shift: float) -> Optional[np.ndarray]:
    """Lower Cholesky factor of fl(S_N + shift I), or None when the factorisation breaks down.

    The shift goes onto S's diagonal in place, which is restored afterwards.
    A factor with a non-finite pivot counts as a breakdown.
    """
    i = np.arange(N)
    saved = S[i, i]
    S[i, i] += shift
    try:
        L = np.linalg.cholesky(S[:N, :N])
    except np.linalg.LinAlgError:
        return None
    finally:
        S[i, i] = saved
    return L if np.all(np.isfinite(L.diagonal())) else None


def _lower_solve(L: np.ndarray, B: np.ndarray, block: int = 256) -> np.ndarray:
    """L^{-1} B for a lower-triangular L: a solve per diagonal block, matrix products for the rest."""
    X = np.array(B, dtype=np.result_type(L, B))
    for i in range(0, L.shape[0], block):
        X[i:i + block] = np.linalg.solve(L[i:i + block, i:i + block], X[i:i + block] - L[i:i + block, :i] @ X[:i])
    return X


def _schur_witness(S: np.ndarray, N: int, P: int, L: np.ndarray, t: float, cutoff: float) -> Optional[np.ndarray]:
    """Verified unit witness for the order-N section from the factor L L* = fl(S_P + t I), P < N, or None.

    With B = S[:P, P:N] and the Schur complement C = S[P:N, P:N] + t I -
    B* (S_P + t I)^{-1} B, a negative direction y of C gives x = [-(S_P +
    t I)^{-1} B y; y] with x* (S_N + t I) x = y* C y.  x is kept only when
    its Rayleigh quotient against the unshifted section is below cutoff.
    """
    W = _lower_solve(L, S[:P, P:N])
    C = S[P:N, P:N] - W.conj().T @ W
    C[np.diag_indices(N - P)] += t
    y = np.linalg.eigh(C)[1][:, 0]
    z = _lower_solve(L.conj().T[::-1, ::-1], (W @ y)[::-1])[::-1]  # L^{-*} W y, as a lower solve on the reversed L*
    x = np.concatenate([-z, y])
    return _verified(x / np.linalg.norm(x), S[:N, :N], cutoff)


def _cholesky_rungs(S: np.ndarray, orders: list[int], tol: float) -> Optional[tuple[list, Optional[int], Optional[np.ndarray]]]:
    """Rung values, first failing order and its witness for the rungs above ``EIGEN_LADDER_MAX``.

    eps_N = ``psd_cutoff`` at l_N = ``norm_lower_bound`` <= ||S_N||_2, so it
    is never above the eigen-ladder cutoff tol (1 + max |lambda|).  One
    factor of the top section shifted by s = min_N (eps_N - c_N) certifies
    every rung: the leading blocks of the factor are the factors of the
    leading sections, so its success proves lambda_min(S_N) >= -eps_N at all
    of them at once (``cholesky_rounding``).  Only when it fails are the
    rungs below the top factored in increasing order, each at its own shift.
    A rung whose factor fails gets a witness from the Schur complement over
    the last factor that passed (``_schur_witness``), kept only when its
    Rayleigh quotient is below -tol (1 + ``norm_upper_bound``), hence below
    the eigen-ladder cutoff; otherwise an ``eigvalsh`` of that section judges
    it by that cutoff, and ``_witness`` gives its witness.  So every verdict
    is the eigen ladder's.  None when s is not positive (or not finite): a
    factor shifted down cannot certify a singular PSD section, and the
    eigen ladder is then the cheaper route.
    """
    cutoffs = np.array([psd_cutoff(np.array([norm_lower_bound(S, N)]), tol) for N in orders])
    rounding = cholesky_rounding(orders, S.diagonal().real, cutoffs, np.iscomplexobj(S))
    shifts = cutoffs - rounding
    shifts -= 2.0 * UNIT_ROUNDOFF * np.abs(shifts)  # rounded down, so t + c_N <= eps_N holds exactly
    s = float(np.min(shifts))
    if not s > 0.0:
        return None
    if _shifted_cholesky(S, orders[-1], s) is not None:
        return [-float(e) for e in cutoffs], None, None
    mins, base = [], (EIGEN_LADDER_MAX, None, None)  # the last eigen rung's factor is formed on demand
    for i, N in enumerate(orders):
        eps = float(cutoffs[i])
        if N < orders[-1]:  # the top rung has just failed at a shift no larger than its own
            L = _shifted_cholesky(S, N, float(shifts[i]))
            if L is not None:
                base = (N, L, float(shifts[i]))
                mins.append(-eps)
                continue
        P, L, t = base
        if t is None:
            t = float(shifts[i])
            L = _shifted_cholesky(S, P, t)
            base = (P, L, t)
        x = None if L is None else _schur_witness(S, N, P, L, t, -tol * (1.0 + norm_upper_bound(S, N)))
        if x is None:
            sec = S[:N, :N]
            w = np.linalg.eigvalsh(sec)
            slack = psd_cutoff(w, tol)
            if w[0] >= -slack:
                mins.append(float(w[0]))
                continue
            x = _witness(sec, float(w[0]), float(np.max(np.abs(w))), -slack)
        q = float(np.vdot(x, S[:N, :N] @ x).real)
        return mins + [q] * (len(orders) - i), N, x
    return mins, None, None


def psd_check(matrix: CoefficientMatrix, max_order: int, tol: float = 1e-9) -> PsdCertificate:
    """Certify formal positive semi-definiteness up to max_order.

    Formal PSD means every finite section is PSD, which is exactly
    equivalent to the kernel being a positive semi-definite function; the
    ladder documents how far that was actually checked.  Requires a
    self-adjoint matrix.

    Rungs of order <= ``EIGEN_LADDER_MAX`` compute eigenvalues only, with
    the Cauchy-interlacing check of ``_eigen_rungs``.  The rungs above it
    are certified together by one verified Cholesky factorisation of the
    top section (``_cholesky_rungs``), in real arithmetic when the section
    is real; the method then reads "eigenvalue-ladder + verified-cholesky".
    When Rump's rounding constant leaves no positive shift (a small tol on
    a large trace), those rungs are eigen-solves too.  Once a rung has
    failed, every later rung above 256 reports its witness's Rayleigh
    quotient, which bounds that rung's lambda_min from above.
    """
    if max_order < 1:
        raise SpecError("max_order must be >= 1")
    S = hermitian_section(matrix, max_order)
    orders = psd_ladder_orders(max_order)
    low = [N for N in orders if N <= EIGEN_LADDER_MAX]
    mins, witness_order, witness_vector = _eigen_rungs(S, low, tol)
    high = orders[len(low):]
    method = "eigenvalue-ladder"
    if high and witness_vector is None:
        dtype = S.dtype
        if not (np.any(S[-1].imag) or np.any(S.imag)):  # the last row settles most complex sections
            S = np.ascontiguousarray(S.real)
        rungs = _cholesky_rungs(S, high, tol)
        if rungs is None:
            rungs = _eigen_rungs(S, high, tol)
        else:
            method += " + verified-cholesky"
        high_mins, witness_order, witness_vector = rungs
        if witness_vector is not None:
            witness_vector = witness_vector.astype(dtype)
        mins += high_mins
    elif high:
        N = witness_order
        mins += [float(np.vdot(witness_vector, S[:N, :N] @ witness_vector).real)] * len(high)
    verdict = "psd" if witness_order is None else "not_psd"
    return PsdCertificate(
        tuple(orders), tuple(mins), tol, verdict, witness_order, witness_vector, method
    )


def bandwidth_detect(
    matrix: CoefficientMatrix, order: int, tol: float = 1e-12
) -> Optional[int]:
    """Smallest k with |a_{m,n}| <= tol whenever |m - n| > k, judged at truncation.

    Returns None when the only admissible k is the trivial order-1 (the
    truncation cannot distinguish that from unbounded bandwidth).
    """
    m, n = support_pattern(matrix, order, tol)
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
    grid_step: float = 0.25,
    grid_count: int = 50,
    grid_margin: float = 0.1,
) -> RecoveredBlock:
    """Recover the leading order x order coefficient block of a black-box kernel.

    The kernel is sampled on a real grid p_r = sigma_min + margin + step*r.
    Since kappa(p, q) = sum a_{m,n} m**(-p) n**(-q), the samples satisfy
    K = V A V^T with the known design matrix V[r, i] = i**(-p_r); the
    coefficient block is the induced least-squares solution.  Joint
    elimination is the numerically stable form of the peeling recursion
    a_{1,1} = lim kappa(p, p), then successively subtracting recovered
    rows/columns and rescaling by m**p n**q: both solve the same triangular
    system, but the joint solve does not compound subtraction noise.
    Blocks from two shorter grid prefixes are kept so callers can judge
    stabilisation along the increasing p sequence.
    """
    if order < 1:
        raise SpecError("order must be >= 1")
    if grid_count < order + 12:
        raise SpecError("grid_count must be at least order + 12 for stable prefixes")
    ps = sigma_min + grid_margin + grid_step * np.arange(grid_count)
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
    stability_rtol: float = 2e-6,
    grid_step: float = 0.25,
    grid_count: int = 50,
) -> complex:
    """Recover a_{m,n} from a black-box kernel evaluator.

    The estimate must stabilise along an increasing sequence of real grid
    arguments: the three successive estimates (two grid prefixes plus the
    full grid) have to agree within a scale-aware tolerance, otherwise the
    evaluator is not behaving like a regularly convergent kernel and
    RecoveryError is raised.

    sigma_min should be the evaluator's certified edge for finitely
    supported kernels; for kernels with mass beyond the modeled order, move
    it up (edge + 1 or more) so the unmodeled tail cannot bias the fit -
    the stability check fails loudly when it does.
    """
    if m < 1 or n < 1:
        raise SpecError("indices are 1-based")
    if max(m, n) > order:
        raise SpecError("requested entry lies outside the recovered block")
    rec = recover_block(
        eval_fn, order, sigma_min=sigma_min, grid_step=grid_step, grid_count=grid_count
    )
    e1 = complex(rec.prefix_blocks[0][m - 1, n - 1])
    e2 = complex(rec.prefix_blocks[1][m - 1, n - 1])
    e3 = complex(rec.block[m - 1, n - 1])
    tol = max(1e-8, stability_rtol * max(1.0, rec.kernel_scale))
    if abs(e3 - e2) > tol or abs(e2 - e1) > tol:
        raise RecoveryError(
            f"recovery diverged at entry ({m},{n}): successive estimates "
            f"{e1!r}, {e2!r}, {e3!r} do not stabilise within {tol!r}"
        )
    return e3
