"""Dirichlet series kernel evaluation and positivity certification.

The kernel attached to a coefficient matrix a is the double series
kappa(s, u) = sum a_{m,n} m**(-s) n**(-conj(u)), regularly convergent on a
declared half-plane product.  Everything here works at finite truncation:
values carry certified radii built from the envelope (or exact finite
tails), positivity is certified by an eigenvalue ladder over leading
principal sections, and black-box coefficient recovery inverts the kernel
on a real evaluation grid.

Certificates build their self-adjoint section once (``hermitian_section``).
The ladder computes eigenvalues only; the witness of the first failing
section comes from shifted inverse iteration and is verified, with a full
``eigh`` of that section as the fallback.
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


def hermitian_part(T: np.ndarray, tol: float = HERMITIAN_TOL) -> Optional[np.ndarray]:
    """(T + T*)/2, or None if T is not Hermitian.

    T counts as Hermitian when max |T - T*| <= tol (1 + max |T|): the
    rounding of a product such as ``np.outer(f, conj(f))`` grows with the
    entries, so an absolute cutoff would reject large Hermitian blocks.
    The result is a new array, never a view of T.
    """
    H = T.conj().T
    if T.size and np.max(np.abs(T - H)) > tol * (1.0 + np.max(np.abs(T))):
        return None
    return 0.5 * (T + H)


def hermitian_section(matrix: CoefficientMatrix, order: int, tol: float = 1e-12) -> Optional[np.ndarray]:
    """The symmetrised order x order section, or None if it is not Hermitian (``hermitian_part``)."""
    return hermitian_part(matrix.truncation(order), tol)


def self_adjoint_check(matrix: CoefficientMatrix, order: int, tol: float = 1e-12) -> bool:
    """max |a_{m,n} - conj(a_{n,m})| <= tol (1 + max |a_{m,n}|) over the leading order x order section."""
    return hermitian_section(matrix, order, tol) is not None


def support_pattern(matrix: CoefficientMatrix, order: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """1-based index arrays (m, n) of the entries with |a_{m,n}| > tol, from one truncation."""
    m, n = np.nonzero(np.abs(matrix.truncation(order)) > tol)
    return m + 1, n + 1


@dataclass(frozen=True)
class PsdCertificate:
    """Eigenvalue-ladder positivity certificate.

    min_eigenvalues[i] is the smallest eigenvalue of the leading
    orders[i] x orders[i] section.  The verdict is "psd" when every section
    clears the scale-aware cutoff -tol*(1 + ||section||); otherwise the
    first failing order and a witness vector are recorded.  The witness is
    a verified inverse-iteration vector: unit norm, largest component real
    and positive, and a Rayleigh quotient below that order's cutoff.
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


#: inverse iteration shifts this far below lambda_min, relative to
#: 1 + ||section||: clear of exact singularity, yet close enough that two
#: solves damp every other eigenvector by (shift / gap)**2
WITNESS_SHIFT = 1e-10


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
    if x is not None and np.all(np.isfinite(x)):
        j = int(np.argmax(np.abs(x)))
        x *= abs(x[j]) / x[j]
        if np.vdot(x, S @ x).real < cutoff:
            return x
    return np.linalg.eigh(S)[1][:, 0]


def psd_check(matrix: CoefficientMatrix, max_order: int, tol: float = 1e-9) -> PsdCertificate:
    """Certify formal positive semi-definiteness up to max_order.

    Formal PSD means every finite section is PSD, which is exactly
    equivalent to the kernel being a positive semi-definite function; the
    ladder documents how far that was actually checked.  Requires a
    self-adjoint matrix.

    Each rung computes eigenvalues only.  By Cauchy interlacing lambda_min
    cannot rise from one rung to the next; a rise beyond the rung's cutoff
    plus the eigen-solver's rounding is an InternalCheckError.
    """
    if max_order < 1:
        raise SpecError("max_order must be >= 1")
    S = hermitian_section(matrix, max_order, tol=HERMITIAN_TOL)
    if S is None:
        raise HermitianError(f"matrix is not self-adjoint at this order (relative tolerance {HERMITIAN_TOL})")
    orders, mins = [], []
    witness_order, witness_vector = None, None
    for N in psd_ladder_orders(max_order):
        sec = S[:N, :N]
        w = np.linalg.eigvalsh(sec)
        scale = float(np.max(np.abs(w)))
        lam = float(w[0])
        slack = tol * (1.0 + scale)
        if mins and lam > mins[-1] + slack + 8 * N * np.finfo(float).eps * scale:
            raise InternalCheckError(
                f"internal: lambda_min rose from {mins[-1]} at order {orders[-1]} to "
                f"{lam} at order {N}, against Cauchy interlacing"
            )
        orders.append(N)
        mins.append(lam)
        if lam < -slack and witness_order is None:
            witness_order = N
            witness_vector = _witness(sec, lam, scale, -slack)
    verdict = "psd" if witness_order is None else "not_psd"
    return PsdCertificate(
        tuple(orders), tuple(mins), tol, verdict, witness_order, witness_vector
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
