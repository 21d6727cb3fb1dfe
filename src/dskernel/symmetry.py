"""Kernel invariance under the half-plane's linear automorphisms, and quasi-invariance classification.

The linear automorphisms of the right half-plane Re(s) > rho are the
vertical translations s - ib and the scalings a**2 (s - rho) + rho.  For
Dirichlet series kernels, invariance and quasi-invariance are extremely
rigid: translation invariance forces a diagonal coefficient matrix,
invariance under the linear subgroup a constant kernel (the (1,1) entry
alone), and quasi-invariance under the full automorphism group forces the
kernel to factor through a single nonvanishing Dirichlet series (rank one).
The classifiers below decide those structural conditions from the
coefficient pattern at a truncation and back every verdict with numeric
witnesses or checks: an off-diagonal entry gives a translation witness,
which defeats the linear subgroup too, and a scaling moves a diagonal kernel
that is not constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CertificationError, OutsideDomainError
from .kernel import DirichletKernel, check_tol, hermitian_section, kernel_eval, support_pattern, unit_phase
from .series import GeneralDirichletSeries, evaluate

#: random translations at which ``translation_invariance_test`` samples a diagonal kernel
TRANSLATION_SAMPLES = 20


def rank_one_factor(
    matrix, order: int, tol: float = 1e-8
) -> Optional[np.ndarray]:
    """Factor a_{m,n} = fhat(m) conj(fhat(n)) from the truncation, if it exists.

    Numerical rank one means the second singular value is at most tol times
    the first; the factor is the scaled principal eigenvector with its
    largest component rotated to the positive real axis (the factor is only
    determined up to a unimodular scalar).  Returns the zero vector for the
    zero matrix and None when the rank exceeds one; a section that is not
    self-adjoint is a HermitianError (``hermitian_section``), a negative,
    infinite or NaN tol a SpecError (``check_tol``).
    """
    check_tol(tol)
    S = hermitian_section(matrix, order)
    return _rank_one_factor(S, _singular_values(S), tol)


def _singular_values(S: np.ndarray) -> np.ndarray:
    """Singular values of the Hermitian S, descending: its |eigenvalues|, from eigvalsh."""
    return np.sort(np.abs(np.linalg.eigvalsh(S)))[::-1]


def _rank_one_factor(S: np.ndarray, sv: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """rank_one_factor on the Hermitian section S with singular values sv.

    The rank test needs the singular values only; the eigenvectors are
    computed only once the test has passed.
    """
    if sv[0] <= tol:
        return np.zeros(S.shape[0], dtype=complex)
    if sv.size > 1 and sv[1] > tol * sv[0]:
        return None
    lam, V = np.linalg.eigh(S)
    top = int(np.argmax(np.abs(lam)))
    f = unit_phase(V[:, top] * math.sqrt(abs(lam[top])))
    if np.max(np.abs(S - np.outer(f, np.conj(f)))) > tol * (1.0 + sv[0]):
        return None
    return f


def _probe(kernel: DirichletKernel, ms: complex, mu: complex, s: complex, u: complex, order: int) -> tuple:
    """(|kappa(ms, mu) - kappa(s, u)|, the sum of the two error radii, |kappa(s, u)|): kappa at the moved
    pair, then at (s, u), each a ``kernel_eval`` at order.  A disc of infinite radius bounds no deviation, so
    it is a CertificationError, not a pass."""
    lhs = kernel_eval(kernel, ms, mu, order)
    rhs = kernel_eval(kernel, s, u, order)
    radii = lhs.error_radius + rhs.error_radius
    if not math.isfinite(radii):
        raise CertificationError(f"kernel value at order {order} near (s, u) = ({s}, {u}) has an infinite error "
                                 "radius: no invariance verdict can be certified")
    return abs(lhs.value - rhs.value), radii, abs(rhs.value)


@dataclass(frozen=True)
class InvarianceWitness:
    """A concrete violation: |kappa(moved s, moved u) - kappa(s, u)| = violation."""

    b: float
    s: complex
    u: complex
    violation: float


@dataclass(frozen=True)
class TranslationReport:
    invariant: bool
    structural_diagonal: bool
    max_deviation: float
    witness: Optional[InvarianceWitness]
    samples: int


def translation_invariance_test(kernel: DirichletKernel, order: int, tol: float = 1e-6, seed: int = 0) -> TranslationReport:
    """Decide invariance under all vertical translations s -> s - ib.

    Structurally this happens exactly when the coefficient matrix is
    diagonal (off-diagonal terms pick up the factor (m/n)**(ib)).  The
    structural verdict is cross-checked numerically: invariant kernels are
    sampled at up to TRANSLATION_SAMPLES random translations, and
    non-diagonal ones get an explicit witness built from the leading
    off-diagonal entry, evaluated deep enough in the half-plane that the
    entry dominates the rest.  ``samples`` counts the translations drawn: 0
    for a non-diagonal kernel.  A negative, infinite or NaN tol is a
    SpecError (``support_pattern``).
    """
    m, n, values = support_pattern(kernel.matrix, order, tol)
    off = np.flatnonzero(m != n)
    if off.size:
        witness = _translation_witness(kernel, m, n, values, off, order, tol)
        return TranslationReport(False, False, witness.violation if witness else 0.0, witness, 0)
    edge = kernel.certified_sigma()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for drawn in range(1, TRANSLATION_SAMPLES + 1):
        b = float(rng.uniform(-10, 10))
        s = edge + 0.5 + rng.uniform(0, 2) + 1j * rng.uniform(-3, 3)
        u = edge + 0.5 + rng.uniform(0, 2) + 1j * rng.uniform(-3, 3)
        dev, radii, size = _probe(kernel, s - 1j * b, u - 1j * b, s, u, order)
        if dev > radii + tol * (1 + size):
            return TranslationReport(False, True, dev, InvarianceWitness(b, s, u, dev), drawn)
        worst = max(worst, dev)
    return TranslationReport(True, True, worst, None, TRANSLATION_SAMPLES)


def _translation_witness(kernel: DirichletKernel, m: np.ndarray, n: np.ndarray, values: np.ndarray, off: np.ndarray,
                         order: int, tol: float) -> Optional[InvarianceWitness]:
    """Search for (b, s, u) violating translation invariance by more than tol.

    m, n and values are ``support_pattern``'s entries with |a_{m,n}| > tol,
    off the positions of the off-diagonal ones; the first 8 of those,
    ordered by m n, then m, then n, lead.  For such an entry (m0, n0) of phase phi, b = theta/log(m0/n0)
    turns that term and its conjugate by theta, moving their sum at real
    s = u by 2|a|(cos(phi + theta) - cos phi); theta = pi - phi if
    cos phi >= 0, else -phi, in (-pi, pi], makes that 2|a|(1 + |cos phi|):
    never 0, as pi is for an imaginary entry, and pi for a real one.
    Evaluating at s = u = sigma, sigma growing, makes the term dominate the
    remaining off-diagonal mass, so the difference stays provably above tol
    once sigma is large enough.
    """
    mn = m[off] * n[off]
    # only the entries up to the 8th least m n need sorting
    near = off[mn <= np.partition(mn, min(7, mn.size - 1))[min(7, mn.size - 1)]]
    lead = near[np.lexsort((n[near], m[near], m[near] * n[near]))[:8]]
    edge = kernel.certified_sigma()
    for m0, n0, a in zip(m[lead].tolist(), n[lead].tolist(), values[lead].tolist()):
        phi = cmath.phase(a)
        theta = math.remainder(math.pi - phi if math.cos(phi) >= 0.0 else -phi, 2.0 * math.pi)  # in [-pi, pi]
        b = (theta if theta != -math.pi else math.pi) / math.log(m0 / n0)
        for sigma in np.arange(edge + 0.5, edge + 24.5, 0.5):
            s = u = complex(sigma)
            dev, radii, _ = _probe(kernel, s - 1j * b, u - 1j * b, s, u, order)
            if dev > max(tol, 3.0 * radii):
                return InvarianceWitness(b, s, u, dev)
    return None


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of quasi-invariance classification at a truncation.

    verdict is "quasi_invariant" or "not_quasi_invariant"; factor holds the
    recovered fhat for rank-one kernels (zero vector for the zero kernel).
    Grid nonvanishing plus the large-Re dominance threshold form a partial
    certificate only: zero-freeness of a Dirichlet series is not decidable
    from a truncation.
    """

    verdict: str
    reason: str
    factor: Optional[np.ndarray]
    singular_values: tuple
    grid_values: tuple
    nonvanishing_sigma: Optional[float]


def quasi_invariance_classify(
    kernel: DirichletKernel,
    order: int,
    tol: float = 1e-8,
    grid: Sequence[complex] = (),
) -> ClassificationReport:
    """Classify quasi-invariance through the rank test.

    Quasi-invariant Dirichlet series kernels are exactly those factoring as
    f(s) conj(f(u)) with f identically zero or nowhere vanishing; any
    kernel whose space has dimension > 1 cannot be quasi-invariant.  The
    computable content is the rank-one test plus a nonvanishing check for
    the factor on the supplied grid and asymptotically for large Re.  A
    negative, infinite or NaN tol is a SpecError (``check_tol``).
    """
    check_tol(tol)
    S = hermitian_section(kernel.matrix, order)
    sv = _singular_values(S)
    f = _rank_one_factor(S, sv, tol)
    leading = tuple(float(x) for x in sv[:4])
    if f is None:
        return ClassificationReport(
            "not_quasi_invariant", f"rank >= 2 at order {order}", None, leading, (), None
        )
    if not np.any(np.abs(f) > 0):
        return ClassificationReport("quasi_invariant", "zero kernel", f, leading, (), None)
    series = GeneralDirichletSeries.ordinary(f, finite=True)
    grid_vals = []
    for z in grid:
        z = complex(z)
        if z.real <= kernel.rho:
            raise OutsideDomainError(f"grid point {z} outside the half-plane")
        val = evaluate(series, z, len(f)).value
        grid_vals.append(val)
        if abs(val) <= tol * float(np.sum(np.abs(f))):
            return ClassificationReport(
                "not_quasi_invariant",
                f"factor vanishes at grid point {z} (partial check)",
                f,
                leading,
                tuple(grid_vals),
                None,
            )
    return ClassificationReport(
        "quasi_invariant",
        "rank-one with grid-nonvanishing factor (partial certificate)",
        f,
        leading,
        tuple(grid_vals),
        _dominance_sigma(f),
    )


def _dominance_sigma(f: np.ndarray) -> Optional[float]:
    """Smallest grid sigma where the first nonzero coefficient provably dominates.

    For Re(s) >= the returned value, |f(s)| >= |f(n0)| n0**(-sigma) -
    sum_{n>n0} |f(n)| n**(-sigma) > 0, so the factor cannot vanish there.
    The 0.5-step grid on [0, 400) ends past log(sum_{n>n0} |f(n)| / |f(n0)|) / log(n1/n0),
    n1 the second support index: from there on (n1/n0)**(-sigma) alone gives the dominance.
    """
    nz = np.nonzero(np.abs(f) > 0)[0]
    if nz.size == 0:
        return None
    if nz.size == 1:
        return 0.0
    n, c = nz + 1.0, np.abs(f[nz])
    stop = max((math.log(np.sum(c[1:])) - math.log(c[0])) / math.log(n[1] / n[0]), 0.0) + 1.0
    sigma = np.arange(0.0, min(stop, 400.0), 0.5)
    # summed over axis 0, term after term, in index order
    tail = (c[1:, None] * n[1:, None] ** -sigma).sum(axis=0)
    ok = np.flatnonzero(c[0] * n[0] ** -sigma > tail)
    return float(sigma[ok[0]]) if ok.size else None


@dataclass(frozen=True)
class LinearInvarianceReport:
    constant: bool
    invariant: bool
    witness_kind: Optional[str]
    witness_param: Optional[float]
    witness_point: Optional[tuple]
    violation: float


def linear_invariance_test(kernel: DirichletKernel, order: int, tol: float = 1e-6) -> LinearInvarianceReport:
    """Invariance under the linear automorphism subgroup (translations + scalings).

    Only constant kernels (coefficient mass at the (1,1) entry alone) pass;
    the witness against any other comes from the coefficient pattern.  The
    translations lie in the subgroup, so an off-diagonal entry is met by
    ``translation_invariance_test``'s witness (kind "translation", param b).
    A diagonal kernel, or one with no translation witness, is moved by a
    scaling psi_a(s) = a**2 (s - rho) + rho, a in (2, sqrt 2, 3) (kind
    "scaling", param a), searched over sigma and Im s.  A negative, infinite
    or NaN tol is a SpecError (``support_pattern``).
    """
    m, n, values = support_pattern(kernel.matrix, order, tol)
    if np.all((m == 1) & (n == 1)):
        return LinearInvarianceReport(True, True, None, None, None, 0.0)
    off = np.flatnonzero(m != n)
    witness = _translation_witness(kernel, m, n, values, off, order, tol) if off.size else None
    if witness is not None:
        return LinearInvarianceReport(False, False, "translation", witness.b, (witness.s, witness.u),
                                      witness.violation)
    edge, rho = kernel.certified_sigma(), kernel.rho
    best = 0.0
    for a in (2.0, math.sqrt(2.0), 3.0):
        for sigma in np.arange(edge + 0.5, edge + 12.5, 0.5):
            for im in (0.0, 0.7, -1.3):
                s = complex(sigma, im)
                u = complex(sigma + 0.25, -im / 2)
                # psi_a, rounded as the Moebius map of diag(a, 1/a) rounds it: a**2 (z - rho) differs by an ulp
                ps, pu = (a * (z - rho) / (1.0 / a) + rho for z in (s, u))
                if ps.real <= edge or pu.real <= edge:
                    continue
                dev, radii, _ = _probe(kernel, ps, pu, s, u, order)
                if dev > max(tol, 3.0 * radii):
                    return LinearInvarianceReport(False, False, "scaling", a, (s, u), dev)
                best = max(best, dev)
    return LinearInvarianceReport(False, False, None, None, None, best)
