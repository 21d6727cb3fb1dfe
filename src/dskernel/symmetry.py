"""Half-plane automorphisms and kernel invariance classification.

Aut of the right half-plane Re(s) > rho is the SL2(R) family
phi(s) = (a(s-rho) - ib) / (ic(s-rho) + d) + rho; the linear subgroup
(c = 0) contains the vertical translations s - ib and the scalings
a**2 (s - rho) + rho.  For Dirichlet series kernels, invariance and
quasi-invariance are extremely rigid: translation invariance forces a
diagonal coefficient matrix, and quasi-invariance under the full group
forces the kernel to factor through a single nonvanishing Dirichlet series
(rank one).  The classifiers below decide those structural conditions at a
truncation and back every verdict with numeric witnesses or checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CertificationError, OutsideDomainError, SpecError
from .kernel import DirichletKernel, check_tol, hermitian_section, kernel_eval, support_pattern
from .series import GeneralDirichletSeries, evaluate

SL2_DET_TOL = 1e-12
LINEAR_C_TOL = 1e-14


@dataclass(frozen=True)
class Automorphism:
    """phi_A for A = (a, b; c, d) in SL2(R), acting on Re(s) > rho."""

    a: float
    b: float
    c: float
    d: float
    rho: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > SL2_DET_TOL:
            raise SpecError(f"matrix determinant {det} is not 1")

    @classmethod
    def identity(cls, rho: float) -> "Automorphism":
        return cls(1.0, 0.0, 0.0, 1.0, rho)

    @classmethod
    def translation(cls, b: float, rho: float) -> "Automorphism":
        """phi_b(s) = s - ib."""
        return cls(1.0, b, 0.0, 1.0, rho)

    @classmethod
    def scaling(cls, a: float, rho: float) -> "Automorphism":
        """psi_a(s) = a**2 (s - rho) + rho."""
        if a == 0:
            raise SpecError("scaling parameter must be nonzero")
        return cls(a, 0.0, 0.0, 1.0 / a, rho)

    @property
    def is_linear(self) -> bool:
        return abs(self.c) <= LINEAR_C_TOL

    def apply(self, s: complex) -> complex:
        s = complex(s)
        if s.real <= self.rho:
            raise OutsideDomainError(f"point {s} is not in the half-plane Re > {self.rho}")
        w = s - self.rho
        return (self.a * w - 1j * self.b) / (1j * self.c * w + self.d) + self.rho

    def __call__(self, s: complex) -> complex:
        return self.apply(s)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Matrix product: (self o other) = phi_{A B}."""
        if self.rho != other.rho:
            raise SpecError("automorphisms act on different half-planes")
        return Automorphism(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.rho,
        )

    def inverse(self) -> "Automorphism":
        return Automorphism(self.d, -self.b, -self.c, self.a, self.rho)


def rank_one_factor(
    matrix, order: int, tol: float = 1e-8
) -> Optional[np.ndarray]:
    """Factor a_{m,n} = fhat(m) conj(fhat(n)) from the truncation, if it exists.

    Numerical rank one means the second singular value is at most tol times
    the first; the factor is the scaled principal eigenvector with its
    largest component rotated to the positive real axis (the factor is only
    determined up to a unimodular scalar).  Returns the zero vector for the
    zero matrix and None when the rank exceeds one; a section that is not
    self-adjoint is a HermitianError (``hermitian_section``), a negative or
    NaN tol a SpecError (``check_tol``).
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
    f = V[:, top] * math.sqrt(abs(lam[top]))
    j = int(np.argmax(np.abs(f)))
    phase = f[j] / abs(f[j])
    f = f / phase
    if np.max(np.abs(S - np.outer(f, np.conj(f)))) > tol * (1.0 + sv[0]):
        return None
    return f


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


def translation_invariance_test(
    kernel: DirichletKernel,
    order: int,
    tol: float = 1e-6,
    samples: int = 20,
    seed: int = 0,
) -> TranslationReport:
    """Decide invariance under all vertical translations s -> s - ib.

    Structurally this happens exactly when the coefficient matrix is
    diagonal (off-diagonal terms pick up the factor (m/n)**(ib)).  The
    structural verdict is cross-checked numerically: invariant kernels are
    sampled at random translations, and non-diagonal ones get an explicit
    witness built from the leading off-diagonal entry, evaluated deep
    enough in the half-plane that the entry dominates the rest.  A
    negative or NaN tol is a SpecError (``support_pattern``).
    """
    m, n = support_pattern(kernel.matrix, order, tol)
    diagonal = bool(np.all(m == n))
    edge = kernel.certified_sigma()
    rng = np.random.default_rng(seed)
    if diagonal:
        worst = 0.0
        for _ in range(samples):
            b = float(rng.uniform(-10, 10))
            s = edge + 0.5 + rng.uniform(0, 2) + 1j * rng.uniform(-3, 3)
            u = edge + 0.5 + rng.uniform(0, 2) + 1j * rng.uniform(-3, 3)
            lhs = kernel_eval(kernel, s - 1j * b, u - 1j * b, order)
            rhs = kernel_eval(kernel, s, u, order)
            dev = abs(lhs.value - rhs.value)
            slack = lhs.error_radius + rhs.error_radius + tol * (1 + abs(rhs.value))
            if dev > slack:
                return TranslationReport(
                    False, True, dev, InvarianceWitness(b, s, u, dev), samples
                )
            worst = max(worst, dev)
        return TranslationReport(True, True, worst, None, samples)
    offdiag = [(int(a), int(b)) for a, b in zip(m, n) if a != b]
    witness = _translation_witness(kernel, offdiag, order, tol)
    return TranslationReport(
        False, False, witness.violation if witness else 0.0, witness, samples
    )


def _translation_witness(
    kernel: DirichletKernel, offdiag: list, order: int, tol: float
) -> Optional[InvarianceWitness]:
    """Search for (b, s, u) violating translation invariance by more than tol.

    ``offdiag`` lists the 1-based off-diagonal (m, n) with |a_{m,n}| > tol.
    For such an entry (m0, n0), the translation b = pi/log(m0/n0)
    flips that term's phase; evaluating at real s = u = sigma with sigma
    growing makes the term dominate the remaining off-diagonal mass, so the
    difference stays provably above tol once sigma is large enough.
    """
    offdiag = sorted(offdiag, key=lambda mn: (mn[0] * mn[1], mn))
    edge = kernel.certified_sigma()
    for m0, n0 in offdiag[:8]:
        b = math.pi / math.log(m0 / n0)
        for sigma in np.arange(edge + 0.5, edge + 24.5, 0.5):
            s = u = complex(sigma)
            lhs = kernel_eval(kernel, s - 1j * b, u - 1j * b, order)
            rhs = kernel_eval(kernel, s, u, order)
            dev = abs(lhs.value - rhs.value)
            slack = lhs.error_radius + rhs.error_radius
            if dev > max(tol, 3.0 * slack):
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
    negative or NaN tol is a SpecError (``check_tol``).
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
    """
    nz = np.nonzero(np.abs(f) > 0)[0]
    if nz.size == 0:
        return None
    n0 = int(nz[0]) + 1
    rest = [(int(i) + 1, abs(f[i])) for i in nz[1:]]
    if not rest:
        return 0.0
    lead = abs(f[n0 - 1])
    for sigma in np.arange(0.0, 400.0, 0.5):
        tail = sum(c * n ** (-sigma) for n, c in rest)
        if lead * n0 ** (-sigma) > tail:
            return float(sigma)
    return None


@dataclass(frozen=True)
class LinearInvarianceReport:
    constant: bool
    invariant: bool
    witness_kind: Optional[str]
    witness_param: Optional[float]
    witness_point: Optional[tuple]
    violation: float


def linear_invariance_test(
    kernel: DirichletKernel, order: int, tol: float = 1e-8
) -> LinearInvarianceReport:
    """Invariance under the linear automorphism subgroup (translations + scalings).

    Only constant kernels (coefficient mass at the (1,1) entry alone) pass;
    any other kernel is defeated by an explicit scaling or a
    translation-composed scaling, which the search below produces.  A
    negative or NaN tol is a SpecError (``support_pattern``).
    """
    m, n = support_pattern(kernel.matrix, order, tol)
    if np.all((m == 1) & (n == 1)):
        return LinearInvarianceReport(True, True, None, None, None, 0.0)
    edge = kernel.certified_sigma()
    rho = kernel.rho
    candidates = [
        ("scaling", 2.0, Automorphism.scaling(2.0, rho)),
        ("scaling", math.sqrt(2.0), Automorphism.scaling(math.sqrt(2.0), rho)),
        ("scaling", 3.0, Automorphism.scaling(3.0, rho)),
        (
            "translation+scaling",
            2.0,
            Automorphism.translation(1.0, rho).compose(Automorphism.scaling(2.0, rho)),
        ),
    ]
    best = 0.0
    for kind, param, phi in candidates:
        for sigma in np.arange(edge + 0.5, edge + 12.5, 0.5):
            for im in (0.0, 0.7, -1.3):
                s = complex(sigma, im)
                u = complex(sigma + 0.25, -im / 2)
                ps, pu = phi(s), phi(u)
                if ps.real <= edge or pu.real <= edge:
                    continue
                lhs = kernel_eval(kernel, ps, pu, order)
                rhs = kernel_eval(kernel, s, u, order)
                dev = abs(lhs.value - rhs.value)
                slack = lhs.error_radius + rhs.error_radius
                if dev > max(tol, 3.0 * slack):
                    return LinearInvarianceReport(
                        False, False, kind, param, (s, u), dev
                    )
                best = max(best, dev)
    return LinearInvarianceReport(False, False, None, None, None, best)


def cocycle_unitarity_check(
    fhat: Sequence[complex],
    phi: Automorphism,
    sample_points: Sequence[complex],
    order: int,
    zero_tol: float = 1e-12,
) -> float:
    """Gram preservation of the weighted substitution operator on a rank-one kernel.

    For kappa = f conj(f) and the cocycle J(psi, s) = f(s)/f(psi(s)), the
    operator (U h)(s) = J(phi**-1, s) h(phi**-1 (s)) must send kernel
    sections to elements with unchanged pairwise inner products (computed
    by reproducing: <kappa_u, kappa_v> = kappa(v, u)).  Returns the largest
    deviation found, combining Gram mismatch and the defect of U-images
    staying proportional to f.  Refuses if f vanishes at any point it is
    needed.
    """
    f = np.asarray(fhat, dtype=complex)
    series = GeneralDirichletSeries.ordinary(f, finite=True)
    pts = [complex(z) for z in sample_points]
    if not pts:
        raise SpecError("need at least one sample point")
    inv = phi.inverse()
    scale = float(np.sum(np.abs(f))) + 1e-300

    def fval(z: complex) -> complex:
        v = evaluate(series, z, len(f)).value
        if abs(v) <= zero_tol * scale:
            raise CertificationError(f"factor vanishes at needed point {z}")
        return v

    # U kappa_u evaluated at s: J(inv, s) * kappa(inv(s), u)
    coords = {}
    defect = 0.0
    for u in pts:
        vals = []
        for s in pts:
            w = inv(s)
            j = fval(s) / fval(w)
            vals.append(j * fval(w) * np.conj(fval(u)))
        ref = vals[0] / fval(pts[0])
        coords[u] = ref
        for s, v in zip(pts, vals):
            defect = max(defect, abs(v - ref * fval(s)))
    gram_dev = 0.0
    for u in pts:
        for v in pts:
            lhs = coords[u] * np.conj(coords[v])  # <U kappa_u, U kappa_v>, |f| normalised
            rhs = fval(v) * np.conj(fval(u))  # kappa(v, u)
            gram_dev = max(gram_dev, abs(lhs - rhs))
    return max(defect, gram_dev)
