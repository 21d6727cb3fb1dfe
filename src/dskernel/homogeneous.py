"""Finite-span sandbox for the translation-homogeneous generator.

On the space of a diagonal kernel with admissible support, the vertical
kernel translates f_b = kappa_{a+ib} are linearly independent and total,
and the densely defined operator T f_b = ib f_b satisfies the homogeneity
relation U_c T = (T - icI) U_c against the shift unitaries U_c f_b =
f_{b+c}.  The relation is an exact algebraic identity in the offset labels,
so offsets are exact rationals and span coefficients are exact Gaussian
rationals: the verification below returns a literally zero vector, not a
small one.  Gram matrices of translates, by contrast, are numeric with
certified entry radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import SpecError
from .kernel import DirichletKernel, kernel_eval
from .matrices import DiagonalMatrix
from .rules import SequenceRule, power_tail_bound
from .series import HalfPlane, log_table, powers, rounding_radius

#: columns of the phase matrix formed at once by ``translate_gram``: 4 MB of
#: complex phases for 64 offsets, however long the truncation
GRAM_BLOCK = 4096


@dataclass(frozen=True)
class ExactComplex:
    """Gaussian rational re + i*im with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, Fraction):
            return cls(x, Fraction(0))
        if isinstance(x, int):
            return cls(Fraction(x), Fraction(0))
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        if isinstance(x, float):
            return cls(Fraction(x), Fraction(0))
        raise SpecError(f"cannot coerce {x!r} to an exact complex number")

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def times_imag(self, b: Fraction) -> "ExactComplex":
        """Multiply by i*b exactly."""
        return ExactComplex(-self.im * b, self.re * b)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


#: span vectors map exact rational offsets to exact Gaussian-rational coefficients
SpanVector = dict


def span_vector(entries: dict) -> SpanVector:
    """Normalise a mapping offset -> coefficient into exact form, dropping zeros."""
    out: SpanVector = {}
    for off, coef in entries.items():
        off = off if isinstance(off, Fraction) else Fraction(off)
        c = ExactComplex.of(coef)
        if not c.is_zero:
            out[off] = c
    return out


def delta(offset) -> SpanVector:
    """The basis vector supported on one translate."""
    return span_vector({offset: ExactComplex.of(1)})


@dataclass(frozen=True)
class AdmissibleSupport:
    """Support set of a diagonal sequence, given by kind.

    kinds:
      all        every positive integer
      powers     powers base**j, j >= 0
      generated  all products of the listed generators (including 1)
      explicit   exactly the listed integers
    """

    kind: str
    base: int = 2
    generators: tuple = ()
    elements: tuple = ()

    def __post_init__(self):
        if self.kind not in ("all", "powers", "generated", "explicit"):
            raise SpecError(f"unknown support kind {self.kind!r}")
        if self.kind == "powers" and self.base < 2:
            raise SpecError("powers support needs base >= 2")
        if self.kind == "generated" and not self.generators:
            raise SpecError("generated support needs generators")
        if self.kind == "generated" and min(self.generators) < 2:
            raise SpecError("generated support needs generators >= 2")
        if self.kind == "explicit" and not self.elements:
            raise SpecError("explicit support needs elements")

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if self.kind == "all":
            return True
        if self.kind == "powers":
            while n % self.base == 0:
                n //= self.base
            return n == 1
        if self.kind == "generated":
            # search every chain of divisions: dividing greedily by the
            # largest generator misses products such as 900 = 6 * 10 * 15
            stack, seen = [n], set()
            while stack:
                x = stack.pop()
                if x == 1:
                    return True
                if x not in seen:
                    seen.add(x)
                    stack.extend(x // g for g in self.generators if x % g == 0)
            return False
        return n in self.elements

    def indices_up_to(self, M: int) -> np.ndarray:
        """1-based support members <= M, ascending."""
        if self.kind == "all":
            return np.arange(1, M + 1)
        if self.kind == "explicit":
            return np.array(sorted({e for e in self.elements if 1 <= e <= M}), dtype=int)
        # multiply out the generators: every member is a product of powers
        members = [1] if M >= 1 else []
        for g in {self.base} if self.kind == "powers" else set(self.generators):
            grown = []
            for x in members:
                while x <= M:
                    grown.append(x)
                    x *= g
            members = grown
        return np.unique(np.array(members, dtype=int))


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible_up_to: bool
    multiplicatively_closed: bool
    coprime_pair: Optional[tuple]
    checked_up_to: int


def admissibility_check(support: AdmissibleSupport, M: int) -> AdmissibilityReport:
    """Verify multiplicative closure within [1, M] and hunt a coprime pair.

    Admissibility (the hypothesis behind translate independence) asks for an
    infinite multiplicative support containing two coprime elements != 1;
    at a finite cutoff we certify closure for products landing below M and
    report the first coprime pair found.
    """
    if M < 4:
        raise SpecError("admissibility check needs M >= 4")
    members = [int(n) for n in support.indices_up_to(M)]
    member_set = set(members)
    closed = True
    for i, m in enumerate(members):
        if m == 1:
            continue
        for n in members[i:]:
            if n == 1:
                continue
            if m * n > M:
                break
            if m * n not in member_set:
                closed = False
                break
        if not closed:
            break
    pair = None
    nontrivial = [m for m in members if m != 1]
    for i, p in enumerate(nontrivial):
        for q in nontrivial[i + 1 :]:
            if math.gcd(p, q) == 1:
                pair = (p, q)
                break
        if pair:
            break
    return AdmissibilityReport(closed and pair is not None, closed, pair, M)


@dataclass(frozen=True)
class TranslateSpan:
    """Finite family of kernel translates kappa_{a+ib_j} over a diagonal kernel.

    a must exceed the domain edge rho; offsets are exact rationals and must
    be pairwise distinct.  The diagonal sequence and its support determine
    the Gram matrix of the family up to the truncation order.
    """

    a: float
    offsets: tuple
    diagonal: SequenceRule
    support: AdmissibleSupport
    order: int
    rho: float = 0.0

    def __post_init__(self):
        offs = tuple(o if isinstance(o, Fraction) else Fraction(o) for o in self.offsets)
        if len(set(offs)) != len(offs):
            raise SpecError("offsets must be pairwise distinct")
        if self.a <= self.rho:
            raise SpecError("need a > rho")
        if self.order < 1:
            raise SpecError("order must be >= 1")
        object.__setattr__(self, "offsets", offs)

    def require_offset(self, b) -> Fraction:
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b not in self.offsets:
            raise SpecError(f"unknown offset label {b}")
        return b


@dataclass(frozen=True)
class TranslateGram:
    """Gram matrix of the translates with a certified entrywise radius."""

    matrix: np.ndarray
    entry_radius: float
    min_eigenvalue: float
    eigenvalue_lower_bound: float
    independent: bool


def translate_gram(span: TranslateSpan, tol: float = 0.0) -> TranslateGram:
    """G[j, k] = <kappa_{a+ib_j}, kappa_{a+ib_k}> = sum a_n n**(-2a) n**(-i(b_j-b_k)).

    The reproducing identity turns inner products of translates into kernel
    values, which for a diagonal kernel is the single sum above, truncated
    at the span order with an envelope tail radius plus a bound on the
    rounding of the truncated sum.  Independence of the
    family at this truncation is certified when the eigenvalue lower bound
    (min eig minus accumulated entry radii) stays positive.

    G = E diag(w) E* with E[j, n] = exp(-i c_j log n), built GRAM_BLOCK
    columns at a time.  The c_j are the offsets centred on their midrange:
    the differences b_j - b_k, and with them G, are unchanged, and the
    phases stay within half the spread, which is what their rounding costs.
    """
    idx = span.support.indices_up_to(span.order) - 1
    if idx.size == 0:
        raise SpecError("support is empty below the truncation order")
    diag = np.real(span.diagonal.prefix(span.order))[idx]
    if np.any(diag < 0):
        raise SpecError("diagonal sequence must be non-negative")
    weights = diag * powers(2.0 * span.a, span.order)[idx]
    logs = log_table(span.order)[idx]
    hi, lo = max(span.offsets), min(span.offsets)
    c = np.array([float(b - (hi + lo) / 2) for b in span.offsets])
    G = np.zeros((c.size, c.size), dtype=complex)
    for start in range(0, logs.size, GRAM_BLOCK):
        E = np.exp(np.outer(-1j * c, logs[start : start + GRAM_BLOCK]))
        G += (E * weights[start : start + GRAM_BLOCK]) @ E.conj().T
    G = 0.5 * (G + G.conj().T)  # exactly Hermitian, with a real diagonal
    pb = span.diagonal.poly_bound()
    if pb is None:
        radius = math.inf
    else:
        C, p = pb
        radius = C * power_tail_bound(span.order, 2.0 * span.a - p)
        # each term carries the powers n**(-2a), n**(-i c_j) and n**(i c_k)
        radius += rounding_radius(
            float(np.sum(weights)), 2.0 * span.a + float(hi - lo), float(logs[-1]), 2 * logs.size + 8
        )
    w = np.linalg.eigvalsh(G)
    min_eig = float(w[0])
    lower = min_eig - (radius * c.size if math.isfinite(radius) else math.inf)
    return TranslateGram(G, radius, min_eig, lower, bool(lower > tol))


def apply_generator(span: TranslateSpan, v: SpanVector) -> SpanVector:
    """T v: multiply the coefficient at offset b by the eigenvalue i*b, exactly."""
    for b in v:
        span.require_offset(b)
    return _times_label(v)


def _times_label(v: SpanVector) -> SpanVector:
    """Multiply each coefficient by i times its own offset label."""
    return span_vector({b: coef.times_imag(Fraction(b)) for b, coef in v.items()})


def _difference(x: SpanVector, y: SpanVector) -> SpanVector:
    zero = ExactComplex()
    return span_vector({off: x.get(off, zero) - y.get(off, zero) for off in set(x) | set(y)})


def apply_shift(c, v: SpanVector) -> SpanVector:
    """U_c v: relabel every translate offset b to b + c; coefficients unchanged."""
    c = c if isinstance(c, Fraction) else Fraction(c)
    return {b + c: coef for b, coef in v.items()}


def homogeneity_residual(c, b) -> SpanVector:
    """U_c T delta_b - (T - icI) U_c delta_b in exact label coordinates.

    The homogeneity relation U_c T = (T - icI) U_c is an exact identity:
    both sides send delta_b to ib * delta_{b+c}.  The residual is therefore
    the empty vector, at zero tolerance, whenever the arithmetic is exact.
    """
    c = c if isinstance(c, Fraction) else Fraction(c)
    b = b if isinstance(b, Fraction) else Fraction(b)
    v = delta(b)
    shifted = apply_shift(c, v)
    lhs = apply_shift(c, _times_label(v))
    rhs = _difference(_times_label(shifted), {off: coef.times_imag(c) for off, coef in shifted.items()})
    return _difference(lhs, rhs)


@dataclass(frozen=True)
class AdjointConditionReport:
    """Weighted summability report for sum n**(2 delta) b_n**2 / a_n.

    For the canonical weights b_n = a_n n**(-a) the sum is precisely the
    diagonal kernel value at (a - delta, a - delta); identity_residual
    compares the two computations.  finite is the certified verdict
    ("finite" / "divergent" / "unknown"): finiteness makes the adjoint
    domain of the span generator trivial.
    """

    verdict: str
    exponent: Optional[float]
    partial_sum: float
    remainder_bound: float
    kernel_value: Optional[complex]
    kernel_radius: Optional[float]
    identity_residual: Optional[float]


def adjoint_condition_check(
    diagonal: SequenceRule,
    support: AdmissibleSupport,
    a: float,
    delta: float,
    M: int,
    weights: Optional[SequenceRule] = None,
    rho: float = 0.0,
) -> AdjointConditionReport:
    """Check the weighted summability hypothesis behind adjoint triviality.

    With the canonical choice weights = diagonal * n**(-a) (the default),
    the sum collapses to the diagonal kernel at (a - delta, a - delta), and
    both sides are computed and compared.  Custom weights get the same
    partial sum and envelope verdict without the kernel identity.
    """
    if delta <= 0:
        raise SpecError("delta must be positive")
    idx = support.indices_up_to(M) - 1
    diag = np.real(diagonal.prefix(M))[idx]
    if np.any(diag == 0):
        raise SpecError("malformed diagonal: zero value on a support index")
    if np.any(diag < 0):
        raise SpecError("diagonal must be positive on its support")
    canonical = weights is None
    if canonical:
        w = diag * powers(a, M)[idx]
    else:
        w = np.real(weights.prefix(M))[idx]
    terms = powers(-2.0 * delta, M)[idx] * w**2 / diag
    partial = float(np.sum(terms))

    pb = diagonal.poly_bound()
    exponent = None
    verdict = "unknown"
    remainder = math.inf
    if canonical and pb is not None:
        C, p = pb
        # terms are a_n n**(2 delta - 2a) <= C n**(p + 2 delta - 2a)
        exponent = p + 2.0 * delta - 2.0 * a
        if exponent < -1.0:
            verdict = "finite"
            remainder = C * power_tail_bound(M, -exponent)
        elif support.kind == "all" and diagonal.kind in ("constant", "power"):
            # exact p-series comparison: terms = scale * n**exponent
            verdict = "divergent"
            remainder = math.inf
    kernel_value = kernel_radius = residual = None
    if canonical:
        matrix = DiagonalMatrix(diagonal, support=support)
        kern = DirichletKernel(matrix, HalfPlane(rho))
        point = a - delta
        if point > kern.certified_sigma():
            vb = kernel_eval(kern, point, point, M)
            kernel_value, kernel_radius = vb.value, vb.error_radius
            residual = abs(partial - vb.value.real)
    return AdjointConditionReport(
        verdict, exponent, partial, remainder, kernel_value, kernel_radius, residual
    )


@dataclass(frozen=True)
class AdjointProbeReport:
    """Diagnostic least-squares probe of the adjoint pairing functional.

    For h in the space, b -> <h, T f_b> = -ib * h(a+ib) would need a
    Dirichlet series representation for h to sit in the adjoint domain; the
    theory says that never happens for h != 0.  A finite grid cannot
    certify that, so this only reports how badly a truncated series fits
    the functional and how the functional grows along the grid.
    """

    functional: tuple
    fit_residual: float
    relative_fit_residual: float
    growth_ratio: float
    fit_order: int


def adjoint_domain_probe(
    h_hat: Sequence[complex],
    a: float,
    b_grid: Sequence[float],
    fit_order: int = 8,
) -> AdjointProbeReport:
    """Fit b -> -ib*h(a+ib) by a truncated Dirichlet series in ib, report misfit.

    h is given by its coefficients; h(a+ib) = sum h_n n**(-a) n**(-ib) is
    evaluated directly.  The functional grows linearly in b while Dirichlet
    series on the imaginary axis are almost periodic, so a nonzero h leaves
    a visible residual on a wide enough grid.
    """
    h = np.asarray(h_hat, dtype=complex)
    bs = np.asarray(sorted(float(b) for b in b_grid), dtype=float)
    if bs.size < 2 * fit_order:
        raise SpecError("b grid too small for the requested fit order")
    # h(a + ib) = sum_n (h_n n**(-a)) n**(-ib): one matrix-vector product
    hvals = np.exp(np.outer(-1j * bs, log_table(h.size))) @ (h * powers(a, h.size))
    lam = -1j * bs * hvals
    E = np.exp(np.outer(-1j * bs, log_table(fit_order)))
    coef, *_ = np.linalg.lstsq(E, lam, rcond=None)
    resid = lam - E @ coef
    fit_residual = float(np.linalg.norm(resid))
    scale = float(np.linalg.norm(lam))
    rel = fit_residual / scale if scale > 0 else 0.0
    # compare the functional near b = 0 with the large-|b| region
    by_mag = np.argsort(np.abs(bs))
    third = max(1, bs.size // 3)
    inner = float(np.mean(np.abs(lam[by_mag[:third]])))
    outer = float(np.mean(np.abs(lam[by_mag[-third:]])))
    growth = outer / inner if inner > 0 else math.inf if outer > 0 else 1.0
    return AdjointProbeReport(
        tuple(lam.tolist()), fit_residual, rel, growth, fit_order
    )
