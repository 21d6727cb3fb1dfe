"""Finite-span sandbox for the translation-homogeneous generator.

On the space of a diagonal kernel with admissible support, the vertical
kernel translates f_b = kappa_{a+ib} are linearly independent and total,
and the densely defined operator T f_b = ib f_b satisfies the homogeneity
relation U_c T = (T - icI) U_c against the shift unitaries U_c f_b =
f_{b+c}.  The relation is an exact algebraic identity in the offset labels,
so offsets are exact rationals and span coefficients are exact Gaussian
rationals: the verification below returns a literally zero vector, not a
small one.  Gram matrices of translates, by contrast, are numeric with
certified entry radii.  Admissibility is decided from the support's kind,
and the adjoint condition is the diagonal kernel's one disc at a - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import SpecError
from .kernel import DirichletKernel, check_order, kernel_eval
from .matrices import AdmissibleSupport, DiagonalMatrix
from .rules import SequenceRule
from .series import (SUBNORMAL_MIN, UNIT_ROUNDOFF, HalfPlane, em_start, exponent_sum, log_table, powers,
                     rounding_radius, zeta_tails)

#: columns of the phase matrix formed at once by ``translate_gram``'s head: 4 MB
#: of complex phases for 64 offsets, however many columns K the head has
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
        if isinstance(x, (Fraction, int, float)):
            return cls(Fraction(x), Fraction(0))
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        raise SpecError(f"cannot coerce {x!r} to an exact complex number")

    def times_imag(self, b: Fraction) -> "ExactComplex":
        """Multiply by i*b exactly."""
        return ExactComplex(-self.im * b, self.re * b)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


#: span vectors map exact rational offsets to exact Gaussian-rational coefficients
SpanVector = dict


def span_vector(entries: dict) -> SpanVector:
    """Normalise a mapping offset -> coefficient into exact form, dropping zeros."""
    out: SpanVector = {}
    for off, coef in entries.items():
        off, c = Fraction(off), ExactComplex.of(coef)
        if not c.is_zero:
            out[off] = c
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    """``admissibility_check``'s answer, exact at every order: no cutoff enters it."""

    admissible: bool
    multiplicatively_closed: bool
    coprime_pair: Optional[tuple]


def admissibility_check(support: AdmissibleSupport) -> AdmissibilityReport:
    """Decide admissibility, the hypothesis behind translate independence, from the support's kind.

    Admissible means infinite, multiplicatively closed and holding two coprime
    members != 1.  ``all`` is, with the pair (2, 3).  Every member of
    ``powers`` b or ``generated`` is a product of its generators (b alone for
    ``powers``), so the support is closed, and two members are coprime iff two
    generators are: the pair is the first coprime pair of the sorted
    generators.  ``explicit`` is finite, so never admissible, and closed iff
    no element exceeds 1; its pair is the first coprime pair of its elements
    >= 2 in ascending order.
    """
    if support.kind == "all":
        return AdmissibilityReport(True, True, (2, 3))
    finite = support.kind == "explicit"
    listed = support.elements if finite else (support.base,) if support.kind == "powers" else support.generators
    members = sorted({int(n) for n in listed if n >= 2})
    # members sharing one prime have no coprime pair, and one gcd of them all finds that in O(len)
    pair = None if math.gcd(*members) != 1 else next(
        ((p, q) for i, p in enumerate(members) for q in members[i + 1 :] if math.gcd(p, q) == 1), None)
    return AdmissibilityReport(pair is not None and not finite, not (finite and members), pair)


@dataclass(frozen=True)
class TranslateSpan:
    """Finite family of kernel translates kappa_{a+ib_j} over a diagonal kernel.

    a must exceed the domain edge rho; offsets are exact rationals and must
    be pairwise distinct.  The diagonal sequence, its support, the order and
    rho determine the Gram matrix and the adjoint condition of the family.
    """

    a: float
    offsets: tuple
    diagonal: SequenceRule
    support: AdmissibleSupport
    order: int
    rho: float = 0.0

    def __post_init__(self):
        offs = tuple(Fraction(o) for o in self.offsets)
        if len(set(offs)) != len(offs):
            raise SpecError("offsets must be pairwise distinct")
        if self.a <= self.rho:
            raise SpecError("need a > rho")
        check_order(self.order)
        object.__setattr__(self, "offsets", offs)


@dataclass(frozen=True)
class TranslateGram:
    """Gram matrix of the translates with a certified entrywise radius."""

    matrix: np.ndarray
    entry_radius: float
    min_eigenvalue: float
    eigenvalue_lower_bound: float
    independent: bool


def translate_gram(span: TranslateSpan) -> TranslateGram:
    """G[j, k] = <kappa_{a+ib_j}, kappa_{a+ib_k}> = sum a_n n**(-2a) n**(-i(b_j-b_k)).

    The reproducing identity turns inner products of translates into kernel
    values, which for a diagonal kernel is the single sum above, truncated
    at the span order with the diagonal kernel's tail radius at (a, a) plus
    a bound on the rounding of the truncated sum.  The n summed are those
    of ``DiagonalMatrix(diagonal, support).nonzero_entries``: the declared
    support intersected with {n : a_n != 0}; with none, G = 0.  The family
    is independent at this truncation (``independent``) iff the eigenvalue
    lower bound, the least eigenvalue less the number of offsets times the
    entry radius, is positive.

    The head n < K is E diag(w) E* with E[j, n] = exp(-i c_j log n), built
    GRAM_BLOCK columns at a time; the c_j are the offsets centred on their
    midrange, which leaves b_j - b_k and G unchanged and keeps the phases,
    and their rounding, within half the spread.  For an unmasked constant or
    power diagonal c n**p, K = ``series.em_start`` at the widest pair's
    z = 2a - p + i(b_j - b_k), and ``series.zeta_tails`` adds each entry's
    c sum_{n=K}^{N} n**-z: O(offsets (K + offsets)) work, not O(offsets N).
    Otherwise the head is the whole sum.
    """
    # the offsets as integers num over one denominator D: each quotient below is correctly rounded
    D = math.lcm(*(b.denominator for b in span.offsets))
    num = [b.numerator * (D // b.denominator) for b in span.offsets]
    hi, lo = max(num), min(num)
    law = span.diagonal.power_law() if span.support.kind == "all" else None
    s, ds = exponent_sum(2.0 * span.a, -law[1]) if law else (0j, 0.0)
    K = em_start(complex(s.real, (hi - lo) / D), 1, span.order) if law else span.order + 1
    idx, diag = _terms(DiagonalMatrix(span.diagonal, span.support), K - 1)
    weights = diag * powers(2.0 * span.a, K - 1)[idx]
    logs = log_table(K - 1)[idx]
    c = np.array([(2 * x - hi - lo) / (2 * D) for x in num])
    G = np.zeros((c.size, c.size), dtype=complex)
    for start in range(0, logs.size, GRAM_BLOCK):
        block = logs[start : start + GRAM_BLOCK]
        E = np.empty((c.size, block.size), dtype=complex)
        # the phases -c_j log n wait in E.imag, so no third array is held beside E
        np.cos(np.outer(-c, block, out=E.imag), out=E.real)
        np.sin(E.imag, out=E.imag)
        G += (E * weights[start : start + GRAM_BLOCK]) @ E.conj().T
    G = 0.5 * (G + G.conj().T)  # exactly Hermitian, with a real diagonal
    radius = DiagonalMatrix(span.diagonal).tail_radius(span.a, span.a, span.order)
    if math.isfinite(radius) and logs.size:  # no term, no rounding: the head is exactly 0
        # each term carries the powers n**(-2a), n**(-i c_j) and n**(i c_k)
        radius += rounding_radius(float(np.sum(weights)), (2.0 * span.a + (hi - lo) / D) * float(weights @ logs),
                                  2 * logs.size + 8)
    if K <= span.order:
        # b_j - b_k for j < k, 0 first for the diagonal; their rounding joins ds in the tails' dz
        gaps = np.array([0.0, *((x - y) / D for i, x in enumerate(num) for y in num[i + 1 :])])
        tail, r, _ = zeta_tails(s.real + 1j * gaps, ds + UNIT_ROUNDOFF * np.abs(gaps) + SUBNORMAL_MIN, K, span.order)
        tail *= law[0].real
        j, k = np.triu_indices(c.size, 1)
        G[j, k] += tail[1:]
        G[k, j] = G[j, k].conj()
        np.fill_diagonal(G, G.diagonal().real + tail[0].real)
        # the product by c and the addition round once per component each
        radius += float(np.max(abs(law[0].real) * r + 2.0 * UNIT_ROUNDOFF * (np.abs(tail) + np.max(np.abs(G)))))
    w = np.linalg.eigvalsh(G)
    min_eig = float(w[0])
    lower = min_eig - (radius * c.size if math.isfinite(radius) else math.inf)
    return TranslateGram(G, radius, min_eig, lower, bool(lower > 0))


def _terms(matrix: DiagonalMatrix, N: int) -> tuple[np.ndarray, np.ndarray]:
    """n - 1 and the real a_n for the support's members n <= N with a_n != 0; SpecError if one is not real or is < 0."""
    n, _, values = matrix.nonzero_entries(N)
    return n - 1, _real_nonnegative(values)


def _real_nonnegative(values: np.ndarray) -> np.ndarray:
    """The real parts of values; SpecError if one is not real or is < 0."""
    if np.any(values.imag != 0):
        raise SpecError("diagonal sequence must be real")
    if np.any(values.real < 0):
        raise SpecError("diagonal sequence must be non-negative")
    return values.real


def apply_generator(span: TranslateSpan, v: SpanVector) -> SpanVector:
    """T v: multiply the coefficient at offset b by the eigenvalue i*b, exactly."""
    for b in v:
        if Fraction(b) not in span.offsets:
            raise SpecError(f"unknown offset label {Fraction(b)}")
    return span_vector({b: coef.times_imag(Fraction(b)) for b, coef in v.items()})


def apply_shift(c, v: SpanVector) -> SpanVector:
    """U_c v: relabel every translate offset b to b + c; coefficients unchanged."""
    c = Fraction(c)
    return {b + c: coef for b, coef in v.items()}


def homogeneity_residual(c, b) -> SpanVector:
    """U_c T delta_b - (T - icI) U_c delta_b in exact label coordinates.

    The homogeneity relation U_c T = (T - icI) U_c is an exact identity:
    U_c T delta_b = ib delta_{b+c} and (T - icI) U_c delta_b = (i(b+c) - ic)
    delta_{b+c}, so the residual is i(b - ((b+c) - c)) delta_{b+c}, the
    empty vector, at zero tolerance, whenever the arithmetic is exact.
    """
    c, b = Fraction(c), Fraction(b)
    return span_vector({b + c: ExactComplex(Fraction(0), b - ((b + c) - c))})


@dataclass(frozen=True)
class AdjointConditionReport:
    """Weighted summability report for sum n**(2 delta) b_n**2 / a_n.

    For the canonical weights b_n = a_n n**(-a) the sum is precisely the
    diagonal kernel value at (a - delta, a - delta): kernel_value and
    kernel_radius are its ``kernel_eval`` disc, None where a - delta is not
    past the kernel's certified edge.  verdict is "finite", "divergent" or
    "unknown": finiteness makes the adjoint domain of the span generator
    trivial.
    """

    verdict: str
    exponent: Optional[float]
    remainder_bound: float
    kernel_value: Optional[complex]
    kernel_radius: Optional[float]


def adjoint_condition_check(span: TranslateSpan, delta: float) -> AdjointConditionReport:
    """Check the weighted summability hypothesis behind adjoint triviality on the span's diagonal kernel.

    The weights are the canonical b_n = a_n n**(-a); no others are taken.
    The sum is then the diagonal kernel at (a - delta, a - delta), over the
    n that ``translate_gram`` sums, to the span's order and edge rho.
    """
    if not 0 < delta < math.inf:
        raise SpecError(f"delta must be positive and finite, got {delta}")
    matrix, rule = DiagonalMatrix(span.diagonal, support=span.support), span.diagonal
    # the refusal of a value that is not real or is negative: an explicit rule's values, or the scale, whose
    # sign every value scale * ratio**l * l**exponent (ratio > 0) shares
    if rule.is_finite:
        _terms(matrix, min(span.order, len(rule.values)))
    else:
        _real_nonnegative(np.array([complex(rule.scale)]))
    pb = span.diagonal.poly_bound()
    # terms are a_n n**(2 delta - 2a) <= C n**(p + 2 delta - 2a): the diagonal kernel's tail at a - delta
    exponent = None if pb is None else pb[1] + 2.0 * delta - 2.0 * span.a
    point = span.a - delta
    remainder = matrix.tail_radius(point, point, span.order)
    if math.isfinite(remainder):
        verdict = "finite"
    elif span.support.kind == "all" and span.diagonal.power_law() is not None and exponent >= -1.0:
        verdict = "divergent"  # exact p-series comparison: terms = c n**exponent
    else:
        verdict = "unknown"
    kern = DirichletKernel(matrix, HalfPlane(span.rho))
    disc = kernel_eval(kern, point, point, span.order) if point > kern.certified_sigma() else None
    value, radius = (None, None) if disc is None else (disc.value, disc.error_radius)
    return AdjointConditionReport(verdict, exponent, remainder, value, radius)
