"""Closed-form sequence rules.

A handful of rule shapes (constant, geometric, power, explicit list) cover
every sequence this package needs to reason about rigorously: series
coefficients, diagonal kernel entries, and the coupling/tail sequences of
arrowhead matrices.  Restricting to these shapes is what makes summability
conditions certifiable: each rule admits a polynomial envelope and the
ratio sums below have closed forms or certified remainders.

The constant, geometric and power rules are one formula,
scale * ratio**l * l**exponent, evaluated by numpy in one method: ``prefix``
forms it over 1..n and ``value`` at l alone, unless the memo of the last
prefix covers l, so a value always equals its prefix entry bit for bit.
``rule_from_spec`` reads every field as a finite double or complex.

``weighted_ratio_sum`` sums |num(l)|**2 / den(l): over the support of an
explicit rule, quotients of prefixes; otherwise terms A q**l l**gamma, where
the exact q = num.ratio**2 / den.ratio, compared with 1, and gamma decide.
q = 1, gamma < -1 is zeta(-gamma) (``series.partial_zeta`` to infinity);
q < 1, gamma = 0 is q/(1 - q); any other q < 1 is a partial sum and a
certified remainder; q > 1, or q = 1 and gamma >= -1, diverges.  Each sum
combines ``series.ValueWithBound`` balls, which price their own rounding,
and a libm result enters as ``ValueWithBound.libm`` (``series.LIBM_UNITS``).
"""

from __future__ import annotations

import cmath
import contextlib
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CertificationError, SpecError
from .series import CACHE_LIMIT, UNIT_ROUNDOFF, ZETA_HEADLESS, ValueWithBound as Ball, ball_fsum, em_start, partial_zeta

RULE_KINDS = ("constant", "geometric", "power", "explicit")


@dataclass(frozen=True)
class SequenceRule:
    """One-indexed sequence ``l -> value(l)`` with a declared closed form.

    kinds:
      constant   value(l) = scale
      geometric  value(l) = scale * ratio**l
      power      value(l) = scale * l**exponent
      explicit   value(l) = values[l-1], zero beyond the stored list

    ``is_finite`` (an explicit list), ``power_law()`` and ``poly_bound()``
    are constants of the rule, formed once when it is made, as is an
    explicit list's read-only complex array, which its prefixes view.
    """

    kind: str
    scale: complex = 1.0
    ratio: float = 1.0
    exponent: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise SpecError(f"unknown rule kind {self.kind!r}")
        if self.kind == "explicit" and len(self.values) == 0:
            raise SpecError("explicit rule needs at least one value")
        if self.ratio != 1.0 and self.kind != "geometric" or self.exponent != 0.0 and self.kind != "power":
            raise SpecError(f"a {self.kind} rule takes no ratio or exponent of its own")
        if not (0.0 < self.ratio < math.inf and math.isfinite(self.exponent)):
            raise SpecError("a rule needs a finite ratio > 0 and a finite exponent")
        # the constants of an immutable rule, formed once: an explicit rule's bound scans its values
        finite = self.kind == "explicit"
        law = None if finite or self.ratio != 1.0 else (complex(self.scale), self.exponent)
        bound = ((max(abs(complex(v)) for v in self.values), 0.0) if finite else
                 (abs(self.scale) * self.ratio, self.exponent) if self.ratio <= 1.0 else None)
        object.__setattr__(self, "is_finite", finite)
        object.__setattr__(self, "_law", law)
        object.__setattr__(self, "_bound", bound)
        if finite:  # private: ``prefix`` hands out read-only views of it
            object.__setattr__(self, "_held", np.array(self.values, dtype=complex))

    # -- evaluation ---------------------------------------------------------

    def value(self, l: int) -> complex:
        """Value at l, from the memo when it covers l, else the formula at l alone; SpecError if not a finite double."""
        if l < 1:
            raise SpecError("rules are one-indexed")
        memo = self.__dict__.get("_memo")
        if memo is not None and l <= memo.size:
            return complex(memo[l - 1])
        if self.is_finite:
            v = complex(self.values[l - 1]) if l <= len(self.values) else 0j
        else:
            v = complex(self._formula(np.array([float(l)]))[0])
        if not cmath.isfinite(v):
            raise SpecError(_not_finite(l))
        return v

    def prefix(self, n: int) -> np.ndarray:
        """Values at l = 1..n as a read-only complex array; SpecError if one is not finite.

        The last prefix of at most CACHE_LIMIT values is memoised, and
        shorter requests are views of it.
        """
        memo = self.__dict__.get("_memo")
        if memo is not None and 0 <= n <= memo.size:
            return memo[:n]
        if self.is_finite:
            out = self._held[:n] if n <= self._held.size else np.pad(self._held, (0, n - self._held.size))
        else:
            out = self._formula(np.arange(1, n + 1, dtype=float))
        finite = np.isfinite(out)
        if not finite.all():
            raise SpecError(_not_finite(int(np.argmin(finite)) + 1))
        out.flags.writeable = False
        if n <= CACHE_LIMIT:
            object.__setattr__(self, "_memo", out)
        return out

    def _formula(self, ls: np.ndarray) -> np.ndarray:
        """scale * ratio**l * l**exponent at the indices ls, the one formula of the constant, geometric and power
        rules; ratio**l is formed only when the ratio is not 1, since 1**l is exactly 1."""
        with np.errstate(over="ignore", invalid="ignore"):
            terms = ls**self.exponent  # numpy's ones for an exponent of 0
            return complex(self.scale) * (self.ratio**ls * terms if self.ratio != 1.0 else terms)

    def is_positive(self) -> bool:
        """True if every value is provably > 0 (finite lists are scanned)."""
        if self.is_finite:
            return all(complex(v).imag == 0 and complex(v).real > 0 for v in self.values)
        s = complex(self.scale)
        return s.imag == 0 and s.real > 0

    def power_law(self) -> Optional[tuple[complex, float]]:
        """(c, p) with value(l) = c * l**p for every l, for any non-explicit rule of ratio 1; None otherwise."""
        return self._law

    def poly_bound(self) -> Optional[tuple[float, float]]:
        """(C, p) with |value(l)| <= C * l**p for all l >= 1, or None: ratio**l <= ratio for a ratio <= 1."""
        return self._bound


def _not_finite(l: int) -> str:
    return f"rule value at index {l} is not a finite double (overflow or NaN)"


def parse_complex(x) -> complex:
    """A complex number written as a number, an [re, im] pair or a string such as "1+2j"."""
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, complex):
        return x
    if isinstance(x, str):
        try:
            return complex(x.replace(" ", ""))
        except ValueError as exc:
            raise SpecError(f"cannot parse complex number from {x!r}") from exc
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise SpecError(f"cannot parse complex number from {x!r}")


_REQUIRED = object()


def spec_value(spec, key: str, cast=None, default=_REQUIRED):
    """spec[key], converted by cast; SpecError naming the key when it is missing or invalid."""
    if not isinstance(spec, dict):
        raise SpecError(f"expected a JSON object holding {key!r}, got {reprlib.repr(spec)}")
    if key not in spec:
        if default is _REQUIRED:
            raise SpecError(f"missing required key {key!r}")
        return default
    value = spec[key]
    if cast is None:
        return value
    try:
        return cast(value)
    except SpecError as exc:
        raise SpecError(f"key {key!r}: {exc}") from exc
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SpecError(f"invalid value for key {key!r}: {reprlib.repr(value)}") from exc


def _scalar(x):
    """A rule scale or value: a JSON number as a finite double, else any form parse_complex reads, finite."""
    v = float(x) if isinstance(x, (int, float)) else parse_complex(x)
    if not cmath.isfinite(v):
        raise ValueError(f"{x!r} is not finite")
    return v


def _scalars(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{values!r} is not a list")
    return tuple(_scalar(x) for x in values)


def rule_from_spec(spec: dict) -> SequenceRule:
    """Build a rule from its JSON form, e.g. {"kind": "geometric", "ratio": 4}."""
    kind = spec_value(spec, "kind", default=None)
    if kind == "explicit":
        return SequenceRule("explicit", values=spec_value(spec, "values", _scalars))
    scale = spec_value(spec, "scale", _scalar, 1.0)
    if kind == "constant":
        return SequenceRule("constant", scale=spec_value(spec, "value", _scalar, scale))
    if kind == "geometric":
        return SequenceRule("geometric", scale=scale, ratio=spec_value(spec, "ratio", float))
    if kind == "power":
        return SequenceRule("power", scale=scale, exponent=spec_value(spec, "exponent", float))
    raise SpecError(f"unknown rule kind {kind!r}")


#: most terms a mixed geometric * power ratio sum may add one by one: its memory cap
MIXED_TERMS_MAX = 2**20


@dataclass(frozen=True)
class RatioSum:
    """Result of summing t(l) = |num(l)|^2 / den(l) over l >= 1.

    The true sum lies within remainder_bound of total.  The bound covers
    truncation and rounding for every shape: the zeta and geometric closed
    forms, the finite sums and the mixed geometric x power sums.  exact
    records a closed form or a finite sum, not a zero radius.  partial_terms
    counts the terms summed one by one: for zeta(beta), the direct head of
    ``partial_zeta`` to infinity (none beyond ZETA_HEADLESS).
    """

    total: float
    exact: bool
    partial_terms: int
    remainder_bound: float


def _ratio_sum(total, exact: bool, partial_terms: int) -> RatioSum:
    return RatioSum(total.value, exact, partial_terms, total.error_radius)


def _normal_form(num: SequenceRule, den: SequenceRule):
    """Write t(l) = A * q**l * l**gamma for non-explicit rule pairs: A and q balls, gamma and its rounding.

    q = num.ratio**2 / den.ratio and gamma = 2 num.exponent - den.exponent; a ratio of 1 leaves q exact.
    """
    c, q, parts = complex(num.scale), Ball(1.0), [2 * num.exponent, -den.exponent]
    A = (Ball(c.real) * c.real + Ball(c.imag) * c.imag) / complex(den.scale).real
    if num.ratio != 1.0:
        q = Ball(num.ratio) * num.ratio
    if den.ratio != 1.0:
        q = q / den.ratio
    gamma = math.fsum(parts)
    # fsum rounds the exact sum once, so the residual is the rounding, itself correctly rounded
    residual = abs(math.fsum([*parts, -gamma])) if math.isfinite(gamma) else 0.0
    return A, q, gamma, math.nextafter(residual, math.inf) if residual else 0.0


def weighted_ratio_sum(num: SequenceRule, den: SequenceRule) -> RatioSum:
    """Certified value of sum_{l>=1} |num(l)|^2 / den(l), by the branch the module docstring lists for its
    exact q and its gamma (``_normal_form``); CertificationError when the sum provably diverges or cannot be
    certified finite."""
    if not den.is_positive():
        raise CertificationError("denominator sequence is not certifiably positive")
    if den.is_finite or num.is_finite:
        if not num.is_finite:
            # numerator extends beyond the stored denominators: undefined tail
            raise CertificationError("explicit denominator shorter than numerator support")
        L = len(num.values)
        v, d = num.prefix(L), den.prefix(L).real  # SpecError when one is not a finite double
        if not d.min() > 0.0:
            raise CertificationError(f"denominator value at l={int(np.argmin(d > 0.0)) + 1} is not positive")
        # |v|**2 rounds twice and the quotient once; a denominator formed with a power is within 6u (two libm
        # powers and two products, ``series.LIBM_UNITS`` each power); an underflow errs by a subnormal
        t = (v.real * v.real + v.imag * v.imag) / d
        rel = (9.0 if den.ratio != 1.0 or den.exponent != 0.0 else 3.0) * UNIT_ROUNDOFF
        return _ratio_sum(ball_fsum(t, rel * t + 2.0**-1074 + 2.0**-1073 / d), True, L)

    if num.scale == 0:
        return RatioSum(0.0, True, 0, 0.0)
    A, q, gamma, dgamma = _normal_form(num, den)
    exact_q = Fraction(num.ratio) ** 2 / Fraction(den.ratio)
    if exact_q > 1 or exact_q == 1 and 2 * Fraction(num.exponent) - Fraction(den.exponent) >= -1:
        raise CertificationError("ratio sum diverges: hypothesis (finite coupling sum) fails")
    if exact_q == 1:
        # sum l**gamma = zeta(-gamma), gamma < -1, for every exponent within the rounding dgamma of -gamma
        try:
            value, radius = partial_zeta(-gamma, dgamma, 1, math.inf)
        except SpecError:  # -gamma - dgamma <= 1
            raise CertificationError("ratio sum exponent within rounding of -1: the sum cannot be certified finite") from None
        head = em_start(complex(-gamma), 1, math.inf) - 1 if -gamma <= ZETA_HEADLESS else 0
        return _ratio_sum(A * Ball(value.real, radius), False, head)
    # 1 - q; where q's disc reaches 1, though q < 1, from the exact q rounded once
    gap = 1 - q if (1 - q).lower > 0.0 else Ball.libm(float(1 - exact_q))
    if gamma == 0.0:  # geometric: sum q**l = q/(1-q)
        return _ratio_sum(A * (q / gap), True, 0)
    # mixed, q < 1: the partial sum to L plus a remainder.  For l > L the term
    # ratio q ((l+1)/l)**gamma is at most rho = q ((L+1)/L)**g, g = max(gamma,
    # 0), a ball ((L+1)/L is exact; gamma's rounding moves the power by a factor
    # within 2 dgamma / L of 1).  As g log(1 + 1/L) < g/L, rho's disc lies below
    # 1 once g/L is below -log q less its rounding (32u and dgamma / 16): L is
    # the least power of two >= 64 above g over that room, and one check of
    # 1 - rho certifies it.  The remainder is the lesser of t(L+1) / (1 - rho)
    # and, for gamma < -1, q**(L+1) zeta(-gamma, L+1), which holds up to q = 1.
    g = max(gamma, 0.0)
    room = -math.log(q.upper) - 32.0 * UNIT_ROUNDOFF - dgamma / 16.0
    L = 1 << max(6, int(g / room).bit_length()) if 0.0 < g < room * MIXED_TERMS_MAX else 64
    gap = 1 - q * Ball.libm((1.0 + 1.0 / L) ** g) * Ball(1.0, 2.0 * dgamma / L) if g else gap
    if not gap.lower > 0.0:
        raise CertificationError(f"geometric ratio too close to 1: the ratio test needs more than {MIXED_TERMS_MAX} terms")
    ls = np.arange(1.0, L + 2.0)
    terms = q.value**ls * ls**gamma  # l = 1 .. L + 1
    # each term is off by q's 4u raised to the l-th power, by l**dgamma, by two powers (2u each) and their
    # product; one that underflows, by at most 2**-1072 (L+1)**max(gamma, 0)
    errors = terms * np.expm1(6.0 * UNIT_ROUNDOFF * (ls + 1.0) + dgamma * np.log(ls))
    underflow = Ball(0.0, 2.0**-1072 * (L + 1.0) ** g)
    spill = L * underflow
    partial = ball_fsum(np.append(terms[:L], spill.value), np.append(errors[:L], spill.error_radius))
    remainder = ((Ball(float(terms[L]), float(errors[L])) + underflow) / gap).upper
    if gamma < -1.0:
        with contextlib.suppress(SpecError):  # not for -gamma within rounding of 1
            value, radius = partial_zeta(-gamma, dgamma, L + 1, math.inf)
            remainder = min(remainder, (Ball.libm(min(q.upper, 1.0) ** (L + 1)) * Ball(value.real, radius)).upper)
    # the remainder lies in [0, remainder]: the disc of centre and radius h
    h = math.nextafter(remainder / 2.0, math.inf)
    return _ratio_sum(A * (partial + Ball(h, h)), False, L)
