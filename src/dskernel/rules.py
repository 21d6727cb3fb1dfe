"""Closed-form sequence rules.

A handful of rule shapes (constant, geometric, power, explicit list) cover
every sequence this package needs to reason about rigorously: series
coefficients, diagonal kernel entries, and the coupling/tail sequences of
arrowhead matrices.  Restricting to these shapes is what makes summability
conditions certifiable: each rule admits a polynomial envelope and the
weighted ratio sums below have closed forms or certified remainders.

A sum of two power rules is a Riemann zeta value zeta(beta), beta > 1.
``zeta_enclosure`` encloses it by Euler-Maclaurin summation with a fixed
number of terms and a remainder bound for real arguments, so every closed
form here carries a radius for its truncation and rounding.
"""

from __future__ import annotations

import cmath
import math
import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificationError, SpecError

RULE_KINDS = ("constant", "geometric", "power", "explicit")

#: longest table kept between calls: the log table of ``series.log_table``
#: and the prefix a rule memoises (2**16 entries, 1 MB complex)
CACHE_LIMIT = 2**16


@dataclass(frozen=True)
class SequenceRule:
    """One-indexed sequence ``l -> value(l)`` with a declared closed form.

    kinds:
      constant   value(l) = scale
      geometric  value(l) = scale * ratio**l
      power      value(l) = scale * l**exponent
      explicit   value(l) = values[l-1], zero beyond the stored list
    """

    kind: str
    scale: complex = 1.0
    ratio: float = 1.0
    exponent: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise SpecError(f"unknown rule kind {self.kind!r}")
        if self.kind == "geometric" and self.ratio <= 0:
            raise SpecError("geometric rule needs ratio > 0")
        if self.kind == "explicit" and len(self.values) == 0:
            raise SpecError("explicit rule needs at least one value")

    # -- evaluation ---------------------------------------------------------

    def value(self, l: int) -> complex:
        """Value at l; SpecError if it is not a finite double."""
        if l < 1:
            raise SpecError("rules are one-indexed")
        try:
            v = self._value(l)
        except OverflowError:
            v = math.inf
        if not cmath.isfinite(v):
            raise SpecError(_not_finite(l))
        return v

    def _value(self, l: int) -> complex:
        if self.kind == "constant":
            return self.scale
        if self.kind == "geometric":
            return self.scale * self.ratio**l
        if self.kind == "power":
            return self.scale * float(l) ** self.exponent
        return self.values[l - 1] if l <= len(self.values) else 0.0

    def prefix(self, n: int) -> np.ndarray:
        """Values at l = 1..n as a read-only complex array; SpecError if one is not finite.

        The last prefix of at most CACHE_LIMIT values is memoised, and
        shorter requests are views of it.
        """
        memo = self.__dict__.get("_memo")
        if memo is not None and 0 <= n <= memo.size:
            return memo[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._prefix(n)
        finite = np.isfinite(out)
        if not finite.all():
            raise SpecError(_not_finite(int(np.argmin(finite)) + 1))
        out.flags.writeable = False
        if n <= CACHE_LIMIT:
            object.__setattr__(self, "_memo", out)
        return out

    def _prefix(self, n: int) -> np.ndarray:
        ls = np.arange(1, n + 1, dtype=float)
        if self.kind == "constant":
            return np.full(n, complex(self.scale))
        if self.kind == "geometric":
            return complex(self.scale) * self.ratio**ls
        if self.kind == "power":
            return complex(self.scale) * ls**self.exponent
        out = np.zeros(n, dtype=complex)
        m = min(n, len(self.values))
        out[:m] = np.asarray(self.values[:m], dtype=complex)
        return out

    @property
    def is_finite(self) -> bool:
        return self.kind == "explicit"

    def is_positive(self) -> bool:
        """True if every value is provably > 0 (finite lists are scanned)."""
        if self.kind == "explicit":
            return all(complex(v).imag == 0 and complex(v).real > 0 for v in self.values)
        s = complex(self.scale)
        return s.imag == 0 and s.real > 0

    def poly_bound(self) -> Optional[tuple[float, float]]:
        """(C, p) with |value(l)| <= C * l**p for all l >= 1, or None."""
        if self.kind == "constant":
            return abs(self.scale), 0.0
        if self.kind == "power":
            return abs(self.scale), self.exponent
        if self.kind == "geometric":
            if self.ratio <= 1.0:
                return abs(self.scale) * self.ratio, 0.0
            return None
        return (max(abs(complex(v)) for v in self.values), 0.0)


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
    """A rule scale or value: a JSON number as is, else any form parse_complex reads."""
    return x if isinstance(x, (int, float)) else parse_complex(x)


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


#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53

#: Euler-Maclaurin for ``zeta_enclosure``: head terms n < ZETA_N, ZETA_M corrections
ZETA_N, ZETA_M = 10, 8

#: B_{2k} / (2k)! for k = 1 .. ZETA_M + 1, each a correctly rounded quotient
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
              1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000)


def zeta_enclosure(beta: float) -> tuple[float, float]:
    """(value, radius) with |zeta(beta) - value| <= radius, for real beta > 1.

    Euler-Maclaurin summation with N = ZETA_N and M = ZETA_M (Edwards,
    Riemann's Zeta Function, 1974, sec. 6.4; Johansson, Numer. Algorithms
    69, 2015):

        zeta(s) = sum_{n<N} n**-s + N**(1-s)/(s-1) + N**-s/2
                  + sum_{k=1..M} B_{2k}/(2k)! s(s+1)...(s+2k-2) N**(-s-2k+1) + R,

    where, for real s, |R| is below the first omitted term (k = M + 1).
    That term is under 5e-18 zeta(s) for every s > 1, so the radius is
    mostly the rounding allowance, with u = UNIT_ROUNDOFF: each term is a
    ``pow`` (2u), at most 2M - 1 factors (s + j)/N (3u each) and a rounded
    coefficient (2u), so (6M + 1)u of its size covers it; ``math.fsum``
    adds one rounding of the value, so (6M + 2)u of the sum of |terms|
    covers all of it (the head terms, which dominate that sum, carry 2u
    only).  Terms that underflow, from beta near 300 on, err by less than
    1e-290, far inside that allowance, which is at least 50u since the
    first term is 1.  The term count does not depend on beta.
    """
    s = float(beta)
    if not s > 1.0:
        raise SpecError(f"zeta_enclosure needs real beta > 1, got {beta!r}")
    if math.isinf(s):
        return 1.0, 0.0
    t = ZETA_N**-s
    terms = [n**-s for n in range(1, ZETA_N)] + [ZETA_N * t / (s - 1.0), t / 2.0]
    fac = t / ZETA_N * s  # s(s+1)...(s+2k) N**(-s-2k-1) at k = 0
    for k, coeff in enumerate(_EM_COEFFS[:-1]):
        terms.append(coeff * fac)
        # left to right, so a zero fac never meets an overflowed product
        fac = fac * ((s + 2 * k + 1) / ZETA_N) * ((s + 2 * k + 2) / ZETA_N)
    value = math.fsum(terms)
    truncation = 2.0 * abs(_EM_COEFFS[-1]) * fac  # twice the first omitted term, for its own rounding
    return value, truncation + (6 * ZETA_M + 2) * UNIT_ROUNDOFF * math.fsum(map(abs, terms))


@dataclass(frozen=True)
class RatioSum:
    """Result of summing t(l) = |num(l)|^2 * l**extra / den(l) over l >= 1.

    The true sum lies within remainder_bound of total.  The bound covers
    truncation and rounding for the zeta and geometric closed forms and the
    rounding of the finite sums, but truncation alone for the mixed
    geometric x power sums.  exact records a closed form or a finite sum,
    not a zero radius.
    """

    total: float
    exact: bool
    partial_terms: int
    remainder_bound: float

    @property
    def upper(self) -> float:
        return self.total + self.remainder_bound


#: relative rounding, in units of UNIT_ROUNDOFF, of the scale A of
#: ``_normal_form`` (|scale|**2 and a quotient: 7u) and of the products and
#: quotients that carry it into a total; it also covers one term
#: |num(l)|**2 l**extra / den(l) of a finite sum (|.|**2: 3u, the power and
#: its product: 2u, a rule's den(l): 4u, the quotient: 1u)
_SCALE_ROUNDING = 12


def rounded_sum(terms: list, dens: list) -> tuple[float, float]:
    """``math.fsum`` of terms x/d, d in dens, and a bound on the total's error.

    Each term carries up to _SCALE_ROUNDING units of relative rounding, and
    underflow in x and in the quotient up to 2**-1072 (1 + 1/d) absolute.
    """
    total = math.fsum(terms)
    underflow = 2.0**-1072 * math.fsum(1.0 + 1.0 / d for d in dens)
    return total, UNIT_ROUNDOFF * (_SCALE_ROUNDING * math.fsum(map(abs, terms)) + abs(total)) + underflow


def _normal_form(num: SequenceRule, den: SequenceRule, extra: float) -> tuple[float, float, float, float]:
    """Write t(l) = A * q**l * l**gamma for non-explicit rule pairs; the last entry bounds |gamma's rounding|."""
    A, q, parts = 1.0, 1.0, [extra]
    if num.kind == "constant":
        A *= abs(num.scale) ** 2
    elif num.kind == "geometric":
        A *= abs(num.scale) ** 2
        q *= num.ratio**2
    elif num.kind == "power":
        A *= abs(num.scale) ** 2
        parts.append(2 * num.exponent)
    if den.kind == "constant":
        A /= abs(den.scale)
    elif den.kind == "geometric":
        A /= abs(den.scale)
        q /= den.ratio
    elif den.kind == "power":
        A /= abs(den.scale)
        parts.append(-den.exponent)
    gamma = math.fsum(parts)
    # fsum rounds the exact sum once, so the residual is the rounding, itself correctly rounded
    residual = abs(math.fsum([*parts, -gamma])) if math.isfinite(gamma) else 0.0
    return A, q, gamma, math.nextafter(residual, math.inf) if residual else 0.0


def weighted_ratio_sum(num: SequenceRule, den: SequenceRule, extra: float = 0.0) -> RatioSum:
    """Certified value of sum_{l>=1} |num(l)|^2 * l**extra / den(l).

    Closed forms: pure geometric (q < 1, gamma = 0) and pure power
    (q = 1, gamma < -1: zeta(-gamma) by Euler-Maclaurin, ``zeta_enclosure``),
    each with its rounding in the remainder bound.  Mixed shapes fall back
    to a partial sum plus a certified geometric-ratio remainder.  Raises
    CertificationError when the sum provably diverges or cannot be
    certified finite.
    """
    if not den.is_positive():
        raise CertificationError("denominator sequence is not certifiably positive")
    if den.kind == "explicit" or num.kind == "explicit":
        if num.kind != "explicit" and den.kind == "explicit":
            # numerator extends beyond the stored denominators: undefined tail
            raise CertificationError("explicit denominator shorter than numerator support")
        # numerator has finite support: the finite sum, its rounding priced
        L = len(num.values)
        terms, dens = [], []
        for l in range(1, L + 1):
            d = complex(den.value(l)).real
            if d <= 0:
                raise CertificationError(f"denominator value at l={l} is not positive")
            terms.append(abs(num.value(l)) ** 2 * float(l) ** extra / d)
            dens.append(d)
        total, radius = rounded_sum(terms, dens)
        return RatioSum(total=total, exact=True, partial_terms=L, remainder_bound=radius)

    A, q, gamma, dgamma = _normal_form(num, den, extra)
    if A == 0.0:
        return RatioSum(0.0, True, 0, 0.0)
    if q > 1.0 or (q == 1.0 and gamma >= -1.0):
        raise CertificationError("ratio sum diverges: hypothesis (finite coupling sum) fails")
    if q == 1.0:
        # sum l**gamma = zeta(-gamma), gamma < -1
        value, radius = zeta_enclosure(-gamma)
        if dgamma:
            # zeta decreases, so a rounded gamma is priced by the enclosures
            # at the floats just outside -gamma -+ dgamma
            below = math.nextafter(-gamma - dgamma, -math.inf)
            if not below > 1.0:
                raise CertificationError("ratio sum exponent within rounding of -1: the sum cannot be certified finite")
            hi, r_hi = zeta_enclosure(below)
            lo, r_lo = zeta_enclosure(math.nextafter(-gamma + dgamma, math.inf))
            radius = max(hi + r_hi - value, value - lo + r_lo)
        total = A * value
        return RatioSum(total, False, ZETA_N - 1, A * radius + _SCALE_ROUNDING * UNIT_ROUNDOFF * total)
    if gamma == 0.0:
        # geometric: sum q**l = q/(1-q).  q is rounded by at most 4u, which
        # moves q/(1-q) by at most 8u/(1-q) of itself while 4uq <= (1-q)/2
        if 8.0 * UNIT_ROUNDOFF * q > 1.0 - q:
            raise CertificationError("geometric ratio within rounding of 1: the sum cannot be certified finite")
        total = A * q / (1.0 - q)
        return RatioSum(total, True, 0, (_SCALE_ROUNDING + 8.0 / (1.0 - q)) * UNIT_ROUNDOFF * total)
    # mixed geometric * power with q < 1: partial sum + ratio-test remainder
    L = 64
    ls = np.arange(1, L + 1, dtype=float)
    partial = A * float(np.sum(q**ls * ls**gamma))
    # for l >= L the term ratio is at most q * ((L+1)/L)**gamma (gamma > 0)
    # or q (gamma <= 0); both < 1 for reasonable L
    rho = q * ((L + 1) / L) ** max(gamma, 0.0)
    while rho >= 1.0:
        L *= 2
        ls = np.arange(1, L + 1, dtype=float)
        partial = A * float(np.sum(q**ls * ls**gamma))
        rho = q * ((L + 1) / L) ** max(gamma, 0.0)
    t_next = A * q ** (L + 1) * float(L + 1) ** gamma
    remainder = t_next / (1.0 - rho)
    # true sum lies in [partial, partial + remainder]; report the midpoint
    return RatioSum(partial + remainder / 2, False, L, remainder / 2)


def power_tail_bound(start: float, beta: float) -> float:
    """Upper bound for sum_{n > start} n**(-beta) via the midpoint integral test.

    x**(-beta) is convex and decreasing, so each term is at most the
    integral over the centred unit interval: the tail is bounded by the
    integral from start + 1/2.  Requires beta > 1; returns math.inf
    otherwise.
    """
    if beta <= 1.0:
        return math.inf
    return (start + 0.5) ** (1.0 - beta) / (beta - 1.0)
