"""Closed-form sequence rules.

A handful of rule shapes (constant, geometric, power, explicit list) cover
every sequence this package needs to reason about rigorously: series
coefficients, diagonal kernel entries, and the coupling/tail sequences of
arrowhead matrices.  Restricting to these shapes is what makes summability
conditions certifiable: each rule admits a polynomial envelope and the
weighted ratio sums below have closed forms or certified remainders.

A sum of two power rules is a Riemann zeta value zeta(beta), beta > 1: the
Euler-Maclaurin partial sum taken to infinity, ``partial_zeta(beta, dbeta,
1, math.inf)``.  The other closed forms combine their pieces as
``series.ValueWithBound`` balls, whose arithmetic prices its own rounding,
and every libm result among them enters through ``ValueWithBound.libm``
(the error assumption is ``series.LIBM_UNITS``), so every closed form here
carries a radius for its truncation and rounding.  Only the Euler-Maclaurin
sums, to a finite or an infinite end, price their work by hand.  One
routine, ``_em_tail``, builds and prices the tail for every caller, in one
loop over the corrections at both ends and the remainder: in math (float
arithmetic for a real z) for ``partial_zeta``, the hot path of deep rule
sums and the zeta(beta) of the ratio sums, which adds a short direct head
by fsum, and in numpy for ``zeta_tails``, many exponents at once; each
prices only its own sum.  ``em_start`` sizes the head by the remainder the
tail must meet, and a short real head is summed in float arithmetic.
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

    def power_law(self) -> Optional[tuple[complex, float]]:
        """(c, p) with value(l) = c * l**p for every l, for constant and power rules; None otherwise."""
        if self.kind == "constant":
            return complex(self.scale), 0.0
        if self.kind == "power":
            return complex(self.scale), self.exponent
        return None

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

#: Euler-Maclaurin corrections at each end of a sum
EM_M = 8

#: beyond this real z, sum_{n>=2} n**-z < 2**-z (1 + 2/(z-1)) is below one subnormal: a sum to infinity forms no head
ZETA_HEADLESS = 1100.0

#: most terms a mixed geometric * power ratio sum may take before its ratio test holds
MIXED_TERMS_MAX = 2**20

#: B_{2j} / (2j)! for j = 1 .. EM_M, each the correctly rounded quotient of its integer pair
_EM_COEFFS = tuple(p / q for p, q in ((1, 12), (-1, 720), (1, 30240), (-1, 1209600), (1, 47900160),
                                      (-691, 1307674368000), (1, 74724249600), (-3617, 10670622842880000)))

#: ``em_start``: log(2 |B_{2M}|/(2M)! 2**60), and sum d**2 and sum d**4 / 2 over d = 1/2 .. EM_M - 1/2
_EM_TARGET = math.log(2.0 * abs(_EM_COEFFS[-1])) + 60.0 * math.log(2.0)
_EM_D2, _EM_D4 = sum((k + 0.5) ** 2 for k in range(EM_M)), sum((k + 0.5) ** 4 for k in range(EM_M)) / 2

#: the corrections before the last, each with the k = 2j + 1 of its step q = (z + k)(z + k + 1) to the next
_EM_STEPS = tuple(zip(_EM_COEFFS[:-1], range(1, 2 * EM_M, 2)))


def exponent_sum(*parts) -> tuple[complex, float]:
    """(z, dz): the sum z of complex parts, added left to right, and a bound dz on |z - exact sum|.

    Python adds complex numbers per component, so Knuth's TwoSum on them
    gives the rounding of each addition exactly (z is correctly rounded for
    two parts); dz adds their components, raised past its own roundings (at
    most 2k for k parts), and is 0 when z is exact.
    """
    z, dz = complex(parts[0]), 0.0
    for p in parts[1:]:
        w = z + p
        t = w - z
        e = (z - (w - t)) + (p - t)  # z + p = w + e exactly
        z, dz = w, dz + abs(e.real) + abs(e.imag)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return z, math.inf
    return z, math.nextafter(dz * (1.0 + 2 * len(parts) * UNIT_ROUNDOFF), math.inf) if dz else 0.0


def em_start(z: complex, a: int, N: int) -> int:
    """Where Euler-Maclaurin takes over sum_{n=a}^{N} n**-z, Re z = sigma > 1: b if N > b + 512, about where the two
    cost the same in ``partial_zeta`` (``timeit``, 2-core x86_64: the tail costs what 250 to 500 more direct terms
    cost for a complex z, 128 to 512 more for a real z); otherwise N + 1, the whole sum direct.  b is the least
    start >= max(a, 2) whose remainder bound 2 |B_{2M}|/(2M)! P b**(1-sigma-2M)/(sigma+2M-1) (``_em_tail``),
    M = EM_M, P = prod_{j<2M} |z+j|, is at most 2**-60 a**-sigma, 1/128 of the first term's rounding.  Pairing
    z + j = w +- d about w = z + M - 1/2, log(1 + t) <= t gives log P <= M log |w|**2 + sum_d (d**2 (|w|**2 -
    2 (Re w)**2) + d**4/2)/|w|**4, within 2 of log P (0.04 from |z| = 12 on), so b is at most 13 % above the
    least.  b is never above max(a, K), K = 2 ceil(|z|) + 2 EM_M, where every factor q/b**2 of ``_em_tail`` is
    below 1, and stays there where sigma log b > 700, so that b**-sigma is a normal double."""
    sigma, r = z.real, abs(z)
    if not (sigma > 1.0 and r < math.inf):
        return N + 1
    K, m, x, y = 2 * math.ceil(r) + 2 * EM_M, sigma + (2 * EM_M - 1), sigma + (EM_M - 0.5), z.imag
    x2, w2 = x * x, x * x + y * y
    log_b = (EM_M * math.log(w2) + (_EM_D2 * (w2 - 2.0 * x2) + _EM_D4) / (w2 * w2) + _EM_TARGET - math.log(m)
             + (sigma * math.log(a) if a > 1 else 0.0)) / m
    b = K if K > a else a
    least = math.ceil(math.exp(log_b)) if log_b < 700.0 else b  # not for a NaN log_b, |z| above 1e154
    least = least if least > a else a if a > 2 else 2
    if least < b and sigma * math.log(least) <= 700.0:
        b = least
    return b if N > b + 512 else N + 1


def _em_tail(z, b: int, N: int) -> tuple:
    """Euler-Maclaurin for sum_{n=b}^{N} n**-z, Re z > 1, b < N <= inf, in math for a float z, cmath for a Python
    complex z and numpy for an array: (terms, rounding, error, mass).

        sum_{n=b}^{N} n**-z = b**(1-z) (1 - (N/b)**(1-z)) / (z-1)
                              + (b**-z + N**-z)/2 + (corrections at b) - (corrections at N) + R

    is the sum of the terms plus R.  The integral is formed from expm1, so it keeps its accuracy as z approaches
    1; N = math.inf takes a float z, whose integral is b**(1-z)/(z-1) with no expm1 factor or error, and no term
    at N.  |R| <= |B_{2M}|/(2M)! |(z)_{2M}| b**(1-sigma-2M)/(sigma+2M-1), M = EM_M, as |B~_{2M}| <= |B_{2M}| for
    the periodic Bernoulli function (Johansson, Numer. Algorithms 69, 2015, Theorem 1), to a finite N too;
    doubled for its own rounding.  One loop builds the corrections at x = b and x = N and the ratio
    |(z)_{2M}|/b**(2M): step j forms q = (z+2j+1)(z+2j+2) once, for a factor q/x**2 of each correction and
    |q|/b**2 of the ratio.  ``em_start`` sizes b so that R is at most about 2**-60 a**-sigma.  q/x**2 > 1 where
    x < |z| + 2 EM_M, but the products |(z)_k| x**(-sigma-k) have ratios |z+k|/x growing with k: each is below
    the first, |z| x**(-sigma-1), or the last, about 1e-6 by b's bound, and |z| < 1e38 by it (sigma log b <= 700,
    N < 2**63), so nothing overflows.  One at b that a later factor above 1 scales is >= b**-sigma (|z|/(|z| +
    2 EM_M))**(2 EM_M - 1) > e**-702 (|z| > 120 where sigma log b >= 600), normal.  rounding prices the terms: a
    power x**-z is off by u (16 + 4 |z| log x) relative, each priced at log N (log b for N = inf); the
    integral's b, z - 1, quotient by it (16u, as ``ValueWithBound`` prices a complex quotient), B - A and
    product add under 24u; correction j's z x**-z / x adds under 5u, each of its j steps under 11u (two
    additions, x**2, the quotient by it, and q and the product into the correction at (2 + sqrt 2)u each, as
    ``ValueWithBound`` prices a product) and its coefficient 2u, so 7 + 11 (EM_M - 1) <= 10 EM_M + 10 units with
    the other terms.  error is R's bound, the error of 1 - e**-v (expm1's own and its argument's, 8u |v|,
    v = (z-1) log(N/b)) times the integral, and a subnormal per product of underflow, times
    (max(N, |z| + 2 EM_M)/N)**(2 EM_M - 2) for the factors above 1 that may scale one at N.  mass >=
    sum_{n=b}^{N} n**-sigma prices an error dz in z.
    """
    # a float z (C = 0 below) keeps float arithmetic and float terms: its unit i is 0, not 1j
    m, cexp, least, i = ((np, np.exp, np.minimum, 1j) if isinstance(z, np.ndarray) else
                         (math, cmath.exp, min, 1j) if isinstance(z, complex) else (math, math.exp, min, 0.0))
    u, sigma, r, log_b = UNIT_ROUNDOFF, z.real, abs(z), math.log(b)
    w = z - 1.0
    if N < math.inf:
        L, log_n = math.log1p((N - b) / b), math.log(N)  # log(N/b)
        v = w * L
        # 1 - e**-v = -expm1(-v), with expm1(x + iy) = expm1(x) cos y - 2 sin(y/2)**2 + i e**x sin y
        A, B, C = ((m.expm1(-v.real) * m.cos(v.imag), 2.0 * m.sin(v.imag / 2.0) ** 2, m.exp(-v.real) * m.sin(v.imag))
                   if i else (math.expm1(-v), 0.0, 0.0))  # for a float v, y = 0: cos y = 1 and sin y = 0 exactly
        d = 8.0 * u * abs(v)
        expm1_error = 6.0 * u * (abs(A) + B + abs(C)) + least(2.0, d * m.exp(least(d, 1.0)))
        PN = cexp(-z * log_n)
    else:  # 1 - e**-v = 1 exactly, and the power at N is 0
        L, log_n, A, B, C, expm1_error, PN = math.inf, log_b, -1.0, 0.0, 0.0, 0.0, 0.0
    Pb = cexp(-z * log_b)
    scale = b * Pb / w
    terms = [scale * (B - A + i * C), Pb / 2.0, PN / 2.0]
    b2, N2 = float(b) * b, float(N) * N
    fb, fN, ratio = z * Pb / b, z * PN / N, r * abs(z + (2 * EM_M - 1)) / b2
    for coeff, k in _EM_STEPS:
        terms += (coeff * fb, -coeff * fN)
        q = (z + k) * (z + (k + 1))
        fb, fN, ratio = fb * (q / b2), fN * (q / N2), ratio * (abs(q) / b2)
    terms += (_EM_COEFFS[-1] * fb, -_EM_COEFFS[-1] * fN)
    rounding = u * ((40.0 + 4.0 * r * log_b) * abs(terms[0])
                    + (16.0 + 4.0 * r * log_n + 10 * EM_M + 10) * sum(map(abs, terms[1:])))
    # math.ulp(0.0) is the least subnormal: no import of series on the scalar hot path
    remainder = 2.0 * abs(_EM_COEFFS[-1]) * b ** (1.0 - sigma) / (sigma + 2 * EM_M - 1) * ratio
    spread = least(1.0, N / (r + 2 * EM_M)) ** (2 - 2 * EM_M)
    error = abs(scale) * expm1_error + remainder + (4 * EM_M + 16) * b * spread * math.ulp(0.0)
    # sum_{n=b}^{N} n**-sigma <= b**-sigma + int_b^N t**-sigma dt
    mass = b**-sigma + b ** (1.0 - sigma) * -m.expm1(-(sigma - 1.0) * L) / (sigma - 1.0)
    return terms, rounding, error, mass


def partial_zeta(z: complex, dz: float, a: int, N: int) -> tuple[complex, float]:
    """(value, radius) with |sum_{n=a}^{N} n**-w - value| <= radius for every |w - z| <= dz; N = math.inf takes a
    real z with z - dz > 1, so that zeta(beta) is ``partial_zeta(beta, dbeta, 1, math.inf)``.

    The terms a <= n < b = ``em_start(z, a, N)`` are table powers added and priced, each at its own log n, by
    ``series.direct_sum``, in float arithmetic for a short real head.  The tail, if any, is ``_em_tail``'s terms
    added by fsum, priced by its parts, the two fsums and the final addition.  Both roundings grow with log N, so
    the two sides of the switch have radii within a small factor.  dz is priced from the log-weighted mass of all
    the terms, as |n**-w - n**-z| <= dz log n n**-sigma e**(dz log n); to infinity, the tail's at s = sigma - dz,
    the least Re w, by sum_{n>=b} n**-s log n <= b**-s log b + b**(1-s) (log b/(s-1) + 1/(s-1)**2).  Beyond z =
    ZETA_HEADLESS no term is formed: the sum from c = max(a, 2) is at most c**-s (1 + c/(s-1)), doubled for its
    rounding, below one subnormal for s > ZETA_HEADLESS.
    """
    from . import series  # series imports this module

    z = complex(z)
    u, real = UNIT_ROUNDOFF, z.imag == 0.0  # a real z takes float arithmetic and gives float terms
    if N == math.inf:
        s = math.nextafter(z.real - dz, -math.inf) if dz else z.real  # at most the least Re w
        if not (real and s > 1.0):
            raise SpecError(f"a sum to infinity needs a real z with z - dz > 1, got z = {z}, dz = {dz}")
        if z.real > ZETA_HEADLESS:
            c = max(a, 2)
            return complex(a == 1), 0.0 if s == math.inf else 2.0 * c**-s * (1.0 + c / (s - 1.0)) + math.ulp(0.0)
    b = em_start(z, a, N)
    value, radius, log_mass = series.direct_sum(series.log_table(b - 1, a), z)
    tail_mass = 0.0
    if b <= N:
        terms, rounding, error, tail_mass = _em_tail(z.real if real else z, b, N)
        tail = math.fsum(terms) if real else complex(math.fsum(t.real for t in terms),
                                                     math.fsum(t.imag for t in terms))
        radius += rounding + error + 2.0 * u * (abs(tail) + abs(value + tail))
        value += tail
    if dz and N < math.inf:
        log_n = math.log(max(N, 1))
        radius += dz * (log_mass + log_n * tail_mass) * math.exp(min(dz * log_n, 700.0))
    elif dz:
        log_b = math.log(b)
        radius += dz * (log_mass * math.exp(min(dz * math.log(b - 1), 700.0)) + b**-s * log_b
                        + b ** (1.0 - s) * (log_b / (s - 1.0) + 1.0 / (s - 1.0) ** 2))
    return value, radius


def zeta_tails(z: np.ndarray, dz, b: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, radius, mass) arrays: |sum_{n=b}^{N} n**-w - value| <= radius for every |w - z| <= dz, and
    mass >= sum_{n=b}^{N} n**-Re z, for an array z with Re z > 1 sharing b < N: ``_em_tail``'s terms added
    in order (2 gamma of their count times their mass), not by fsum."""
    from .series import gamma  # series imports this module

    terms, rounding, error, mass = _em_tail(z, b, N)
    terms = np.array(terms)
    log_n = math.log(N)
    radius = rounding + error + 2.0 * gamma(len(terms)) * np.abs(terms).sum(axis=0)
    radius += dz * log_n * mass * np.exp(np.minimum(dz * log_n, 700.0))
    return terms.sum(axis=0), radius, mass


@dataclass(frozen=True)
class RatioSum:
    """Result of summing t(l) = |num(l)|^2 * l**extra / den(l) over l >= 1.

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


def _normal_form(num: SequenceRule, den: SequenceRule, extra: float):
    """Write t(l) = A * q**l * l**gamma for non-explicit rule pairs: A and q balls, gamma and its rounding."""
    from .series import ValueWithBound as Ball

    c, q, parts = complex(num.scale), Ball(1.0), [extra]
    A = (Ball(c.real) * c.real + Ball(c.imag) * c.imag) / complex(den.scale).real
    if num.kind == "geometric":
        q = Ball(num.ratio) * num.ratio
    elif num.kind == "power":
        parts.append(2 * num.exponent)
    if den.kind == "geometric":
        q = q / den.ratio
    elif den.kind == "power":
        parts.append(-den.exponent)
    gamma = math.fsum(parts)
    # fsum rounds the exact sum once, so the residual is the rounding, itself correctly rounded
    residual = abs(math.fsum([*parts, -gamma])) if math.isfinite(gamma) else 0.0
    return A, q, gamma, math.nextafter(residual, math.inf) if residual else 0.0


def weighted_ratio_sum(num: SequenceRule, den: SequenceRule, extra: float = 0.0) -> RatioSum:
    """Certified value of sum_{l>=1} |num(l)|^2 * l**extra / den(l).

    Closed forms: pure geometric (q < 1, gamma = 0) and pure power
    (q = 1, gamma < -1: zeta(-gamma), ``partial_zeta`` to infinity).
    Mixed shapes fall back to a partial sum plus a certified geometric-ratio
    remainder.  Every branch combines its pieces as ``series.ValueWithBound``
    balls, which price the rounding.  Raises CertificationError when the sum
    provably diverges or cannot be certified finite.
    """
    from .series import ValueWithBound as Ball

    if not den.is_positive():
        raise CertificationError("denominator sequence is not certifiably positive")
    if den.kind == "explicit" or num.kind == "explicit":
        if num.kind != "explicit" and den.kind == "explicit":
            # numerator extends beyond the stored denominators: undefined tail
            raise CertificationError("explicit denominator shorter than numerator support")
        # numerator has finite support: the finite sum
        terms = []
        for l in range(1, len(num.values) + 1):
            v, d = complex(num.value(l)), Ball(complex(den.value(l)).real)  # SpecError when not a finite double
            if den.kind in ("geometric", "power"):  # a libm power times the scale
                power = den.ratio**l if den.kind == "geometric" else float(l) ** den.exponent
                d = complex(den.scale).real * Ball.libm(power)
            if not d.lower > 0.0:
                raise CertificationError(f"denominator value at l={l} is not positive")
            terms.append((Ball(v.real) * v.real + Ball(v.imag) * v.imag) * Ball.libm(float(l) ** extra) / d)
        return _ratio_sum(Ball.fsum(terms), True, len(num.values))

    if num.scale == 0:
        return RatioSum(0.0, True, 0, 0.0)
    A, q, gamma, dgamma = _normal_form(num, den, extra)
    gap = 1 - q
    if gap.upper < 0.0 or ("geometric" not in (num.kind, den.kind) and gamma >= -1.0):
        raise CertificationError("ratio sum diverges: hypothesis (finite coupling sum) fails")
    if "geometric" not in (num.kind, den.kind):
        # sum l**gamma = zeta(-gamma), gamma < -1, for every exponent within the rounding dgamma of -gamma
        try:
            value, radius = partial_zeta(-gamma, dgamma, 1, math.inf)
        except SpecError:  # -gamma - dgamma <= 1
            raise CertificationError("ratio sum exponent within rounding of -1: the sum cannot be certified finite") from None
        head = em_start(complex(-gamma), 1, math.inf) - 1 if -gamma <= ZETA_HEADLESS else 0
        return _ratio_sum(A * Ball(value.real, radius), False, head)
    if gamma == 0.0:
        # geometric: sum q**l = q/(1-q); the division refuses a disc of 1 - q that holds 0
        try:
            return _ratio_sum(A * (q / gap), True, 0)
        except ZeroDivisionError:
            raise CertificationError("geometric ratio within rounding of 1: the sum cannot be certified finite") from None
    # mixed geometric * power with q < 1: the partial sum to L plus a
    # ratio-test remainder.  For l > L the term ratio q ((l+1)/l)**gamma is
    # at most rho = q ((L+1)/L)**max(gamma, 0), a ball ((L+1)/L is exact, and
    # gamma's rounding moves the power by a factor within 2 dgamma / L of 1).
    # Once the disc of 1 - rho lies above 0 the remainder is at most
    # t(L+1) / (1 - rho); for q within rounding of 1, or gamma / (1 - q)
    # beyond MIXED_TERMS_MAX, the sum is refused instead.
    g = max(gamma, 0.0)
    L, gap = 32, Ball(0.0)
    while not gap.lower > 0.0:
        L *= 2
        if L > MIXED_TERMS_MAX:
            raise CertificationError(
                f"geometric ratio too close to 1: the ratio test needs more than {MIXED_TERMS_MAX} terms"
            )
        gap = 1 - (q * Ball.libm((1.0 + 1.0 / L) ** g) * Ball(1.0, 2.0 * dgamma / L) if g else q)
    ls = np.arange(1.0, L + 2.0)
    terms = q.value**ls * ls**gamma  # l = 1 .. L + 1
    # each term is off by q's 4u raised to the l-th power, by l**dgamma, and
    # by two powers (2u each) and their product; one that underflows, by at
    # most 2**-1072 (L+1)**max(gamma, 0)
    errors = terms * np.expm1(6.0 * UNIT_ROUNDOFF * (ls + 1.0) + dgamma * np.log(ls))
    underflow = Ball(0.0, 2.0**-1072 * (L + 1.0) ** g)
    partial = Ball.fsum([*map(Ball, terms[:L].tolist(), errors[:L].tolist()), L * underflow])
    remainder = (Ball(float(terms[L]), float(errors[L])) + underflow) / gap
    # the remainder lies in [0, remainder.upper]: the disc of centre and radius h
    h = math.nextafter(remainder.upper / 2.0, math.inf)
    return _ratio_sum(A * (partial + Ball(h, h)), False, L)


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
