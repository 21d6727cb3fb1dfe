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

#: Euler-Maclaurin: head terms n < ZETA_N for ``zeta_enclosure``, EM_M corrections everywhere
ZETA_N, EM_M = 10, 8

#: most terms a mixed geometric * power ratio sum may take before its ratio test holds
MIXED_TERMS_MAX = 2**20

#: B_{2j} / (2j)! for j = 1 .. EM_M, each a correctly rounded quotient
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
              1 / 74724249600, -3617 / 10670622842880000)


def _em_corrections(z, x: float, power) -> list:
    """B_{2j}/(2j)! z(z+1)...(z+2j-2) x**(-z-2j+1) for j = 1 .. EM_M, given power = x**-z.

    The Euler-Maclaurin corrections at the endpoint x of a sum of n**-z; z
    is a float or a complex, and the arithmetic follows it.
    """
    out = []
    fac = power / x * z
    for j, coeff in enumerate(_EM_COEFFS):
        out.append(coeff * fac)
        # left to right, so a zero fac never meets an overflowed product
        fac = fac * ((z + 2 * j + 1) / x) * ((z + 2 * j + 2) / x)
    return out


def _em_remainder(z, x: float) -> float:
    """Bound on the remainder of sum_{n>=x} n**-z after the EM_M corrections, Re z > 1.

    With B~ the periodic Bernoulli function, |B~_{2M}(t)| <= |B_{2M}|, so
    the remainder -int_x^oo B~_{2M}(t)/(2M)! (z)_{2M} t**(-z-2M) dt is at
    most |B_{2M}|/(2M)! |(z)_{2M}| x**(1-sigma-2M)/(sigma+2M-1) (Johansson,
    Numer. Algorithms 69, 2015, Theorem 1).  The same integral from x to a
    finite end is smaller, so the bound also covers a finite sum from x.
    It is doubled to cover its own rounding.
    """
    sigma = z.real
    bound = abs(_EM_COEFFS[-1]) * x ** (1.0 - sigma) / (sigma + 2 * EM_M - 1)
    for j in range(2 * EM_M):
        bound *= abs(z + j) / x  # from x**(1-sigma) on, so a zero bound never meets an overflowed product
    return 2.0 * bound


def zeta_enclosure(beta: float) -> tuple[float, float]:
    """(value, radius) with |zeta(beta) - value| <= radius, for real beta > 1.

    Euler-Maclaurin summation with N = ZETA_N and M = EM_M (Edwards,
    Riemann's Zeta Function, 1974, sec. 6.4; Johansson, Numer. Algorithms
    69, 2015):

        zeta(s) = sum_{n<N} n**-s + N**(1-s)/(s-1) + N**-s/2
                  + sum_{k=1..M} B_{2k}/(2k)! s(s+1)...(s+2k-2) N**(-s-2k+1) + R,

    with |R| bounded by ``_em_remainder``, under 1e-15 for every s > 1,
    so the radius is mostly the rounding allowance, with u =
    UNIT_ROUNDOFF: each term is a ``pow`` (2u), at most 2M - 1 factors
    (s + j)/N (3u each) and a rounded coefficient (2u), so (6M + 1)u of its
    size covers it; ``math.fsum`` adds one rounding of the value, so
    (6M + 2)u of the sum of |terms| covers all of it (the head terms, which
    dominate that sum, carry 2u only).  Terms that underflow, from beta
    near 300 on, err by less than 1e-290, far inside that allowance, which
    is at least 50u since the first term is 1.  The term count does not
    depend on beta.
    """
    s = float(beta)
    if not s > 1.0:
        raise SpecError(f"zeta_enclosure needs real beta > 1, got {beta!r}")
    if math.isinf(s):
        return 1.0, 0.0
    t = ZETA_N**-s
    terms = [n**-s for n in range(1, ZETA_N)] + [ZETA_N * t / (s - 1.0), t / 2.0] + _em_corrections(s, ZETA_N, t)
    value = math.fsum(terms)
    return value, _em_remainder(s, ZETA_N) + (6 * EM_M + 2) * UNIT_ROUNDOFF * math.fsum(map(abs, terms))


def exponent_sum(*parts) -> tuple[complex, float]:
    """(z, dz): the sum z of complex parts, correctly rounded per component, and a bound dz on |z - exact sum|.

    ``math.fsum`` rounds the exact sum once, so a second fsum with -z added
    gives that rounding itself, correctly rounded; dz is 0 when z is exact.
    """
    re, im = [complex(p).real for p in parts], [complex(p).imag for p in parts]
    z = complex(math.fsum(re), math.fsum(im))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return z, math.inf
    dz = abs(math.fsum([*re, -z.real])) + abs(math.fsum([*im, -z.imag]))
    return z, math.nextafter(dz, math.inf) if dz else 0.0


def partial_zeta(z: complex, dz: float, a: int, N: int) -> tuple[complex, float]:
    """(value, radius) with |sum_{n=a}^{N} n**-w - value| <= radius for every |w - z| <= dz.

    For Re z > 1 and N > K = 2 ceil(|z|) + 2 EM_M, the terms n < K are
    summed directly and the rest by Euler-Maclaurin with EM_M corrections
    at both ends:

        sum_{n=b}^{N} n**-z = b**(1-z) (1 - (N/b)**(1-z)) / (z-1)
                              + (b**-z + N**-z)/2 + (corrections at b) - (corrections at N) + R,

    b = max(a, K), |R| <= ``_em_remainder(z, b)``.  The integral is
    formed from expm1, so it keeps its accuracy as z approaches 1.  As
    b >= 2(|z| + EM_M), the 2 EM_M factors |z + j|/b of the remainder
    multiply to at most 2**(-2 EM_M) (their mean is below 1/2), so R is
    below 1e-18 b**(1-sigma) whatever |z|.  Otherwise (N <= K, or
    Re z <= 1) the whole sum is direct, so the work is O(min(N, |z|)).

    The radius prices the rounding as ``series.rounding_radius`` does: the
    direct terms as table powers; every Euler-Maclaurin term as a power of
    relative error u (16 + 4 |z| log N) plus (10 EM_M + 10)u for its
    products; expm1's own error and its argument's (8u |v|, v = (z-1)
    log(N/b)); the two fsums and the final addition; and underflow.  dz,
    the error of z itself, moves the sum by at most dz sum log n n**-(sigma-dz),
    which the mass of the terms bounds.
    """
    from .series import SUBNORMAL_MIN, powers, rounding_radius  # series imports this module

    z = complex(z)
    sigma, u = z.real, UNIT_ROUNDOFF
    K = 2.0 * math.ceil(abs(z)) + 2 * EM_M if math.isfinite(abs(z)) else math.inf
    em = sigma > 1.0 and N > max(a, K)
    b = max(a, int(K)) if em else N + 1
    # the direct terms a <= n < b
    p = powers(z, b - 1)[a - 1 :]
    value = complex(p.sum())
    mass = float((p if z.imag == 0.0 else powers(sigma, b - 1)[a - 1 :]).sum())
    radius = rounding_radius(mass, abs(z), math.log(b - 1), p.size) if p.size else 0.0
    log_n = math.log(max(N, 1))
    if em:
        L = math.log1p((N - b) / b)  # log(N/b)
        w = z - 1.0
        v = w * L
        # 1 - e**-v = -expm1(-v), with expm1(x + iy) = expm1(x) cos y - 2 sin(y/2)**2 + i e**x sin y
        A, B = math.expm1(-v.real) * math.cos(v.imag), 2.0 * math.sin(v.imag / 2.0) ** 2
        C = math.exp(-v.real) * math.sin(v.imag)
        d = 8.0 * u * abs(v)
        expm1_error = 6.0 * u * (abs(A) + B + abs(C)) + min(2.0, d * math.exp(min(d, 1.0)))
        Pb, PN = cmath.exp(-z * math.log(b)), cmath.exp(-z * log_n)
        scale = b * Pb / w
        terms = [scale * complex(B - A, C), Pb / 2.0, PN / 2.0, *_em_corrections(z, b, Pb),
                 *(-t for t in _em_corrections(z, N, PN))]
        tail = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        per_term = u * (16.0 + 4.0 * abs(z) * log_n + 10 * EM_M + 10)
        radius += (per_term * math.fsum(map(abs, terms)) + abs(scale) * expm1_error + _em_remainder(z, b)
                   + 2.0 * u * (abs(tail) + abs(value + tail))
                   + (4 * EM_M + 16) * b * SUBNORMAL_MIN)
        value += tail
        # sum_{n=b}^{N} n**-sigma <= b**-sigma + int_b^N t**-sigma dt
        mass += b**-sigma + b ** (1.0 - sigma) * -math.expm1(-(sigma - 1.0) * L) / (sigma - 1.0)
    if dz:
        radius += dz * log_n * mass * math.exp(min(dz * log_n, 700.0))
    return value, radius


@dataclass(frozen=True)
class RatioSum:
    """Result of summing t(l) = |num(l)|^2 * l**extra / den(l) over l >= 1.

    The true sum lies within remainder_bound of total.  The bound covers
    truncation and rounding for every shape: the zeta and geometric closed
    forms, the finite sums and the mixed geometric x power sums.  exact
    records a closed form or a finite sum, not a zero radius.
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
    A, q, parts = abs(num.scale) ** 2 / abs(den.scale), 1.0, [extra]
    if num.kind == "geometric":
        q *= num.ratio**2
    elif num.kind == "power":
        parts.append(2 * num.exponent)
    if den.kind == "geometric":
        q /= den.ratio
    elif den.kind == "power":
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
    to a partial sum plus a certified geometric-ratio remainder, the
    rounding of q, gamma, the terms and the sum priced as well.  Raises
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
    # mixed geometric * power with q < 1: the partial sum to L plus a
    # ratio-test remainder.  For l > L the term ratio q ((l+1)/l)**gamma is
    # at most rho = q ((L+1)/L)**max(gamma, 0), raised here by its own
    # rounding (q: 4u, (L+1)/L and its power: (1 + |gamma|)u + 2u, products)
    # and by gamma's (dgamma), so it bounds the exact ratio too.  For q
    # within that rounding of 1, or gamma / (1 - q) beyond MIXED_TERMS_MAX,
    # the sum is refused rather than summed to an unbounded L.
    L, rho = 32, 1.0
    while rho >= 1.0:
        L *= 2
        if L > MIXED_TERMS_MAX:
            raise CertificationError(
                f"geometric ratio too close to 1: the ratio test needs more than {MIXED_TERMS_MAX} terms"
            )
        rho = q * ((L + 1) / L) ** max(gamma, 0.0) * (1.0 + (12.0 + abs(gamma)) * UNIT_ROUNDOFF + dgamma / L)
    ls = np.arange(1.0, L + 2.0)
    terms = q**ls * ls**gamma  # l = 1 .. L + 1
    # each term is off by q's 4u raised to the l-th power, by l**dgamma, and
    # by two powers (2u each) and their product
    errors = terms * np.expm1(6.0 * UNIT_ROUNDOFF * (ls + 1.0) + dgamma * np.log(ls))
    partial = math.fsum(terms[:L])
    # fsum rounds once; underflow costs at most 2**-1074 (L+1)**max(gamma, 0) per term
    rounding = math.fsum(errors[:L]) + UNIT_ROUNDOFF * partial + 2.0**-1072 * (L + 1.0) ** (1.0 + max(gamma, 0.0))
    remainder = (terms[L] + errors[L]) / (1.0 - rho) * (1.0 + 4.0 * UNIT_ROUNDOFF)
    # the true sum lies in A [partial - rounding, partial + remainder + rounding]:
    # report its midpoint, with A's rounding and the products' priced on the upper end
    upper = partial + remainder + rounding
    total = A * (partial + remainder / 2)
    radius = A * (remainder / 2 + rounding + _SCALE_ROUNDING * UNIT_ROUNDOFF * upper) + 2.0**-1072
    return RatioSum(total, False, L, radius)


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
