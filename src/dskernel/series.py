"""General Dirichlet series with certified truncation error.

A general Dirichlet series sum_n a_n exp(-lambda_n s) is stored as a finite
prefix of exponents and coefficients, optionally backed by closed-form rules
so longer prefixes can be generated on demand.  Certified evaluation needs a
declared coefficient envelope |a_n| <= C n**alpha; without one the value is
still computed but the error radius degrades to infinity and downstream
certifications refuse to use it.

Power table.  Every kernel sum in the package is built from the powers
n**(-z) = exp(-z log n), and they all come from one place: ``log_table(N)``
holds log 1, ..., log N, cached read-only up to ``CACHE_LIMIT`` = 2**16
entries (a longer table is computed for its call and kept by nobody), and
``powers(z, N)`` exponentiates it, with a real ``exp`` when Im z = 0.

Rounding model.  ``numpy.log`` is faithful (within one ulp, a relative error
2u with u = 2**-53), so the argument z log n of a power carries an absolute
error of at most 3u |z| log n and the power a relative error of at most
u (c + 3 |z| log n), where c covers ``exp``/``cos``/``sin`` and the complex
products that form a term.  Summing k terms in any order adds at most
gamma_k = k u / (1 - k u) times their absolute sum per real component
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, sections 3.1
and 4.2).  ``rounding_radius`` is that bound; general exponents use their
largest exponent lambda_N in place of log N and one more rounding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CollisionError, ConvergenceRegionError, SpecError
from .rules import CACHE_LIMIT, SequenceRule, power_tail_bound

#: relative tolerance below which two merged exponents count as colliding
COLLISION_RTOL = 1e-12

#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53

#: relative error, in units of u, of one power exp(-z log n) apart from the
#: |z| log n part: exp, cos and sin within one ulp each, the complex products
#: forming a term (coefficient times one or two powers) a few u each
POWER_ROUNDING_UNITS = 16.0

#: smallest positive subnormal double: the absolute error an underflowing
#: operation may add on top of its relative one
SUBNORMAL_MIN = 2.0**-1074

_log_cache = np.empty(0)
_log_cache.flags.writeable = False


def log_table(N: int) -> np.ndarray:
    """log n for n = 1..N, read-only: a view of the cached table when N <= CACHE_LIMIT."""
    global _log_cache
    if N > CACHE_LIMIT:
        out = np.log(np.arange(1, N + 1, dtype=float))
        out.flags.writeable = False
        return out
    if _log_cache.size < N:
        _log_cache = np.log(np.arange(1, CACHE_LIMIT + 1, dtype=float))
        _log_cache.flags.writeable = False
    return _log_cache[:N]


def powers(z: complex, N: int) -> np.ndarray:
    """n**(-z) for n = 1..N as exp(-z log n); a real array when Im z = 0."""
    z = complex(z)
    out = log_table(N) * (-z.real if z.imag == 0.0 else -z)
    return np.exp(out, out=out)


def power_sum(c: np.ndarray, p: np.ndarray) -> complex:
    """sum_n c_n p_n for two vectors, each real or complex.

    When exactly one is complex, the real one is dotted with both parts of
    the other: numpy's mixed-type product would convert it first and then
    sum without BLAS, about 50 times slower.
    """
    if np.iscomplexobj(c) == np.iscomplexobj(p):
        return complex(c @ p)
    if np.iscomplexobj(p):
        c, p = p, c
    return complex(c.real @ p, c.imag @ p)


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def rounding_radius(mass: float, size: float, log_max: float, chain: int) -> float:
    """Bound on the rounding error of a sum of table powers.

    ``mass`` is the absolute sum of the terms, ``size`` the total modulus
    of the exponents that multiply log n in one term (|s| + |u| for a
    kernel term m**(-s) n**(-conj(u))), ``log_max`` the largest log n and
    ``chain`` the most additions one term goes through (at most the number
    of terms, whatever the order).  Each term is off by u (c + 4 size
    log_max) relative (one rounding more than the module docstring's 3
    covers exponents lambda_n = omega log n), and the additions add
    gamma_chain per real component, so 2 gamma_chain in modulus.  Underflow
    adds at most one subnormal per operation; c chain**2 operations bound
    even a dense section's.
    """
    per_term = UNIT_ROUNDOFF * (POWER_ROUNDING_UNITS + 4.0 * size * log_max)
    underflow = POWER_ROUNDING_UNITS * float(chain) ** 2 * SUBNORMAL_MIN
    return mass * (per_term + 2.0 * gamma(chain)) + underflow


@dataclass(frozen=True)
class HalfPlane:
    """Open right half-plane Re(s) > rho."""

    rho: float

    def contains(self, s: complex) -> bool:
        return s.real > self.rho


@dataclass(frozen=True)
class ValueWithBound:
    """A computed value together with a certified error radius.

    The contract is that the true quantity lies in the closed disc of radius
    error_radius around value.  Radii are propagated pessimistically.
    """

    value: complex
    error_radius: float

    def __add__(self, other: "ValueWithBound") -> "ValueWithBound":
        return ValueWithBound(self.value + other.value, self.error_radius + other.error_radius)

    def __sub__(self, other: "ValueWithBound") -> "ValueWithBound":
        return ValueWithBound(self.value - other.value, self.error_radius + other.error_radius)

    def __mul__(self, other: "ValueWithBound") -> "ValueWithBound":
        r = (
            abs(self.value) * other.error_radius
            + abs(other.value) * self.error_radius
            + self.error_radius * other.error_radius
        )
        return ValueWithBound(self.value * other.value, r)


@dataclass(frozen=True)
class Envelope:
    """Declared coefficient bound |a_n| <= C * n**alpha (all n >= 1)."""

    C: float
    alpha: float

    def __post_init__(self):
        if self.C < 0 or not math.isfinite(self.C) or not math.isfinite(self.alpha):
            raise SpecError("envelope needs finite C >= 0 and finite alpha")


@dataclass(frozen=True)
class ExponentRule:
    """Closed-form exponents: log-type lambda_n = omega*log(n) or linear lambda_n = slope*n."""

    kind: str  # "log" | "linear"
    omega: float = 1.0
    slope: float = 1.0

    def __post_init__(self):
        if self.kind not in ("log", "linear"):
            raise SpecError(f"unknown exponent rule {self.kind!r}")
        if self.kind == "log" and self.omega <= 0:
            raise SpecError("log exponent rule needs omega > 0")
        if self.kind == "linear" and self.slope <= 0:
            raise SpecError("linear exponent rule needs slope > 0")

    def prefix(self, n: int) -> np.ndarray:
        if self.kind == "log":
            return self.omega * log_table(n)
        return self.slope * np.arange(1, n + 1, dtype=float)

    def limsup_log_ratio(self) -> float:
        """limsup log(n)/lambda_n, exact for both closed forms."""
        return 1.0 / self.omega if self.kind == "log" else 0.0


@dataclass(frozen=True)
class GeneralDirichletSeries:
    """Finite prefix of sum_n a_n exp(-lambda_n s), optionally rule-backed.

    finite=True declares that the stored prefix is the entire series (a
    Dirichlet polynomial in the ordinary case), which makes tails exactly
    zero.  sigma_abs is a user-asserted upper bound for the abscissa of
    absolute convergence, used only to gate evaluation when no envelope is
    available.
    """

    exponents: tuple
    coefficients: tuple
    exponent_rule: Optional[ExponentRule] = None
    coefficient_rule: Optional[SequenceRule] = None
    envelope: Optional[Envelope] = None
    finite: bool = False
    sigma_abs: Optional[float] = None

    def __post_init__(self):
        lam = np.asarray(self.exponents, dtype=float)
        coef = np.asarray(self.coefficients, dtype=complex)
        if lam.shape != coef.shape:
            raise SpecError("exponents and coefficients must have equal length")
        if lam.size:
            if lam[0] < 0:
                raise SpecError("exponents must be non-negative")
            if lam.size > 1 and not np.all(np.diff(lam) > 0):
                raise SpecError("exponents must be strictly increasing")
        if self.exponent_rule is not None and lam.size:
            if not np.allclose(lam, self.exponent_rule.prefix(lam.size), rtol=1e-12, atol=1e-12):
                raise SpecError("exponent rule does not reproduce the stored prefix")
        if self.coefficient_rule is not None and coef.size:
            if not np.allclose(coef, self.coefficient_rule.prefix(coef.size), rtol=1e-12, atol=1e-12):
                raise SpecError("coefficient rule does not reproduce the stored prefix")
        if self.envelope is not None and coef.size:
            ns = np.arange(1, coef.size + 1, dtype=float)
            bound = self.envelope.C * ns**self.envelope.alpha
            if np.any(np.abs(coef) > bound * (1 + 1e-12) + 1e-300):
                raise SpecError("envelope does not bound the stored coefficients")

    # -- constructors -------------------------------------------------------

    @classmethod
    def ordinary(
        cls,
        coefficients,
        envelope: Optional[Envelope] = None,
        finite: bool = False,
        coefficient_rule: Optional[SequenceRule] = None,
        sigma_abs: Optional[float] = None,
    ) -> "GeneralDirichletSeries":
        """Ordinary Dirichlet series sum a_n n**(-s), i.e. lambda_n = log n."""
        coefficients = tuple(complex(c) for c in coefficients)
        rule = ExponentRule("log", omega=1.0)
        lam = tuple(rule.prefix(len(coefficients)))
        return cls(lam, coefficients, rule, coefficient_rule, envelope, finite, sigma_abs)

    @classmethod
    def from_rules(
        cls,
        exponent_rule: ExponentRule,
        coefficient_rule: SequenceRule,
        order: int,
        envelope: Optional[Envelope] = None,
        sigma_abs: Optional[float] = None,
    ) -> "GeneralDirichletSeries":
        lam = tuple(exponent_rule.prefix(order))
        coef = tuple(coefficient_rule.prefix(order))
        return cls(
            lam, coef, exponent_rule, coefficient_rule, envelope,
            coefficient_rule.is_finite, sigma_abs,
        )

    @classmethod
    def zero(cls) -> "GeneralDirichletSeries":
        return cls((), (), finite=True)

    @classmethod
    def single_term(cls, exponent: float, coefficient: complex) -> "GeneralDirichletSeries":
        return cls((float(exponent),), (complex(coefficient),), finite=True)

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def is_ordinary(self) -> bool:
        rule = self.exponent_rule
        return rule is not None and rule.kind == "log" and rule.omega == 1.0

    def terms(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Exponent/coefficient arrays for the first ``order`` terms.

        Rule-backed series extend beyond the stored prefix; finite series
        simply stop.  Anything else cannot honestly produce more terms.
        """
        if order < 0:
            raise SpecError("order must be non-negative")
        n = len(self.exponents)
        if order <= n or self.finite:
            m = min(order, n)
            return (
                np.asarray(self.exponents[:m], dtype=float),
                np.asarray(self.coefficients[:m], dtype=complex),
            )
        if self.exponent_rule is not None and self.coefficient_rule is not None:
            return self.exponent_rule.prefix(order), self.coefficient_rule.prefix(order)
        raise SpecError(f"stored prefix ({n} terms) is shorter than requested order {order}")

    def certified_sigma(self) -> Optional[float]:
        """Largest known threshold t with certified absolute convergence on Re(s) > t.

        None means nothing is known (no envelope, no closed form, no user
        assertion) and evaluation cannot be gated.
        """
        candidates = []
        if self.finite:
            candidates.append(-math.inf)
        if self.envelope is not None and self.exponent_rule is not None:
            if self.exponent_rule.kind == "log":
                candidates.append((self.envelope.alpha + 1.0) / self.exponent_rule.omega)
            else:
                candidates.append(0.0)
        if self.sigma_abs is not None:
            candidates.append(self.sigma_abs)
        return min(candidates) if candidates else None


def evaluate(series: GeneralDirichletSeries, s: complex, order: int) -> ValueWithBound:
    """Partial sum of the first ``order`` terms plus a certified tail radius.

    The tail bound uses the declared envelope together with the exponent
    closed form: an integral comparison for log-type exponents and a
    geometric ratio bound for linear ones.  Without an envelope the radius
    is infinite (value-only mode).  Points at or below the certified
    abscissa are refused.
    """
    s = complex(s)
    sigma = s.real
    threshold = series.certified_sigma()
    if threshold is not None and sigma <= threshold:
        raise ConvergenceRegionError(
            f"not in certified convergence region: Re(s)={sigma} <= {threshold}"
        )
    lam, coef = series.terms(order)
    value = complex(np.sum(coef * np.exp(-lam * s))) if lam.size else 0.0 + 0.0j
    # absolute mass prices the rounding of the partial sum itself; even a
    # lone term is a computed exponential, so only an all-zero sum is exact
    mass = float(np.sum(np.abs(coef) * np.exp(-lam * sigma))) if lam.size else 0.0
    rounding = rounding_radius(mass, abs(s), float(lam[-1]), lam.size) if np.any(coef) else 0.0

    if series.finite:
        if order >= len(series):
            return ValueWithBound(value, rounding)
        rest_lam = np.asarray(series.exponents[order:], dtype=float)
        rest_coef = np.asarray(series.coefficients[order:], dtype=complex)
        tail = float(np.sum(np.abs(rest_coef) * np.exp(-rest_lam * sigma)))
        return ValueWithBound(value, tail + rounding)
    radius = _tail_radius(series, sigma, max(lam.size, order))
    if math.isfinite(radius):
        radius += rounding
    return ValueWithBound(value, radius)


def _tail_radius(series: GeneralDirichletSeries, sigma: float, order: int) -> float:
    env, rule = series.envelope, series.exponent_rule
    if env is None or rule is None or order < 1:
        return math.inf
    if rule.kind == "log":
        beta = rule.omega * sigma - env.alpha
        return env.C * power_tail_bound(order, beta)
    # linear exponents: terms C n**alpha e**(-slope*sigma*n), geometric ratio bound
    if sigma <= 0:
        return math.inf
    decay = math.exp(-rule.slope * sigma)
    ratio = decay * ((order + 1) / order) ** max(env.alpha, 0.0)
    if ratio >= 1.0:
        raise ConvergenceRegionError(
            "not in certified convergence region: geometric tail ratio >= 1 at this order"
        )
    t_next = env.C * (order + 1) ** env.alpha * math.exp(-rule.slope * sigma * (order + 1))
    return t_next / (1.0 - ratio)


def abscissa_upper_bound(series: GeneralDirichletSeries, rho_conv: float) -> float:
    """Upper bound rho_conv + limsup log(n)/lambda_n for the absolute abscissa.

    Exact when the exponent rule is closed-form; otherwise estimated from
    the tail half of the stored prefix.
    """
    if series.exponent_rule is not None:
        return rho_conv + series.exponent_rule.limsup_log_ratio()
    lam = np.asarray(series.exponents, dtype=float)
    if lam.size < 2:
        return rho_conv
    if np.any(lam[1:] == 0.0):
        raise SpecError("malformed exponent sequence: lambda_n = 0 for n > 1")
    start = max(1, lam.size // 2)
    ns = np.arange(start + 1, lam.size + 1, dtype=float)
    return rho_conv + float(np.max(np.log(ns) / lam[start:]))


def merged_exponent_grid(omega: float, m_max: int, n_max: int) -> Iterator[tuple[float, int, int]]:
    """Lazily enumerate nu = log(m) + omega*log(n) over the index grid, ascending.

    Row n -> nu(m, n) is increasing in m, so a k-way heap merge over rows
    yields the globally sorted stream without materialising the grid.
    """
    if omega <= 0:
        raise SpecError("omega must be positive")
    if m_max < 1 or n_max < 1:
        raise SpecError("grid bounds must be positive")
    heap = [(omega * math.log(n), 1, n) for n in range(1, n_max + 1)]
    heapq.heapify(heap)
    while heap:
        nu, m, n = heapq.heappop(heap)
        yield nu, m, n
        if m < m_max:
            heapq.heappush(heap, (math.log(m + 1) + omega * math.log(n), m + 1, n))


def merge_log_exponents(omega: float, m_max: int, n_max: int) -> list[tuple[float, int, int]]:
    """Sorted merged exponents (nu_q, m_q, n_q) with a numeric injectivity check.

    For irrational algebraic omega the map (m, n) -> log(m) + omega*log(n)
    is injective (Gelfond-Schneider), so a closer-than-tolerance pair means
    the caller's hypothesis is violated, e.g. rational omega.
    """
    out = list(merged_exponent_grid(omega, m_max, n_max))
    for (nu0, m0, n0), (nu1, m1, n1) in zip(out, out[1:]):
        if abs(nu1 - nu0) <= COLLISION_RTOL * max(1.0, abs(nu1)):
            raise CollisionError(
                "collision - injectivity hypothesis violated numerically: "
                f"nu({m0},{n0}) ~ nu({m1},{n1}) = {nu1!r}"
            )
    return out


def multiply_merged(
    f: GeneralDirichletSeries, g: GeneralDirichletSeries
) -> GeneralDirichletSeries:
    """Product series via merged exponents nu = lambda_m + mu_n, ascending.

    Valid when both factors converge absolutely on a common half-plane and
    the pair map is injective on the stored grid; a numerical collision is
    an error rather than a silent merge.  Exact-zero products are pruned.
    """
    lam_f = np.asarray(f.exponents, dtype=float)
    lam_g = np.asarray(g.exponents, dtype=float)
    if lam_f.size == 0 or lam_g.size == 0:
        return GeneralDirichletSeries.zero()
    coef_f = np.asarray(f.coefficients, dtype=complex)
    coef_g = np.asarray(g.coefficients, dtype=complex)
    nu = (lam_f[:, None] + lam_g[None, :]).ravel()
    ab = (coef_f[:, None] * coef_g[None, :]).ravel()
    mi, ni = np.meshgrid(np.arange(lam_f.size), np.arange(lam_g.size), indexing="ij")
    order = np.argsort(nu, kind="stable")
    nu, ab = nu[order], ab[order]
    mi, ni = mi.ravel()[order], ni.ravel()[order]
    gaps = np.diff(nu)
    tol = COLLISION_RTOL * np.maximum(1.0, np.abs(nu[1:]))
    bad = np.nonzero(gaps <= tol)[0]
    if bad.size:
        j = int(bad[0])
        raise CollisionError(
            "collision - injectivity hypothesis violated numerically: "
            f"lambda_{mi[j]+1}+mu_{ni[j]+1} ~ lambda_{mi[j+1]+1}+mu_{ni[j+1]+1}"
        )
    keep = ab != 0
    return GeneralDirichletSeries(
        tuple(nu[keep]), tuple(ab[keep]), finite=f.finite and g.finite
    )


def series_equal(
    f: GeneralDirichletSeries, g: GeneralDirichletSeries, tol: float
) -> bool:
    """Coefficient-wise comparison of two ordinary series; missing indices are zero.

    This is the computable face of uniqueness: a series vanishing on a
    half-plane has all-zero coefficients, so coefficient equality is series
    equality.
    """
    if not (f.is_ordinary and g.is_ordinary):
        raise SpecError("series_equal compares ordinary Dirichlet series")
    n = max(len(f), len(g))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[: len(f)] = np.asarray(f.coefficients, dtype=complex)
    b[: len(g)] = np.asarray(g.coefficients, dtype=complex)
    return bool(np.all(np.abs(a - b) <= tol))

