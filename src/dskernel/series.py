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

Rounding model.  Scalar closed forms compose through ``ValueWithBound``, a
midpoint-radius ball whose + - * / round outward (Rump, BIT 39, 1999): each
adds the rounding of its own midpoint, u = 2**-53 of its size, and a few
subnormals.  The one libm assumption is ``LIBM_UNITS``: pow, exp, expm1,
log, cos and sin, numpy's too, are within one ulp (2u), and
``ValueWithBound.libm`` enters such a result as a ball.  A vectorised sum
of table powers is priced from its mass instead: the argument z log n of a
power carries an absolute error of at most 3u |z| log n and the power a
relative error of at most u (c + 3 |z| log n), where c covers
``exp``/``cos``/``sin`` and the complex products that form a term.  Summing
k terms in any order adds at most gamma_k = k u / (1 - k u) times their
absolute sum per real component (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sections 3.1 and 4.2).  ``rounding_radius`` is
that bound, each term priced at its own exponent: u (c + 4 |z| lambda_n) for
exp(-z lambda_n), one rounding more than log n needs, which covers lambda_n =
omega log n.  ``direct_sum`` forms, adds and prices a single series
sum_n c_n exp(-lambda_n z) for ``evaluate``, ``partial_zeta`` and
``matrices``; a two-sided sum passes its log-weighted mass
sum |t| (|s| log m + |u| log n) to the same bound.

Rule sums.  A series with log-type exponents omega log n and a constant or
power coefficient rule c n**p sums, beyond its stored prefix, as
c sum_{n<=N} n**-z with z = omega s - p, and ``partial_zeta`` encloses
that sum without a table of length N: from the start b of ``em_start``,
sized by the remainder the tail must meet, for Re z > 1 and N > b + 512,
it sums n < b directly and the rest by Euler-Maclaurin with EM_M = 8
corrections and a rigorous remainder: work O(|z|), not O(N).  A real head
of at most FLOAT_TERMS terms is formed there, in float arithmetic, from
``_LOGS`` (the log table's first doubles as a Python list) and priced
there by ``rounding_radius``; any other head is a ``direct_sum``.  A sum
of two power rules is a Riemann zeta value zeta(beta), beta > 1: the same
sum taken to infinity, ``partial_zeta(beta, dbeta, 1, math.inf)``, for the
coupling ratio sums of ``rules``.  One routine, ``_em_tail``, builds and prices the tail for
every caller, in one loop over the corrections at both ends and the
remainder: in math (float arithmetic for a real z) for ``partial_zeta``,
which adds the tail by fsum, and in numpy for ``zeta_tails``, the
translate Gram's entries over an array of exponents; each prices only its
own sum.  The value is still the order-N partial sum and the radius the
same tail bound plus the rounding of the computation as done, including
the rounding of z itself.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CollisionError, ConvergenceRegionError, SpecError

#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53

#: longest table kept between calls: the log table of ``log_table`` and the
#: prefix a rule memoises (2**16 entries, 1 MB complex)
CACHE_LIMIT = 2**16

#: Euler-Maclaurin corrections at each end of a sum
EM_M = 8

#: beyond this real z, sum_{n>=2} n**-z < 2**-z (1 + 2/(z-1)) is below one subnormal: a sum to infinity forms no head
ZETA_HEADLESS = 1100.0

#: B_{2j} / (2j)! for j = 1 .. EM_M, each the correctly rounded quotient of its integer pair
_EM_COEFFS = tuple(p / q for p, q in ((1, 12), (-1, 720), (1, 30240), (-1, 1209600), (1, 47900160),
                                      (-691, 1307674368000), (1, 74724249600), (-3617, 10670622842880000)))

#: ``em_start``: log(2 |B_{2M}|/(2M)! 2**60), and sum d**2 and sum d**4 / 2 over d = 1/2 .. EM_M - 1/2
_EM_TARGET = math.log(2.0 * abs(_EM_COEFFS[-1])) + 60.0 * math.log(2.0)
_EM_D2, _EM_D4 = sum((k + 0.5) ** 2 for k in range(EM_M)), sum((k + 0.5) ** 4 for k in range(EM_M)) / 2

#: the corrections before the last, each with its negative and the k = 2j + 1, k + 1 of its step q = (z + k)(z + k + 1)
#: to the next
_EM_STEPS = tuple((c, -c, k, k + 1) for c, k in zip(_EM_COEFFS[:-1], range(1, 2 * EM_M, 2)))

#: longest direct sum ``direct_sum`` adds by fsum, not pairwise: the two cost the same there for a complex z
FSUM_TERMS = 128

#: longest head at a real z that ``partial_zeta`` forms by ``math.exp``: numpy costs the same near 35
FLOAT_TERMS = 32

#: relative tolerance below which two merged exponents count as colliding
COLLISION_RTOL = 1e-12

#: the most entries a complex array can have before numpy cannot count its
#: bytes: longer orders (``kernel.check_order``, ``terms``) and merge grids
#: are refused
MAX_LENGTH = np.iinfo(np.intp).max // 16

#: relative error, in units of u, of one power exp(-z log n) apart from the
#: |z| log n part: exp, cos and sin within one ulp each, the complex products
#: forming a term (coefficient times one or two powers) a few u each
POWER_ROUNDING_UNITS = 16.0

#: smallest positive subnormal double: the absolute error an underflowing
#: operation may add on top of its relative one
SUBNORMAL_MIN = 2.0**-1074

#: relative error of one libm call, in units of u: glibc states pow, exp,
#: expm1, log, cos and sin within one ulp, a relative 2u (``ValueWithBound.libm``)
LIBM_UNITS = 2.0

#: a ball's radius is computed to nearest from at most a dozen rounded
#: non-negative numbers, so it lies below the exact one by less than 16u of
#: itself, which this factor covers
_RADIUS_SLACK = 1.0 + 32.0 * UNIT_ROUNDOFF

#: underflow allowance of one ball operation: each product or quotient that
#: underflows errs by at most half a subnormal, and no operation forms 16
_UNDERFLOW = 8.0 * SUBNORMAL_MIN

_log_cache = np.empty(0)
_log_cache.flags.writeable = False

#: log n for n = 1..FLOAT_TERMS as a list, the log table's own doubles: the arguments of a short real head
_LOGS = np.log(np.arange(1.0, FLOAT_TERMS + 1.0)).tolist()


def log_table(N: int, a: int = 1) -> np.ndarray:
    """log n for n = a..N, read-only: a view of the cached table when N <= CACHE_LIMIT, else only those logs."""
    global _log_cache
    if N > CACHE_LIMIT:
        out = np.log(np.arange(a, N + 1, dtype=float))
        out.flags.writeable = False
        return out
    if _log_cache.size < N:
        _log_cache = np.log(np.arange(1, CACHE_LIMIT + 1, dtype=float))
        _log_cache.flags.writeable = False
    return _log_cache[a - 1 : N]


def exp_table(lam: np.ndarray, z: complex) -> np.ndarray:
    """exp(-z lam) for a real array lam; a real array when Im z = 0."""
    z = complex(z)
    out = lam * (-z.real if z.imag == 0.0 else -z)
    return np.exp(out, out=out)


def powers(z: complex, N: int) -> np.ndarray:
    """n**(-z) for n = 1..N as exp(-z log n); a real array when Im z = 0."""
    return exp_table(log_table(N), z)


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


def pairwise_sum(p: np.ndarray) -> tuple[complex, int]:
    """(sum of p, the most additions one term goes through), which is ceil(log2 p.size).

    Each pass adds the top half of the live terms onto the bottom half, in
    place (p is overwritten), so a term meets at most one addition per pass:
    the rounding of the sum grows with log2 of its length, not its length.
    """
    n, depth = p.size, 0
    while n > 1:
        h = n // 2
        p[:h] += p[n - h : n]
        n -= h
        depth += 1
    return (complex(p[0]) if p.size else 0j), depth


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def rounding_radius(mass: float, log_mass: float, chain: int, terms: Optional[int] = None) -> float:
    """Bound on the rounding error of a sum of table powers.

    ``mass`` is the absolute sum of the terms t and ``log_mass`` their
    absolute sum weighted by the modulus of each term's exponent argument:
    sum |t_n| |z| lambda_n for a series, sum |t| (|s| log m + |u| log n) for
    a kernel section's terms m**(-s) n**(-conj(u)).  ``chain`` is the most
    additions one term goes through (at most the number of terms, whatever
    the order; ceil(log2 of it) for ``pairwise_sum``, 1 for fsum).  Each
    term is off by u (c + 4 |argument|) |t_n|, so all of them by
    u (c mass + 4 log_mass); the additions add gamma_chain per real
    component, so 2 gamma_chain in modulus.  Underflow adds at most one
    subnormal per operation; c terms**2 operations bound even a dense
    section's, ``terms`` being the number of terms, or chain when that
    bounds it.
    """
    per_term = UNIT_ROUNDOFF * (POWER_ROUNDING_UNITS * mass + 4.0 * log_mass)
    underflow = POWER_ROUNDING_UNITS * float(chain if terms is None else terms) ** 2 * SUBNORMAL_MIN
    return per_term + 2.0 * gamma(chain) * mass + underflow


def direct_sum(lam: np.ndarray, z: complex, coef: Optional[np.ndarray] = None,
               size: Optional[float] = None) -> tuple[complex, float, float]:
    """(value, radius, log_mass) of sum_n c_n exp(-lambda_n z) over a table lam >= 0; c_n = 1 without coef.

    Up to FSUM_TERMS terms t_n are added by ``math.fsum`` (one rounding per component, none for a lone
    term), more by ``pairwise_sum``.  log_mass = sum |t_n| lambda_n prices each term at its own lambda_n
    times ``size``, |z| unless z was formed from larger parts (|s| + |u| for s + conj(u)).  Only a sum
    without a nonzero coefficient is exact.
    """
    z = complex(z)
    size = abs(z) if size is None else size
    p = exp_table(lam, z)
    moduli = p if z.imag == 0.0 else exp_table(lam, z.real)
    if coef is not None:
        p, moduli = p * coef, moduli * np.abs(coef)
    mass, log_mass = float(moduli.sum()), float(moduli @ lam)
    if p.size <= FSUM_TERMS:
        try:
            value = complex(math.fsum(p.real.tolist()), math.fsum(p.imag.tolist()) if p.dtype.kind == "c" else 0.0)
        except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
            value = complex(p.sum())
        depth = int(p.size > 1)
    else:
        value, depth = pairwise_sum(p)
    if not (p.size if coef is None else np.any(coef)):
        return value, 0.0, log_mass
    return value, rounding_radius(mass, size * log_mass, depth, p.size), log_mass


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
    m, cexp, least, i = ((math, math.exp, min, 0.0) if isinstance(z, float) else
                         (math, cmath.exp, min, 1j) if isinstance(z, complex) else (np, np.exp, np.minimum, 1j))
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
    for coeff, neg, k, k1 in _EM_STEPS:
        terms += (coeff * fb, neg * fN)
        q = (z + k) * (z + k1)
        fb, fN, ratio = fb * (q / b2), fN * (q / N2), ratio * (abs(q) / b2)
    terms += (_EM_COEFFS[-1] * fb, -_EM_COEFFS[-1] * fN)
    rounding = u * ((40.0 + 4.0 * r * log_b) * abs(terms[0])
                    + (16.0 + 4.0 * r * log_n + 10 * EM_M + 10) * sum(map(abs, terms[1:])))
    power = b ** (1.0 - sigma)
    remainder = 2.0 * abs(_EM_COEFFS[-1]) * power / (sigma + 2 * EM_M - 1) * ratio
    spread = least(1.0, N / (r + 2 * EM_M)) ** (2 - 2 * EM_M)
    error = abs(scale) * expm1_error + remainder + (4 * EM_M + 16) * b * spread * SUBNORMAL_MIN
    # sum_{n=b}^{N} n**-sigma <= b**-sigma + int_b^N t**-sigma dt
    mass = b**-sigma + power * -m.expm1(-(sigma - 1.0) * L) / (sigma - 1.0)
    return terms, rounding, error, mass


def partial_zeta(z: complex, dz: float, a: int, N: int) -> tuple[complex, float]:
    """(value, radius) with |sum_{n=a}^{N} n**-w - value| <= radius for every |w - z| <= dz; N = math.inf takes a
    real z with z - dz > 1, so that zeta(beta) is ``partial_zeta(beta, dbeta, 1, math.inf)``.

    The terms a <= n < b = ``em_start(z, a, N)`` are table powers added and priced, each at its own log n: a
    real head of at most FLOAT_TERMS terms here, by ``math.exp`` of ``_LOGS`` and fsum, any other by
    ``direct_sum``.  The tail, if any, is ``_em_tail``'s terms
    added by fsum, priced by its parts, the two fsums and the final addition.  Both roundings grow with log N, so
    the two sides of the switch have radii within a small factor.  dz is priced from the log-weighted mass of all
    the terms, as |n**-w - n**-z| <= dz log n n**-sigma e**(dz log n); to infinity, the tail's at s = sigma - dz,
    the least Re w, by sum_{n>=b} n**-s log n <= b**-s log b + b**(1-s) (log b/(s-1) + 1/(s-1)**2).  Beyond z =
    ZETA_HEADLESS no term is formed: the sum from c = max(a, 2) is at most c**-s (1 + c/(s-1)), doubled for its
    rounding, below one subnormal for s > ZETA_HEADLESS.
    """
    z = complex(z)
    u, real = UNIT_ROUNDOFF, z.imag == 0.0  # a real z takes float arithmetic and gives float terms
    if N == math.inf:
        s = math.nextafter(z.real - dz, -math.inf) if dz else z.real  # at most the least Re w
        if not (real and s > 1.0):
            raise SpecError(f"a sum to infinity needs a real z with z - dz > 1, got z = {z}, dz = {dz}")
        if z.real > ZETA_HEADLESS:
            c = max(a, 2)
            return complex(a == 1), 0.0 if s == math.inf else 2.0 * c**-s * (1.0 + c / (s - 1.0)) + SUBNORMAL_MIN
    b = em_start(z, a, N)
    head = None
    if real and b - a <= FLOAT_TERMS:  # a short real head, in floats: math.exp of a list of logs
        x = _LOGS[a - 1 : b - 1] if b <= FLOAT_TERMS + 1 else log_table(b - 1, a).tolist()
        c, exp = -z.real, math.exp
        try:
            t = [exp(c * v) for v in x]
            head = math.fsum(t)
        except OverflowError:  # a term or their sum past a double: numpy's inf reaches the caller's check
            pass
    if head is None:
        value, radius, log_mass = direct_sum(log_table(b - 1, a), z)
    else:  # each term priced at its own log n; fsum is a chain of one addition, none for a lone term
        value, log_mass = complex(head), sum(map(operator.mul, t, x))
        radius = rounding_radius(head, abs(c) * log_mass, int(len(t) > 1), len(t))
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
    terms, rounding, error, mass = _em_tail(z, b, N)
    terms = np.array(terms)
    log_n = math.log(N)
    radius = rounding + error + 2.0 * gamma(len(terms)) * np.abs(terms).sum(axis=0)
    radius += dz * log_n * mass * np.exp(np.minimum(dz * log_n, 700.0))
    return terms.sum(axis=0), radius, mass


def power_tail_bound(start: float, beta: float) -> float:
    """Upper bound for sum_{n > start} n**(-beta), beta > 1 (math.inf otherwise), by the midpoint integral test:
    x**(-beta) is convex and decreasing, so each term is at most its integral over the centred unit interval."""
    if beta <= 1.0:
        return math.inf
    return (start + 0.5) ** (1.0 - beta) / (beta - 1.0)


@dataclass(frozen=True)
class HalfPlane:
    """Open right half-plane Re(s) > rho."""

    rho: float


def _widened(radius: float) -> float:
    """A ball's radius raised to cover its own computation: inf when not finite, as when the midpoint is not."""
    r = radius * _RADIUS_SLACK + _UNDERFLOW
    return r if r < math.inf else math.inf


def _ball(mid, radius: float) -> "ValueWithBound":
    """The ball at a computed midpoint with its radius ``_widened``."""
    return ValueWithBound(mid, _widened(radius))


def ball_product(x, rx: float, y, ry: float = 0.0) -> tuple:
    """(midpoint, radius) of the product of the balls (x, rx) and (y, ry), priced as ``ValueWithBound`` prices it."""
    c = x * y
    if c == 0 and (not (x or rx) or not (y or ry)):  # a zero operand: exact
        return c, 0.0
    ax, ay = abs(x), abs(y)
    return c, _widened(ax * ry + ay * rx + rx * ry + 4.0 * UNIT_ROUNDOFF * (ax * ay))


def _parts(x) -> tuple:
    """(midpoint, radius) of a ball; a number is exact, a numpy scalar a Python number (which overflows quietly)."""
    if isinstance(x, ValueWithBound):
        return x.value, x.error_radius
    return (x.item() if isinstance(x, np.generic) else x), 0.0


def _sum(x, rx: float, y, ry: float) -> "ValueWithBound":
    """The ball x + y from the midpoints and radii of two balls."""
    if not (x or rx) or not (y or ry):  # adding an exact 0 is exact
        return ValueWithBound(x + y, rx + ry)
    c = x + y
    return _ball(c, rx + ry + UNIT_ROUNDOFF * abs(c))


def _two_sum(a, b) -> tuple:
    """(s, e): s = a + b rounded and a + b = s + e exactly (Knuth's TwoSum), per component for complex a, b."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _directed(a: float, b: float, toward: float) -> float:
    """a + b rounded toward -inf or +inf: stepped once when its exact error lies that way."""
    s, err = _two_sum(a, b)
    return math.nextafter(s, toward) if math.isfinite(s) and err and (err > 0.0) == (toward > 0.0) else s


def exponent_sum(*parts) -> tuple[complex, float]:
    """(z, dz): the sum z of complex parts, added left to right, and a bound dz on |z - exact sum|.

    ``_two_sum`` gives the rounding of each addition exactly (z is correctly
    rounded for two parts); dz adds their components, raised past its own
    roundings (at most 2k for k parts), and is 0 when z is exact.
    """
    z, dz = complex(parts[0]), 0.0
    for p in parts[1:]:
        z, e = _two_sum(z, p)
        dz = dz + abs(e.real) + abs(e.imag)
    if not cmath.isfinite(z):
        return z, math.inf
    return z, math.nextafter(dz * (1.0 + 2 * len(parts) * UNIT_ROUNDOFF), math.inf) if dz else 0.0


def ball_fsum(mids, radii) -> "ValueWithBound":
    """The sum of the balls of midpoints ``mids`` and radii ``radii``, two lists of numbers or two arrays:
    ``math.fsum`` rounds each component of the midpoint once."""
    if isinstance(mids, np.ndarray):  # its dtype says whether a midpoint is complex
        cplx, mids, radii = mids.dtype.kind == "c", mids.tolist(), radii.tolist()
    else:
        cplx = any(isinstance(m, complex) for m in mids)
    try:
        value = math.fsum([m.real for m in mids] if cplx else mids)
        value = complex(value, math.fsum([m.imag for m in mids])) if cplx else value
        return _ball(value, math.fsum(radii) + UNIT_ROUNDOFF * abs(value))
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return ValueWithBound(sum(mids), math.inf)


@dataclass(frozen=True)
class ValueWithBound:
    """A computed value together with a certified error radius: a ball.

    The contract is that the true quantity lies in the closed disc of radius
    error_radius around value.  + - * / take balls or numbers (exact) and
    hold every combination of the operands' points plus the rounding of the
    midpoint c: u |c| for a sum or a quotient by a real (each component is
    rounded once), 4u |a| |b| for a product (each component is two rounded
    products and a rounded sum, (2 + sqrt 2) u |a| |b| in all), 16u |c| for
    a quotient by a complex y (Python divides by Smith's algorithm, a few u
    normwise), whose intermediates' underflow adds 8 |c| SUBNORMAL_MIN / |y|,
    and underflow; only a zero operand is exact.  A
    divisor disc of centre y and radius r_y, real or complex, widens the
    quotient by (r_x + |c| r_y) / (|y| - r_y), a complex |y| rounded down;
    a divisor disc that holds 0 raises ZeroDivisionError.  A non-finite
    midpoint gets radius inf.
    """

    value: complex
    error_radius: float = 0.0

    @staticmethod
    def libm(value) -> "ValueWithBound":
        """A libm result, within LIBM_UNITS u of the true value, relative."""
        return _ball(value, LIBM_UNITS * UNIT_ROUNDOFF * abs(value))

    @staticmethod
    def fsum(terms) -> "ValueWithBound":
        """The sum of balls and numbers, by ``ball_fsum``."""
        parts = [_parts(t) for t in terms]
        return ball_fsum([m for m, _ in parts], [r for _, r in parts])

    @property
    def lower(self) -> float:
        """The least real part in the disc, rounded down."""
        return _directed(self.value.real, -self.error_radius, -math.inf)

    @property
    def upper(self) -> float:
        """The largest real part in the disc, rounded up."""
        return _directed(self.value.real, self.error_radius, math.inf)

    def __add__(self, other) -> "ValueWithBound":
        return _sum(self.value, self.error_radius, *_parts(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ValueWithBound":
        y, ry = _parts(other)
        return _sum(self.value, self.error_radius, -y, ry)

    def __rsub__(self, other) -> "ValueWithBound":
        return _sum(*_parts(other), -self.value, self.error_radius)

    def __mul__(self, other) -> "ValueWithBound":
        return ValueWithBound(*ball_product(self.value, self.error_radius, *_parts(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ValueWithBound":
        y, ry = _parts(other)
        size, rounding, bound = abs(y), UNIT_ROUNDOFF, 1.0
        if y.imag:  # |y| from hypot, rounded down; the complex quotient by Smith's algorithm, whose
            # denominator is at least |y|, errs by under 16u and its intermediates' underflow over |y|
            size = size * (1.0 - 2.0 * UNIT_ROUNDOFF)
            rounding = 16.0 * UNIT_ROUNDOFF + _UNDERFLOW / size
            bound += rounding
        den = size - ry
        if not den > 0.0:
            raise ZeroDivisionError("the divisor's disc holds 0")
        c = self.value / y
        if c == 0 and not (self.value or self.error_radius):
            return ValueWithBound(c)
        # |x/y - a/b| <= (r_x + |a/b| r_y) / (|b| - r_y), and |a/b| <= |c| + its rounding
        return _ball(c, (self.error_radius + (abs(c) * bound + _UNDERFLOW) * ry + _UNDERFLOW) / den
                     + rounding * abs(c))

    def __rtruediv__(self, other) -> "ValueWithBound":
        return ValueWithBound(*_parts(other)) / self


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


@dataclass(frozen=True)
class GeneralDirichletSeries:
    """Finite prefix of sum_n a_n exp(-lambda_n s), optionally rule-backed.

    finite=True declares that the stored prefix is the entire series (a
    Dirichlet polynomial in the ordinary case), which makes tails exactly
    zero.  sigma_abs is a user-asserted upper bound for the abscissa of
    absolute convergence, used only to gate evaluation when no envelope is
    available.  coefficient_rule is a ``rules.SequenceRule``, an annotation
    only: ``rules`` imports this module.
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
    def zero(cls) -> "GeneralDirichletSeries":
        return cls((), (), finite=True)

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.exponents)

    def terms(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Exponent/coefficient arrays for the first ``order`` terms.

        Rule-backed series extend beyond the stored prefix; finite series
        simply stop.  Anything else cannot honestly produce more terms.
        """
        if not 0 <= order <= MAX_LENGTH:
            raise SpecError(f"order must be non-negative and <= {MAX_LENGTH}, got {order}")
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

    The tail bound uses the declared envelope together with the exponent closed form: an integral
    comparison for log-type exponents and a geometric ratio bound for linear ones.  Without an envelope
    the radius is infinite (value-only mode).  Points at or below the certified abscissa, non-finite
    points and sums whose terms overflow a double are refused.  Beyond the stored prefix, log-type
    exponents omega log n with a constant or power coefficient rule c n**p sum as
    c sum_n n**-(omega s - p) by ``partial_zeta``; other series sum their terms by
    ``direct_sum``.  A finite series cut short adds the remainder's absolute sum, rounded up, to the
    radius.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise SpecError(f"evaluation point {s} is not finite")
    sigma = s.real
    threshold = series.certified_sigma()
    if threshold is not None and sigma <= threshold:
        raise ConvergenceRegionError(
            f"not in certified convergence region: Re(s)={sigma} <= {threshold}"
        )
    law = series.coefficient_rule.power_law() if series.coefficient_rule is not None else None
    rule = series.exponent_rule
    if law is not None and rule is not None and rule.kind == "log" and not series.finite and order > len(series):
        c, p = law
        w, dw = (s, 0.0) if rule.omega == 1.0 else ball_product(s, 0.0, rule.omega)
        z, dz = exponent_sum(w, -p)
        value, rounding = ball_product(*partial_zeta(z, dz + dw, 1, order), c)
    else:
        lam, coef = series.terms(order)
        value, rounding, _ = direct_sum(lam, s, coef)
    if series.finite and order < len(series):
        lam, coef = series.terms(len(series))  # the remainder, bounded above by its own ball
        rest = direct_sum(lam[order:], sigma, np.abs(coef[order:]))
        rounding = _widened(ValueWithBound(*rest[:2]).upper + rounding)
    if not cmath.isfinite(value) or math.isnan(rounding):
        raise SpecError(f"a term of the series at s = {s} overflows a double")
    if series.finite:
        return ValueWithBound(value, rounding)
    radius = _tail_radius(series, sigma, order)
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
    # the ratio e**-(slope sigma) ((N+1)/N)**max(alpha, 0) and the next term C (N+1)**alpha e**(-slope sigma (N+1))
    # in logs: their powers alone overflow long before either does
    log_ratio = max(env.alpha, 0.0) * math.log1p(1.0 / order) - rule.slope * sigma
    if log_ratio >= 0.0:
        raise ConvergenceRegionError(
            "not in certified convergence region: geometric tail ratio >= 1 at this order"
        )
    log_next = ((math.log(env.C) if env.C else -math.inf) + env.alpha * math.log(order + 1)
                - rule.slope * sigma * (order + 1))
    return (math.exp(log_next) if log_next < 709.0 else math.inf) / -math.expm1(log_ratio)


def _merged(lam: np.ndarray, mu: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sums lam_i + mu_j in ascending order, with their 0-based (i, j).

    Ties keep (i, j) order.  Two neighbouring sums within COLLISION_RTOL of
    each other, relative to the larger, are a CollisionError naming both
    pairs; label is a format string taking the 1-based (i, j).
    """
    nu = np.add.outer(lam, mu).ravel()
    order = np.argsort(nu, kind="stable")
    nu = nu[order]
    i, j = np.divmod(order, mu.size)
    bad = np.nonzero(np.diff(nu) <= COLLISION_RTOL * np.maximum(1.0, np.abs(nu[1:])))[0]
    if bad.size:
        a, b = (label.format(i[q] + 1, j[q] + 1) for q in (bad[0], bad[0] + 1))
        raise CollisionError(
            f"collision - injectivity hypothesis violated numerically: {a} ~ {b} = {nu[bad[0] + 1]}"
        )
    return nu, i, j


def merge_log_exponents(omega: float, m_max: int, n_max: int) -> list[tuple[float, int, int]]:
    """Sorted merged exponents (nu_q, m_q, n_q) with a numeric injectivity check.

    nu = log(m) + omega*log(n) over 1 <= m <= m_max, 1 <= n <= n_max.
    For irrational algebraic omega the map (m, n) -> log(m) + omega*log(n)
    is injective (Gelfond-Schneider), so a closer-than-tolerance pair means
    the caller's hypothesis is violated, e.g. rational omega.
    """
    if not 0 < omega < math.inf:
        raise SpecError(f"omega must be positive and finite, got {omega}")
    if m_max < 1 or n_max < 1:
        raise SpecError("grid bounds must be positive")
    if m_max * n_max > MAX_LENGTH:
        raise SpecError(f"a grid of {m_max} x {n_max} exponents is more than numpy can index")
    nu, i, j = _merged(log_table(m_max), omega * log_table(n_max), "nu({},{})")
    return list(zip(nu.tolist(), (i + 1).tolist(), (j + 1).tolist()))


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
    nu, i, j = _merged(lam_f, lam_g, "lambda_{}+mu_{}")
    ab = np.asarray(f.coefficients, dtype=complex)[i] * np.asarray(g.coefficients, dtype=complex)[j]
    keep = ab != 0
    return GeneralDirichletSeries(
        tuple(nu[keep]), tuple(ab[keep]), finite=f.finite and g.finite
    )

