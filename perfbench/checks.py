"""Answer checks for the dskernel benchmark.

Every check runs after the timed loop.  Values are compared with mpmath at
30 digits, verdicts with references built into the generated inputs, and
CLI answers with the 0/2/3 exit-code policy and a strict JSON parser.  A
check returns None for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Optional

import mpmath
import numpy as np

mpmath.mp.dps = 30

#: |Im z| above which mpmath's zeta (Riemann-Siegel) gets too slow for a run;
#: beyond it the oracle is a partial sum with a rigorous tail bound instead
ZETA_CLOSED_FORM_MAX_IM = 1e10
PARTIAL_SUM_TERMS = 4000


class Raised:
    """An exception raised by the call under test, kept as its outcome."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"{type(self.exc).__name__}: {self.exc}"


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_loads(text: str):
    """json.loads that refuses bare NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def once(fn: Callable):
    """Memoise a zero-argument reference computation."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def mpc(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def decode_complex(x) -> complex:
    """Inverse of dskernel's report encoding (number or [re, im])."""
    if isinstance(x, list):
        return complex(float(x[0]), float(x[1]))
    return complex(float(x))


def zeta_truth(z, a: int = 1) -> tuple:
    """sum_{n >= a} n**(-z) as (centre, radius) at 30 digits; radius 0 when exact.

    Closed form (Hurwitz zeta) while mpmath is fast; otherwise the first
    PARTIAL_SUM_TERMS terms plus the integral-test bound on the rest.
    """
    z = mpc(z)
    if abs(z.imag) <= ZETA_CLOSED_FORM_MAX_IM:
        return mpmath.zeta(z, a), mpmath.mpf(0)
    end = a + PARTIAL_SUM_TERMS
    centre = mpmath.fsum(mpmath.mpf(n) ** (-z) for n in range(a, end))
    sigma = z.real
    return centre, (end - mpmath.mpf(0.5)) ** (1 - sigma) / (sigma - 1)


def disc_check(value: complex, radius: float, truth, truth_radius=0) -> Optional[str]:
    """None unless the certified disc provably misses the oracle value."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return f"value {value!r} is not finite"
    if math.isnan(radius) or radius < 0:
        return f"radius {radius!r} is not a non-negative number"
    miss = abs(mpc(value) - truth) - truth_radius
    if miss > radius:
        return f"disc misses the oracle: |value - truth| >= {mpmath.nstr(miss, 3)} > radius {radius:.3e}"
    return None


def ladder(max_order: int) -> list[int]:
    """The doubling ladder 2, 4, 8, ... capped at max_order, as documented by psd_check."""
    orders, k = [], 2
    while k < max_order:
        orders.append(k)
        k *= 2
    orders.append(max_order)
    return sorted(set(orders))


def psd_verdict_check(verdict: str, witness_order, expected: str,
                      expected_witness: Optional[int]) -> Optional[str]:
    if verdict != expected:
        return f"verdict {verdict!r}, reference {expected!r}"
    if expected == "not_psd" and witness_order != expected_witness:
        return f"witness order {witness_order}, reference {expected_witness}"
    return None


def membership_bounds(A: np.ndarray, f: np.ndarray, tol: float, resolution: float) -> tuple:
    """Interval that the bisected c* must fall in, from c_ref = sqrt(f* A^+ f).

    The bisection returns hi <= c_acc + resolution with c_acc <= c_ref, so
    c* <= c_ref + resolution.  From below, the Rayleigh quotient at A^+ f
    shows any c accepted under the cutoff -tol(1 + scale) satisfies
    c >= c_ref / sqrt(1 + tol (1 + scale) |A^+ f|^2 / q), q = c_ref**2, with
    scale bounded by ||A|| + |f|^2 / c**2.
    """
    g = np.linalg.lstsq(A, f, rcond=None)[0]
    q = float(np.real(np.vdot(f, g)))
    c_ref = math.sqrt(q)
    c_low = c_ref
    for _ in range(3):  # the scale bound depends on c; iterate to a fixed point
        scale = float(np.linalg.norm(A, 2)) + float(np.vdot(f, f).real) / c_low**2
        c_low = c_ref / math.sqrt(1.0 + tol * (1.0 + scale) * float(np.vdot(g, g).real) / q)
    return c_ref, c_low - resolution, c_ref + resolution


def cli_check(outcome, expect_codes=(0,), semantic: Optional[Callable] = None) -> Optional[str]:
    """Exit code, traceback, strict JSON, then the answer's own check on exit 0."""
    code, out, err = outcome.code, outcome.stdout, outcome.stderr
    if "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return f"exit {code} with a traceback: {last}"
    if code not in expect_codes:
        return f"exit code {code}, expected one of {list(expect_codes)}"
    try:
        report = strict_loads(out)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    if code == 0 and semantic is not None:
        return semantic(report["results"])
    return None
