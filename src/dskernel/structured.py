"""Positivity certificates for arrowhead coefficient matrices.

An arrowhead matrix [[b, c], [c*, diag(d)]] with PSD head b, positive tail d
and summable coupling sum |c_{k+l}|**2 / d_{k+l} carries a one-number
certificate: the margin

    margin(a) = lambda_min(b) - k * sum_l |c_{k+l}|**2 / d_{k+l}.

A non-negative margin certifies formal positive semi-definiteness through
the Schur complement of every finite section: the complement equals
b - (partial coupling sum) * ones(k), whose minimum eigenvalue stays above
the margin by a Weyl-type eigenvalue perturbation bound.  The converse
fails: matrices with negative margin can still be PSD, which the direct
eigenvalue ladder detects.  Every margin certificate here is cross-checked
against the ladder; disagreement is a hard internal error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import CertificationError, InternalCheckError, SpecError
from .kernel import (
    HERMITIAN_TOL,
    PsdCertificate,
    eigensolve_rounding,
    hermitian_part,
    psd_check,
    psd_cutoff,
    psd_ladder_orders,
)
from .matrices import ArrowheadMatrix
from .rules import UNIT_ROUNDOFF, RatioSum, SequenceRule, rounded_sum, weighted_ratio_sum


@dataclass(frozen=True)
class MarginCertificate:
    """Margin data for an arrowhead matrix.

    margin = lambda_min_head - (eigen-solve rounding) - k * (coupling_sum
    + coupling_sum_radius): the smallest the head's least eigenvalue could
    be, less the largest k times the coupling sum could be.  coupling_sum
    is the certified value of sum |c_{k+l}|**2 / d_{k+l}
    (coupling_sum_exact records whether it came from a closed form or a
    bounded partial sum).
    """

    lambda_min_head: float
    coupling_sum: float
    coupling_sum_exact: bool
    coupling_sum_radius: float
    margin: float
    k: int


HEAD_NOT_HERMITIAN = f"head block is not Hermitian (relative tolerance {HERMITIAN_TOL})"


def coupling_sum(m: ArrowheadMatrix) -> RatioSum:
    """Certified sum |c_{k+l}|**2 / d_{k+l}, override-aware: each override's correction is priced like a term."""
    base = weighted_ratio_sum(m.coupling, m.tail)
    if not m.tail_overrides:
        return base
    corrections, dens = [], []
    for idx, new_d in m.tail_overrides:
        if new_d <= 0:
            raise CertificationError("tail override destroys positivity")
        l = idx - m.k
        old_d = complex(m.tail.value(l)).real
        c2 = abs(m.coupling.value(l)) ** 2
        corrections += [c2 / new_d, -c2 / old_d]
        dens += [new_d, old_d]
    change, radius = rounded_sum(corrections, dens)
    total = base.total + change
    return RatioSum(total, base.exact, base.partial_terms,
                    base.remainder_bound + radius + UNIT_ROUNDOFF * abs(total))


def psd_margin(m: ArrowheadMatrix, tol: float = 1e-9) -> MarginCertificate:
    """Exact head eigen-solve plus the certified coupling sum.

    Refuses when the coupling sum cannot be certified finite (the class
    hypothesis) or the head fails PSD beyond ``psd_cutoff`` at tol.
    """
    w = np.linalg.eigvalsh(hermitian_part(m.head, HEAD_NOT_HERMITIAN))
    lam_min = float(w[0])
    if lam_min < -psd_cutoff(w, tol):
        raise CertificationError(f"head block is not PSD: min eigenvalue {lam_min}")
    s = coupling_sum(m)
    # conservative margin: the least lambda_min could be, less the largest the sum could be
    margin = lam_min - eigensolve_rounding(m.k, float(np.max(np.abs(w)))) - m.k * s.upper
    return MarginCertificate(lam_min, s.total, s.exact, s.remainder_bound, margin, m.k)


def _schur_min_eigs(m: ArrowheadMatrix, orders: list[int]) -> list[float]:
    """Min eigenvalue of b - (partial coupling sum)*ones(k) per ladder order."""
    h = hermitian_part(m.head, HEAD_NOT_HERMITIAN)
    d = m.tail_prefix(max(orders))
    if np.any(d <= 0):
        raise CertificationError("tail entry not positive in truncation")
    partial = np.cumsum(np.concatenate(([0.0], np.abs(m.coupling_prefix(max(orders))) ** 2 / d)))
    ones = np.ones((m.k, m.k))
    return [float(np.linalg.eigvalsh(h - partial[max(0, N - m.k)] * ones)[0]) for N in orders]


def certify_arrowhead(
    m: ArrowheadMatrix, max_order: int, tol: float = 1e-9
) -> tuple[PsdCertificate, Optional[MarginCertificate]]:
    """``certify_psd``'s certificate and the margin certificate it rests on (None when refused)."""
    ladder = psd_check(m, max_order, tol)  # first, so self-adjointness is judged as psd_check judges it
    try:
        cert = psd_margin(m, tol)
    except CertificationError:
        if ladder.is_psd:
            raise
        return replace(ladder, method=f"{ladder.method} (margin certificate unavailable)"), None
    orders = psd_ladder_orders(max_order)
    if cert.margin >= 0.0:
        schur = _schur_min_eigs(m, orders)
        slack = 1e-9 * (1.0 + abs(cert.lambda_min_head))
        for N, lam in zip(orders, schur):
            if lam < cert.margin - slack:
                raise InternalCheckError(
                    f"internal: Schur complement at order {N} has min eig {lam} "
                    f"below the certified margin {cert.margin}"
                )
        if not ladder.is_psd:
            raise InternalCheckError(
                "internal: margin certificate says PSD but the eigenvalue "
                f"ladder found a violation at order {ladder.witness_order}"
            )
        method = f"schur-margin + {ladder.method}"
    else:
        method = f"{ladder.method} (margin certificate inconclusive)"
    return replace(ladder, method=method, margin=cert.margin), cert


def certify_psd(
    m: ArrowheadMatrix, max_order: int, tol: float = 1e-9
) -> PsdCertificate:
    """Certify the arrowhead PSD two ways and cross-check.

    With margin >= 0 the Schur-complement argument certifies every finite
    section outright; the direct eigenvalue ladder must then agree, and a
    discrepancy raises CertificationError (it would mean the inequality
    chain was implemented wrong).  With margin < 0 the margin route is
    inconclusive and the ladder verdict stands on its own.  A refused
    margin certificate leaves a witnessed "not_psd" standing, with no
    margin; under a "psd" ladder the refusal is raised.
    """
    return certify_arrowhead(m, max_order, tol)[0]


def perturbation_psd(
    m: ArrowheadMatrix, idx: int, eps: float, max_order: int, tol: float = 1e-9
) -> bool:
    """Certify that subtracting eps at diagonal position idx preserves PSD.

    Valid for head positions idx <= k with 0 <= eps <= margin(a): the head
    eigenvalues drop by at most eps, so the margin chain still closes.
    Tail positions are only admitted with eps = 0.  Cross-checked against
    the direct ladder on the perturbed matrix.
    """
    cert = psd_margin(m, tol)
    if cert.margin < 0:
        raise CertificationError("margin is negative; the perturbation certificate does not apply")
    if eps < 0 or eps > cert.margin + 1e-15:
        raise SpecError(f"eps must lie in [0, margin] = [0, {cert.margin}]")
    if idx > m.k and eps != 0.0:
        raise SpecError("diagonal perturbations beyond the head require eps = 0")
    perturbed = m.with_head_perturbation(idx, eps) if idx <= m.k and eps != 0.0 else m
    ladder = psd_check(perturbed, max_order, tol)
    if not ladder.is_psd:
        raise InternalCheckError(
            "internal: Weyl chain certifies PSD but the ladder found min eig "
            f"{min(ladder.min_eigenvalues)} at order {ladder.witness_order}"
        )
    return True


def margin_preserving_eps(m: ArrowheadMatrix, idx: int) -> float:
    """An eps > 0 whose diagonal subtraction at idx keeps the margin positive.

    For head positions the choice margin/2 works (eigenvalues move by at
    most eps).  For tail positions the margin of the perturbed matrix has
    the closed form margin + k|c_idx|**2 (1/d_idx - 1/(d_idx - eps)), which
    stays positive on an explicit sub-interval of (0, d_idx); the midpoint
    of that interval is returned.  The returned value is re-verified on the
    perturbed matrix.
    """
    cert = psd_margin(m)
    if cert.margin <= 0:
        raise CertificationError("margin must be positive for an eps search")
    if idx < 1:
        raise SpecError("index is 1-based")
    if idx <= m.k:
        eps = cert.margin / 2.0
        perturbed = m.with_head_perturbation(idx, eps)
        new = psd_margin(perturbed)
        if new.margin <= 0:
            raise InternalCheckError("internal: head eps re-verification failed")
        return eps
    d = m.tail_value(idx)
    c2 = abs(m.coupling_value(idx)) ** 2
    if c2 == 0.0:
        eps = d / 2.0
    else:
        # need k*c2*(1/(d-eps) - 1/d) < margin, i.e. d - eps > 1/Q
        Q = cert.margin / (m.k * c2) + 1.0 / d
        eps_max = d - 1.0 / Q
        if eps_max <= 0:
            raise InternalCheckError("internal: feasible interval is empty")
        eps = eps_max / 2.0
    perturbed = m.with_tail_override(idx, d - eps)
    new = psd_margin(perturbed)
    if new.margin <= 0:
        raise InternalCheckError("internal: tail eps re-verification failed")
    return eps


def growth_check(
    m: ArrowheadMatrix, rho: float, l_max: int
) -> tuple[bool, float]:
    """Check the tail growth d_l = O(l**(rho-1)) needed for kernel convergence.

    Fits the single constant C = max d_l / l**(rho-1) over matrix indices
    l = k+1 .. k+l_max, then confirms the bound holds for all l from the
    rule's closed form.  rho must exceed 1.
    """
    if rho <= 1.0:
        raise SpecError("growth exponent needs rho > 1")
    if l_max < 1:
        raise SpecError("l_max must be >= 1")
    ls = np.arange(m.k + 1, m.k + l_max + 1, dtype=float)
    fitted_C = np.max(m.tail_prefix(m.k + l_max) / ls ** (rho - 1.0))
    rule = m.tail
    if rule.kind == "geometric":
        ok = rule.ratio <= 1.0
    elif rule.kind == "power":
        ok = rule.exponent <= rho - 1.0
    else:  # constant or explicit: bounded sequences always obey a power law
        ok = True
    return ok, float(fitted_C)


def example_arrowhead(max_order: int = 16, tol: float = 1e-9) -> tuple[ArrowheadMatrix, dict]:
    """A negative-margin arrowhead that is nonetheless formally PSD.

    Head [[1/2, 1/sqrt(6)], [1/sqrt(6), 2/3]] (eigenvalues 1/6 and 1),
    constant coupling 1 and geometric tail 4**l.  The coupling sum is
    exactly 1/3, so the margin is 1/6 - 2/3 = -1/2 and the Schur-margin
    certificate is unavailable; yet every finite section is PSD, as the
    explicit Schur complements b - S_j * ones(2) show: S_j = (1 - 4**-j)/3
    stays in [1/4, 1/3), keeping trace and determinant positive.  The
    report carries all of those quantities (S_j for j = 1..20, whatever
    max_order is) plus the eigenvalue ladder up to max_order at tol.
    """
    head = np.array([[0.5, 1.0 / math.sqrt(6.0)], [1.0 / math.sqrt(6.0), 2.0 / 3.0]])
    m = ArrowheadMatrix(
        k=2,
        head=head,
        coupling=SequenceRule("constant", scale=1.0),
        tail=SequenceRule("geometric", scale=1.0, ratio=4.0),
    )
    ladder, cert = certify_arrowhead(m, max_order, tol)
    eigs = sorted(np.linalg.eigvalsh(0.5 * (head + head.T)))
    js = list(range(1, 21))
    s_j = [(1.0 - 4.0**-j) / 3.0 for j in js]
    traces = [0.5 + 2.0 / 3.0 - 2.0 * s for s in s_j]
    dets = [
        (0.5 - s) * (2.0 / 3.0 - s) - (1.0 / math.sqrt(6.0) - s) ** 2 for s in s_j
    ]
    report = {
        "head_eigenvalues": [float(e) for e in eigs],
        "coupling_sum": cert.coupling_sum,
        "coupling_sum_exact": cert.coupling_sum_exact,
        "margin": cert.margin,
        "schur_shift_S_j": s_j,
        "schur_trace_positive": all(t > 0 for t in traces),
        "schur_det_positive": all(d > 0 for d in dets),
        "schur_traces": traces,
        "schur_dets": dets,
        "ladder_orders": list(ladder.orders),
        "ladder_min_eigenvalues": list(ladder.min_eigenvalues),
        "ladder_verdict": ladder.verdict,
        "ladder_method": ladder.method,
    }
    return m, report
