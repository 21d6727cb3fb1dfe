"""Positivity certificates for arrowhead coefficient matrices.

An arrowhead matrix [[b, c], [c*, diag(d)]] with PSD head b, positive tail d
and summable coupling sum |c_{k+l}|**2 / d_{k+l} carries a one-number
certificate: the margin

    margin(a) = lambda_min(b) - k * sum_l |c_{k+l}|**2 / d_{k+l}.

A non-negative margin certifies formal positive semi-definiteness through
the Schur complement of every finite section: the complement equals
b - (partial coupling sum) * ones(k), whose minimum eigenvalue stays above
the margin by a Weyl-type eigenvalue perturbation bound.  The converse
fails: matrices with negative margin can still be PSD, which the ladder
detects.  ``psd_check`` decides an arrowhead's rungs above order 256 from
the same complements, shifted (``kernel.schur_complements``, the one Schur
routine), and eigen-solves the rungs up to 256.  Every margin certificate
here is cross-checked against the ladder and against the unshifted
complements; disagreement is a hard internal error.
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
    judged_structure,
    psd_check,
    psd_cutoff,
    schur_complements,
)
from .matrices import ArrowheadMatrix
from .rules import RatioSum, SequenceRule, weighted_ratio_sum
from .series import MAX_LENGTH, ValueWithBound


@dataclass(frozen=True)
class MarginCertificate:
    """Margin data for an arrowhead matrix.

    margin is the lower end of the ball lambda_min_head - k * coupling_sum,
    radii the eigen-solve rounding and coupling_sum_radius: the least the
    difference could be, rounded down.  coupling_sum
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
    """Certified sum |c_{k+l}|**2 / d_{k+l}."""
    return weighted_ratio_sum(m.coupling, m.tail)


def psd_margin(m: ArrowheadMatrix, tol: float = 1e-9, head: Optional[np.ndarray] = None) -> MarginCertificate:
    """Exact head eigen-solve plus the certified coupling sum.

    The head is the Hermitian ``head`` that ``certify_arrowhead`` judged, else the head judged on its own
    (``HEAD_NOT_HERMITIAN``).  Refuses when the coupling sum cannot be certified finite (the class
    hypothesis) or the head fails PSD beyond ``psd_cutoff`` at tol.
    """
    w = np.linalg.eigvalsh(hermitian_part(m.head, HEAD_NOT_HERMITIAN) if head is None else head)
    lam_min = float(w[0])
    if lam_min < -psd_cutoff(w, tol):
        raise CertificationError(f"head block is not PSD: min eigenvalue {lam_min}")
    s = coupling_sum(m)
    head = ValueWithBound(lam_min, eigensolve_rounding(m.k, float(np.max(np.abs(w)))))
    margin = (head - m.k * ValueWithBound(s.total, s.remainder_bound)).lower
    return MarginCertificate(lam_min, s.total, s.exact, s.remainder_bound, margin, m.k)


def certify_arrowhead(
    m: ArrowheadMatrix, max_order: int, tol: float = 1e-9
) -> tuple[PsdCertificate, Optional[MarginCertificate]]:
    """``certify_psd``'s certificate and the margin certificate it rests on (None when refused).

    Self-adjointness is judged once, by ``psd_check`` at max_order (``judged_structure``; the head alone
    below order k): the margin and its Schur cross-check read the head that judgement made Hermitian."""
    ladder = psd_check(m, max_order, tol)
    form = m.psd_structure(max_order)
    h = hermitian_part(m.head, HEAD_NOT_HERMITIAN) if form is None else judged_structure(form)[0].head
    try:
        cert = psd_margin(m, tol, h)
    except CertificationError:
        if ladder.is_psd:
            raise
        return replace(ladder, method=f"{ladder.method} (margin certificate unavailable)"), None
    if cert.margin >= 0.0:
        # a certified coupling sum has no zero d_l under a nonzero c_l, so every sigma_N is finite
        n = ladder.orders[-1]
        complements, _ = schur_complements(h, m.coupling_prefix(n), m.tail_prefix(n), list(ladder.orders), 0.0)
        schur = np.linalg.eigvalsh(complements)[:, 0]
        slack = 1e-9 * (1.0 + abs(cert.lambda_min_head))
        for N, lam in zip(ladder.orders, schur):
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
    if eps != 0.0 and not 1 <= idx <= m.k:
        raise SpecError("diagonal perturbations outside the head block require eps = 0")
    perturbed = m
    if eps != 0.0:
        head = m.head.copy()
        head[idx - 1, idx - 1] -= eps
        perturbed = ArrowheadMatrix(m.k, head, m.coupling, m.tail)
    ladder = psd_check(perturbed, max_order, tol)
    if not ladder.is_psd:
        raise InternalCheckError(
            "internal: Weyl chain certifies PSD but the ladder found min eig "
            f"{min(ladder.min_eigenvalues)} at order {ladder.witness_order}"
        )
    return True


def growth_check(
    m: ArrowheadMatrix, rho: float, l_max: int
) -> tuple[bool, float]:
    """Check the tail growth d_l = O(l**(rho-1)) needed for kernel convergence.

    Fits the single constant C = max d_l / l**(rho-1) over matrix indices
    l = k+1 .. k+l_max, then confirms the bound holds for all l from the
    rule's closed form.  rho must be finite and exceed 1.
    """
    if not 1.0 < rho < math.inf:
        raise SpecError(f"growth exponent needs a finite rho > 1, got {rho}")
    if not 1 <= l_max <= MAX_LENGTH:
        raise SpecError(f"l_max must be >= 1 and <= {MAX_LENGTH}, got {l_max}")
    ls = np.arange(m.k + 1, m.k + l_max + 1, dtype=float)
    fitted_C = np.max(m.tail_prefix(m.k + l_max) / ls ** (rho - 1.0))
    pb = m.tail.poly_bound()
    return pb is not None and pb[1] <= rho - 1.0, float(fitted_C)


def example_arrowhead(max_order: int = 16, tol: float = 1e-9) -> tuple[ArrowheadMatrix, dict]:
    """A negative-margin arrowhead that is nonetheless formally PSD.

    Head [[1/2, 1/sqrt(6)], [1/sqrt(6), 2/3]] (eigenvalues 1/6 and 1),
    constant coupling 1 and geometric tail 4**l.  The coupling sum is
    exactly 1/3, so the margin is 1/6 - 2/3 = -1/2 and the Schur-margin
    certificate is unavailable; yet every finite section is PSD, as the
    Schur complements b - S_j * ones(2) show (``schur_complements``, order
    2 + j): S_j = (1 - 4**-j)/3 stays in [1/4, 1/3), keeping trace and
    determinant positive.  The report carries all of those quantities (S_j
    for j = 1..20, whatever max_order is) plus the ladder up to max_order.
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
    n = 2 + 20
    M, s_j = schur_complements(head, m.coupling_prefix(n), m.tail_prefix(n), list(range(3, n + 1)), 0.0)
    traces = np.trace(head) - 2.0 * s_j  # the trace of head - S_j ones(2)
    dets = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    report = {
        "head_eigenvalues": [float(e) for e in eigs],
        "coupling_sum": cert.coupling_sum,
        "coupling_sum_exact": cert.coupling_sum_exact,
        "margin": cert.margin,
        "schur_shift_S_j": s_j.tolist(),
        "schur_trace_positive": bool(np.all(traces > 0)),
        "schur_det_positive": bool(np.all(dets > 0)),
        "schur_traces": traces.tolist(),
        "schur_dets": dets.tolist(),
        "ladder_orders": list(ladder.orders),
        "ladder_min_eigenvalues": list(ladder.min_eigenvalues),
        "ladder_verdict": ladder.verdict,
        "ladder_method": ladder.method,
    }
    return m, report
