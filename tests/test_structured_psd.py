"""Arrowhead margin certificates, perturbations, the worked example."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dskernel import (
    ArrowheadMatrix,
    CertificationError,
    SequenceRule,
    SpecError,
    certify_psd,
    example_arrowhead,
    growth_check,
    perturbation_psd,
    psd_check,
    psd_margin,
)


def k1_example() -> ArrowheadMatrix:
    """Head [4], coupling 2**-l, tail 4**l: coupling sum is geometric."""
    return ArrowheadMatrix(
        1,
        np.array([[4.0]]),
        SequenceRule("geometric", scale=1.0, ratio=0.5),
        SequenceRule("geometric", scale=1.0, ratio=4.0),
    )


class TestMargin:
    def test_worked_example_values(self):
        m, _ = example_arrowhead()
        cert = psd_margin(m)
        assert abs(cert.lambda_min_head - 1.0 / 6.0) < 1e-12
        assert cert.coupling_sum_exact
        assert abs(cert.coupling_sum - 1.0 / 3.0) < 1e-15
        assert abs(cert.margin - (-0.5)) < 1e-12

    def test_k1_geometric_sum(self):
        # oracle: sum (2**-l)**2 / 4**l = sum 16**-l = 1/15
        cert = psd_margin(k1_example())
        assert abs(cert.coupling_sum - 1.0 / 15.0) < 1e-15
        assert abs(cert.margin - float(Fraction(59, 15))) < 1e-12

    def test_zero_coupling_margin_is_head_eigenvalue(self):
        m = ArrowheadMatrix(
            2,
            np.array([[2.0, 0.5], [0.5, 1.0]]),
            SequenceRule("constant", scale=0.0),
            SequenceRule("geometric", scale=1.0, ratio=4.0),
        )
        cert = psd_margin(m)
        oracle = float(np.linalg.eigvalsh(np.array([[2.0, 0.5], [0.5, 1.0]]))[0])
        assert abs(cert.margin - oracle) < 1e-14

    def test_divergent_coupling_refused(self):
        m = ArrowheadMatrix(
            1,
            np.array([[1.0]]),
            SequenceRule("constant", scale=1.0),
            SequenceRule("power", scale=1.0, exponent=1.0),  # sum 1/l diverges
        )
        with pytest.raises(CertificationError):
            psd_margin(m)

    def test_non_psd_head_refused(self):
        m = ArrowheadMatrix(
            2,
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            SequenceRule("constant", scale=0.0),
            SequenceRule("geometric", scale=1.0, ratio=2.0),
        )
        with pytest.raises(CertificationError):
            psd_margin(m)


    def test_head_is_judged_at_the_callers_tol(self):
        m = ArrowheadMatrix(
            1,
            np.array([[-1e-6]]),
            SequenceRule("constant", scale=0.0),
            SequenceRule("geometric", scale=1.0, ratio=2.0),
        )
        with pytest.raises(CertificationError):
            psd_margin(m)
        assert psd_margin(m, tol=1e-5).lambda_min_head == -1e-6


def negative_head() -> ArrowheadMatrix:
    """Head [-1], coupling 0.1, tail 2**l: not PSD at order 2, and the margin certificate is refused."""
    return ArrowheadMatrix(
        1,
        np.array([[-1.0]]),
        SequenceRule("constant", scale=0.1),
        SequenceRule("geometric", scale=1.0, ratio=2.0),
    )


class TestCertify:
    def test_witnessed_not_psd_stands_without_a_margin(self):
        ladder = psd_check(negative_head(), 8)
        cert = certify_psd(negative_head(), 8)
        assert cert.verdict == "not_psd" and cert.witness_order == 2
        assert cert.margin is None
        assert cert.method == "eigenvalue-ladder (margin certificate unavailable)"
        assert cert.min_eigenvalues == ladder.min_eigenvalues
        assert np.array_equal(cert.witness_vector, ladder.witness_vector)

    def test_refused_margin_with_a_psd_ladder_still_raises(self):
        # coupling sum 0.01 per term diverges, yet the order-8 sections are PSD
        m = ArrowheadMatrix(
            1,
            np.array([[1.0]]),
            SequenceRule("geometric", scale=0.1, ratio=2.0),
            SequenceRule("geometric", scale=1.0, ratio=4.0),
        )
        assert psd_check(m, 8).is_psd
        with pytest.raises(CertificationError):
            certify_psd(m, 8)

    def test_positive_margin_certifies_both_ways(self):
        cert = certify_psd(k1_example(), 16)
        assert cert.is_psd
        assert cert.method.startswith("schur-margin")
        assert cert.margin > 0

    def test_negative_margin_falls_back_to_ladder(self):
        m, _ = example_arrowhead()
        cert = certify_psd(m, 16)
        assert cert.is_psd
        assert "inconclusive" in cert.method
        assert cert.margin < 0

    def test_boundary_zero_margin(self):
        m = ArrowheadMatrix(
            1,
            np.array([[0.0]]),
            SequenceRule("constant", scale=0.0),
            SequenceRule("geometric", scale=1.0, ratio=3.0),
        )
        cert = certify_psd(m, 8)
        assert cert.is_psd
        assert cert.margin == 0.0
        assert cert.method.startswith("schur-margin")

    def test_weyl_chain_soundness_random(self):
        # margin >= 0 must imply a clean eigenvalue ladder
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(40):
            k = int(rng.integers(1, 4))
            B = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            head = B @ B.conj().T + 0.5 * np.eye(k)
            m = ArrowheadMatrix(
                k,
                head,
                SequenceRule("geometric", scale=float(rng.uniform(0, 0.5)), ratio=0.5),
                SequenceRule("geometric", scale=float(rng.uniform(0.5, 2.0)), ratio=2.0),
            )
            cert = psd_margin(m)
            if cert.margin >= 0:
                found += 1
                ladder = psd_check(m, 12, tol=1e-9)
                assert ladder.is_psd
        assert found >= 10  # the generator must actually exercise the branch


class TestPerturbation:
    def test_eps_zero_reduces_to_certify(self):
        assert perturbation_psd(k1_example(), 1, 0.0, 12)

    def test_half_margin(self):
        m = k1_example()
        margin = psd_margin(m).margin
        assert perturbation_psd(m, 1, margin / 2, 12)

    def test_exact_margin_boundary(self):
        m = k1_example()
        margin = psd_margin(m).margin
        assert perturbation_psd(m, 1, margin, 12)

    def test_eps_out_of_range(self):
        m = k1_example()
        with pytest.raises(SpecError):
            perturbation_psd(m, 1, psd_margin(m).margin * 1.5, 12)

    def test_tail_index_needs_eps_zero(self):
        m = k1_example()
        with pytest.raises(SpecError):
            perturbation_psd(m, 2, 0.1, 12)
        assert perturbation_psd(m, 2, 0.0, 12)

    @pytest.mark.parametrize("idx", [0, -1])
    def test_index_before_the_head_is_refused(self, idx):
        m = k1_example()
        with pytest.raises(SpecError):
            perturbation_psd(m, idx, psd_margin(m).margin / 2, 12)


class TestGrowth:
    def test_linear_tail(self):
        m = ArrowheadMatrix(
            1, np.array([[1.0]]), SequenceRule("constant", scale=0.0),
            SequenceRule("power", scale=1.0, exponent=1.0),
        )
        ok, _ = growth_check(m, 2.5, 30)
        assert ok

    def test_geometric_tail_fails(self):
        ok, _ = growth_check(k1_example(), 3.0, 20)
        assert not ok

    def test_quadratic_tail_with_rho3(self):
        m = ArrowheadMatrix(
            1, np.array([[1.0]]), SequenceRule("constant", scale=0.0),
            SequenceRule("power", scale=1.0, exponent=2.0),
        )
        ok, fitted = growth_check(m, 3.0, 30)
        assert ok
        assert fitted <= 1.0 + 1e-12


class TestWorkedExample:
    def test_full_report(self):
        m, rep = example_arrowhead()
        assert abs(rep["head_eigenvalues"][0] - 1.0 / 6.0) < 1e-12
        assert abs(rep["head_eigenvalues"][1] - 1.0) < 1e-12
        assert abs(rep["coupling_sum"] - 1.0 / 3.0) < 1e-15
        assert abs(rep["margin"] + 0.5) < 1e-12
        # S_j = (1 - 4**-j)/3 stays in [1/4, 1/3)
        for j, s in enumerate(rep["schur_shift_S_j"], start=1):
            assert abs(s - (1.0 - 4.0**-j) / 3.0) < 1e-15
            assert 0.25 <= s < 1.0 / 3.0
        assert rep["schur_trace_positive"] and rep["schur_det_positive"]
        # independent oracle for the determinant at j = 1 and in the limit
        s1 = 0.25
        det1 = (0.5 - s1) * (2.0 / 3.0 - s1) - (1.0 / math.sqrt(6.0) - s1) ** 2
        assert abs(rep["schur_dets"][0] - det1) < 1e-15 and det1 > 0
        s_inf = 1.0 / 3.0
        det_inf = (0.5 - s_inf) * (2.0 / 3.0 - s_inf) - (1.0 / math.sqrt(6.0) - s_inf) ** 2
        assert det_inf > 0
        assert rep["ladder_verdict"] == "psd"
        assert min(rep["ladder_min_eigenvalues"]) >= -1e-9
