"""CLI dispatch, report schema, exit-code policy, determinism."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from dskernel import DenseMatrix, cli, errors, psd_check, structured
from dskernel.cli import main
from dskernel.io import load_matrix
from dskernel.kernel import eigensolve_rounding, self_adjoint_check

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"

#: beyond the double range: ``json.dumps`` writes it out digit by digit, and ``json.loads`` reads a Python int
BEYOND_DOUBLE = 10**400


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestEval:
    def test_series(self, capsys):
        code, rep = run_json(
            capsys, "eval", "--series", str(SAMPLES / "zeta_series.json"),
            "--s", "2", "--order", "1000",
        )
        assert code == 0
        assert abs(rep["results"]["value"] - 1.6449) < 1e-3
        assert rep["results"]["error_radius"] < 1e-2

    def test_kernel(self, capsys):
        code, rep = run_json(
            capsys, "eval", "--matrix", str(SAMPLES / "diag_ones.json"),
            "--s", "2", "--u", "2", "--order", "1000",
        )
        assert code == 0
        assert abs(rep["results"]["value"] - 1.0823) < 1e-3

    @pytest.mark.parametrize("source, point", [
        (["--matrix", "diag_ones.json"], ["--s", "1e300", "--u", "1"]),
        (["--matrix", "diag_ones.json"], ["--s", "1e30", "--u", "1"]),
        (["--series", "zeta_series.json"], ["--s", "1e200"]),
        (["--matrix", "diag_ones.json"], ["--s", "400", "--u", "1"]),
        (["--series", {"kind": "ordinary", "coefficients": [1, 1, 1, 1], "finite": True}], ["--s", "1e300"]),
        (["--matrix", {"variant": "diagonal", "values": [1] * 100, "rho": 0.5}], ["--s", "1e300", "--u", "1"]),
    ])
    def test_a_value_of_one_keeps_a_radius_of_a_few_ulps(self, capsys, tmp_path, source, point):
        """Every term but n = 1 is below one subnormal: each term is priced at its own log n, and log 1 = 0.
        A spec given inline is written to a file and evaluated at its own length, so its truth is that
        finite sum; a sample's truth is zeta."""
        flag, spec = source
        path, order = SAMPLES / str(spec), 10000
        if isinstance(spec, dict):
            path, order = tmp_path / "spec.json", len(spec.get("coefficients") or spec["values"])
            path.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "eval", flag, str(path), *point, "--order", str(order))
        assert code == 0
        value, radius = rep["results"]["value"], rep["results"]["error_radius"]
        assert value == 1.0 and radius <= 1e-14
        with mpmath.workdps(40):
            z = sum(mpmath.mpf(x) for x in point[1::2])  # s + conj(u), both real
            truth = (mpmath.fsum(mpmath.power(n, -z) for n in range(1, order + 1)) if isinstance(spec, dict)
                     else mpmath.zeta(z))
            assert abs(mpmath.mpf(value) - truth) <= radius

    @pytest.mark.parametrize("alpha, order, code", [(300, 100000, 0), (2000, 1, 2)])
    def test_linear_exponent_tail_past_a_large_power(self, capsys, tmp_path, alpha, order, code):
        """(N+1)**alpha = 100001**300 overflows a double, but the tail term C (N+1)**alpha e**(-2(N+1)) is below
        e**-10**5, and ((N+1)/N)**alpha = 2**2000 overflows where the tail ratio is refused: the tail bound takes
        both in logs."""
        f = tmp_path / "linear.json"
        f.write_text(json.dumps({"kind": "general", "coefficients": [1],
                                 "generator": {"exponents": {"kind": "linear", "slope": 1},
                                               "coefficients": {"kind": "constant", "value": 1}},
                                 "envelope": {"C": 1, "alpha": alpha}}))
        assert main(["eval", "--series", str(f), "--s", "2", "--order", str(order)]) == code
        rep = json.loads(capsys.readouterr().out)
        if code:
            assert rep["error"]["kind"] == "ConvergenceRegionError"
            return
        with mpmath.workdps(40):
            truth = mpmath.exp(-2) / (1 - mpmath.exp(-2))  # sum_{n>=1} e**(-2n)
            assert abs(mpmath.mpf(rep["results"]["value"]) - truth) <= rep["results"]["error_radius"]

    def test_missing_inputs_is_usage_error(self, capsys):
        code, rep = run_json(capsys, "eval", "--s", "2")
        assert code == 2
        assert "error" in rep


class TestPsd:
    def test_example_arrowhead_report(self, capsys):
        code, rep = run_json(
            capsys, "psd", "--matrix", str(SAMPLES / "example_arrowhead.json"),
            "--max-order", "16",
        )
        assert code == 0
        res = rep["results"]
        assert res["verdict"] == "psd"
        assert abs(res["margin"] + 0.5) < 1e-12
        assert res["self_adjoint"] is True
        assert min(res["min_eigenvalues"]) >= -1e-9

    def test_not_psd_is_still_exit_zero(self, capsys, tmp_path):
        spec = {"variant": "dense", "entries": [[1, 2], [2, 1]], "rho": 0.0}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "psd", "--matrix", str(f), "--max-order", "2")
        assert code == 0
        assert rep["results"]["verdict"] == "not_psd"
        assert rep["results"]["witness_order"] == 2

    def test_non_self_adjoint_reported(self, capsys, tmp_path):
        spec = {"variant": "dense", "entries": [[1, [0, 1]], [[0, 1], 1]], "rho": 0.0}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "psd", "--matrix", str(f), "--max-order", "2")
        assert code == 0
        assert rep["results"]["verdict"] == "not_self_adjoint"

    def test_witnessed_not_psd_arrowhead_is_exit_zero(self, capsys, tmp_path):
        # the head [-1] refuses the margin certificate; the ladder's witness still stands
        spec = {"variant": "arrowhead", "k": 1, "head": [[-1]], "rho": 0.0,
                "c_rule": {"kind": "constant", "value": 0.1},
                "d_rule": {"kind": "geometric", "scale": 1, "ratio": 2}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "psd", "--matrix", str(f), "--max-order", "8")
        assert code == 0
        res = rep["results"]
        assert res["verdict"] == "not_psd" and res["witness_order"] == 2
        assert res["margin"] is None and res["method"] == "eigenvalue-ladder (margin certificate unavailable)"


class TestPsdSelfAdjointTolerance:
    """`dskernel psd` judges self-adjointness once, as the certificate does."""

    @staticmethod
    def applied_tolerance():
        from dskernel.kernel import HERMITIAN_TOL
        return HERMITIAN_TOL

    def psd(self, capsys, tmp_path, spec, order=2):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "psd", "--matrix", str(f), "--max-order", str(order))
        assert code == 0
        return rep["results"]

    def test_asymmetry_within_the_certificate_tolerance_is_certified(self, capsys, tmp_path):
        entries = [[1, 5e-11], [0, 1]]
        res = self.psd(capsys, tmp_path, {"variant": "dense", "entries": entries, "rho": 0.0})
        assert res["self_adjoint"] is True
        assert res["verdict"] == psd_check(DenseMatrix(np.array(entries, dtype=complex)), 2).verdict == "psd"

    def test_clear_asymmetry_reports_the_applied_tolerance(self, capsys, tmp_path):
        res = self.psd(capsys, tmp_path, {"variant": "dense", "entries": [[1, 1], [0, 1]], "rho": 0.0})
        assert res == {"self_adjoint": False, "verdict": "not_self_adjoint",
                       "tolerance": self.applied_tolerance()}

    @pytest.mark.parametrize("off, verdict", [(0.5, "not_self_adjoint"), (5e-11, "psd")])
    def test_arrowhead_head_is_judged_at_the_same_tolerance(self, capsys, tmp_path, off, verdict):
        spec = {"variant": "arrowhead", "k": 2, "head": [[1, off], [0, 1]],
                "c_rule": {"kind": "constant", "value": 0.1},
                "d_rule": {"kind": "geometric", "scale": 1, "ratio": 2}, "rho": 0.0}
        res = self.psd(capsys, tmp_path, spec, order=8)
        assert res["verdict"] == verdict
        assert res["self_adjoint"] is (verdict == "psd")
        if verdict == "not_self_adjoint":
            assert res["tolerance"] == self.applied_tolerance()

    # a head off by 1e-8 under a tail of 10000 * 2**l: within 1e-10 of the order-16 section's largest entry
    SMALL_HEAD = {"variant": "arrowhead", "k": 2, "head": [[4, 1.00000001], [1, 4]],
                  "c_rule": {"kind": "constant", "value": 100},
                  "d_rule": {"kind": "geometric", "scale": 10000, "ratio": 2}}

    def test_a_head_within_the_sections_tolerance_is_judged_once(self, capsys, tmp_path):
        m = load_matrix(self.SMALL_HEAD)[0]
        assert psd_check(m, 16).verdict == "psd" and self_adjoint_check(m, 16)
        res = self.psd(capsys, tmp_path, self.SMALL_HEAD, order=16)
        assert res["self_adjoint"] is True and res["verdict"] == "psd"
        assert res["method"].startswith("schur-margin") and res["margin"] > 0

    def test_sk_reads_the_same_judgement(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.SMALL_HEAD))
        code, rep = run_json(capsys, "sk", "--matrix", str(f), "--max-order", "16")
        assert code == 0
        assert rep["results"]["verdict"] == "psd" and rep["results"]["margin"] > 0

    def test_large_rank_one_is_self_adjoint(self, capsys, tmp_path):
        # np.outer(f, conj(f)) leaves |T - T*| = 1.2e-10 on entries of 6e6
        fhat = [[189.1, -2441.5], [-522.7, 1799.7], [-413.1, 1144.2]]
        res = self.psd(capsys, tmp_path, {"variant": "rank_one", "fhat": fhat, "rho": 0.0}, order=3)
        assert res["self_adjoint"] is True
        assert res["verdict"] == "psd"

    @pytest.mark.parametrize("off, verdict", [(5e-5, "psd"), (1e-3, "not_self_adjoint")])
    def test_asymmetry_is_judged_relative_to_the_entries(self, capsys, tmp_path, off, verdict):
        entries = [[1e6, off], [0, 1e6]]
        res = self.psd(capsys, tmp_path, {"variant": "dense", "entries": entries, "rho": 0.0})
        assert res["verdict"] == verdict


class TestSymbols:
    def test_diagonal_column(self, capsys):
        code, rep = run_json(
            capsys, "symbols", "--matrix", str(SAMPLES / "diag_ones.json"),
            "--n", "3", "--order", "6",
        )
        assert code == 0
        coeffs = rep["results"]["coefficients"]
        assert coeffs[2] == 1.0
        assert all(c == 0 for i, c in enumerate(coeffs) if i != 2)


class TestMembership:
    def test_query_file(self, capsys):
        code, rep = run_json(
            capsys, "membership", "--query", str(SAMPLES / "membership_query.json")
        )
        assert code == 0
        assert rep["results"]["member"] is True
        assert abs(rep["results"]["c_star"] - 1.0) < 1e-5

    def test_report_has_one_probe_and_no_resolution(self, capsys):
        code, rep = run_json(
            capsys, "membership", "--query", str(SAMPLES / "membership_query.json")
        )
        assert code == 0
        assert "resolution" not in rep["inputs"]
        assert rep["results"]["eig_trace"] == [[rep["results"]["c_star"],
                                                rep["results"]["min_eig_at_c_star"]]]

    def test_query_with_a_resolution_key_still_loads(self, capsys, tmp_path):
        query = json.loads((SAMPLES / "membership_query.json").read_text())
        query["resolution"] = 1e-6
        f = tmp_path / "q.json"
        f.write_text(json.dumps(query))
        code, rep = run_json(capsys, "membership", "--query", str(f))
        assert code == 0 and rep["results"]["member"] is True

    def test_failing_certificate_exits_3(self, capsys, monkeypatch):
        # an eigen-solve that overstates every eigenvalue makes c* too small;
        # the certifying eigenvalue probe disagrees
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda S: (eigh(S)[0] + 1.0, eigh(S)[1]))
        code, rep = run_json(
            capsys, "membership", "--query", str(SAMPLES / "membership_query.json")
        )
        assert code == 3
        assert rep["error"]["kind"] == "InternalCheckError"

    def test_inline_fhat(self, capsys):
        code, rep = run_json(
            capsys, "membership", "--matrix", str(SAMPLES / "diag_ones.json"),
            "--fhat", "0,0,1", "--order", "5",
        )
        assert code == 0
        assert rep["results"]["member"] is True


class TestSk:
    def test_bundled_example(self, capsys):
        code, rep = run_json(capsys, "sk", "--example")
        assert code == 0
        res = rep["results"]
        assert abs(res["margin"] + 0.5) < 1e-12
        assert res["ladder_verdict"] == "psd"
        assert res["schur_det_positive"] is True

    def test_matrix_with_growth(self, capsys):
        code, rep = run_json(
            capsys, "sk", "--matrix", str(SAMPLES / "example_arrowhead.json"),
            "--growth-rho", "3.0",
        )
        assert code == 0
        assert rep["results"]["growth"]["bounded"] is False

    def test_witnessed_not_psd_is_reported_as_psd_reports_it(self, capsys, tmp_path):
        # the head [-1] refuses the margin certificate; sk reports the ladder's witness like psd
        spec = {"variant": "arrowhead", "k": 1, "head": [[-1]], "rho": 0.0,
                "c_rule": {"kind": "constant", "value": 0.1},
                "d_rule": {"kind": "geometric", "scale": 1, "ratio": 2}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "sk", "--matrix", str(f), "--max-order", "8")
        assert code == 0
        res = rep["results"]
        assert res["verdict"] == "not_psd" and res["witness_order"] == 2 and res["margin"] is None
        assert "lambda_min_head" not in res and "coupling_sum" not in res
        _, psd = run_json(capsys, "psd", "--matrix", str(f), "--max-order", "8")
        assert {**res, "self_adjoint": True} == psd["results"]

    def test_one_margin_certificate_per_report(self, capsys, monkeypatch):
        calls, margin = [], structured.psd_margin
        monkeypatch.setattr(structured, "psd_margin", lambda m, tol, head: calls.append(tol) or margin(m, tol, head))
        code, rep = run_json(capsys, "sk", "--matrix", str(SAMPLES / "example_arrowhead.json"))
        assert code == 0 and calls == [1e-9]
        res = rep["results"]
        priced = res["lambda_min_head"] - eigensolve_rounding(2, 1.0) - 2 * (res["coupling_sum"] + res["coupling_sum_radius"])
        assert abs(res["margin"] - priced) <= 1e-15 and res["margin"] < -0.5

    def test_example_takes_one_margin_certificate(self, capsys, monkeypatch):
        calls, margin = [], structured.psd_margin
        monkeypatch.setattr(structured, "psd_margin", lambda m, tol, head: calls.append(tol) or margin(m, tol, head))
        code, rep = run_json(capsys, "sk", "--example")
        assert code == 0 and calls == [1e-9]


class TestInvariance:
    def test_diagonal_invariant(self, capsys):
        code, rep = run_json(
            capsys, "invariance", "--matrix", str(SAMPLES / "diag_ones.json"),
            "--order", "32", "--seed", "5",
        )
        assert code == 0
        res = rep["results"]
        assert res["translation"]["invariant"] is True
        assert res["linear_subgroup"]["invariant"] is False

    def test_rank_one_witness(self, capsys):
        code, rep = run_json(
            capsys, "invariance", "--matrix", str(SAMPLES / "rank_one_2.json"),
            "--order", "4",
        )
        assert code == 0
        # kappa = 2**(-s-conj(u)) is diagonal-free... the matrix is e2 e2*,
        # which IS diagonal: translation invariant, linear subgroup not
        assert rep["results"]["translation"]["invariant"] is True
        assert rep["results"]["linear_subgroup"]["invariant"] is False
        assert rep["results"]["linear_subgroup"]["witness_kind"] is not None

    def test_one_tol_for_both_tests(self, capsys, tmp_path):
        """Below tol the off-diagonal entry leaves the pattern of both tests: translation invariant, and a scaling,
        not a translation, defeats the linear subgroup."""
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"variant": "dense", "entries": [[1, 1e-7], [1e-7, 1]], "rho": 0.0}))
        code, rep = run_json(capsys, "invariance", "--matrix", str(f), "--order", "2")
        res = rep["results"]
        assert code == 0 and rep["inputs"]["tol"] == 1e-6
        assert res["translation"]["invariant"] is True and res["translation"]["samples"] == 20
        assert res["linear_subgroup"]["invariant"] is False and res["linear_subgroup"]["witness_kind"] == "scaling"

    def test_off_diagonal_kernel_reports_the_translation_witness_twice(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"variant": "dense", "entries": [[1, 0.5], [0.5, 1]], "rho": 0.0}))
        code, rep = run_json(capsys, "invariance", "--matrix", str(f), "--order", "2")
        t, lin = rep["results"]["translation"], rep["results"]["linear_subgroup"]
        assert code == 0 and t["samples"] == 0 and lin["witness_kind"] == "translation"
        w = t["witness"]
        assert lin["witness_param"] == w["b"] and lin["violation"] == w["violation"]
        assert lin["witness_point"] == [w["s"], w["u"]]


    def test_an_unbounded_disc_exits_2(self, capsys, tmp_path):
        """A geometric rule of ratio 2 bounds no tail: every disc is unbounded, so no verdict holds."""
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"variant": "diagonal", "rule": {"kind": "geometric", "ratio": 2}, "rho": 0.5}))
        code, rep = run_json(capsys, "invariance", "--matrix", str(f), "--order", "8")
        assert code == 2 and rep["error"]["kind"] == "CertificationError"
        assert "infinite error radius" in rep["error"]["message"]


class TestClassify:
    def test_diag_ones_not_quasi_invariant(self, capsys):
        code, rep = run_json(
            capsys, "classify", "--matrix", str(SAMPLES / "diag_ones.json"),
            "--order", "16",
        )
        assert code == 0
        assert rep["results"]["verdict"] == "not_quasi_invariant"
        assert "rank" in rep["results"]["reason"]

    def test_rank_one_quasi_invariant(self, capsys):
        code, rep = run_json(
            capsys, "classify", "--matrix", str(SAMPLES / "rank_one_2.json"),
            "--order", "2",
        )
        assert code == 0
        assert rep["results"]["verdict"] == "quasi_invariant"

    def test_non_self_adjoint_is_a_hermitian_error(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"variant": "dense", "entries": [[1, 1], [0, 1]], "rho": 0.0}))
        code, rep = run_json(capsys, "classify", "--matrix", str(f), "--order", "2")
        code_m, rep_m = run_json(capsys, "membership", "--matrix", str(f), "--fhat", "1", "--order", "2")
        assert code == code_m == 2
        assert rep["error"] == rep_m["error"]
        assert rep["error"]["kind"] == "HermitianError"

    def test_deterministic_reports(self, capsys):
        args = ("classify", "--matrix", str(SAMPLES / "diag_ones.json"), "--order", "8")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


class TestHomog:
    def test_verify_sweep(self, capsys):
        code, rep = run_json(capsys, "homog", "--verify", "--pairs", "200", "--seed", "7")
        assert code == 0
        assert rep["results"]["homogeneity"]["exact"] is True
        assert rep["results"]["homogeneity"]["nonzero_residuals"] == 0

    def test_span_gram(self, capsys):
        code, rep = run_json(
            capsys, "homog", "--span", str(SAMPLES / "span_zeta.json"), "--delta", "0.25"
        )
        assert code == 0
        res = rep["results"]
        assert res["gram"]["independent"] is True
        assert res["admissibility"]["admissible"] is True
        assert res["adjoint_condition"]["verdict"] == "finite"

    @pytest.mark.parametrize("order", [20, 5000])
    def test_generated_support_is_admissible_at_any_order(self, capsys, tmp_path, order):
        f = tmp_path / "span.json"
        f.write_text(json.dumps({"a": 1.0, "offsets": ["0", "1"], "order": order, "rho": 0.5,
                                 "diagonal": {"kind": "constant", "value": 1},
                                 "support": {"kind": "generated", "generators": [50, 77]}}))
        code, rep = run_json(capsys, "homog", "--span", str(f))
        assert code == 0
        assert rep["results"]["admissibility"] == {"admissible": True, "multiplicatively_closed": True,
                                                   "coprime_pair": [50, 77]}

    def test_explicit_support_beyond_a_double(self, capsys, tmp_path):
        f = tmp_path / "span.json"
        f.write_text(json.dumps({"a": 1.0, "offsets": ["0", "1"], "order": 100, "rho": 0.5,
                                 "diagonal": {"kind": "constant", "value": 1},
                                 "support": {"kind": "explicit", "elements": [2**70, 3]}}))
        code, rep = run_json(capsys, "homog", "--span", str(f), "--delta", "0.25")
        assert code == 0
        assert rep["results"]["admissibility"] == {"admissible": False, "multiplicatively_closed": False,
                                                   "coprime_pair": [3, 2**70]}
        assert rep["results"]["adjoint_condition"]["verdict"] == "finite"

    def test_explicit_span_past_its_list(self, capsys, tmp_path):
        """Indices past an explicit diagonal's list carry no term: with or without --delta the span is answered."""
        f = tmp_path / "span.json"
        f.write_text(json.dumps({"a": 2.0, "offsets": ["0", "1/2", "3"], "order": 10,
                                 "diagonal": {"kind": "explicit", "values": [1, 0.5, 0.25]}}))
        code, rep = run_json(capsys, "homog", "--span", str(f))
        assert code == 0 and "adjoint_condition" not in rep["results"]
        code, rep = run_json(capsys, "homog", "--span", str(f), "--delta", "0.5")
        assert code == 0
        assert rep["results"]["adjoint_condition"]["verdict"] == "finite"


class TestMerge:
    def test_sqrt2_grid(self, capsys):
        code, rep = run_json(
            capsys, "merge", "--omega", "sqrt2", "--m-max", "5", "--n-max", "5",
            "--limit", "3",
        )
        assert code == 0
        assert rep["results"]["count"] == 25
        assert rep["results"]["min_gap"] > 1e-9
        assert rep["results"]["entries"][0] == {"nu": 0.0, "m": 1, "n": 1}

    def test_rational_omega_collision_exit_2(self, capsys):
        code, rep = run_json(capsys, "merge", "--omega", "1", "--m-max", "2", "--n-max", "2")
        assert code == 2
        assert rep["error"]["kind"] == "CollisionError"

    @staticmethod
    def series_files(tmp_path) -> tuple[str, str]:
        """f = 1 + 0.5 2**-s + 0.25 3**-s, and g with coefficients 1, -0.5, 0.3 at exponents sqrt(2) log n."""
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        f.write_text(json.dumps({"kind": "ordinary", "coefficients": [1, 0.5, 0.25], "finite": True}))
        g.write_text(json.dumps({"kind": "general", "coefficients": [1, -0.5, 0.3], "finite": True,
                                 "generator": {"exponents": {"kind": "log", "omega": math.sqrt(2.0)}}}))
        return str(f), str(g)

    def test_check_multiply_agrees_within_the_radii(self, capsys, tmp_path):
        f, g = self.series_files(tmp_path)
        code, rep = run_json(capsys, "merge", "--omega", "sqrt2", "--m-max", "3", "--n-max", "3",
                             "--check-multiply", f, g)
        assert code == 0
        checks = rep["results"]["multiply_check"]
        assert [c["s"] for c in checks] == [2.5, 3.0, 4.5]
        for c in checks:
            assert 0.0 < c["combined_radius"] < 1e-13
            assert c["difference"] <= c["combined_radius"]

    def test_check_multiply_of_two_ordinary_series_collides(self, capsys, tmp_path):
        f, _ = self.series_files(tmp_path)
        code, rep = run_json(capsys, "merge", "--omega", "sqrt2", "--m-max", "3", "--n-max", "3",
                             "--check-multiply", f, f)
        assert code == 2
        assert rep["error"]["kind"] == "CollisionError"


class TestErrorPolicy:
    @pytest.mark.parametrize("content", [b"{nope", b"[" * 100_000, b"\xff"],
                             ids=["not-json", "nested-too-deep", "not-utf8"])
    def test_malformed_json_exit_2(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        code, rep = run_json(capsys, "psd", "--matrix", str(f))
        assert code == 2
        assert rep["error"]["kind"] == "SpecError" and "malformed JSON" in rep["error"]["message"]

    @pytest.mark.parametrize("argv, kind", [
        (["merge", "--omega", "sqrt2", "--m-max", "10000000", "--n-max", "10000000", "--limit", "1"], "MemoryError"),
        (["merge", "--omega", "sqrt2", "--m-max", "100000000000000000000", "--n-max", "2"], "SpecError"),
        (["symbols", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--n", "5",
          "--order", "100000000000000000000"], "SpecError"),
        (["psd", "--matrix", str(SAMPLES / "diag_ones.json"), "--max-order", "100000000000000000000"], "SpecError"),
        (["sk", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--growth-rho", "2",
          "--l-max", "100000000000000000000"], "SpecError"),
        (["homog", "--verify", "--pairs", "100000000000000000000"], "SpecError"),
        (["eval", "--series", {"kind": "ordinary", "coefficients": [1, [0, 1], -1, 2], "finite": True},
          "--s=-800+3j", "--order", "4"], "SpecError"),
        (["eval", "--series", {"kind": "ordinary", "coefficients": [1, 1, 1, 1], "finite": True},
          "--s=-1e300", "--order", "4"], "SpecError"),
        (["eval", "--matrix", {"variant": "dense", "entries": [[1, 0.5], [0.5, 1]], "rho": -3000},
          "--s=-2000", "--u=1", "--order", "2"], "SpecError"),
        (["eval", "--matrix", {"variant": "diagonal", "values": [1, 1, 1], "rho": -3000},
          "--s=-2000", "--u=1", "--order", "3"], "SpecError"),
        (["eval", "--matrix", {"variant": "rank_one", "fhat": [1, 1, 1], "rho": -3000},
          "--s=-2000", "--u=1", "--order", "3"], "SpecError"),
        (["eval", "--series", {"kind": "ordinary", "coefficients": [1],
                               "generator": {"coefficients": {"kind": "constant", "value": 1}}},
          "--s=-800", "--order", "4"], "SpecError"),
    ], ids=["merge-grid-too-large-to-hold", "merge-bound-past-numpy", "symbols-order-past-numpy",
            "psd-order-past-numpy", "sk-l-max-past-numpy", "homog-pairs-past-numpy", "series-terms-overflow",
            "finite-series-terms-overflow", "dense-kernel-terms-overflow", "values-kernel-terms-overflow",
            "rank-one-kernel-terms-overflow", "rule-series-head-overflow"])
    def test_oversized_input_exit_2(self, tmp_path, argv, kind):
        """Sizes refused at allocation or before it, and sums whose terms overflow a double, in a child process
        held to 2 GiB of address space, with nothing on stderr.  A spec given inline is written to a file."""
        spec = tmp_path / "spec.json"
        for arg in argv:
            if isinstance(arg, dict):
                spec.write_text(json.dumps(arg))
        argv = [str(spec) if isinstance(arg, dict) else arg for arg in argv]
        out = fresh_python("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, "
                           "resource.getrlimit(resource.RLIMIT_AS)[1])); from dskernel.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv)
        assert out.returncode == 2, out.stderr
        assert json.loads(out.stdout)["error"]["kind"] == kind
        assert out.stderr == ""

    def test_series_order_past_numpy_exit_2(self, capsys, tmp_path):
        """A series without a closed form past its prefix sums its terms, so its order is checked as a length."""
        f = tmp_path / "geometric.json"
        f.write_text(json.dumps({"kind": "ordinary", "coefficients": [0.5, 0.25], "envelope": {"C": 1, "alpha": 0},
                                 "generator": {"coefficients": {"kind": "geometric", "scale": 1, "ratio": 0.5}}}))
        assert main(["eval", "--series", str(f), "--s", "2", "--order", "40"]) == 0
        capsys.readouterr()
        code, rep = run_json(capsys, "eval", "--series", str(f), "--s", "2", "--order", str(10**20))
        assert code == 2 and rep["error"]["kind"] == "SpecError"

    def test_unknown_variant_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"variant": "mystery"}))
        code, rep = run_json(capsys, "psd", "--matrix", str(f))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, rep = run_json(capsys, "psd", "--matrix", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("error", [e for e in vars(errors).values()
                                       if isinstance(e, type) and issubclass(e, errors.DskernelError)
                                       and e is not errors.DskernelError])
    def test_every_error_exits_by_its_class(self, capsys, monkeypatch, error):
        def handler(args):
            raise error("raised by the handler")
        monkeypatch.setattr(cli, "_cmd_merge", handler)
        code, rep = run_json(capsys, "merge", "--omega", "2", "--m-max", "1", "--n-max", "1")
        assert code == (3 if error is errors.InternalCheckError else 2)
        assert rep["error"] == {"kind": error.__name__, "message": "raised by the handler"}

    @pytest.mark.parametrize("argv", [
        ["psd", "--matrix", str(SAMPLES / "diag_ones.json"), "--max-order", "4"],
        ["membership", "--query", str(SAMPLES / "membership_query.json")],
        ["sk", "--matrix", str(SAMPLES / "example_arrowhead.json")],
        ["sk", "--example"],
    ])
    def test_negative_tol_is_a_usage_error(self, capsys, argv):
        code, rep = run_json(capsys, *argv, "--tol", "-1")
        assert code == 2
        assert rep["error"]["kind"] == "SpecError" and "non-negative" in rep["error"]["message"]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("argv", [
        ["invariance", "--matrix", str(SAMPLES / "diag_ones.json"), "--order", "8"],
        ["classify", "--matrix", str(SAMPLES / "rank_one_2.json"), "--order", "2"],
    ])
    def test_negative_or_nan_tol_is_a_usage_error_for_the_invariance_tests(self, capsys, argv, tol):
        code, rep = run_json(capsys, *argv, "--tol", tol)
        assert code == 2
        assert rep["error"]["kind"] == "SpecError" and "non-negative" in rep["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["eval", "--series", str(SAMPLES / "zeta_series.json"), "--s", "2"],
        ["symbols", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--n", "1"],
        ["homog", "--verify", "--pairs", "1"],
        ["merge", "--omega", "sqrt2", "--m-max", "2", "--n-max", "2"],
    ])
    def test_tol_is_refused_where_it_is_not_read(self, capsys, argv):
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "123"])
        capsys.readouterr()
        assert exc.value.code == 2


    @pytest.mark.parametrize("argv", [
        ["eval", "--series", str(SAMPLES / "zeta_series.json"), "--s", "2"],
        ["psd", "--matrix", str(SAMPLES / "diag_ones.json")],
        ["symbols", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--n", "1"],
        ["membership", "--query", str(SAMPLES / "membership_query.json")],
        ["sk", "--example"],
        ["classify", "--matrix", str(SAMPLES / "rank_one_2.json"), "--order", "2"],
        ["merge", "--omega", "sqrt2", "--m-max", "2", "--n-max", "2"],
    ])
    def test_seed_is_refused_where_it_is_not_read(self, capsys, argv):
        assert main(argv) == 0
        assert "seed" not in json.loads(capsys.readouterr().out)["inputs"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        capsys.readouterr()
        assert exc.value.code == 2


class TestOutputModes:
    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "merge", "--omega", "sqrt2", "--m-max", "2", "--n-max", "2",
            "--format", "csv", "--limit", "1",
        )
        assert code == 0
        assert out.startswith("key,value\n")
        assert "results.count,4" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["sk", "--example", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(target.read_text())
        assert rep["command"] == "sk"

    def test_error_report_follows_format_and_out(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out = run(capsys, "psd", "--matrix", "/nonexistent.json", "--format", "csv", "--out", str(target))
        assert code == 2 and out == ""
        rows = dict(csv.reader(target.read_text().splitlines()))
        assert rows["error.kind"] == "FileNotFoundError"

    def test_error_goes_to_stdout_when_out_cannot_be_written(self, tmp_path, capsys):
        code, rep = run_json(capsys, "psd", "--matrix", "/nonexistent.json", "--format", "csv",
                             "--out", str(tmp_path / "missing_dir" / "report.csv"))
        assert code == 2
        assert rep["error"]["kind"] == "FileNotFoundError"

    def test_comma_in_a_csv_message_stays_one_field(self, capsys):
        code, out = run(capsys, "merge", "--omega", "1", "--m-max", "2", "--n-max", "2", "--format", "csv")
        assert code == 2
        rows = list(csv.reader(out.splitlines()))
        assert all(len(row) == 2 for row in rows)
        message = dict(rows)["error.message"]
        assert message.startswith("collision") and "nu(1,2) ~ nu(2,1)" in message


def _strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class TestNonFiniteInputs:
    """Values that overflow a double, and ragged rows, are bad input (exit 2)."""

    GEOMETRIC_2 = {"variant": "diagonal", "rho": 0.0, "rule": {"kind": "geometric", "ratio": 2}}

    def run_strict(self, capsys, *argv) -> tuple[int, dict]:
        code, out = run(capsys, *argv)
        return code, _strict_loads(out)

    def write(self, tmp_path, spec) -> str:
        f = tmp_path / "m.json"
        f.write_text(json.dumps(spec))
        return str(f)

    def test_arrowhead_tail_overflow_psd(self, capsys):
        code, rep = self.run_strict(
            capsys, "psd", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--max-order", "600"
        )
        assert code == 2
        assert rep["error"]["kind"] == "SpecError"

    def test_geometric_diagonal_overflow_psd(self, capsys, tmp_path):
        f = self.write(tmp_path, self.GEOMETRIC_2)
        code, rep = self.run_strict(capsys, "psd", "--matrix", f, "--max-order", "1100")
        assert code == 2
        assert "1024" in rep["error"]["message"]

    def test_geometric_diagonal_overflow_eval(self, capsys, tmp_path):
        f = self.write(tmp_path, self.GEOMETRIC_2)
        code, rep = self.run_strict(capsys, "eval", "--matrix", f, "--s", "2", "--order", "2000")
        assert code == 2
        assert rep["error"]["kind"] == "SpecError"

    def test_overflowing_eigenvalue_is_not_psd_by_an_infinite_cutoff(self, capsys, tmp_path):
        # lambda_max = 2.5e308 overflows, so tol (1 + max |lambda|) is inf and lambda_min = -5e307 passed
        f = self.write(tmp_path, {"variant": "dense", "entries": [[1e308, 1.5e308], [1.5e308, 1e308]]})
        code, rep = self.run_strict(capsys, "psd", "--matrix", f, "--max-order", "2")
        assert code == 2
        assert rep["error"]["kind"] == "CertificationError" and "not finite" in rep["error"]["message"]

    @pytest.mark.parametrize("command", ["invariance", "classify"])
    def test_infinite_tol_is_refused(self, capsys, tmp_path, command):
        # with tol = inf no entry counted, so the dense kernel below was called invariant
        f = self.write(tmp_path, {"variant": "dense", "entries": [[1, 0.5], [0.5, 1]]})
        code, rep = self.run_strict(capsys, command, "--matrix", f, "--order", "2", "--tol", "inf")
        assert code == 2
        assert rep["error"]["kind"] == "SpecError" and "finite" in rep["error"]["message"]

    @pytest.mark.parametrize("entries", [[[1, 0], [0]], [1, 0]])
    def test_ragged_or_flat_dense_rows(self, capsys, tmp_path, entries):
        f = self.write(tmp_path, {"variant": "dense", "entries": entries})
        code, rep = self.run_strict(capsys, "psd", "--matrix", f, "--max-order", "2")
        assert code == 2
        assert rep["error"]["kind"] == "SpecError"

    @pytest.mark.parametrize("key, spec", [
        ("values", {"variant": "diagonal", "rho": 0.5, "rule": {"kind": "explicit", "values": [1, BEYOND_DOUBLE, 2]}}),
        ("value", {"variant": "diagonal", "rho": 0.5, "rule": {"kind": "constant", "value": BEYOND_DOUBLE}}),
        ("scale", {"variant": "diagonal", "rho": 0.5, "rule": {"kind": "geometric", "scale": BEYOND_DOUBLE, "ratio": 0.5}}),
        ("scale", {"variant": "arrowhead", "rho": 0.0, "k": 1, "head": [[1]], "d_rule": {"kind": "geometric", "ratio": 4},
                   "c_rule": {"kind": "power", "scale": BEYOND_DOUBLE, "exponent": -1}}),
        ("d_rule", {"variant": "arrowhead", "rho": 0.0, "k": 1, "head": [[1]], "c_rule": {"kind": "constant", "value": 1},
                    "d_rule": {"kind": "geometric", "ratio": math.inf}}),  # JSON Infinity
    ], ids=["explicit-values", "constant-value", "geometric-scale", "arrowhead-power-scale", "arrowhead-infinite-ratio"])
    @pytest.mark.parametrize("command", [["eval", "--s", "2", "--u", "2", "--order", "3"], ["psd", "--max-order", "4"],
                                         ["symbols", "--n", "2", "--order", "4"], ["invariance", "--order", "4"]],
                             ids=lambda argv: argv[0])
    def test_rule_field_beyond_the_double_range(self, capsys, tmp_path, command, key, spec):
        """A JSON integer of 10**400, written out, or an infinite ratio in a rule field is refused as the rule is
        read: exit 2."""
        code, rep = self.run_strict(capsys, *command, "--matrix", self.write(tmp_path, spec))
        assert code == 2 and rep["error"]["kind"] == "SpecError" and f"key {key!r}" in rep["error"]["message"]

    @pytest.mark.parametrize("command, spec", [
        (["eval", "--s", "2", "--series"],
         {"kind": "ordinary", "coefficients": [1, 1], "generator": {"coefficients": {"kind": "constant", "value": BEYOND_DOUBLE}}}),
        (["homog", "--span"], {"a": 1.0, "offsets": ["0", "1"], "order": 100, "rho": 0.5,
                               "diagonal": {"kind": "power", "scale": BEYOND_DOUBLE, "exponent": -2}}),
    ], ids=["series-generator", "span-diagonal"])
    def test_series_and_span_rules_beyond_the_double_range(self, capsys, tmp_path, command, spec):
        code, rep = self.run_strict(capsys, *command, self.write(tmp_path, spec))
        assert code == 2 and rep["error"]["kind"] == "SpecError"

    def test_infinite_radius_is_strict_json(self, capsys, tmp_path):
        # ratio 1.5 has no polynomial envelope, so the certified radius is infinite
        spec = {"variant": "diagonal", "rho": 0.0, "rule": {"kind": "geometric", "ratio": 1.5}}
        f = self.write(tmp_path, spec)
        code, rep = self.run_strict(capsys, "eval", "--matrix", f, "--s", "2", "--order", "100")
        assert code == 0
        assert rep["results"]["error_radius"] == "inf"
        assert math.isfinite(rep["results"]["value"])

    def test_nan_in_report_is_internal_error(self, capsys, monkeypatch):
        import dskernel.cli as cli

        # build_parser looks the handler up when main runs
        monkeypatch.setattr(cli, "_cmd_merge", lambda args: {"results": {"x": math.nan}})
        code, rep = self.run_strict(capsys, "merge", "--omega", "2", "--m-max", "1", "--n-max", "1")
        assert code == 3
        assert rep["error"]["kind"] == "InternalCheckError"


#: a valid command line per subcommand (two for eval), to which MALFORMED appends one bad option
BASE_ARGV = {
    "eval": ["eval", "--matrix", str(SAMPLES / "diag_ones.json"), "--s", "2"],
    "eval-series": ["eval", "--series", str(SAMPLES / "zeta_series.json"), "--s", "2"],
    "psd": ["psd", "--matrix", str(SAMPLES / "example_arrowhead.json")],
    "symbols": ["symbols", "--matrix", str(SAMPLES / "diag_ones.json"), "--n", "1"],
    "membership": ["membership", "--matrix", str(SAMPLES / "diag_ones.json"), "--fhat", "1,0.5"],
    "sk": ["sk", "--matrix", str(SAMPLES / "example_arrowhead.json")],
    "invariance": ["invariance", "--matrix", str(SAMPLES / "diag_ones.json")],
    "classify": ["classify", "--matrix", str(SAMPLES / "rank_one_2.json"), "--order", "2"],
    "homog": ["homog", "--verify", "--span", str(SAMPLES / "span_zeta.json")],
    "merge": ["merge", "--omega", "sqrt2", "--m-max", "3", "--n-max", "3"],
}

#: NaN, infinity, text and counts of 0 or -1, option by option (the last occurrence of an option wins)
MALFORMED = [
    ("eval", "--s", "nan"), ("eval", "--s", "inf"), ("eval", "--s", "abc"), ("eval", "--u", "nan"),
    ("eval", "--order", "0"), ("eval", "--order", "-1"), ("eval", "--order", "abc"),
    ("eval-series", "--s", "nan+1j"), ("eval-series", "--s", "inf"), ("eval-series", "--order", "-1"),
    ("psd", "--tol", "nan"), ("psd", "--tol", "inf"), ("psd", "--tol", "abc"),
    ("psd", "--max-order", "0"), ("psd", "--max-order", "-1"),
    ("symbols", "--n", "0"), ("symbols", "--n", "-1"), ("symbols", "--order", "0"), ("symbols", "--order", "-4"),
    ("membership", "--fhat", "nan"), ("membership", "--fhat", "1,inf"), ("membership", "--fhat", "abc"),
    ("membership", "--tol", "nan"), ("membership", "--c-max", "nan"), ("membership", "--c-max", "-1"),
    ("membership", "--order", "0"), ("membership", "--order", "-1"),
    ("sk", "--tol", "inf"), ("sk", "--max-order", "0"), ("sk", "--max-order", "-1"),
    ("sk", "--growth-rho", "nan"), ("sk", "--growth-rho", "inf"), ("sk", "--growth-rho", "2", "--l-max", "0"),
    ("sk", "--l-max", "0"), ("sk", "--l-max", "-1"),
    ("invariance", "--tol", "nan"), ("invariance", "--tol", "inf"), ("invariance", "--order", "0"),
    ("invariance", "--order", "-1"), ("invariance", "--seed", "-1"), ("invariance", "--seed", "abc"),
    ("classify", "--grid", "nan"), ("classify", "--grid", "inf"), ("classify", "--grid", "abc"),
    ("classify", "--order", "0"), ("classify", "--order", "-1"), ("classify", "--tol", "inf"),
    ("homog", "--pairs", "0"), ("homog", "--pairs", "-5"), ("homog", "--delta", "nan"),
    ("homog", "--delta", "inf"), ("homog", "--delta", "0"), ("homog", "--seed", "-1"),
    ("merge", "--omega", "nan"), ("merge", "--omega", "inf"), ("merge", "--omega", "abc"),
    ("merge", "--m-max", "0"), ("merge", "--n-max", "-1"), ("merge", "--limit", "-1"),
]


@pytest.mark.parametrize("case", MALFORMED, ids=" ".join)
def test_malformed_argv_is_bad_input(capsys, case):
    """Every bad value exits 2 with an error report: a JSON one, or argparse's for a value its type cannot read."""
    name, *bad = case
    assert main(BASE_ARGV[name]) == 0
    capsys.readouterr()
    try:
        code = main([*BASE_ARGV[name], *bad])
    except SystemExit as exc:
        code, message = exc.code, capsys.readouterr().err
    else:
        message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert code == 2 and message


class TestMissingOrInvalidKeys:
    """A spec that lacks a required key, or holds a non-number where one is needed, exits 2."""

    ARROW = {"variant": "arrowhead", "k": 1, "head": [[1]],
             "c_rule": {"kind": "constant", "value": 0.5},
             "d_rule": {"kind": "power", "scale": 1, "exponent": 1}}
    SPAN = {"a": 1.0, "offsets": ["0", "1/2"], "diagonal": {"kind": "constant", "value": 1},
            "order": 100, "rho": 0.5}
    QUERY = {"matrix": {"variant": "dense", "entries": [[1, 0], [0, 1]]}, "fhat": [1, 0], "order": 2}

    @staticmethod
    def without(spec: dict, key: str) -> dict:
        return {k: v for k, v in spec.items() if k != key}

    def run_spec(self, capsys, tmp_path, command, flag, spec, *extra) -> dict:
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, out = run(capsys, command, flag, str(f), *extra)
        rep = _strict_loads(out)
        assert code == 2
        assert rep["error"]["kind"] == "SpecError"
        return rep

    @pytest.mark.parametrize("spec, key", [
        ({"variant": "arrowhead", "head": [[1]]}, "k"),
        ({k: v for k, v in ARROW.items() if k != "c_rule"}, "c_rule"),
        ({"variant": "dense"}, "entries"),
        ({"variant": "rank_one"}, "fhat"),
        (dict(ARROW, d_rule={"kind": "power", "scale": 1}), "exponent"),
        (dict(ARROW, c_rule={"kind": "geometric"}), "ratio"),
        ({"variant": "diagonal", "rule": {"kind": "constant"}, "envelope": {"C": 1}}, "alpha"),
        ({"variant": "diagonal", "rule": {"kind": "constant"}, "support": {"kind": "powers"}}, "base"),
    ])
    def test_matrix_key_missing(self, capsys, tmp_path, spec, key):
        rep = self.run_spec(capsys, tmp_path, "psd", "--matrix", spec, "--max-order", "2")
        assert repr(key) in rep["error"]["message"]

    @pytest.mark.parametrize("key", ["offsets", "a", "diagonal", "order"])
    def test_span_key_missing(self, capsys, tmp_path, key):
        rep = self.run_spec(capsys, tmp_path, "homog", "--span", self.without(self.SPAN, key))
        assert repr(key) in rep["error"]["message"]

    @pytest.mark.parametrize("key", ["matrix", "fhat", "order"])
    def test_membership_key_missing(self, capsys, tmp_path, key):
        rep = self.run_spec(capsys, tmp_path, "membership", "--query", self.without(self.QUERY, key))
        assert repr(key) in rep["error"]["message"]

    @pytest.mark.parametrize("spec, key", [
        ({"variant": "banded", "k": "x", "entries": [[1]]}, "k"),
        (dict(ARROW, k=None), "k"),
        (dict(ARROW, d_rule={"kind": "power", "scale": "one", "exponent": 1}), "scale"),
        (dict(ARROW, c_rule={"kind": "geometric", "ratio": [2]}), "ratio"),
        ({"variant": "dense", "entries": [[1]], "rho": "x"}, "rho"),
        (dict(ARROW, c_rule={"kind": "explicit", "values": [0.5, "x"]}), "values"),
    ])
    def test_non_numeric_scalar(self, capsys, tmp_path, spec, key):
        rep = self.run_spec(capsys, tmp_path, "psd", "--matrix", spec, "--max-order", "2")
        assert repr(key) in rep["error"]["message"]

    def test_non_numeric_span_order(self, capsys, tmp_path):
        rep = self.run_spec(capsys, tmp_path, "homog", "--span", dict(self.SPAN, order="many"))
        assert "'order'" in rep["error"]["message"]

    @pytest.mark.parametrize("diagonal", [{"kind": "constant", "value": "1+1j"},
                                          {"kind": "power", "scale": [2, -0.5], "exponent": -0.5},
                                          {"kind": "explicit", "values": [1, 0.5, "0.25+0.001j"]}])
    def test_non_real_span_diagonal(self, capsys, tmp_path, diagonal):
        rep = self.run_spec(capsys, tmp_path, "homog", "--span", dict(self.SPAN, diagonal=diagonal))
        assert "real" in rep["error"]["message"]


class TestInterlacingCheck:
    def test_rising_ladder_exits_3(self, capsys, monkeypatch):
        import numpy as np

        # lambda_min = N / 2 on the rung of order N: 1 at order 2, as the
        # structure of diag(1) certifies, then rising against Cauchy interlacing
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.arange(a.shape[0], 2.0 * a.shape[0]) / 2.0)
        code, out = run(capsys, "psd", "--matrix", str(SAMPLES / "diag_ones.json"), "--max-order", "16")
        rep = _strict_loads(out)
        assert code == 3
        assert rep["error"]["kind"] == "InternalCheckError"
        assert "interlacing" in rep["error"]["message"]


def fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a new interpreter that imports dskernel from this checkout."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)


class TestColdImport:
    def test_cli_imports_no_scipy(self):
        code = "import sys, dskernel.cli; print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        assert fresh_python(code).stdout.strip() == "[]"


#: dskernel modules that only some commands call
OPTIONAL_MODULES = {"rkhs", "structured", "symmetry", "homogeneous"}


class TestWhatACommandLoads:
    """A command loads the modules it calls and no other; ``import dskernel`` loads none."""

    @pytest.mark.parametrize("argv, calls", [
        (["eval", "--series", str(SAMPLES / "zeta_series.json"), "--s", "2"], set()),
        (["eval", "--matrix", str(SAMPLES / "diag_ones.json"), "--s", "2"], set()),
        (["psd", "--matrix", str(SAMPLES / "diag_ones.json")], set()),
        (["psd", "--matrix", str(SAMPLES / "example_arrowhead.json")], {"structured"}),
        (["homog", "--verify", "--pairs", "10"], {"homogeneous"}),
        (["merge", "--omega", "sqrt2", "--m-max", "3", "--n-max", "3"], set()),
    ], ids=["eval-series", "eval-matrix", "psd-diagonal", "psd-arrowhead", "homog-verify", "merge"])
    def test_a_command_loads_only_what_it_calls(self, argv, calls):
        out = fresh_python("import contextlib, io, sys; from dskernel.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
                           "print(code, *sorted(m[9:] for m in sys.modules if m.startswith('dskernel.')))", *argv)
        code, *loaded = out.stdout.split()
        assert code == "0", out.stderr
        assert {"cli", "io", "errors"} <= set(loaded)
        assert set(loaded) & OPTIONAL_MODULES == calls

    def test_the_package_root_loads_no_module(self):
        out = fresh_python("import sys, dskernel; print([m for m in sys.modules if m.startswith('dskernel.')])")
        assert out.stdout.strip() == "[]", out.stderr
