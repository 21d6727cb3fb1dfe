"""CLI dispatch, report schema, exit-code policy, determinism."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dskernel import DenseMatrix, psd_check, structured
from dskernel.cli import main
from dskernel.kernel import eigensolve_rounding

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


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
        monkeypatch.setattr(structured, "psd_margin", lambda m, tol: calls.append(tol) or margin(m, tol))
        code, rep = run_json(capsys, "sk", "--matrix", str(SAMPLES / "example_arrowhead.json"))
        assert code == 0 and calls == [1e-9]
        res = rep["results"]
        priced = res["lambda_min_head"] - eigensolve_rounding(2, 1.0) - 2 * (res["coupling_sum"] + res["coupling_sum_radius"])
        assert abs(res["margin"] - priced) <= 1e-15 and res["margin"] < -0.5

    def test_example_takes_one_margin_certificate(self, capsys, monkeypatch):
        calls, margin = [], structured.psd_margin
        monkeypatch.setattr(structured, "psd_margin", lambda m, tol: calls.append(tol) or margin(m, tol))
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
        assert res["admissibility"]["admissible_up_to"] is True
        assert res["adjoint_condition"]["verdict"] == "finite"


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


class TestErrorPolicy:
    def test_malformed_json_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{nope")
        code, rep = run_json(capsys, "psd", "--matrix", str(f))
        assert code == 2
        assert rep["error"]["kind"] == "SpecError"

    def test_unknown_variant_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"variant": "mystery"}))
        code, rep = run_json(capsys, "psd", "--matrix", str(f))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, rep = run_json(capsys, "psd", "--matrix", "/nonexistent.json")
        assert code == 2

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

    @pytest.mark.parametrize("entries", [[[1, 0], [0]], [1, 0]])
    def test_ragged_or_flat_dense_rows(self, capsys, tmp_path, entries):
        f = self.write(tmp_path, {"variant": "dense", "entries": entries})
        code, rep = self.run_strict(capsys, "psd", "--matrix", f, "--max-order", "2")
        assert code == 2
        assert rep["error"]["kind"] == "SpecError"

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


class TestInterlacingCheck:
    def test_rising_ladder_exits_3(self, capsys, monkeypatch):
        import numpy as np

        # lambda_min = N on the rung of order N: against Cauchy interlacing
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.arange(a.shape[0], 2.0 * a.shape[0]))
        code, out = run(capsys, "psd", "--matrix", str(SAMPLES / "diag_ones.json"), "--max-order", "16")
        rep = _strict_loads(out)
        assert code == 3
        assert rep["error"]["kind"] == "InternalCheckError"
        assert "interlacing" in rep["error"]["message"]


class TestColdImport:
    def test_cli_imports_no_scipy(self):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, dskernel.cli; print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
