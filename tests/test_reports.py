"""Report encoding: one strict encoder for JSON and CSV, and a golden report per README command.

The golden files under ``tests/golden/`` hold the JSON report of each
command in the CLI block of README.md.  After a deliberate change to a
report, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_reports.py
"""

import csv
import json
import math
import os
import pathlib
import re
import shlex
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

import dskernel.cli as cli
import dskernel.structured as structured
from dskernel import InternalCheckError, ValueWithBound
from dskernel.io import dump_csv, dump_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def readme_commands() -> list[str]:
    """The ``dskernel ...`` lines of the README's CLI code block, without the program name."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line[len("dskernel "):] for line in block.splitlines() if line.startswith("dskernel ")]


def golden_name(command: str) -> str:
    """File name of a command's golden report: its words, without sample paths and dashes."""
    words = re.sub(r"sample_inputs/|\.json|-", " ", command).split()
    return "_".join(words) + ".json"


def run_from_root(capsys, monkeypatch, argv) -> tuple[int, str]:
    monkeypatch.chdir(ROOT)
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def assert_matches(got, want, path="report"):
    """Same keys at every level; equal strings, bools and nulls; numbers within 1e-12 (1 + |want|)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), f"{path}: {got!r} != {want!r}"
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


class TestGoldenReports:
    def test_every_readme_command_has_one_golden_file(self):
        names = [golden_name(c) for c in readme_commands()]
        assert len(names) == 11 and len(set(names)) == len(names)
        assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(names)

    @pytest.mark.parametrize("command", readme_commands())
    def test_report_matches_golden(self, capsys, monkeypatch, command):
        code, out = run_from_root(capsys, monkeypatch, shlex.split(command))
        assert code == 0
        assert_matches(json.loads(out), json.loads((GOLDEN / golden_name(command)).read_text()))

    def test_comparison_rejects_a_new_key_and_a_moved_number(self):
        with pytest.raises(AssertionError):
            assert_matches({"a": 1.0, "b": None}, {"a": 1.0})
        with pytest.raises(AssertionError):
            assert_matches({"a": 1.0 + 1e-11}, {"a": 1.0})
        with pytest.raises(AssertionError):
            assert_matches({"a": True}, {"a": 1})
        assert_matches({"a": [1.0 + 1e-13, "inf", None]}, {"a": [1.0, "inf", None]})


@dataclass(frozen=True)
class Inner:
    z: complex
    q: Fraction


@dataclass(frozen=True)
class Outer:
    inner: Inner
    values: np.ndarray
    pair: tuple
    radius: float
    missing: Optional[int] = None


class TestEncoder:
    def test_dataclass_becomes_an_object_of_its_fields_recursively(self):
        obj = Outer(Inner(1 + 2j, Fraction(3, 2)), np.array([1.0 + 0j, 2j]), (np.float64(0.5), 3),
                    -math.inf)
        assert json.loads(dump_report({"results": obj})) == {"results": {
            "inner": {"z": [1.0, 2.0], "q": "3/2"},
            "values": [1.0, [0.0, 2.0]],
            "pair": [0.5, 3],
            "radius": "-inf",
            "missing": None,
        }}

    def test_value_with_bound_encodes_like_the_hand_built_dict(self):
        vb = ValueWithBound(complex(1.5, 0.0), math.inf)
        assert json.loads(dump_report(vb)) == {"value": 1.5, "error_radius": "inf"}

    @pytest.mark.parametrize("dump", [dump_report, dump_csv])
    def test_nan_inside_a_dataclass_is_internal_error(self, dump):
        with pytest.raises(InternalCheckError):
            dump({"results": ValueWithBound(complex(math.nan, 0.0), 0.0)})

    def test_csv_flattens_the_strict_encoding(self):
        text = dump_csv({"results": Inner(1 - 1j, Fraction(1, 3)), "r": math.inf})
        assert text == "key,value\nr,inf\nresults.q,1/3\nresults.z[0],1.0\nresults.z[1],-1.0\n"


class TestCsvOutput:
    def test_nan_in_csv_report_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_merge", lambda args: {"results": {"x": math.nan}})
        code, out = run_from_root(capsys, monkeypatch, ["merge", "--omega", "2", "--m-max", "1",
                                                        "--n-max", "1", "--format", "csv"])
        assert code == 3
        assert dict(csv.reader(out.splitlines()))["error.kind"] == "InternalCheckError"

    def test_dataclass_results_reach_csv(self, capsys, monkeypatch):
        code, out = run_from_root(capsys, monkeypatch, ["classify", "--matrix", "sample_inputs/rank_one_2.json",
                                                        "--order", "2", "--format", "csv"])
        assert code == 0
        assert "results.factor[1],1.0\n" in out and "results.verdict,quasi_invariant\n" in out


class TestSkExampleOrder:
    def test_max_order_reaches_the_ladder(self, capsys, monkeypatch):
        code, out = run_from_root(capsys, monkeypatch, ["sk", "--example", "--max-order", "32"])
        assert code == 0
        rep = json.loads(out)
        assert rep["inputs"]["max_order"] == 32
        assert rep["results"]["ladder_orders"] == [2, 4, 8, 16, 32]
        assert len(rep["results"]["schur_shift_S_j"]) == 20

    def test_overflowing_order_fails_as_psd_does(self, capsys, monkeypatch):
        code, out = run_from_root(capsys, monkeypatch, ["sk", "--example", "--max-order", "600"])
        code_psd, out_psd = run_from_root(capsys, monkeypatch, [
            "psd", "--matrix", "sample_inputs/example_arrowhead.json", "--max-order", "600"])
        assert code == code_psd == 2
        assert json.loads(out)["error"]["kind"] == "SpecError"
        assert out == out_psd

    def test_tol_reaches_the_certificate_and_the_inputs(self, capsys, monkeypatch):
        seen, certify = [], structured.certify_arrowhead
        monkeypatch.setattr(structured, "certify_arrowhead",
                            lambda m, max_order, tol: seen.append(tol) or certify(m, max_order, tol))
        code, out = run_from_root(capsys, monkeypatch, ["sk", "--example", "--tol", "1e-6"])
        assert code == 0 and seen == [1e-6]
        assert json.loads(out)["inputs"]["tol"] == 1e-6

    def test_default_report_is_unchanged(self, capsys, monkeypatch):
        code, out = run_from_root(capsys, monkeypatch, ["sk", "--example"])
        assert code == 0
        assert out == (GOLDEN / golden_name("sk --example")).read_text()


class TestAddedKeysOnly:
    """Reports hand over the result dataclass: fields the hand-built dicts left out now appear."""

    def test_psd_carries_every_certificate_field(self, capsys, monkeypatch):
        code, out = run_from_root(capsys, monkeypatch, ["psd", "--matrix", "sample_inputs/diag_ones.json",
                                                        "--max-order", "4"])
        res = json.loads(out)["results"]
        assert code == 0
        assert res["self_adjoint"] is True and res["verdict"] == "psd"
        assert res["witness_order"] is None and res["witness_vector"] is None and res["margin"] is None

    def test_sk_matrix_merges_margin_and_ladder(self, capsys, monkeypatch):
        code, out = run_from_root(capsys, monkeypatch, ["sk", "--matrix", "sample_inputs/example_arrowhead.json"])
        res = json.loads(out)["results"]
        assert code == 0
        assert {"k", "lambda_min_head", "coupling_sum", "coupling_sum_exact", "coupling_sum_radius",
                "margin", "verdict", "method", "orders", "min_eigenvalues", "tolerance",
                "witness_order", "witness_vector"} == set(res)
        assert res["k"] == 2 and abs(res["margin"] + 0.5) < 1e-12

    def test_translation_witness_is_encoded(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"variant": "dense", "entries": [[1, 0.5], [0.5, 1]], "rho": 0.0}))
        code, out = run_from_root(capsys, monkeypatch, ["invariance", "--matrix", str(f), "--order", "2"])
        t = json.loads(out)["results"]["translation"]
        assert code == 0 and t["invariant"] is False
        assert set(t["witness"]) == {"b", "s", "u", "violation"}


def regenerate() -> None:
    """Write the golden report of every README command."""
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for command in readme_commands():
        target = GOLDEN / golden_name(command)
        assert cli.main([*shlex.split(command), "--out", str(target)]) == 0, command
        print(target.relative_to(ROOT))


if __name__ == "__main__":
    regenerate()
