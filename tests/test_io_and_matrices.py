"""JSON ingestion and matrix variant accessors."""

import json
import math

import numpy as np
import pytest

from dskernel import (
    BandedMatrix,
    DiagonalMatrix,
    RankOneMatrix,
    SequenceRule,
    SpecError,
    bandwidth_detect,
    evaluate,
)
from dskernel.io import (
    load_kernel,
    load_matrix,
    load_series,
    load_span,
    parse_complex,
)


class TestParseComplex:
    @pytest.mark.parametrize(
        "raw,expected",
        [(2, 2 + 0j), (1.5, 1.5 + 0j), ([1, -2], 1 - 2j), ("1+2j", 1 + 2j), ("3j", 3j)],
    )
    def test_accepted_forms(self, raw, expected):
        assert parse_complex(raw) == expected

    def test_rejects_garbage(self):
        with pytest.raises(SpecError):
            parse_complex("one plus two i")


class TestSeriesLoading:
    def test_ordinary_with_rule_extends(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "kind": "ordinary",
            "coefficients": [1, 1],
            "generator": {"coefficients": {"kind": "constant", "value": 1}},
            "envelope": {"C": 1, "alpha": 0},
        }))
        s = load_series(f)
        v = evaluate(s, 2.0, 500)  # beyond the stored prefix
        assert abs(v.value.real - math.pi**2 / 6.0) <= v.error_radius

    def test_general_with_exponent_rule(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "kind": "general",
            "coefficients": [1, 1, 1],
            "generator": {
                "exponents": {"kind": "linear", "slope": 1.0},
                "coefficients": {"kind": "constant", "value": 1},
            },
            "envelope": {"C": 1, "alpha": 0},
        }))
        s = load_series(f)
        v = evaluate(s, 1.0, 3)
        direct = sum(math.exp(-n) for n in (1, 2, 3))
        assert abs(v.value.real - direct) < 1e-14

    def test_inconsistent_rule_rejected(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "kind": "ordinary",
            "coefficients": [1, 2],
            "generator": {"coefficients": {"kind": "constant", "value": 1}},
        }))
        with pytest.raises(SpecError):
            load_series(f)


class TestMatrixLoading:
    def test_banded_round_trip(self, tmp_path):
        N = 5
        entries = [[0.0] * N for _ in range(N)]
        for i in range(N):
            entries[i][i] = 2.0
            if i + 1 < N:
                entries[i][i + 1] = entries[i + 1][i] = 0.5
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"variant": "banded", "k": 1, "entries": entries, "rho": 0.0}))
        m, rho = load_matrix(f)
        assert isinstance(m, BandedMatrix)
        assert bandwidth_detect(m, N) == 1
        assert m.entry(1, 3) == 0
        assert m.entry(2, 3) == 0.5

    def test_diagonal_with_support(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "variant": "diagonal",
            "rule": {"kind": "constant", "value": 1},
            "support": {"kind": "powers", "base": 2},
            "rho": 0.5,
        }))
        m, _ = load_matrix(f)
        d = np.real(m.diagonal_prefix(8))
        assert list(np.nonzero(d)[0] + 1) == [1, 2, 4, 8]

    def test_span_offsets_parsed_as_fractions(self, tmp_path):
        from fractions import Fraction

        f = tmp_path / "sp.json"
        f.write_text(json.dumps({
            "a": 1.0, "offsets": ["1/3", "-2"], "order": 64,
            "diagonal": {"kind": "constant", "value": 1}, "rho": 0.5,
        }))
        span = load_span(f)
        assert span.offsets == (Fraction(1, 3), Fraction(-2))

    def test_kernel_json_round_trip(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "variant": "dense",
            "entries": [[1, [0, 0.5]], [[0, -0.5], 1]],
            "rho": 0.0,
        }))
        kern = load_kernel(f)
        assert kern.matrix.entry(1, 2) == 0.5j
        assert kern.rho == 0.0


class TestVariantAccessors:
    def test_banded_outside_band_is_zero(self):
        with pytest.raises(SpecError):
            BandedMatrix(0, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_rank_one_accessor(self):
        f = np.array([1.0, 2.0j])
        m = RankOneMatrix(f)
        assert m.entry(1, 2) == 1.0 * np.conj(2.0j)
        assert m.entry(2, 2) == 4.0
        assert m.entry(3, 1) == 0.0

    def test_diagonal_off_entries_zero(self):
        m = DiagonalMatrix(SequenceRule("constant", scale=3.0))
        assert m.entry(2, 3) == 0.0
        assert m.entry(4, 4) == 3.0
