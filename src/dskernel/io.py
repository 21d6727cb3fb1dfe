"""JSON ingestion and report serialisation.

Reports are strict JSON (RFC 8259): an infinite value, such as the error
radius of a kernel without an envelope, is written as the string "inf" or
"-inf", and a NaN is never written (it is an internal error, exit code 3).
A missing required key, or a value of the wrong kind, is a SpecError that
names the key (exit code 2).

Schemas (all numbers; complex values may be written as a number, a
[re, im] pair, or a Python-style string "1+2j"):

series   {"kind": "ordinary"|"general", "coefficients": [...],
          "exponents": [...]            (general only),
          "generator": {"exponents": {...}, "coefficients": {...}},
          "envelope": {"C": ..., "alpha": ...},
          "finite": bool, "sigma_abs": ...}

matrix   {"variant": "dense"|"diagonal"|"banded"|"rank_one"|"arrowhead",
          "rho": ...,
          "envelope": {"C": ..., "alpha": ...}    (optional; else derived),
          dense:     "entries": [[...]]
          diagonal:  "rule": {...} | "values": [...], "support": {...}?
          banded:    "k": ..., "entries": [[...]]
          rank_one:  "fhat": [...]
          arrowhead: "k": ..., "head": [[...]], "c_rule": {...}, "d_rule": {...}}

rule     {"kind": "constant", "value": c} | {"kind": "geometric", "scale": c0,
          "ratio": r} | {"kind": "power", "scale": c0, "exponent": p} |
          {"kind": "explicit", "values": [...]}

support  {"kind": "all"} | {"kind": "powers", "base": b} |
          {"kind": "generated", "generators": [...]} |
          {"kind": "explicit", "elements": [...]}

span     {"a": ..., "offsets": ["p/q", ...], "diagonal": rule,
          "support": support?, "order": M, "rho": ...}

membership query  {"matrix": matrix, "fhat": [...], "order": N,
                   "c_max": ...}
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import InternalCheckError, SpecError
from .homogeneous import AdmissibleSupport, TranslateSpan
from .kernel import DirichletKernel
from .matrices import (
    ArrowheadMatrix,
    BandedMatrix,
    CoefficientMatrix,
    DenseMatrix,
    DiagonalMatrix,
    RankOneMatrix,
)
from .rules import SequenceRule, parse_complex, rule_from_spec, spec_value
from .series import Envelope, ExponentRule, GeneralDirichletSeries, HalfPlane


def encode_complex(z: complex) -> Union[float, list]:
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _load(obj_or_path) -> dict:
    if isinstance(obj_or_path, dict):
        return obj_or_path
    text = Path(obj_or_path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON in {obj_or_path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("top-level JSON value must be an object")
    return data


def _envelope(spec: Optional[dict]) -> Optional[Envelope]:
    if spec is None:
        return None
    return Envelope(spec_value(spec, "C", float), spec_value(spec, "alpha", float))


def _exponent_rule(spec: Optional[dict]) -> Optional[ExponentRule]:
    if spec is None:
        return None
    kind = spec_value(spec, "kind", default=None)
    if kind == "log":
        return ExponentRule("log", omega=spec_value(spec, "omega", float, 1.0))
    if kind == "linear":
        return ExponentRule("linear", slope=spec_value(spec, "slope", float, 1.0))
    raise SpecError(f"unknown exponent rule kind {kind!r}")


def load_series(obj_or_path) -> GeneralDirichletSeries:
    spec = _load(obj_or_path)
    kind = spec.get("kind", "ordinary")
    coeffs = tuple(spec_value(spec, "coefficients", _complexes, []))
    envelope = _envelope(spec.get("envelope"))
    finite = bool(spec.get("finite", False))
    sigma_abs = spec_value(spec, "sigma_abs", float) if spec.get("sigma_abs") is not None else None
    gen = spec.get("generator", {}) or {}
    coef_rule = rule_from_spec(gen["coefficients"]) if "coefficients" in gen else None
    if kind == "ordinary":
        return GeneralDirichletSeries.ordinary(
            coeffs, envelope=envelope, finite=finite,
            coefficient_rule=coef_rule, sigma_abs=sigma_abs,
        )
    if kind != "general":
        raise SpecError(f"unknown series kind {kind!r}")
    exp_rule = _exponent_rule(gen.get("exponents"))
    if spec.get("exponents") is not None:
        exponents = spec_value(spec, "exponents", _floats)
    elif exp_rule is None:
        raise SpecError("general series needs exponents or an exponent rule")
    else:
        exponents = _floats(exp_rule.prefix(len(coeffs)))
    return GeneralDirichletSeries(
        exponents, coeffs, exp_rule, coef_rule,
        envelope, finite, sigma_abs,
    )


def _support(spec: Optional[dict]) -> Optional[AdmissibleSupport]:
    if spec is None:
        return None
    kind = spec_value(spec, "kind", default=None)
    if kind == "all":
        return AdmissibleSupport("all")
    if kind == "powers":
        return AdmissibleSupport("powers", base=spec_value(spec, "base", int))
    if kind == "generated":
        return AdmissibleSupport("generated", generators=spec_value(spec, "generators", _ints))
    if kind == "explicit":
        return AdmissibleSupport("explicit", elements=spec_value(spec, "elements", _ints))
    raise SpecError(f"unknown support kind {kind!r}")


def _ints(values) -> tuple:
    return tuple(int(v) for v in values)


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _complexes(values) -> list:
    if not isinstance(values, (list, tuple)):
        raise SpecError(f"expected a list of complex numbers, got {values!r}")
    return [parse_complex(x) for x in values]


def _block(rows) -> np.ndarray:
    """A 2-D complex array from a list of rows, which must all have one length."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SpecError("matrix entries must be a list of rows")
    parsed = [[parse_complex(x) for x in row] for row in rows]
    if len({len(row) for row in parsed}) > 1:
        raise SpecError("matrix rows must all have the same length")
    return np.array(parsed, dtype=complex)


def load_matrix(obj_or_path) -> tuple[CoefficientMatrix, float]:
    """Build a coefficient matrix plus its declared half-plane edge rho."""
    spec = _load(obj_or_path)
    variant = spec.get("variant")
    rho = spec_value(spec, "rho", float, 0.0)
    env = _envelope(spec.get("envelope"))
    if variant == "dense":
        return DenseMatrix(spec_value(spec, "entries", _block), envelope=env), rho
    if variant == "banded":
        k = spec_value(spec, "k", int)
        return BandedMatrix(k, spec_value(spec, "entries", _block), envelope=env), rho
    if variant == "diagonal":
        if "rule" in spec:
            rule = spec_value(spec, "rule", rule_from_spec)
        elif "values" in spec:
            rule = SequenceRule("explicit", values=tuple(spec_value(spec, "values", _complexes)))
        else:
            raise SpecError("diagonal matrix needs a rule or values")
        return DiagonalMatrix(rule, support=_support(spec.get("support")), envelope=env), rho
    if variant == "rank_one":
        fhat = np.array(spec_value(spec, "fhat", _complexes), dtype=complex)
        return RankOneMatrix(fhat, envelope=env), rho
    if variant == "arrowhead":
        return (
            ArrowheadMatrix(
                spec_value(spec, "k", int), spec_value(spec, "head", _block),
                spec_value(spec, "c_rule", rule_from_spec), spec_value(spec, "d_rule", rule_from_spec),
                envelope=env,
            ),
            rho,
        )
    raise SpecError(f"unknown matrix variant {variant!r}")


def load_kernel(obj_or_path) -> DirichletKernel:
    matrix, rho = load_matrix(obj_or_path)
    return DirichletKernel(matrix, HalfPlane(rho))


def load_span(obj_or_path) -> TranslateSpan:
    spec = _load(obj_or_path)
    offsets = spec_value(spec, "offsets", lambda v: tuple(Fraction(str(o)) for o in v))
    support = _support(spec.get("support")) or AdmissibleSupport("all")
    return TranslateSpan(
        a=spec_value(spec, "a", float),
        offsets=offsets,
        diagonal=spec_value(spec, "diagonal", rule_from_spec),
        support=support,
        order=spec_value(spec, "order", int),
        rho=spec_value(spec, "rho", float, 0.0),
    )


def load_membership_query(obj_or_path) -> dict:
    spec = _load(obj_or_path)
    matrix, rho = load_matrix(spec_value(spec, "matrix"))
    return {
        "matrix": matrix,
        "rho": rho,
        "fhat": spec_value(spec, "fhat", _complexes),
        "order": spec_value(spec, "order", int),
        "c_max": spec_value(spec, "c_max", float, 1e6),
    }


def dump_report(report: dict) -> str:
    """Deterministic strict JSON: sorted keys, stable float repr, "inf"/"-inf" strings.

    A NaN anywhere in the report is an internal error (InternalCheckError).
    """
    return json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _strict(obj):
    """The report as plain JSON types, with infinities spelled as strings."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return _strict(obj.tolist())
    if isinstance(obj, np.generic):
        return _strict(obj.item())
    if isinstance(obj, complex):
        return _strict(encode_complex(obj))
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            raise InternalCheckError("internal: a NaN reached the report")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj
