"""JSON ingestion and report serialisation.

Reports are strict JSON (RFC 8259): an infinite value, such as the error
radius of a kernel without an envelope, is written as the string "inf" or
"-inf", and a NaN is never written (it is an internal error, exit code 3).

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
                   "c_max": ..., "resolution": ...}
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
from .rules import SequenceRule, rule_from_spec
from .series import Envelope, ExponentRule, GeneralDirichletSeries, HalfPlane


def parse_complex(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, complex):
        return x
    if isinstance(x, str):
        try:
            return complex(x.replace(" ", ""))
        except ValueError as exc:
            raise SpecError(f"cannot parse complex number from {x!r}") from exc
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise SpecError(f"cannot parse complex number from {x!r}")


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
    return Envelope(float(spec["C"]), float(spec["alpha"]))


def _exponent_rule(spec: Optional[dict]) -> Optional[ExponentRule]:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "log":
        return ExponentRule("log", omega=float(spec.get("omega", 1.0)))
    if kind == "linear":
        return ExponentRule("linear", slope=float(spec.get("slope", 1.0)))
    raise SpecError(f"unknown exponent rule kind {kind!r}")


def load_series(obj_or_path) -> GeneralDirichletSeries:
    spec = _load(obj_or_path)
    kind = spec.get("kind", "ordinary")
    coeffs = tuple(parse_complex(c) for c in spec.get("coefficients", ()))
    envelope = _envelope(spec.get("envelope"))
    finite = bool(spec.get("finite", False))
    sigma_abs = spec.get("sigma_abs")
    sigma_abs = float(sigma_abs) if sigma_abs is not None else None
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
    exponents = spec.get("exponents")
    if exponents is None:
        if exp_rule is None:
            raise SpecError("general series needs exponents or an exponent rule")
        exponents = tuple(exp_rule.prefix(len(coeffs)))
    return GeneralDirichletSeries(
        tuple(float(x) for x in exponents), coeffs, exp_rule, coef_rule,
        envelope, finite, sigma_abs,
    )


def _support(spec: Optional[dict]) -> Optional[AdmissibleSupport]:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "all":
        return AdmissibleSupport("all")
    if kind == "powers":
        return AdmissibleSupport("powers", base=int(spec["base"]))
    if kind == "generated":
        return AdmissibleSupport("generated", generators=tuple(int(g) for g in spec["generators"]))
    if kind == "explicit":
        return AdmissibleSupport("explicit", elements=tuple(int(e) for e in spec["elements"]))
    raise SpecError(f"unknown support kind {kind!r}")


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
    rho = float(spec.get("rho", 0.0))
    env = _envelope(spec.get("envelope"))
    if variant == "dense":
        return DenseMatrix(_block(spec["entries"]), envelope=env), rho
    if variant == "banded":
        return BandedMatrix(int(spec["k"]), _block(spec["entries"]), envelope=env), rho
    if variant == "diagonal":
        if "rule" in spec:
            rule = rule_from_spec(spec["rule"])
        elif "values" in spec:
            rule = SequenceRule("explicit", values=tuple(parse_complex(v) for v in spec["values"]))
        else:
            raise SpecError("diagonal matrix needs a rule or values")
        return DiagonalMatrix(rule, support=_support(spec.get("support")), envelope=env), rho
    if variant == "rank_one":
        fhat = np.array([parse_complex(x) for x in spec["fhat"]], dtype=complex)
        return RankOneMatrix(fhat, envelope=env), rho
    if variant == "arrowhead":
        return (
            ArrowheadMatrix(
                int(spec["k"]), _block(spec["head"]),
                rule_from_spec(spec["c_rule"]), rule_from_spec(spec["d_rule"]),
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
    offsets = tuple(Fraction(str(o)) for o in spec["offsets"])
    support = _support(spec.get("support")) or AdmissibleSupport("all")
    return TranslateSpan(
        a=float(spec["a"]),
        offsets=offsets,
        diagonal=rule_from_spec(spec["diagonal"]),
        support=support,
        order=int(spec["order"]),
        rho=float(spec.get("rho", 0.0)),
    )


def load_membership_query(obj_or_path) -> dict:
    spec = _load(obj_or_path)
    matrix, rho = load_matrix(spec["matrix"])
    return {
        "matrix": matrix,
        "rho": rho,
        "fhat": [parse_complex(x) for x in spec["fhat"]],
        "order": int(spec["order"]),
        "c_max": float(spec.get("c_max", 1e6)),
        "resolution": float(spec.get("resolution", 1e-6)),
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
