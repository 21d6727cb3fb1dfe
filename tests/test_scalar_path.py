"""The scalar sums: ``kernel_eval``, ``evaluate`` and ``partial_zeta`` to infinity, bit for bit and in calls.

``golden/radii/kernel_values.json`` holds, as ``float.hex``, the value and
radius that the code at commit 72aa249 gave on 500 seeded cases, and each
case's inputs.  The scalar path may be made faster; a value or a radius that
moves by one bit fails here.  Run this file as a script to rewrite the
golden from the ``dskernel`` on ``sys.path``.

The cost of one ``kernel_eval`` on a constant diagonal is guarded by a count
of the calls it makes, which, unlike a timing, is deterministic.
"""

import json
import math
import pathlib
import sys

import numpy as np

from dskernel import (
    ArrowheadMatrix,
    DiagonalMatrix,
    DirichletKernel,
    Envelope,
    GeneralDirichletSeries,
    HalfPlane,
    SequenceRule,
    evaluate,
    kernel_eval,
)
from dskernel import series
from dskernel.series import FLOAT_TERMS, log_table, partial_zeta

GOLDEN = pathlib.Path(__file__).parent / "golden" / "radii" / "kernel_values.json"
ORDERS = (10, 2000, 20000, 10**6)


def _hex(x) -> list:
    x = complex(x)
    return [x.real.hex(), x.imag.hex()]


def _num(h: list) -> complex:
    return complex(float.fromhex(h[0]), float.fromhex(h[1]))


def _rule(spec: dict) -> SequenceRule:
    return SequenceRule(spec["kind"], scale=_num(spec["scale"]), ratio=float.fromhex(spec["ratio"]),
                        exponent=float.fromhex(spec["exponent"]))


def _rule_spec(kind: str, scale: complex, ratio: float = 1.0, exponent: float = 0.0) -> dict:
    return {"kind": kind, "scale": _hex(scale), "ratio": ratio.hex(), "exponent": exponent.hex()}


def cases() -> list:
    """The seeded inputs: recovery grid, diagonals, arrowheads, the zeta series and zeta(beta)."""
    rng = np.random.default_rng(34)
    out = []
    grid = 2.1 + 0.25 * np.arange(50)  # ``kernel.recover_block``'s grid at sigma_min = 2
    for p in grid[::5]:
        for q in grid[::5]:
            out.append({"kind": "diagonal", "rule": _rule_spec("constant", 1.3), "s": _hex(p), "u": _hex(q),
                        "N": 20000})

    def point(floor: float, complex_point: bool, edge: float = 0.6) -> tuple:
        while True:
            s, u = (complex(rng.uniform(edge, 3.0), rng.uniform(-3e3, 3e3) if complex_point else 0.0)
                    for _ in range(2))
            if s.real + u.real > floor + 0.05:
                return s, u

    for n in range(180):
        kind = ("constant", "power", "geometric")[n % 3]
        scale = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0) if n % 4 == 0 else 0.0)
        exponent = float(rng.uniform(-1.0, 1.0)) if kind == "power" else 0.0
        s, u = point(exponent + 1.0, n % 2 == 1)
        out.append({"kind": "diagonal", "rule": _rule_spec(kind, scale, exponent=exponent), "s": _hex(s),
                    "u": _hex(u), "N": ORDERS[n % 4]})
    for n in range(60):
        k = 1 + n % 3
        head = rng.uniform(-1.0, 1.0, (k, k)) + 3.0 * np.eye(k)
        s, u = point(1.0, n % 2 == 1, 1.05)  # the arrowhead's envelope needs Re s, Re u > 1
        out.append({"kind": "arrowhead", "head": [[x.hex() for x in row] for row in head.tolist()],
                    "c": _hex(rng.uniform(0.1, 1.0)), "d": _hex(rng.uniform(1.0, 3.0)), "s": _hex(s), "u": _hex(u),
                    "N": ORDERS[n % 4]})
    for n in range(100):
        s = complex(rng.uniform(1.05, 4.0), rng.uniform(-3e3, 3e3) if n % 2 else 0.0)
        out.append({"kind": "evaluate", "c": _hex(rng.uniform(0.5, 2.0)), "s": _hex(s), "N": ORDERS[n % 4]})
    for n in range(60):
        beta = 1.0 + 10.0 ** rng.uniform(-3.0, 3.0)
        dbeta = (0.0, 1e-16 * beta, 1e-10)[n % 3]
        out.append({"kind": "zeta", "beta": beta.hex(), "dbeta": dbeta.hex()})
    return out


def compute(case: dict) -> tuple:
    """(value, radius) of one case."""
    if case["kind"] == "zeta":
        return partial_zeta(float.fromhex(case["beta"]), float.fromhex(case["dbeta"]), 1, math.inf)
    if case["kind"] == "evaluate":
        c = _num(case["c"])
        series = GeneralDirichletSeries.ordinary([c] * 4, envelope=Envelope(abs(c), 0.0),
                                                 coefficient_rule=SequenceRule("constant", scale=c))
        ball = evaluate(series, _num(case["s"]), case["N"])
    else:
        if case["kind"] == "diagonal":
            matrix = DiagonalMatrix(_rule(case["rule"]))
        else:
            head = np.array([[float.fromhex(x) for x in row] for row in case["head"]])
            matrix = ArrowheadMatrix(len(head), head, SequenceRule("constant", scale=_num(case["c"])),
                                     SequenceRule("constant", scale=_num(case["d"])))
        ball = kernel_eval(DirichletKernel(matrix, HalfPlane(0.5)), _num(case["s"]), _num(case["u"]), case["N"])
    return ball.value, ball.error_radius


def test_the_ledger_holds_the_seeded_cases():
    rows = json.loads(GOLDEN.read_text())["cases"]
    assert [{k: v for k, v in row.items() if k not in ("value", "radius")} for row in rows] == cases()
    assert len(rows) == 500
    assert {row["kind"] for row in rows} == {"diagonal", "arrowhead", "evaluate", "zeta"}
    assert {row["rule"]["kind"] for row in rows if row["kind"] == "diagonal"} == {"constant", "power", "geometric"}


def test_values_and_radii_are_the_ledger_bit_for_bit():
    moved = []
    for row in json.loads(GOLDEN.read_text())["cases"]:
        value, radius = compute(row)
        if _hex(value) != row["value"] or radius.hex() != row["radius"]:
            moved.append((row, _hex(value), radius.hex()))
    assert moved == []


def test_the_head_logs_are_the_log_table():
    """``partial_zeta`` forms a short real head from ``_LOGS``: the same doubles as the table's, or the heads move."""
    assert series._LOGS == log_table(FLOAT_TERMS).tolist()


def profiled_calls(fn, *args) -> int:
    """The ``call`` and ``c_call`` events of fn(*args), by ``sys.setprofile``, after one call to warm it."""
    fn(*args)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


#: calls one ``kernel_eval`` on the constant diagonal makes, ``sys.setprofile`` itself included (105 at 72aa249)
CALL_BUDGET = 85


def test_a_constant_diagonal_value_stays_within_its_call_budget():
    kernel = DirichletKernel(DiagonalMatrix(SequenceRule("constant", scale=1.3)), HalfPlane(0.5))
    assert profiled_calls(kernel_eval, kernel, 4.35, 4.6, 20000) <= CALL_BUDGET


def test_an_explicit_rule_pays_its_length_once():
    """The bound of a 10**5-value rule is formed when the rule is made: a value of its kernel scans none of them
    (at 72aa249 ``poly_bound`` scanned all 10**5 values twice per call, in 48.8 ms)."""
    values = tuple(1.0 / n for n in range(1, 10**5 + 1))
    rule = SequenceRule("explicit", values=values)
    assert rule.poly_bound() == (1.0, 0.0)
    kernel = DirichletKernel(DiagonalMatrix(rule), HalfPlane(0.5))
    assert profiled_calls(kernel_eval, kernel, 2.0, 2.0, 10) < 200


if __name__ == "__main__":
    rows = []
    for case in cases():
        value, radius = compute(case)
        rows.append({**case, "value": _hex(value), "radius": radius.hex()})
    GOLDEN.write_text('{"cases": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]}\n")
    print(f"wrote {len(rows)} cases to {GOLDEN}", file=sys.stderr)
