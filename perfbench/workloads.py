"""Seeded inputs and checked answers for the three dskernel workloads.

Each workload is built in two steps.  ``spec_<name>(seed)`` draws every
input from the seed as plain data (numbers, arrays, JSON documents); the
same seed gives byte-identical specs.  ``build(name, spec, ...)`` turns a
spec into a list of answers: a call into the program plus a check of its
output against a reference built into the inputs or computed with mpmath.

Sizes and orders are fixed; the seed changes only values, so run-to-run
spread comes from the machine, not from the mix.

Probes are answers that exercise the seed's known defects (ROADMAP item 2:
overflowing geometric rules, NaN in reports, ragged JSON, and unsound
rounding radii at large |Im s|).  They run once per run, outside the timed
loop, and are checked and reported on their own.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from checks import (
    cli_check, decode_complex, disc_check, ladder, membership_bounds, mpc, once,
    psd_verdict_check, zeta_truth,
)

import mpmath

WORKLOADS = ("cli_cold", "certify_large", "eval_sweep")


@dataclass
class Answer:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    #: a round of the timed loop runs every answer whose group is None and
    #: one group of the others, the groups in turn
    group: Optional[int] = None


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


# -- seeded helpers -------------------------------------------------------------


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _cplx(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_psd(rng, n: int, rank: int, delta: float, hole: Optional[int] = None,
              gamma: float = 0.0) -> np.ndarray:
    """C C* + delta I, PSD by construction.

    With ``hole`` = j, row j of C is zero and the diagonal entry j is set to
    -gamma, so e_j is an eigenvector with eigenvalue -gamma: every leading
    section of order <= j is positive definite and every larger one is not.
    """
    C = _cplx(rng, n, rank) / math.sqrt(2 * rank)
    if hole is not None:
        C[hole] = 0.0
    A = C @ C.conj().T + delta * np.eye(n)
    if hole is not None:
        A[hole, hole] = -gamma
    return 0.5 * (A + A.conj().T)


def banded_psd(rng, n: int, w: int, delta: float, hole: Optional[int] = None,
               gamma: float = 0.0) -> np.ndarray:
    """B B* + delta I with B lower-banded, so bandwidth w; ``hole`` as in dense_psd."""
    B = sum(np.diag(_cplx(rng, n - d) / 2.0, -d) for d in range(w + 1))
    if hole is not None:
        B[hole] = 0.0
    A = B @ B.conj().T + delta * np.eye(n)
    if hole is not None:
        A[hole, hole] = -gamma
    return 0.5 * (A + A.conj().T)


def first_rung_at_least(max_order: int, index: int) -> int:
    return next(r for r in ladder(max_order) if r >= index)


def arrow_head(rng, k: int, lam: np.ndarray) -> np.ndarray:
    """Hermitian k x k head with eigenvalue lam[0] on the all-ones direction."""
    X = _cplx(rng, k, k)
    X[:, 0] = 1.0
    Q, _ = np.linalg.qr(X)
    H = (Q * lam) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


def coupling_partial(c0: float, p: float, d0: float, q: float, j: int) -> float:
    """S_j = sum_{l <= j} |c0 l**-p|**2 / (d0 l**q)."""
    ls = np.arange(1, j + 1, dtype=float)
    return float(np.sum(c0 * c0 * ls ** (-2 * p) / (d0 * ls**q)))


def arrow_spec(rng, k: int, max_order: int, psd: bool) -> dict:
    """Arrowhead with power-law coupling c0 l**-p and tail d0 l**q.

    The Schur complement of a section of order N is head - S_{N-k} ones(k),
    whose smallest eigenvalue is lam0 - k S_{N-k} by construction of the
    head.  PSD: lam0 clears k * S_inf (positive margin).  Not PSD: lam0 sits
    halfway between k S at two consecutive ladder rungs, so the first
    failing rung is known.
    """
    # Fixed rules: the cost of the eigen-solve depends on the spectrum they
    # give the tail, so only the head and the failing rung vary with the seed.
    # 2p + q = 1.55: the partial sums still move at order 1536, so the first
    # failing rung clears the ladder's cutoff by a wide factor.
    c0, p, d0, q = 0.45, 0.55, 1.0, 0.45
    s_inf = c0 * c0 / d0 * float(mpmath.zeta(2 * p + q))
    if psd:
        lam0, witness = k * s_inf * float(rng.uniform(1.2, 1.8)), None
    else:
        rungs = [r for r in ladder(max_order) if r > 2 * k]
        i = int(rng.integers(len(rungs) - 4, len(rungs) - 1))
        lo, hi = (coupling_partial(c0, p, d0, q, r - k) for r in rungs[i:i + 2])
        lam0, witness = k * 0.5 * (lo + hi), rungs[i + 1]
    lam = np.concatenate([[lam0], lam0 + rng.uniform(0.5, 2.0, k - 1)])
    return {"k": k, "head": arrow_head(rng, k, lam), "c0": c0, "p": p, "d0": d0, "q": q,
            "order": max_order, "verdict": "psd" if psd else "not_psd", "witness": witness,
            "margin": lam0 - k * s_inf}


def _offsets(rng, count: int, num: int, den: int) -> list:
    out: list = []
    while len(out) < count:
        b = Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))
        if b not in out:
            out.append(b)
    return out


def _points(rng, count: int, re_lo: float, re_hi: float, im_exponents) -> list:
    """Points with Re in [re_lo, re_hi] and |Im| = 10**e * U[1, 3] over the given exponents."""
    out = []
    for i in range(count):
        e = im_exponents[i % len(im_exponents)]
        im = 10.0**e * float(rng.uniform(1.0, 3.0)) * float(rng.choice([-1.0, 1.0]))
        out.append(complex(float(rng.uniform(re_lo, re_hi)), im))
    return out


def spec_digest(obj) -> str:
    """sha256 over a canonical rendering of a spec (arrays by dtype, shape and bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _c(z: complex) -> str:
    """A complex number as the CLI parses it."""
    return f"{z.real!r}{z.imag:+.17g}j"


def _json_matrix(A: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


# -- cli_cold -------------------------------------------------------------------


README_ARGV = [
    ["eval", "--series", "sample_inputs/zeta_series.json", "--s", "2", "--order", "10000"],
    ["eval", "--matrix", "sample_inputs/diag_ones.json", "--s", "2", "--u", "2", "--order", "100000"],
    ["psd", "--matrix", "sample_inputs/example_arrowhead.json", "--max-order", "16"],
    ["sk", "--example"],
    ["symbols", "--matrix", "sample_inputs/example_arrowhead.json", "--n", "5", "--order", "12"],
    ["membership", "--query", "sample_inputs/membership_query.json"],
    ["invariance", "--matrix", "sample_inputs/diag_ones.json", "--order", "32"],
    ["classify", "--matrix", "sample_inputs/rank_one_2.json", "--order", "2"],
    ["homog", "--verify", "--pairs", "1000", "--seed", "7"],
    ["homog", "--span", "sample_inputs/span_zeta.json", "--delta", "0.25"],
    ["merge", "--omega", "sqrt2", "--m-max", "50", "--n-max", "50", "--limit", "5"],
]


def spec_cli_cold(seed: int) -> dict:
    rng = _rng(seed, "cli_cold")
    docs, argv = {}, {}
    n1 = int(rng.integers(24, 49))
    docs["dense_psd"] = {"variant": "dense", "rho": 0.0,
                         "entries": _json_matrix(dense_psd(rng, n1, 8, float(rng.uniform(0.05, 0.2))))}
    argv["dense_psd"] = ["psd", "--matrix", "@dense_psd", "--max-order", str(n1)]
    n2 = int(rng.integers(32, 65))
    hole = int(rng.integers(n2 // 4, n2))
    A2 = dense_psd(rng, n2, 8, float(rng.uniform(0.05, 0.2)), hole, float(rng.uniform(0.1, 0.5)))
    docs["dense_notpsd"] = {"variant": "dense", "rho": 0.0, "entries": _json_matrix(A2)}
    argv["dense_notpsd"] = ["psd", "--matrix", "@dense_notpsd", "--max-order", str(n2)]
    f = _cplx(rng, int(rng.integers(8, 17)))
    docs["rank_one"] = {"variant": "rank_one", "rho": 0.0,
                        "fhat": [[float(z.real), float(z.imag)] for z in f]}
    s, u = _points(rng, 2, 0.5, 2.0, [0])
    argv["rank_one"] = ["eval", "--matrix", "@rank_one", "--s", _c(s), "--u", _c(u), "--order", "32"]
    cd, pd = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.5, 0.0))
    docs["diag_power"] = {"variant": "diagonal", "rho": 0.5,
                          "rule": {"kind": "power", "scale": cd, "exponent": pd}}
    s, u = _points(rng, 2, 1.0, 1.6, [0, 1])
    argv["diag_power"] = ["eval", "--matrix", "@diag_power", "--s", _c(s), "--u", _c(u),
                          "--order", "20000"]
    argv["diag_invariance"] = ["invariance", "--matrix", "@diag_power", "--order", "24",
                               "--seed", str(int(rng.integers(0, 1000)))]
    arrow = arrow_spec(rng, 3, 64, psd=True)
    docs["arrowhead"] = {"variant": "arrowhead", "k": 3, "rho": 0.5, "head": _json_matrix(arrow["head"]),
                         "c_rule": {"kind": "power", "scale": arrow["c0"], "exponent": -arrow["p"]},
                         "d_rule": {"kind": "power", "scale": arrow["d0"], "exponent": arrow["q"]}}
    argv["arrowhead_psd"] = ["psd", "--matrix", "@arrowhead", "--max-order", "64"]
    argv["arrowhead_sk"] = ["sk", "--matrix", "@arrowhead", "--max-order", "64"]
    cs = float(rng.uniform(0.5, 2.0))
    docs["series"] = {"kind": "ordinary", "coefficients": [cs] * 4,
                      "generator": {"coefficients": {"kind": "constant", "value": cs}},
                      "envelope": {"C": cs, "alpha": 0}}
    (s,) = _points(rng, 1, 1.5, 3.0, [1])
    argv["series"] = ["eval", "--series", "@series", "--s", _c(s), "--order", "10000"]
    A3 = dense_psd(rng, 12, 6, float(rng.uniform(0.05, 0.2)))
    docs["query"] = {"matrix": {"variant": "dense", "rho": 0.0, "entries": _json_matrix(A3)},
                     "fhat": [[float(z.real), float(z.imag)] for z in _cplx(rng, 12)],
                     "order": 12, "c_max": 10000.0, "resolution": 1e-6}
    argv["query"] = ["membership", "--query", "@query"]
    docs["span"] = {"a": float(rng.uniform(0.9, 1.3)), "rho": 0.5, "order": 5000,
                    "offsets": [str(b) for b in _offsets(rng, 8, 60, 5)],
                    "diagonal": {"kind": "constant", "value": float(rng.uniform(0.5, 2.0))},
                    "support": {"kind": "all"}}
    argv["span"] = ["homog", "--span", "@span"]
    g = np.concatenate([[1.0], 0.3 * _cplx(rng, 5) / np.arange(2, 7) ** 2 / 2])
    docs["classify"] = {"variant": "rank_one", "rho": 0.0,
                        "fhat": [[float(z.real), float(z.imag)] for z in g]}
    argv["classify"] = ["classify", "--matrix", "@classify", "--order", "6"]
    return {"docs": docs, "argv": argv, "arrow": arrow}


def _cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list, root: Path, scratch: Path, env: dict) -> CliOutcome:
    """One fresh ``python -m dskernel.cli`` process; its own peak RSS from wait4."""
    out_path, err_path = scratch / "cli.stdout", scratch / "cli.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "dskernel.cli", *argv], cwd=root, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutcome(proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss)


def replay_cli(argv: list) -> CliOutcome:
    """The same argv through ``dskernel.cli.main`` in this process (traced runs)."""
    import dskernel.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = dskernel.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutcome(code, buf.getvalue(), "")


def _semantic_eval(truth: Callable):
    def sem(res):
        return disc_check(decode_complex(res["value"]), float(res["error_radius"]), truth())
    return sem


def _semantic_psd(expected: str, witness: Optional[int], max_order: int):
    def sem(res):
        if res.get("orders") != ladder(max_order):
            return f"ladder orders {res.get('orders')} differ from the documented ladder"
        return psd_verdict_check(res["verdict"], res.get("witness_order"), expected, witness)
    return sem


def _semantic_membership(A: np.ndarray, f: np.ndarray, tol: float, resolution: float):
    bounds = once(lambda: membership_bounds(A, f, tol, resolution))

    def sem(res):
        c_ref, lo, hi = bounds()
        if res["member"] is not True:
            return f"member={res['member']}, reference member with c*={c_ref:.9g}"
        if not lo <= res["c_star"] <= hi:
            return f"c*={res['c_star']!r} outside [{lo!r}, {hi!r}] around sqrt(f*A^+f)={c_ref!r}"
        return None
    return sem


def _gram_check(G, radius: float, independent: bool, min_eig: float, a: float, scale: float,
                offsets: list, rows: int) -> Optional[str]:
    """Translate-Gram entries against scale * zeta(2a + i(b_j - b_k)); verdict against min eig."""
    G = np.asarray(G)
    for j in range(rows):
        for k in range(len(offsets)):
            truth = scale * mpmath.zeta(mpmath.mpc(2 * a, float(offsets[j] - offsets[k])))
            bad = disc_check(complex(G[j, k]), radius, truth)
            if bad:
                return f"G[{j},{k}]: {bad}"
    own = float(np.linalg.eigvalsh(0.5 * (G + G.conj().T))[0])
    if abs(own - min_eig) > 1e-9 * (1.0 + float(np.abs(G).max())):
        return f"min eigenvalue {min_eig!r}, recomputed {own!r}"
    if independent != (min_eig - radius * len(offsets) > 0.0):
        return f"independent={independent} contradicts min eig {min_eig!r} and radius {radius!r}"
    return None


def _span_semantic(doc: dict, rows: int, adjoint: Optional[str] = None):
    offsets = [Fraction(b) for b in doc["offsets"]]
    scale = float(doc["diagonal"].get("value", 1.0))

    def sem(res):
        g = res["gram"]
        G = np.array([[decode_complex(z) for z in row] for row in g["matrix"]])
        bad = _gram_check(G, g["entry_radius"], g["independent"], g["min_eigenvalue"],
                          float(doc["a"]), scale, offsets, rows)
        if bad is None and adjoint is not None and res["adjoint_condition"]["verdict"] != adjoint:
            bad = f"adjoint verdict {res['adjoint_condition']['verdict']!r}, reference {adjoint!r}"
        return bad
    return check_once_per_output(sem, lambda res: json.dumps(res, sort_keys=True))


def check_once_per_output(check: Callable, key: Callable) -> Callable:
    """Run an expensive check once per distinct output; repeats reuse the verdict."""
    memo: dict = {}

    def wrapped(out):
        k = key(out)
        if k not in memo:
            memo[k] = check(out)
        return memo[k]
    return wrapped


def _translation_invariant_only(res) -> Optional[str]:
    """Diagonal kernels: translation invariant, not invariant under the linear subgroup."""
    t, lin = res["translation"], res["linear_subgroup"]
    if not (t["invariant"] and t["structural_diagonal"]) or lin["constant"] or lin["invariant"]:
        return "reference: translation invariant, not invariant under the linear subgroup"
    return None


def _quasi_invariant(res) -> Optional[str]:
    return None if res["verdict"] == "quasi_invariant" else f"verdict {res['verdict']!r}"


def _readme_checks(root: Path) -> list:
    span_doc = json.loads((root / "sample_inputs" / "span_zeta.json").read_text())

    def symbols(res):
        want = [0.0] * 12
        want[0] = want[1] = 1.0
        want[4] = 64.0
        got = [decode_complex(c) for c in res["coefficients"]]
        if len(got) != 12 or max(abs(g - w) for g, w in zip(got, want)) > 1e-12:
            return f"column 5 coefficients {got}, reference {want}"
        return None

    def sk_example(res):
        if res["ladder_verdict"] != "psd" or abs(res["margin"] + 0.5) > 1e-12:
            return f"verdict {res['ladder_verdict']!r} margin {res['margin']!r}, reference psd, -1/2"
        return None

    def homog_verify(res):
        return None if res["homogeneity"]["exact"] is True else "homogeneity residual not empty"

    def merge(res):
        e = res["entries"]
        if res["count"] != 2500 or e[0] != {"m": 1, "n": 1, "nu": 0.0} or \
                any(a["nu"] >= b["nu"] for a, b in zip(e, e[1:])):
            return f"merged grid count {res['count']} / entries {e} not as expected"
        return None

    one = np.zeros(6, dtype=complex)
    one[1] = 1.0
    return [
        _semantic_eval(once(lambda: mpmath.zeta(2))),
        _semantic_eval(once(lambda: mpmath.zeta(4))),
        _semantic_psd("psd", None, 16),
        sk_example,
        symbols,
        _semantic_membership(np.eye(6), one, 1e-9, 1e-6),
        _translation_invariant_only,
        _quasi_invariant,
        homog_verify,
        _span_semantic(span_doc, 1, adjoint="finite"),
        merge,
    ]


def _variant_checks(spec: dict) -> dict:
    docs, argv, arrow = spec["docs"], spec["argv"], spec["arrow"]
    out = {}
    n1 = len(docs["dense_psd"]["entries"])
    out["dense_psd"] = _semantic_psd("psd", None, n1)
    A2 = np.array([[complex(*z) for z in row] for row in docs["dense_notpsd"]["entries"]])
    hole = int(np.argmin(np.real(np.diag(A2))))
    out["dense_notpsd"] = _semantic_psd("not_psd", first_rung_at_least(len(A2), hole + 1), len(A2))

    f = np.array([complex(*z) for z in docs["rank_one"]["fhat"]])
    s, u = complex(argv["rank_one"][4]), complex(argv["rank_one"][6])

    def rank_one_truth(s=s, u=u):
        F = lambda z: mpmath.fsum(mpc(fm) * mpmath.mpf(m + 1) ** (-mpc(z)) for m, fm in enumerate(f))
        return F(s) * mpmath.conj(F(u))
    out["rank_one"] = _semantic_eval(once(rank_one_truth))

    rule = docs["diag_power"]["rule"]
    s, u = complex(argv["diag_power"][4]), complex(argv["diag_power"][6])
    out["diag_power"] = _semantic_eval(once(
        lambda s=s, u=u: rule["scale"] * zeta_truth(s + u.conjugate() - rule["exponent"])[0]))

    out["diag_invariance"] = _translation_invariant_only

    out["arrowhead_psd"] = _semantic_psd("psd", None, 64)

    def arrow_sk(res):
        if res["verdict"] != "psd":
            return f"verdict {res['verdict']!r}, reference psd"
        if abs(res["margin"] - arrow["margin"]) > 1e-9 * (1.0 + abs(arrow["margin"])):
            return f"margin {res['margin']!r}, reference {arrow['margin']!r}"
        return None
    out["arrowhead_sk"] = arrow_sk

    cs = docs["series"]["envelope"]["C"]
    s = complex(argv["series"][4])
    out["series"] = _semantic_eval(once(lambda s=s: cs * zeta_truth(s)[0]))

    q = docs["query"]
    A3 = np.array([[complex(*z) for z in row] for row in q["matrix"]["entries"]])
    f3 = np.array([complex(*z) for z in q["fhat"]])
    out["query"] = _semantic_membership(A3, f3, 1e-9, q["resolution"])
    out["span"] = _span_semantic(docs["span"], 2)
    out["classify"] = _quasi_invariant
    return out


def build_cli_cold(spec: dict, root: Path, scratch: Path, in_process: bool) -> tuple[list, list]:
    """Write the seeded inputs under ``scratch`` and return (timed answers, probes)."""
    paths = {}
    for name, doc in spec["docs"].items():
        paths[name] = scratch / f"{name}.json"
        paths[name].write_text(json.dumps(doc, sort_keys=True))
    env = _cli_env(root)
    runner = replay_cli if in_process else (lambda argv: run_cli(argv, root, scratch, env))

    def answer(kind, argv, semantic=None, codes=(0,)):
        return Answer(kind, lambda: runner(argv), lambda out: cli_check(out, codes, semantic))

    timed = [answer(f"readme.{argv[0]}", argv, sem)
             for argv, sem in zip(README_ARGV, _readme_checks(root))]
    variant_checks = _variant_checks(spec)
    for name, argv in spec["argv"].items():
        argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]
        timed.append(answer(f"variant.{name}", argv, variant_checks[name]))

    geo = scratch / "geometric_diag.json"
    geo.write_text(json.dumps({"variant": "diagonal", "rho": 0.0,
                               "rule": {"kind": "geometric", "ratio": 2}}))
    ragged = scratch / "ragged_dense.json"
    ragged.write_text(json.dumps({"variant": "dense", "entries": [[1, 0], [0]]}))

    def no_finite_radius(res):
        r = res.get("error_radius")
        return f"finite radius {r!r} for a divergent kernel" if isinstance(r, (int, float)) else None

    psd_verdict = lambda res: None if res["verdict"] == "psd" else f"verdict {res['verdict']!r}"
    probes = [
        answer("probe.psd_arrowhead_600",
               ["psd", "--matrix", "sample_inputs/example_arrowhead.json", "--max-order", "600"],
               psd_verdict, (0, 2)),
        answer("probe.psd_geometric_1100", ["psd", "--matrix", str(geo), "--max-order", "1100"],
               psd_verdict, (0, 2)),
        answer("probe.eval_geometric_2000",
               ["eval", "--matrix", str(geo), "--s", "2", "--order", "2000"], no_finite_radius, (0, 2)),
        answer("probe.ragged_dense", ["psd", "--matrix", str(ragged), "--max-order", "2"], None, (2,)),
    ]
    return timed, probes


# -- certify_large --------------------------------------------------------------


def spec_certify_large(seed: int) -> dict:
    """Eight answers under a third of a second, six of about half a second, four of one to eight.

    With 18 answers the nearest-rank median is the fastest of the six
    middle answers and the 90th percentile the faster of the two largest, so
    noise on a single answer moves neither.
    """
    rng = _rng(seed, "certify_large")
    delta = lambda: float(rng.uniform(0.05, 0.2))
    gamma = lambda: float(rng.uniform(0.1, 0.5))
    spec: dict = {}
    spec["dense_psd_2000"] = dense_psd(rng, 2000, 64, delta())
    h = int(rng.integers(192, 768))
    spec["dense_notpsd_768"] = (dense_psd(rng, 768, 64, delta(), h, gamma()), h)
    spec["dense_psd_512"] = dense_psd(rng, 512, 64, delta())
    h = int(rng.integers(128, 512))
    spec["dense_notpsd_512"] = (dense_psd(rng, 512, 64, delta(), h, gamma()), h)
    spec["rank_one_512"] = _cplx(rng, 512)
    spec["rank_one_768"] = _cplx(rng, 768)
    spec["rank_one_1024"] = _cplx(rng, 1024)
    spec["banded_psd_768"] = banded_psd(rng, 768, 3, delta())
    h = int(rng.integers(128, 512))
    spec["banded_notpsd_512"] = (banded_psd(rng, 512, 3, delta(), h, gamma()), h)
    spec["deflated_512"] = dense_psd(rng, 512, 64, delta())
    spec["deflated_768"] = dense_psd(rng, 768, 64, delta())
    spec["arrow_psd_512"] = arrow_spec(rng, 4, 512, psd=True)
    spec["arrow_psd_768"] = arrow_spec(rng, 4, 768, psd=True)
    spec["arrow_psd_1024"] = arrow_spec(rng, 4, 1024, psd=True)
    spec["arrow_notpsd_1536"] = arrow_spec(rng, 4, 1536, psd=False)
    spec["membership_256"] = (dense_psd(rng, 256, 32, delta()), _cplx(rng, 256))
    f = np.concatenate([[1.0], 0.3 * _cplx(rng, 255) / np.arange(2, 257) ** 2])
    spec["classify_rank_one_256"] = f
    spec["classify_rank_two_512"] = (_cplx(rng, 512), _cplx(rng, 512))
    return spec


def build_certify_large(spec: dict) -> list:
    import dskernel as dk

    def psd_answer(kind, make_matrix, n, expected, witness=None):
        matrix = make_matrix()

        def check(cert):
            if tuple(cert.orders) != tuple(ladder(n)):
                return f"ladder orders {cert.orders} differ from the documented ladder"
            return psd_verdict_check(cert.verdict, cert.witness_order, expected, witness)
        return Answer(kind, lambda: dk.psd_check(matrix, n), check)

    def notpsd(kind, key, make):
        A, hole = spec[key]
        n = A.shape[0]
        return psd_answer(kind, lambda: make(A), n, "not_psd", first_rung_at_least(n, hole + 1))

    out = [
        psd_answer("psd_check.dense_psd_2000", lambda: dk.DenseMatrix(spec["dense_psd_2000"]), 2000, "psd"),
        notpsd("psd_check.dense_notpsd_768", "dense_notpsd_768", dk.DenseMatrix),
        psd_answer("psd_check.dense_psd_512", lambda: dk.DenseMatrix(spec["dense_psd_512"]), 512, "psd"),
        notpsd("psd_check.dense_notpsd_512", "dense_notpsd_512", dk.DenseMatrix),
        *(psd_answer(f"psd_check.rank_one_{n}", lambda n=n: dk.RankOneMatrix(spec[f"rank_one_{n}"]), n, "psd")
          for n in (512, 768, 1024)),
        psd_answer("psd_check.banded_psd_768",
                   lambda: dk.BandedMatrix(3, spec["banded_psd_768"]), 768, "psd"),
        notpsd("psd_check.banded_notpsd_512", "banded_notpsd_512", lambda A: dk.BandedMatrix(3, A)),
        *(psd_answer(f"psd_check.deflated_{n}",
                     lambda n=n: dk.DeflatedMatrix(dk.DenseMatrix(spec[f"deflated_{n}"])), n, "psd")
          for n in (512, 768)),
    ]
    for key in ("arrow_psd_512", "arrow_psd_768", "arrow_psd_1024", "arrow_notpsd_1536"):
        a = spec[key]
        m = dk.ArrowheadMatrix(a["k"], a["head"],
                               dk.SequenceRule("power", scale=a["c0"], exponent=-a["p"]),
                               dk.SequenceRule("power", scale=a["d0"], exponent=a["q"]))

        def check(cert, a=a):
            bad = psd_verdict_check(cert.verdict, cert.witness_order, a["verdict"], a["witness"])
            if bad is None and abs(cert.margin - a["margin"]) > 1e-9 * (1.0 + abs(a["margin"])):
                bad = f"margin {cert.margin!r}, reference {a['margin']!r}"
            return bad
        out.append(Answer(f"certify_psd.{key}", lambda m=m, n=a["order"]: dk.certify_psd(m, n), check))

    A, f = spec["membership_256"]
    bounds = once(lambda: membership_bounds(A, f, 1e-9, 1e-6))
    member_matrix = dk.DenseMatrix(A)

    def member_check(res):
        c_ref, lo, hi = bounds()
        if not res.member or not lo <= res.c_star <= hi:
            return f"member={res.member} c*={res.c_star!r}, reference c*={c_ref!r} within [{lo!r}, {hi!r}]"
        return None
    out.append(Answer("membership_test.dense_256",
                      lambda: dk.membership_test(member_matrix, f, 256), member_check))

    grid = [2.0, 3.0 + 1.0j, 2.5 - 2.0j]
    f1 = spec["classify_rank_one_256"]
    k1 = dk.DirichletKernel(dk.RankOneMatrix(f1), dk.HalfPlane(0.0))

    def rank_one_check(rep):
        if rep.verdict != "quasi_invariant":
            return f"verdict {rep.verdict!r} ({rep.reason}), reference quasi_invariant"
        if not np.allclose(np.abs(rep.factor), np.abs(f1), atol=1e-8 * np.abs(f1).max()):
            return "recovered factor differs from the generating vector"
        return None
    out.append(Answer("quasi_invariance_classify.rank_one_256",
                      lambda: dk.quasi_invariance_classify(k1, 256, grid=grid), rank_one_check))
    x, y = spec["classify_rank_two_512"]
    k2 = dk.DirichletKernel(dk.DenseMatrix(np.outer(x, x.conj()) + np.outer(y, y.conj())),
                            dk.HalfPlane(0.0))
    out.append(Answer("quasi_invariance_classify.rank_two_512",
                      lambda: dk.quasi_invariance_classify(k2, 512, grid=grid),
                      lambda rep: None if rep.verdict == "not_quasi_invariant"
                      and rep.reason.startswith("rank >= 2") else f"verdict {rep.verdict!r} ({rep.reason})"))
    return out


def warmup_certify_large() -> None:
    """First eigen-solves in a fresh process pay LAPACK and thread-pool start-up."""
    import dskernel as dk
    rng = np.random.default_rng(0)
    A = dense_psd(rng, 300, 8, 0.1)
    dk.psd_check(dk.DenseMatrix(A), 300)
    dk.membership_test(dk.DenseMatrix(A[:8, :8]), np.ones(8), 8)
    dk.quasi_invariance_classify(dk.DirichletKernel(dk.RankOneMatrix(np.ones(4)), dk.HalfPlane(0.0)), 4)
    a = arrow_spec(rng, 3, 64, psd=True)
    dk.certify_psd(dk.ArrowheadMatrix(3, a["head"], dk.SequenceRule("power", scale=a["c0"], exponent=-a["p"]),
                                      dk.SequenceRule("power", scale=a["d0"], exponent=a["q"])), 64)


# -- eval_sweep -----------------------------------------------------------------


#: decades of |Im s| for the timed deep evaluations.  The seed prices rounding as
#: 1e-14 times the absolute mass and ignores the phase error of n**(-i Im s), so
#: timed answers keep |Im s| <= 3e3 and real parts where the tail bound is at
#: least 5e-13; the unsound region runs as probes.
IM_EXPONENTS = [0, 0.5, 1, 1.5, 2, 3]


#: a translate Gram whose diagonal entry comes out just outside its certified disc
GRAM_PROBE_A, GRAM_PROBE_SCALE = 1.195217806810569, 0.8041855120340046


def spec_eval_sweep(seed: int) -> dict:
    """Fifty answers; the two clusters that hold the percentiles run every round.

    Sorted by latency: ranks 1 to 19 are ``homogeneity_residual`` pairs
    (well under a millisecond); 20 to 29 the two linear invariance tests
    and the eight deep ``evaluate`` calls, so the nearest-rank median (25)
    is the middle of that cluster; 30 to 42 the 13 deep ``kernel_eval``
    calls; 43 to 47 the three translation tests and the two expansions at
    500, so the 90th percentile (45) is the middle of those; 48 to 50 the
    heavy sweeps.  The deep ``kernel_eval`` calls only have to stay between
    the two clusters, so they rotate with the heavy sweeps and the rounds
    stay short: the answers that set the percentiles repeat five to nine
    times in a 30 s run.
    """
    rng = _rng(seed, "eval_sweep")
    spec: dict = {"zeta_scale": float(rng.uniform(0.5, 2.0))}
    # a and the diagonal scale are fixed: the seed prices no summation rounding in
    # translate_gram's entry radius, and for some (a, scale) the diagonal entries'
    # discs miss the truth by about 1e-15 (the probe below keeps one such pair)
    spec["gram"] = {"a": 1.0, "scale": 1.0, "offsets": _offsets(rng, 64, 700, 7)}
    spec["expansion"] = [(n, *_points(rng, 2, 1.5, 2.5, [0])) for n in (500, 500, 2000)]
    spec["arrow_power"] = [{"k": 4, "head": dense_psd(rng, 4, 4, 0.5), "c0": 0.3, "p": 0.8, "d0": 1.0,
                            "q": 0.5, "seed": int(rng.integers(0, 1000))} for _ in range(3)]
    spec["homog_pairs"] = [(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13))),
                            Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13))))
                           for _ in range(19)]
    spec["diag"] = {"scale": float(rng.uniform(0.5, 2.0)), "exponent": float(rng.uniform(-0.5, 0.0)),
                    "s": _points(rng, 7, 0.8, 1.0, IM_EXPONENTS),
                    "u": _points(rng, 7, 0.8, 1.0, [0])}
    k = int(rng.integers(2, 5))
    spec["arrow_const"] = {"k": k, "head": dense_psd(rng, k, k, 0.5), "c": float(rng.uniform(0.1, 0.5)),
                           "d": float(rng.uniform(0.5, 2.0)),
                           "s": _points(rng, 6, 1.3, 2.5, [0, 1]), "u": _points(rng, 6, 1.3, 2.5, [0])}
    spec["series"] = {"scale": float(rng.uniform(0.5, 2.0)),
                      "s": _points(rng, 8, 1.5, 3.0, IM_EXPONENTS)}
    spec["probe_series_s"] = _points(rng, 3, 3.0, 3.0, [6, 9, 12])
    spec["probe_explicit_t"] = [p.imag for p in _points(rng, 2, 1.1, 1.1, [6, 12])]
    return spec


def build_eval_sweep(spec: dict) -> tuple[list, list]:
    import dskernel as dk

    out: list = []
    cz = spec["zeta_scale"]
    zeta_kernel = dk.DirichletKernel(dk.DiagonalMatrix(dk.SequenceRule("constant", scale=cz)),
                                     dk.HalfPlane(0.5))

    def recover_check(rb):
        B, tol = rb.block, 1e-6 * max(1.0, cz)
        if abs(B[0, 0] - cz) > tol or abs(B[0, 1]) > tol or abs(B[1, 0]) > tol:
            return f"leading block {B[:2, :2].tolist()}, reference {cz} * identity"
        return None
    out.append(Answer("recover_block.zeta_16",
                      lambda: dk.recover_block(lambda s, u: dk.kernel_eval(zeta_kernel, s, u, 20000).value,
                                               16, sigma_min=2.0), recover_check, group=0))

    g = spec["gram"]
    span = dk.TranslateSpan(a=g["a"], offsets=tuple(g["offsets"]),
                            diagonal=dk.SequenceRule("constant", scale=g["scale"]),
                            support=dk.AdmissibleSupport("all"), order=20000, rho=0.5)
    gram_check = lambda tg: _gram_check(tg.matrix, tg.entry_radius, tg.independent, tg.min_eigenvalue,
                                        g["a"], g["scale"], g["offsets"], 1)
    gram_key = lambda tg: (np.asarray(tg.matrix).tobytes(), tg.entry_radius, tg.independent, tg.min_eigenvalue)
    out.append(Answer("translate_gram.64x20000", lambda: dk.translate_gram(span),
                      check_once_per_output(gram_check, gram_key), group=1))

    for n, s, u in spec["expansion"]:
        mass = cz * float(mpmath.zeta(s.real + u.real))
        out.append(Answer(f"expansion_check.{n}", lambda n=n, s=s, u=u: dk.expansion_check(zeta_kernel, s, u, n),
                          lambda r, mass=mass: None if r <= 1e-10 * mass else f"residual {r!r}",
                          group=None if n == 500 else 1))

    def translation_check(rep):
        w = rep.witness
        if rep.invariant or rep.structural_diagonal or w is None or not w.violation > 1e-6:
            return f"reference: not translation invariant with a witness; got {rep}"
        return None

    for i, a in enumerate(spec["arrow_power"]):
        kern = dk.DirichletKernel(
            dk.ArrowheadMatrix(a["k"], a["head"], dk.SequenceRule("power", scale=a["c0"], exponent=-a["p"]),
                               dk.SequenceRule("power", scale=a["d0"], exponent=a["q"])), dk.HalfPlane(0.5))
        out.append(Answer("translation_invariance_test.arrowhead_2000",
                          lambda kern=kern, a=a: dk.translation_invariance_test(kern, 2000, seed=a["seed"]),
                          translation_check))
        if i < 2:
            out.append(Answer("linear_invariance_test.arrowhead_2000",
                              lambda kern=kern: dk.linear_invariance_test(kern, 2000),
                              lambda rep: None if not rep.constant and not rep.invariant and rep.witness_kind
                              else f"reference: not invariant with a witness; got {rep}"))

    for c, b in spec["homog_pairs"]:
        out.append(Answer("homogeneity_residual", lambda c=c, b=b: dk.homogeneity_residual(c, b),
                          lambda r: None if r == {} else f"residual {r!r} is not empty"))

    d = spec["diag"]
    diag_kernel = dk.DirichletKernel(
        dk.DiagonalMatrix(dk.SequenceRule("power", scale=d["scale"], exponent=d["exponent"])),
        dk.HalfPlane(0.5))
    for s, u in zip(d["s"], d["u"]):
        truth = once(lambda s=s, u=u: d["scale"] * zeta_truth(s + u.conjugate() - d["exponent"])[0])
        out.append(Answer("kernel_eval.diagonal_1e6", lambda s=s, u=u: dk.kernel_eval(diag_kernel, s, u, 10**6),
                          lambda vb, truth=truth: disc_check(vb.value, vb.error_radius, truth()), group=0))

    ac = spec["arrow_const"]
    k, H = ac["k"], ac["head"]
    const_kernel = dk.DirichletKernel(
        dk.ArrowheadMatrix(k, H, dk.SequenceRule("constant", scale=ac["c"]),
                           dk.SequenceRule("constant", scale=ac["d"])), dk.HalfPlane(0.5))
    for s, u in zip(ac["s"], ac["u"]):
        truth = once(lambda s=s, u=u: arrow_const_truth(H, ac["c"], ac["d"], s, u))
        out.append(Answer("kernel_eval.arrowhead_1e5", lambda s=s, u=u: dk.kernel_eval(const_kernel, s, u, 10**5),
                          lambda vb, truth=truth: disc_check(vb.value, vb.error_radius, truth()), group=1))

    sr = spec["series"]
    series = zeta_series(dk, sr["scale"])
    for s in sr["s"]:
        truth = once(lambda s=s: sr["scale"] * zeta_truth(s)[0])
        out.append(Answer("evaluate.zeta_1e6", lambda s=s: dk.evaluate(series, s, 10**6),
                          lambda vb, truth=truth: disc_check(vb.value, vb.error_radius, truth())))

    probes = []
    for s in spec["probe_series_s"]:
        truth = once(lambda s=s: zeta_truth(s))

        def check(vb, truth=truth, c=sr["scale"]):
            centre, radius = truth()
            return disc_check(vb.value, vb.error_radius, c * centre, c * radius)
        probes.append(Answer(f"probe.evaluate_im_1e{round(math.log10(abs(s.imag)))}",
                             lambda s=s: dk.evaluate(series, s, 10**6), check))
    probe_span = dk.TranslateSpan(a=GRAM_PROBE_A, offsets=(Fraction(0), Fraction(1)),
                                  diagonal=dk.SequenceRule("constant", scale=GRAM_PROBE_SCALE),
                                  support=dk.AdmissibleSupport("all"), order=20000, rho=0.5)
    probes.append(Answer("probe.translate_gram_diagonal_rounding", lambda: dk.translate_gram(probe_span),
                         lambda tg: _gram_check(tg.matrix, tg.entry_radius, tg.independent, tg.min_eigenvalue,
                                                GRAM_PROBE_A, GRAM_PROBE_SCALE, [Fraction(0), Fraction(1)], 1)))
    explicit = dk.DirichletKernel(dk.DiagonalMatrix(dk.SequenceRule("explicit", values=(1.0,) * 5000)),
                                  dk.HalfPlane(0.5))
    for t in spec["probe_explicit_t"]:
        z = complex(2.2, t)
        truth = once(lambda z=z: mpmath.fsum(mpmath.mpf(n) ** (-mpc(z)) for n in range(1, 5001)))
        probes.append(Answer(f"probe.kernel_eval_explicit_im_1e{round(math.log10(abs(t)))}",
                             lambda t=t: dk.kernel_eval(explicit, complex(1.1, t), 1.1, 5000),
                             lambda vb, truth=truth: disc_check(vb.value, vb.error_radius, truth())))
    return out, probes


def zeta_series(dk, scale: float):
    return dk.GeneralDirichletSeries.ordinary(
        [scale] * 4, envelope=dk.Envelope(scale, 0.0),
        coefficient_rule=dk.SequenceRule("constant", scale=scale))


def arrow_const_truth(H: np.ndarray, c: float, d: float, s: complex, u: complex):
    """Closed form of the arrowhead kernel with constant coupling c and tail d."""
    k = H.shape[0]
    ms, ub = mpc(s), mpmath.conj(mpc(u))
    P = lambda z: mpmath.fsum(mpmath.mpf(m) ** (-z) for m in range(1, k + 1))
    head = mpmath.fsum(mpc(H[m, n]) * mpmath.mpf(m + 1) ** (-ms) * mpmath.mpf(n + 1) ** (-ub)
                       for m in range(k) for n in range(k))
    return (head + c * P(ms) * mpmath.zeta(ub, k + 1) + c * mpmath.zeta(ms, k + 1) * P(ub)
            + d * mpmath.zeta(ms + ub, k + 1))


def warmup_eval_sweep() -> None:
    import dskernel as dk
    kern = dk.DirichletKernel(dk.DiagonalMatrix(dk.SequenceRule("constant", scale=1.0)), dk.HalfPlane(0.5))
    dk.recover_block(lambda s, u: dk.kernel_eval(kern, s, u, 64).value, 2, sigma_min=2.0, grid_count=14)
    span = dk.TranslateSpan(a=1.0, offsets=(Fraction(0), Fraction(1)),
                            diagonal=dk.SequenceRule("constant", scale=1.0),
                            support=dk.AdmissibleSupport("all"), order=64, rho=0.5)
    dk.translate_gram(span)
    dk.evaluate(zeta_series(dk, 1.0), 2.0, 64)
    dk.homogeneity_residual(Fraction(1, 2), Fraction(1, 3))


SPECS = {"cli_cold": spec_cli_cold, "certify_large": spec_certify_large, "eval_sweep": spec_eval_sweep}
