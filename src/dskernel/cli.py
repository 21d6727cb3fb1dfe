"""Batch command-line front-end.

Subcommands map one-to-one onto the library modules and emit deterministic
machine-readable reports (JSON by default, CSV for trace tables).  Exit
code policy: mathematical negatives (a kernel failing PSD, a series failing
membership) are successful analyses and exit 0; only malformed input (2)
and internal cross-check failures (3) are errors, so pipelines can tell
"the kernel is not PSD" from "the tool broke".
"""

from __future__ import annotations

import argparse
import io as _io
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (
    CertificationError,
    CollisionError,
    ConvergenceRegionError,
    DskernelError,
    HermitianError,
    InternalCheckError,
    OutsideDomainError,
    RecoveryError,
    SpecError,
)
from .homogeneous import (
    adjoint_condition_check,
    admissibility_check,
    homogeneity_residual,
    translate_gram,
)
from .io import (
    dump_report,
    encode_complex,
    load_kernel,
    load_membership_query,
    load_series,
    load_span,
    parse_complex,
)
from .kernel import HERMITIAN_TOL, kernel_eval, psd_check
from .matrices import ArrowheadMatrix
from .rkhs import analytic_symbol, membership_test
from .series import COLLISION_RTOL, evaluate, merge_log_exponents, multiply_merged
from .structured import certify_psd, example_arrowhead, growth_check, psd_margin
from .symmetry import (
    linear_invariance_test,
    quasi_invariance_classify,
    translation_invariance_test,
)

SCHEMA = "dskernel-report/1"


def _base_report(command: str, args: argparse.Namespace, **inputs) -> dict:
    rep = {"schema": SCHEMA, "version": __version__, "command": command, "inputs": inputs}
    if getattr(args, "seed", None) is not None:
        rep["inputs"]["seed"] = args.seed
    return rep


def _emit(report: dict, args: argparse.Namespace) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(report)
    else:
        text = dump_report(report)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(report: dict) -> str:
    """Flatten numeric trace tables; scalar results become key,value rows."""
    buf = _io.StringIO()
    buf.write("key,value\n")

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, x in enumerate(obj):
                walk(f"{prefix}[{i}]", x)
        else:
            buf.write(f"{prefix},{obj}\n")

    walk("", report)
    return buf.getvalue()


def _fail(kind: str, message: str, code: int) -> int:
    sys.stdout.write(dump_report({"schema": SCHEMA, "error": {"kind": kind, "message": message}}))
    return code


# -- subcommand handlers -----------------------------------------------------


def _cmd_eval(args) -> dict:
    if not args.matrix and not args.series:
        raise SpecError("eval needs --series or --matrix")
    if args.matrix:
        kern = load_kernel(args.matrix)
        s = parse_complex(args.s)
        u = parse_complex(args.u if args.u is not None else args.s)
        vb = kernel_eval(kern, s, u, args.order)
        rep = _base_report("eval", args, matrix=args.matrix, s=encode_complex(s),
                           u=encode_complex(u), order=args.order)
        rep["results"] = {"value": vb.value, "error_radius": vb.error_radius}
        return rep
    series = load_series(args.series)
    s = parse_complex(args.s)
    vb = evaluate(series, s, args.order)
    rep = _base_report("eval", args, series=args.series, s=encode_complex(s), order=args.order)
    rep["results"] = {"value": vb.value, "error_radius": vb.error_radius}
    return rep


def _cmd_psd(args) -> dict:
    kern = load_kernel(args.matrix)
    rep = _base_report("psd", args, matrix=args.matrix, max_order=args.max_order, tol=args.tol)
    try:
        cert = (
            certify_psd(kern.matrix, args.max_order, args.tol)
            if isinstance(kern.matrix, ArrowheadMatrix)
            else psd_check(kern.matrix, args.max_order, args.tol)
        )
    except HermitianError:
        # the certificate's own check decides, at the tolerance it applied
        rep["results"] = {"self_adjoint": False, "verdict": "not_self_adjoint",
                          "tolerance": HERMITIAN_TOL}
        return rep
    results = {
        "self_adjoint": True,
        "verdict": cert.verdict,
        "orders": list(cert.orders),
        "min_eigenvalues": list(cert.min_eigenvalues),
        "tolerance": cert.tolerance,
        "method": cert.method,
    }
    if cert.margin is not None:
        results["margin"] = cert.margin
    if cert.witness_order is not None:
        results["witness_order"] = cert.witness_order
        results["witness_vector"] = [encode_complex(z) for z in cert.witness_vector]
    rep["results"] = results
    return rep


def _cmd_symbols(args) -> dict:
    kern = load_kernel(args.matrix)
    sym = analytic_symbol(kern.matrix, args.n, order=args.order)
    rep = _base_report("symbols", args, matrix=args.matrix, n=args.n, order=args.order)
    rep["results"] = {
        "index": sym.index,
        "coefficients": [encode_complex(c) for c in sym.series.coefficients],
        "finite": sym.series.finite,
    }
    return rep


def _cmd_membership(args) -> dict:
    if args.query:
        q = load_membership_query(args.query)
        matrix, fhat, order, c_max = q["matrix"], q["fhat"], q["order"], q["c_max"]
    else:
        if not args.matrix or not args.fhat:
            raise SpecError("membership needs --query or --matrix plus --fhat")
        kern = load_kernel(args.matrix)
        matrix = kern.matrix
        fhat = [parse_complex(x) for x in args.fhat.split(",")]
        order, c_max = args.order, args.c_max
    res = membership_test(matrix, fhat, order, tol=args.tol, c_max=c_max)
    rep = _base_report("membership", args, order=order, c_max=c_max,
                       fhat=[encode_complex(c) for c in np.asarray(fhat, dtype=complex)])
    rep["results"] = {
        "member": res.member,
        "c_star": res.c_star,
        "order_relative": True,
        "min_eig_at_c_star": res.min_eig_at_c_star,
        "eig_trace": [[c, e] for c, e in res.eig_trace],
    }
    return rep


def _cmd_sk(args) -> dict:
    if not args.example and not args.matrix:
        raise SpecError("sk needs --matrix or --example")
    if args.example:
        matrix, report = example_arrowhead()
        rep = _base_report("sk", args, example=True, max_order=args.max_order)
        rep["results"] = report
        return rep
    kern = load_kernel(args.matrix)
    if not isinstance(kern.matrix, ArrowheadMatrix):
        raise SpecError("sk expects an arrowhead matrix")
    m = kern.matrix
    cert = psd_margin(m)
    ladder = certify_psd(m, args.max_order, args.tol)
    results = {
        "k": m.k,
        "lambda_min_head": cert.lambda_min_head,
        "coupling_sum": cert.coupling_sum,
        "coupling_sum_exact": cert.coupling_sum_exact,
        "margin": cert.margin,
        "verdict": ladder.verdict,
        "method": ladder.method,
        "orders": list(ladder.orders),
        "min_eigenvalues": list(ladder.min_eigenvalues),
        "tolerance": ladder.tolerance,
    }
    if args.growth_rho is not None:
        ok, fitted = growth_check(m, args.growth_rho, args.l_max)
        results["growth"] = {"rho": args.growth_rho, "l_max": args.l_max,
                             "bounded": ok, "fitted_C": fitted}
    rep = _base_report("sk", args, matrix=args.matrix, max_order=args.max_order, tol=args.tol)
    rep["results"] = results
    return rep


def _cmd_invariance(args) -> dict:
    kern = load_kernel(args.matrix)
    trans = translation_invariance_test(kern, args.order, tol=args.tol, seed=args.seed)
    lin = linear_invariance_test(kern, args.order, tol=min(args.tol, 1e-8))
    rep = _base_report("invariance", args, matrix=args.matrix, order=args.order, tol=args.tol)
    witness = None
    if trans.witness is not None:
        witness = {
            "b": trans.witness.b,
            "s": encode_complex(trans.witness.s),
            "u": encode_complex(trans.witness.u),
            "violation": trans.witness.violation,
        }
    rep["results"] = {
        "translation": {
            "invariant": trans.invariant,
            "structural_diagonal": trans.structural_diagonal,
            "max_deviation": trans.max_deviation,
            "witness": witness,
        },
        "linear_subgroup": {
            "constant": lin.constant,
            "invariant": lin.invariant,
            "witness_kind": lin.witness_kind,
            "witness_param": lin.witness_param,
            "violation": lin.violation,
        },
    }
    return rep


def _cmd_classify(args) -> dict:
    kern = load_kernel(args.matrix)
    if args.grid:
        grid = [parse_complex(z) for z in args.grid.split(",")]
    else:
        edge = kern.certified_sigma()
        grid = [complex(edge + off, im) for off in (0.5, 1.5, 3.0) for im in (0.0, 1.0, -2.0)]
    rep_obj = quasi_invariance_classify(kern, args.order, tol=args.tol, grid=grid)
    rep = _base_report("classify", args, matrix=args.matrix, order=args.order, tol=args.tol,
                       grid=[encode_complex(z) for z in grid])
    rep["results"] = {
        "verdict": rep_obj.verdict,
        "reason": rep_obj.reason,
        "factor": None if rep_obj.factor is None
        else [encode_complex(c) for c in rep_obj.factor],
        "singular_values": list(rep_obj.singular_values),
        "grid_values": [encode_complex(v) for v in rep_obj.grid_values],
        "nonvanishing_sigma": rep_obj.nonvanishing_sigma,
    }
    return rep


def _cmd_homog(args) -> dict:
    rep = _base_report("homog", args)
    results: dict = {}
    if args.verify:
        rng = np.random.default_rng(args.seed)
        worst = 0
        for _ in range(args.pairs):
            c = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
            b = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
            residual = homogeneity_residual(c, b)
            worst = max(worst, len(residual))
        results["homogeneity"] = {
            "pairs": args.pairs,
            "nonzero_residuals": worst,
            "exact": worst == 0,
        }
        rep["inputs"]["pairs"] = args.pairs
    if args.span:
        span = load_span(args.span)
        rep["inputs"]["span"] = args.span
        gram = translate_gram(span)
        results["gram"] = {
            "matrix": [[encode_complex(z) for z in row] for row in gram.matrix],
            "entry_radius": gram.entry_radius,
            "min_eigenvalue": gram.min_eigenvalue,
            "eigenvalue_lower_bound": gram.eigenvalue_lower_bound,
            "independent": gram.independent,
        }
        adm = admissibility_check(span.support, min(max(span.order, 4), 4096))
        results["admissibility"] = {
            "admissible_up_to": adm.admissible_up_to,
            "multiplicatively_closed": adm.multiplicatively_closed,
            "coprime_pair": list(adm.coprime_pair) if adm.coprime_pair else None,
            "checked_up_to": adm.checked_up_to,
        }
        if args.delta is not None:
            cond = adjoint_condition_check(
                span.diagonal, span.support, span.a, args.delta, span.order, rho=span.rho
            )
            results["adjoint_condition"] = {
                "verdict": cond.verdict,
                "exponent": cond.exponent,
                "partial_sum": cond.partial_sum,
                "remainder_bound": cond.remainder_bound,
                "kernel_value": None if cond.kernel_value is None
                else encode_complex(cond.kernel_value),
                "kernel_radius": cond.kernel_radius,
                "identity_residual": cond.identity_residual,
            }
    if not results:
        raise SpecError("homog needs --verify and/or --span")
    rep["results"] = results
    return rep


def _cmd_merge(args) -> dict:
    omega = math.sqrt(2.0) if args.omega == "sqrt2" else float(args.omega)
    merged = merge_log_exponents(omega, args.m_max, args.n_max)
    gaps = [b[0] - a[0] for a, b in zip(merged, merged[1:])]
    rep = _base_report("merge", args, omega=omega, m_max=args.m_max, n_max=args.n_max)
    limit = args.limit if args.limit is not None else len(merged)
    rep["results"] = {
        "count": len(merged),
        "min_gap": min(gaps) if gaps else None,
        "entries": [{"nu": nu, "m": m, "n": n} for nu, m, n in merged[:limit]],
        "collision_tolerance_relative": COLLISION_RTOL,
    }
    if args.check_multiply:
        f = load_series(args.check_multiply[0])
        g = load_series(args.check_multiply[1])
        prod = multiply_merged(f, g)
        pts = [2.5, 3.0, 4.5]
        checks = []
        for sigma in pts:
            vf, vg = evaluate(f, sigma, len(f)), evaluate(g, sigma, len(g))
            vp = evaluate(prod, sigma, len(prod))
            lhs = vf * vg
            checks.append({
                "s": sigma,
                "pointwise_product": lhs.value,
                "merged_value": vp.value,
                "difference": abs(lhs.value - vp.value),
                "combined_radius": lhs.error_radius + vp.error_radius,
            })
        rep["results"]["multiply_check"] = checks
    return rep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dskernel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, matrix=False, series=False, span=False):
        sp.add_argument("--out", default=None, help="write the report to a file")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=None)
        if matrix:
            sp.add_argument("--matrix", default=None, help="matrix spec JSON file")
        if series:
            sp.add_argument("--series", default=None, help="series spec JSON file")
        if span:
            sp.add_argument("--span", default=None, help="span spec JSON file")

    sp = sub.add_parser("eval", help="evaluate a series or kernel with certified error")
    common(sp, matrix=True, series=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--u", default=None)
    sp.add_argument("--order", type=int, default=1000)
    sp.set_defaults(fn=_cmd_eval, default_tol=None)

    sp = sub.add_parser("psd", help="eigenvalue-ladder PSD certificate")
    common(sp, matrix=True)
    sp.add_argument("--max-order", type=int, default=16, dest="max_order")
    sp.set_defaults(fn=_cmd_psd, default_tol=1e-9)

    sp = sub.add_parser("symbols", help="column symbol of the coefficient matrix")
    common(sp, matrix=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--order", type=int, default=None)
    sp.set_defaults(fn=_cmd_symbols, default_tol=None)

    sp = sub.add_parser("membership", help="order-relative membership: closed-form least c")
    common(sp, matrix=True)
    sp.add_argument("--query", default=None, help="full membership query JSON")
    sp.add_argument("--fhat", default=None, help="comma-separated coefficients")
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--c-max", type=float, default=1e6, dest="c_max")
    sp.set_defaults(fn=_cmd_membership, default_tol=1e-9)

    sp = sub.add_parser("sk", help="arrowhead margin and PSD certification")
    common(sp, matrix=True)
    sp.add_argument("--max-order", type=int, default=16, dest="max_order")
    sp.add_argument("--example", action="store_true",
                    help="run the bundled negative-margin example")
    sp.add_argument("--growth-rho", type=float, default=None, dest="growth_rho")
    sp.add_argument("--l-max", type=int, default=32, dest="l_max")
    sp.set_defaults(fn=_cmd_sk, default_tol=1e-9)

    sp = sub.add_parser("invariance", help="translation / linear-subgroup invariance")
    common(sp, matrix=True)
    sp.add_argument("--order", type=int, default=16)
    sp.set_defaults(fn=_cmd_invariance, default_tol=1e-6)

    sp = sub.add_parser("classify", help="quasi-invariance classification")
    common(sp, matrix=True)
    sp.add_argument("--order", type=int, default=16)
    sp.add_argument("--grid", default=None, help="comma-separated grid points")
    sp.set_defaults(fn=_cmd_classify, default_tol=1e-8)

    sp = sub.add_parser("homog", help="homogeneity sweep / translate Gram analysis")
    common(sp, span=True)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--pairs", type=int, default=1000)
    sp.add_argument("--delta", type=float, default=None)
    sp.set_defaults(fn=_cmd_homog, default_tol=None)

    sp = sub.add_parser("merge", help="merged exponent enumeration")
    common(sp)
    sp.add_argument("--omega", required=True, help='number or "sqrt2"')
    sp.add_argument("--m-max", type=int, required=True, dest="m_max")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--limit", type=int, default=None, help="cap printed entries")
    sp.add_argument("--check-multiply", nargs=2, default=None, dest="check_multiply",
                    metavar=("F", "G"))
    sp.set_defaults(fn=_cmd_merge, default_tol=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol is None:
        args.tol = args.default_tol
    try:
        _emit(args.fn(args), args)
    except (SpecError, CollisionError, ConvergenceRegionError, OutsideDomainError,
            HermitianError, RecoveryError, CertificationError, FileNotFoundError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except InternalCheckError as exc:
        return _fail("InternalCheckError", str(exc), 3)
    except DskernelError as exc:
        return _fail(type(exc).__name__, str(exc), 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
