"""Batch command-line front-end.

Subcommands map one-to-one onto the library modules and emit deterministic
machine-readable reports (JSON by default, CSV for trace tables).  Exit
code policy: mathematical negatives (a kernel failing PSD, a series failing
membership) are successful analyses and exit 0; only bad input (2:
malformed, unreadable, or too large to hold) and internal cross-check
failures (3) are errors, so pipelines can tell "the kernel is not PSD" from
"the tool broke".  Each handler imports the library modules it calls, so a
command loads only those beside ``io`` and what ``io`` reads.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import DskernelError, HermitianError, InternalCheckError, SpecError
from .io import dump_csv, dump_report, load_kernel, load_membership_query, load_series, load_span, parse_complex

SCHEMA = "dskernel-report/1"


def _report(args: argparse.Namespace, results, **inputs) -> dict:
    """The report around a handler's results, which ``dump_report`` encodes as they come."""
    return {"schema": SCHEMA, "version": __version__, "command": args.command,
            "inputs": inputs, "results": results}


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = dump_csv(report) if args.format == "csv" else dump_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(args: argparse.Namespace, kind: str, message: str, code: int) -> int:
    """Emit an error report as ``--format``/``--out`` ask; as JSON on stdout if ``--out`` cannot be written."""
    report = {"schema": SCHEMA, "error": {"kind": kind, "message": message}}
    try:
        _emit(report, args)
    except OSError:
        sys.stdout.write(dump_report(report))
    return code


# -- subcommand handlers -----------------------------------------------------


def _cmd_eval(args) -> dict:
    from .kernel import kernel_eval
    from .series import evaluate

    # numpy stays quiet on a term that overflows: both evaluations refuse its value with a SpecError
    with np.errstate(over="ignore", invalid="ignore"):
        if args.matrix:
            kern = load_kernel(args.matrix)
            s = parse_complex(args.s)
            u = parse_complex(args.u if args.u is not None else args.s)
            return _report(args, kernel_eval(kern, s, u, args.order),
                           matrix=args.matrix, s=s, u=u, order=args.order)
        if not args.series:
            raise SpecError("eval needs --series or --matrix")
        series = load_series(args.series)
        s = parse_complex(args.s)
        return _report(args, evaluate(series, s, args.order), series=args.series, s=s, order=args.order)


def _cmd_psd(args) -> dict:
    from .kernel import HERMITIAN_TOL, psd_check
    from .matrices import ArrowheadMatrix

    kern = load_kernel(args.matrix)
    certify = psd_check
    if isinstance(kern.matrix, ArrowheadMatrix):
        from .structured import certify_psd as certify
    try:
        results = {"self_adjoint": True, **asdict(certify(kern.matrix, args.max_order, args.tol))}
    except HermitianError:
        # the certificate's own check decides, at the tolerance it applied
        results = {"self_adjoint": False, "verdict": "not_self_adjoint", "tolerance": HERMITIAN_TOL}
    return _report(args, results, matrix=args.matrix, max_order=args.max_order, tol=args.tol)


def _cmd_symbols(args) -> dict:
    from .rkhs import analytic_symbol

    sym = analytic_symbol(load_kernel(args.matrix).matrix, args.n, order=args.order)
    results = {"index": sym.index, "coefficients": sym.series.coefficients,
               "finite": sym.series.finite}
    return _report(args, results, matrix=args.matrix, n=args.n, order=args.order)


def _cmd_membership(args) -> dict:
    from .rkhs import membership_test

    if args.query:
        q = load_membership_query(args.query)
        matrix, fhat, order, c_max = q["matrix"], q["fhat"], q["order"], q["c_max"]
    else:
        if not args.matrix or not args.fhat:
            raise SpecError("membership needs --query or --matrix plus --fhat")
        matrix = load_kernel(args.matrix).matrix
        fhat = [parse_complex(x) for x in args.fhat.split(",")]
        order, c_max = args.order, args.c_max
    source = {"query": args.query} if args.query else {"matrix": args.matrix}
    res = membership_test(matrix, fhat, order, tol=args.tol, c_max=c_max)
    return _report(args, {**asdict(res), "order_relative": True},
                   order=order, c_max=c_max, fhat=fhat, tol=args.tol, **source)


def _cmd_sk(args) -> dict:
    from .matrices import ArrowheadMatrix
    from .structured import certify_arrowhead, example_arrowhead, growth_check

    if args.l_max < 1:  # refused even when --growth-rho, which reads it, is absent
        raise SpecError(f"--l-max must be >= 1, got {args.l_max}")
    if args.example:
        _, results = example_arrowhead(args.max_order, args.tol)
        return _report(args, results, example=True, max_order=args.max_order, tol=args.tol)
    if not args.matrix:
        raise SpecError("sk needs --matrix or --example")
    m = load_kernel(args.matrix).matrix
    if not isinstance(m, ArrowheadMatrix):
        raise SpecError("sk expects an arrowhead matrix")
    ladder, margin = certify_arrowhead(m, args.max_order, args.tol)
    # a witnessed not_psd whose margin certificate was refused reports the ladder alone, as psd does
    results = {**(asdict(margin) if margin is not None else {}), **asdict(ladder)}
    if args.growth_rho is not None:
        ok, fitted = growth_check(m, args.growth_rho, args.l_max)
        results["growth"] = {"rho": args.growth_rho, "l_max": args.l_max,
                             "bounded": ok, "fitted_C": fitted}
    return _report(args, results, matrix=args.matrix, max_order=args.max_order, tol=args.tol)


def _cmd_invariance(args) -> dict:
    from .symmetry import linear_invariance_test, translation_invariance_test

    kern = load_kernel(args.matrix)
    results = {
        "translation": translation_invariance_test(kern, args.order, tol=args.tol, seed=args.seed),
        "linear_subgroup": linear_invariance_test(kern, args.order, tol=args.tol),
    }
    return _report(args, results, matrix=args.matrix, order=args.order, tol=args.tol, seed=args.seed)


def _cmd_classify(args) -> dict:
    from .symmetry import quasi_invariance_classify

    kern = load_kernel(args.matrix)
    if args.grid:
        grid = [parse_complex(z) for z in args.grid.split(",")]
    else:
        edge = kern.certified_sigma()
        grid = [complex(edge + off, im) for off in (0.5, 1.5, 3.0) for im in (0.0, 1.0, -2.0)]
    return _report(args, quasi_invariance_classify(kern, args.order, tol=args.tol, grid=grid),
                   matrix=args.matrix, order=args.order, tol=args.tol, grid=grid)


def _cmd_homog(args) -> dict:
    from .homogeneous import adjoint_condition_check, admissibility_check, homogeneity_residual, translate_gram
    from .series import MAX_LENGTH

    inputs, results = {}, {}
    if args.verify:
        if not 1 <= args.pairs <= MAX_LENGTH:
            raise SpecError(f"--pairs must be >= 1 and <= {MAX_LENGTH}, got {args.pairs}")
        rng = np.random.default_rng(args.seed)
        draws = [rng.integers(lo, hi, args.pairs).tolist() for lo, hi in ((-50, 51), (1, 13)) * 2]
        worst = max(len(homogeneity_residual(Fraction(p, q), Fraction(r, s))) for p, q, r, s in zip(*draws))
        results["homogeneity"] = {"pairs": args.pairs, "nonzero_residuals": worst, "exact": worst == 0}
        inputs["pairs"] = args.pairs
    if args.span:
        span = load_span(args.span)
        inputs["span"] = args.span
        results["gram"] = translate_gram(span)
        results["admissibility"] = admissibility_check(span.support)
        if args.delta is not None:
            inputs["delta"] = args.delta
            results["adjoint_condition"] = adjoint_condition_check(span, args.delta)
    if not results:
        raise SpecError("homog needs --verify and/or --span")
    return _report(args, results, seed=args.seed, **inputs)


def _cmd_merge(args) -> dict:
    from .series import COLLISION_RTOL, evaluate, merge_log_exponents, multiply_merged

    try:
        omega = math.sqrt(2.0) if args.omega == "sqrt2" else float(args.omega)
    except ValueError:
        raise SpecError(f'--omega must be a number or "sqrt2", got {args.omega!r}') from None
    if args.limit is not None and args.limit < 0:
        raise SpecError(f"--limit must be >= 0, got {args.limit}")
    merged = merge_log_exponents(omega, args.m_max, args.n_max)
    gaps = [b[0] - a[0] for a, b in zip(merged, merged[1:])]
    results = {
        "count": len(merged),
        "min_gap": min(gaps) if gaps else None,
        "entries": [{"nu": nu, "m": m, "n": n} for nu, m, n in merged[:args.limit]],
        "collision_tolerance_relative": COLLISION_RTOL,
    }
    if args.check_multiply:
        f, g = (load_series(path) for path in args.check_multiply)
        prod = multiply_merged(f, g)
        checks = []
        for sigma in (2.5, 3.0, 4.5):
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
        results["multiply_check"] = checks
    return _report(args, results, omega=omega, m_max=args.m_max, n_max=args.n_max, limit=args.limit,
                   check_multiply=args.check_multiply)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dskernel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, matrix=False, series=False, span=False, tol=None, seed=False):
        sp.add_argument("--out", default=None, help="write the report to a file")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)
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
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("psd", help="eigenvalue-ladder PSD certificate")
    common(sp, matrix=True, tol=1e-9)
    sp.add_argument("--max-order", type=int, default=16, dest="max_order")
    sp.set_defaults(fn=_cmd_psd)

    sp = sub.add_parser("symbols", help="column symbol of the coefficient matrix")
    common(sp, matrix=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--order", type=int, default=None)
    sp.set_defaults(fn=_cmd_symbols)

    sp = sub.add_parser("membership", help="order-relative membership: closed-form least c")
    common(sp, matrix=True, tol=1e-9)
    sp.add_argument("--query", default=None, help="full membership query JSON")
    sp.add_argument("--fhat", default=None, help="comma-separated coefficients")
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--c-max", type=float, default=1e6, dest="c_max")
    sp.set_defaults(fn=_cmd_membership)

    sp = sub.add_parser("sk", help="arrowhead margin and PSD certification")
    common(sp, matrix=True, tol=1e-9)
    sp.add_argument("--max-order", type=int, default=16, dest="max_order")
    sp.add_argument("--example", action="store_true",
                    help="run the bundled negative-margin example")
    sp.add_argument("--growth-rho", type=float, default=None, dest="growth_rho")
    sp.add_argument("--l-max", type=int, default=32, dest="l_max")
    sp.set_defaults(fn=_cmd_sk)

    sp = sub.add_parser("invariance", help="translation / linear-subgroup invariance")
    common(sp, matrix=True, tol=1e-6, seed=True)
    sp.add_argument("--order", type=int, default=16)
    sp.set_defaults(fn=_cmd_invariance)

    sp = sub.add_parser("classify", help="quasi-invariance classification")
    common(sp, matrix=True, tol=1e-8)
    sp.add_argument("--order", type=int, default=16)
    sp.add_argument("--grid", default=None, help="comma-separated grid points")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("homog", help="homogeneity sweep / translate Gram analysis")
    common(sp, span=True, seed=True)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--pairs", type=int, default=1000)
    sp.add_argument("--delta", type=float, default=None)
    sp.set_defaults(fn=_cmd_homog)

    sp = sub.add_parser("merge", help="merged exponent enumeration")
    common(sp)
    sp.add_argument("--omega", required=True, help='number or "sqrt2"')
    sp.add_argument("--m-max", type=int, required=True, dest="m_max")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--limit", type=int, default=None, help="cap printed entries")
    sp.add_argument("--check-multiply", nargs=2, default=None, dest="check_multiply",
                    metavar=("F", "G"))
    sp.set_defaults(fn=_cmd_merge)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take only non-negative seeds
            raise SpecError(f"--seed must be >= 0, got {args.seed}")
        _emit(args.fn(args), args)
    except InternalCheckError as exc:
        return _fail(args, type(exc).__name__, str(exc), 3)
    except (DskernelError, OSError) as exc:
        return _fail(args, type(exc).__name__, str(exc), 2)
    except MemoryError as exc:  # an input too large to hold (numpy raises a private subclass)
        return _fail(args, "MemoryError", str(exc), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
