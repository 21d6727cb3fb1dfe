"""Span recorder for the dskernel benchmark.

The recorder wraps the public functions of every ``dskernel`` module from
the outside: it replaces the function objects in each module namespace that
holds them (so ``dskernel.symmetry.kernel_eval`` and ``dskernel.cli.main``
are caught as well as the defining module's names), patches the methods of
the matrix and rule classes, and gives every ``dskernel`` module a private
copy of ``numpy`` whose ``linalg`` functions are wrapped.  Nothing inside
``src/`` changes.

Spans (name, start, end, parent, answer id) are kept in memory and written
out when the run ends.  Scalar accessors that run once per matrix entry
(``SequenceRule.value``, ``entry``, ``tail_value``, ``coupling_value``) are
counted, not timed: a span per call would cost more than the call itself,
so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

#: the modules of ``src/dskernel`` (each a layer) plus ``linalg``, the
#: ``numpy.linalg`` calls made from them
LAYERS = (
    "cli", "io", "rules", "matrices", "linalg", "kernel", "series", "rkhs",
    "structured", "symmetry", "homogeneous",
)

#: module-level functions wrapped with a span: (module, function, span name)
FUNCTION_SPANS = [
    ("cli", "main", "cli.main"),
    ("io", "load_kernel", "io.load"),
    ("io", "load_matrix", "io.load"),
    ("io", "load_series", "io.load"),
    ("io", "load_span", "io.load"),
    ("io", "load_membership_query", "io.load"),
    ("io", "dump_report", "io.dump_report"),
    ("rules", "rule_from_spec", "rules.rule_from_spec"),
    ("rules", "weighted_ratio_sum", "rules.weighted_ratio_sum"),
    ("kernel", "kernel_eval", "kernel.kernel_eval"),
    ("kernel", "psd_check", "kernel.psd_check"),
    ("kernel", "self_adjoint_check", "kernel.self_adjoint_check"),
    ("kernel", "bandwidth_detect", "kernel.bandwidth_detect"),
    ("kernel", "recover_block", "kernel.recover_block"),
    ("kernel", "coefficient_recover", "kernel.coefficient_recover"),
    ("kernel", "tail_bound", "kernel.tail_bound"),
    ("series", "evaluate", "series.evaluate"),
    ("series", "merge_log_exponents", "series.merge_log_exponents"),
    ("series", "multiply_merged", "series.multiply_merged"),
    ("rkhs", "analytic_symbol", "rkhs.analytic_symbol"),
    ("rkhs", "expansion_check", "rkhs.expansion_check"),
    ("rkhs", "membership_test", "rkhs.membership_test"),
    ("rkhs", "reproducing_check", "rkhs.reproducing_check"),
    ("rkhs", "infinity_kernel", "rkhs.infinity_kernel"),
    ("structured", "certify_psd", "structured.certify_psd"),
    ("structured", "psd_margin", "structured.psd_margin"),
    ("structured", "coupling_sum", "structured.coupling_sum"),
    ("structured", "perturbation_psd", "structured.perturbation_psd"),
    ("structured", "growth_check", "structured.growth_check"),
    ("structured", "example_arrowhead", "structured.example_arrowhead"),
    ("symmetry", "translation_invariance_test", "symmetry.translation_invariance_test"),
    ("symmetry", "linear_invariance_test", "symmetry.linear_invariance_test"),
    ("symmetry", "quasi_invariance_classify", "symmetry.quasi_invariance_classify"),
    ("symmetry", "rank_one_factor", "symmetry.rank_one_factor"),
    ("homogeneous", "translate_gram", "homogeneous.translate_gram"),
    ("homogeneous", "homogeneity_residual", "homogeneous.homogeneity_residual"),
    ("homogeneous", "admissibility_check", "homogeneous.admissibility_check"),
    ("homogeneous", "adjoint_condition_check", "homogeneous.adjoint_condition_check"),
    ("homogeneous", "apply_generator", "homogeneous.apply_generator"),
    ("homogeneous", "apply_shift", "homogeneous.apply_shift"),
]

#: methods wrapped with a span, on every class of the module that defines them
METHOD_SPANS = [
    ("matrices", "truncation", "matrices.truncation"),
    ("matrices", "column_prefix", "matrices.prefix"),
    ("matrices", "row_prefix", "matrices.prefix"),
    ("matrices", "diagonal_prefix", "matrices.prefix"),
    ("matrices", "factor_prefix", "matrices.prefix"),
    ("rules", "prefix", "rules.prefix"),
    ("series", "ordinary", "series.ordinary"),
]

#: methods that are only counted (once per matrix entry or rule value)
METHOD_COUNTS = [
    ("matrices", "entry", "matrices.entry"),
    ("matrices", "tail_value", "matrices.entry"),
    ("matrices", "coupling_value", "matrices.entry"),
    ("rules", "value", "rules.value"),
]

#: the numpy.linalg functions dskernel calls
LINALG_SPANS = ("eigh", "eigvalsh", "svd", "lstsq", "norm")
#: symmetry calls that end in an invariance verdict
SYMMETRY_VERDICTS = (
    "symmetry.translation_invariance_test",
    "symmetry.linear_invariance_test",
    "symmetry.quasi_invariance_classify",
)


def _factorisation_flops(name: str, args) -> int:
    """Sum of n**3 per factorisation (m*n*min(m, n) when not square), from shapes."""
    if name not in ("eigh", "eigvalsh", "svd", "lstsq") or not args:
        return 0
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    return m * n * min(m, n)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _account(recorder: "Recorder", name: str, args, kwargs, result) -> None:
    """Work counts attached to a finished span."""
    c = recorder.counts
    if name == "kernel.kernel_eval":
        c["kernel.kernel_eval.terms"] += int(_arg(args, kwargs, 3, "order"))
        recorder.add_radius("kernel", result.error_radius)
    elif name == "series.evaluate":
        c["series.evaluate.terms"] += int(_arg(args, kwargs, 2, "order"))
        recorder.add_radius("series", result.error_radius)
    elif name == "kernel.psd_check":
        c["kernel.psd_check.rungs"] += len(result.orders)
    elif name == "rkhs.membership_test":
        recorder.samples["rkhs.membership_test.probes"].append(len(result.eig_trace))
    elif name == "homogeneous.translate_gram":
        span = _arg(args, kwargs, 0, "span")
        pairs = len(span.offsets) * (len(span.offsets) + 1) // 2
        c["homogeneous.translate_gram.phase_terms"] += pairs * len(
            span.support.indices_up_to(span.order))
    elif name == "matrices.truncation":
        n = int(_arg(args, kwargs, 1, "N"))
        c["matrices.truncation.entries"] += n * n
    elif name == "io.dump_report":
        c["io.dump_report.bytes"] += len(result)


class Recorder:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, answer id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.answer = -1
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def add_radius(self, layer: str, radius: float) -> None:
        if math.isfinite(radius) and radius > 0.0:
            self.samples[f"{layer}.radius_log10"].append(math.log10(radius))

    def span_wrapper(self, name: str, fn, linalg_name: str = ""):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.answer]
            rec.spans.append(span)
            rec.stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec.stack.pop()
            rec.counts[name + ".calls"] += 1
            if linalg_name:
                rec.counts["linalg.flops_computed"] += _factorisation_flops(linalg_name, args)
            else:
                _account(rec, name, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                           else getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every listed function, method and numpy.linalg call of dskernel."""
        import importlib

        import numpy

        for modname in {m for m, _, _ in FUNCTION_SPANS + METHOD_SPANS + METHOD_COUNTS}:
            importlib.import_module(f"dskernel.{modname}")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "dskernel" or n.startswith("dskernel."))]
        for modname, fname, span in FUNCTION_SPANS:
            original = getattr(sys.modules[f"dskernel.{modname}"], fname)
            wrapped = self.span_wrapper(span, original)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, attr, wrapped)
        for table, maker in ((METHOD_SPANS, self.span_wrapper), (METHOD_COUNTS, self.count_wrapper)):
            for modname, meth, name in table:
                mod = sys.modules[f"dskernel.{modname}"]
                for cls in vars(mod).values():
                    if isinstance(cls, type) and cls.__module__ == mod.__name__ and meth in cls.__dict__:
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(maker(name, raw.__func__))
                        else:
                            wrapped = maker(name, raw)
                        self._set(cls, meth, wrapped)
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(numpy.linalg.__dict__)
        for fname in LINALG_SPANS:
            setattr(linalg, fname, self.span_wrapper(f"linalg.{fname}", getattr(numpy.linalg, fname),
                                                     linalg_name=fname))
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(numpy.__dict__)
        proxy.linalg = linalg
        for mod in mods:
            if getattr(mod, "np", None) is numpy:
                self._set(mod, "np", proxy)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- analysis ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, answer in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "answer": answer}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[j][1], start), min(spans[j][2], end)) for j in children[i]):
            if b <= reach:
                continue
            covered += b - max(a, reach)
            reach = b
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer calls, busy time and self time plus the named per-layer counts."""
    spans = recorder.spans
    selfs = self_times(spans)
    m: dict[str, float] = {}
    self_by_name: Counter = Counter()
    for (name, *_), st in zip(spans, selfs):
        self_by_name[name] += st
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.busy_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    for key, n in recorder.counts.items():
        if key.endswith(".calls") and _layer(key) in LAYERS:
            m[f"{_layer(key)}.calls"] += n
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = _layer(name)
        m[f"{layer}.self_s"] += selfs[i]
        # busy time counts the outermost span of a layer only
        p = parent
        while p >= 0 and _layer(spans[p][0]) != layer:
            p = spans[p][3]
        if p < 0:
            m[f"{layer}.busy_s"] += end - start
    c = recorder.counts
    for key in ("cli.main", "io.load", "io.dump_report", "kernel.kernel_eval", "kernel.psd_check",
                "kernel.recover_block", "series.evaluate", "rkhs.membership_test",
                "rkhs.expansion_check", "structured.certify_psd", "structured.psd_margin",
                "symmetry.quasi_invariance_classify", "homogeneous.translate_gram",
                "homogeneous.homogeneity_residual"):
        m[f"{key}.self_s"] = self_by_name[key]
    for key in ("rules.value", "rules.prefix", "matrices.truncation", "matrices.entry",
                "matrices.prefix", "linalg.eigh", "linalg.eigvalsh", "linalg.svd", "linalg.lstsq",
                "kernel.kernel_eval", "kernel.psd_check", "series.evaluate"):
        m[f"{key}.calls"] = c[f"{key}.calls"]
    for key in ("matrices.truncation.entries", "linalg.flops_computed", "kernel.kernel_eval.terms",
                "kernel.psd_check.rungs", "series.evaluate.terms", "io.dump_report.bytes",
                "homogeneous.translate_gram.phase_terms"):
        m[key] = c[key]
    for layer in ("kernel", "series"):
        radii = recorder.samples[f"{layer}.radius_log10"]
        m[f"{layer}.radius_log10_p50"] = statistics.median(radii) if radii else 0.0
    probes = recorder.samples["rkhs.membership_test.probes"]
    m["rkhs.membership_test.probes"] = statistics.mean(probes) if probes else 0.0
    m["symmetry.kernel_evals_per_verdict"] = kernel_evals_per_verdict(spans)
    m["trace.busy_s"] = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return m


def kernel_evals_per_verdict(spans) -> float:
    """kernel_eval spans under an invariance verdict, per verdict."""
    verdicts = {i for i, s in enumerate(spans) if s[0] in SYMMETRY_VERDICTS}
    evals = 0
    for name, _, _, parent, _ in spans:
        if name != "kernel.kernel_eval":
            continue
        p = parent
        while p >= 0 and p not in verdicts:
            p = spans[p][3]
        evals += p >= 0
    return evals / len(verdicts) if verdicts else 0.0
