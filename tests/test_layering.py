"""The package's import layering, read from its source with ``ast``: no module is imported to check it.

``series`` holds the certified sums (balls, direct sums, Euler-Maclaurin and zeta) and ``rules`` builds on it,
so ``series`` imports nothing from ``rules``.  Package modules import each other at module level: the only
imports inside a function are the lazy ones by design, in the CLI's command handlers (each loads what its
command runs) and in ``io.load_span`` (only the span commands load ``homogeneous``).  A sequence rule's
ratio and exponent are raised to a power in its one formula only, which ``value`` and ``prefix`` share.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dskernel"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def lazy_by_design(module: str, function: str) -> bool:
    return (module == "cli" and function.startswith("_cmd_")) or (module, function) == ("io", "load_span")


def package_imports(module: str) -> list[tuple[str, str, int]]:
    """(imported package module, enclosing function or "", line) for every import of a dskernel module."""
    found = []

    def visit(node, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            targets = []
            if isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level == 1 or base == "dskernel" or base.startswith("dskernel."):
                    base = base.removeprefix("dskernel").lstrip(".")
                    targets = [base] if base else [alias.name for alias in child.names]
            elif isinstance(child, ast.Import):
                targets = [a.name.removeprefix("dskernel.") for a in child.names if a.name.startswith("dskernel.")]
            found.extend((target, function, child.lineno) for target in targets)
            visit(child, function)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "")
    return found


def test_the_package_modules_are_found():
    assert {"cli", "io", "rules", "series", "matrices", "kernel", "homogeneous"} <= set(MODULES)


def test_series_imports_nothing_from_rules():
    assert [(line, target) for target, _, line in package_imports("series") if target == "rules"] == []


def test_no_name_of_series_is_read_through_rules():
    """``rules`` imports what it uses from ``series`` and re-exports none of it, to the package or to the tests."""
    body = ast.parse((PACKAGE / "series.py").read_text()).body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    assert {"partial_zeta", "zeta_tails", "em_start", "_em_tail", "UNIT_ROUNDOFF", "CACHE_LIMIT"} <= defined
    for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "rules":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "rules":
                names = {node.attr}
            else:
                continue
            assert not names & defined, f"{path.name}:{node.lineno} reads {sorted(names & defined)} through rules"


@pytest.mark.parametrize("module", MODULES)
def test_no_package_import_inside_a_function(module):
    deferred = [(function, line, target) for target, function, line in package_imports(module)
                if function and not lazy_by_design(module, function)]
    assert deferred == [], f"{module}.py imports package modules inside functions"


def test_the_lazy_imports_by_design_are_there():
    """The exceptions above name real imports: every CLI handler and ``io.load_span``."""
    cli = {function for _, function, _ in package_imports("cli") if function}
    assert len(cli) >= 8 and all(f.startswith("_cmd_") for f in cli)
    assert ("homogeneous", "load_span") in {(t, f) for t, f, _ in package_imports("io")}


#: where a rule's ratio or exponent may be raised to a power: the one formula of ``SequenceRule``
RULE_POWERS = {("rules", "SequenceRule._formula")}


def rule_powers(module: str) -> set[tuple[str, str]]:
    """(module, enclosing class.function) of every ``**`` with a ``.ratio`` or ``.exponent`` operand."""
    found = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow) and any(
                    isinstance(side, ast.Attribute) and side.attr in ("ratio", "exponent")
                    for side in (child.left, child.right)):
                found.add((module, scope))
            visit(child, scope)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "")
    return found


def test_a_rule_is_evaluated_by_one_formula():
    """``value`` and ``prefix`` read the same formula, so no other code raises a rule's ratio or exponent."""
    found = set().union(*(rule_powers(module) for module in MODULES))
    assert found - RULE_POWERS == set()
    assert ("rules", "SequenceRule._formula") in found


#: the kinds whose rules share one formula: what a rule is, beyond an explicit list, is asked of ``rules``
RULE_KIND_NAMES = {"constant", "geometric", "power"}


def rule_kind_compares(module: str) -> list[tuple[str, int]]:
    """(module, line) of every comparison with a rule-kind name, alone or in a tuple, list or set."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            operands += [e for x in operands if isinstance(x, (ast.Tuple, ast.List, ast.Set)) for e in x.elts]
            if any(isinstance(x, ast.Constant) and x.value in RULE_KIND_NAMES for x in operands):
                found.append((module, node.lineno))
    return found


def test_only_rules_compares_with_a_rule_kind_name():
    """Code outside ``rules`` reads a rule through ``power_law``, ``poly_bound`` and the like, never its kind."""
    assert [hit for module in MODULES if module != "rules" for hit in rule_kind_compares(module)] == []
    assert rule_kind_compares("rules")  # the guard sees the comparisons that are allowed


def tol_keywords(module: str) -> list[tuple[int, str]]:
    """(line, source) of every ``tol=`` keyword in the module's command handlers, ``_cmd_*``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [(kw.value.lineno, ast.unparse(kw.value)) for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")
            for node in ast.walk(f) if isinstance(node, ast.Call) for kw in node.keywords if kw.arg == "tol"]


def test_every_handler_passes_the_tol_it_echoes():
    """A command runs each test at the one ``--tol`` its report echoes: no handler narrows or widens it."""
    found = tol_keywords("cli")
    assert found, "the guard sees the handlers' tol keywords"
    assert [(line, text) for line, text in found if text != "args.tol"] == []
