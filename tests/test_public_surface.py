"""Every function that ``dskernel`` exports, and every public method,
property and classmethod of its classes, is reached by the program or by
the benchmark.

A function counts as reached when the code (not the comments or
docstrings) of the package's modules outside its own body and outside
``__init__``, which only re-exports it, or the code of the benchmark's
workloads or tracer (``perfbench/workloads.py``, ``perfbench/tracing.py``,
where the traced functions are named in strings) calls it: by a name that
is no parameter or local of the enclosing function, or as an attribute of
a ``dskernel`` module (``dk.psd_check``, ``homogeneous.apply_shift``).  A
member counts by its name alone, whichever class it is called on.  A
function or member that only its own tests call is dead weight on the
public surface: wire it into a command or delete it.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import dskernel

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dskernel"
BENCHMARK = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "tracing.py"]


STEMS = {path.stem for path in PACKAGE.glob("*.py")}


def module_aliases(tree: ast.Module) -> set:
    """Names the module binds to ``dskernel`` or one of its modules, anywhere in its code."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name == "dskernel" or a.name.startswith("dskernel.")}
        elif isinstance(node, ast.ImportFrom) and (node.module == "dskernel" or node.level and node.module is None):
            aliases |= {a.asname or a.name for a in node.names if a.name in STEMS}
    return aliases


def function_locals(node) -> set:
    """The parameters of a function or lambda and the names its own body binds; an imported name stays a module name."""
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    stack = list(node.body) if isinstance(node.body, list) else [node.body]
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)
            continue  # a scope of its own
        if not isinstance(child, ast.Lambda):
            stack.extend(ast.iter_child_nodes(child))
    return names


def code_names(path: pathlib.Path, strings: bool) -> tuple:
    """(callers, identifiers) of a module's code: the functions it calls, and every name and attribute it uses.

    A name counts as a caller when it is read and is no parameter or local
    of an enclosing function; an attribute when it is read off a
    ``dskernel`` module (``module_aliases``), directly or through its
    modules (``dk.kernel.psd_check``).  With strings, the dotted parts of
    its string constants count as both.  A function's name inside its own
    body (a recursive call) does not count, docstrings are left out, and
    comments never reach the AST.
    """
    tree = ast.parse(path.read_text())
    aliases = module_aliases(tree)
    callers, identifiers = set(), set()

    def on_module(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in STEMS and on_module(node.value)
        return isinstance(node, ast.Name) and node.id in aliases

    def visit(node, enclosing: frozenset, bound: frozenset) -> None:
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            if not isinstance(node, (ast.Module, ast.ClassDef)):
                enclosing |= {node.name}
                bound |= function_locals(node)
                body = body + node.decorator_list + [node.args]
            for child in body:
                visit(child, enclosing, bound)
            return
        if isinstance(node, ast.Lambda):
            bound |= function_locals(node)
        if isinstance(node, ast.Name) and node.id not in enclosing:
            identifiers.add(node.id)
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                callers.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            identifiers.add(node.attr)
            if on_module(node.value):
                callers.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            identifiers.update(node.value.split("."))
            callers.update(node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, bound)

    visit(tree, frozenset(), frozenset())
    return callers, identifiers


def exported_functions() -> list:
    """Names of the public functions of ``dskernel``: the functions among ``__all__``, which the root resolves lazily."""
    return [name for name in dskernel.__all__ if inspect.isfunction(getattr(dskernel, name))]


def class_members(module) -> dict:
    """``module.Class.member`` -> member name, for the public methods, properties, classmethods
    and staticmethods of the classes the module defines (not those it imports)."""
    stem = module.__name__.rpartition(".")[2]
    members = {}
    for cname, cls in vars(module).items():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            for name, obj in vars(cls).items():
                if not name.startswith("_") and (
                        inspect.isfunction(obj) or isinstance(obj, (property, classmethod, staticmethod))):
                    members[f"{stem}.{cname}.{name}"] = name
    return members


def package_members() -> dict:
    """``class_members`` of every module of the package."""
    members = {}
    for path in sorted(PACKAGE.glob("*.py")):
        members.update(class_members(importlib.import_module(f"dskernel.{path.stem}")))
    return members


def reached_names(part: int) -> set:
    """Callers (part 0) or identifiers (part 1) of the package's modules (``__init__`` aside) and the benchmark's workloads and tracer."""
    return set().union(
        *(code_names(p, strings=False)[part] for p in PACKAGE.glob("*.py") if p.stem != "__init__"),
        *(code_names(p, strings=True)[part] for p in BENCHMARK),
    )


def test_every_exported_function_is_reached():
    assert sorted(set(exported_functions()) - reached_names(0)) == []


def test_every_class_member_is_reached():
    reached = reached_names(1)
    unreached = sorted(qualified for qualified, name in package_members().items() if name not in reached)
    assert not unreached, "class members no module or workload reaches: " + ", ".join(unreached)


def test_the_scan_sees_code_and_not_docstrings(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""psd_check in a docstring."""\n# kernel_eval in a comment\nx = ("kernel", "kernel.tail_bound")\n'
                    "def f():\n    \"\"\"bandwidth_detect\"\"\"\n    return evaluate(1).merge_log_exponents\n"
                    "def g(n):\n    return g(n - 1) if n else f()\n")
    identifiers = {"x", "evaluate", "merge_log_exponents", "n", "f"}
    assert code_names(path, strings=False) == ({"evaluate", "f"}, identifiers)
    assert code_names(path, strings=True) == ({"evaluate", "f", "kernel", "tail_bound"},
                                              identifiers | {"kernel", "tail_bound"})


def test_a_parameter_a_local_or_a_foreign_attribute_is_no_caller(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import dskernel as dk\nfrom . import homogeneous\n\n\n"
                    "def f(delta, args, *rest):\n    span = [x for x in rest]\n    g = lambda h: h\n"
                    "    try:\n        pass\n    except ValueError as err:\n        err\n"
                    "    return delta(span), args.translate_gram, g(1), dk.psd_check, homogeneous.apply_shift, "
                    "dk.kernel.tail_bound, args.kernel.bandwidth_detect, kernel_eval\n")
    callers, identifiers = code_names(path, strings=False)
    assert callers == {"ValueError", "dk", "homogeneous", "psd_check", "apply_shift", "kernel", "tail_bound",
                       "kernel_eval"}
    assert {"delta", "span", "translate_gram", "bandwidth_detect", "g", "h", "err"} <= identifiers


def test_the_class_scan_sees_public_members_of_its_own_classes(tmp_path, monkeypatch):
    path = tmp_path / "m.py"
    path.write_text("from dataclasses import dataclass\nfrom pathlib import Path\n\n\n@dataclass\nclass A:\n"
                    "    x: int = 0\n\n    def f(self): ...\n    def _g(self): ...\n    def __call__(self): ...\n"
                    "    @property\n    def p(self): ...\n    @classmethod\n    def c(cls): ...\n"
                    "    @staticmethod\n    def s(): ...\n\n\nclass _B:\n    def h(self): ...\n")
    spec = importlib.util.spec_from_file_location("pkg.m", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "pkg.m", module)
    spec.loader.exec_module(module)
    assert class_members(module) == {"m.A.f": "f", "m.A.p": "p", "m.A.c": "c", "m.A.s": "s", "m._B.h": "h"}


def test_every_export_resolves_and_is_listed():
    for name in dskernel.__all__:
        assert getattr(dskernel, name).__name__ == name
    assert set(dskernel.__all__) <= set(dir(dskernel))


def test_the_surface_is_not_empty():
    exported = exported_functions()
    assert len(exported) > 30 and "psd_check" in exported
    members = package_members()
    assert len(members) > 60 and members["matrices.DiagonalMatrix.partial_sum"] == "partial_sum"
