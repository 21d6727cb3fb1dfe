"""Every function that ``dskernel`` exports, and every public method,
property and classmethod of its classes, is reached by the program or by
the benchmark.

A name counts as reached when it appears in the code (not the comments or
docstrings) of the package's modules outside its own body and outside
``__init__``, which only re-exports it, or in the code of the benchmark's
workloads or tracer (``perfbench/workloads.py``, ``perfbench/tracing.py``),
where the traced functions are named in strings.  A member counts by its
name alone, whichever class it is called on.  A function or member that
only its own tests call is dead weight on the public surface: wire it into
a command or delete it.
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


def code_names(path: pathlib.Path, strings: bool) -> set:
    """Identifiers a module's code uses: names and attributes, and with strings the dotted parts of its string constants.

    A function's name inside its own body (a recursive call) does not
    count, docstrings are left out, and comments never reach the AST.
    """
    names = set()

    def visit(node, enclosing: frozenset) -> None:
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            if not isinstance(node, (ast.Module, ast.ClassDef)):
                enclosing |= {node.name}
                body = body + node.decorator_list + [node.args]
            for child in body:
                visit(child, enclosing)
            return
        if isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
    return names


def exported_functions() -> list:
    """Names of the public functions of ``dskernel``."""
    return [name for name, obj in vars(dskernel).items() if inspect.isfunction(obj) and not name.startswith("_")]


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


def reached_names() -> set:
    """Names the package's modules (``__init__`` aside) and the benchmark's workloads and tracer use."""
    return set().union(
        *(code_names(p, strings=False) for p in PACKAGE.glob("*.py") if p.stem != "__init__"),
        *(code_names(p, strings=True) for p in BENCHMARK),
    )


def test_every_exported_function_is_reached():
    assert sorted(set(exported_functions()) - reached_names()) == []


def test_every_class_member_is_reached():
    reached = reached_names()
    unreached = sorted(qualified for qualified, name in package_members().items() if name not in reached)
    assert not unreached, "class members no module or workload reaches: " + ", ".join(unreached)


def test_the_scan_sees_code_and_not_docstrings(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""psd_check in a docstring."""\n# kernel_eval in a comment\nx = ("kernel", "kernel.tail_bound")\n'
                    "def f():\n    \"\"\"bandwidth_detect\"\"\"\n    return evaluate(1).merge_log_exponents\n"
                    "def g(n):\n    return g(n - 1) if n else f()\n")
    assert code_names(path, strings=False) == {"x", "evaluate", "merge_log_exponents", "n", "f"}
    assert code_names(path, strings=True) == {"x", "evaluate", "merge_log_exponents", "n", "f", "kernel", "tail_bound"}


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


def test_the_surface_is_not_empty():
    exported = exported_functions()
    assert len(exported) > 30 and "psd_check" in exported
    members = package_members()
    assert len(members) > 60 and members["matrices.DiagonalMatrix.partial_sum"] == "partial_sum"
