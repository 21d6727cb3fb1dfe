"""Every function that ``dskernel`` exports is reached by the program or by the benchmark.

A function counts as reached when its name appears in the code (not the
comments or docstrings) of the package's modules outside its own body and
outside ``__init__``, which only re-exports it, or in the code of the
benchmark's workloads or tracer (``perfbench/workloads.py``,
``perfbench/tracing.py``), where the traced functions are named in strings.
A function that only its own tests call is dead weight on the public
surface: wire it into a command or delete it.
"""

import ast
import inspect
import pathlib

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


def test_every_exported_function_is_reached():
    reached = set().union(
        *(code_names(p, strings=False) for p in PACKAGE.glob("*.py") if p.stem != "__init__"),
        *(code_names(p, strings=True) for p in BENCHMARK),
    )
    assert sorted(set(exported_functions()) - reached) == []


def test_the_scan_sees_code_and_not_docstrings(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""psd_check in a docstring."""\n# kernel_eval in a comment\nx = ("kernel", "kernel.tail_bound")\n'
                    "def f():\n    \"\"\"bandwidth_detect\"\"\"\n    return evaluate(1).merge_log_exponents\n"
                    "def g(n):\n    return g(n - 1) if n else f()\n")
    assert code_names(path, strings=False) == {"x", "evaluate", "merge_log_exponents", "n", "f"}
    assert code_names(path, strings=True) == {"x", "evaluate", "merge_log_exponents", "n", "f", "kernel", "tail_bound"}


def test_the_surface_is_not_empty():
    exported = exported_functions()
    assert len(exported) > 30 and "psd_check" in exported
