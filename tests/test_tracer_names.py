"""Every name the benchmark's span recorder wraps still resolves in dskernel.

``perfbench/tracing.py`` patches functions and methods by name and skips a
method it cannot find, so a deleted or renamed name would otherwise surface
only when ``perfbench/run.py --trace 1`` runs.  The recorder module is
loaded from its file and only its tables are read.
"""

import importlib
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tracing)


def test_function_spans_resolve():
    missing = [(mod, name) for mod, name, _ in tracing.FUNCTION_SPANS
               if not callable(getattr(importlib.import_module(f"dskernel.{mod}"), name, None))]
    assert not missing


def test_method_spans_and_counts_resolve():
    missing = []
    for mod, name, _ in tracing.METHOD_SPANS + tracing.METHOD_COUNTS:
        module = importlib.import_module(f"dskernel.{mod}")
        if not any(isinstance(cls, type) and cls.__module__ == module.__name__ and name in cls.__dict__
                   for cls in vars(module).values()):
            missing.append((mod, name))
    assert not missing
