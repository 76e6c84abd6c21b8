"""Every program name the benchmark hooks into exists: the traced run wraps
the functions of ``bench/spans.py`` TARGETS, and ``bench/run.py`` imports
the modules of MODULES."""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _literal(path: Path, name: str):
    """The value of a module-level literal assignment, read without
    importing the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


@pytest.mark.parametrize("module, attr, span",
                         _literal(BENCH / "spans.py", "TARGETS"))
def test_traced_function_exists(module, attr, span):
    mod = importlib.import_module(f"cardminsat.{module}")
    assert callable(reduce(getattr, attr.split("."), mod)), span


@pytest.mark.parametrize("module", _literal(BENCH / "run.py", "MODULES"))
def test_benchmarked_module_exists(module):
    importlib.import_module(f"cardminsat.{module}")
