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


# The results the benchmark reads, on one tiny instance of each kind, called
# the way bench/workloads.py and bench/spans.py call the program.

OR2_REL = "relation OR2 2\n01\n10\n11\n\n"


@pytest.fixture()
def or2_path(tmp_path):
    (tmp_path / "or2.rel").write_text(OR2_REL)
    (tmp_path / "f.cms").write_text("lang or2.rel\nvar a b c\nc OR2 a b\nc OR2 b c\nquery a\n")
    return tmp_path / "f.cms"


@pytest.mark.parametrize("query, verdict", [("a", False), ("b", True)])
def test_dispatched_answer_fields(or2_path, query, verdict):
    from cardminsat import fileio, solvers

    doc = fileio.load_formula_file(or2_path)
    report = solvers.dispatch(doc.language, doc.formula, query)
    answer = report.answer
    assert answer.verdict is verdict and type(answer.min_weight) is int
    assert type(report.oracle_calls) is int
    assert report.oracle_calls <= solvers.oracle_budget(doc.formula.num_vars)
    if verdict:
        assert type(answer.witness.vars) is tuple and type(answer.witness.values) is tuple
        assert all(type(v) is int for v in answer.witness.values)
    else:
        assert answer.witness is None


def test_chain_outputs_and_affine_answer_fields(or2_path):
    from cardminsat import coclones, fileio, gauss, reductions

    doc = fileio.load_formula_file(or2_path)
    outputs = reductions.compose_chain(coclones.CoCloneId("IL2")).run(doc.formula, "a")
    for out in outputs:
        assert type(out.formula.num_vars) is int and type(out.formula.num_constraints) is int
        assert type(out.query) is str and (out.bound is None or type(out.bound) is int)
    final = outputs[-1]
    result = gauss.cms_affine(final.formula, final.query)
    assert type(result[0]) is bool and type(result[2]) is bool
    system = gauss.formula_system(final.formula)
    assert all(type(b) is int for b in system.free_slot_bits())


def test_cli_run_returns_an_exit_code(or2_path, capsys):
    from cardminsat import cli

    pap = BENCH.parent / "corpus" / "abduction" / "xor3_single.pap"
    for argv in (["classify", str(or2_path.parent / "or2.rel")], ["verify", str(or2_path)],
                 ["abduce", str(pap), "--hyp", "x1"]):
        code = cli.run(argv)
        assert type(code) is int and code == 0, argv
    assert "agree=true" in capsys.readouterr().out
