import pytest

from cardminsat import Assignment, CmsAnswer, CmsStarInstance, Formula, PreconditionError, constraint

from helpers import NAE3, OR2, T


def test_default_universe_is_occurrence_order():
    f = Formula.of([constraint(OR2, "b", "a"), constraint(T, "c")])
    assert f.universe == ("b", "a", "c")
    assert f.occurring() == ("b", "a", "c")


def test_declared_universe_may_exceed_occurring():
    f = Formula.of([constraint(T, "x")], universe=("x", "y", "z"))
    assert f.num_vars == 3
    assert f.occurring() == ("x",)


def test_universe_must_cover_constraints():
    with pytest.raises(ValueError):
        Formula.of([constraint(OR2, "x", "y")], universe=("x",))
    with pytest.raises(ValueError):
        Formula.of([constraint(OR2, "x")])
    with pytest.raises(ValueError):
        Formula(("x", "x"), ())
    with pytest.raises(ValueError):
        Formula.of([constraint(OR2, "x", "y")], universe=("x", "y", "x"))


def test_evaluate_with_repetition():
    f = Formula.of([constraint(NAE3, "x", "x", "y")])
    assert f.evaluate({"x": 0, "y": 1})
    assert not f.evaluate({"x": 1, "y": 1})


def test_assignment_basics():
    a = Assignment(("x", "y", "z"), (1, 0, 1))
    assert a.weight == 2
    assert a.value("y") == 0
    assert a.restrict(("z", "x")).values == (1, 1)
    assert str(a) == "101"
    with pytest.raises(ValueError):
        Assignment(("x",), (0, 1))


def test_cms_answer_witness_invariant():
    witness = Assignment(("x",), (1,))
    yes, no, unsat = CmsAnswer(1, witness), CmsAnswer(1, None), CmsAnswer(None, None)
    assert (yes.verdict, yes.reason, yes.key()) == (True, "in-min-model", (True, 1, True))
    assert (no.verdict, no.reason, no.key()) == (False, "query-false-in-all-min-models",
                                                 (True, 1, False))
    assert (unsat.verdict, unsat.reason, unsat.key()) == (False, "unsatisfiable",
                                                          (False, None, False))
    with pytest.raises(ValueError):
        CmsAnswer(None, witness)


def test_cms_star_instance_validation():
    f = Formula.of([constraint(T, "x")])
    with pytest.raises(PreconditionError):
        CmsStarInstance(f, "missing", 1)
    with pytest.raises(ValueError):
        CmsStarInstance(f, "x", -1)
