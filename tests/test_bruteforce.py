import random

import pytest

from cardminsat import (CmsStarInstance, Formula, GuardError, PreconditionError, cms_bruteforce,
                        cms_star_bruteforce, constraint, enumerate_models, find_model,
                        frozen_vars)
from cardminsat.coclones import CoCloneId, weak_base
from cardminsat.search import frozen_by_probing

from helpers import (F, IMPL, NAE3, NAND2, NEQ, OR2, T, XOR3, random_clause_formula,
                     random_mixed_formula)


def test_enumerate_or2_lexicographic():
    models = enumerate_models(Formula.of([constraint(OR2, "x", "y")]))
    assert [str(m) for m in models] == ["01", "10", "11"]


def test_enumerate_contradiction_empty():
    f = Formula.of([constraint(T, "x"), constraint(F, "x")])
    assert enumerate_models(f) == []


def test_enumerate_nae_with_repetition():
    models = enumerate_models(Formula.of([constraint(NAE3, "x", "x", "y")]))
    assert [str(m) for m in models] == ["01", "10"]


def test_cms_xor3():
    a = cms_bruteforce(Formula.of([constraint(XOR3, "x", "y", "z")]), "x")
    assert a.verdict and a.min_weight == 1
    assert str(a.witness) == "100"


def test_cms_impl_query_y():
    a = cms_bruteforce(Formula.of([constraint(IMPL, "x", "y")]), "y")
    assert not a.verdict and a.min_weight == 0
    assert a.reason == "query-false-in-all-min-models"


def test_cms_neq_chain():
    f = Formula.of([constraint(NEQ, "x", "y"), constraint(NEQ, "y", "z")])
    a = cms_bruteforce(f, "x")
    assert not a.verdict and a.min_weight == 1


def test_cms_unsat_reason():
    a = cms_bruteforce(Formula.of([constraint(T, "x"), constraint(F, "x")]), "x")
    assert not a.verdict and a.min_weight is None and a.reason == "unsatisfiable"


def test_empty_formula_every_query_is_no():
    f = Formula.of([], universe=("x", "y"))
    a = cms_bruteforce(f, "x")
    assert not a.verdict and a.min_weight == 0


def test_isolated_universe_variables_stay_zero():
    f = Formula.of([constraint(T, "x")], universe=("x", "pad"))
    a = cms_bruteforce(f, "x")
    assert a.verdict and a.min_weight == 1 and a.witness.value("pad") == 0
    assert not cms_bruteforce(f, "pad").verdict


def test_query_and_guard_errors():
    f = Formula.of([constraint(T, "x")])
    with pytest.raises(PreconditionError):
        cms_bruteforce(f, "nope")
    wide = Formula.of([], universe=tuple(f"v{i}" for i in range(25)))
    with pytest.raises(GuardError):
        cms_bruteforce(wide, "v0")
    assert cms_bruteforce(wide, "v0", max_vars=25).min_weight == 0


def test_cms_star_examples():
    f = Formula.of([constraint(XOR3, "x", "y", "z")])
    assert cms_star_bruteforce(CmsStarInstance(f, "x", 1))
    assert not cms_star_bruteforce(CmsStarInstance(f, "x", 0))
    g = Formula.of([constraint(NAE3, "x", "y", "z")])
    assert cms_star_bruteforce(CmsStarInstance(g, "x", 1))


def test_verdict_invariant_under_constraint_permutation_and_renaming():
    rng = random.Random(5)
    for _ in range(40):
        f = random_clause_formula(rng, NAE3, 5, rng.randint(1, 4), distinct=False)
        q = f.universe[0]
        base = cms_bruteforce(f, q)
        cons = list(f.constraints)
        rng.shuffle(cons)
        permuted = Formula.of(cons, universe=f.universe)
        assert cms_bruteforce(permuted, q).key() == base.key()
        mapping = {v: (v if v == q else v + "_r") for v in f.universe}
        renamed = Formula.of(
            [constraint(c.relation, *(mapping[v] for v in c.vars)) for c in f.constraints],
            universe=tuple(mapping[v] for v in f.universe))
        assert cms_bruteforce(renamed, q).key() == base.key()


def test_complementive_language_zero_mirror():
    # over a complementive language, satisfiable iff satisfiable with any
    # chosen variable pinned to 0
    rng = random.Random(6)
    for _ in range(40):
        f = random_clause_formula(rng, NAE3, 5, rng.randint(1, 4), distinct=False)
        pick = rng.choice(f.universe)
        sat = bool(enumerate_models(f))
        assert sat == (find_model(f, forced={pick: 0}) is not None)


def test_frozen_vars_examples():
    il1 = weak_base(CoCloneId("IL1"))
    f = Formula.of([constraint(il1, "x1", "x2", "x3", "t")])
    assert frozen_vars(f) == {"t": 1}
    assert frozen_vars(Formula.of([constraint(OR2, "x", "y")])) == {}
    iv2 = weak_base(CoCloneId("IV2"))
    g = Formula.of([constraint(iv2, "t", "x", "y", "f", "t")])
    assert frozen_vars(g) == {"t": 1, "f": 0}


def test_frozen_vars_unsat_is_an_error():
    f = Formula.of([constraint(T, "x"), constraint(F, "x")])
    with pytest.raises(PreconditionError):
        frozen_vars(f)
    with pytest.raises(PreconditionError):
        frozen_by_probing(f)


def test_frozen_vars_probe_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        f = random_clause_formula(rng, XOR3, 5, rng.randint(1, 4), distinct=False)
        if not enumerate_models(f):
            continue
        assert frozen_by_probing(f) == frozen_vars(f)
    # mixed clauses over a universe wider than the occurring variables
    for _ in range(120):
        f = random_mixed_formula(rng, (OR2, NAND2, NAE3, IMPL, T, F), 7, rng.randint(1, 7))
        if not enumerate_models(f):
            continue
        assert frozen_by_probing(f) == frozen_vars(f)
