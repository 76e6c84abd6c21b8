import random
from itertools import product

import pytest

from cardminsat import (ConstraintLanguage, Engine, Formula, PreconditionError, Relation,
                        affine_parity_checks, cms_affine, cms_bruteforce, constraint, dispatch,
                        enumerate_models, oracle_budget, solve_brute, solve_generic, solve_horn,
                        solve_width2affine)
from cardminsat.classify import relation_properties, saturated_models

from helpers import (EQ, F, IMPL, NAE3, NAND2, NEQ, OR2, T, XOR3, random_mixed_formula)


def test_horn_chain_forces_everything():
    f = Formula.of([constraint(T, "x"), constraint(IMPL, "x", "y"), constraint(IMPL, "y", "z")])
    r = solve_horn(f, "z")
    assert r.engine is Engine.HORN_FIXPOINT
    assert r.answer.verdict and r.answer.min_weight == 3
    assert str(r.answer.witness) == "111"


def test_horn_least_model_is_empty():
    r = solve_horn(Formula.of([constraint(IMPL, "x", "y")]), "y")
    assert not r.answer.verdict and r.answer.min_weight == 0


def test_horn_unsat():
    r = solve_horn(Formula.of([constraint(T, "x"), constraint(F, "x")]), "x")
    assert r.answer.reason == "unsatisfiable"


def test_horn_rejects_non_horn():
    with pytest.raises(PreconditionError):
        solve_horn(Formula.of([constraint(OR2, "x", "y")]), "x")


def test_w2a_tie():
    r = solve_width2affine(Formula.of([constraint(NEQ, "x", "y")]), "x")
    assert r.answer.verdict and r.answer.min_weight == 1
    assert str(r.answer.witness) == "10"


def test_w2a_chain_prefers_light_side():
    f = Formula.of([constraint(NEQ, "x", "y"), constraint(NEQ, "y", "z")])
    r = solve_width2affine(f, "x")
    assert not r.answer.verdict and r.answer.min_weight == 1


def test_w2a_forced_component():
    f = Formula.of([constraint(NEQ, "x", "y"), constraint(NEQ, "x", "y"), constraint(T, "x")])
    assert solve_width2affine(f, "x").answer.verdict


def test_w2a_rejects_non_w2a():
    with pytest.raises(PreconditionError):
        solve_width2affine(Formula.of([constraint(XOR3, "x", "y", "z")]), "x")


def test_w2a_repeated_variable_contradiction():
    f = Formula.of([constraint(NEQ, "x", "x")], universe=("x", "y"))
    r = solve_width2affine(f, "y")
    assert r.answer.reason == "unsatisfiable"
    g = Formula.of([constraint(EQ, "x", "x"), constraint(T, "y")], universe=("x", "y"))
    assert solve_width2affine(g, "y").answer.verdict


def test_generic_nae():
    f = Formula.of([constraint(NAE3, "x", "y", "z")])
    r = solve_generic(f, "x")
    assert r.answer.verdict and r.answer.min_weight == 1
    assert r.oracle_calls <= oracle_budget(3) == 4


def test_generic_or_nand():
    f = Formula.of([constraint(OR2, "x", "y"), constraint(NAND2, "x", "y")])
    r = solve_generic(f, "x")
    assert r.answer.verdict and r.answer.min_weight == 1


def test_generic_unsat():
    r = solve_generic(Formula.of([constraint(F, "x"), constraint(T, "x")]), "x")
    assert r.answer.reason == "unsatisfiable"
    assert r.oracle_calls <= oracle_budget(1)


def test_dispatch_routes():
    f = Formula.of([constraint(IMPL, "x", "y")])
    r = dispatch(ConstraintLanguage.of(IMPL), f, "y")
    assert r.engine is Engine.TRIVIAL and not r.answer.verdict and r.answer.min_weight == 0
    r = dispatch(ConstraintLanguage.of(NEQ), Formula.of([constraint(NEQ, "x", "y")]), "x")
    assert r.engine is Engine.WIDTH2_AFFINE and r.answer.verdict
    r = dispatch(ConstraintLanguage.of(OR2), Formula.of([constraint(OR2, "x", "y")]), "x")
    assert r.engine is Engine.GENERIC_ORACLE and r.answer.verdict
    r = dispatch(ConstraintLanguage.of(T, IMPL),
                 Formula.of([constraint(T, "x"), constraint(IMPL, "x", "y")]), "y")
    assert r.engine is Engine.HORN_FIXPOINT and r.answer.verdict


def test_dispatch_rejects_foreign_relation():
    with pytest.raises(PreconditionError):
        dispatch(ConstraintLanguage.of(IMPL), Formula.of([constraint(OR2, "x", "y")]), "x")


def test_oracle_budget_formula():
    assert oracle_budget(1) == 3
    assert oracle_budget(3) == 4
    assert oracle_budget(14) == 5


def test_budget_doubles_by_one_off_boundaries():
    # exact +1 whenever n+1 is not a power of two
    for n in (2, 4, 5, 6, 10, 12, 20, 44):
        assert oracle_budget(2 * n) == oracle_budget(n) + 1


def test_engines_agree_and_witnesses_coincide():
    rng = random.Random(20)
    shared = [T, F, EQ]  # Horn and width-2-affine at once
    for _ in range(60):
        f = random_mixed_formula(rng, shared, rng.randint(1, 6), rng.randint(0, 4))
        q = rng.choice(f.universe)
        answers = [solve_horn(f, q).answer, solve_width2affine(f, q).answer,
                   solve_generic(f, q).answer, solve_brute(f, q).answer,
                   cms_bruteforce(f, q)]
        keys = {a.key() for a in answers}
        assert len(keys) == 1
        witnesses = {a.witness for a in answers}
        assert len(witnesses) == 1


def test_w2a_witness_matches_bruteforce_exactly():
    rng = random.Random(22)
    rels = [T, F, EQ, NEQ]
    for _ in range(80):
        f = random_mixed_formula(rng, rels, rng.randint(1, 7), rng.randint(0, 5))
        q = rng.choice(f.universe)
        got = solve_width2affine(f, q).answer
        want = cms_bruteforce(f, q)
        assert got.key() == want.key()
        assert got.witness == want.witness


def test_generic_witness_matches_bruteforce_exactly():
    rng = random.Random(23)
    rels = [OR2, NAND2, NAE3, XOR3, T, F]
    for _ in range(80):
        f = random_mixed_formula(rng, rels, rng.randint(1, 8), rng.randint(0, 5))
        q = rng.choice(f.universe)
        got = solve_generic(f, q).answer
        want = cms_bruteforce(f, q)
        assert got.key() == want.key()
        assert got.witness == want.witness


def test_horn_models_are_and_closed():
    rng = random.Random(21)
    horn_rels = [T, F, IMPL, NAND2, EQ]
    for _ in range(40):
        f = random_mixed_formula(rng, horn_rels, rng.randint(1, 5), rng.randint(1, 5))
        models = enumerate_models(f)
        model_set = {m.values for m in models}
        for a in models[:10]:
            for b in models[:10]:
                meet = tuple(x & y for x, y in zip(a.values, b.values))
                assert meet in model_set


def test_w2a_long_eq_chain():
    # a recursive find used to overflow the interpreter's stack on this chain
    vs = [f"e{i}" for i in range(2000)]
    f = Formula.of([constraint(EQ, vs[i + 1], vs[i]) for i in range(1999)]
                   + [constraint(T, vs[1999])])
    r = solve_width2affine(f, "e0")
    assert r.answer.verdict and r.answer.min_weight == 2000


def test_w2a_empty_relation_is_a_contradiction():
    empty = Relation("E", 1, 0)
    f = Formula.of([constraint(NEQ, "x", "y"), constraint(empty, "y")])
    assert solve_width2affine(f, "x").answer.reason == "unsatisfiable"
    assert dispatch(ConstraintLanguage.of(empty, NEQ), f, "x").answer.key() == \
        cms_bruteforce(f, "x").key()


def test_same_named_relations_are_told_apart():
    r_neq, r_11 = NEQ.renamed("R"), Relation.from_rows("R", 2, ["11"])
    f = Formula.of([constraint(r_neq, "x", "y"), constraint(r_11, "x", "y")])
    assert f.relations() == (r_neq, r_11)
    assert cms_bruteforce(f, "x").reason == "unsatisfiable"
    assert solve_width2affine(f, "x").answer.reason == "unsatisfiable"
    assert cms_affine(f, "x") == (False, None, False)
    with pytest.raises(PreconditionError):
        dispatch(ConstraintLanguage.of(r_neq), f, "x")


def test_width2_affine_characterizations_agree():
    # clause saturation, the classifier's affine-and-bijunctive test and the
    # engine's "parity checks of width <= 2" all name the same relations
    rng = random.Random(24)
    rels = [Relation("r", k, rows) for k in (1, 2, 3) for rows in range(1 << (1 << k))]
    for k in (4, 5, 6):
        for _ in range(40):
            eqs = [(rng.sample(range(k), rng.randint(1, 2)), rng.randint(0, 1))
                   for _ in range(rng.randint(0, k))]
            rows = sum(1 << idx for idx, t in enumerate(product((0, 1), repeat=k))
                       if all(sum(t[i] for i in c) % 2 == p for c, p in eqs))
            rels += [Relation("r", k, rows), Relation("r", k, rows ^ (1 << rng.randrange(1 << k))),
                     Relation("r", k, rng.getrandbits(1 << k))]
    for rel in rels:
        w2a = {"affine", "bij"} <= relation_properties(rel)
        by_saturation = bool((saturated_models(rel, ("T", "F", "eq", "neq")) == rel.table()).all())
        checks = affine_parity_checks(rel)
        by_checks = checks is not None and all(len(coords) <= 2 for coords, _ in checks)
        assert by_saturation == by_checks == w2a, rel
        f = Formula.of([constraint(rel, *(f"x{i}" for i in range(rel.arity)))])
        if by_checks:
            assert solve_width2affine(f, "x0").answer.key() == cms_bruteforce(f, "x0").key()
        else:
            with pytest.raises(PreconditionError):
                solve_width2affine(f, "x0")
