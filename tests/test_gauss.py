import random

from cardminsat import (CoCloneId, Formula, GF2Solver, Relation, affine_parity_checks, cms_affine,
                        cms_bruteforce, compose_chain, constraint, enumerate_models, formula_system,
                        gauss_solve, is_affine)

from helpers import EQ, F, IMPL, NAE3, OR2, T, XOR2, XOR3, XOR4, random_mixed_formula


def test_gauss_triangle_unsat():
    sat, sol = gauss_solve([(("x", "y"), 1), (("y", "z"), 1), (("x", "z"), 1)])
    assert not sat and sol is None


def test_gauss_single_equation_frees_zero():
    sat, sol = gauss_solve([(("x", "y"), 1)])
    assert sat and sol == {"x": 0, "y": 1}


def test_gauss_unit_then_pair():
    sat, sol = gauss_solve([(("x",), 1), (("x", "y"), 0)])
    assert sat and sol == {"x": 1, "y": 1}


def test_repetition_cancels():
    solver = GF2Solver()
    solver.add(("x", "x"), 0)
    assert solver.satisfiable
    solver.add(("x", "x"), 1)
    assert not solver.satisfiable


def test_copy_is_independent():
    solver = GF2Solver()
    solver.add(("x", "y", "z"), 1)  # z = 1 + x + y: x and y take free slots
    solver.add(("u", "v"), 0)
    state = (dict(solver.mask), solver.free_slot_bits(), solver.satisfiable)
    retired = solver.copy()
    retired.add(("w", "x"), 0)      # w joins the users of x's slot
    retired.add(("y", "z"), 0)      # determines nothing new: retires x's slot
    assert len(retired.free_slot_bits()) == len(state[1]) - 1
    assert retired.value_mask("x") == retired.value_mask("w") == 1
    broken = solver.copy()
    broken.add(("x", "y", "z"), 0)  # contradicts the first equation
    assert not broken.satisfiable
    assert (solver.mask, solver.free_slot_bits(), solver.satisfiable) == state
    # the original folds on without the copies' variables, the copies without its units
    solver.add(("x",), 1)
    solver.add(("u",), 1)
    assert solver.solution() == {"x": 1, "y": 0, "z": 0, "u": 1, "v": 1}
    assert retired.value_mask("u") == broken.value_mask("u") == state[0]["u"]


def test_gauss_agrees_with_enumeration_on_random_systems():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(1, 12)
        vars = [f"v{i}" for i in range(n)]
        eqs = []
        cons = []
        for _ in range(rng.randint(0, 8)):
            width = rng.choice((2, 3))
            chosen = [rng.choice(vars) for _ in range(width)]
            rel = XOR2 if width == 2 else XOR3
            eqs.append((chosen, 1))
            cons.append(constraint(rel, *chosen))
        f = Formula.of(cons, universe=vars)
        sat, sol = gauss_solve(eqs)
        assert sat == bool(enumerate_models(f))
        if sat:
            values = {v: 0 for v in vars}
            values.update(sol)
            assert f.evaluate(values)


def test_parity_checks_of_stock_relations():
    checks = affine_parity_checks(XOR3)
    assert checks == (((0, 1, 2), 1),)
    assert affine_parity_checks(IMPL) is None
    assert is_affine(EQ) and is_affine(T) and is_affine(F)
    assert not is_affine(NAE3)


def test_parity_checks_define_the_relation():
    rel = XOR4
    checks = affine_parity_checks(rel)
    vars = tuple(f"x{i}" for i in range(rel.arity))
    solver = GF2Solver()
    for coords, parity in checks:
        solver.add([vars[j] for j in coords], parity)
    models = {tuple(m.values) for m in enumerate_models(
        Formula.of([constraint(rel, *vars)], universe=vars))}
    # every relation tuple satisfies every check, and the counts agree
    assert len(models) == rel.num_tuples
    free = solver.free_slot_bits()
    assert 1 << len(free) == rel.num_tuples


def test_empty_relation_is_affine_by_contradiction():
    from cardminsat import Relation
    empty = Relation("none", 2, 0)
    checks = affine_parity_checks(empty)
    assert checks is not None
    sat, _ = gauss_solve([(("a", "b")[: len(c)], p) for c, p in checks])
    assert not sat


def test_cms_affine_matches_bruteforce():
    rng = random.Random(10)
    rels = [XOR2, XOR3, XOR4, EQ, T, F]
    for _ in range(250):
        f = random_mixed_formula(rng, rels, rng.randint(1, 9), rng.randint(0, 6))
        q = rng.choice(f.universe)
        got = cms_affine(f, q)
        want = cms_bruteforce(f, q)
        assert got == want.key()


def test_cms_affine_rejects_non_affine():
    f = Formula.of([constraint(NAE3, "x", "y", "z")])
    assert cms_affine(f, "x") is None
    assert formula_system(f) is None


def test_non_affine_relation_after_a_contradiction():
    # the system is unsatisfiable before OR2 is reached; OR2 still rejects it
    f = Formula.of([constraint(T, "x"), constraint(F, "x"), constraint(T, "y"),
                    constraint(OR2, "x", "y")])
    assert formula_system(f) is None
    assert cms_affine(f, "x") is None


def test_il2_stage_fold_retires_few_slots(monkeypatch):
    # a (4, 2) source drawn as criterion 8 draws it; this seed repeats the clause
    rng = random.Random(5)
    vars = tuple(f"v{i}" for i in range(4))
    source = Formula.of([constraint(OR2, *rng.sample(vars, 2)) for _ in range(2)])
    final = compose_chain(CoCloneId("IL2")).run(source, source.universe[0])[-1].formula
    retires = 0
    retire = GF2Solver._retire

    def counting(self, expr):
        nonlocal retires
        retires += 1
        retire(self, expr)

    monkeypatch.setattr(GF2Solver, "_retire", counting)
    assert formula_system(final).satisfiable
    # folding each relation's checks narrowest first leaves almost nothing to retire
    assert retires < final.num_constraints // 100


def _random_affine_relation(rng: random.Random, arity: int) -> Relation:
    """The solutions of a few random parity checks; sometimes none at all."""
    if rng.random() < 0.1:
        return Relation("NONE", arity, 0)
    checks = [(rng.getrandbits(arity), rng.getrandbits(1)) for _ in range(rng.randint(0, arity))]
    rows = sum(1 << i for i in range(1 << arity)
               if all((i & h).bit_count() % 2 == p for h, p in checks))
    return Relation(f"A{rng.getrandbits(32)}", arity, rows)


def test_fold_is_independent_of_constraint_order():
    rng = random.Random(23)
    for _ in range(150):
        pool = [f"x{i}" for i in range(rng.randint(1, 7))]
        cons = []
        for _ in range(rng.randint(1, 5)):
            rel = _random_affine_relation(rng, rng.randint(1, 6))
            cons.append(constraint(rel, *(rng.choice(pool) for _ in range(rel.arity))))
        f = Formula.of(cons, universe=pool)
        q = rng.choice(pool)
        want = cms_bruteforce(f, q)
        expected = want.key()
        system = formula_system(f)
        dim = len(system.free_slot_bits()) if system.satisfiable else None
        if dim is not None:
            # variables no check mentions are free too
            unmentioned = sum(v not in system.mask for v in pool)
            assert len(enumerate_models(f)) == 1 << (dim + unmentioned)
        for _ in range(3):
            shuffled = Formula.of(rng.sample(cons, len(cons)), universe=pool)
            assert cms_affine(shuffled, q) == expected
            again = formula_system(shuffled)
            assert again.satisfiable == system.satisfiable
            if again.satisfiable:
                assert len(again.free_slot_bits()) == dim


def _parity_relation(arity: int, parity: int) -> Relation:
    rows = sum(1 << i for i in range(1 << arity) if i.bit_count() % 2 == parity)
    return Relation(f"P{arity}_{parity}", arity, rows)


def _solver_models(solver: GF2Solver, universe) -> set[tuple[int, ...]]:
    """Every solution the solved form describes, over ``universe``."""
    free = solver.free_slot_bits()
    models = set()
    for a in range(1 << len(free)):
        on = 1 | sum(1 << s for i, s in enumerate(free) if (a >> i) & 1)
        models.add(tuple((solver.value_mask(v) & on).bit_count() & 1 for v in universe))
    return models


def test_regained_slot_bit_is_substituted_once():
    equations = []

    def add(vars, parity=0):
        equations.append((vars, parity))
        solver.add(vars, parity)

    solver = GF2Solver()
    add(("s", "a", "w"))               # w = s + a
    add(("b", "c", "z"))               # z = b + c
    for pad in ("e1", "e2", "e3"):     # load slot s so the retirements below pass it over
        add(("s", pad))
    add(("b", "f1"))
    for pad in ("g1", "g2", "g3", "g4"):
        add(("c", pad))
    slot = {v: solver.value_mask(v).bit_length() - 1 for v in "sabc"}
    add(("a", "s", "b"))               # retires a's slot: w = b loses s's bit
    assert solver.value_mask("w") == 1 << slot["b"]
    add(("b", "s", "c"))               # retires b's slot: w = s + c regains it
    assert solver.value_mask("w") == (1 << slot["s"]) | (1 << slot["c"])
    assert solver._users[slot["s"]].count("w") == 2
    add(("s",), 1)                     # retires s's slot through both entries of w
    assert solver.value_mask("w") == (1 << slot["c"]) | 1
    universe = tuple(dict.fromkeys(v for vars, _ in equations for v in vars))
    f = Formula.of([constraint(_parity_relation(len(vars), p), *vars) for vars, p in equations],
                   universe)
    assert _solver_models(solver, universe) == {tuple(m.values) for m in enumerate_models(f)}


def test_user_index_lists_every_holder_of_a_live_slot():
    rng = random.Random(31)
    for _ in range(200):
        pool = [f"x{i}" for i in range(rng.randint(2, 10))]
        solver = GF2Solver()
        for _ in range(rng.randint(1, 25)):
            solver.add([rng.choice(pool) for _ in range(rng.randint(1, 4))], rng.getrandbits(1))
            if not solver.satisfiable:
                break
            live = solver.free_slot_bits()
            for v, m in solver.mask.items():
                bits = [s for s in range(1, m.bit_length()) if (m >> s) & 1]
                assert set(bits) <= set(live)
                assert all(v in solver._users[s] for s in bits)


def test_cms_affine_matches_bruteforce_on_random_affine_relations():
    rng = random.Random(47)
    for _ in range(500):
        pool = [f"x{i}" for i in range(rng.randint(1, 8))]
        cons = []
        for _ in range(rng.randint(0, 6)):
            rel = _random_affine_relation(rng, rng.randint(1, 5))
            cons.append(constraint(rel, *(rng.choice(pool) for _ in range(rel.arity))))
        f = Formula.of(cons, universe=pool)
        q = rng.choice(pool)
        want = cms_bruteforce(f, q)
        assert cms_affine(f, q) == want.key()
