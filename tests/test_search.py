import random

from cardminsat import (Formula, constraint, enumerate_models, find_model, oracle_budget,
                        sat_leq, solve_generic)
from cardminsat.search import _Search, frozen_by_probing

from helpers import F, IMPL, NAE3, NAND2, OR2, T, XOR3

KERNEL_RELS = (OR2, NAND2, XOR3, NAE3, T, F, IMPL)


def test_find_model_is_the_least_bounded_model():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 9)
        vars = tuple(f"v{i}" for i in range(n))
        cons = [constraint(r, *(rng.choice(vars) for _ in range(r.arity)))
                for r in (rng.choice(KERNEL_RELS) for _ in range(rng.randint(0, 8)))]
        f = Formula.of(cons, universe=vars)
        bound = rng.choice((None, rng.randint(0, n)))
        forced = {v: rng.randint(0, 1) for v in rng.sample(vars, rng.randint(0, min(2, n)))}
        want = next((m for m in enumerate_models(f)
                     if (bound is None or m.weight <= bound)
                     and all(m.value(v) == b for v, b in forced.items())), None)
        assert find_model(f, bound, forced) == want
        if bound is not None:
            assert sat_leq(f, bound, forced) == (want is not None)
        report = solve_generic(f, rng.choice(vars))
        assert report.oracle_calls <= oracle_budget(n)


def test_find_model_where_the_packing_bound_prunes(monkeypatch):
    # OR2/NAND2-heavy formulas of 10-14 variables, at bounds equal to and
    # just below the least model weight: the disjoint-constraint packing
    # bound must cut branches without losing the least bounded model
    rng = random.Random(17)
    prunes = 0
    slack_ok = _Search._weight_slack_ok

    def counted(self):
        nonlocal prunes
        ok = slack_ok(self)
        prunes += not ok
        return ok

    monkeypatch.setattr(_Search, "_weight_slack_ok", counted)
    for _ in range(60):
        n = rng.randint(10, 14)
        vars = tuple(f"v{i}" for i in range(n))
        rels = rng.choices((OR2, NAND2, IMPL, XOR3), weights=(12, 5, 2, 1), k=rng.randint(n, 2 * n))
        f = Formula.of([constraint(r, *rng.sample(vars, r.arity)) for r in rels], universe=vars)
        models = enumerate_models(f)
        if not models:
            assert find_model(f) is None
            continue
        least = min(m.weight for m in models)
        for bound in (least, least - 1):
            want = next((m for m in models if m.weight <= bound), None)
            assert find_model(f, bound) == want
            assert sat_leq(f, bound) == (want is not None)
    assert prunes > 0


def test_wide_universe_needs_no_deep_recursion():
    # one frame per branching variable used to overflow the interpreter's
    # stack near 1000 variables
    vars = tuple(f"v{i}" for i in range(1100))
    f = Formula.of([constraint(OR2, "v0", "v1")], universe=vars)
    report = solve_generic(f, "v0")
    assert report.answer.verdict and report.answer.min_weight == 1
    assert report.answer.witness.values == (1,) + (0,) * 1099
    assert report.oracle_calls <= oracle_budget(1100)
    assert frozen_by_probing(f) == {}
