import random
from itertools import combinations, product

import pytest

from cardminsat import (CLOSED_WORLD, Formula, GuardError, NoSolutionError, PAP, POSITIVE_UNITS,
                        ParseError, PreconditionError, XorClause, cms_bruteforce, constraint,
                        enumerate_models, gauss_solve, is_solution, parse_pap,
                        reduce_cms_xor3_to_relevance, relevance_bruteforce, render_pap)
from cardminsat.abduction import VAR_GUARD
from cardminsat.cli import run

from helpers import XOR3, random_clause_formula


def single_xor3():
    return Formula.of([constraint(XOR3, "x1", "x2", "x3")])


def test_reduction_shape():
    pap, h = reduce_cms_xor3_to_relevance(single_xor3(), "x1")
    assert h == "x1"
    assert pap.variables == ("x1", "x2", "x3", "_g1")
    assert pap.hypotheses == ("x1", "x2", "x3")
    assert pap.manifestations == ("_g1",)
    assert pap.theory == (XorClause(("x1", "x2", "x3", "_g1"), 0),)


def test_singleton_is_solution_under_closed_world_only():
    pap, _ = reduce_cms_xor3_to_relevance(single_xor3(), "x1")
    assert is_solution(pap, {"x1"}, CLOSED_WORLD)
    assert not is_solution(pap, {"x1"}, POSITIVE_UNITS)


def test_empty_solution_with_no_manifestations():
    pap = PAP(("x", "y"), ("x",), (), (XorClause(("x", "y"), 0),))
    assert is_solution(pap, set(), CLOSED_WORLD)
    assert is_solution(pap, set(), POSITIVE_UNITS)
    assert not relevance_bruteforce(pap, "x")  # minimum solution is empty


def test_relevance_example():
    pap, h = reduce_cms_xor3_to_relevance(single_xor3(), "x1")
    assert relevance_bruteforce(pap, h, CLOSED_WORLD)
    for other in ("x2", "x3"):
        assert relevance_bruteforce(pap, other, CLOSED_WORLD)


def test_relevance_rejects_non_hypothesis():
    pap, _ = reduce_cms_xor3_to_relevance(single_xor3(), "x1")
    with pytest.raises(PreconditionError):
        relevance_bruteforce(pap, "_g1")
    with pytest.raises(PreconditionError):
        is_solution(pap, {"_g1"})


def test_no_solution_reported_distinctly():
    pap = PAP(("x", "m"), ("x",), ("m",), ())
    with pytest.raises(NoSolutionError):
        relevance_bruteforce(pap, "x")


def test_inconsistent_theory_rejected():
    with pytest.raises(ValueError):
        PAP(("x",), (), (), (XorClause(("x",), 0), XorClause(("x",), 1)))


def test_undeclared_names_rejected():
    with pytest.raises(ValueError):
        PAP(("x",), ("y",), (), ())
    with pytest.raises(ValueError):
        PAP(("x",), (), (), (XorClause(("z",), 0),))


def _entailed_by_enumeration(pap, chosen, semantics):
    """Reference: consistency and entailment over every assignment."""
    units = {h: 1 for h in chosen}
    if semantics == CLOSED_WORLD:
        units.update({h: 0 for h in pap.hypotheses if h not in chosen})
    models = []
    for bits in product((0, 1), repeat=len(pap.variables)):
        values = dict(zip(pap.variables, bits))
        if all(values[v] == b for v, b in units.items()) and \
                all(sum(values[x] for x in c.vars) % 2 == c.parity for c in pap.theory):
            models.append(values)
    return bool(models) and all(m[g] == 1 for m in models for g in pap.manifestations)


def _seeded_paps():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randint(1, 7)
        vars = tuple(f"v{i}" for i in range(n))
        # clauses may repeat a variable; some manifestations occur in no clause
        theory = tuple(XorClause(tuple(rng.choice(vars) for _ in range(rng.randint(1, 4))),
                                 rng.randint(0, 1)) for _ in range(rng.randint(0, 4)))
        if not gauss_solve([(c.vars, c.parity) for c in theory])[0]:
            continue
        hyps = tuple(rng.sample(vars, rng.randint(0, n)))
        mans = tuple(rng.sample(vars, rng.randint(0, min(n, 3))))
        yield PAP(vars, hyps, mans, theory)


def test_is_solution_matches_enumeration():
    for pap in _seeded_paps():
        for size in range(len(pap.hypotheses) + 1):
            for chosen in combinations(pap.hypotheses, size):
                for semantics in (CLOSED_WORLD, POSITIVE_UNITS):
                    assert is_solution(pap, chosen, semantics) == \
                        _entailed_by_enumeration(pap, chosen, semantics), (pap, chosen, semantics)


def _relevance_by_subset_search(pap, hypothesis, semantics):
    """Reference: the least size with a solution, each subset checked on its own."""
    for size in range(len(pap.hypotheses) + 1):
        found = [s for s in combinations(pap.hypotheses, size) if is_solution(pap, s, semantics)]
        if found:
            return any(hypothesis in s for s in found)
    return None


def test_relevance_matches_subset_search():
    outcomes = set()
    for pap in _seeded_paps():
        for hypothesis in pap.hypotheses:
            for semantics in (CLOSED_WORLD, POSITIVE_UNITS):
                want = _relevance_by_subset_search(pap, hypothesis, semantics)
                outcomes.add((semantics, want))
                if want is None:
                    with pytest.raises(NoSolutionError):
                        relevance_bruteforce(pap, hypothesis, semantics)
                else:
                    assert relevance_bruteforce(pap, hypothesis, semantics) == want, \
                        (pap, hypothesis, semantics)
    assert outcomes == {(sem, want) for sem in (CLOSED_WORLD, POSITIVE_UNITS)
                        for want in (True, False, None)}


def test_hypothesis_guard(tmp_path, capsys):
    # many variables, few hypotheses: the subset search is small, so it answers
    vars = tuple(f"v{i}" for i in range(30))
    theory = tuple(XorClause((vars[i], vars[i + 1]), 0) for i in range(29))
    pap = PAP(vars, vars[:3], (vars[-1],), theory)
    assert relevance_bruteforce(pap, "v0") and relevance_bruteforce(pap, "v2")
    many = PAP(vars, vars[:VAR_GUARD + 1], (), ())
    with pytest.raises(GuardError):
        relevance_bruteforce(many, "v0")
    (tmp_path / "few.pap").write_text(render_pap(pap))
    (tmp_path / "many.pap").write_text(render_pap(many))
    assert run(["abduce", str(tmp_path / "few.pap"), "--hyp", "v0"]) == 0
    assert "relevant=yes" in capsys.readouterr().out
    assert run(["abduce", str(tmp_path / "many.pap"), "--hyp", "v0"]) == 3


def test_solutions_coincide_with_models():
    rng = random.Random(40)
    for _ in range(25):
        f = random_clause_formula(rng, XOR3, rng.randint(3, 6), rng.randint(1, 3))
        pap, _ = reduce_cms_xor3_to_relevance(f, f.universe[0])
        models = {frozenset(v for v in f.universe if m.value(v)) for m in enumerate_models(f)}
        solutions = {frozenset(s) for size in range(len(f.universe) + 1)
                     for s in combinations(f.universe, size)
                     if is_solution(pap, s, CLOSED_WORLD)}
        assert solutions == models
        if models:
            # minimum solution cardinality = minimum model weight
            assert min(len(s) for s in solutions) == min(len(m) for m in models)


def test_relevance_equals_minimum_weight_verdict():
    rng = random.Random(41)
    for _ in range(25):
        f = random_clause_formula(rng, XOR3, rng.randint(3, 6), rng.randint(1, 3))
        q = rng.choice(f.universe)
        pap, h = reduce_cms_xor3_to_relevance(f, q)
        assert relevance_bruteforce(pap, h, CLOSED_WORLD) == cms_bruteforce(f, q).verdict


def test_pap_file_round_trip():
    pap, _ = reduce_cms_xor3_to_relevance(single_xor3(), "x1")
    text = render_pap(pap)
    again = parse_pap(text)
    assert again == pap
    assert render_pap(again) == text


def test_pap_parse_errors():
    with pytest.raises(ParseError):
        parse_pap("hyp x\nvars x\nman x\n")  # wrong order
    with pytest.raises(ParseError):
        parse_pap("vars x\nhyp x\n")  # missing man
    with pytest.raises(ParseError):
        parse_pap("vars x\nhyp x\nman\nt x = 2\n")
    with pytest.raises(ParseError):
        parse_pap("vars x\nhyp x\nman\nt x 1\n")
