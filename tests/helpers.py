"""Shared test utilities: stock languages, instance generators, and an
exact answerer that picks the cheapest sound method for a given formula."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

from cardminsat import (Formula, build_named_relation, cms_affine, cms_bruteforce, constraint,
                        is_affine, solve_generic)

OR2 = build_named_relation("OR", 2)
NAND2 = build_named_relation("NAND", 2)
XOR2 = build_named_relation("XOR", 2)
XOR3 = build_named_relation("XOR", 3)
XOR4 = build_named_relation("XOR", 4)
NAE3 = build_named_relation("NAE3")
IMPL = build_named_relation("IMPL")
EQ = build_named_relation("EQ")
NEQ = build_named_relation("NEQ")
T = build_named_relation("T")
F = build_named_relation("F")


def exact_cms(formula: Formula, query: str) -> tuple[bool, int | None, bool]:
    """(satisfiable, min_weight, verdict) by the cheapest exact method."""
    if all(is_affine(rel) for rel in formula.relations()):
        got = cms_affine(formula, query)
        assert got is not None
        return got
    if formula.num_vars <= 20:
        a = cms_bruteforce(formula, query)
    else:
        a = solve_generic(formula, query).answer
    return a.key()


def exact_verdict(formula: Formula, query: str, bound: int | None = None) -> bool:
    sat, mw, verdict = exact_cms(formula, query)
    if bound is None:
        return verdict
    return verdict and mw is not None and mw <= bound


def reduction_verdict(out) -> bool:
    """Exact answer of a reduction output (bounded variant when it carries
    a cardinality bound)."""
    return exact_verdict(out.formula, out.query, out.bound)


def exhaustive_clause_formulas(rel, n_vars: int, max_clauses: int,
                               include_empty: bool = False) -> list[Formula]:
    """Every formula over clauses with distinct variables, up to clause
    multiplicity and argument order (the stock relations are symmetric)."""
    vars = tuple(f"x{i}" for i in range(1, n_vars + 1))
    pool = [constraint(rel, *c) for c in combinations(vars, rel.arity)]
    out = []
    sizes = range(0 if include_empty else 1, max_clauses + 1)
    for size in sizes:
        for combo in combinations_with_replacement(pool, size):
            out.append(Formula.of(combo, universe=vars))
    return out


def random_clause_formula(rng: random.Random, rel, n_vars: int, n_clauses: int,
                          distinct: bool = True) -> Formula:
    vars = tuple(f"x{i}" for i in range(1, n_vars + 1))
    cons = []
    for _ in range(n_clauses):
        if distinct:
            cons.append(constraint(rel, *rng.sample(vars, rel.arity)))
        else:
            cons.append(constraint(rel, *(rng.choice(vars) for _ in range(rel.arity))))
    return Formula.of(cons, universe=vars)


def random_mixed_formula(rng: random.Random, rels, n_vars: int, n_clauses: int) -> Formula:
    vars = tuple(f"x{i}" for i in range(1, n_vars + 1))
    cons = [constraint(r, *(rng.choice(vars) for _ in range(r.arity)))
            for r in (rng.choice(rels) for _ in range(n_clauses))]
    return Formula.of(cons, universe=vars)
