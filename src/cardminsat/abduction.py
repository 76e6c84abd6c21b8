"""Propositional abduction with parity-clause theories and minimum-size
explanations, plus the rewriting of minimum-weight parity queries into the
relevance question."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import GuardError, NoSolutionError, ParseError, PreconditionError
from .formulas import Formula, fresh_prefix, require_query
from .gauss import GF2Solver, gauss_solve
from .relations import build_named_relation

CLOSED_WORLD = "cw"
POSITIVE_UNITS = "pu"
SEMANTICS = (CLOSED_WORLD, POSITIVE_UNITS)

VAR_GUARD = 20

_XOR3 = build_named_relation("XOR", 3)


class XorClause(NamedTuple):
    vars: tuple[str, ...]
    parity: int


@dataclass(frozen=True)
class PAP:
    """An abduction instance: variables, hypotheses, manifestations, and a
    consistent theory made of parity clauses."""

    variables: tuple[str, ...]
    hypotheses: tuple[str, ...]
    manifestations: tuple[str, ...]
    theory: tuple[XorClause, ...]

    def __post_init__(self) -> None:
        vs = set(self.variables)
        if len(vs) != len(self.variables):
            raise ValueError("duplicate variables")
        for group, name in ((self.hypotheses, "hypothesis"), (self.manifestations, "manifestation")):
            for v in group:
                if v not in vs:
                    raise ValueError(f"{name} {v!r} is not a declared variable")
        for clause in self.theory:
            for v in clause.vars:
                if v not in vs:
                    raise ValueError(f"theory variable {v!r} is not declared")
        sat, _ = gauss_solve([(c.vars, c.parity) for c in self.theory])
        if not sat:
            raise ValueError("theory is inconsistent")


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}; use one of {SEMANTICS}")


def _units(pap: PAP, chosen: frozenset[str], semantics: str) -> dict[str, int]:
    units = {h: 1 for h in chosen}
    if semantics == CLOSED_WORLD:
        units.update({h: 0 for h in pap.hypotheses if h not in chosen})
    return units


def _theory_solver(pap: PAP) -> GF2Solver:
    solver = GF2Solver()
    for c in pap.theory:
        solver.add(c.vars, c.parity)
    return solver


def _explains(pap: PAP, solver: GF2Solver, chosen: frozenset[str], semantics: str) -> bool:
    """Fold the chosen units into ``solver``, which holds the folded theory,
    and tell whether the system stays consistent and entails every
    manifestation."""
    for v, b in _units(pap, chosen, semantics).items():
        solver.add((v,), b)
    return solver.satisfiable and all(solver.value_mask(m) == 1 for m in pap.manifestations)


def is_solution(pap: PAP, chosen: Iterable[str], semantics: str = CLOSED_WORLD) -> bool:
    """Is the hypothesis set a solution: theory plus the chosen units is
    consistent and entails every manifestation?

    Under the closed-world reading the un-chosen hypotheses are asserted
    false; under the positive-units reading they are left open.  The theory
    and the units are one parity system, which entails a manifestation
    exactly when its value mask is the constant 1.
    """
    _check_semantics(semantics)
    chosen = frozenset(chosen)
    for h in chosen:
        if h not in pap.hypotheses:
            raise PreconditionError(f"{h!r} is not a hypothesis")
    return _explains(pap, _theory_solver(pap), chosen, semantics)


def relevance_bruteforce(pap: PAP, hypothesis: str, semantics: str = CLOSED_WORLD) -> bool:
    """Does some minimum-cardinality solution contain the hypothesis?

    Searches the hypothesis subsets by size, so the number of hypotheses is
    guarded.  The theory is folded once; each subset's units go into a copy.
    """
    _check_semantics(semantics)
    if hypothesis not in pap.hypotheses:
        raise PreconditionError(f"{hypothesis!r} is not a hypothesis")
    if len(pap.hypotheses) > VAR_GUARD:
        raise GuardError(f"{len(pap.hypotheses)} hypotheses exceed the subset-search guard "
                         f"({VAR_GUARD})")
    theory = _theory_solver(pap)
    for size in range(len(pap.hypotheses) + 1):
        found = [s for s in map(frozenset, combinations(pap.hypotheses, size))
                 if _explains(pap, theory.copy(), s, semantics)]
        if found:
            return any(hypothesis in s for s in found)
    raise NoSolutionError("the abduction instance has no solution")


def reduce_cms_xor3_to_relevance(formula: Formula, query: str) -> tuple[PAP, str]:
    """Rewrite a ternary-parity minimum-weight query as a relevance question.

    One manifestation per constraint, defined by a 4-ary parity clause; under
    the closed-world semantics the solutions are exactly the models of the
    source formula.
    """
    require_query(formula, query)
    for rel, _ in formula.constraints:
        if not rel.same_tuples(_XOR3):
            raise PreconditionError(f"constraint over {rel.name} is outside the ternary-parity fragment")
    prefix = fresh_prefix(formula.universe)
    goals = tuple(f"{prefix}g{i}" for i in range(1, formula.num_constraints + 1))
    theory = tuple(XorClause(vs + (g,), 0) for (_, vs), g in zip(formula.constraints, goals))
    pap = PAP(formula.universe + goals, formula.universe, goals, theory)
    return pap, query


# ---------------------------------------------------------------------------
# File format:  vars / hyp / man lines, then one "t v1 v2 ... = a" per clause
# ---------------------------------------------------------------------------


def render_pap(pap: PAP) -> str:
    def section(tag: str, names: tuple[str, ...]) -> str:
        return tag + ("" if not names else " " + " ".join(names))

    lines = [section("vars", pap.variables), section("hyp", pap.hypotheses),
             section("man", pap.manifestations)]
    for c in pap.theory:
        lines.append("t " + " ".join(c.vars) + f" = {c.parity}")
    return "\n".join(lines) + "\n"


def parse_pap(text: str) -> PAP:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header: dict[str, tuple[str, ...]] = {}
    clauses: list[XorClause] = []
    expected = ["vars", "hyp", "man"]
    for lineno, line in enumerate(lines, start=1):
        if line != line.strip() or "  " in line or line == "":
            raise ParseError(f"line {lineno}: malformed line {line!r}")
        parts = line.split(" ")
        if parts[0] in ("vars", "hyp", "man"):
            if not expected or parts[0] != expected[0]:
                raise ParseError(f"line {lineno}: misplaced {parts[0]!r} line")
            header[parts[0]] = tuple(parts[1:])
            expected.pop(0)
        elif parts[0] == "t":
            if expected:
                raise ParseError(f"line {lineno}: theory clause before the header is complete")
            if len(parts) < 4 or parts[-2] != "=" or parts[-1] not in ("0", "1"):
                raise ParseError(f"line {lineno}: expected 't v1 ... = a'")
            clauses.append(XorClause(tuple(parts[1:-2]), int(parts[-1])))
        else:
            raise ParseError(f"line {lineno}: unknown line tag {parts[0]!r}")
    if expected:
        raise ParseError(f"missing {expected[0]!r} line")
    try:
        return PAP(header["vars"], header["hyp"], header["man"], tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
