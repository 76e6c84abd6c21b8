"""The solving engines: trivial route, Horn fixpoint, parity components,
the generic oracle-budgeted engine, and the dispatcher."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import search
from .bruteforce import cms_bruteforce
from .classify import relation_properties
from .coclones import Bucket, cms_bucket
from .errors import PreconditionError
from .formulas import Assignment, CmsAnswer, Formula, require_query
from .gauss import affine_parity_checks
from .relations import ConstraintLanguage, Relation


class Engine(enum.Enum):
    TRIVIAL = "Trivial"
    HORN_FIXPOINT = "HornFixpoint"
    WIDTH2_AFFINE = "Width2Affine"
    GENERIC_ORACLE = "GenericOracle"
    BRUTE_FORCE = "BruteForce"


@dataclass(frozen=True)
class SolveReport:
    answer: CmsAnswer
    engine: Engine
    oracle_calls: int = 0


def oracle_budget(n: int) -> int:
    """ceil(log2(n+2)) + 1: binary search over weights 0..n plus "unsat",
    plus one final query call."""
    return (n + 1).bit_length() + 1


# ---------------------------------------------------------------------------
# Horn engine
# ---------------------------------------------------------------------------


def solve_horn(formula: Formula, query: str) -> SolveReport:
    """Least-model computation by generalized unit propagation.

    Runs the search kernel's propagation from the empty assignment.  For
    Horn relations it meets a conflict exactly when the formula is
    unsatisfiable; otherwise the variables it forces to 1 are those of the
    least model, which is the unique minimum-weight model (every other
    variable is 0 there).
    """
    require_query(formula, query)
    for rel in formula.relations():
        if "horn" not in relation_properties(rel):
            raise PreconditionError(f"relation {rel.name} is not Horn; refusing to run the Horn engine")
    forced = search.propagate(formula)
    if forced is None:
        return SolveReport(CmsAnswer(None, None), Engine.HORN_FIXPOINT)
    values = tuple(1 if b == 1 else 0 for b in forced)
    witness = Assignment(formula.universe, values) if values[formula.universe.index(query)] else None
    return SolveReport(CmsAnswer(sum(values), witness), Engine.HORN_FIXPOINT)


# ---------------------------------------------------------------------------
# Width-2-affine engine
# ---------------------------------------------------------------------------


class _ParityDSU:
    """Union-find with the parity of each variable to its root; union by
    size and path compression keep every find iterative and short."""

    ZERO = "\x00const"

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}
        self.par: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.unsat = False

    def find(self, v: str) -> tuple[str, int]:
        parent, par = self.parent, self.par
        if v not in parent:
            parent[v] = v
            par[v] = 0
            self.size[v] = 1
            return v, 0
        path = []
        root = v
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        p = 0
        for u in reversed(path):  # nearest to the root first
            p ^= par[u]
            par[u] = p
            parent[u] = root
        return root, (par[v] if path else 0)

    def union(self, u: str, v: str, parity: int) -> None:
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            if pu ^ pv != parity:
                self.unsat = True
            return
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.par[rv] = pu ^ pv ^ parity
        self.size[ru] += self.size[rv]


def solve_width2affine(formula: Formula, query: str) -> SolveReport:
    """Exact engine for formulas over width-2-affine relations.

    A relation is width-2-affine exactly when its parity checks all have
    width <= 2 (the empty relation gives x=0 and x=1).  Every constraint
    joins its unit and two-variable checks into parity components; the
    engine picks the lighter side per unforced component (both on ties).
    """
    require_query(formula, query)
    checks: dict[Relation, tuple | None] = {}
    for rel in formula.relations():
        found = checks[rel] = affine_parity_checks(rel)
        if found is None or any(len(coords) > 2 for coords, _ in found):
            raise PreconditionError(
                f"relation {rel.name} is not width-2-affine; refusing to run the parity engine")
    dsu = _ParityDSU()
    for rel, vs in formula.constraints:
        for coords, parity in checks[rel]:
            # a unit check ties its variable to the constant; union(x, x, 1) flags unsat
            dsu.union(vs[coords[0]], vs[coords[1]] if len(coords) == 2 else dsu.ZERO, parity)
    if dsu.unsat:
        return SolveReport(CmsAnswer(None, None), Engine.WIDTH2_AFFINE)
    # (root, parity) of each variable in some check; the others are 0 in every minimum model
    rooted = [dsu.find(v) if v in dsu.parent else None for v in formula.universe]
    choice: dict[str, int] = {}  # component root -> value of the root
    zero_root = None
    if dsu.ZERO in dsu.parent:
        zero_root, zero_par = dsu.find(dsu.ZERO)
        choice[zero_root] = zero_par  # the constant's component is forced
    ones: dict[str, int] = {}  # component root -> weight when the root is 0
    size: dict[str, int] = {}
    for rp in rooted:
        if rp is not None:
            root, p = rp
            if root in size:
                size[root] += 1
                ones[root] += p
            else:
                size[root], ones[root] = 1, p
                choice.setdefault(root, p)  # on a tie the earliest member is 0

    def cost(root: str, b: int) -> int:
        return size[root] - ones[root] if b else ones[root]

    for root, n1 in ones.items():
        n0 = size[root] - n1  # weight when the root is 1
        if root != zero_root and n1 != n0:
            choice[root] = int(n0 < n1)
    min_weight = sum(cost(root, b) for root, b in choice.items())
    witness = None
    q = rooted[formula.universe.index(query)]
    if q is not None:
        qroot, qpar = q
        if qroot != zero_root and cost(qroot, qpar ^ 1) <= cost(qroot, qpar):
            choice[qroot] = qpar ^ 1  # a minimum model with the query at 1
        if qpar ^ choice[qroot]:
            values = tuple(0 if rp is None else rp[1] ^ choice[rp[0]] for rp in rooted)
            witness = Assignment(formula.universe, values)
    return SolveReport(CmsAnswer(min_weight, witness), Engine.WIDTH2_AFFINE)


# ---------------------------------------------------------------------------
# Generic oracle engine
# ---------------------------------------------------------------------------


def solve_generic(formula: Formula, query: str) -> SolveReport:
    """Binary search over the weight bound with an internal NP oracle,
    then one final call with the query atom forced to 1.

    A model found at bound ``mid`` lowers ``hi`` to its own weight, which
    never adds a call.  The last model found is the lexicographically least
    minimum-weight model, so when it sets the query it is the witness and
    the final call is skipped.  The number of oracle calls never exceeds
    ceil(log2(n+2)) + 1.
    """
    require_query(formula, query)
    n = formula.num_vars
    calls = 0
    lo, hi = 0, n + 1  # n+1 encodes "unsatisfiable"
    least = None
    while lo < hi:
        mid = (lo + hi) // 2
        calls += 1
        model = search.find_model(formula, mid)
        if model is None:
            lo = mid + 1
        else:
            least, hi = model, model.weight
    if least is None:
        return SolveReport(CmsAnswer(None, None), Engine.GENERIC_ORACLE, calls)
    witness = least
    if not least.value(query):
        calls += 1
        witness = search.find_model(formula, weight_bound=lo, forced={query: 1})
    return SolveReport(CmsAnswer(lo, witness), Engine.GENERIC_ORACLE, calls)


def solve_brute(formula: Formula, query: str) -> SolveReport:
    return SolveReport(cms_bruteforce(formula, query), Engine.BRUTE_FORCE)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def dispatch(language: ConstraintLanguage, formula: Formula, query: str) -> SolveReport:
    """Route per the tractability classification of the language."""
    require_query(formula, query)
    for rel in formula.relations():
        if rel.name not in language or not language.get(rel.name).same_tuples(rel):
            raise PreconditionError(f"formula uses relation {rel.name!r} outside the language")
    bucket = cms_bucket(language)
    if bucket is Bucket.TRIVIAL_0VALID:
        # 0-valid language: the all-zero assignment is the unique minimum model.
        return SolveReport(CmsAnswer(0, None), Engine.TRIVIAL)
    if bucket is Bucket.POLY_HORN:
        return solve_horn(formula, query)
    if bucket is Bucket.POLY_WIDTH2_AFFINE:
        return solve_width2affine(formula, query)
    return solve_generic(formula, query)
