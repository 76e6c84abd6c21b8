"""Local-replacement reductions preserving minimum-weight query answers.

Five chain steps take positive-2-clause instances down to ternary-parity
instances, and one gadget per hard co-clone rewrites those into weak-base
instances: eleven gadgets are rows of one layout table, II1 is written out.
Every target is the source universe followed by the fresh variables.  Boost
blocks ("give a variable weight N") always use an N that exceeds every
competing model weight, so minimum-weight models never pay them.  Fresh
variables use a reserved prefix of underscores chosen so they cannot collide
with source variables, which keeps chained outputs reproducible byte for
byte.  An output is plain data; `lift_model` lifts a source model by
searching the output's formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Sequence

from .coclones import CoCloneId, weak_base
from .errors import PreconditionError
from .formulas import Assignment, CmsStarInstance, Constraint, Formula, fresh_prefix, require_query
from .gauss import formula_system
from .relations import Relation, build_named_relation
from .search import find_model

_OR2 = build_named_relation("OR", 2)
_NAE3 = build_named_relation("NAE3")
_XOR2 = build_named_relation("XOR", 2)
_XOR3 = build_named_relation("XOR", 3)
_XOR4 = build_named_relation("XOR", 4)

OR2_WEAKBASE_TARGETS = ("II2", "II1", "IN2", "IV2", "IV1", "IS0", "IS01", "IS02", "IS00")
XOR3_WEAKBASE_TARGETS = ("IL2", "IL3", "IL1")


@dataclass(frozen=True)
class ReductionStats:
    fresh_var_count: int
    boost_n: int | None
    declared_weight_offset: int | None


@dataclass(frozen=True)
class ReductionOutput:
    formula: Formula
    query: str
    bound: int | None
    stats: ReductionStats
    source: Formula


def _output(source: Formula, query: str, cons: list[Constraint], fresh: Sequence[str], offset: int,
            boost_n: int | None = None, bound: int | None = None) -> ReductionOutput:
    """The target over the source universe followed by `fresh`."""
    target = Formula.of(cons, source.universe + tuple(fresh), validate=False)
    return ReductionOutput(target, query, bound, ReductionStats(len(fresh), boost_n, offset), source)


def lift_model(red: ReductionOutput, model: Assignment) -> Assignment:
    """Extend a source model to a model of the target, by one rule for every
    reduction: the lexicographically least minimum-weight extension.

    Each reduction is sound because every source model extends to a target
    model of the source weight plus the declared offset and to none lighter,
    so the least extension within that weight is the one searched for.
    """
    offset = red.stats.declared_weight_offset
    if offset is None:
        raise PreconditionError("this output is the fixed placeholder for an unsatisfiable source")
    if model.vars != red.source.universe:
        raise PreconditionError("assignment is not over the source universe")
    values = model.as_dict()
    if not red.source.evaluate(values):
        raise PreconditionError("assignment is not a model of the source formula")
    lifted = find_model(red.formula, model.weight + offset, values)
    assert lifted is not None, "the declared weight offset admits no extension"
    return lifted


def restrict_model(red: ReductionOutput, model: Assignment) -> Assignment:
    """Drop the fresh variables from a model of the target."""
    if red.stats.declared_weight_offset is None:
        raise PreconditionError("this output is the fixed placeholder for an unsatisfiable source")
    if model.vars != red.formula.universe:
        raise PreconditionError("assignment is not over the target universe")
    if not model.satisfies(red.formula):
        raise PreconditionError("assignment is not a model of the target formula")
    return model.restrict(red.source.universe)


def _require_fragment(formula: Formula, allowed: tuple[Relation, ...], what: str) -> None:
    for rel in formula.relations():
        if not any(rel.same_tuples(a) for a in allowed):
            raise PreconditionError(f"constraint over {rel.name} is outside the {what} fragment")


# ---------------------------------------------------------------------------
# Chain steps
# ---------------------------------------------------------------------------


def reduce_or2_to_nae3(formula: Formula, query: str) -> ReductionOutput:
    """Positive 2-clauses to not-all-equal constraints with a weighted zero."""
    require_query(formula, query)
    _require_fragment(formula, (_OR2,), "positive-2-clause")
    if not formula.constraints:
        raise PreconditionError("the clause-to-NAE rewriting needs a non-empty formula")
    n = formula.num_vars
    big_n = n + 1
    pre = fresh_prefix(formula.universe)
    f, t = pre + "f", pre + "t"
    boosts = tuple(f"{pre}f{j}" for j in range(1, big_n + 1))
    cons = [Constraint(_NAE3, (a, b, f)) for _, (a, b) in formula.constraints]
    cons.append(Constraint(_NAE3, (f, f, t)))
    cons.extend(Constraint(_NAE3, (fj, fj, t)) for fj in boosts)
    return _output(formula, query, cons, (f, t) + boosts, 1, big_n)


def reduce_nae3_to_xor3_star(formula: Formula, query: str) -> ReductionOutput:
    """Not-all-equal constraints to ternary parity with a cardinality bound.

    Per constraint, one parity variable per pair of arguments plus N-1 boost
    copies each; exactly one pair agrees when the constraint holds, all three
    when it is violated, so violated constraints cost 2N extra.  With
    N = n+2 the bound (m+1)N - 1 separates the two cases even counting the
    frozen truth variable.
    """
    require_query(formula, query)
    _require_fragment(formula, (_NAE3,), "not-all-equal")
    m = formula.num_constraints
    if m < 1:
        raise PreconditionError("the parity rewriting needs a non-empty formula")
    n = formula.num_vars
    big_n = n + 2
    bound = (m + 1) * big_n - 1
    pre = fresh_prefix(formula.universe)
    t = pre + "t"
    cons = [Constraint(_XOR3, (t, t, t))]
    fresh: list[str] = [t]
    for i, (_, (x, y, z)) in enumerate(formula.constraints, start=1):
        for role, (u, v) in (("a", (x, y)), ("b", (x, z)), ("g", (y, z))):
            head = f"{pre}{role}{i}"
            copies = tuple(f"{pre}{role}{i}c{j}" for j in range(2, big_n + 1))
            cons.append(Constraint(_XOR3, (u, v, head)))
            cons.extend(Constraint(_XOR3, (head, c, t)) for c in copies)
            fresh.append(head)
            fresh.extend(copies)
    return _output(formula, query, cons, fresh, m * big_n + 1, big_n, bound)


def reduce_xor3_star_to_xor4(instance: CmsStarInstance) -> ReductionOutput:
    """Bounded ternary parity to plain 4-ary parity.

    The k fresh variables are tied together by every constraint; setting all
    of them gives the sentinel model of weight exactly k, which absorbs the
    cardinality bound into the plain problem.
    """
    formula, query, k = instance.formula, instance.query, instance.bound
    _require_fragment(formula, (_XOR3,), "ternary-parity")
    if formula.num_constraints < 1:
        raise PreconditionError("the bound-absorbing rewriting needs a non-empty formula")
    if k < 1:
        raise PreconditionError("bound must be at least 1 so the sentinel model exists")
    pre = fresh_prefix(formula.universe)
    alphas = tuple(f"{pre}a{j}" for j in range(1, k + 1))
    cons = [Constraint(_XOR4, (x, y, z, aj))
            for _, (x, y, z) in formula.constraints for aj in alphas]
    return _output(formula, query, cons, alphas, 0)


def reduce_xor4_to_xor3_xor2(formula: Formula, query: str) -> ReductionOutput:
    """Split 4-ary parity into two ternary halves tied by a 2-ary parity;
    the two halves take complementary values, contributing weight 1 each."""
    require_query(formula, query)
    _require_fragment(formula, (_XOR4,), "4-ary-parity")
    pre = fresh_prefix(formula.universe)
    cons: list[Constraint] = []
    fresh: list[str] = []
    for i, (_, (x1, x2, x3, x4)) in enumerate(formula.constraints, start=1):
        y, z = f"{pre}y{i}", f"{pre}z{i}"
        cons += (Constraint(_XOR3, (x1, x2, y)), Constraint(_XOR3, (x3, x4, z)),
                 Constraint(_XOR2, (y, z)))
        fresh += (y, z)
    return _output(formula, query, cons, fresh, formula.num_constraints)


def reduce_xor3xor2_to_xor3(formula: Formula, query: str) -> ReductionOutput:
    """Eliminate 2-ary parity constraints via one shared weighted variable.

    Unsatisfiable sources map to a fixed negative instance whose unique
    minimum model leaves the query false.
    """
    require_query(formula, query)
    _require_fragment(formula, (_XOR3, _XOR2), "parity")
    pre = fresh_prefix(formula.universe)
    system = formula_system(formula)  # never None: XOR3 and XOR2 are affine
    if not system.satisfiable:
        y = pre + "y"
        target = Formula.of([Constraint(_XOR3, (y, query, query))], (query, y))
        stats = ReductionStats(fresh_var_count=1, boost_n=None, declared_weight_offset=None)
        return ReductionOutput(target, query, None, stats, formula)
    n = formula.num_vars
    big_n = n + 1
    w, t = pre + "w", pre + "t"
    boosts = tuple(f"{pre}w{j}" for j in range(1, big_n + 1))
    # the fragment check leaves XOR3 as the only ternary and XOR2 as the only binary relation
    cons = [Constraint(_XOR3, vs if len(vs) == 3 else vs + (w,)) for _, vs in formula.constraints]
    cons.append(Constraint(_XOR3, (t, t, t)))
    cons.extend(Constraint(_XOR3, (t, w, wj)) for wj in boosts)
    return _output(formula, query, cons, (w, t) + boosts, 1, big_n)


# ---------------------------------------------------------------------------
# Weak-base gadgets
# ---------------------------------------------------------------------------


def reduce_to_weakbase(c: CoCloneId, formula: Formula, query: str) -> ReductionOutput:
    """Rewrite a source instance into a weak-base instance of a hard co-clone.

    Sources are positive-2-clause formulas, except for the affine targets
    (IL1, IL2, IL3) which start from ternary parity.
    """
    require_query(formula, query)
    if c.tag in OR2_WEAKBASE_TARGETS:
        _require_fragment(formula, (_OR2,), "positive-2-clause")
    elif c.tag in XOR3_WEAKBASE_TARGETS:
        _require_fragment(formula, (_XOR3,), "ternary-parity")
    else:
        raise PreconditionError(f"no weak-base gadget for {c}; the co-clone is not in the hard list")
    builder = _wb_ii1 if c.tag == "II1" else _wb_layout
    return builder(c, weak_base(c), formula, query)


# A layout gadget writes, per source constraint i, one constraint per layout: the main
# layout, then the pair layouts.  A layout names the source constraint's variables x1, x2,
# ..., the constants f and t, and for each role r a head {pre}{r}{i} and its complement
# {pre}{r}p{i}, which the pair layouts tie together.  An IS row repeats x2 up to the clause
# width.  A gadget adds only the constants its layouts use, in the order f, t.  A boosted
# gadget appends R(f,f,f,f,t,t,t,t) and n+p+1 copies of it with a fresh fj in place of f.
# Each row: (roles, main layout, pair layouts, boosted).
_GADGET_LAYOUTS = {
    "II2": ("abcd", "a b c d x1 x2 f t",
            ("a ap f ap a t f t", "b bp f bp b t f t", "c cp f cp c t f t", "d dp f dp d t f t"),
            False),
    "IN2": ("abcd", "f a b c d x1 x2 t",
            ("a a a a ap ap ap ap", "b b b b bp bp bp bp", "c c c c cp cp cp cp",
             "d d d d dp dp dp dp"),
            True),
    "IL2": ("uvw", "u v w x1 x2 x3 f t", ("u v w up vp wp f t",), False),
    "IL3": ("uvw", "u v w f x1 x2 x3 t", ("u v w f up vp wp t",), True),
    "IL1": ("", "x1 x2 x3 t", (), False),
    "IV2": ("", "t x1 x2 f t", (), False),
    "IV1": ("", "t x1 x2 f t", (), False),
    "IS0": ("", "x1 x2 t", (), False),
    "IS01": ("", "x1 x2 f t", (), False),
    "IS02": ("", "x1 x2 f t", (), False),
    "IS00": ("", "x1 x2 f f t", (), False),
}


def _wb_layout(c: CoCloneId, rel: Relation, formula: Formula, query: str) -> ReductionOutput:
    roles, main, pairs, boosted = _GADGET_LAYOUTS[c.tag]
    layouts = [layout.split() for layout in (main, *pairs)]
    if c.width is not None:  # an IS row: x1 x2 widens to x1 x2 ... x2
        layouts[0][1:2] = ["x2"] * (c.width - 1)
    used = set().union(*layouts)
    fresh_names = [*roles, *(r + "p" for r in roles)]
    symbols = ["f", "t", *sorted(s for s in used if s[0] == "x"), *fresh_names]
    getters = [itemgetter(*map(symbols.index, layout)) for layout in layouts]
    pre = fresh_prefix(formula.universe)
    f, t = pre + "f", pre + "t"
    stems = [pre + s for s in fresh_names]
    n, p = formula.num_vars, formula.num_constraints
    fresh = [s + i for i in map(str, range(1, p + 1)) for s in stems]
    # the fresh names of each source constraint (none for a gadget with no roles)
    names_of = zip(*[iter(fresh)] * len(stems)) if stems else repeat(())
    cons = [Constraint(rel, get(row))
            for (_, xs), names in zip(formula.constraints, names_of)
            for row in [(f, t, *xs, *names)] for get in getters]
    fresh += [pre + s for s in ("f", "t") if s in used]
    big_n = n + p + 1 if boosted else None
    if big_n is not None:
        boosts = [f"{pre}f{j}" for j in range(1, big_n + 1)]
        cons += [Constraint(rel, (fj, fj, fj, fj, t, t, t, t)) for fj in [f, *boosts]]
        fresh += boosts
    return _output(formula, query, cons, fresh, len(roles) * p + 1, big_n)


def _wb_ii1(c: CoCloneId, rel: Relation, formula: Formula, query: str) -> ReductionOutput:
    pre = fresh_prefix(formula.universe)
    n, p = formula.num_vars, formula.num_constraints
    big_n = n + p + 1
    f, t = pre + "f", pre + "t"
    cons = []
    fresh: list[str] = []
    for i, (_, (x1, x2)) in enumerate(formula.constraints, start=1):
        y, z = f"{pre}y{i}", f"{pre}z{i}"
        cons.append(Constraint(rel, (x1, x2, y, t)))
        cons.append(Constraint(rel, (y, z, f, t)))
        fresh.extend((y, z))
    fresh.append(f)
    for j in range(1, big_n + 1):
        f1, f2 = f"{pre}u{j}", f"{pre}v{j}"
        cons.append(Constraint(rel, (f1, f2, f, t)))
        fresh.extend((f1, f2))
    fresh.append(t)
    return _output(formula, query, cons, fresh, p + big_n + 1, big_n)


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


# Each chain step by name, as a call on the last stage's formula, query and bound.  The
# reduction is looked up in the module namespace when the step runs, so a wrapper set on
# the module attribute (as the benchmark tracer does) is the one called.
_CHAIN_CALLS = {
    "or2_to_nae3": lambda f, q, k: reduce_or2_to_nae3(f, q),
    "nae3_to_xor3_star": lambda f, q, k: reduce_nae3_to_xor3_star(f, q),
    "xor3_star_to_xor4": lambda f, q, k: reduce_xor3_star_to_xor4(CmsStarInstance(f, q, k)),
    "xor4_to_xor3_xor2": lambda f, q, k: reduce_xor4_to_xor3_xor2(f, q),
    "xor3xor2_to_xor3": lambda f, q, k: reduce_xor3xor2_to_xor3(f, q),
}
CHAIN_STEPS = tuple(_CHAIN_CALLS)


@dataclass(frozen=True)
class ChainPipeline:
    """An ordered reduction pipeline from positive-2-clause instances to
    weak-base instances of a hard co-clone."""

    target: CoCloneId
    steps: tuple[str, ...]

    def run(self, formula: Formula, query: str) -> list[ReductionOutput]:
        """Apply every step; returns one output per stage, in order."""
        outputs: list[ReductionOutput] = []
        current, q, bound = formula, query, None
        for step in self.steps:
            if step.startswith("to_weakbase_"):
                out = reduce_to_weakbase(self.target, current, q)
            else:
                out = _CHAIN_CALLS[step](current, q, bound)
            outputs.append(out)
            current, q, bound = out.formula, out.query, out.bound
        return outputs


def compose_chain(target: CoCloneId) -> ChainPipeline:
    """The reduction pipeline reaching the weak base of a hard co-clone.

    Co-clones handled by a polynomial engine (or by the bijunctive special
    case) have no chain and are rejected.
    """
    suffix = f"to_weakbase_{target.tag}" + (f"_{target.width}" if target.width else "")
    if target.tag in OR2_WEAKBASE_TARGETS:
        return ChainPipeline(target, (suffix,))
    if target.tag in XOR3_WEAKBASE_TARGETS:
        return ChainPipeline(target, CHAIN_STEPS + (suffix,))
    raise PreconditionError(f"{target} is not one of the chain-reducible hard co-clones")
