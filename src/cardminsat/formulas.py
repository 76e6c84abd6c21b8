"""Formulas (conjunctions of constraints), assignments and query answers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import PreconditionError
from .relations import Relation


class Constraint(NamedTuple):
    """A relation applied to a list of (not necessarily distinct) variables."""

    relation: Relation
    vars: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation.name}({', '.join(self.vars)})"


def constraint(relation: Relation, *vars: str) -> Constraint:
    return Constraint(relation, tuple(vars))


def _first_occurrences(constraints: Iterable[Constraint]) -> tuple[str, ...]:
    """The variables of the constraints, each once, in first-occurrence order."""
    return tuple(dict.fromkeys(v for c in constraints for v in c.vars))


@dataclass(frozen=True)
class Formula:
    """An ordered variable universe plus a list of constraints.

    The universe may strictly contain the occurring variables; by default it
    is exactly the occurring variables in first-occurrence order.
    """

    universe: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def of(cls, constraints: Iterable[Constraint], universe: Sequence[str] | None = None,
           validate: bool = True) -> "Formula":
        """The formula over ``constraints``; the universe defaults to the
        occurring variables.  With ``validate=False`` the caller vouches that
        the universe has no repeated name and covers every constraint of the
        right arity, and no check is made."""
        cons = tuple(constraints)
        names = _first_occurrences(cons) if universe is None else tuple(universe)
        f = object.__new__(cls)  # bypasses __post_init__, so `validate` runs at most once
        object.__setattr__(f, "universe", names)
        object.__setattr__(f, "constraints", cons)
        if validate:
            f.validate()
        return f

    def validate(self) -> None:
        members = set(self.universe)
        if len(members) != len(self.universe):
            raise ValueError("universe contains duplicate variables")
        for c in self.constraints:
            if len(c.vars) != c.relation.arity:
                raise ValueError(f"constraint {c} has {len(c.vars)} vars for arity {c.relation.arity}")
            for v in c.vars:
                if v not in members:
                    raise ValueError(f"constraint variable {v!r} is not in the universe")

    @property
    def num_vars(self) -> int:
        return len(self.universe)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def occurring(self) -> tuple[str, ...]:
        return _first_occurrences(self.constraints)

    def relations(self) -> tuple[Relation, ...]:
        """The distinct relations used, by name and tuples, in first-use order."""
        by_id = {id(c.relation): c.relation for c in self.constraints}
        return tuple(dict.fromkeys(by_id.values()))

    def evaluate(self, values: Mapping[str, int]) -> bool:
        for rel, vs in self.constraints:
            idx = 0
            for v in vs:
                idx = (idx << 1) | (values[v] & 1)
            if not rel.has_index(idx):
                return False
        return True


@dataclass(frozen=True)
class Assignment:
    """A total assignment over an ordered variable tuple."""

    vars: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vars) != len(self.values):
            raise ValueError("assignment arity mismatch")

    @property
    def weight(self) -> int:
        return sum(self.values)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.vars, self.values))

    def value(self, var: str) -> int:
        return self.values[self.vars.index(var)]

    def restrict(self, vars: Sequence[str]) -> "Assignment":
        d = self.as_dict()
        return Assignment(tuple(vars), tuple(d[v] for v in vars))

    def satisfies(self, formula: Formula) -> bool:
        return formula.evaluate(self.as_dict())

    def __str__(self) -> str:
        return "".join(map(str, self.values))


@dataclass(frozen=True)
class CmsAnswer:
    """Answer to: is the query atom true in some minimum-weight model?

    ``min_weight`` is the least weight of a model (None when there is none)
    and ``witness`` a minimum-weight model setting the query atom to 1 (None
    when there is none); the verdict and its reason follow from the two.
    """

    min_weight: int | None
    witness: Assignment | None

    def __post_init__(self) -> None:
        if self.min_weight is None and self.witness is not None:
            raise ValueError("an unsatisfiable answer has no witness")

    @property
    def verdict(self) -> bool:
        return self.witness is not None

    @property
    def reason(self) -> str:
        if self.witness is not None:
            return "in-min-model"
        return "unsatisfiable" if self.min_weight is None else "query-false-in-all-min-models"

    def key(self) -> tuple[bool, int | None, bool]:
        """(satisfiable, min_weight, verdict), as ``gauss.cms_affine`` gives."""
        return (self.min_weight is not None, self.min_weight, self.verdict)


@dataclass(frozen=True)
class CmsStarInstance:
    """A formula, a query atom and a cardinality bound."""

    formula: Formula
    query: str
    bound: int

    def __post_init__(self) -> None:
        require_query(self.formula, self.query)
        if self.bound < 0:
            raise ValueError("bound must be non-negative")


def require_query(formula: Formula, query: str) -> None:
    if query not in formula.universe:
        raise PreconditionError(f"query atom {query!r} is not in the universe")


def fresh_prefix(universe: Sequence[str]) -> str:
    """The shortest run of underscores that starts no universe variable:
    one more than the longest run of leading underscores."""
    leading = map(sub, map(len, universe), map(len, map(str.lstrip, universe, repeat("_"))))
    return "_" * (1 + max(leading, default=0))
