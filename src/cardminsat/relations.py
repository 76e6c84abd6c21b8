"""Boolean relations stored as bitsets over tuple indices.

A k-ary relation is a set of k-tuples over {0,1}.  We index tuples by the
integer whose binary expansion is the tuple with coordinate 1 as the most
significant bit, so a matrix row printed as ``10001101`` is simply
``int("10001101", 2)``.  The whole relation is one Python int with bit i set
iff tuple index i belongs to the relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GuardError

MAX_ARITY = 16


def tuple_to_index(bits: Sequence[int]) -> int:
    """Index of a tuple, first coordinate most significant."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def index_to_tuple(idx: int, arity: int) -> tuple[int, ...]:
    return tuple((idx >> (arity - 1 - i)) & 1 for i in range(arity))


def set_bit_indices(bitset: int) -> np.ndarray:
    """Positions of the set bits of a non-negative int, ascending, in time
    linear in its length."""
    raw = bitset.to_bytes((bitset.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little"))


@dataclass(frozen=True)
class Relation:
    """A named k-ary Boolean relation; ``rows`` is the tuple-index bitset."""

    name: str
    arity: int
    rows: int

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_ARITY:
            raise GuardError(f"relation arity must be in [1, {MAX_ARITY}], got {self.arity}")
        if self.rows < 0 or self.rows >> (1 << self.arity):
            raise ValueError(f"row bitset of {self.name!r} has tuples outside arity {self.arity}")
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"bad relation name {self.name!r}")

    @classmethod
    def from_tuples(cls, name: str, arity: int, tuples: Iterable[Sequence[int]]) -> "Relation":
        rows = 0
        for t in tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {tuple(t)} does not have arity {arity}")
            rows |= 1 << tuple_to_index(t)
        return cls(name, arity, rows)

    @classmethod
    def from_rows(cls, name: str, arity: int, rows: Iterable[str]) -> "Relation":
        """Build from matrix rows written as 0/1 strings, e.g. ``"100011"``."""
        bitset = 0
        for r in rows:
            if len(r) != arity or set(r) - {"0", "1"}:
                raise ValueError(f"bad matrix row {r!r} for arity {arity}")
            bitset |= 1 << int(r, 2)
        return cls(name, arity, bitset)

    # -- queries ---------------------------------------------------------

    def __contains__(self, t: Sequence[int]) -> bool:
        return bool((self.rows >> tuple_to_index(t)) & 1)

    def has_index(self, idx: int) -> bool:
        return bool((self.rows >> idx) & 1)

    @property
    def num_tuples(self) -> int:
        return self.rows.bit_count()

    def tuple_indices(self) -> list[int]:
        """Sorted tuple indices (the canonical matrix row order)."""
        return set_bit_indices(self.rows).tolist()

    def tuples(self) -> list[tuple[int, ...]]:
        return [index_to_tuple(i, self.arity) for i in self.tuple_indices()]

    def matrix_rows(self) -> list[str]:
        return ["".join(map(str, t)) for t in self.tuples()]

    def column(self, coord: int) -> tuple[int, ...]:
        """Column of the matrix representation; ``coord`` is 1-based."""
        if not 1 <= coord <= self.arity:
            raise ValueError(f"coordinate {coord} out of range for arity {self.arity}")
        return tuple(t[coord - 1] for t in self.tuples())

    @property
    def zero_valid(self) -> bool:
        return bool(self.rows & 1)

    @property
    def one_valid(self) -> bool:
        return self.has_index((1 << self.arity) - 1)

    def same_tuples(self, other: "Relation") -> bool:
        return self.arity == other.arity and self.rows == other.rows

    def renamed(self, name: str) -> "Relation":
        return Relation(name, self.arity, self.rows)

    def table(self) -> np.ndarray:
        """Membership table as a bool array of length 2**arity."""
        return _relation_table(self.arity, self.rows).copy()


@lru_cache(maxsize=512)
def _relation_table(arity: int, rows: int) -> np.ndarray:
    table = np.zeros(1 << arity, dtype=bool)
    table[set_bit_indices(rows)] = True
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class ConstraintLanguage:
    """A finite, non-empty set of relations with unique names."""

    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError("constraint language must be non-empty")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in language: {names}")

    @classmethod
    def of(cls, *relations: Relation) -> "ConstraintLanguage":
        return cls(tuple(relations))

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def get(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(f"no relation named {name!r} in language")

    def __contains__(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)

    @property
    def max_arity(self) -> int:
        return max(r.arity for r in self.relations)

    def union(self, other: "ConstraintLanguage") -> "ConstraintLanguage":
        """Both languages' relations; a name both define must have the same
        tuples in both (ValueError otherwise)."""
        extra = []
        for r in other.relations:
            if r.name not in self:
                extra.append(r)
            elif not self.get(r.name).same_tuples(r):
                raise ValueError(f"relation {r.name!r} is defined twice with different tuples")
        return ConstraintLanguage(self.relations + tuple(extra))


# ---------------------------------------------------------------------------
# Named relation families
# ---------------------------------------------------------------------------

# The fixed-arity families, as (arity, matrix rows).
_FIXED: dict[str, tuple[int, tuple[str, ...]]] = {
    "NAE3": (3, ("001", "010", "011", "100", "101", "110")),
    "R13NEQ": (6, ("100011", "010101", "001110")),
    "T": (1, ("1",)),
    "F": (1, ("0",)),
    "EQ": (2, ("00", "11")),
    "NEQ": (2, ("01", "10")),
    "IMPL": (2, ("00", "01", "11")),
}

# The parameterized families, as (name pattern, arity per k, test on a
# tuple index i at parameter k).  EVEN_KNEQ(k) pairs an even-weight first
# half with its coordinate-wise complement.
_PARAMETERIZED: dict[str, tuple[str, int, Callable[[int, int], bool]]] = {
    "OR": ("OR{k}", 1, lambda i, k: i != 0),
    "NAND": ("NAND{k}", 1, lambda i, k: i != (1 << k) - 1),
    "XOR": ("XOR{k}", 1, lambda i, k: i.bit_count() % 2 == 1),
    "EVEN": ("EVEN{k}", 1, lambda i, k: i.bit_count() % 2 == 0),
    "EVEN_KNEQ": ("EVEN{k}NEQ", 2,
                  lambda i, k: (i >> k) ^ (i & ((1 << k) - 1)) == (1 << k) - 1
                  and (i >> k).bit_count() % 2 == 0),
}

_PARAM_MAX_K = 8


def build_named_relation(family: str, k: int | None = None) -> Relation:
    """Construct one of the stock relations.

    ``k`` is required for the parameterized families (OR, NAND, XOR, EVEN,
    EVEN_KNEQ) with 1 <= k <= 8 and ignored for the fixed-arity ones.
    """
    if family in _FIXED:
        return Relation.from_rows(family, *_FIXED[family])
    if family not in _PARAMETERIZED:
        raise ValueError(f"unknown relation family {family!r}")
    if k is None:
        raise ValueError(f"family {family} needs an arity parameter")
    if not 1 <= k <= _PARAM_MAX_K:
        raise GuardError(f"family {family} arity parameter must be in [1, {_PARAM_MAX_K}]")
    name, per_k, member = _PARAMETERIZED[family]
    arity = per_k * k
    return Relation(name.format(k=k), arity,
                    sum(1 << i for i in range(1 << arity) if member(i, k)))
