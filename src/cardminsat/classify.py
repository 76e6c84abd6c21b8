"""Closure properties of relations: polymorphism tests, the properties read
off membership tables, the least clause widths of all eight IS chains from
one pass per relation, property fingerprints, clause saturation,
conjunction definability and the exact pp-membership test for small
relations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import GuardError
from .formulas import Constraint, Formula
from .gauss import is_affine
from .relations import ConstraintLanguage, Relation, build_named_relation

CLOSURE_GUARD = 10**7


@dataclass(frozen=True)
class BoolOp:
    """A finite Boolean operation given by its truth table.

    Bit i of ``table`` is the value on the argument tuple whose index has the
    first argument as the most significant bit, matching Relation's row
    indexing.
    """

    name: str
    arity: int
    table: int


def op_from_function(name: str, arity: int, fn) -> BoolOp:
    table = 0
    for idx in range(1 << arity):
        bits = [(idx >> (arity - 1 - i)) & 1 for i in range(arity)]
        if fn(*bits):
            table |= 1 << idx
    return BoolOp(name, arity, table)


AND2 = op_from_function("and", 2, lambda x, y: x & y)
OR2 = op_from_function("or", 2, lambda x, y: x | y)
NOT1 = op_from_function("not", 1, lambda x: 1 - x)
MAJ3 = op_from_function("maj", 3, lambda x, y, z: (x + y + z) >= 2)


def closed_under(rel: Relation, op: BoolOp) -> bool:
    """Does applying ``op`` component-wise to any tuples of ``rel`` stay in
    ``rel``?  Guarded at |R|**arity combinations."""
    r = rel.num_tuples
    if r == 0:
        return True
    m = op.arity
    total = r**m
    if total > CLOSURE_GUARD:
        raise GuardError(f"closure check needs {r}**{m} combinations, over guard {CLOSURE_GUARD}")
    bits = np.array(rel.tuples(), dtype=np.uint32)  # (r, k)
    table = np.fromiter(((op.table >> i) & 1 for i in range(1 << m)),
                        dtype=np.uint32, count=1 << m)
    member = rel.table()
    k = rel.arity
    place = np.left_shift(np.uint32(1), np.arange(k - 1, -1, -1, dtype=np.uint32))
    step = max(1, min(1 << 16, total))
    for start in range(0, total, step):
        cvec = np.arange(start, min(start + step, total), dtype=np.int64)
        arg = np.zeros((len(cvec), k), dtype=np.uint32)
        for i in range(m):
            digit = (cvec // r ** (m - 1 - i)) % r
            arg = (arg << np.uint32(1)) | bits[digit]
        res = table[arg]  # (chunk, k) result bits
        out = (res * place).sum(axis=1)
        if not member[out].all():
            return False
    return True


# ---------------------------------------------------------------------------
# Clause saturation
# ---------------------------------------------------------------------------

# Template kinds: eq / neq / impl are over coordinate pairs, T / F over single
# coordinates, pos / neg are clauses over coordinate subsets up to a width.


def _columns(arity: int) -> np.ndarray:
    space = np.arange(1 << arity, dtype=np.uint32)
    shifts = np.arange(arity - 1, -1, -1, dtype=np.uint32)
    return ((space >> shifts[:, None]) & np.uint32(1)).astype(bool)


_PAIR_TESTS = {"eq": np.equal, "neq": np.not_equal, "impl": np.less_equal}


def _template_mask(kind: str, cols: np.ndarray, tup: np.ndarray) -> np.ndarray:
    """The points that satisfy every implied constraint of one fixed-width
    template kind; ``tup`` holds the coordinate bits of the relation's
    tuples.  On bits, ``<=`` is implication."""
    if kind == "T":
        return cols[tup.all(axis=1)].all(axis=0)
    if kind == "F":
        return ~cols[~tup.any(axis=1)].any(axis=0)
    coord = np.arange(len(cols))
    # ordered pairs for impl, else the pairs of np.triu_indices(k, 1), built faster
    i, j = np.nonzero(coord[:, None] != coord if kind == "impl" else coord[:, None] < coord)
    test = _PAIR_TESTS[kind]
    keep = test(tup[i], tup[j]).all(axis=1)
    return test(cols[i[keep]], cols[j[keep]]).all(axis=0)


def saturated_models(rel: Relation, kinds: Iterable[str], width: int | None = None) -> np.ndarray:
    """Model table of the conjunction of all implied template constraints.

    Each kind is one array expression over all its coordinates, pairs or
    subsets of one width; only the implied ones are ANDed into the table.
    """
    k = rel.arity
    cols = _columns(k)
    acc = np.ones(1 << k, dtype=bool)
    tup = cols[:, np.flatnonzero(rel.table())]  # (k, r) coordinate bits of the relation's tuples
    kindset = set(kinds)
    for kind in kindset - {"pos", "neg"}:
        acc &= _template_mask(kind, cols, tup)
    for kind, lits, points in (("pos", tup, cols), ("neg", ~tup, ~cols)):
        if kind not in kindset:
            continue
        for w in range(1, min(width or k, k) + 1):
            subsets = np.array(list(combinations(range(k), w)), dtype=np.intp)
            keep = lits[subsets].any(axis=1).all(axis=1)
            acc &= points[subsets[keep]].any(axis=1).all(axis=0)
    return acc


def _subset_fold(values: np.ndarray, op) -> np.ndarray:
    """Fold ``op`` over subsets in place: afterwards values[x] combines the
    original values[s] of every index s whose bits are a subset of x's."""
    for b in range(len(values).bit_length() - 1):
        pairs = values.reshape(-1, 2, 1 << b)
        op(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return values


def _join_closed(table: np.ndarray) -> bool:
    """Is the relation with this membership table closed under OR?  It is
    iff the join of the members below each index, where there is one, is a
    member: one subset pass computes all the joins."""
    size = len(table)
    joins = _subset_fold(np.where(table, np.arange(size) | size, 0), np.bitwise_or)
    return bool(table[joins[joins >= size] - size].all())


# Clause templates of the bounded-width IS chains (equality is always allowed).
IS_TEMPLATES: dict[str, tuple[str, ...]] = {
    "IS0": ("eq", "pos"),
    "IS02": ("eq", "F", "pos"),
    "IS01": ("eq", "impl", "pos"),
    "IS00": ("eq", "F", "impl", "pos"),
    "IS1": ("eq", "neg"),
    "IS12": ("eq", "T", "neg"),
    "IS11": ("eq", "impl", "neg"),
    "IS10": ("eq", "T", "impl", "neg"),
}


def _clause_needs(table: np.ndarray) -> np.ndarray:
    """For each point, the width of the narrowest implied positive clause it
    falsifies, or arity + 1 when there is none.  A positive clause on the
    coordinate set S removes the points that are 0 on all of S, and is
    implied iff no member is."""
    size = len(table)
    k = size.bit_length() - 1
    # inside[S]: some member lies inside the complement of S
    inside = _subset_fold(table.copy(), np.logical_or)[::-1]
    width = np.where(inside, k + 1, np.bitwise_count(np.arange(size)))
    width[0] = k + 1  # the empty clause is not a template
    return _subset_fold(width, np.minimum)[::-1]


@lru_cache(maxsize=4096)
def least_widths(rel: Relation) -> Mapping[str, int | None]:
    """For each IS chain, the least width w >= 1 with
    ``saturated_models(rel, IS_TEMPLATES[tag], w)`` equal to the table of
    ``rel``, or None when no width defines ``rel``.

    A chain's width is the widest of the narrowest implied clauses that the
    non-members left by its fixed templates need.  One pass builds the four
    fixed-template masks and, per clause side, the narrowest clause each
    point falsifies; negative clauses are positive ones on the reversed
    (complemented) table.
    """
    k = rel.arity
    table = rel.table()
    cols = _columns(k)
    tup = cols[:, np.flatnonzero(table)]
    masks = {kind: _template_mask(kind, cols, tup) for kind in ("eq", "F", "T", "impl")}
    needs = {"pos": _clause_needs(table), "neg": _clause_needs(table[::-1])[::-1]}
    out = {}
    for tag, kinds in IS_TEMPLATES.items():
        left = reduce(np.logical_and, (masks[t] for t in kinds if t in masks), ~table)
        need = int(needs["pos" if "pos" in kinds else "neg"][left].max(initial=1))
        out[tag] = need if need <= k else None
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# Property fingerprint
# ---------------------------------------------------------------------------


# The report flags of a fingerprint, each with the properties it needs.
_FLAGS: dict[str, frozenset[str]] = {name: frozenset(keys.split()) for name, keys in (
    ("zero_valid", "zero"), ("one_valid", "one"), ("complementive", "comp"), ("horn", "horn"),
    ("dual_horn", "dual"), ("bijunctive", "bij"), ("affine", "affine"),
    ("width2_affine", "affine bij"))}


@dataclass(frozen=True)
class PropertyFingerprint:
    """The properties every relation of a language has, and for each width k
    whether the IS00 (pos_width) or IS10 (neg_width) templates of clause
    width k define every relation."""

    props: frozenset[str]
    pos_width: tuple[tuple[int, bool], ...]
    neg_width: tuple[tuple[int, bool], ...]

    def is_width_positive(self, k: int) -> bool:
        return dict(self.pos_width).get(k, False)

    def is_width_negative(self, k: int) -> bool:
        return dict(self.neg_width).get(k, False)

    def flags(self) -> dict[str, bool]:
        return {name: need <= self.props for name, need in _FLAGS.items()}


@lru_cache(maxsize=2048)
def relation_properties(rel: Relation) -> frozenset[str]:
    """The keys of the seven basic closure/validity properties that one
    relation has, read off its membership table (index complement = table
    reversal)."""
    table = rel.table()
    has = {
        "zero": rel.zero_valid,
        "one": rel.one_valid,
        "comp": bool((table == table[::-1]).all()),
        "horn": _join_closed(table[::-1]),
        "dual": _join_closed(table),
        "bij": bool((saturated_models(rel, ("impl", "pos", "neg"), 2) == table).all()),
        "affine": is_affine(rel),
    }
    return frozenset(key for key, value in has.items() if value)


def _width_flags(language: ConstraintLanguage, tag: str) -> tuple[tuple[int, bool], ...]:
    least = [least_widths(r)[tag] for r in language]
    return tuple((k, all(w is not None and w <= k for w in least))
                 for k in range(2, language.max_arity + 1))


def fingerprint(language: ConstraintLanguage) -> PropertyFingerprint:
    """The properties and clause widths every relation in the language has."""
    return PropertyFingerprint(frozenset.intersection(*map(relation_properties, language)),
                               _width_flags(language, "IS00"), _width_flags(language, "IS10"))


# ---------------------------------------------------------------------------
# Irredundancy and fictitious coordinates
# ---------------------------------------------------------------------------


def is_irredundant(rel: Relation) -> bool:
    """No two identical columns in the matrix representation."""
    cols = [rel.column(i) for i in range(1, rel.arity + 1)]
    return len(set(cols)) == len(cols)


def fictitious_coordinates(rel: Relation) -> tuple[int, ...]:
    """1-based coordinates whose value never affects membership."""
    table = rel.table()
    k = rel.arity
    space = np.arange(1 << k, dtype=np.uint32)
    out = []
    for i in range(1, k + 1):
        flipped = space ^ np.uint32(1 << (k - i))
        if (table == table[flipped]).all():
            out.append(i)
    return tuple(out)


# ---------------------------------------------------------------------------
# Conjunction definability (no existential variables)
# ---------------------------------------------------------------------------

DEFINABILITY_ARITY_GUARD = 10


def conjunction_definability(rel: Relation, language: ConstraintLanguage,
                             allow_equality: bool = False) -> Formula | None:
    """Witness formula defining ``rel`` over its own variables as a
    conjunction of language constraints, or None.

    The candidate is the conjunction of every implied constraint; any
    conjunctive definition is absorbed by it, so the test is exact.
    Tautological constraints and repeats of an already-seen constraint model
    set are dropped from the returned witness.
    """
    k = rel.arity
    if k > DEFINABILITY_ARITY_GUARD:
        raise GuardError(f"definability witness search limited to arity {DEFINABILITY_ARITY_GUARD}")
    vars = tuple(f"x{i}" for i in range(1, k + 1))
    cols = _columns(k)
    members = np.flatnonzero(rel.table())
    tup = cols[:, members]
    pool = list(language)
    if allow_equality and not any(r.same_tuples(build_named_relation("EQ")) for r in pool):
        pool.append(build_named_relation("EQ"))
    acc = np.ones(1 << k, dtype=bool)
    seen_masks: set[bytes] = set()
    witness: list[Constraint] = []
    for g in pool:
        g_table = g.table()
        for argpos in product(range(k), repeat=g.arity):
            # implied iff every tuple of rel lands in g on these coordinates
            arg = np.zeros(len(members), dtype=np.uint32)
            for p in argpos:
                arg = (arg << np.uint32(1)) | tup[p].astype(np.uint32)
            if not g_table[arg].all():
                continue
            model_bits = np.zeros(1 << k, dtype=np.uint32)
            for p in argpos:
                model_bits = (model_bits << np.uint32(1)) | cols[p].astype(np.uint32)
            mask_arr = g_table[model_bits]
            acc &= mask_arr
            key = mask_arr.tobytes()
            if mask_arr.all() or key in seen_masks:
                continue
            seen_masks.add(key)
            witness.append(Constraint(g, tuple(vars[p] for p in argpos)))
    if (acc == rel.table()).all():
        return Formula.of(witness, universe=vars)
    return None


# ---------------------------------------------------------------------------
# Exact pp-membership for relations with at most four tuples
# ---------------------------------------------------------------------------

PP_TUPLE_GUARD = 4


def pp_membership(rel: Relation, language: ConstraintLanguage) -> bool:
    """Is ``rel`` pp-definable from the language (rel in <language>)?

    Indicator criterion: with m = |rel|, the relation belongs to the
    co-clone generated by the language iff every m-ary polymorphism of the
    language maps the tuple columns of ``rel`` back into ``rel``.
    """
    m = rel.num_tuples
    if m == 0:
        return True
    if m > PP_TUPLE_GUARD:
        raise GuardError(f"pp-membership test limited to relations with <= {PP_TUPLE_GUARD} tuples")
    n_ops = 1 << (1 << m)
    ops = np.arange(n_ops, dtype=np.uint32)
    keep = np.ones(n_ops, dtype=bool)
    for g in language:
        g_tuples = g.tuples()
        member = g.table()
        kg = g.arity
        for combo in product(range(len(g_tuples)), repeat=m):
            res = np.zeros(n_ops, dtype=np.uint32)
            for j in range(kg):
                pattern = 0
                for t_index in combo:
                    pattern = (pattern << 1) | g_tuples[t_index][j]
                res = (res << np.uint32(1)) | ((ops >> np.uint32(pattern)) & np.uint32(1))
            keep &= member[res]
            if not keep.any():
                break
        if not keep.any():
            break
    surviving = ops[keep]
    if not len(surviving):
        raise AssertionError("projections always survive; polymorphism filter is broken")
    r_tuples = rel.tuples()
    member_r = rel.table()
    res = np.zeros(len(surviving), dtype=np.uint32)
    for j in range(rel.arity):
        pattern = 0
        for t in r_tuples:
            pattern = (pattern << 1) | t[j]
        res = (res << np.uint32(1)) | ((surviving >> np.uint32(pattern)) & np.uint32(1))
    return bool(member_r[res].all())
