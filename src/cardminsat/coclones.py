"""Co-clone identification on Post's lattice and the minimal weak-base
registry.

Membership of a relation in a labeled co-clone is decided either by closure
properties (Horn = AND-closed, affine = XOR-definable, ...) or, for the
bounded-width IS chains, by the least clause width of the chain's template,
all read off the relation's membership table; one pass gives all eight
chains' widths.  A language's co-clone is read off the properties and
widths of its non-empty relations.  The containment order and
each label's tractability bucket are derived from two tables: the closure
properties of each property-based label and the clause templates of the
labels that clauses generate.  The test suite revalidates the order against
the membership tests via the weak bases.

Every weak base is read off the lattice by one rule: the label's core, then
a coordinate fixed to 0 if IR0 lies below the label, then one fixed to 1 if
IR1 does.  The 30 property labels share 20 cores from one table; an IS
chain's core is built from its clause templates and width.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

from .classify import (IS_TEMPLATES, PropertyFingerprint, fingerprint, least_widths,
                       relation_properties)
from .errors import CardMinSatError, GuardError
from .relations import MAX_ARITY, ConstraintLanguage, Relation, build_named_relation

# Implication-closed property sets of the property-based labels, in the
# order the labels are listed.  A relation lies in such a label iff it has
# each of the label's properties.
_CLOSED_PROPS: dict[str, frozenset[str]] = {k: frozenset(v) for k, v in {
    "IBF": ("horn", "dual", "bij", "affine", "comp", "zero", "one"),
    "IR0": ("horn", "dual", "bij", "affine", "zero"), "IR1": ("horn", "dual", "bij", "affine", "one"),
    "IR2": ("horn", "dual", "bij", "affine"),
    "IM": ("horn", "dual", "bij", "zero", "one"), "IM0": ("horn", "dual", "bij", "zero"),
    "IM1": ("horn", "dual", "bij", "one"), "IM2": ("horn", "dual", "bij"),
    "ID": ("bij", "affine", "comp"), "ID1": ("bij", "affine"), "ID2": ("bij",),
    "IL": ("affine", "zero", "one", "comp"), "IL0": ("affine", "zero"), "IL1": ("affine", "one"),
    "IL2": ("affine",), "IL3": ("affine", "comp"),
    "IV": ("dual", "zero", "one"), "IV0": ("dual", "zero"), "IV1": ("dual", "one"), "IV2": ("dual",),
    "IE": ("horn", "zero", "one"), "IE0": ("horn", "zero"), "IE1": ("horn", "one"), "IE2": ("horn",),
    "IN": ("comp", "zero", "one"), "IN2": ("comp",),
    "II": ("zero", "one"), "II0": ("zero",), "II1": ("one",), "II2": (),
}.items()}

NON_IS_TAGS = tuple(_CLOSED_PROPS)

IS_TAGS = tuple(IS_TEMPLATES)

ALL_TAGS = NON_IS_TAGS + IS_TAGS


@dataclass(frozen=True)
class CoCloneId:
    """A labeled co-clone; IS-family tags carry their clause width."""

    tag: str
    width: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown co-clone tag {self.tag!r}")
        if self.tag in IS_TAGS:
            if self.width is None or self.width < 2:
                raise ValueError(f"{self.tag} needs a width >= 2")
        elif self.width is not None:
            raise ValueError(f"{self.tag} does not take a width")

    def __str__(self) -> str:
        if self.width is None:
            return self.tag
        return f"IS^{self.width}_{self.tag[2:]}"


# --- the lattice ----------------------------------------------------------

# Clause templates of the labels that clauses alone generate.
_CLAUSE_TEMPLATES: dict[str, frozenset[str]] = {k: frozenset(v) for k, v in {
    "IBF": ("eq",), "IR0": ("eq", "F"), "IR1": ("eq", "T"), "IR2": ("eq", "F", "T"),
    "IM": ("eq", "impl"), "IM0": ("eq", "impl", "F"), "IM1": ("eq", "impl", "T"),
    "IM2": ("eq", "impl", "F", "T"),
}.items()}


def _props(c: CoCloneId) -> frozenset[str]:
    """The closure properties every relation of the label has.  A pos chain
    is dual-Horn, and 1-valid unless F is among its templates; a neg chain
    is Horn, and 0-valid unless T is.  Width 2 adds bijunctive."""
    if c.tag not in IS_TEMPLATES:
        return _CLOSED_PROPS[c.tag]
    kinds = IS_TEMPLATES[c.tag]
    closure, constant, breaker = ("dual", "one", "F") if "pos" in kinds else ("horn", "zero", "T")
    has = {closure} if breaker in kinds else {closure, constant}
    if c.width == 2:
        has.add("bij")
    return frozenset(has)


def _templates(c: CoCloneId) -> frozenset[str] | None:
    """The clause templates generating the label, or None when clauses
    alone do not generate it.  An IS chain adds its side's unit clause."""
    if c.tag in IS_TEMPLATES:
        kinds = IS_TEMPLATES[c.tag]
        return frozenset(kinds) | {"T" if "pos" in kinds else "F"}
    return _CLAUSE_TEMPLATES.get(c.tag)


# --- membership --------------------------------------------------------


def relation_in_coclone(rel: Relation, c: CoCloneId) -> bool:
    if rel.rows == 0:
        return True  # the empty relation lies in every co-clone
    if c.tag in IS_TEMPLATES:
        least = least_widths(rel)[c.tag]
        return least is not None and least <= c.width
    return _CLOSED_PROPS[c.tag] <= relation_properties(rel)


def language_in_coclone(language: ConstraintLanguage, c: CoCloneId) -> bool:
    return all(relation_in_coclone(r, c) for r in language)


# --- containment order --------------------------------------------------


def coclone_leq(a: CoCloneId, b: CoCloneId) -> bool:
    """Containment a <= b in the co-clone lattice.

    Below a property-based label lie exactly the labels with all its
    properties (more properties = smaller co-clone).  Below an IS label lie
    exactly the labels generated by a subset of its clause templates at no
    greater width.
    """
    if b.tag not in IS_TEMPLATES:
        return _props(b) <= _props(a)
    below = _templates(a)
    return below is not None and below <= _templates(b) and (a.width or 0) <= b.width


# --- classification buckets ---------------------------------------------


class Bucket(enum.Enum):
    TRIVIAL_0VALID = "Trivial0Valid"
    POLY_HORN = "PolyHorn"
    POLY_WIDTH2_AFFINE = "PolyWidth2Affine"
    THETA2_COMPLETE = "Theta2Complete"


def _bucket(props: frozenset[str]) -> Bucket:
    """0-valid is trivial (the answer is always no, the all-zero model being
    the unique minimum); otherwise Horn and width-2-affine (affine and
    bijunctive) are polynomial and everything else is complete for
    polynomial time with logarithmically many NP-oracle calls."""
    if "zero" in props:
        return Bucket.TRIVIAL_0VALID
    if "horn" in props:
        return Bucket.POLY_HORN
    if {"affine", "bij"} <= props:
        return Bucket.POLY_WIDTH2_AFFINE
    return Bucket.THETA2_COMPLETE


def bucket_for_coclone(c: CoCloneId) -> Bucket:
    """The tractability bucket a co-clone's lattice position dictates."""
    return _bucket(_props(c))


@dataclass(frozen=True)
class ClassificationVerdict:
    fingerprint: PropertyFingerprint
    coclone: CoCloneId

    @property
    def bucket(self) -> Bucket:
        return _bucket(self.fingerprint.props)


def cms_bucket(language: ConstraintLanguage) -> Bucket:
    """The tractability bucket of the minimum-weight query problem: the
    bucket of the properties every relation of the language has."""
    return _bucket(frozenset.intersection(*map(relation_properties, language)))


def classify_cms(language: ConstraintLanguage) -> ClassificationVerdict:
    """The full property fingerprint and the co-clone of the language."""
    return ClassificationVerdict(fingerprint(language), identify_coclone(language))


def identify_coclone(language: ConstraintLanguage) -> CoCloneId:
    """Least labeled co-clone containing the language (= its co-clone,
    since a finite language always generates a labeled one).

    The empty relation lies in every co-clone, so only the non-empty
    relations count.  The property labels containing them are read off the
    properties they all have, and each IS chain's width off their least
    widths."""
    rels = [r for r in language if r.rows]
    props = _CLOSED_PROPS["IBF"].intersection(*map(relation_properties, rels))  # IBF has all seven
    members = [CoCloneId(tag) for tag, need in _CLOSED_PROPS.items() if need <= props]
    widths = [least_widths(r) for r in rels]
    for tag in IS_TAGS:
        least = [w[tag] for w in widths]
        if None not in least:
            members.append(CoCloneId(tag, max([2, *least])))
    minima = [m for m in members if all(coclone_leq(m, other) for other in members)]
    if len(minima) != 1:
        raise CardMinSatError(
            f"no unique least labeled co-clone found (candidates {[str(m) for m in minima]}); "
            "no finitely-generated label reachable")
    return minima[0]


# --- weak-base registry --------------------------------------------------


def _stock(rel: Relation) -> tuple[int, Callable[..., bool]]:
    return rel.arity, lambda *t: t in rel


# The core of each property label's weak base, as its arity and membership
# test; labels sharing a core differ only in their constant coordinates.
_CORES: dict[str, tuple[int, Callable[..., bool]]] = {tag: core for tags, core in (
    ("IR0 IR1 IR2", (0, lambda: True)),
    ("IBF", _stock(build_named_relation("EQ"))),
    ("IM IM0 IM1 IM2", _stock(build_named_relation("IMPL"))),
    ("ID ID1", _stock(build_named_relation("NEQ"))),
    ("ID2", (4, lambda a, b, c, d: (a or b) and a != c and b != d)),
    ("IL", _stock(build_named_relation("EVEN", 4))),
    ("IL0", _stock(build_named_relation("EVEN", 3))),
    ("IL1", _stock(build_named_relation("XOR", 3))),
    ("IL2", _stock(build_named_relation("EVEN_KNEQ", 3))),
    ("IL3", _stock(build_named_relation("EVEN_KNEQ", 4))),
    ("IV IV1", (4, lambda a, b, c, d: a == (b | c) and (b & c or d == 0))),
    ("IV0 IV2", (3, lambda a, b, c: a == (b | c))),
    ("IE IE0", (4, lambda a, b, c, d: a == (b & c) and (not (b | c) or d == 1))),
    ("IE1 IE2", (3, lambda a, b, c: a == (b & c))),
    ("IN", (4, lambda a, b, c, d: (a + b + c + d) % 2 == 0 and (a & d) == (b & c))),
    # The even/disequality defining formula and the printed matrix of this
    # base disagree in the literature trail; the local-replacement
    # reductions only work with the matrix, so the matrix wins.
    ("IN2", _stock(Relation.from_rows("IN2", 8, [
        "00001111", "00110011", "01010101", "10101010", "11001100", "11110000"]))),
    ("II", (4, lambda a, b, c, d: a == (b & c) and d == (b | c))),
    ("II0", (3, lambda a, b, c: not (a and b) and c == (a | b))),
    ("II1", (3, lambda a, b, c: (a or b) and c == (a & b))),
    ("II2", _stock(build_named_relation("R13NEQ"))),
) for tag in tags.split()}


def _core(c: CoCloneId) -> tuple[int, Callable[..., bool]]:
    """The arity and membership test of the label's core.  An IS chain's
    core is its width-k clause (OR on a pos chain, NAND on a neg chain);
    with the "impl" template it gains one coordinate, which implies every
    clause coordinate on a pos chain and is implied by each on a neg chain."""
    if c.tag not in IS_TEMPLATES:
        return _CORES[c.tag]
    k, kinds = c.width, IS_TEMPLATES[c.tag]
    pos = "pos" in kinds

    def member(*t: int) -> bool:
        clause = t[:k]
        return ((any(clause) if pos else not all(clause))
                and all((e <= x) if pos else (x <= e) for e in t[k:] for x in clause))

    return k + ("impl" in kinds), member


@lru_cache(maxsize=None)
def weak_base(c: CoCloneId) -> Relation:
    """The minimal weak base of a labeled co-clone: the label's core, then a
    coordinate fixed to 0 if IR0 lies below the label, then one fixed to 1
    if IR1 does."""
    arity, member = _core(c)
    consts = tuple(v for v, low in ((0, "IR0"), (1, "IR1")) if coclone_leq(CoCloneId(low), c))
    n = arity + len(consts)
    if n > MAX_ARITY:
        raise GuardError(f"{c} weak base would have arity {n} > {MAX_ARITY}")
    name = f"R_{c.tag}" if c.width is None else f"R_{c.tag}_{c.width}"
    return Relation.from_tuples(name, n, (t + consts for t in product((0, 1), repeat=arity)
                                          if member(*t)))


def all_labels(widths: tuple[int, ...] = (2, 3, 4)) -> list[CoCloneId]:
    out = [CoCloneId(tag) for tag in NON_IS_TAGS]
    for tag in IS_TAGS:
        out.extend(CoCloneId(tag, k) for k in widths)
    return out
