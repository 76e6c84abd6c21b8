"""Co-clone identification on Post's lattice and the minimal weak-base
registry.

Membership of a relation in a labeled co-clone is decided either by closure
properties (Horn = AND-closed, affine = XOR-definable, ...) or, for the
bounded-width IS chains, by the least clause width of the chain's template,
all read off the relation's membership table.  The containment order and
each label's tractability bucket are derived from two tables: the closure
properties of each property-based label and the clause templates of the
labels that clauses generate.  The test suite revalidates the order against
the membership tests via the weak bases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

from .classify import (IS_TEMPLATES, PropertyFingerprint, fingerprint, least_width,
                       relation_properties)
from .errors import CardMinSatError, GuardError
from .relations import MAX_ARITY, ConstraintLanguage, Relation, build_named_relation

NON_IS_TAGS = (
    "IBF", "IR0", "IR1", "IR2",
    "IM", "IM0", "IM1", "IM2",
    "ID", "ID1", "ID2",
    "IL", "IL0", "IL1", "IL2", "IL3",
    "IV", "IV0", "IV1", "IV2",
    "IE", "IE0", "IE1", "IE2",
    "IN", "IN2",
    "II", "II0", "II1", "II2",
)

IS_TAGS = ("IS0", "IS02", "IS01", "IS00", "IS1", "IS12", "IS11", "IS10")

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

# Implication-closed property sets of the property-based labels.  A relation
# lies in such a label iff it has each of the label's properties.
_CLOSED_PROPS: dict[str, frozenset[str]] = {k: frozenset(v) for k, v in {
    "II2": (), "II0": ("zero",), "II1": ("one",), "II": ("zero", "one"),
    "IN2": ("comp",), "IN": ("comp", "zero", "one"),
    "IE2": ("horn",), "IE0": ("horn", "zero"), "IE1": ("horn", "one"), "IE": ("horn", "zero", "one"),
    "IV2": ("dual",), "IV0": ("dual", "zero"), "IV1": ("dual", "one"), "IV": ("dual", "zero", "one"),
    "IL2": ("affine",), "IL0": ("affine", "zero"), "IL1": ("affine", "one"),
    "IL": ("affine", "zero", "one", "comp"), "IL3": ("affine", "comp"),
    "ID2": ("bij",), "ID1": ("bij", "affine"), "ID": ("bij", "affine", "comp"),
    "IM2": ("horn", "dual", "bij"), "IM0": ("horn", "dual", "bij", "zero"),
    "IM1": ("horn", "dual", "bij", "one"), "IM": ("horn", "dual", "bij", "zero", "one"),
    "IR2": ("horn", "dual", "bij", "affine"), "IR0": ("horn", "dual", "bij", "affine", "zero"),
    "IR1": ("horn", "dual", "bij", "affine", "one"),
    "IBF": ("horn", "dual", "bij", "affine", "comp", "zero", "one"),
}.items()}

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


@lru_cache(maxsize=4096)
def _is_member(rel: Relation, tag: str, width: int | None) -> bool:
    if rel.rows == 0:
        return True  # the empty relation lies in every co-clone
    if tag in IS_TEMPLATES:
        least = least_width(rel, IS_TEMPLATES[tag])
        return least is not None and least <= width
    props = relation_properties(rel)
    return all(props[p] for p in _CLOSED_PROPS[tag])


def relation_in_coclone(rel: Relation, c: CoCloneId) -> bool:
    return _is_member(rel, c.tag, c.width)


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


def _bucket(has: Callable[[str], bool]) -> Bucket:
    """0-valid is trivial (the answer is always no, the all-zero model being
    the unique minimum); otherwise Horn and width-2-affine (affine and
    bijunctive) are polynomial and everything else is complete for
    polynomial time with logarithmically many NP-oracle calls."""
    if has("zero"):
        return Bucket.TRIVIAL_0VALID
    if has("horn"):
        return Bucket.POLY_HORN
    if has("affine") and has("bij"):
        return Bucket.POLY_WIDTH2_AFFINE
    return Bucket.THETA2_COMPLETE


def bucket_for_coclone(c: CoCloneId) -> Bucket:
    """The tractability bucket a co-clone's lattice position dictates."""
    return _bucket(_props(c).__contains__)


@dataclass(frozen=True)
class ClassificationVerdict:
    bucket: Bucket
    fingerprint: PropertyFingerprint
    coclone: CoCloneId


def cms_bucket(language: ConstraintLanguage) -> Bucket:
    """The tractability bucket of the minimum-weight query problem: the
    bucket of the properties every relation of the language has."""
    props = [relation_properties(r) for r in language]
    return _bucket(lambda key: all(p[key] for p in props))


def classify_cms(language: ConstraintLanguage) -> ClassificationVerdict:
    """The bucket together with the full property fingerprint and the
    co-clone of the language."""
    return ClassificationVerdict(cms_bucket(language), fingerprint(language),
                                 identify_coclone(language))


def identify_coclone(language: ConstraintLanguage) -> CoCloneId:
    """Least labeled co-clone containing the language (= its co-clone,
    since a finite language always generates a labeled one)."""
    members: list[CoCloneId] = []
    for tag in NON_IS_TAGS:
        c = CoCloneId(tag)
        if language_in_coclone(language, c):
            members.append(c)
    for tag in IS_TAGS:
        # the empty relation lies in every co-clone
        least = [least_width(r, IS_TEMPLATES[tag]) for r in language if r.rows]
        if None not in least:
            members.append(CoCloneId(tag, max([2, *least])))
    minima = [m for m in members if all(coclone_leq(m, other) for other in members)]
    if len(minima) != 1:
        raise CardMinSatError(
            f"no unique least labeled co-clone found (candidates {[str(m) for m in minima]}); "
            "no finitely-generated label reachable")
    return minima[0]


# --- weak-base registry --------------------------------------------------


def _rel(name: str, arity: int, pred) -> Relation:
    return Relation.from_tuples(name, arity,
                                [t for t in product((0, 1), repeat=arity) if pred(*t)])


def _weak_base_fixed(tag: str) -> Relation:
    if tag == "IBF":
        return build_named_relation("EQ").renamed("R_IBF")
    if tag == "IR0":
        return build_named_relation("F").renamed("R_IR0")
    if tag == "IR1":
        return build_named_relation("T").renamed("R_IR1")
    if tag == "IR2":
        return _rel("R_IR2", 2, lambda a, b: a == 0 and b == 1)
    if tag == "IM":
        return build_named_relation("IMPL").renamed("R_IM")
    if tag == "IM0":
        return _rel("R_IM0", 3, lambda a, b, f: a <= b and f == 0)
    if tag == "IM1":
        return _rel("R_IM1", 3, lambda a, b, t: a <= b and t == 1)
    if tag == "IM2":
        return _rel("R_IM2", 4, lambda a, b, f, t: a <= b and f == 0 and t == 1)
    if tag == "ID":
        return build_named_relation("NEQ").renamed("R_ID")
    if tag == "ID1":
        return _rel("R_ID1", 4, lambda a, b, f, t: a != b and f == 0 and t == 1)
    if tag == "ID2":
        return _rel("R_ID2", 6,
                    lambda a, b, c, d, f, t: (a or b) and a != c and b != d and f == 0 and t == 1)
    if tag == "IL":
        return build_named_relation("EVEN", 4).renamed("R_IL")
    if tag == "IL0":
        return _rel("R_IL0", 4, lambda a, b, c, f: (a + b + c) % 2 == 0 and f == 0)
    if tag == "IL1":
        return _rel("R_IL1", 4, lambda a, b, c, t: (a + b + c) % 2 == 1 and t == 1)
    if tag == "IL2":
        even3neq = build_named_relation("EVEN_KNEQ", 3)
        return Relation.from_tuples(
            "R_IL2", 8, [t + (0, 1) for t in even3neq.tuples()])
    if tag == "IL3":
        return build_named_relation("EVEN_KNEQ", 4).renamed("R_IL3")
    if tag == "IV":
        return _rel("R_IV", 4, lambda a, b, c, d: a == (b | c) and (b & c or d == 0))
    if tag == "IV0":
        return _rel("R_IV0", 4, lambda a, b, c, f: a == (b | c) and f == 0)
    if tag == "IV1":
        return _rel("R_IV1", 5,
                    lambda a, b, c, d, t: a == (b | c) and (b & c or d == 0) and t == 1)
    if tag == "IV2":
        return _rel("R_IV2", 5, lambda a, b, c, f, t: a == (b | c) and f == 0 and t == 1)
    if tag == "IE":
        return _rel("R_IE", 4, lambda a, b, c, d: a == (b & c) and (not (b | c) or d == 1))
    if tag == "IE0":
        return _rel("R_IE0", 5,
                    lambda a, b, c, d, f: a == (b & c) and (not (b | c) or d == 1) and f == 0)
    if tag == "IE1":
        return _rel("R_IE1", 4, lambda a, b, c, t: a == (b & c) and t == 1)
    if tag == "IE2":
        return _rel("R_IE2", 5, lambda a, b, c, f, t: a == (b & c) and f == 0 and t == 1)
    if tag == "IN":
        return _rel("R_IN", 4,
                    lambda a, b, c, d: (a + b + c + d) % 2 == 0 and (a & d) == (b & c))
    if tag == "IN2":
        # The even/disequality defining formula and the printed matrix of this
        # base disagree in the literature trail; the local-replacement
        # reductions only work with the matrix, so the matrix wins.
        return Relation.from_rows("R_IN2", 8, [
            "00001111", "00110011", "01010101", "10101010", "11001100", "11110000"])
    if tag == "II":
        return _rel("R_II", 4, lambda a, b, c, d: a == (b & c) and d == (b | c))
    if tag == "II0":
        return _rel("R_II0", 4,
                    lambda a, b, c, f: not (a and b) and c == (a | b) and f == 0)
    if tag == "II1":
        return _rel("R_II1", 4, lambda a, b, c, t: (a or b) and c == (a & b) and t == 1)
    if tag == "II2":
        r13 = build_named_relation("R13NEQ")
        return Relation.from_tuples("R_II2", 8, [t + (0, 1) for t in r13.tuples()])
    raise AssertionError(tag)


def _weak_base_is(tag: str, k: int) -> Relation:
    def orr(t: tuple[int, ...]) -> bool:
        return any(t[:k])

    def nand(t: tuple[int, ...]) -> bool:
        return not all(t[:k])

    # extra coordinates beyond the k clause ones, and the membership test
    extra, member = {
        "IS0": (1, lambda t: orr(t) and t[k] == 1),
        "IS02": (2, lambda t: orr(t) and t[k] == 0 and t[k + 1] == 1),
        "IS01": (2, lambda t: orr(t) and (not t[k] or all(t[:k])) and t[k + 1] == 1),
        "IS00": (3, lambda t: orr(t) and (not t[k] or all(t[:k])) and t[k + 1] == 0 and t[k + 2] == 1),
        "IS1": (1, lambda t: nand(t) and t[k] == 0),
        "IS12": (2, lambda t: nand(t) and t[k] == 0 and t[k + 1] == 1),
        "IS11": (2, lambda t: nand(t) and all(x <= t[k] for x in t[:k]) and t[k + 1] == 0),
        "IS10": (3, lambda t: nand(t) and all(x <= t[k] for x in t[:k])
                 and t[k + 1] == 0 and t[k + 2] == 1),
    }[tag]
    if k + extra > MAX_ARITY:
        raise GuardError(f"{CoCloneId(tag, k)} weak base would have arity {k + extra} > {MAX_ARITY}")
    return Relation.from_tuples(f"R_{tag}_{k}", k + extra,
                                filter(member, product((0, 1), repeat=k + extra)))


@lru_cache(maxsize=None)
def weak_base(c: CoCloneId) -> Relation:
    """The minimal weak base of a labeled co-clone."""
    if c.tag in IS_TAGS:
        assert c.width is not None
        return _weak_base_is(c.tag, c.width)
    return _weak_base_fixed(c.tag)


def all_labels(widths: tuple[int, ...] = (2, 3, 4)) -> list[CoCloneId]:
    out = [CoCloneId(tag) for tag in NON_IS_TAGS]
    for tag in IS_TAGS:
        out.extend(CoCloneId(tag, k) for k in widths)
    return out


# --- report --------------------------------------------------------------


def format_verdict(verdict: ClassificationVerdict) -> str:
    """Structured text report with a machine-readable key=value trailer."""
    fp = verdict.fingerprint
    lines = ["classification report"]
    lines.append(f"  bucket: {verdict.bucket.value}")
    lines.append(f"  co-clone: {verdict.coclone}")
    flags = fp.flags()
    lines.append("  properties: " + ", ".join(k for k, v in flags.items() if v))
    lines.append("")
    lines.append(f"bucket={verdict.bucket.value}")
    lines.append(f"coclone={verdict.coclone}")
    for key, val in flags.items():
        lines.append(f"{key}={'true' if val else 'false'}")
    for k, v in fp.pos_width:
        lines.append(f"width_positive_{k}={'true' if v else 'false'}")
    for k, v in fp.neg_width:
        lines.append(f"width_negative_{k}={'true' if v else 'false'}")
    return "\n".join(lines) + "\n"
