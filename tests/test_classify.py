import random
from itertools import combinations, product

import numpy as np

import pytest

from cardminsat import (AND2, ConstraintLanguage, GuardError, MAJ3, NOT1, OR2 as OR2_OP, Relation,
                        build_named_relation, closed_under,
                        conjunction_definability, fictitious_coordinates, fingerprint,
                        is_irredundant, pp_membership)
from cardminsat.classify import least_widths, op_from_function, relation_properties, saturated_models
from cardminsat.coclones import IS_TEMPLATES, CoCloneId, weak_base

from helpers import EQ, F, IMPL, NAE3, NEQ, OR2, T, XOR3

XOR3_OP = op_from_function("xor3", 3, lambda x, y, z: (x + y + z) & 1)


def lang(*rels):
    return ConstraintLanguage.of(*rels)


def _closure(rows: set[int], op, m: int) -> set[int]:
    while True:
        grown = rows | {op(*args) for args in product(rows, repeat=m)}
        if grown == rows:
            return rows
        rows = grown


def _table_test_relations() -> list[Relation]:
    """Every relation of arity <= 3, and seeded ones of arity 4-6: closures
    of a few random tuples under AND, OR or majority, and random ones."""
    rels = [Relation("r", k, rows) for k in (1, 2, 3) for rows in range(1 << (1 << k))]
    rng = random.Random(66)
    ops = [(lambda a, b: a & b, 2), (lambda a, b: a | b, 2),
           (lambda a, b, c: (a & b) | (a & c) | (b & c), 3)]
    for k in (4, 5, 6):
        for op, m in ops:
            for _ in range(12):
                seed = {rng.randrange(1 << k) for _ in range(rng.randint(1, 5))}
                rels.append(Relation("r", k, sum(1 << i for i in _closure(seed, op, m))))
        rels += [Relation("r", k, rng.getrandbits(1 << k)) for _ in range(8)]
    return rels


def test_table_properties_match_the_closure_oracle():
    for rel in _table_test_relations():
        props = relation_properties(rel)
        assert ("comp" in props) == closed_under(rel, NOT1), rel
        assert ("horn" in props) == closed_under(rel, AND2), rel
        assert ("dual" in props) == closed_under(rel, OR2_OP), rel
        assert ("bij" in props) == closed_under(rel, MAJ3), rel


def _saturated_models_by_loops(rel: Relation, kinds, width=None) -> np.ndarray:
    """Reference clause saturation: one template instance at a time."""
    k = rel.arity
    space = np.arange(1 << k)
    cols = np.array([(space >> (k - 1 - i)) & 1 for i in range(k)], dtype=bool)
    tup = cols[:, np.flatnonzero(rel.table())]
    acc = np.ones(1 << k, dtype=bool)
    if "T" in kinds:
        for i in range(k):
            if tup[i].all():
                acc &= cols[i]
    if "F" in kinds:
        for i in range(k):
            if not tup[i].any():
                acc &= ~cols[i]
    if "eq" in kinds:
        for i, j in combinations(range(k), 2):
            if (tup[i] == tup[j]).all():
                acc &= ~(cols[i] ^ cols[j])
    if "neq" in kinds:
        for i, j in combinations(range(k), 2):
            if (tup[i] != tup[j]).all():
                acc &= cols[i] ^ cols[j]
    if "impl" in kinds:
        for i in range(k):
            for j in range(k):
                if i != j and (tup[i] <= tup[j]).all():
                    acc &= ~cols[i] | cols[j]
    if "pos" in kinds:
        for w in range(1, (width or k) + 1):
            for S in combinations(range(k), w):
                if tup[list(S)].any(axis=0).all():
                    acc &= cols[list(S)].any(axis=0)
    if "neg" in kinds:
        for w in range(1, (width or k) + 1):
            for S in combinations(range(k), w):
                if (~tup[list(S)]).any(axis=0).all():
                    acc &= (~cols[list(S)]).any(axis=0)
    return acc


def test_saturated_models_matches_per_template_loops():
    """Every relation of arity <= 3 and seeded ones of arity 4-10 (empty and
    full ones included), under each single kind, every IS template set and
    the bijunctive set, at widths None, 1, 2, 3 and arity + 2."""
    rels = [Relation("r", k, rows) for k in (1, 2, 3) for rows in range(1 << (1 << k))]
    rng = random.Random(91)
    for k in range(4, 11):
        full = (1 << (1 << k)) - 1
        rels += [Relation("r", k, 0), Relation("r", k, full)]
        rels += [Relation("r", k, rng.getrandbits(1 << k)) for _ in range(2)]
        # sparse ones, so that many templates are implied
        rels += [Relation("r", k, sum(1 << rng.randrange(1 << k) for _ in range(rng.randint(1, 4))))
                 for _ in range(2)]
    kind_sets = [(kind,) for kind in ("T", "F", "eq", "neq", "impl", "pos", "neg")]
    kind_sets += list(IS_TEMPLATES.values()) + [("impl", "pos", "neg")]
    for rel in rels:
        for kinds in kind_sets:
            for width in (None, 1, 2, 3, rel.arity + 2):
                got = saturated_models(rel, kinds, width)
                want = _saturated_models_by_loops(rel, kinds, width)
                assert got.dtype == want.dtype and (got == want).all(), (rel, kinds, width)


def _block_relation(k: int, rng: random.Random) -> Relation:
    """Coordinates split into random blocks; within a block each coordinate
    equals or negates the block's first one (EQ/NEQ constraints only)."""
    leader, negated = list(range(k)), [False] * k
    for i in range(1, k):
        if rng.random() < 0.6:
            leader[i], negated[i] = leader[rng.randrange(i)], rng.random() < 0.5
    rows = 0
    for idx in range(1 << k):
        bits = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
        if all(bits[i] == bits[leader[i]] ^ negated[i] for i in range(k)):
            rows |= 1 << idx
    return Relation("r", k, rows)


def _clause_relation(k: int, rng: random.Random, positive: bool) -> Relation:
    """A few random clauses of width 1-5, all positive or all negative,
    and one implication between two coordinates."""
    clauses = [rng.sample(range(k), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
    a, b = rng.sample(range(k), 2)
    rows = 0
    for idx in range(1 << k):
        bits = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
        if bits[a] <= bits[b] and all(any(bits[i] == positive for i in c) for c in clauses):
            rows |= 1 << idx
    return Relation("r", k, rows)


def _wide_relations() -> list[Relation]:
    """Seeded relations of arity 7-10: empty and full, closures of a few
    random tuples under AND or OR, EQ/NEQ block relations, positive or
    negative clauses with an implication, sparse and random ones."""
    rng = random.Random(17)
    rels = []
    for k in range(7, 11):
        rels += [Relation("r", k, 0), Relation("r", k, (1 << (1 << k)) - 1)]
        for op in (lambda a, b: a & b, lambda a, b: a | b):
            for _ in range(2):
                seed = {rng.randrange(1 << k) for _ in range(rng.randint(1, 5))}
                rels.append(Relation("r", k, sum(1 << i for i in _closure(seed, op, 2))))
        rels += [_block_relation(k, rng) for _ in range(2)]
        rels += [_clause_relation(k, rng, positive) for positive in (True, False, True, False)]
        rels.append(Relation("r", k, sum(1 << i for i in {rng.randrange(1 << k) for _ in range(3)})))
        rels.append(Relation("r", k, rng.getrandbits(1 << k)))
    return rels


def test_least_width_matches_saturation_at_every_width():
    for rel in _table_test_relations() + _wide_relations():
        table = rel.table()
        widths = least_widths(rel)
        assert set(widths) == set(IS_TEMPLATES)
        for tag, kinds in IS_TEMPLATES.items():
            for w in range(1, rel.arity + 1):
                defined = bool((saturated_models(rel, kinds, w) == table).all())
                assert defined == (widths[tag] is not None and widths[tag] <= w), (rel, tag, w)


def test_closed_under_examples():
    assert not closed_under(OR2, AND2)      # 01 and 10 meet at 00
    assert closed_under(OR2, OR2_OP)
    assert closed_under(XOR3, XOR3_OP)
    assert closed_under(NAE3, NOT1)
    assert not closed_under(NAE3, MAJ3)


def test_closed_under_guard():
    full = Relation("full", 10, (1 << (1 << 10)) - 1)
    with pytest.raises(GuardError):
        closed_under(full, MAJ3)


def _set_flags(fp) -> set[str]:
    return {name for name, value in fp.flags().items() if value}


def test_fingerprint_impl():
    fp = fingerprint(lang(IMPL))
    assert fp.props == {"zero", "one", "horn", "dual", "bij"}
    assert _set_flags(fp) == {"zero_valid", "one_valid", "horn", "dual_horn", "bijunctive"}


def test_fingerprint_neq():
    fp = fingerprint(lang(NEQ))
    assert fp.props == {"comp", "bij", "affine"}
    assert _set_flags(fp) == {"complementive", "bijunctive", "affine", "width2_affine"}


def test_fingerprint_or2():
    fp = fingerprint(lang(OR2))
    assert fp.props == {"one", "dual", "bij"}
    assert _set_flags(fp) == {"one_valid", "dual_horn", "bijunctive"}
    assert fp.is_width_positive(2)
    assert not fp.is_width_negative(2)


def test_width_flags_grow_with_clause_width():
    or3 = build_named_relation("OR", 3)
    fp = fingerprint(lang(or3))
    assert not fp.is_width_positive(2)
    assert fp.is_width_positive(3)
    nand3 = build_named_relation("NAND", 3)
    fp = fingerprint(lang(nand3))
    assert not fp.is_width_negative(2)
    assert fp.is_width_negative(3)


def test_fingerprint_union_is_componentwise_conjunction():
    rng = random.Random(4)
    pool = [OR2, NEQ, IMPL, NAE3, XOR3, T, F, EQ,
            build_named_relation("NAND", 2), build_named_relation("EVEN", 3)]
    for _ in range(30):
        a = rng.sample(pool, rng.randint(1, 3))
        b = rng.sample(pool, rng.randint(1, 3))
        both = lang(*{r.name: r for r in a + b}.values())
        fa, fb, fu = fingerprint(lang(*a)), fingerprint(lang(*b)), fingerprint(both)
        assert fu.props == fa.props & fb.props
        for key, val in fu.flags().items():
            assert val == (fa.flags()[key] and fb.flags()[key])


def test_width2_affine_iff_definable_from_two_var_parity_relations():
    # cross-validation of the algebraic shortcut against the definability oracle
    basis = lang(F, T, NEQ)
    rng = random.Random(12)
    rows_pool = [rng.getrandbits(16) for _ in range(60)]
    for arity in (1, 2, 3):
        for rows in range(1 << (1 << arity)):
            rel = Relation("r", arity, rows)
            w2a = {"affine", "bij"} <= relation_properties(rel)
            witness = conjunction_definability(rel, basis, allow_equality=True)
            assert w2a == (witness is not None), (arity, rows)
    for rows in rows_pool:
        rel = Relation("r", 4, rows)
        w2a = {"affine", "bij"} <= relation_properties(rel)
        assert w2a == (conjunction_definability(rel, basis, allow_equality=True) is not None)


def test_definability_eq_from_impl_exact_witness():
    witness = conjunction_definability(EQ, lang(IMPL))
    assert witness is not None
    shape = [(c.relation.name, c.vars) for c in witness.constraints]
    assert shape == [("IMPL", ("x1", "x2")), ("IMPL", ("x2", "x1"))]


def test_definability_or2_from_impl_fails():
    assert conjunction_definability(OR2, lang(IMPL)) is None


def test_definability_neq_from_nae3():
    witness = conjunction_definability(NEQ, lang(NAE3))
    assert witness is not None
    assert [(c.relation.name, c.vars) for c in witness.constraints] == [("NAE3", ("x1", "x1", "x2"))]


def test_definability_equality_flag():
    assert conjunction_definability(EQ, lang(NEQ)) is None
    assert conjunction_definability(EQ, lang(NEQ), allow_equality=True) is not None


def test_definability_guard():
    wide = Relation("w", 11, 0)
    with pytest.raises(GuardError):
        conjunction_definability(wide, lang(T))


def test_pp_membership_examples():
    assert pp_membership(OR2, lang(weak_base(CoCloneId("II2"))))
    assert pp_membership(T, lang(OR2))
    assert not pp_membership(F, lang(OR2))


def test_pp_membership_guard():
    with pytest.raises(GuardError):
        pp_membership(NAE3, lang(OR2))  # six tuples


def test_definability_implies_pp_membership():
    cases = [(EQ, lang(IMPL)), (NEQ, lang(NAE3)), (T, lang(OR2)), (OR2, lang(OR2))]
    for rel, language in cases:
        if conjunction_definability(rel, language) is not None:
            assert pp_membership(rel, language)


def test_irredundancy_and_fictitious():
    assert is_irredundant(weak_base(CoCloneId("II2")))
    assert fictitious_coordinates(weak_base(CoCloneId("II2"))) == ()
    assert not is_irredundant(EQ)  # the two columns of {00, 11} coincide
    full2 = Relation("full", 2, 0b1111)
    assert fictitious_coordinates(full2) == (1, 2)
    dup = Relation.from_rows("dup", 2, ["00", "11"])
    assert not is_irredundant(dup)
