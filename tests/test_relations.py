import hashlib
import random

import numpy as np
import pytest

from cardminsat import (ConstraintLanguage, GuardError, Relation, affine_parity_checks,
                        build_named_relation)
from cardminsat.relations import index_to_tuple, tuple_to_index


def test_tuple_indexing_first_coordinate_most_significant():
    assert tuple_to_index((1, 0, 0, 0, 1, 1, 0, 1)) == int("10001101", 2)
    assert index_to_tuple(int("10001101", 2), 8) == (1, 0, 0, 0, 1, 1, 0, 1)


def test_r13neq_exact_rows():
    rel = build_named_relation("R13NEQ")
    assert rel.arity == 6
    assert sorted(rel.matrix_rows()) == sorted(["100011", "010101", "001110"])
    assert rel.num_tuples == 3


def test_or2():
    rel = build_named_relation("OR", 2)
    assert set(rel.matrix_rows()) == {"01", "10", "11"}


def test_even_kneq3_matches_printed_columns():
    rel = build_named_relation("EVEN_KNEQ", 3)
    assert set(rel.matrix_rows()) == {"000111", "011100", "101010", "110001"}


def test_fixed_families():
    assert build_named_relation("T").tuples() == [(1,)]
    assert build_named_relation("F").tuples() == [(0,)]
    assert set(build_named_relation("EQ").matrix_rows()) == {"00", "11"}
    assert set(build_named_relation("NEQ").matrix_rows()) == {"01", "10"}
    assert set(build_named_relation("IMPL").matrix_rows()) == {"00", "01", "11"}
    assert set(build_named_relation("NAE3").matrix_rows()) == {
        "001", "010", "011", "100", "101", "110"}


# sha256 of one line per (family, k) for k = None, 0, 1, ..., 9: the relation's name, arity
# and rows, or the error's type and message
NAMED_RELATIONS_DIGEST = "5e3273abfe4c6c6cdae7d9ef5a5852f169f775cf38a7f974f45ed8feb10e9209"


def test_every_named_relation_is_pinned():
    lines = []
    for family in ("OR", "NAND", "XOR", "EVEN", "EVEN_KNEQ", "NAE3", "R13NEQ", "T", "F", "EQ",
                   "NEQ", "IMPL", "AND", "or"):
        for k in (None, *range(10)):
            try:
                rel = build_named_relation(family, k)
                lines.append(f"{family} {k} {rel.name} {rel.arity} {rel.rows:x}")
            except (ValueError, GuardError) as exc:
                lines.append(f"{family} {k} {type(exc).__name__}: {exc}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == NAMED_RELATIONS_DIGEST


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_parameterized_families_against_per_tuple_predicates(k):
    or_k = build_named_relation("OR", k)
    nand_k = build_named_relation("NAND", k)
    xor_k = build_named_relation("XOR", k)
    even_k = build_named_relation("EVEN", k)
    for idx in range(1 << k):
        t = index_to_tuple(idx, k)
        assert (t in or_k) == any(t)
        assert (t in nand_k) == (not all(t))
        assert (t in xor_k) == (sum(t) % 2 == 1)
        assert (t in even_k) == (sum(t) % 2 == 0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_even_kneq_pairing(k):
    rel = build_named_relation("EVEN_KNEQ", k)
    assert rel.arity == 2 * k
    assert rel.num_tuples == 1 << (k - 1)
    for t in rel.tuples():
        assert sum(t[:k]) % 2 == 0
        assert all(t[i] != t[k + i] for i in range(k))


def test_family_arity_guards():
    with pytest.raises(GuardError):
        build_named_relation("OR", 0)
    with pytest.raises(GuardError):
        build_named_relation("XOR", 9)
    with pytest.raises(ValueError):
        build_named_relation("OR")
    with pytest.raises(ValueError):
        build_named_relation("NOPE", 2)


def test_relation_validation():
    with pytest.raises(GuardError):
        Relation("big", 17, 0)
    with pytest.raises(ValueError):
        Relation("bad", 1, 0b10000)  # tuple index 4 outside arity 1
    with pytest.raises(ValueError):
        Relation.from_rows("r", 2, ["012"])


def test_from_rows_guards_the_arity_before_reading_a_row():
    # a 40-character row of 1s would set bit 2**40 - 1: a 128 GiB int
    def rows():
        raise AssertionError("a row was read past the arity guard")
        yield

    with pytest.raises(GuardError):
        Relation.from_rows("wide", 40, rows())


def test_columns_and_semantic_equality():
    rel = Relation.from_rows("r", 3, ["010", "110"])
    assert rel.column(1) == (0, 1)
    assert rel.column(2) == (1, 1)
    assert rel.column(3) == (0, 0)
    assert rel.same_tuples(rel.renamed("other"))
    assert not rel.same_tuples(build_named_relation("NAE3"))


def test_language_validation():
    t = build_named_relation("T")
    with pytest.raises(ValueError):
        ConstraintLanguage(())
    with pytest.raises(ValueError):
        ConstraintLanguage((t, t.renamed("T")))
    lang = ConstraintLanguage.of(t, build_named_relation("F"))
    assert lang.get("F").tuples() == [(0,)]
    assert "T" in lang and "EQ" not in lang
    assert lang.max_arity == 1


def test_language_union_rejects_a_redefined_name():
    t, f = build_named_relation("T"), build_named_relation("F")
    merged = ConstraintLanguage.of(t).union(ConstraintLanguage.of(t, f))
    assert [r.name for r in merged] == ["T", "F"]
    with pytest.raises(ValueError):
        ConstraintLanguage.of(t).union(ConstraintLanguage.of(f.renamed("T")))


def _is_affine_reference(indices: list[int]) -> bool:
    """Closed under x ^ y ^ z, tried on every triple of member indices."""
    members = set(indices)
    return all(a ^ b ^ c in members for a in indices for b in indices for c in indices)


def _check_bitset_views(rel: Relation, affine: bool) -> None:
    indices = [i for i in range(1 << rel.arity) if (rel.rows >> i) & 1]
    assert rel.tuple_indices() == indices
    assert np.flatnonzero(rel.table()).tolist() == indices
    checks = affine_parity_checks(rel)
    assert (checks is not None) == affine
    if checks is not None:
        def satisfies(i: int) -> bool:
            bits = index_to_tuple(i, rel.arity)
            return all(sum(bits[j] for j in coords) % 2 == p for coords, p in checks)
        assert [i for i in range(1 << rel.arity) if satisfies(i)] == indices


def test_bitset_views_match_a_per_index_walk():
    for arity in (1, 2, 3):
        for rows in range(1 << (1 << arity)):
            rel = Relation("R", arity, rows)
            indices = [i for i in range(1 << arity) if (rows >> i) & 1]
            _check_bitset_views(rel, _is_affine_reference(indices))
    rng = random.Random(31)
    for arity in range(4, 17):
        full = (1 << (1 << arity)) - 1
        _check_bitset_views(Relation("EMPTY", arity, 0), True)
        _check_bitset_views(Relation("FULL", arity, full), True)
        # a random coset of a random subspace is affine; swapping one of its
        # tuples for a non-member keeps a power-of-two count but not affinity
        basis = [rng.getrandbits(arity) for _ in range(rng.randint(2, arity))]
        offset = rng.getrandbits(arity)
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        coset = sum(1 << (s ^ offset) for s in span)
        _check_bitset_views(Relation("COSET", arity, coset), True)
        if 4 <= len(span) < 1 << arity:
            outside = rng.choice([i for i in range(1 << arity) if not (coset >> i) & 1])
            swapped = coset ^ (1 << (next(iter(span)) ^ offset)) ^ (1 << outside)
            _check_bitset_views(Relation("SWAPPED", arity, swapped), False)
        # a random relation whose tuple count is not a power of two
        dense = rng.getrandbits(1 << arity)
        while dense.bit_count() & (dense.bit_count() - 1) == 0:
            dense = rng.getrandbits(1 << arity)
        _check_bitset_views(Relation("DENSE", arity, dense), False)
