import hashlib
import random
from pathlib import Path

import pytest

from cardminsat import (Bucket, ConstraintLanguage, CoCloneId, all_labels, bucket_for_coclone,
                        build_named_relation, classify_cms, cms_bucket, coclone_leq, GuardError,
                        identify_coclone, language_in_coclone, load_formula_file, load_language,
                        Relation, relation_in_coclone, weak_base)

from helpers import EQ, IMPL, NAE3, NEQ, OR2, T, XOR3


def lang(*rels):
    return ConstraintLanguage.of(*rels)


PRINTED_MATRICES = {
    "II2": ["10001101", "01010101", "00111001"],
    "II1": ["0101", "1001", "1111"],
    "IN2": ["00001111", "00110011", "01010101", "10101010", "11001100", "11110000"],
    "IL2": ["00011101", "01110001", "10101001", "11000101"],
    "IL3": ["00001111", "11000011", "10100101", "10010110",
            "01101001", "01011010", "00111100", "11110000"],
    "IL1": ["1001", "0101", "0011", "1111"],
    "IV2": ["00001", "10101", "11001", "11101"],
    "IV1": ["00001", "10101", "11001", "11101", "11111"],
}


@pytest.mark.parametrize("tag", sorted(PRINTED_MATRICES))
def test_weak_base_matches_printed_matrix(tag):
    rel = weak_base(CoCloneId(tag))
    assert sorted(rel.matrix_rows()) == sorted(PRINTED_MATRICES[tag])


def test_weak_base_simple_entries():
    assert weak_base(CoCloneId("IBF")).same_tuples(EQ)
    assert weak_base(CoCloneId("ID")).same_tuples(NEQ)
    assert weak_base(CoCloneId("IM")).same_tuples(IMPL)
    assert weak_base(CoCloneId("IL")).same_tuples(build_named_relation("EVEN", 4))
    assert weak_base(CoCloneId("IL3")).same_tuples(build_named_relation("EVEN_KNEQ", 4))


def test_weak_base_is_families():
    is00 = weak_base(CoCloneId("IS00", 2))
    assert is00.arity == 5
    assert set(is00.matrix_rows()) == {"01001", "10001", "11001", "11101"}
    is0 = weak_base(CoCloneId("IS0", 3))
    assert is0.arity == 4
    assert all(any(t[:3]) and t[3] == 1 for t in is0.tuples())


# sha256 of one line per label of all_labels(range(2, 17)): the weak base's
# name, arity and row bitset, or the guard's message when it refuses
WEAK_BASE_DIGEST = "244b07fbea7aef8432943ca19b212b4e13580ceac383e7df4c4c48c8e4e1d87f"


def test_every_weak_base_is_pinned():
    lines = []
    for c in all_labels(tuple(range(2, 17))):
        try:
            r = weak_base(c)
        except GuardError as exc:
            lines.append(f"{c} GuardError {exc}")
        else:
            lines.append(f"{c} {r.name} {r.arity} {hex(r.rows)}")
    assert len(lines) == 150
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WEAK_BASE_DIGEST


def test_coclone_id_validation_and_str():
    with pytest.raises(ValueError):
        CoCloneId("IS0")
    with pytest.raises(ValueError):
        CoCloneId("IS0", 1)
    with pytest.raises(ValueError):
        CoCloneId("IL2", 2)
    with pytest.raises(ValueError):
        CoCloneId("XX")
    assert str(CoCloneId("IS02", 3)) == "IS^3_02"
    assert str(CoCloneId("IL2")) == "IL2"


def test_identify_examples():
    assert identify_coclone(lang(IMPL)) == CoCloneId("IM")
    assert identify_coclone(lang(OR2)) == CoCloneId("IS0", 2)
    assert identify_coclone(lang(XOR3)) == CoCloneId("IL1")
    assert identify_coclone(lang(NAE3)) == CoCloneId("IN2")
    assert identify_coclone(lang(EQ)) == CoCloneId("IBF")
    assert identify_coclone(lang(T)) == CoCloneId("IR1")
    assert identify_coclone(lang(build_named_relation("NAND", 2))) == CoCloneId("IS1", 2)
    assert identify_coclone(lang(build_named_relation("OR", 3))) == CoCloneId("IS0", 3)
    # joining the two bounded-width sides lands in the bijunctive co-clone
    assert identify_coclone(lang(OR2, build_named_relation("NAND", 2))) == CoCloneId("ID2")


def test_classify_examples():
    assert classify_cms(lang(OR2)).bucket is Bucket.THETA2_COMPLETE
    assert classify_cms(lang(IMPL)).bucket is Bucket.TRIVIAL_0VALID
    assert classify_cms(lang(NEQ)).bucket is Bucket.POLY_WIDTH2_AFFINE
    v = classify_cms(lang(OR2))
    assert v.coclone == CoCloneId("IS0", 2)
    assert v.bucket.value == "Theta2Complete" and str(v.coclone) == "IS^2_0"


def test_identify_recovers_every_label_from_its_weak_base():
    for c in all_labels((2, 3, 4)):
        assert identify_coclone(lang(weak_base(c))) == c


def test_lattice_order_matches_weak_base_membership():
    labels = all_labels((2, 3, 4))
    for a in labels:
        wa = weak_base(a)
        for b in labels:
            assert coclone_leq(a, b) == relation_in_coclone(wa, b), (str(a), str(b))


def test_language_membership_is_pointwise():
    assert language_in_coclone(lang(OR2, T), CoCloneId("IS0", 2))
    assert not language_in_coclone(lang(OR2, NAE3), CoCloneId("IS0", 2))


def test_membership_is_the_up_set_of_the_identified_coclone():
    # For any relation R, the labels containing R are exactly the labels
    # above <R> in the lattice; exhaustive through arity 3 (empty relation
    # included), sampled at arity 4.
    import random

    labels = all_labels((2, 3))
    cases = [("r", a, rows) for a in (1, 2, 3) for rows in range(1 << (1 << a))]
    rng = random.Random(5)
    cases += [("r", 4, rng.getrandbits(16)) for _ in range(60)]
    for name, arity, rows in cases:
        from cardminsat import Relation
        rel = Relation(name, arity, rows)
        m = identify_coclone(lang(rel))
        for c in labels:
            assert relation_in_coclone(rel, c) == coclone_leq(m, c), (arity, rows, str(m), str(c))


def test_identify_combines_relations_as_the_least_label_containing_them():
    # 200 seeded languages of 2-3 relations of arity 1-5, empty ones mixed
    # in: the identified co-clone is the unique least label (IS widths up
    # to 5) that contains every relation.
    labels = all_labels((2, 3, 4, 5))
    pool = [weak_base(c) for c in all_labels((2, 3)) if weak_base(c).arity <= 5]
    pool += [build_named_relation(f, k) for f, k in (
        ("OR", 2), ("OR", 3), ("NAND", 2), ("NAND", 3), ("XOR", 3), ("EVEN", 3), ("EQ", None),
        ("NEQ", None), ("IMPL", None), ("T", None), ("F", None), ("NAE3", None))]
    rng = random.Random(17)

    def draw() -> Relation:
        k, roll = rng.randint(1, 5), rng.random()
        if roll < 0.15:
            return Relation("r", k, 0)
        if roll < 0.6:
            return rng.choice(pool)
        if roll < 0.85:  # a few tuples, often in a small co-clone
            return Relation("r", k, sum(1 << i for i in {rng.randrange(1 << k) for _ in range(3)}))
        return Relation("r", k, rng.getrandbits(1 << k))

    for _ in range(200):
        language = ConstraintLanguage(tuple(draw().renamed(f"r{i}")
                                            for i in range(rng.randint(2, 3))))
        above = [c for c in labels if language_in_coclone(language, c)]
        least = [c for c in above if all(coclone_leq(c, d) for d in above)]
        assert least == [identify_coclone(language)], [(r.arity, r.rows) for r in language]


def test_empty_relation_identifies_as_the_bottom_coclone():
    from cardminsat import Relation
    empty = Relation("none", 3, 0)
    assert identify_coclone(lang(empty)) == CoCloneId("IBF")
    assert relation_in_coclone(empty, CoCloneId("IS0", 2))


def test_buckets_match_lattice_intervals():
    id_, id1 = CoCloneId("ID"), CoCloneId("ID1")
    ir1, ie2, ii2 = CoCloneId("IR1"), CoCloneId("IE2"), CoCloneId("II2")
    hard = (CoCloneId("IS0", 2), CoCloneId("IL3"), CoCloneId("IL1"))
    for c in all_labels((2, 3, 4)):
        if coclone_leq(id_, c) and coclone_leq(c, id1):
            expected = Bucket.POLY_WIDTH2_AFFINE
        elif coclone_leq(ir1, c) and coclone_leq(c, ie2):
            expected = Bucket.POLY_HORN
        elif any(coclone_leq(h, c) for h in hard) and coclone_leq(c, ii2):
            expected = Bucket.THETA2_COMPLETE
        else:
            expected = Bucket.TRIVIAL_0VALID
        assert bucket_for_coclone(c) is expected, str(c)


def test_bucket_alone_matches_full_classification():
    # The bucket read off the language's properties is the bucket of its
    # co-clone.  The empty relation is left out: it lies in IBF by
    # convention, but it is not 0-valid, so cms_bucket rightly sends it to
    # the Horn engine, which reports it unsatisfiable.
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    languages = [load_language(p) for p in sorted((corpus / "relations").glob("*.rel"))]
    languages += [load_formula_file(p).language
                  for p in sorted((corpus / "formulas").glob("*.cms"))]
    languages += [lang(weak_base(c)) for c in all_labels()]
    languages += [lang(Relation("r", a, rows))
                  for a in (1, 2, 3) for rows in range(1, 1 << (1 << a))]
    for language in languages:
        assert cms_bucket(language) is bucket_for_coclone(identify_coclone(language)), language


def test_classification_answers_at_the_arity_limit():
    # arity 16, the largest the parser accepts; the time is not asserted
    c = CoCloneId("IS0", 15)
    verdict = classify_cms(lang(weak_base(c)))
    assert verdict.coclone == c and verdict.bucket is Bucket.THETA2_COMPLETE
    assert dict(verdict.fingerprint.pos_width) == {k: k >= 15 for k in range(2, 17)}
    rows = random.Random(16).getrandbits(1 << 16) & ~1 & ~(1 << 0xFFFF)  # neither 0- nor 1-valid
    dense = Relation("dense", 16, rows)
    assert classify_cms(lang(dense)).coclone == CoCloneId("II2")
