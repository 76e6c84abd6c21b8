import hashlib
import random

import pytest

from cardminsat import (CmsStarInstance, CoCloneId, Formula, PreconditionError, Relation,
                        cms_bruteforce, cms_star_bruteforce, compose_chain, constraint,
                        enumerate_models, lift_model, reduce_nae3_to_xor3_star,
                        reduce_or2_to_nae3, reduce_to_weakbase, reduce_xor3_star_to_xor4,
                        reduce_xor3xor2_to_xor3, reduce_xor4_to_xor3_xor2, restrict_model)
from cardminsat.search import frozen_by_probing

from helpers import (NAE3, OR2, XOR2, XOR3, XOR4, exact_verdict, random_clause_formula,
                     random_mixed_formula, reduction_verdict)


def or2_formula(*pairs):
    return Formula.of([constraint(OR2, a, b) for a, b in pairs])


def test_step1_shape_and_counts():
    out = reduce_or2_to_nae3(or2_formula(("x", "y")), "x")
    assert out.formula.num_constraints == 5      # 1 clause + f!=t + N=3 boosts
    assert out.formula.num_vars == 7
    assert out.stats.boost_n == 3 and out.stats.declared_weight_offset == 1
    assert out.query == "x" and out.bound is None


def test_step1_preserves_and_zero_variable_stays_zero():
    f = or2_formula(("x", "y"))
    out = reduce_or2_to_nae3(f, "x")
    assert cms_bruteforce(f, "x").verdict == cms_bruteforce(out.formula, "x").verdict
    fvar = next(v for v in out.formula.universe if v.endswith("f") and v.startswith("_"))
    models = enumerate_models(out.formula)
    min_w = min(m.weight for m in models)
    assert all(m.value(fvar) == 0 for m in models if m.weight == min_w)


def test_step1_repeated_variable_clause():
    f = Formula.of([constraint(OR2, "x", "x")])
    out = reduce_or2_to_nae3(f, "x")
    assert cms_bruteforce(f, "x").verdict
    assert cms_bruteforce(out.formula, "x").verdict


def test_step1_rejects_bad_input():
    with pytest.raises(PreconditionError):
        reduce_or2_to_nae3(Formula.of([], universe=("x",)), "x")
    with pytest.raises(PreconditionError):
        reduce_or2_to_nae3(Formula.of([constraint(NAE3, "x", "y", "z")]), "x")


def test_step2_spec_example_counts():
    f = Formula.of([constraint(NAE3, "x", "y", "z")])
    out = reduce_nae3_to_xor3_star(f, "x")
    assert out.formula.num_constraints == 16     # 1 + 3*m*N with N = 5
    assert out.bound == 9
    assert out.stats.boost_n == 5
    assert out.stats.declared_weight_offset == 1 * 5 + 1


def test_step2_truth_variable_frozen_and_group_weights():
    f = Formula.of([constraint(NAE3, "x", "y", "z")])
    out = reduce_nae3_to_xor3_star(f, "x")
    frozen = frozen_by_probing(out.formula)
    t = next(v for v in out.formula.universe if v == "_t")
    assert frozen.get(t) == 1
    n_big = out.stats.boost_n
    groups = [v for v in out.formula.universe if v.startswith(("_a", "_b", "_g"))]
    for m in enumerate_models(out.formula)[:64]:
        vals = m.as_dict()
        block = sum(vals[v] for v in groups)
        violated = sum(1 for c in f.constraints
                       if tuple(vals[v] for v in c.vars) not in c.relation)
        assert block == (1 + 2 * violated) * n_big


def test_step2_equivalence_exhaustive_small():
    rng = random.Random(31)
    for _ in range(25):
        f = random_clause_formula(rng, NAE3, rng.randint(3, 5), rng.randint(1, 3))
        q = f.universe[0]
        out = reduce_nae3_to_xor3_star(f, q)
        assert cms_bruteforce(f, q).verdict == reduction_verdict(out)


def test_step3_shape_and_sentinel_model():
    f = Formula.of([constraint(XOR3, "x", "y", "z")])
    out = reduce_xor3_star_to_xor4(CmsStarInstance(f, "x", 2))
    alphas = [v for v in out.formula.universe if v.startswith("_a")]
    assert len(alphas) == 2
    sentinel = {v: 0 for v in out.formula.universe}
    sentinel.update({a: 1 for a in alphas})
    assert out.formula.evaluate(sentinel)
    for m in enumerate_models(out.formula):
        vals = [m.value(a) for a in alphas]
        assert len(set(vals)) == 1  # the fresh variables are tied together


def test_step3_rejects_zero_bound():
    f = Formula.of([constraint(XOR3, "x", "y", "z")])
    with pytest.raises(PreconditionError):
        reduce_xor3_star_to_xor4(CmsStarInstance(f, "x", 0))


def test_step3_equivalence():
    rng = random.Random(32)
    for _ in range(25):
        f = random_clause_formula(rng, XOR3, rng.randint(3, 5), rng.randint(1, 3))
        q = f.universe[0]
        bound = rng.randint(1, f.num_vars)
        inst = CmsStarInstance(f, q, bound)
        out = reduce_xor3_star_to_xor4(inst)
        assert cms_star_bruteforce(inst) == reduction_verdict(out)


def test_step4_shape_and_offset():
    f = Formula.of([constraint(XOR4, "x", "y", "z", "u")])
    out = reduce_xor4_to_xor3_xor2(f, "x")
    assert out.formula.num_constraints == 3
    assert out.stats.fresh_var_count == 2
    assert out.stats.declared_weight_offset == 1
    s = cms_bruteforce(f, "x")
    t = cms_bruteforce(out.formula, "x")
    assert s.verdict == t.verdict
    assert t.min_weight == s.min_weight + 1


def test_step5_sat_and_unsat():
    f = Formula.of([constraint(XOR2, "x", "y")])
    out = reduce_xor3xor2_to_xor3(f, "x")
    assert cms_bruteforce(out.formula, "x").verdict
    w = "_w"
    models = enumerate_models(out.formula)
    min_w = min(m.weight for m in models)
    assert all(m.value(w) == 0 for m in models if m.weight == min_w)
    unsat = Formula.of([constraint(XOR2, "x", "y"), constraint(XOR2, "y", "z"),
                        constraint(XOR2, "x", "z")])
    out = reduce_xor3xor2_to_xor3(unsat, "x")
    assert out.formula.num_constraints == 1
    a = cms_bruteforce(out.formula, "x")
    assert not a.verdict and a.min_weight == 1  # unique minimum sets only the fresh variable
    with pytest.raises(PreconditionError):
        lift_model(out, cms_bruteforce(f, "x").witness)


def test_step5_copies_track_w():
    f = Formula.of([constraint(XOR2, "x", "y"), constraint(XOR3, "x", "y", "z")])
    out = reduce_xor3xor2_to_xor3(f, "x")
    copies = [v for v in out.formula.universe if v.startswith("_w") and v != "_w"]
    for m in enumerate_models(out.formula):
        for c in copies:
            assert m.value(c) == m.value("_w")


def test_lift_restrict_round_trip_all_steps():
    rng = random.Random(33)
    f = or2_formula(("x", "y"), ("y", "z"))
    outs = compose_chain(CoCloneId("IL2")).run(f, "x")
    src = f
    for out in outs:
        models = enumerate_models(src) if src.num_vars <= 20 else []
        for m in models[:6]:
            lifted = lift_model(out, m)
            assert lifted.satisfies(out.formula)
            if out.stats.declared_weight_offset is not None:
                assert lifted.weight == m.weight + out.stats.declared_weight_offset
            assert restrict_model(out, lifted) == m
        src = out.formula


def test_lift_rejects_non_models():
    f = or2_formula(("x", "y"))
    out = reduce_or2_to_nae3(f, "x")
    from cardminsat import Assignment
    with pytest.raises(PreconditionError):
        lift_model(out, Assignment(("x", "y"), (0, 0)))
    with pytest.raises(PreconditionError):
        lift_model(out, Assignment(("x",), (1,)))


def test_lift_spec_example_lemma10_row():
    f = Formula.of([constraint(XOR3, "x1", "x2", "x3")])
    out = reduce_to_weakbase(CoCloneId("IL2"), f, "x1")
    from cardminsat import Assignment
    lifted = lift_model(out, Assignment(("x1", "x2", "x3"), (1, 0, 0)))
    vals = lifted.as_dict()
    assert (vals["_u1"], vals["_v1"], vals["_w1"]) == (0, 1, 1)
    assert vals["_f"] == 0 and vals["_t"] == 1


WEAKBASE_FROZEN = {
    "II2": {"f": 0, "t": 1},
    "IL2": {"f": 0, "t": 1},
    "IV2": {"f": 0, "t": 1},
    "IS00": {"f": 0, "t": 1},
    "IS02": {"f": 0, "t": 1},
    "II1": {"t": 1},
    "IL1": {"t": 1},
    "IV1": {"t": 1},
    "IS01": {"t": 1},
    "IS0": {"t": 1},
    "IN2": {},
    "IL3": {},
}


@pytest.mark.parametrize("tag", sorted(WEAKBASE_FROZEN))
def test_weakbase_gadget_preserves_and_freezes(tag):
    rng = random.Random(sum(ord(c) for c in tag))
    cc = CoCloneId(tag, 2) if tag.startswith("IS") else CoCloneId(tag)
    rel = XOR3 if tag.startswith("IL") else OR2
    for _ in range(6):
        f = random_clause_formula(rng, rel, rng.randint(3, 4), rng.randint(1, 2))
        q = f.universe[0]
        out = reduce_to_weakbase(cc, f, q)
        assert cms_bruteforce(f, q).verdict == exact_verdict(out.formula, out.query)
        src = cms_bruteforce(f, q)
        if src.verdict and out.stats.declared_weight_offset is not None:
            lifted = lift_model(out, src.witness)
            assert lifted.weight == src.witness.weight + out.stats.declared_weight_offset
        if frozen_by_probing(f) == {}:
            frozen = frozen_by_probing(out.formula)
            expected = {"_" + k: v for k, v in WEAKBASE_FROZEN[tag].items()}
            assert frozen == expected, (tag, frozen)


def test_gadget_constraint_semantics():
    # the neutralizer layouts express exactly "primed = complement" with the
    # zero/one anchors pinned
    from cardminsat import CoCloneId as CC, weak_base
    ii2 = weak_base(CC("II2"))
    f = Formula.of([constraint(ii2, "a", "ap", "f", "ap", "a", "t", "f", "t")])
    models = {str(m) for m in enumerate_models(f)}  # over (a, ap, f, t)
    assert models == {"0101", "1001"}
    in2 = weak_base(CC("IN2"))
    g = Formula.of([constraint(in2, "a", "a", "a", "a", "ap", "ap", "ap", "ap")])
    assert {str(m) for m in enumerate_models(g)} == {"01", "10"}
    # the zero/one anchor of the complementive gadgets is a plain disequality
    h = Formula.of([constraint(in2, "f", "f", "f", "f", "t", "t", "t", "t")])
    assert {str(m) for m in enumerate_models(h)} == {"01", "10"}


def test_identify_wide_positive_clauses():
    from cardminsat import ConstraintLanguage, build_named_relation, identify_coclone, CoCloneId as CC
    or5 = build_named_relation("OR", 5)
    assert identify_coclone(ConstraintLanguage.of(or5)) == CC("IS0", 5)


def test_weakbase_rejects_wrong_fragment_and_tag():
    f = or2_formula(("x", "y"))
    with pytest.raises(PreconditionError):
        reduce_to_weakbase(CoCloneId("IL2"), f, "x")  # expects ternary parity
    with pytest.raises(PreconditionError):
        reduce_to_weakbase(CoCloneId("ID2"), f, "x")
    with pytest.raises(PreconditionError):
        reduce_to_weakbase(CoCloneId("IE2"), f, "x")


def test_compose_chain_step_lists():
    il2 = compose_chain(CoCloneId("IL2"))
    assert il2.steps == ("or2_to_nae3", "nae3_to_xor3_star", "xor3_star_to_xor4",
                         "xor4_to_xor3_xor2", "xor3xor2_to_xor3", "to_weakbase_IL2")
    ii2 = compose_chain(CoCloneId("II2"))
    assert ii2.steps == ("to_weakbase_II2",)
    is0 = compose_chain(CoCloneId("IS0", 3))
    assert is0.steps == ("to_weakbase_IS0_3",)
    with pytest.raises(PreconditionError):
        compose_chain(CoCloneId("ID2"))
    with pytest.raises(PreconditionError):
        compose_chain(CoCloneId("IE2"))


def test_chain_run_preserves_every_stage():
    f = or2_formula(("x", "y"))
    expected = cms_bruteforce(f, "x").verdict
    outs = compose_chain(CoCloneId("IL2")).run(f, "x")
    assert len(outs) == 6
    for out in outs:
        assert reduction_verdict(out) == expected


def test_reductions_are_byte_reproducible():
    from cardminsat import ConstraintLanguage, FormulaFile, render_formula_file

    f = or2_formula(("x", "y"), ("y", "z"))
    pipe = compose_chain(CoCloneId("IL2"))
    first, second = pipe.run(f, "x"), pipe.run(f, "x")
    for a, b in zip(first, second):
        doc_a = FormulaFile(a.formula, ConstraintLanguage(a.formula.relations()), a.query, ())
        doc_b = FormulaFile(b.formula, ConstraintLanguage(b.formula.relations()), b.query, ())
        assert render_formula_file(doc_a) == render_formula_file(doc_b)
        assert a.bound == b.bound and a.stats == b.stats


def test_fragment_check_sees_relations_that_share_a_name():
    # an impostor carries a stock relation's name but other tuples; it must be refused
    # even when a genuine relation of that name comes first
    or2_impostor = Relation("OR2", 2, 0b0001)
    f = Formula.of([constraint(OR2, "x", "y"), constraint(or2_impostor, "y", "z")])
    assert cms_bruteforce(f, "x").min_weight == 1
    runs = [lambda: reduce_or2_to_nae3(f, "x"), lambda: compose_chain(CoCloneId("IL2")).run(f, "x")]
    runs += [lambda c=c: reduce_to_weakbase(c, f, "x")
             for c in (CoCloneId("IV2"), CoCloneId("II2"), CoCloneId("IS0", 2))]
    xor3_impostor = Relation("XOR3", 3, XOR3.rows ^ 0b11)
    g = Formula.of([constraint(XOR3, "x", "y", "z"), constraint(xor3_impostor, "x", "y", "z")])
    runs += [lambda: reduce_xor3_star_to_xor4(CmsStarInstance(g, "x", 2)),
             lambda: reduce_xor3xor2_to_xor3(g, "x"),
             lambda: reduce_to_weakbase(CoCloneId("IL2"), g, "x"),
             lambda: reduce_to_weakbase(CoCloneId("IL1"), g, "x")]
    for run in runs:
        with pytest.raises(PreconditionError, match="outside the"):
            run()


def test_fresh_prefix_never_collides():
    f = Formula.of([constraint(OR2, "_f", "_t")])
    out = reduce_or2_to_nae3(f, "_f")
    assert all(v.startswith("__") for v in out.formula.universe if v not in f.universe)
    again = reduce_nae3_to_xor3_star(out.formula, "_f")
    fresh = [v for v in again.formula.universe if v not in out.formula.universe]
    assert all(v.startswith("___") for v in fresh)


# sha256 of the final .cms and .rel that `cardminsat reduce` writes for PINNED_SOURCE; any
# change to the order or naming of a target's variables, constraints or tuples changes them
PINNED_OR2_REL = "relation OR2 2\n01\n10\n11\n\n"
PINNED_SOURCE = "lang or2.rel\nvar x y z w\nc OR2 x y\nc OR2 y z\nc OR2 z z\nquery x\n"
PINNED_REDUCE_DIGESTS = {
    ("II2", None): ("c498c92c61658e6af1fdd73eb9bb6d62382f497ab1ea356e13ed21db6d475866",
                    "04ccf471f8c5dc5d17c7b4fccb12ba7561a613b514b4f77b907409c7f596a208"),
    ("II1", None): ("3d1898fd6feca216214177f2e36ac17173c374e530614ce1f7296087ce92bac9",
                    "b62ffafb8d386d2258eb89cf72446b32254b531d342b3dab729c880660606994"),
    ("IN2", None): ("3bfa2bb437ec8e6f232c8ee4f781e46d36ad12ddbb09d7042a8dbae877d65b35",
                    "70a02d922770a827f016f65df2096f3f9dfdcb86f065760ebed82472c13eb78f"),
    ("IV2", None): ("32a81fc10db6da3b329d0ce7cd866921e442406e22a898c147e1b8cacade4762",
                    "5e3779bd7b112a316140f3482d32768003933c44d8396db9bcf6715266c9ca63"),
    ("IV1", None): ("e08fd3590283b3ecd136ebbaa04c598885b686532d9ffaa6f095cfd12582d9f8",
                    "b6d0fe53c386a6df83ecc573ea04b3c0062075785ee51a2c7589e33269efff3b"),
    ("IL2", None): ("718c003e08818730843ec2df6ea1af45850986643068c465a08e15745b308557",
                    "7ae3ad059fb2f7717362c9e8eeb89d8793e0e430f383def0e5219b2edb7a61d9"),
    ("IL3", None): ("21379bfde8104a9700ce31db59854a0639df7e85738d6d4217cbc64fdb23ea34",
                    "295a10903d66886a4cbb34ef1f29613c428bcdd6f6ffc71ce9dca6990374cf1d"),
    ("IL1", None): ("9572693107762899a56386fc56e645082ee854565373fe3851d44e1c43297e17",
                    "6a215e02b37d6338518564ec116d4f4cd3f025f90a29fa51d383b4e34878ae7f"),
    ("IS0", 2): ("52c425cd58db29ba7482276ee94c7cb20a8ec94916c9bad44db8ddc4af0ba94a",
                 "03d402f719402d392281956588bf35a5ea146fce9a780c476cdabda1a403e892"),
    ("IS0", 3): ("5785f4708423e762f90195dd672fdf6b53d53f35d874bbc09b8b198d4445e75c",
                 "d076cd1e75cfeaa5ad7a8cd3373cceb983f51a0ed6a8a0e2e75ec3c27ce65293"),
    ("IS01", 2): ("9ab6eefdcf584bdad6fee33d07e345f448b27ccdde6dd8981915134d27da0acd",
                  "a8f728ddb5f042e96bef268a10f2dcf39da13260b4d5f9b9e1d32e2c00f77a19"),
    ("IS01", 3): ("95660747cb8433347e435f09fa6d9be96abcaa97e303ba380c6c3bf7066b0444",
                  "7bd0e7d7701302c1cea58909dc77c47ed7a921a17d9b7ac8aade0803e5fccbd2"),
    ("IS02", 2): ("c3e4b43b0bfb32ce0f764f8671b550c260284d024658a40ae4c9fcba3d12cd37",
                  "3098f59509831e93c8294a94f59b26765ffce1fd148b74b985ed4312e88c9510"),
    ("IS02", 3): ("794122ca1b52b67df80d904234ba7248afdb1645a22cf35bce56820da7942f10",
                  "39591c8da5bd911e7b95056bc069228cf672792cdbd34ccf5472320c44979409"),
    ("IS00", 2): ("ca1e5e57f5f53676f868d7ef2b63aef6b114e64ac1a615685ed4b2fba9f5ede1",
                  "736dd15290def31f30686ddcff3326d22e607dfe253d2f424ff3830d7dc94bfb"),
    ("IS00", 3): ("1d31d99369f6528abd70cb98bd3420a592512e145cf2b1074216c15d19493727",
                  "538c1774d2a9fc4af4a1acad24320807155ef3896cdf2ea251c74b6c63692441"),
}


@pytest.mark.parametrize("tag,width", sorted(PINNED_REDUCE_DIGESTS, key=str))
def test_reduce_files_match_pinned_digests(tag, width, tmp_path, capsys):
    from cardminsat import cli

    (tmp_path / "or2.rel").write_text(PINNED_OR2_REL)
    (tmp_path / "src.cms").write_text(PINNED_SOURCE)
    argv = ["reduce", str(tmp_path / "src.cms"), "--query", "x", "--target", tag,
            "--out", str(tmp_path / "out")]
    if width is not None:
        argv += ["--width", str(width)]
    assert cli.run(argv) == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256((tmp_path / ("out" + s)).read_bytes()).hexdigest()
                for s in (".cms", ".rel"))
    assert got == PINNED_REDUCE_DIGESTS[tag, width]


# sha256 of the lifts of every source model, one model string per line
PINNED_LIFT_DIGESTS = {
    ("II2", None): "2153349a3b2faf10aa6d92348e0bd2941c6a8cc130ea9071375979633d217c4d",
    ("II1", None): "956fa77ce02716f87bd1d98a59a4514c7bd9b5c69991937c5900ea001bace74d",
    ("IN2", None): "38ea04805b04cf841b75ce98237e9705ac638b3a483aecc878f54de167d0496d",
    ("IV2", None): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IV1", None): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IL2", None): "19829f7af97455c65a28389deaecf064ef8449c411a5d508003aacfd15923f55",
    ("IL3", None): "d27855778e27390ce8122123937c8db893453843c883f72c5d498f28100bbb40",
    ("IL1", None): "f749885689ede2c0bdb6e65d5d728786c48a5bcedf16fd2ff5819b8897bc132a",
    ("IS0", 2): "592f716ca963ca7888ba367c714ac7487b61c915fc3cd7855039905ca9197d78",
    ("IS0", 3): "592f716ca963ca7888ba367c714ac7487b61c915fc3cd7855039905ca9197d78",
    ("IS01", 2): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IS01", 3): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IS02", 2): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IS02", 3): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IS00", 2): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
    ("IS00", 3): "b708455e26757dfc478c48df659de70777d7f68d26001f641ed7887d5182b9bc",
}
WEAKBASE_CASES = sorted(PINNED_LIFT_DIGESTS, key=str)
WEAKBASE_IDS = [tag if width is None else f"{tag}-{width}" for tag, width in WEAKBASE_CASES]


@pytest.mark.parametrize("tag,width", WEAKBASE_CASES, ids=WEAKBASE_IDS)
def test_pair_gadget_lifts_match_pinned_digests(tag, width):
    if tag.startswith("IL"):
        src = Formula.of([constraint(XOR3, "x", "y", "z"), constraint(XOR3, "y", "y", "w")],
                         ("x", "y", "z", "w", "v"))
    else:
        src = Formula.of([constraint(OR2, "x", "y"), constraint(OR2, "y", "z"),
                          constraint(OR2, "z", "z")], ("x", "y", "z", "w"))
    out = reduce_to_weakbase(CoCloneId(tag, width), src, "x")
    lifted = [lift_model(out, m) for m in enumerate_models(src)]
    assert all(m.satisfies(out.formula) for m in lifted)
    digest = hashlib.sha256("\n".join(map(str, lifted)).encode()).hexdigest()
    assert digest == PINNED_LIFT_DIGESTS[tag, width]


# sha256 of the lifts at each of the five chain steps of the IL2 pipeline run on OR2(x, y);
# every source model is lifted through the stages in turn, one model string per line
PINNED_CHAIN_LIFT_DIGESTS = (
    "91392134f4b5f0a74f43ffaaa9467a5ee45ee2a766faace8635ca5e021cb4b17",
    "0df345e183e83d3b657b633868fe1e43401b9ffa154c0409937d557420eec548",
    "c60576ba912004da9f501e0b6c0c22938ad35e8eba826a3bfab90545100e0743",
    "7db7f1662e86feb98e93660a3e9feba9a4d3445d1bc59465f22857073c5dda8b",
    "d73d7bad0a3f86e6b16d730de14d9facfe8d028a2d86d3c5689c50b407e30418",
)


def test_chain_step_lifts_match_pinned_digests():
    src = or2_formula(("x", "y"))
    outs = compose_chain(CoCloneId("IL2")).run(src, "x")
    models = enumerate_models(src)
    for out, want in zip(outs[:5], PINNED_CHAIN_LIFT_DIGESTS, strict=True):
        models = [lift_model(out, m) for m in models]
        assert all(m.satisfies(out.formula) for m in models)
        assert hashlib.sha256("\n".join(map(str, models)).encode()).hexdigest() == want


# per case: the source relations and the reduction, as a function of (formula, query, rng)
LIFT_ORACLE_CASES = {
    **{case_id: ((XOR3,) if tag.startswith("IL") else (OR2,),
                 lambda f, q, _rng, c=CoCloneId(tag, width): reduce_to_weakbase(c, f, q))
       for case_id, (tag, width) in zip(WEAKBASE_IDS, WEAKBASE_CASES)},
    "or2_to_nae3": ((OR2,), lambda f, q, _rng: reduce_or2_to_nae3(f, q)),
    "nae3_to_xor3_star": ((NAE3,), lambda f, q, _rng: reduce_nae3_to_xor3_star(f, q)),
    "xor3_star_to_xor4": ((XOR3,), lambda f, q, rng: reduce_xor3_star_to_xor4(
        CmsStarInstance(f, q, rng.randint(1, f.num_vars)))),
    "xor4_to_xor3_xor2": ((XOR4,), lambda f, q, _rng: reduce_xor4_to_xor3_xor2(f, q)),
    "xor3xor2_to_xor3": ((XOR3, XOR2), lambda f, q, _rng: reduce_xor3xor2_to_xor3(f, q)),
}


@pytest.mark.parametrize("case", sorted(LIFT_ORACLE_CASES))
def test_lift_is_least_minimum_weight_extension(case):
    rels, reduce = LIFT_ORACLE_CASES[case]
    rng = random.Random(case)
    checked = 0
    for _ in range(40):
        src = random_mixed_formula(rng, rels, rng.randint(2, 5), rng.randint(1, 3))
        out = reduce(src, src.universe[0], rng)
        if out.formula.num_vars > 20 or out.stats.declared_weight_offset is None:
            continue
        least: dict = {}  # source model -> least minimum-weight extension
        for m in enumerate_models(out.formula):  # lexicographic order
            key = m.restrict(src.universe)
            if key not in least or m.weight < least[key].weight:
                least[key] = m
        for m in enumerate_models(src):
            assert lift_model(out, m) == least[m], (case, src.constraints, m)
            checked += 1
    assert checked > 0


def stats_row(out):
    return (out.bound, out.stats.fresh_var_count, out.stats.boost_n,
            out.stats.declared_weight_offset)


# (bound, fresh_var_count, boost_n, declared_weight_offset) of each stage of the pipelines
# that `cardminsat reduce` runs on PINNED_SOURCE; the three affine chains share five stages
IL_CHAIN_HEAD_STATS = [(None, 7, 5, 1), (129, 352, 13, 118), (None, 129, None, 0),
                       (None, 90816, None, 45408), (None, 91311, 91309, 1)]
PINNED_REDUCE_STATS = {
    ("II2", None): [(None, 26, None, 13)],
    ("II1", None): [(None, 24, 8, 12)],
    ("IN2", None): [(None, 34, 8, 13)],
    ("IV2", None): [(None, 2, None, 1)],
    ("IV1", None): [(None, 2, None, 1)],
    ("IL2", None): IL_CHAIN_HEAD_STATS + [(None, 1365206, None, 682603)],
    ("IL3", None): IL_CHAIN_HEAD_STATS + [(None, 1775360, 410154, 682603)],
    ("IL1", None): IL_CHAIN_HEAD_STATS + [(None, 1, None, 1)],
    **{("IS0", k): [(None, 1, None, 1)] for k in (2, 3)},
    **{(tag, k): [(None, 2, None, 1)] for tag in ("IS01", "IS02", "IS00") for k in (2, 3)},
}


def test_reduce_stats_match_pinned_values():
    src = Formula.of([constraint(OR2, "x", "y"), constraint(OR2, "y", "z"),
                      constraint(OR2, "z", "z")], ("x", "y", "z", "w"))
    il2 = compose_chain(CoCloneId("IL2")).run(src, "x")
    got = {("IL2", None): [stats_row(out) for out in il2]}
    head = il2[:5]  # the chains to IL1 and IL3 run the same first five stages
    del il2
    for tag in ("IL1", "IL3"):
        last = reduce_to_weakbase(CoCloneId(tag), head[-1].formula, head[-1].query)
        got[tag, None] = [stats_row(out) for out in head + [last]]
    for tag, width in PINNED_REDUCE_STATS.keys() - got.keys():
        outs = compose_chain(CoCloneId(tag, width)).run(src, "x")
        got[tag, width] = [stats_row(out) for out in outs]
    assert got == PINNED_REDUCE_STATS
    assert got.keys() == PINNED_REDUCE_DIGESTS.keys()


def test_chain_and_placeholder_stats_match_pinned_values():
    outs = compose_chain(CoCloneId("IL2")).run(or2_formula(("x", "y")), "x")
    assert [stats_row(out) for out in outs] == [
        (None, 5, 3, 1), (53, 136, 9, 46), (None, 53, None, 0), (None, 14416, None, 7208),
        (None, 14615, 14613, 1), (None, 217430, None, 108715)]
    placeholder = reduce_xor3xor2_to_xor3(Formula.of([constraint(XOR2, "x", "x")]), "x")
    assert placeholder.formula.universe == ("x", "_y")
    assert stats_row(placeholder) == (None, 1, None, None)


def test_chain_calls_each_step_through_its_module_attribute(monkeypatch):
    # the benchmark tracer times each step by replacing the module attribute
    from cardminsat import reductions

    names = ("reduce_or2_to_nae3", "reduce_nae3_to_xor3_star", "reduce_xor3_star_to_xor4",
             "reduce_xor4_to_xor3_xor2", "reduce_xor3xor2_to_xor3", "reduce_to_weakbase")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, step=getattr(reductions, name)):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(reductions, name, counted)
    compose_chain(CoCloneId("IL2")).run(or2_formula(("x", "y")), "x")
    assert calls == dict.fromkeys(names, 1)


# sha256 of (universe, constraints, bound, stats) of each gadget on a source with a universe
# and no constraints
PINNED_EMPTY_SOURCE_DIGESTS = {
    ("II2", None): "04ed93edc5ded260093e94a63dc17acb78e59897a67267b0529e616e64ef5525",
    ("II1", None): "4951992c13d6c56f1571e97ffb1fdd4747685896212d6c7f7d53829fd06acdcc",
    ("IN2", None): "1fad8869db4ffed78b5968850136cad06ffa02a668f252a4dfd5448965f589a3",
    ("IV2", None): "04ed93edc5ded260093e94a63dc17acb78e59897a67267b0529e616e64ef5525",
    ("IV1", None): "04ed93edc5ded260093e94a63dc17acb78e59897a67267b0529e616e64ef5525",
    ("IL2", None): "04ed93edc5ded260093e94a63dc17acb78e59897a67267b0529e616e64ef5525",
    ("IL3", None): "5da1000688a0f07e6c7989886240e872edddf674f564827a4d38b69ef4302629",
    ("IL1", None): "597ecf852292471abbd28b193ae575652d6afdc56338f9c12d5611dc059e379f",
    **{("IS0", k): "597ecf852292471abbd28b193ae575652d6afdc56338f9c12d5611dc059e379f"
       for k in (2, 3)},
    **{(tag, k): "04ed93edc5ded260093e94a63dc17acb78e59897a67267b0529e616e64ef5525"
       for tag in ("IS01", "IS02", "IS00") for k in (2, 3)},
}


@pytest.mark.parametrize("tag,width", WEAKBASE_CASES, ids=WEAKBASE_IDS)
def test_gadget_on_source_without_constraints_matches_pinned_digest(tag, width):
    out = reduce_to_weakbase(CoCloneId(tag, width), Formula.of([], ("x", "y")), "x")
    text = repr((out.formula.universe, tuple(map(str, out.formula.constraints)), out.bound,
                 out.stats))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EMPTY_SOURCE_DIGESTS[tag, width]
