"""Hand-worked cases for the benchmark's reference computations."""

from itertools import product

import gen
import reference as ref

OR2 = frozenset({(0, 1), (1, 0), (1, 1)})


def test_satisfies():
    cons = [(OR2, ("x", "y"))]
    assert ref.satisfies(cons, {"x": 0, "y": 1})
    assert not ref.satisfies(cons, {"x": 0, "y": 0})


def test_horn_least_model_forward_chains():
    universe = ("a", "b", "c", "d", "e")
    imps = [("a", "b"), ("b", "c"), ("d", "e")]
    assert ref.horn_least_model(universe, ["a"], imps, []) == {"a", "b", "c"}
    assert ref.horn_answer(universe, ["a"], imps, [], "c") == (True, 3, (1, 1, 1, 0, 0))
    assert ref.horn_answer(universe, ["a"], imps, [("b", "d")], "d") == (False, 3, None)
    assert ref.horn_answer(universe, ["a"], imps, [("c",)], "a") == ref.UNSAT
    assert ref.horn_answer(universe, [], imps, [], "a") == (False, 0, None)


def test_w2a_lighter_side_and_ties():
    universe = ("a", "b", "c", "d")
    edges = [("a", "b", 1), ("c", "d", 0)]
    # {a, b}: a tie, so the earliest member a is 0; {c, d}: both 0 is lighter
    assert ref.w2a_answer(universe, [], edges, "b") == (True, 1, (0, 1, 0, 0))
    assert ref.w2a_answer(universe, [], edges, "a") == (True, 1, (1, 0, 0, 0))
    assert ref.w2a_answer(universe, [], edges, "c") == (False, 1, None)
    assert ref.w2a_answer(universe, [("c", 1)], edges, "d") == (True, 3, (0, 1, 1, 1))
    assert ref.w2a_answer(universe, [], edges + [("a", "b", 0)], "a") == ref.UNSAT
    assert ref.w2a_answer(universe, [("a", 1), ("a", 0)], [], "a") == ref.UNSAT


def test_w2a_matches_enumeration():
    eq, neq = frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})
    t, f = frozenset({(1,)}), frozenset({(0,)})
    universe = ("a", "b", "c", "d", "e")
    edges = [("a", "b", 1), ("b", "c", 0), ("d", "e", 1)]
    units = [("c", 1)]
    cons = [(neq if p else eq, (u, v)) for u, v, p in edges] + [(t if a else f, (v,)) for v, a in units]
    for q in universe:
        assert ref.w2a_answer(universe, units, edges, q) == ref.enumerate_answer(universe, cons, q)


def test_max_matching_needs_an_augmenting_path():
    assert ref.max_matching(["l0", "l1"], [("l0", "r0"), ("l0", "r1"), ("l1", "r0")]) == 2
    assert ref.max_matching(["l0", "l1"], [("l0", "r0"), ("l1", "r0")]) == 1
    assert ref.max_matching(["l0", "l1"], [("l0", "r0"), ("l1", "r0")], {"r0"}) == 0


def test_koenig_cover_answers():
    star = [("l0", "r0"), ("l1", "r0")]
    assert ref.bipartite_cover_answer(["l0", "l1"], star, "r0") == (True, 1)
    assert ref.bipartite_cover_answer(["l0", "l1"], star, "l0") == (False, 1)
    square = [("l0", "r0"), ("l1", "r0"), ("l1", "r1"), ("l0", "r1")]
    assert ref.bipartite_cover_answer(["l0", "l1"], square, "r1") == (True, 2)


def test_koenig_matches_enumeration():
    edges = [("l0", "r0"), ("l0", "r1"), ("l1", "r1"), ("l2", "r1"), ("l2", "r2"), ("l3", "r2")]
    universe = ("l0", "l1", "l2", "l3", "r0", "r1", "r2")
    cons = [(OR2, e) for e in edges]
    for q in universe:
        verdict, weight, _ = ref.enumerate_answer(universe, cons, q)
        assert ref.bipartite_cover_answer(["l0", "l1", "l2", "l3"], edges, q) == (verdict, weight)


def test_path_and_cycle_closed_forms():
    assert ref.path_cover_answer(3, 0) == (False, 1)
    assert ref.path_cover_answer(3, 1) == (True, 1)
    assert ref.path_cover_answer(4, 0) == (True, 2)
    assert ref.cycle_cover_answer(5, 2) == (True, 3)
    for n in range(2, 8):
        vs = tuple(f"p{i}" for i in range(n))
        path = [(OR2, (vs[i], vs[i + 1])) for i in range(n - 1)]
        cycle = path + [(OR2, (vs[-1], vs[0]))]
        for i in range(n):
            assert ref.path_cover_answer(n, i) == ref.enumerate_answer(vs, path, vs[i])[:2]
            if n >= 3:
                assert ref.cycle_cover_answer(n, i) == ref.enumerate_answer(vs, cycle, vs[i])[:2]


def test_enumeration_weight_order_and_least_witness():
    cons = [(OR2, ("x", "y"))]
    universe = ("x", "y", "z")
    assert ref.enumerate_answer(universe, cons, "z") == (False, 1, None)
    assert ref.enumerate_answer(universe, cons, "y") == (True, 1, (0, 1, 0))
    assert ref.enumerate_answer(universe, cons, "x") == (True, 1, (1, 0, 0))
    t, f = frozenset({(1,)}), frozenset({(0,)})
    assert ref.enumerate_answer(("x",), [(t, ("x",)), (f, ("x",))], "x") == ref.UNSAT


def test_relation_flags_and_buckets():
    neq = ref.relation_flags({(0, 1), (1, 0)}, 2)
    assert neq == {"zero_valid": False, "one_valid": False, "complementive": True,
                   "horn": False, "dual_horn": False, "bijunctive": True, "affine": True,
                   "width2_affine": True}
    assert ref.bucket_of(neq) == ref.WIDTH2_AFFINE
    or2 = ref.relation_flags(OR2, 2)
    assert (or2["dual_horn"], or2["bijunctive"], or2["affine"], or2["horn"]) == (True, True, False, False)
    assert ref.bucket_of(or2) == ref.THETA2
    impl = ref.relation_flags({(0, 0), (0, 1), (1, 1)}, 2)
    assert impl["horn"] and impl["dual_horn"] and ref.bucket_of(impl) == ref.TRIVIAL
    assert ref.bucket_of(ref.relation_flags({(1,)}, 1)) == ref.HORN
    xor3 = {t for t in product((0, 1), repeat=3) if sum(t) % 2}
    flags = ref.relation_flags(xor3, 3)
    assert flags["affine"] and not flags["bijunctive"] and ref.bucket_of(flags) == ref.THETA2


def test_generators_are_seeded():
    def texts(seed):
        rels, formulas, paps = gen.small_requests(seed)
        return [r.text() for r in rels] + [f.text() for f in formulas] + [p.text() for p in paps]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)
    assert [i.text() for i in gen.il2_chain(5)[1]] == [i.text() for i in gen.il2_chain(5)[1]]
