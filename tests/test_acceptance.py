"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time.  Expected values come from independent oracles (exhaustive
enumeration, the affine model-space sweep, complete backtracking search),
never from the code path under test."""

import random
import time
from itertools import combinations, combinations_with_replacement

from cardminsat import (Bucket, CmsStarInstance, CoCloneId, ConstraintLanguage, Formula,
                        all_labels, bucket_for_coclone, classify_cms, cms_bruteforce,
                        cms_star_bruteforce, coclone_leq, compose_chain, conjunction_definability,
                        constraint, enumerate_models, fictitious_coordinates, frozen_vars,
                        is_irredundant, lift_model, oracle_budget, reduce_nae3_to_xor3_star,
                        reduce_or2_to_nae3, reduce_to_weakbase, reduce_xor3_star_to_xor4,
                        reduce_xor3xor2_to_xor3, reduce_xor4_to_xor3_xor2, is_solution,
                        reduce_cms_xor3_to_relevance, relevance_bruteforce, solve_generic,
                        solve_horn, solve_width2affine, weak_base)
from cardminsat.search import frozen_by_probing

from helpers import (EQ, F, IMPL, NAE3, NAND2, NEQ, OR2, T, XOR2, XOR3, XOR4,
                     random_clause_formula, reduction_verdict)

WIDTHS = (2, 3, 4)


def _report(number: int, label: str, started: float) -> None:
    print(f"criterion {number} ({label}): PASS [{time.time() - started:.1f}s]")


# -------------------------------------------------------------------------
# 1. Table regression: minimality and classification of every weak base
# -------------------------------------------------------------------------


def test_criterion_1_weak_base_table_regression():
    started = time.time()
    hard = (CoCloneId("IS0", 2), CoCloneId("IL3"), CoCloneId("IL1"))
    id_, id1 = CoCloneId("ID"), CoCloneId("ID1")
    ir1, ie2, ii2 = CoCloneId("IR1"), CoCloneId("IE2"), CoCloneId("II2")
    checked = 0
    for c in all_labels(WIDTHS):
        rel = weak_base(c)
        if c.tag == "IBF":
            # the equality base has two equal columns by definition; the
            # spec's own irredundancy example pins this value
            assert not is_irredundant(rel)
        else:
            assert is_irredundant(rel), str(c)
        assert fictitious_coordinates(rel) == (), str(c)
        verdict = classify_cms(ConstraintLanguage.of(rel))
        if coclone_leq(id_, c) and coclone_leq(c, id1):
            expected = Bucket.POLY_WIDTH2_AFFINE
        elif coclone_leq(ir1, c) and coclone_leq(c, ie2):
            expected = Bucket.POLY_HORN
        elif any(coclone_leq(h, c) for h in hard) and coclone_leq(c, ii2):
            expected = Bucket.THETA2_COMPLETE
        else:
            expected = Bucket.TRIVIAL_0VALID
        assert verdict.bucket is expected, str(c)
        assert bucket_for_coclone(c) is expected, str(c)
        assert verdict.coclone == c, str(c)
        checked += 1
    assert checked == 54
    assert time.time() - started < 10
    _report(1, f"table regression, {checked} weak bases", started)


# -------------------------------------------------------------------------
# 2 + 3. Engine agreement with the oracle, and the oracle-call budget
# -------------------------------------------------------------------------

HORN_LANG = (T, F, IMPL, NAND2, EQ)
W2A_LANG = (T, F, EQ, NEQ)
GENERIC_LANG = (OR2, NAND2, XOR3, NAE3, T, F)

_generic_runs: list[tuple[int, int]] = []  # (oracle_calls, num_vars)


def _constraint_pool(rels, vars):
    """Every instantiation over the variables, deduplicated by model set."""
    from itertools import product

    pool = []
    seen = set()
    n = len(vars)
    for rel in rels:
        for combo in product(range(n), repeat=rel.arity):
            con = constraint(rel, *(vars[i] for i in combo))
            f = Formula.of([con], universe=vars)
            key = tuple(str(m) for m in enumerate_models(f))
            if key not in seen:
                seen.add(key)
                pool.append(con)
    return pool


def _exhaustive_formulas(rels, n_vars=4, max_cons=3):
    vars = tuple(f"x{i}" for i in range(1, n_vars + 1))
    pool = _constraint_pool(rels, vars)
    for size in range(0, max_cons + 1):
        for combo in combinations_with_replacement(pool, size):
            yield Formula.of(combo, universe=vars)


def _run_generic(formula, query):
    report = solve_generic(formula, query)
    _generic_runs.append((report.oracle_calls, formula.num_vars))
    return report.answer


def test_criterion_2_solver_oracle_agreement():
    started = time.time()
    count = 0
    for f in _exhaustive_formulas(HORN_LANG):
        want = cms_bruteforce(f, "x1").key()
        assert solve_horn(f, "x1").answer.key() == want
        assert _run_generic(f, "x1").key() == want
        count += 1
    for f in _exhaustive_formulas(W2A_LANG):
        want = cms_bruteforce(f, "x1").key()
        assert solve_width2affine(f, "x1").answer.key() == want
        assert _run_generic(f, "x1").key() == want
        count += 1
    for f in _exhaustive_formulas(GENERIC_LANG):
        assert _run_generic(f, "x1").key() == cms_bruteforce(f, "x1").key()
        count += 1
    rng = random.Random(2025)
    fragments = (HORN_LANG, W2A_LANG, GENERIC_LANG)
    for trial in range(500):
        rels = fragments[trial % 3]
        n = rng.randint(1, 12)
        vars = tuple(f"v{i}" for i in range(n))
        cons = [constraint(r, *(rng.choice(vars) for _ in range(r.arity)))
                for r in (rng.choice(rels) for _ in range(rng.randint(0, 6)))]
        f = Formula.of(cons, universe=vars)
        q = rng.choice(vars)
        want = cms_bruteforce(f, q).key()
        if rels is HORN_LANG:
            assert solve_horn(f, q).answer.key() == want
        elif rels is W2A_LANG:
            assert solve_width2affine(f, q).answer.key() == want
        assert _run_generic(f, q).key() == want
        count += 1
    elapsed = time.time() - started
    assert elapsed < 60
    _report(2, f"engine/oracle agreement on {count} instances", started)


def test_criterion_3_theta2_oracle_discipline():
    started = time.time()
    assert _generic_runs, "criterion 2 must run first"
    violations = [(calls, n) for calls, n in _generic_runs if calls > oracle_budget(n)]
    assert violations == []
    _report(3, f"oracle budget respected on {len(_generic_runs)} runs", started)


# -------------------------------------------------------------------------
# 4. Reduction preservation, with the declared weight identities
# -------------------------------------------------------------------------


def _exhaustive_clause_sets(rel, vars, max_cons):
    pool = [constraint(rel, *c) for c in combinations(vars, rel.arity)]
    for size in range(1, max_cons + 1):
        for combo in combinations_with_replacement(pool, size):
            yield Formula.of(combo, universe=vars)


def _check_weight_identity(out, source):
    offset = out.stats.declared_weight_offset
    if offset is None:
        return
    for model in enumerate_models(source):
        lifted = lift_model(out, model)
        assert lifted.satisfies(out.formula)
        assert lifted.weight == model.weight + offset


def _preserved(source, query, out):
    return cms_bruteforce(source, query).verdict == reduction_verdict(out)


def test_criterion_4_reduction_preservation():
    started = time.time()
    rng = random.Random(77)
    vars4 = ("x1", "x2", "x3", "x4")
    checks = 0

    def random_sources(rel, count, max_n=8, max_cons=3):
        for _ in range(count):
            yield random_clause_formula(rng, rel, rng.randint(rel.arity, max_n),
                                        rng.randint(1, max_cons))

    # chain step 1
    for f in list(_exhaustive_clause_sets(OR2, vars4, 3)) + list(random_sources(OR2, 200)):
        out = reduce_or2_to_nae3(f, f.universe[0])
        assert _preserved(f, f.universe[0], out)
        checks += 1
    # chain step 2 (bounded target)
    for f in list(_exhaustive_clause_sets(NAE3, vars4, 3)) + list(random_sources(NAE3, 200)):
        q = f.universe[0]
        out = reduce_nae3_to_xor3_star(f, q)
        assert cms_bruteforce(f, q).verdict == reduction_verdict(out)
        checks += 1
    # chain step 3 (bounded source)
    step3_sources = [(f, b) for f in _exhaustive_clause_sets(XOR3, vars4, 2)
                     for b in (1, 2, 4)]
    step3_sources += [(f, rng.randint(1, f.num_vars)) for f in random_sources(XOR3, 200)]
    for f, bound in step3_sources:
        inst = CmsStarInstance(f, f.universe[0], bound)
        out = reduce_xor3_star_to_xor4(inst)
        assert cms_star_bruteforce(inst) == reduction_verdict(out)
        checks += 1
    # chain step 4
    for f in list(_exhaustive_clause_sets(XOR4, vars4, 3)) + list(random_sources(XOR4, 200)):
        out = reduce_xor4_to_xor3_xor2(f, f.universe[0])
        assert _preserved(f, f.universe[0], out)
        checks += 1
    # chain step 5 (mixed fragment, unsatisfiable sources included)
    mixed = []
    pool3 = [constraint(XOR3, *c) for c in combinations(vars4, 3)]
    pool2 = [constraint(XOR2, *c) for c in combinations(vars4, 2)]
    for size in range(1, 4):
        for combo in combinations_with_replacement(pool3 + pool2, size):
            mixed.append(Formula.of(combo, universe=vars4))
    for _ in range(200):
        n = rng.randint(3, 8)
        vars = tuple(f"x{i}" for i in range(1, n + 1))
        cons = []
        for _ in range(rng.randint(1, 4)):
            rel = rng.choice((XOR3, XOR2))
            cons.append(constraint(rel, *rng.sample(vars, rel.arity)))
        mixed.append(Formula.of(cons, universe=vars))
    for f in mixed:
        out = reduce_xor3xor2_to_xor3(f, f.universe[0])
        assert _preserved(f, f.universe[0], out)
        checks += 1

    # weak-base gadgets
    or2_gadgets = [CoCloneId("II2"), CoCloneId("II1"), CoCloneId("IN2"), CoCloneId("IV2"),
                   CoCloneId("IV1"), CoCloneId("IS0", 2), CoCloneId("IS01", 2),
                   CoCloneId("IS02", 3), CoCloneId("IS00", 2)]
    xor_gadgets = [CoCloneId("IL2"), CoCloneId("IL3"), CoCloneId("IL1")]
    for cc in or2_gadgets + xor_gadgets:
        rel = XOR3 if cc.tag.startswith("IL") else OR2
        sources = list(_exhaustive_clause_sets(rel, vars4, 2))
        sources += list(random_sources(rel, 200, max_n=8, max_cons=3))
        for f in sources:
            q = f.universe[0]
            out = reduce_to_weakbase(cc, f, q)
            assert _preserved(f, q, out), (str(cc), [str(c) for c in f.constraints])
            if f.num_vars <= 6 and cc.tag in ("II2", "IL2", "II1"):
                _check_weight_identity(out, f)
                p = f.num_constraints
                if cc.tag == "II2":
                    expected_offset = 4 * p + 1
                elif cc.tag == "IL2":
                    expected_offset = 3 * p + 1
                else:
                    expected_offset = p + out.stats.boost_n + 1
                assert out.stats.declared_weight_offset == expected_offset
            checks += 1
    elapsed = time.time() - started
    assert elapsed < 300
    _report(4, f"reduction preservation on {checks} instances", started)


# -------------------------------------------------------------------------
# 5. Frozen sets of the gadget outputs
# -------------------------------------------------------------------------

GADGET_FROZEN = {
    "II2": {"f": 0, "t": 1}, "IL2": {"f": 0, "t": 1}, "IV2": {"f": 0, "t": 1},
    "IS00": {"f": 0, "t": 1}, "IS02": {"f": 0, "t": 1},
    "II1": {"t": 1}, "IL1": {"t": 1}, "IV1": {"t": 1}, "IS01": {"t": 1}, "IS0": {"t": 1},
    "IN2": {}, "IL3": {},
}


def test_criterion_5_frozen_gadget_sets():
    started = time.time()
    rng = random.Random(99)
    for tag, expected_roles in GADGET_FROZEN.items():
        cc = CoCloneId(tag, 2) if tag.startswith("IS") else CoCloneId(tag)
        rel = XOR3 if tag.startswith("IL") else OR2
        done = 0
        while done < 50:
            f = random_clause_formula(rng, rel, rng.randint(rel.arity, 6), rng.randint(1, 3))
            if not enumerate_models(f) or frozen_vars(f) != {}:
                continue  # keep sources satisfiable with nothing frozen
            out = reduce_to_weakbase(cc, f, f.universe[0])
            frozen = frozen_by_probing(out.formula)
            assert frozen == {"_" + k: v for k, v in expected_roles.items()}, tag
            done += 1
    _report(5, "frozen gadget sets, 50 instances per gadget", started)


# -------------------------------------------------------------------------
# 6. The worked definability example
# -------------------------------------------------------------------------


def test_criterion_6_definability_example():
    started = time.time()
    lang = ConstraintLanguage.of(IMPL)
    witness = conjunction_definability(EQ, lang)
    assert witness is not None
    assert [(c.relation.name, c.vars) for c in witness.constraints] == [
        ("IMPL", ("x1", "x2")), ("IMPL", ("x2", "x1"))]
    assert conjunction_definability(OR2, lang) is None
    _report(6, "equality definable from implications, disjunction not", started)


# -------------------------------------------------------------------------
# 7. Abduction correspondence
# -------------------------------------------------------------------------


def test_criterion_7_abduction_correspondence():
    started = time.time()
    rng = random.Random(123)
    sources = list(_exhaustive_clause_sets(XOR3, ("x1", "x2", "x3", "x4"), 2))
    for _ in range(60):
        sources.append(random_clause_formula(rng, XOR3, rng.randint(3, 8), rng.randint(1, 3)))
    for f in sources:
        pap, h = reduce_cms_xor3_to_relevance(f, f.universe[0])
        models = {frozenset(v for v in f.universe if m.value(v))
                  for m in enumerate_models(f)}
        solutions = {frozenset(s)
                     for size in range(len(f.universe) + 1)
                     for s in combinations(f.universe, size) if is_solution(pap, s)}
        assert solutions == models
        assert relevance_bruteforce(pap, h) == cms_bruteforce(f, h).verdict
    elapsed = time.time() - started
    assert elapsed < 60
    _report(7, f"solutions = models on {len(sources)} parity formulas", started)


# -------------------------------------------------------------------------
# 8. End-to-end chain to the affine weak base
# -------------------------------------------------------------------------


def test_criterion_8_end_to_end_chain():
    started = time.time()
    rng = random.Random(4242)
    pipeline = compose_chain(CoCloneId("IL2"))
    assert pipeline.steps == ("or2_to_nae3", "nae3_to_xor3_star", "xor3_star_to_xor4",
                              "xor4_to_xor3_xor2", "xor3xor2_to_xor3", "to_weakbase_IL2")
    sizes = [(2, 1)] * 75 + [(4, 2)] * 20 + [(5, 2)] * 4 + [(6, 3)] * 1
    rng.shuffle(sizes)
    for trial, (pool, m) in enumerate(sizes):
        vars = tuple(f"v{i}" for i in range(pool))
        cons = [constraint(OR2, *rng.sample(vars, 2)) for _ in range(m)]
        f = Formula.of(cons)  # universe = occurring variables, at most 6
        assert f.num_vars <= 6
        q = rng.choice(f.universe)
        expected = cms_bruteforce(f, q).verdict
        outputs = pipeline.run(f, q)
        assert len(outputs) == 6
        for out in outputs:
            assert reduction_verdict(out) == expected, (trial, [str(c) for c in cons], q)
    elapsed = time.time() - started
    assert elapsed < 300
    _report(8, "100 chains preserved at every stage", started)
