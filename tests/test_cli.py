import contextlib
import io
import random

import pytest

from cardminsat import (Bucket, CoCloneId, ConstraintLanguage, all_labels, bucket_for_coclone,
                        build_named_relation, cms_affine, compose_chain, render_language,
                        render_pap, reduce_cms_xor3_to_relevance, weak_base, Formula, constraint)
from cardminsat.cli import run
from cardminsat.fileio import load_formula_file
from cardminsat.reductions import OR2_WEAKBASE_TARGETS

from helpers import EQ, NEQ, OR2, T, XOR3


@pytest.fixture()
def or2_files(tmp_path):
    (tmp_path / "lang.rel").write_text(render_language(ConstraintLanguage.of(OR2)))
    (tmp_path / "f.cms").write_text("lang lang.rel\nvar x y\nc OR2 x y\nquery x\n")
    return tmp_path


def test_weakbase_il2(capsys):
    assert run(["weakbase", "IL2"]) == 0
    out = capsys.readouterr().out
    assert out == ("relation R_IL2 8\n00011101\n01110001\n10101001\n11000101\n\n")


def test_weakbase_needs_width(capsys):
    assert run(["weakbase", "IS00"]) == 2
    assert run(["weakbase", "IS00", "--width", "2"]) == 0
    assert "R_IS00_2 5" in capsys.readouterr().out


def test_classify_or2(or2_files, capsys):
    assert run(["classify", str(or2_files / "lang.rel")]) == 0
    out = capsys.readouterr().out
    assert "bucket=Theta2Complete" in out
    assert "coclone=IS^2_0" in out


def test_parser_reuse_is_safe(or2_files, capsys):
    """One parser serves every call of a process: a usage error leaves no
    state behind, and argparse writes to the stderr of the moment."""
    classify = ["classify", str(or2_files / "lang.rel")]
    assert run(classify) == 0
    first = capsys.readouterr().out
    assert run(["nonsense"]) == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    assert run(["abduce", str(or2_files / "p.pap")]) == 2
    assert "the following arguments are required: --hyp" in capsys.readouterr().err
    assert run(classify) == 0
    assert capsys.readouterr().out == first
    for _ in range(2):
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cardminsat")


def test_solve_with_query_from_file(or2_files, capsys):
    assert run(["solve", str(or2_files / "f.cms")]) == 0
    out = capsys.readouterr().out
    assert "engine=GenericOracle" in out
    assert "verdict=yes" in out
    assert "min_weight=1" in out


def test_solve_engine_override_and_rejection(or2_files, capsys):
    assert run(["solve", str(or2_files / "f.cms"), "--engine", "brute"]) == 0
    assert "engine=BruteForce" in capsys.readouterr().out
    assert run(["solve", str(or2_files / "f.cms"), "--engine", "horn"]) == 3


def test_solve_deterministic_output(or2_files, capsys):
    run(["solve", str(or2_files / "f.cms")])
    first = capsys.readouterr().out
    run(["solve", str(or2_files / "f.cms")])
    assert capsys.readouterr().out == first


def test_verify_agrees(or2_files, capsys):
    assert run(["verify", str(or2_files / "f.cms")]) == 0
    assert "agree=true" in capsys.readouterr().out


def test_verify_disagreement_exit_code(or2_files, capsys, monkeypatch):
    import cardminsat.cli as cli
    from cardminsat import CmsAnswer, SolveReport, Engine

    def rigged(language, formula, query):
        return SolveReport(CmsAnswer(0, None), Engine.TRIVIAL)

    monkeypatch.setattr(cli, "dispatch", rigged)
    assert run(["verify", str(or2_files / "f.cms")]) == 4
    assert "agree=false" in capsys.readouterr().out


def test_reduce_writes_outputs(or2_files, capsys):
    out_prefix = or2_files / "out" / "red"
    (or2_files / "out").mkdir()
    code = run(["reduce", str(or2_files / "f.cms"), "--target", "IL2",
                "--out", str(out_prefix)])
    assert code == 0
    report = capsys.readouterr().out
    assert "steps=or2_to_nae3,nae3_to_xor3_star," in report
    rel_file = out_prefix.with_suffix(".rel")
    cms_file = out_prefix.with_suffix(".cms")
    assert rel_file.is_file() and cms_file.is_file()
    doc = load_formula_file(cms_file)
    assert doc.query == "x"
    assert all(c.relation.name == "R_IL2" for c in doc.formula.constraints)


@pytest.mark.parametrize("tag", OR2_WEAKBASE_TARGETS)
def test_reduce_of_a_constraint_free_source_writes_a_loadable_pair(or2_files, tag, capsys):
    (or2_files / "g.cms").write_text("lang lang.rel\nvar a b\nquery a\n")
    width = ["--width", "2"] if tag.startswith("IS") else []
    out = or2_files / f"out_{tag}"
    assert run(["reduce", str(or2_files / "g.cms"), "--target", tag, *width,
                "--out", str(out)]) == 0, capsys.readouterr().err
    target = CoCloneId(tag, 2 if width else None)
    doc = load_formula_file(out.with_suffix(".cms"))
    assert list(doc.language) == [weak_base(target)]
    final = compose_chain(target).run(Formula.of([], ("a", "b")), "a")[-1]
    assert doc.formula == final.formula and doc.query == final.query


@pytest.mark.parametrize("tag, bucket", [("ID2", Bucket.THETA2_COMPLETE), ("IE2", Bucket.POLY_HORN),
                                         ("ID1", Bucket.POLY_WIDTH2_AFFINE)],
                         ids=["ID2", "IE2", "ID1"])
def test_reduce_to_a_label_with_no_reduction_chain_is_refused(or2_files, tag, bucket):
    # ID2 is hard but has no gadget; IE2 and ID1 are polynomial
    assert bucket_for_coclone(CoCloneId(tag)) is bucket
    assert run(["reduce", str(or2_files / "f.cms"), "--target", tag,
                "--out", str(or2_files / "nope")]) == 3


@pytest.mark.parametrize("tag, num_vars", [("IL2", 59537), ("IL3", 75383), ("IL1", 7108)])
def test_reduce_of_a_constraint_free_source_reaches_the_parity_weak_bases(or2_files, tag,
                                                                          num_vars, capsys):
    (or2_files / "g.cms").write_text("lang lang.rel\nvar a\nquery a\n")
    out = or2_files / f"out_{tag}"
    assert run(["reduce", str(or2_files / "g.cms"), "--target", tag,
                "--out", str(out)]) == 0, capsys.readouterr().err
    doc = load_formula_file(out.with_suffix(".cms"))
    assert list(doc.language) == [weak_base(CoCloneId(tag))]
    final = compose_chain(CoCloneId(tag)).run(Formula.of([], ("a",)), "a")[-1]
    assert doc.formula == final.formula and doc.query == final.query == "a"
    assert doc.formula.num_vars == num_vars
    # the source's minimum model leaves a false, and so does the target's
    assert cms_affine(doc.formula, "a")[2] is False


def test_abduce(tmp_path, capsys):
    f = Formula.of([constraint(XOR3, "x1", "x2", "x3")])
    pap, _ = reduce_cms_xor3_to_relevance(f, "x1")
    (tmp_path / "p.pap").write_text(render_pap(pap))
    assert run(["abduce", str(tmp_path / "p.pap"), "--hyp", "x1"]) == 0
    out = capsys.readouterr().out
    assert "relevant=yes" in out
    # under the positive-units reading the only solution fixes every
    # hypothesis, so the query is still part of a minimum solution
    assert run(["abduce", str(tmp_path / "p.pap"), "--hyp", "x1", "--semantics", "pu"]) == 0
    assert "relevant=yes" in capsys.readouterr().out


def test_parse_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.cms"
    bad.write_text("var x\nc NOPE x\n")
    assert run(["solve", str(bad), "--query", "x"]) == 2
    assert run(["solve", str(tmp_path / "missing.cms"), "--query", "x"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["weakbase", "IL2", "--what"]) == 2


def test_solve_without_any_query_is_a_usage_error(or2_files, tmp_path):
    text = (or2_files / "f.cms").read_text().replace("query x\n", "")
    noq = or2_files / "noq.cms"
    noq.write_text(text)
    assert run(["solve", str(noq)]) == 2
    assert run(["solve", str(noq), "--query", "x"]) == 0


def test_guard_exit_code(tmp_path):
    lang = ConstraintLanguage.of(T)
    (tmp_path / "l.rel").write_text(render_language(lang))
    wide = " ".join(f"v{i}" for i in range(30))
    (tmp_path / "w.cms").write_text(f"lang l.rel\nvar {wide}\nc T v0\nquery v0\n")
    assert run(["verify", str(tmp_path / "w.cms")]) == 3


def test_deep_instances_solve_without_traceback(tmp_path, capsys):
    (tmp_path / "or2.rel").write_text(render_language(ConstraintLanguage.of(OR2)))
    wide = " ".join(f"v{i}" for i in range(1100))
    (tmp_path / "wide.cms").write_text(f"lang or2.rel\nvar {wide}\nc OR2 v0 v1\nquery v0\n")
    (tmp_path / "eqt.rel").write_text(render_language(ConstraintLanguage.of(EQ, T)))
    links = "".join(f"c EQ e{i + 1} e{i}\n" for i in range(1999))
    (tmp_path / "chain.cms").write_text(f"lang eqt.rel\n{links}c T e1999\nquery e0\n")
    for argv in (["solve", str(tmp_path / "wide.cms")],
                 ["solve", str(tmp_path / "chain.cms")],
                 ["solve", str(tmp_path / "chain.cms"), "--engine", "w2a"]):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert "verdict=yes" in captured.out
        assert "Traceback" not in captured.out + captured.err


def test_empty_relation_verifies(tmp_path, capsys):
    (tmp_path / "lang.rel").write_text("relation E 1\n\n" + render_language(ConstraintLanguage.of(NEQ)))
    (tmp_path / "f.cms").write_text("lang lang.rel\nvar x y\nc NEQ x y\nc E y\nquery x\n")
    assert run(["verify", str(tmp_path / "f.cms")]) == 0
    assert "agree=true" in capsys.readouterr().out
    assert run(["solve", str(tmp_path / "f.cms")]) == 0
    assert "reason=unsatisfiable" in capsys.readouterr().out


def test_conflicting_lang_imports_are_a_parse_error(tmp_path):
    (tmp_path / "a.rel").write_text("relation R 2\n01\n10\n\n")
    (tmp_path / "b.rel").write_text("relation R 2\n11\n\n")
    (tmp_path / "f.cms").write_text("lang a.rel\nlang b.rel\nvar x y\nc R x y\nquery x\n")
    assert run(["solve", str(tmp_path / "f.cms")]) == 2


def test_wide_clause_classifies_solves_and_verifies(tmp_path, capsys):
    # OR8 has 255 tuples: classifying it used to need 255**3 closure checks
    or8 = build_named_relation("OR", 8)
    (tmp_path / "or8.rel").write_text(render_language(ConstraintLanguage.of(or8)))
    xs = " ".join(f"x{i}" for i in range(8))
    (tmp_path / "f.cms").write_text(f"lang or8.rel\nvar {xs}\nc OR8 {xs}\nquery x0\n")
    assert run(["solve", str(tmp_path / "f.cms")]) == 0
    assert "verdict=yes" in capsys.readouterr().out
    assert run(["verify", str(tmp_path / "f.cms")]) == 0
    assert "agree=true" in capsys.readouterr().out
    assert run(["classify", str(tmp_path / "or8.rel")]) == 0
    assert "coclone=IS^8_0" in capsys.readouterr().out


def test_weak_base_wider_than_the_arity_limit_is_refused(or2_files, capsys):
    # IS0 of width 20 has arity 21; it must be refused before any tuple is built
    assert run(["weakbase", "IS0", "--width", "20"]) == 3
    assert run(["reduce", str(or2_files / "f.cms"), "--target", "IS0", "--width", "20",
                "--out", str(or2_files / "nope")]) == 3
    assert "arity 21 > 16" in capsys.readouterr().err
    assert run(["weakbase", "IS0", "--width", "15"]) == 0
    assert "relation R_IS0_15 16" in capsys.readouterr().out


def test_reading_a_directory_is_an_input_error(or2_files, capsys):
    for argv in (["classify", str(or2_files)], ["abduce", str(or2_files), "--hyp", "a"]):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_reduce_onto_a_directory_is_an_input_error(or2_files, capsys):
    (or2_files / "d.rel").mkdir()
    assert run(["reduce", str(or2_files / "f.cms"), "--target", "IL2",
                "--out", str(or2_files / "d")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _random_relation_file(rng, path, count):
    """`count` relations of arity 1-4 with random tuple sets, empty ones included."""
    blocks, arities = [], []
    for i in range(count):
        k = rng.randint(1, 4)
        rows = [format(t, f"0{k}b") for t in range(1 << k) if rng.random() < rng.choice((0, .3, .7))]
        blocks.append(f"relation R{i} {k}\n" + "".join(r + "\n" for r in rows) + "\n")
        arities.append(k)
    path.write_text("".join(blocks))
    return arities


def test_random_inputs_exit_only_with_documented_codes(tmp_path):
    """Seeded sweep: no exception escapes `run`, every exit code is 0, 2 or 3,
    and `verify` never finds the dispatched engine and brute force apart."""
    rng = random.Random(16)
    targets = [(c.tag, c.width) for c in all_labels((2, 3))]
    calls = 0
    for i in range(225):
        rel, cms = tmp_path / f"l{i}.rel", tmp_path / f"f{i}.cms"
        arities = _random_relation_file(rng, rel, rng.randint(1, 3))
        names = [f"x{j}" for j in range(rng.randint(1, 7))]
        cons = "".join(f"c R{r} " + " ".join(rng.choice(names) for _ in range(arities[r])) + "\n"
                       for r in (rng.randrange(len(arities)) for _ in range(rng.randint(0, 6))))
        cms.write_text(f"lang {rel.name}\nvar {' '.join(names)}\n{cons}query {rng.choice(names)}\n")
        tag, width = rng.choice(targets)
        argvs = [["classify", str(rel)], ["verify", str(cms)],
                 *(["solve", str(cms), "--engine", e] for e in ("auto", "horn", "w2a", "generic", "brute")),
                 ["reduce", str(cms), "--target", tag, *(["--width", str(width)] if width else []),
                  "--out", str(tmp_path / "red")]]
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (argv, cms.read_text())
            calls += 1
    assert calls == 1800
