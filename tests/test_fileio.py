import random
from pathlib import Path

import pytest

from cardminsat import (ConstraintLanguage, Formula, FormulaFile, ParseError, Relation, constraint,
                        parse_formula_file, parse_language, parse_pap, render_formula_file,
                        render_language, render_pap, render_relation)
from cardminsat.fileio import load_formula_file

from helpers import NAE3, OR2, T


def test_relation_round_trip_is_byte_identical():
    lang = ConstraintLanguage.of(OR2, NAE3, T)
    text = render_language(lang)
    again = parse_language(text)
    assert render_language(again) == text
    assert all(a.same_tuples(b) and a.name == b.name for a, b in zip(lang, again))


def test_relation_rows_serialize_in_index_order():
    assert render_relation(OR2) == "relation OR2 2\n01\n10\n11\n\n"


def test_random_relation_round_trips():
    rng = random.Random(3)
    for i in range(40):
        arity = rng.randint(1, 6)
        rows = rng.getrandbits(1 << arity)
        rel = Relation(f"r{i}", arity, rows)
        text = render_relation(rel)
        parsed = parse_language(text).get(f"r{i}")
        assert parsed.same_tuples(rel)
        assert render_relation(parsed) == text


def test_relation_format_rejections():
    with pytest.raises(ParseError):
        parse_language("relation  r 2\n01\n\n")  # double space
    with pytest.raises(ParseError):
        parse_language("relation r 2\n012\n\n")  # bad row
    with pytest.raises(ParseError):
        parse_language("relation r 2\n01")  # missing blank terminator
    with pytest.raises(ParseError):
        parse_language("")


def test_formula_round_trip(tmp_path):
    lang = ConstraintLanguage.of(OR2, T)
    (tmp_path / "lang.rel").write_text(render_language(lang))
    f = Formula.of([constraint(OR2, "x", "y"), constraint(T, "z")], universe=("x", "y", "z"))
    doc = FormulaFile(f, lang, "x", ("lang.rel",))
    text = render_formula_file(doc)
    parsed = parse_formula_file(text, base_dir=tmp_path)
    assert render_formula_file(parsed) == text
    assert parsed.query == "x"
    assert parsed.formula.universe == ("x", "y", "z")
    assert [c.relation.name for c in parsed.formula.constraints] == ["OR2", "T"]


@pytest.fixture()
def or2_dir(tmp_path):
    (tmp_path / "or2.rel").write_text(render_relation(OR2))
    return tmp_path


def test_formula_parse_with_an_imported_language(or2_dir):
    doc = parse_formula_file("lang or2.rel\nvar x y\nc OR2 x y\nquery y\n", base_dir=or2_dir)
    assert doc.query == "y"
    assert doc.formula.num_constraints == 1


def test_formula_format_rejections(or2_dir):
    def parse(body: str) -> FormulaFile:
        return parse_formula_file("lang or2.rel\n" + body, base_dir=or2_dir)

    with pytest.raises(ParseError):
        parse("var x y\nc OR2 x y\nc OR2  x y\n")  # double space
    with pytest.raises(ParseError):
        parse("var x y\nquery x\nc OR2 x y\n")  # constraint after query
    with pytest.raises(ParseError):
        parse("var x y\nc MISSING x y\n")
    with pytest.raises(ParseError):
        parse("var x y\nc OR2 x\n")  # arity mismatch
    with pytest.raises(ParseError):
        parse("var x y\nwhat x\n")
    with pytest.raises(ParseError):
        parse("var x y\nc OR2 x y\nquery z\n")  # foreign query
    with pytest.raises(ParseError):
        parse_formula_file("c OR2 x y\n")  # no language at all
    with pytest.raises(ParseError):
        parse_formula_file("lang nothere.rel\nc OR2 x y\n", base_dir=or2_dir)


def test_lang_imports_merge(tmp_path):
    (tmp_path / "a.rel").write_text(render_relation(OR2))
    (tmp_path / "b.rel").write_text(render_relation(T))
    text = "lang a.rel\nlang b.rel\nvar x\nc T x\nquery x\n"
    (tmp_path / "f.cms").write_text(text)
    doc = load_formula_file(tmp_path / "f.cms")
    assert {r.name for r in doc.language} == {"OR2", "T"}
    assert render_formula_file(doc) == text


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
MUTATION_CHARS = (" ", "\t", "\r", "\x0b", "\n", "+", "_", "0", "x")


def _mutants(text: str, rng: random.Random, count: int):
    """``count`` one-character edits of ``text``: an insertion, a deletion or
    a replacement by one of MUTATION_CHARS."""
    for _ in range(count):
        i = rng.randrange(len(text))
        c = rng.choice(MUTATION_CHARS)
        yield rng.choice((text[:i] + c + text[i:], text[:i] + text[i + 1:],
                          text[:i] + c + text[i + 1:]))


def _reparse(path: Path, text: str) -> str | None:
    """The rendering of ``text`` parsed as a file of ``path``'s format, or
    None where that rendering need not be byte-identical: a formula file
    with no ``var`` line is written back with one."""
    if path.suffix == ".rel":
        return render_language(parse_language(text))
    if path.suffix == ".pap":
        return render_pap(parse_pap(text))
    doc = parse_formula_file(text, base_dir=path.parent)
    has_var = "var" in (line.split(" ")[0] for line in text.split("\n"))
    return render_formula_file(doc) if has_var else None


@pytest.mark.parametrize("suffix", [".rel", ".cms", ".pap"])
def test_every_accepted_mutant_of_the_corpus_round_trips(suffix):
    paths = sorted(CORPUS.rglob(f"*{suffix}"))
    accepted = 0
    for path in paths:
        rng = random.Random(path.name)
        for mutant in _mutants(path.read_text(), rng, 2400 // len(paths)):
            try:
                again = _reparse(path, mutant)
            except ParseError:
                continue
            accepted += 1
            assert again in (None, mutant), (path.name, mutant)
    assert accepted > 0


# inputs that each break one of the three rules, by name; formula files
# import or2.rel from the directory they are parsed in
REJECTED = {
    "rel-count-with-a-sign": ("rel", "relation X +2\n01\n\n"),
    "cms-no-final-lf": ("cms", "lang or2.rel\nvar x y\nc OR2 x y"),
    "pap-no-final-lf": ("pap", "vars x\nhyp x\nman"),
    "rel-no-final-lf": ("rel", "relation X 2\n01"),
    "rel-count-with-a-leading-zero": ("rel", "relation X 02\n01\n\n"),
    "rel-count-with-an-underscore": ("rel", "relation X 1_6\n\n"),
    "rel-count-in-arabic-indic-digits": ("rel", "relation X \u0662\n01\n\n"),
    "rel-count-beyond-int": ("rel", "relation X " + "1" * 5000 + "\n\n"),
    "rel-rows-out-of-order": ("rel", "relation X 2\n10\n01\n\n"),
    "rel-row-repeated": ("rel", "relation X 2\n01\n01\n\n"),
    "rel-vtab-in-a-name": ("rel", "relation X\x0bY 1\n1\n\n"),
    "rel-tab-in-a-row": ("rel", "relation X 2\n0\t1\n\n"),
    "cms-tab-in-a-variable": ("cms", "lang or2.rel\nvar x\ty y\nc OR2 x\ty y\n"),
    "cms-crlf": ("cms", "lang or2.rel\nvar x y\nc OR2 x y\r\n"),
    "pap-vtab-in-a-variable": ("pap", "vars x\x0by\nhyp\nman\n"),
    "cms-var-twice": ("cms", "lang or2.rel\nvar x y\nvar x y\nc OR2 x y\n"),
    "cms-query-twice": ("cms", "lang or2.rel\nvar x y\nc OR2 x y\nquery x\nquery x\n"),
    "pap-hyp-twice": ("pap", "vars x\nhyp x\nhyp x\nman\n"),
    "cms-var-before-lang": ("cms", "var x y\nlang or2.rel\nc OR2 x y\n"),
    "cms-var-after-c": ("cms", "lang or2.rel\nc OR2 x y\nvar x y\n"),
    "pap-man-before-hyp": ("pap", "vars x\nman\nhyp x\n"),
    "pap-man-after-t": ("pap", "vars x\nhyp x\nman\nt x = 1\nman\n"),
}


@pytest.mark.parametrize("fmt, text", REJECTED.values(), ids=REJECTED)
def test_each_rule_rejects(or2_dir, fmt, text):
    parse = {"rel": parse_language, "pap": parse_pap,
             "cms": lambda t: parse_formula_file(t, base_dir=or2_dir)}[fmt]
    with pytest.raises(ParseError):
        parse(text)


def test_an_empty_universe_round_trips(or2_dir):
    text = "lang or2.rel\nvar\n"
    assert render_formula_file(parse_formula_file(text, base_dir=or2_dir)) == text
    assert render_formula_file(parse_formula_file("lang or2.rel\n", base_dir=or2_dir)) == text
