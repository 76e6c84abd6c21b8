"""Exact text formats for relations and formulas, and the one reader that
these files and abduction files are read through.

Relation file: blocks of a ``relation NAME k`` line, the k-character 0/1
rows in strictly ascending order, and a blank line.

Formula file: ``lang FILE`` import lines, an optional ``var x1 x2 ...``
universe line, one ``c NAME v1 ... vk`` line per constraint, and an optional
``query x`` line, in that order.

The reader keeps three rules:

- line rule: every line ends in LF, the last one too; its tokens hold no
  whitespace and are joined by single spaces; a blank line has no tokens;
- count rule: a count (a relation's arity) is canonical ASCII decimal;
- tag-order rule: a formula or abduction line starts with a tag, and the
  tags come in a fixed order, each one either repeating or at most once.

So a parsed file is written back byte for byte, except that a formula file
with no ``var`` line is written back with one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from operator import itemgetter
from pathlib import Path

from .errors import GuardError, ParseError
from .formulas import Constraint, Formula
from .relations import ConstraintLanguage, Relation


def read_lines(text: str) -> list[list[str]]:
    """The tokens of each line of ``text``, under the line rule."""
    if text and not text.endswith("\n"):
        raise ParseError("the last line does not end in LF")
    lines = []
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        tokens = line.split()
        if " ".join(tokens) != line:
            raise ParseError(f"line {lineno}: malformed line {line!r}")
        lines.append(tokens)
    return lines


def read_count(token: str, lineno: int) -> int:
    """A count, under the count rule."""
    try:
        if token.isascii() and token.isdigit() and str(int(token)) == token:
            return int(token)
    except ValueError:  # more digits than int() reads
        pass
    raise ParseError(f"line {lineno}: bad count {token!r}")


def read_sections(text: str, grammar: str) -> dict[str, list[tuple[int, list[str]]]]:
    """The lines of ``text`` under the line rule, grouped by their first
    token, the tag: each tag maps to its (line number, other tokens) pairs.

    ``grammar`` lists the tags in the order their lines must come, e.g.
    ``"vars hyp man t*"``: a tag marked ``*`` may repeat, one marked ``?``
    appears at most once, and an unmarked one exactly once.
    """
    marks = {t.rstrip("*?"): t[len(t.rstrip("*?")):] for t in grammar.split()}
    rank = {tag: i for i, tag in enumerate(marks)}
    sections: dict[str, list[tuple[int, list[str]]]] = {tag: [] for tag in marks}
    at = 0
    for lineno, tokens in enumerate(read_lines(text), start=1):
        tag = tokens[0] if tokens else ""
        if tag not in rank:
            raise ParseError(f"line {lineno}: unknown line tag {tag!r}")
        if rank[tag] < at or sections[tag] and marks[tag] != "*":
            raise ParseError(f"line {lineno}: misplaced {tag!r} line")
        at = rank[tag]
        sections[tag].append((lineno, tokens[1:]))
    for tag, mark in marks.items():
        if mark == "" and not sections[tag]:
            raise ParseError(f"missing {tag!r} line")
    return sections


def render_relation(rel: Relation) -> str:
    lines = [f"relation {rel.name} {rel.arity}"]
    lines.extend(rel.matrix_rows())
    lines.append("")
    return "\n".join(lines) + "\n"


def render_language(lang: ConstraintLanguage) -> str:
    return "".join(render_relation(r) for r in lang)


def parse_language(text: str) -> ConstraintLanguage:
    lines = read_lines(text)
    if lines and lines[-1]:
        raise ParseError("the last relation is not terminated by a blank line")
    relations = []
    numbered = iter(enumerate(lines, start=1))
    for lineno, header in numbered:
        if len(header) != 3 or header[0] != "relation":
            raise ParseError(f"line {lineno}: expected 'relation NAME k', got {' '.join(header)!r}")
        name, arity = header[1], read_count(header[2], lineno)
        rows = [" ".join(tokens) for _, tokens in takewhile(itemgetter(1), numbered)]
        try:
            relations.append(Relation.from_rows(name, arity, rows))
        except (ValueError, GuardError) as exc:
            raise ParseError(f"relation {name!r}: {exc}") from None
        if rows != sorted(set(rows)):
            raise ParseError(f"relation {name!r}: rows are not in strictly ascending order")
    try:
        return ConstraintLanguage(tuple(relations))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_language(path: str | Path) -> ConstraintLanguage:
    return parse_language(Path(path).read_bytes().decode())


@dataclass(frozen=True)
class FormulaFile:
    """Parsed formula file: constraints plus the imported language."""

    formula: Formula
    language: ConstraintLanguage
    query: str | None
    lang_paths: tuple[str, ...]


def render_formula_file(doc: FormulaFile) -> str:
    lines = [f"lang {p}" for p in doc.lang_paths]
    lines.append(" ".join(("var", *doc.formula.universe)))
    for c in doc.formula.constraints:
        lines.append("c " + c.relation.name + " " + " ".join(c.vars))
    if doc.query is not None:
        lines.append(f"query {doc.query}")
    return "\n".join(lines) + "\n"


def parse_formula_file(text: str, base_dir: str | Path | None = None) -> FormulaFile:
    """Parse a formula file; ``lang`` imports resolve relative to base_dir."""
    sections = read_sections(text, "lang* var? c* query?")
    for tag in ("lang", "c", "query"):
        for lineno, fields in sections[tag]:
            if not fields or tag != "c" and len(fields) > 1:
                raise ParseError(f"line {lineno}: malformed {tag!r} line")
    lang_paths = tuple(fields[0] for _, fields in sections["lang"])
    universe = next((tuple(fields) for _, fields in sections["var"]), None)
    query = next((fields[0] for _, fields in sections["query"]), None)
    if not lang_paths:
        raise ParseError("formula file imports no relation language")
    merged = None
    for p in lang_paths:
        try:
            imported = load_language(Path(base_dir or ".") / p)
            merged = imported if merged is None else merged.union(imported)
        except (OSError, ValueError) as exc:
            raise ParseError(f"lang import {p!r}: {exc}") from None
    relations = {r.name: r for r in merged}
    constraints = []
    for lineno, fields in sections["c"]:
        if fields[0] not in relations:
            raise ParseError(f"line {lineno}: relation {fields[0]!r} is not defined")
        constraints.append(Constraint(relations[fields[0]], tuple(fields[1:])))
    try:
        formula = Formula.of(constraints, universe=universe)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if query is not None and query not in formula.universe:
        raise ParseError(f"query atom {query!r} is not in the universe")
    return FormulaFile(formula, merged, query, lang_paths)


def load_formula_file(path: str | Path) -> FormulaFile:
    p = Path(path)
    return parse_formula_file(p.read_bytes().decode(), base_dir=p.parent)
