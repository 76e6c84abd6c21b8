"""Exact text formats for relations and formulas.

Relation file: repeated blocks of

    relation NAME k
    <k-character 0/1 row>
    ...
    <blank line>

Formula file: ``lang FILE`` import lines, an optional ``var x1 x2 ...``
universe line, one ``c NAME v1 ... vk`` line per constraint, and an optional
``query x`` line, in that order.  Single spaces and LF line endings only;
serializing a parsed file reproduces it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .formulas import Constraint, Formula
from .relations import ConstraintLanguage, Relation


def render_relation(rel: Relation) -> str:
    lines = [f"relation {rel.name} {rel.arity}"]
    lines.extend(rel.matrix_rows())
    lines.append("")
    return "\n".join(lines) + "\n"


def render_language(lang: ConstraintLanguage) -> str:
    return "".join(render_relation(r) for r in lang)


def parse_language(text: str) -> ConstraintLanguage:
    relations = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines):
        header = lines[i]
        parts = header.split(" ")
        if len(parts) != 3 or parts[0] != "relation" or " " in parts[1] + parts[2]:
            raise ParseError(f"line {i + 1}: expected 'relation NAME k', got {header!r}")
        name = parts[1]
        try:
            arity = int(parts[2])
        except ValueError:
            raise ParseError(f"line {i + 1}: bad arity {parts[2]!r}") from None
        i += 1
        rows = []
        while i < len(lines) and lines[i] != "":
            row = lines[i]
            if len(row) != arity or set(row) - {"0", "1"}:
                raise ParseError(f"line {i + 1}: bad matrix row {row!r} for arity {arity}")
            rows.append(row)
            i += 1
        if i >= len(lines):
            raise ParseError(f"relation {name!r} is not terminated by a blank line")
        i += 1  # the blank terminator
        try:
            relations.append(Relation.from_rows(name, arity, rows))
        except Exception as exc:
            raise ParseError(str(exc)) from None
    if not relations:
        raise ParseError("relation file defines no relations")
    try:
        return ConstraintLanguage(tuple(relations))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_language(path: str | Path) -> ConstraintLanguage:
    return parse_language(Path(path).read_text())


@dataclass(frozen=True)
class FormulaFile:
    """Parsed formula file: constraints plus the imported language."""

    formula: Formula
    language: ConstraintLanguage
    query: str | None
    lang_paths: tuple[str, ...]


def render_formula_file(doc: FormulaFile) -> str:
    lines = [f"lang {p}" for p in doc.lang_paths]
    lines.append("var " + " ".join(doc.formula.universe))
    for c in doc.formula.constraints:
        lines.append("c " + c.relation.name + " " + " ".join(c.vars))
    if doc.query is not None:
        lines.append(f"query {doc.query}")
    return "\n".join(lines) + "\n"


def parse_formula_file(text: str, base_dir: str | Path | None = None,
                       language: ConstraintLanguage | None = None) -> FormulaFile:
    """Parse a formula file; ``lang`` imports resolve relative to base_dir.

    A caller may instead supply the language directly, in which case the file
    needs no ``lang`` lines.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lang_paths: list[str] = []
    universe: tuple[str, ...] | None = None
    raw_constraints: list[tuple[str, tuple[str, ...], int]] = []
    query: str | None = None
    stage = 0  # 0: lang, 1: var, 2: constraints, 3: query, 4: done
    for lineno, line in enumerate(lines, start=1):
        if line == "" or line != line.strip() or "  " in line:
            raise ParseError(f"line {lineno}: malformed line {line!r}")
        parts = line.split(" ")
        tag = parts[0]
        if tag == "lang":
            if stage > 0 or len(parts) != 2:
                raise ParseError(f"line {lineno}: misplaced or malformed lang line")
            lang_paths.append(parts[1])
        elif tag == "var":
            if stage > 0 and universe is not None or stage > 1:
                raise ParseError(f"line {lineno}: misplaced var line")
            if len(parts) < 2:
                raise ParseError(f"line {lineno}: empty universe")
            universe = tuple(parts[1:])
            stage = 1
        elif tag == "c":
            if stage > 2:
                raise ParseError(f"line {lineno}: constraint after query line")
            if len(parts) < 3:
                raise ParseError(f"line {lineno}: constraint needs a name and variables")
            raw_constraints.append((parts[1], tuple(parts[2:]), lineno))
            stage = 2
        elif tag == "query":
            if stage > 2 or len(parts) != 2:
                raise ParseError(f"line {lineno}: misplaced or malformed query line")
            query = parts[1]
            stage = 3
        else:
            raise ParseError(f"line {lineno}: unknown line tag {tag!r}")
    base = Path(base_dir) if base_dir is not None else Path(".")
    merged = language
    for p in lang_paths:
        target = base / p
        if not target.is_file():
            raise ParseError(f"lang import {p!r} not found under {base}")
        imported = load_language(target)
        try:
            merged = imported if merged is None else merged.union(imported)
        except ValueError as exc:
            raise ParseError(f"lang import {p!r}: {exc}") from None
    if merged is None:
        raise ParseError("formula file imports no relation language")
    constraints = []
    for name, vs, lineno in raw_constraints:
        try:
            rel = merged.get(name)
        except KeyError:
            raise ParseError(f"line {lineno}: relation {name!r} is not defined") from None
        if len(vs) != rel.arity:
            raise ParseError(f"line {lineno}: {name} expects {rel.arity} variables, got {len(vs)}")
        constraints.append(Constraint(rel, vs))
    try:
        formula = Formula.of(constraints, universe=universe)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if query is not None and query not in formula.universe:
        raise ParseError(f"query atom {query!r} is not in the universe")
    return FormulaFile(formula, merged, query, tuple(lang_paths))


def load_formula_file(path: str | Path) -> FormulaFile:
    p = Path(path)
    return parse_formula_file(p.read_text(), base_dir=p.parent)
