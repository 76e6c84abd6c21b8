"""Command-line front end.

Exit codes: 0 success, 2 parse/usage errors, 3 guard or fragment violations,
4 engine disagreement in ``verify``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable

from .abduction import parse_pap, relevance_bruteforce
from .bruteforce import cms_bruteforce
from .coclones import CoCloneId, classify_cms, weak_base
from .errors import GuardError, NoSolutionError, ParseError, PreconditionError
from .fileio import (FormulaFile, load_formula_file, load_language, render_formula_file,
                     render_language, render_relation)
from .reductions import compose_chain
from .relations import ConstraintLanguage
from .solvers import (Engine, dispatch, oracle_budget, solve_brute, solve_generic, solve_horn,
                      solve_width2affine)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_DISAGREE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cardminsat",
                                     description="minimum-weight SAT toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify a relation-language file")
    p.add_argument("file")

    p = sub.add_parser("solve", help="answer a minimum-weight query")
    p.add_argument("file")
    p.add_argument("--query")
    p.add_argument("--engine", choices=("auto", "horn", "w2a", "generic", "brute"),
                   default="auto")

    p = sub.add_parser("reduce", help="run a hardness reduction chain")
    p.add_argument("file")
    p.add_argument("--query")
    p.add_argument("--target", required=True)
    p.add_argument("--width", type=int)
    p.add_argument("--out", required=True, help="prefix for the .rel/.cms output files")

    p = sub.add_parser("verify", help="compare the dispatched engine against brute force")
    p.add_argument("file")
    p.add_argument("--query")

    p = sub.add_parser("weakbase", help="print the minimal weak base of a co-clone")
    p.add_argument("tag")
    p.add_argument("--width", type=int)

    p = sub.add_parser("abduce", help="minimum-size-explanation relevance")
    p.add_argument("file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--semantics", choices=("cw", "pu"), default="cw")
    return parser


def _query_of(doc, override: str | None) -> str:
    query = override if override is not None else doc.query
    if query is None:
        raise ParseError("no query atom: none in the file and no --query given")
    if query not in doc.formula.universe:
        raise ParseError(f"query atom {query!r} is not in the universe")
    return query


def _report(pairs: dict[str, object], title: str | None = None,
            details: Iterable[str] = ()) -> None:
    """Write a report: the title, its indented detail lines and a blank line
    when there is a title, then one machine-readable key=value line per pair,
    with None as `none` and a bool as `true`/`false`."""
    lines = [] if title is None else [title, *(f"  {d}" for d in details), ""]
    for key, value in pairs.items():
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify_cms(load_language(args.file))
    fp = verdict.fingerprint
    flags = fp.flags()
    _report({"bucket": verdict.bucket.value, "coclone": verdict.coclone, **flags,
             **{f"width_positive_{k}": v for k, v in fp.pos_width},
             **{f"width_negative_{k}": v for k, v in fp.neg_width}},
            "classification report",
            (f"bucket: {verdict.bucket.value}", f"co-clone: {verdict.coclone}",
             "properties: " + ", ".join(k for k, v in flags.items() if v)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    doc = load_formula_file(args.file)
    formula, query = doc.formula, _query_of(doc, args.query)
    # the engines are looked up when called, so a wrapper set on this module's
    # attribute (as the benchmark tracer does) is the one run
    engines = {
        "auto": lambda: dispatch(doc.language, formula, query),
        "horn": lambda: solve_horn(formula, query),
        "w2a": lambda: solve_width2affine(formula, query),
        "generic": lambda: solve_generic(formula, query),
        "brute": lambda: solve_brute(formula, query),
    }
    report = engines[args.engine]()
    a = report.answer
    verdict = "yes" if a.verdict else "no"
    details = [f"engine: {report.engine.value}", f"answer: {verdict} ({a.reason})"]
    if a.min_weight is not None:
        details.append(f"minimum model weight: {a.min_weight}")
    if a.witness is not None:
        details.append(f"witness: {a.witness}")
    pairs = {"engine": report.engine.value, "verdict": verdict, "reason": a.reason,
             "min_weight": a.min_weight, "witness": a.witness, "oracle_calls": report.oracle_calls}
    if report.engine is Engine.GENERIC_ORACLE:
        pairs["oracle_budget"] = oracle_budget(formula.num_vars)
    _report(pairs, "solve report", details)
    return EXIT_OK


def _parse_target(tag: str, width: int | None) -> CoCloneId:
    try:
        return CoCloneId(tag, width)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _cmd_reduce(args: argparse.Namespace) -> int:
    doc = load_formula_file(args.file)
    query = _query_of(doc, args.query)
    target = _parse_target(args.target, args.width)
    pipeline = compose_chain(target)
    outputs = pipeline.run(doc.formula, query)
    final = outputs[-1]
    out_prefix = Path(args.out)
    rel_path = out_prefix.with_suffix(".rel")
    cms_path = out_prefix.with_suffix(".cms")
    language = ConstraintLanguage.of(weak_base(target))  # the one relation every final stage uses
    rel_path.write_text(render_language(language))
    out_doc = FormulaFile(final.formula, language, final.query, (rel_path.name,))
    cms_path.write_text(render_formula_file(out_doc))
    _report({"target": target, "steps": ",".join(pipeline.steps), "stages": len(outputs),
             "query": final.query, "bound": final.bound, "fresh_vars": final.stats.fresh_var_count,
             "boost_n": final.stats.boost_n, "weight_offset": final.stats.declared_weight_offset,
             "formula_file": cms_path, "relation_file": rel_path},
            f"reduction pipeline to {target}",
            (f"{step}: {out.formula.num_vars} vars, {out.formula.num_constraints} constraints"
             for step, out in zip(pipeline.steps, outputs)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = load_formula_file(args.file)
    query = _query_of(doc, args.query)
    # brute force first: its enumeration guard rejects oversized instances
    # before any engine is started
    brute = cms_bruteforce(doc.formula, query)
    engine_report = dispatch(doc.language, doc.formula, query)
    agree = engine_report.answer == brute
    _report({"engine": engine_report.engine.value,
             "engine_answer": "yes" if engine_report.answer.verdict else "no",
             "brute_answer": "yes" if brute.verdict else "no", "agree": agree})
    return EXIT_OK if agree else EXIT_DISAGREE


def _cmd_weakbase(args: argparse.Namespace) -> int:
    target = _parse_target(args.tag, args.width)
    sys.stdout.write(render_relation(weak_base(target)))
    return EXIT_OK


def _cmd_abduce(args: argparse.Namespace) -> int:
    pap = parse_pap(Path(args.file).read_text())
    if args.hyp not in pap.hypotheses:
        raise ParseError(f"{args.hyp!r} is not a hypothesis of the instance")
    try:
        relevant, no_solution = relevance_bruteforce(pap, args.hyp, args.semantics), False
    except NoSolutionError:
        relevant, no_solution = False, True
    _report({"no_solution": no_solution, "relevant": "yes" if relevant else "no"})
    return EXIT_OK


_HANDLERS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "weakbase": _cmd_weakbase,
    "abduce": _cmd_abduce,
}


# Built once per process: parsing leaves the parser unchanged, and argparse
# looks up sys.stdout/sys.stderr at the time it prints.
_PARSER = _build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.verb](args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GuardError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
