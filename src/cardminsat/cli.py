"""Command-line front end.

Exit codes: 0 success, 2 parse/usage errors, 3 guard or fragment violations,
4 engine disagreement in ``verify``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .abduction import parse_pap, relevance_bruteforce
from .bruteforce import cms_bruteforce
from .coclones import CoCloneId, classify_cms, format_verdict, weak_base
from .errors import GuardError, NoSolutionError, ParseError, PreconditionError
from .fileio import (FormulaFile, load_formula_file, load_language, render_formula_file,
                     render_language, render_relation)
from .formulas import Formula
from .reductions import compose_chain
from .relations import ConstraintLanguage
from .solvers import (Engine, dispatch, oracle_budget, render_solve_report, solve_brute,
                      solve_generic, solve_horn, solve_width2affine)

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


def _cmd_classify(args: argparse.Namespace) -> int:
    language = load_language(args.file)
    sys.stdout.write(format_verdict(classify_cms(language)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    doc = load_formula_file(args.file)
    query = _query_of(doc, args.query)
    if args.engine == "auto":
        report = dispatch(doc.language, doc.formula, query)
    elif args.engine == "horn":
        report = solve_horn(doc.formula, query)
    elif args.engine == "w2a":
        report = solve_width2affine(doc.formula, query)
    elif args.engine == "generic":
        report = solve_generic(doc.formula, query)
    else:
        report = solve_brute(doc.formula, query)
    budget = oracle_budget(doc.formula.num_vars) if report.engine is Engine.GENERIC_ORACLE else None
    sys.stdout.write(render_solve_report(report, budget))
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
    lines = [f"reduction pipeline to {target}"]
    for step, out in zip(pipeline.steps, outputs):
        lines.append(f"  {step}: {out.formula.num_vars} vars, "
                     f"{out.formula.num_constraints} constraints")
    lines.append("")
    lines.append(f"target={target}")
    lines.append("steps=" + ",".join(pipeline.steps))
    lines.append(f"stages={len(outputs)}")
    lines.append(f"query={final.query}")
    lines.append(f"bound={final.bound if final.bound is not None else 'none'}")
    lines.append(f"fresh_vars={final.stats.fresh_var_count}")
    lines.append(f"boost_n={final.stats.boost_n if final.stats.boost_n is not None else 'none'}")
    offset = final.stats.declared_weight_offset
    lines.append(f"weight_offset={offset if offset is not None else 'none'}")
    lines.append(f"formula_file={cms_path}")
    lines.append(f"relation_file={rel_path}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = load_formula_file(args.file)
    query = _query_of(doc, args.query)
    # brute force first: its enumeration guard rejects oversized instances
    # before any engine is started
    brute = cms_bruteforce(doc.formula, query)
    engine_report = dispatch(doc.language, doc.formula, query)
    agree = engine_report.answer == brute
    sys.stdout.write(f"engine={engine_report.engine.value}\n")
    sys.stdout.write(f"engine_answer={'yes' if engine_report.answer.verdict else 'no'}\n")
    sys.stdout.write(f"brute_answer={'yes' if brute.verdict else 'no'}\n")
    sys.stdout.write(f"agree={'true' if agree else 'false'}\n")
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
        relevant = relevance_bruteforce(pap, args.hyp, args.semantics)
    except NoSolutionError:
        sys.stdout.write("no_solution=true\nrelevant=no\n")
        return EXIT_OK
    sys.stdout.write("no_solution=false\n")
    sys.stdout.write(f"relevant={'yes' if relevant else 'no'}\n")
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
