"""Spans around the program's public functions, for the traced run.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces each
target function with a wrapper in every cardminsat module that binds it, so
names imported elsewhere (``cli.dispatch``, ``solvers.classify_cms``, ...)
are counted too.  A span records its name, start, end and parent span;
spans stay in memory until the run writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, function, span name); several functions may share a span name
TARGETS = (
    ("fileio", "load_formula_file", "fileio.load"),
    ("fileio", "load_language", "fileio.load"),
    ("abduction", "parse_pap", "fileio.load"),
    ("formulas", "Formula.of", "formulas.build"),
    ("solvers", "dispatch", "solvers.dispatch"),
    ("solvers", "solve_horn", "solvers.horn"),
    ("solvers", "solve_width2affine", "solvers.w2a"),
    ("solvers", "solve_generic", "solvers.generic"),
    ("search", "sat_leq", "search.sat_leq"),
    ("search", "find_model", "search.find_model"),
    ("reductions", "reduce_or2_to_nae3", "reductions.or2_to_nae3"),
    ("reductions", "reduce_nae3_to_xor3_star", "reductions.nae3_to_xor3_star"),
    ("reductions", "reduce_xor3_star_to_xor4", "reductions.xor3_star_to_xor4"),
    ("reductions", "reduce_xor4_to_xor3_xor2", "reductions.xor4_to_xor3_xor2"),
    ("reductions", "reduce_xor3xor2_to_xor3", "reductions.xor3xor2_to_xor3"),
    ("reductions", "reduce_to_weakbase", "reductions.to_weakbase"),
    ("gauss", "formula_system", "gauss.formula_system"),
    ("gauss", "cms_affine", "gauss.cms_affine"),
    ("gauss", "affine_parity_checks", "gauss.affine_checks"),
    ("gauss", "gauss_solve", "gauss.gauss_solve"),
    ("coclones", "classify_cms", "coclones.classify_cms"),
    ("classify", "fingerprint", "classify.fingerprint"),
    ("coclones", "identify_coclone", "coclones.identify_coclone"),
    ("classify", "closed_under", "classify.closed_under"),
    ("classify", "saturated_models", "classify.saturated_models"),
    ("abduction", "relevance_bruteforce", "abduction.relevance"),
    ("abduction", "is_solution", "abduction.is_solution"),
    ("bruteforce", "cms_bruteforce", "bruteforce.cms_bruteforce"),
    ("cli", "run", "cli.run"),
)

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Per-layer metrics as BENCHMARK.json lists them: name -> unit.  Times are
# seconds per round, counts are per round; the two fileio metrics cover the
# set-up's loading only.
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name, self.start, self.end, self.parent, self.note = name, start, 0.0, parent, None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _loaded(args, out) -> dict:
    if hasattr(out, "formula"):
        return {"constraints": out.formula.num_constraints}
    return {"constraints": len(getattr(out, "theory", ()))}  # a language loads none


def _notes(P) -> dict:
    """Facts read off a call's arguments and result, outside its span."""
    return {
        "fileio.load": _loaded,
        "solvers.generic": lambda args, out: {
            "oracle_calls": out.oracle_calls,
            "budget": P.solvers.oracle_budget(args[0].num_vars)},
        "reductions.to_weakbase": lambda args, out: {
            "vars": out.formula.num_vars, "constraints": out.formula.num_constraints},
        "gauss.formula_system": lambda args, out: {
            "free_dim": 0 if out is None else len(out.free_slot_bits())},
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.note = {"error": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, out)
            return out

        return traced

    def install(self, P) -> None:
        notes = _notes(P)
        modules = [m for n, m in sys.modules.items()
                   if n == "cardminsat" or n.startswith("cardminsat.")]
        for mod_name, attr, name in TARGETS:
            mod = getattr(P, mod_name)
            if attr == "Formula.of":
                cls = mod.Formula
                cls.of = classmethod(self._wrap(name, cls.of.__func__, None))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, notes.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": ids[id(s.parent)] if s.parent is not None else None}
                if s.note is not None:
                    rec["note"] = s.note
                fh.write(json.dumps(rec) + "\n")


SEARCH = ("search.sat_leq", "search.find_model")


def outermost(spans) -> dict[str, list[Span]]:
    """Spans by name, keeping those with no ancestor of the same name (for
    the search functions: of either name, so find_model calls made by
    sat_leq are left out)."""
    out: dict[str, list[Span]] = {}
    for s in spans:
        group = SEARCH if s.name in SEARCH else (s.name,)
        p = s.parent
        while p is not None and p.name not in group:
            p = p.parent
        if p is None:
            out.setdefault(s.name, []).append(s)
    return out


def self_time(spans) -> dict[str, float]:
    """Each span's duration minus the durations of its direct children,
    summed by name."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.seconds
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.seconds - child.get(id(s), 0.0)
    return out


def check_oracle_calls(spans) -> list[str]:
    """Each solve_generic's reported oracle_calls equals the top-level
    search calls seen under it, and stays within oracle_budget(n)."""
    under: dict[int, int] = {}
    top = outermost(spans)
    for s in top.get(SEARCH[0], []) + top.get(SEARCH[1], []):
        p = s.parent
        while p is not None and p.name != "solvers.generic":
            p = p.parent
        if p is not None:
            under[id(p)] = under.get(id(p), 0) + 1
    problems = []
    for s in spans:
        if s.name != "solvers.generic" or s.note is None or "error" in s.note:
            continue
        calls, budget, seen = s.note["oracle_calls"], s.note["budget"], under.get(id(s), 0)
        if calls != seen:
            problems.append(f"solve_generic reported {calls} oracle calls, wrappers saw {seen}")
        if calls > budget:
            problems.append(f"solve_generic used {calls} oracle calls, budget {budget}")
    return problems


def per_layer(setup_spans, timed_spans, rounds: int) -> dict[str, float]:
    """Every per-layer metric: the set-up's loading, then per-round figures
    of the timed rounds.  ``_s`` is the inclusive time of the outermost
    spans of that name, ``_calls`` counts them, ``_self_s`` is self time."""
    loads = outermost(setup_spans).get("fileio.load", [])
    out = {"fileio.load_s": sum(s.seconds for s in loads),
           "fileio.constraints_loaded": sum(s.note["constraints"] for s in loads if s.note)}
    selfs = self_time(timed_spans)
    top = outermost(timed_spans)

    def notes(name: str, key: str) -> list:
        return [s.note[key] for s in timed_spans
                if s.name == name and s.note is not None and key in s.note]

    per_round = {"solvers.oracle_calls": sum(notes("solvers.generic", "oracle_calls")),
                 "solvers.oracle_budget": sum(notes("solvers.generic", "budget")),
                 "reductions.final_vars": sum(notes("reductions.to_weakbase", "vars")),
                 "reductions.final_constraints": sum(notes("reductions.to_weakbase", "constraints"))}
    for metric in PER_LAYER:
        if metric in out or metric in per_round or metric == "gauss.free_dim_max":
            continue
        span, kind = metric.rsplit("_", 1)
        if span.endswith("_self"):
            per_round[metric] = selfs.get(span[:-len("_self")], 0.0)
            continue
        found = top.get(span, [])
        per_round[metric] = len(found) if kind == "calls" else sum(s.seconds for s in found)
    out.update({k: v / rounds for k, v in per_round.items()})
    out["gauss.free_dim_max"] = max(notes("gauss.formula_system", "free_dim"), default=0)
    return out
