"""The four workloads: their input files, how the program loads them, the
operations of one round, and the check of every operation's output.

Each workload is a class with three steps, called in this order by run.py:

- ``write(workdir)`` writes the seeded inputs as .rel/.cms/.pap files;
  it runs before the program is imported.
- ``load(P, workdir)`` reads them through the program (timed as set-up).
- ``ops(P)`` returns the operations of one round, each with the check of
  its output against reference.py, computed once beforehand.

``P`` is a namespace of the program's modules.  Operations look functions
up on those modules at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import reference


class Mismatch(AssertionError):
    """An output of the program disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Op:
    """One operation: ``call()`` returns the output that ``check`` verifies.

    ``known_fault`` names the exception a known defect makes this operation
    raise every time; the run counts it as failed instead of stopping.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_fault: type | None = None


def check_answer(inst: gen.Instance, answer, expected, exact_witness: bool) -> None:
    """Verdict and minimum weight equal the reference; on a yes, the witness
    is present, satisfies the formula under reference.satisfies, has the reported weight and sets
    the query to 1 (and equals the reference witness when asked)."""
    verdict, weight, witness = expected
    got = (answer.verdict, answer.min_weight)
    expect(got == (verdict, weight), f"{inst.name}: answer {got}, reference {(verdict, weight)}")
    if not verdict:
        return
    expect(answer.witness is not None, f"{inst.name}: yes without a witness")
    values = tuple(answer.witness.values)
    expect(tuple(answer.witness.vars) == inst.universe, f"{inst.name}: witness over another universe")
    expect(reference.satisfies(inst.plain(), dict(zip(inst.universe, values))),
           f"{inst.name}: witness is not a model")
    expect(sum(values) == weight, f"{inst.name}: witness weight {sum(values)} != {weight}")
    expect(values[inst.universe.index(inst.query)] == 1, f"{inst.name}: witness sets the query to 0")
    if exact_witness:
        expect(values == witness, f"{inst.name}: witness differs from the reference")


class FormulaFiles:
    """A workload whose inputs are relation files plus one formula file
    per instance; ``generate(seed)`` gives both."""

    def __init__(self, seed: int):
        self.langs, self.insts = self.generate(seed)

    def write(self, workdir: Path) -> None:
        for fname, rels in self.langs.items():
            (workdir / fname).write_text(gen.language_text(rels))
        for inst in self.insts:
            (workdir / f"{inst.name}.cms").write_text(inst.text())

    def load(self, P, workdir: Path) -> None:
        self.docs = [P.fileio.load_formula_file(workdir / f"{i.name}.cms") for i in self.insts]


class Dispatched(FormulaFiles):
    """solvers.dispatch on every formula; ``expected(inst)`` gives the
    reference answer and whether the witness must equal its witness."""

    def ops(self, P) -> list[Op]:
        out = []
        for inst, doc in zip(self.insts, self.docs):
            expected, exact = self.expected(inst)

            def call(doc=doc, q=inst.query):
                return P.solvers.dispatch(doc.language, doc.formula, q)

            def check(report, inst=inst, expected=expected, exact=exact):
                check_answer(inst, report.answer, expected, exact)

            fault = RecursionError if inst.kind.startswith("d2_") else None
            out.append(Op(inst.name, call, check, fault))
        return out


class HornW2A(Dispatched):
    generate = staticmethod(gen.horn_w2a)

    def expected(self, inst: gen.Instance):
        if inst.lang == "horn.rel":
            facts, imps, negs = [], [], []
            for rel, vs in inst.constraints:
                if rel is gen.T:
                    facts.append(vs[0])
                elif rel is gen.IMPL:
                    imps.append(vs)
                else:  # F and NAND2: not all of these are true
                    negs.append(vs)
            return reference.horn_answer(inst.universe, facts, imps, negs, inst.query), True
        units, edges = [], []
        for rel, vs in inst.constraints:
            if rel.arity == 1:
                units.append((vs[0], int(rel is gen.T)))
            else:
                edges.append((vs[0], vs[1], int(rel is gen.NEQ)))
        return reference.w2a_answer(inst.universe, units, edges, inst.query), True


class Theta2Generic(Dispatched):
    generate = staticmethod(gen.theta2_generic)

    def expected(self, inst: gen.Instance):
        if inst.kind == "bipartite":
            verdict, weight = reference.bipartite_cover_answer(inst.meta["left"],
                                                               inst.meta["edges"], inst.query)
        elif inst.kind == "or2_path":
            verdict, weight = reference.path_cover_answer(inst.meta["n"], inst.meta["index"])
        elif inst.kind == "or2_cycle":
            verdict, weight = reference.cycle_cover_answer(inst.meta["n"], inst.meta["index"])
        elif inst.kind == "d2_or2_wide":
            # one clause on the first two variables; the rest stay 0
            verdict, weight = reference.path_cover_answer(2, 0)
        else:
            return reference.enumerate_answer(inst.universe, inst.plain(), inst.query), False
        return (verdict, weight, None), False


class IL2Chain(FormulaFiles):
    """compose_chain(IL2).run on positive 2-clause sources, then the exact
    affine check of the final stage."""

    generate = staticmethod(gen.il2_chain)

    def ops(self, P) -> list[Op]:
        out = []
        for inst, doc in zip(self.insts, self.docs):
            verdict = reference.enumerate_answer(inst.universe, inst.plain(), inst.query)[0]

            def call(doc=doc, q=inst.query):
                pipeline = P.reductions.compose_chain(P.coclones.CoCloneId("IL2"))
                final = pipeline.run(doc.formula, q)[-1]
                return P.gauss.cms_affine(final.formula, final.query)

            def check(result, name=inst.name, verdict=verdict):
                expect(result is not None and result[0], f"{name}: final stage not satisfiable")
                expect(result[2] == verdict, f"{name}: chain verdict {result[2]}, source {verdict}")

            out.append(Op(inst.name, call, check))
        return out


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class SmallRequests:
    """In-process cli.run calls on many small files: classify, verify and
    abduce, in a fixed mix."""

    def __init__(self, seed: int):
        self.rels, self.formulas, self.abductions = gen.small_requests(seed)

    def write(self, workdir: Path) -> None:
        self.workdir = workdir
        for rel in self.rels:
            (workdir / f"{rel.name}.rel").write_text(rel.text())
        for inst in self.formulas:
            (workdir / f"{inst.name}.cms").write_text(inst.text())
        for ab in self.abductions:
            (workdir / f"{ab.name}.pap").write_text(ab.text())

    def load(self, P, workdir: Path) -> None:
        self.languages = [P.fileio.load_language(workdir / f"{r.name}.rel") for r in self.rels]
        self.docs = [P.fileio.load_formula_file(workdir / f"{f.name}.cms") for f in self.formulas]
        self.paps = [P.abduction.parse_pap((workdir / f"{a.name}.pap").read_text())
                     for a in self.abductions]

    def _cli(self, P, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = P.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def _check_pap_text(self, P) -> None:
        """The .pap files are the program's own relevance rewriting."""
        xor3 = P.relations.build_named_relation("XOR", 3)
        for ab in self.abductions:
            src = ab.source
            formula = P.formulas.Formula.of(
                [P.formulas.constraint(xor3, *vs) for _, vs in src.constraints], src.universe)
            pap, _ = P.abduction.reduce_cms_xor3_to_relevance(formula, src.query)
            expect(P.abduction.render_pap(pap) == ab.text(), f"{ab.name}: rewriting differs")

    def ops(self, P) -> list[Op]:
        self._check_pap_text(P)
        wd = self.workdir
        out = []

        def cli_op(name, argv, check):
            def checked(result):
                code, text, err = result
                expect(code == 0, f"{name}: exit {code}: {err.strip()}")
                check(_key_values(text))
            out.append(Op(name, lambda: self._cli(P, argv), checked))

        for rel, inst in zip(self.rels, self.formulas):
            flags = reference.relation_flags(rel.tuples, rel.arity)
            want = {k: "true" if v else "false" for k, v in flags.items()}
            want["bucket"] = reference.bucket_of(flags)

            def check_classify(kv, want=want, name=rel.name):
                got = {k: kv.get(k) for k in want}
                expect(got == want, f"classify {name}: {got} != {want}")

            cli_op(f"classify {rel.name}", ["classify", str(wd / f"{rel.name}.rel")], check_classify)
            verdict = reference.enumerate_answer(inst.universe, inst.plain(), inst.query)[0]
            answer = "yes" if verdict else "no"

            def check_verify(kv, answer=answer, name=inst.name):
                got = (kv.get("engine_answer"), kv.get("brute_answer"), kv.get("agree"))
                expect(got == (answer, answer, "true"), f"verify {name}: {got}, reference {answer}")

            cli_op(f"verify {inst.name}", ["verify", str(wd / f"{inst.name}.cms")], check_verify)
        for ab in self.abductions:
            src = ab.source
            verdict, weight, _ = reference.enumerate_answer(src.universe, src.plain(), src.query)
            want = ("true", "no") if weight is None else ("false", "yes" if verdict else "no")

            def check_abduce(kv, want=want, name=ab.name):
                got = (kv.get("no_solution"), kv.get("relevant"))
                expect(got == want, f"abduce {name}: {got} != {want}")

            cli_op(f"abduce {ab.name}",
                   ["abduce", str(wd / f"{ab.name}.pap"), "--hyp", src.query], check_abduce)
        return out


WORKLOADS = {
    "horn_w2a": HornW2A,
    "theta2_generic": Theta2Generic,
    "il2_chain": IL2Chain,
    "small_requests": SmallRequests,
}
