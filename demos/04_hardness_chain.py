#!/usr/bin/env python3
"""Run the full hardness pipeline from positive 2-clauses down to the
8-ary affine weak base, checking the answer after every stage.

Each stage is answer-preserving: boost blocks price unwanted values out of
every minimum-weight model, and neutralizer pairs pin the weight of the
fresh variables.  The final stages are pure parity systems, so an exact
solution-space sweep verifies them even at hundreds of thousands of
variables.
"""

from cardminsat import (CoCloneId, Formula, build_named_relation, cms_affine, cms_bruteforce,
                        compose_chain, constraint, is_affine)

or2 = build_named_relation("OR", 2)
source = Formula.of([constraint(or2, "a", "b"), constraint(or2, "b", "c")])
query = "a"
expected = cms_bruteforce(source, query)
print(f"source: {[str(c) for c in source.constraints]}, query {query!r}")
print(f"  verdict {expected.verdict}, min weight {expected.min_weight}\n")

pipeline = compose_chain(CoCloneId("IL2"))
print("pipeline:", " -> ".join(pipeline.steps), "\n")

for step, out in zip(pipeline.steps, pipeline.run(source, query)):
    formula = out.formula
    if all(is_affine(rel) for rel in formula.relations()):
        sat, mw, verdict = cms_affine(formula, out.query)
    else:
        sat, mw, verdict = cms_bruteforce(formula, out.query).key()
    answer = verdict and (out.bound is None or mw <= out.bound)
    bound = f" bound {out.bound}" if out.bound is not None else ""
    assert answer == expected.verdict
    print(f"{step:<22} {formula.num_vars:>6} vars {formula.num_constraints:>6} constraints"
          f"{bound}  min weight {mw}  answer preserved: {answer == expected.verdict}")
