"""Seeded input generators and the text formats the program reads.

A relation is ``Rel(name, arity, tuples)``; an instance is a formula over
named relations plus a query.  The same seed always gives the same inputs.
Nothing here imports cardminsat: the files are written before the program
is imported, and the plain data also feeds reference.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product


@dataclass(frozen=True)
class Rel:
    name: str
    arity: int
    tuples: frozenset

    def text(self) -> str:
        rows = sorted("".join(map(str, t)) for t in self.tuples)
        return "\n".join([f"relation {self.name} {self.arity}"] + rows + [""]) + "\n"


def _rel(name: str, arity: int, pred) -> Rel:
    return Rel(name, arity, frozenset(t for t in product((0, 1), repeat=arity) if pred(*t)))


T = _rel("T", 1, lambda a: a == 1)
F = _rel("F", 1, lambda a: a == 0)
IMPL = _rel("IMPL", 2, lambda a, b: a <= b)
NAND2 = _rel("NAND2", 2, lambda a, b: not (a and b))
EQ = _rel("EQ", 2, lambda a, b: a == b)
NEQ = _rel("NEQ", 2, lambda a, b: a != b)
OR2 = _rel("OR2", 2, lambda a, b: a or b)
XOR3 = _rel("XOR3", 3, lambda a, b, c: (a + b + c) % 2 == 1)
NAE3 = _rel("NAE3", 3, lambda a, b, c: not (a == b == c))


@dataclass
class Instance:
    """One formula file: a universe, constraints ``(Rel, vars)`` and a query.

    ``kind`` names the generator; ``meta`` holds what the reference needs
    beyond the formula (e.g. a path's length).
    """

    name: str
    kind: str
    lang: str  # relation file the formula imports
    universe: tuple
    constraints: list
    query: str
    meta: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [f"lang {self.lang}", "var " + " ".join(self.universe)]
        lines += ["c " + rel.name + " " + " ".join(vs) for rel, vs in self.constraints]
        lines.append(f"query {self.query}")
        return "\n".join(lines) + "\n"

    def plain(self):
        """The formula as reference.py takes it: (tuples, vars) pairs."""
        return [(rel.tuples, vs) for rel, vs in self.constraints]


def language_text(rels) -> str:
    return "".join(r.text() for r in rels)


# ---------------------------------------------------------------------------
# horn_w2a
# ---------------------------------------------------------------------------

HORN_LANG = (T, F, IMPL, NAND2)
W2A_LANG = (T, F, EQ, NEQ)
HORN_CHAIN_SIZES = (300, 350)
RANDOM_HORN = 4            # formulas per round, the last one unsatisfiable
RANDOM_HORN_VARS = 1500
W2A_GRAPHS = (60000, 60000, 60000)
D2_EQ_CHAIN = 2000


def horn_chain(name: str, n: int, rng: random.Random) -> Instance:
    """T(x0) plus IMPL(x_i, x_{i+1}) listed from the far end backwards, so
    each propagation pass over the list moves the fixpoint one link."""
    vs = [f"x{i}" for i in range(n)]
    cons = [(T, (vs[0],))] + [(IMPL, (vs[i], vs[i + 1])) for i in reversed(range(n - 1))]
    return Instance(name, "horn_chain", "horn.rel", tuple(vs), cons, rng.choice(vs), {"n": n})


def random_horn(name: str, n: int, rng: random.Random, unsat: bool) -> Instance:
    """Random implications, a few facts, and negative clauses placed so
    the formula stays satisfiable (or is made unsatisfiable on purpose)."""
    vs = [f"h{i}" for i in range(n)]
    facts = rng.sample(vs, 5)
    imps = [tuple(rng.sample(vs, 2)) for _ in range(2 * n)]
    true = set(facts)
    changed = True
    while changed:
        changed = False
        for a, b in imps:
            if a in true and b not in true:
                true.add(b)
                changed = True
    false = [v for v in vs if v not in true]
    cons = [(T, (v,)) for v in facts] + [(IMPL, p) for p in imps]
    for _ in range(n // 10):
        a = rng.choice(false)
        cons.append((NAND2, (a, rng.choice(vs))))
        cons.append((F, (rng.choice(false),)))
    if unsat:
        cons.append((NAND2, tuple(rng.sample(sorted(true), 2))))
    rng.shuffle(cons)
    return Instance(name, "random_horn", "horn.rel", tuple(vs), cons, rng.choice(vs))


def planted_w2a(name: str, n: int, rng: random.Random) -> Instance:
    """EQ/NEQ edges consistent with a planted assignment: a random forest
    of a few components, extra cycle-closing edges, and some T/F units."""
    vs = [f"w{i}" for i in range(n)]
    planted = [rng.randint(0, 1) for _ in range(n)]
    cons = []

    def edge(i: int, j: int) -> None:
        cons.append((EQ if planted[i] == planted[j] else NEQ, (vs[i], vs[j])))

    roots = [0]
    for i in range(1, n):
        if rng.random() < 0.001:
            roots.append(i)
        else:
            edge(i, rng.randrange(roots[-1], i) if rng.random() < 0.5 else rng.randrange(i))
    for _ in range(n // 4):
        i, j = rng.sample(range(n), 2)
        edge(i, j)
    for _ in range(8):
        i = rng.randrange(n)
        cons.append((T if planted[i] else F, (vs[i],)))
    rng.shuffle(cons)
    return Instance(name, "planted_w2a", "w2a.rel", tuple(vs), cons, rng.choice(vs))


def eq_chain_d2() -> Instance:
    """EQ(e_{i+1}, e_i) for i < 1999 and T(e_1999): deep enough that the
    recursive parity union-find overflows the interpreter stack."""
    vs = [f"e{i}" for i in range(D2_EQ_CHAIN)]
    cons = [(EQ, (vs[i + 1], vs[i])) for i in range(D2_EQ_CHAIN - 1)] + [(T, (vs[-1],))]
    return Instance("d2_eq_chain", "d2_eq_chain", "w2a.rel", tuple(vs), cons, vs[0])


def horn_w2a(seed: int) -> tuple[dict, list[Instance]]:
    rng = random.Random(f"horn_w2a:{seed}")
    insts = [horn_chain(f"chain{n}", n, rng) for n in HORN_CHAIN_SIZES]
    insts += [random_horn(f"rhorn{i}", RANDOM_HORN_VARS, rng, unsat=(i == RANDOM_HORN - 1))
              for i in range(RANDOM_HORN)]
    insts += [planted_w2a(f"w2a{i}", n, rng) for i, n in enumerate(W2A_GRAPHS)]
    insts.append(eq_chain_d2())
    return {"horn.rel": HORN_LANG, "w2a.rel": W2A_LANG}, insts


# ---------------------------------------------------------------------------
# theta2_generic
# ---------------------------------------------------------------------------

MIX_LANG = (NAND2, XOR3, NAE3, T, F)
BIPARTITE = 40             # graphs per round
BIPARTITE_SHAPE = (12, 12, 28)  # left, right, edges
PATHS = (200, 251, 300)
CYCLES = (200, 251)
MIXES = 60
MIX_VARS = 12
D2_UNIVERSE = 1100


def bipartite(name: str, rng: random.Random) -> Instance:
    nl, nr, m = BIPARTITE_SHAPE
    edges: set[tuple[str, str]] = set()
    while len(edges) < m:
        edges.add((f"l{rng.randrange(nl)}", f"r{rng.randrange(nr)}"))
    order = sorted(edges)
    rng.shuffle(order)
    left = sorted({u for u, _ in order}, key=lambda v: int(v[1:]))
    right = sorted({v for _, v in order}, key=lambda v: int(v[1:]))
    cons = [(OR2, e) for e in order]
    universe = tuple(left + right)
    return Instance(name, "bipartite", "or2.rel", universe, cons, rng.choice(universe),
                    {"left": left, "edges": order})


def or2_ring(name: str, n: int, cycle: bool, rng: random.Random) -> Instance:
    vs = [f"p{i}" for i in range(n)]
    cons = [(OR2, (vs[i], vs[i + 1])) for i in range(n - 1)]
    if cycle:
        cons.append((OR2, (vs[-1], vs[0])))
    index = rng.randrange(n)
    kind = "or2_cycle" if cycle else "or2_path"
    return Instance(name, kind, "or2.rel", tuple(vs), cons, vs[index], {"n": n, "index": index})


def mix(name: str, rng: random.Random) -> Instance:
    vs = [f"m{i}" for i in range(MIX_VARS)]
    cons = []
    for _ in range(MIX_VARS - 2):
        rel = rng.choice((NAND2, XOR3, NAE3))
        cons.append((rel, tuple(rng.sample(vs, rel.arity))))
    cons.append((T, (rng.choice(vs),)))
    cons.append((F, (rng.choice(vs),)))
    rng.shuffle(cons)
    return Instance(name, "mix", "mix.rel", tuple(vs), cons, rng.choice(vs))


def or2_wide_d2() -> Instance:
    """One OR2 clause in a 1100-variable universe: the recursive search
    uses one stack frame per branching variable."""
    vs = tuple(f"u{i}" for i in range(D2_UNIVERSE))
    return Instance("d2_or2_wide", "d2_or2_wide", "or2.rel", vs, [(OR2, (vs[0], vs[1]))], vs[0])


def theta2_generic(seed: int) -> tuple[dict, list[Instance]]:
    rng = random.Random(f"theta2_generic:{seed}")
    insts = [bipartite(f"bip{i}", rng) for i in range(BIPARTITE)]
    insts += [or2_ring(f"path{n}", n, False, rng) for n in PATHS]
    insts += [or2_ring(f"cycle{n}", n, True, rng) for n in CYCLES]
    insts += [mix(f"mix{i}", rng) for i in range(MIXES)]
    insts.append(or2_wide_d2())
    return {"or2.rel": (OR2,), "mix.rel": MIX_LANG}, insts


# ---------------------------------------------------------------------------
# il2_chain
# ---------------------------------------------------------------------------

CHAIN_SHAPES = ((2, 1), (3, 1), (3, 2))  # (variables, clauses) of each source


def or2_source(name: str, n: int, m: int, rng: random.Random) -> Instance:
    vs = [f"s{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    cons = [(OR2, p) for p in rng.sample(pairs, m)]
    return Instance(name, "or2_source", "or2.rel", tuple(vs), cons, rng.choice(vs))


def il2_chain(seed: int) -> tuple[dict, list[Instance]]:
    rng = random.Random(f"il2_chain:{seed}")
    insts = [or2_source(f"src{n}x{m}", n, m, rng) for n, m in CHAIN_SHAPES]
    return {"or2.rel": (OR2,)}, insts


# ---------------------------------------------------------------------------
# small_requests
# ---------------------------------------------------------------------------

REQUEST_ARITIES = (4, 5, 6, 7, 8)  # per round: two relations per family and arity
REQUEST_ABDUCTIONS = 16
FAMILIES = ("trivial", "horn", "w2a", "theta2")


def _tuples_of_ints(rows, k: int) -> frozenset:
    return frozenset(tuple((r >> (k - 1 - i)) & 1 for i in range(k)) for r in rows)


def family_relation(name: str, family: str, k: int, rng: random.Random) -> Rel:
    """A fresh relation of arity k drawn from the family of one bucket.

    trivial: random tuples plus the all-zero tuple; horn: the AND-closure
    of random tuples sharing a coordinate fixed to 1; w2a: the solutions of
    EQ/NEQ trees over at most three blocks of coordinates, with a NEQ in
    the first block; theta2: random tuples without the all-zero one.
    """
    full = (1 << k) - 1
    if family == "trivial":
        rows = {0} | {rng.randrange(1, full + 1) for _ in range(rng.randint(3, 12))}
    elif family == "horn":
        top = 1 << rng.randrange(k)
        rows = {rng.randrange(full + 1) | top for _ in range(rng.randint(3, 6))}
        while True:
            grown = rows | {a & b for a in rows for b in rows}
            if grown == rows:
                break
            rows = grown
    elif family == "w2a":
        coords = list(range(k))
        rng.shuffle(coords)
        cuts = sorted(rng.sample(range(1, k), 2))
        choices = []  # per block of coordinates: the values it may take
        for b, block in enumerate((coords[:cuts[0]], coords[cuts[0]:cuts[1]], coords[cuts[1]:])):
            bits = [1 << (k - 1 - c) for c in block]
            if b == 0 and len(bits) == 1:
                choices.append((bits[0],))  # a T unit
                continue
            side = sum(bit for pos, bit in enumerate(bits)
                       if pos and ((b == 0 and pos == len(bits) - 1) or rng.random() < 0.4))
            choices.append((side, side ^ sum(bits)))
        rows = {a | b | c for a, b, c in product(*choices)}
    else:
        rows = {rng.randrange(1, full + 1) for _ in range(rng.randint(3, 12))}
    return Rel(name, k, _tuples_of_ints(rows, k))


def relation_formula(name: str, rel: Rel, rng: random.Random) -> Instance:
    n = rng.randint(10, 14)
    vs = [f"y{i}" for i in range(n)]
    cons = [(rel, tuple(rng.sample(vs, rel.arity))) for _ in range(rng.randint(2, 4))]
    used = {v for _, c in cons for v in c}
    universe = tuple(v for v in vs if v in used)
    return Instance(name, "verify", f"{rel.name}.rel", universe, cons, rng.choice(universe))


@dataclass
class Abduction:
    """A ternary-parity formula and its relevance rewriting, as the
    program's reduce_cms_xor3_to_relevance builds it: one goal variable
    per constraint, each a manifestation tied to it by an even parity."""

    name: str
    source: Instance

    def text(self) -> str:
        src = self.source
        goals = tuple(f"_g{i}" for i in range(1, len(src.constraints) + 1))
        lines = ["vars " + " ".join(src.universe + goals), "hyp " + " ".join(src.universe),
                 "man " + " ".join(goals)]
        lines += ["t " + " ".join(vs + (g,)) + " = 0" for (_, vs), g in zip(src.constraints, goals)]
        return "\n".join(lines) + "\n"


def xor3_source(name: str, rng: random.Random) -> Instance:
    vs = [f"a{i}" for i in range(7)]
    cons = [(XOR3, tuple(rng.sample(vs, 3))) for _ in range(6)]
    return Instance(name, "xor3_source", "", tuple(vs), cons, rng.choice(vs))  # never a file


def small_requests(seed: int):
    rng = random.Random(f"small_requests:{seed}")
    rels = [family_relation(f"R{i}", family, k, rng)
            for i, (family, k) in enumerate((f, k) for f in FAMILIES for k in REQUEST_ARITIES * 2)]
    formulas = [relation_formula(f"f{i}", rel, rng) for i, rel in enumerate(rels)]
    abductions = [Abduction(f"pap{i}", xor3_source(f"x{i}", rng))
                  for i in range(REQUEST_ABDUCTIONS)]
    return rels, formulas, abductions
