"""Reference computations the benchmark checks the program against.

Nothing here imports cardminsat.  A relation is a frozenset of 0/1 tuples,
a formula is a universe (tuple of names) plus constraints given as
``(tuples, vars)`` pairs.  Every answer is ``(verdict, min_weight,
witness)`` as in the program: ``min_weight`` is None when the formula is
unsatisfiable, ``witness`` is a tuple of 0/1 values over the universe when
the verdict is yes and None otherwise.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product

UNSAT = (False, None, None)


def satisfies(constraints, values: dict) -> bool:
    """The benchmark's own evaluator: every constraint's tuple is allowed."""
    return all(tuple(values[v] for v in vs) in tuples for tuples, vs in constraints)


# ---------------------------------------------------------------------------
# Horn: forward chaining over T, F, IMPL(a -> b) and NAND2
# ---------------------------------------------------------------------------


def horn_least_model(universe, facts, implications, negatives):
    """Least model of unit facts, implications a -> b and negative clauses
    (each a tuple of variables, not all true), or None if there is none.

    Forward chaining with a work queue: each implication fires at most once.
    """
    out_edges: dict[str, list[str]] = {}
    for a, b in implications:
        out_edges.setdefault(a, []).append(b)
    true: set[str] = set()
    queue = deque()
    for v in facts:
        if v not in true:
            true.add(v)
            queue.append(v)
    while queue:
        for w in out_edges.get(queue.popleft(), ()):
            if w not in true:
                true.add(w)
                queue.append(w)
    if any(all(v in true for v in clause) for clause in negatives):
        return None
    return true


def horn_answer(universe, facts, implications, negatives, query):
    model = horn_least_model(universe, facts, implications, negatives)
    if model is None:
        return UNSAT
    if query not in model:
        return (False, len(model), None)
    return (True, len(model), tuple(int(v in model) for v in universe))


# ---------------------------------------------------------------------------
# Width-2-affine: BFS 2-colouring of EQ/NEQ graphs with T/F units
# ---------------------------------------------------------------------------

_ZERO = object()  # the constant-0 node; T(x) is x != 0, F(x) is x == 0


def w2a_answer(universe, units, edges, query):
    """Minimum-weight answer over x=a units and x xor y = p edges.

    Each component is 2-coloured by BFS.  A component holding the constant
    is forced; any other takes its lighter side, and on a tie the side that
    sets its earliest member (in universe order) to 0.  The witness is the
    lexicographically least minimum model with the query set to 1.
    """
    adj: dict[object, list[tuple[object, int]]] = {}
    for v, a in units:
        adj.setdefault(v, []).append((_ZERO, a))
        adj.setdefault(_ZERO, []).append((v, a))
    for u, v, p in edges:
        adj.setdefault(u, []).append((v, p))
        adj.setdefault(v, []).append((u, p))
    position = {v: i for i, v in enumerate(universe)}
    colour: dict[object, int] = {}
    comps: list[list[object]] = []
    starts = ([_ZERO] if _ZERO in adj else []) + list(universe)
    for start in starts:
        if start in colour:
            continue
        colour[start] = 0
        members = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w, p in adj.get(u, ()):
                c = colour[u] ^ p
                if w not in colour:
                    colour[w] = c
                    members.append(w)
                    queue.append(w)
                elif colour[w] != c:
                    return UNSAT
        comps.append(members)
    value: dict[str, int] = {}
    flip_of: dict[str, tuple[list, int, int]] = {}
    min_weight = 0
    for members in comps:
        names = [m for m in members if m is not _ZERO]
        if _ZERO in members:
            for m in names:
                value[m] = colour[m]  # the constant is coloured 0
            min_weight += sum(value[m] for m in names)
            continue
        ones = sum(colour[m] for m in names)
        zeros = len(names) - ones
        if ones < zeros:
            flip = 0
        elif zeros < ones:
            flip = 1
        else:
            earliest = min(names, key=position.__getitem__)
            flip = colour[earliest]  # makes the earliest member 0
        min_weight += min(ones, zeros)
        for m in names:
            value[m] = colour[m] ^ flip
            flip_of[m] = (names, ones, zeros)
    if value.get(query, 0) == 0:
        if query not in flip_of:
            return (False, min_weight, None)
        names, ones, zeros = flip_of[query]
        if ones != zeros:
            return (False, min_weight, None)
        for m in names:  # the other side of a tied component
            value[m] ^= 1
    return (True, min_weight, tuple(value.get(v, 0) for v in universe))


# ---------------------------------------------------------------------------
# Positive 2-clauses: minimum vertex cover
# ---------------------------------------------------------------------------


def max_matching(left, edges, removed=None) -> int:
    """Size of a maximum matching of a bipartite graph (augmenting paths);
    vertices in ``removed`` are deleted first."""
    removed = removed or set()
    adj: dict[str, list[str]] = {u: [] for u in left}
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].append(v)
    match: dict[str, str] = {}

    def augment(u: str, seen: set) -> bool:
        stack = [(u, iter(adj[u]))]
        path = []
        while stack:
            node, it = stack[-1]
            for v in it:
                if v in seen:
                    continue
                seen.add(v)
                if v not in match:
                    path.append((node, v))
                    for a, b in path:
                        match[b] = a
                    return True
                path.append((node, v))
                stack.append((match[v], iter(adj[match[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    return sum(augment(u, set()) for u in left if u not in removed)


def bipartite_cover_answer(left, edges, query):
    """(verdict, min_weight) of OR2 over a bipartite graph, by Koenig's
    theorem: the minimum cover has the size of a maximum matching, and a
    vertex lies in some minimum cover iff deleting it lowers that size."""
    nu = max_matching(left, edges)
    return (max_matching(left, edges, {query}) == nu - 1, nu)


def path_cover_answer(n: int, index: int):
    """OR2 on a path of n vertices: cover floor(n/2); for odd n the only
    minimum cover is the odd positions, for even n every vertex is in one."""
    return (n % 2 == 0 or index % 2 == 1, n // 2)


def cycle_cover_answer(n: int, index: int):
    """OR2 on an n-cycle: cover ceil(n/2), and by symmetry every vertex is
    in some minimum cover."""
    return (True, (n + 1) // 2)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (small formulas)
# ---------------------------------------------------------------------------


def enumerate_answer(universe, constraints, query):
    """Answer by enumerating assignments in order of weight, each weight
    class in lexicographic order; exact up to about 18 variables."""
    n = len(universe)
    q = universe.index(query)
    for w in range(n + 1):
        models = []
        for ones in combinations(range(n), w):
            values = [0] * n
            for i in ones:
                values[i] = 1
            if satisfies(constraints, dict(zip(universe, values))):
                models.append(tuple(values))
        if models:
            with_q = [m for m in models if m[q] == 1]
            if not with_q:
                return (False, w, None)
            return (True, w, min(with_q))
    return UNSAT


# ---------------------------------------------------------------------------
# Polymorphism closure tests and the classification buckets
# ---------------------------------------------------------------------------

FLAG_NAMES = ("zero_valid", "one_valid", "complementive", "horn", "dual_horn",
              "bijunctive", "affine", "width2_affine")

TRIVIAL, HORN, WIDTH2_AFFINE, THETA2 = ("Trivial0Valid", "PolyHorn", "PolyWidth2Affine",
                                        "Theta2Complete")


def _closed(rows: set[int], op, arity: int) -> bool:
    return all(op(*args) in rows for args in product(rows, repeat=arity))


def relation_flags(tuples, arity: int) -> dict[str, bool]:
    """The eight fingerprint flags of one non-empty relation, by applying
    AND, OR, MAJ, NOT and x^y^z to its tuples as bit vectors."""
    full = (1 << arity) - 1
    rows = {int("".join(map(str, t)), 2) for t in tuples}
    bij = _closed(rows, lambda a, b, c: (a & b) | (a & c) | (b & c), 3)
    affine = _closed(rows, lambda a, b, c: a ^ b ^ c, 3)
    return {
        "zero_valid": 0 in rows,
        "one_valid": full in rows,
        "complementive": _closed(rows, lambda a: full & ~a, 1),
        "horn": _closed(rows, lambda a, b: a & b, 2),
        "dual_horn": _closed(rows, lambda a, b: a | b, 2),
        "bijunctive": bij,
        "affine": affine,
        "width2_affine": bij and affine,
    }


def bucket_of(flags: dict[str, bool]) -> str:
    if flags["zero_valid"]:
        return TRIVIAL
    if flags["horn"]:
        return HORN
    if flags["width2_affine"]:
        return WIDTH2_AFFINE
    return THETA2
