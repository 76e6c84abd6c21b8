"""Complete backtracking search over formulas.

This is the internal NP-oracle: depth-first search in universe order, value
0 before 1, with constraint-compatibility propagation and weight-bound
pruning.  The first model found is therefore the lexicographically least one
among models satisfying the bound and the forced literals.

A formula is compiled once: each constraint becomes the list of its distinct
variable ids plus a shape (relation and repetition pattern) holding the
relation tuples that agree on repeated variables, and each variable gets the
list of constraints it occurs in.  Each constraint's local state is a base-3
code kept up to date on assignment and undo; a shape memoizes, per code,
whether any tuple is still compatible, which open variables every compatible
tuple agrees on, and the fewest ones a compatible tuple adds.  The latest
formula's compilation is kept, so the oracle calls of one solve share it.

- Propagation runs from a worklist: every constraint at the root, afterwards
  only the constraints on variables just assigned.  The forcing rule is the
  same everywhere, so the fixpoint and the conflicts do not depend on the
  order in which constraints are visited.
- The search is an iterative DFS over an explicit frame stack and a single
  trail; the scan for the next unassigned variable resumes after the pivot.
  Its depth is bounded by the universe, not by the interpreter's stack.
- After propagation, a greedy packing of variable-disjoint constraints gives
  an admissible lower bound on the ones still needed.  It is skipped when
  ``ones + open variables <= bound``: each packed constraint adds at most its
  own open variables and those are disjoint, so the packing cannot prune.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .errors import PreconditionError
from .formulas import Assignment, Formula
from .relations import Relation

UNASSIGNED = -1


class _Shape(dict):
    """The tuples of one relation under one repetition pattern, over the
    constraint's distinct variables, and a memo from local state codes to
    statuses.  The code of a local state is the sum of ``(value + 1) * 3**i``
    over the local variables i, so 0 means all open.

    A status is None when no tuple is compatible, else ``(forced, open,
    best)``: the ``(index, value)`` pairs of open local variables on which
    every compatible tuple agrees, the open local indices, and the fewest
    ones a compatible tuple puts on the open variables.
    """

    __slots__ = ("width", "candidates")

    def __init__(self, width: int, candidates: list[tuple[int, ...]]):
        super().__init__()
        self.width = width
        self.candidates = candidates

    def __missing__(self, code: int):
        state = []
        rest = code
        for _ in range(self.width):
            rest, digit = divmod(rest, 3)
            state.append(digit - 1)
        compat = [c for c in self.candidates
                  if all(s == UNASSIGNED or s == b for s, b in zip(state, c))]
        status = None
        if compat:
            open_ = [i for i, s in enumerate(state) if s == UNASSIGNED]
            first = compat[0]
            forced = [(i, first[i]) for i in open_ if all(c[i] == first[i] for c in compat)]
            status = (forced, open_, min(sum(c[i] for i in open_) for c in compat))
        self[code] = status
        return status


class _Constraint(dict):
    """One constraint: its distinct variable ids in first-occurrence order,
    its shape, and a memo from local state codes to the shape's status with
    local indices replaced by variable ids (``open`` as a tuple)."""

    __slots__ = ("vars", "shape")

    def __init__(self, vars: list[int], shape: _Shape):
        super().__init__()
        self.vars = vars
        self.shape = shape

    def __missing__(self, code: int):
        status = self.shape[code]
        if status is not None:
            forced, open_, best = status
            vs = self.vars
            status = ([(vs[i], b) for i, b in forced], tuple(vs[i] for i in open_), best)
        self[code] = status
        return status


@lru_cache(maxsize=1024)
def _shape(rel: Relation, local: tuple[int, ...]) -> _Shape:
    """The shape of ``rel`` when its coordinate j holds local variable
    ``local[j]``; local variables are numbered by first occurrence."""
    width = max(local) + 1
    candidates: dict[tuple[int, ...], None] = {}
    for t in rel.tuples():
        c = [UNASSIGNED] * width
        for i, b in zip(local, t):
            if c[i] == UNASSIGNED:
                c[i] = b
            elif c[i] != b:
                break
        else:
            candidates[tuple(c)] = None
    return _Shape(width, list(candidates))


@lru_cache(maxsize=1)
def _compile(formula: Formula):
    """Variable ids, the compiled constraints, and per variable the
    ``(constraint, 3**i)`` pairs of the constraints it occurs in as local
    variable i.  The latest formula's compilation is kept, so the oracle
    calls of one solve compile it once."""
    index = {v: i for i, v in enumerate(formula.universe)}
    cons: list[_Constraint] = []
    occurs: list[list[tuple[int, int]]] = [[] for _ in formula.universe]
    for ci, (rel, vs) in enumerate(formula.constraints):
        ids = [index[v] for v in vs]
        vars_ = list(dict.fromkeys(ids))
        shape = _shape(rel, tuple(vars_.index(p) for p in ids))
        cons.append(_Constraint(vars_, shape))
        for i, p in enumerate(vars_):
            occurs[p].append((ci, 3 ** i))
    return index, cons, occurs


class _Search:
    def __init__(self, formula: Formula, bound: int | None, forced: Mapping[str, int]):
        self.universe = formula.universe
        n = len(self.universe)
        index, self.cons, self.occurs = _compile(formula)
        self.assign = [UNASSIGNED] * n
        self.codes = [0] * len(self.cons)
        self.trail: list[int] = []
        self.queued = bytearray(len(self.cons))
        self.ones = 0
        self.bound = n if bound is None else bound
        for v, b in forced.items():
            if v not in index:
                raise PreconditionError(f"forced literal on unknown variable {v!r}")
            self._set(index[v], b & 1, [])
        # forced literals are never undone; _propagate_all queues every constraint
        self.trail.clear()
        self.free = n - len(forced)  # open variables when the trail is empty

    def _set(self, p: int, value: int, queue: list[int]) -> None:
        """Assign ``p`` and queue the constraints it occurs in."""
        self.assign[p] = value
        self.trail.append(p)
        self.ones += value
        codes, queued = self.codes, self.queued
        for ci, w in self.occurs[p]:
            codes[ci] += (value + 1) * w
            if not queued[ci]:
                queued[ci] = 1
                queue.append(ci)

    def _propagate(self, queue: list[int]) -> bool:
        """Force values agreed on by every compatible tuple, from the queued
        constraints to a fixpoint; False on conflict.  Every constraint in
        ``queue`` must be flagged in ``queued``."""
        cons, codes, queued = self.cons, self.codes, self.queued
        ok = True
        while ok and queue:
            # ci stays flagged while it forces: its own forced values leave
            # its compatible tuples unchanged, so it need not be revisited
            ci = queue.pop()
            status = cons[ci][codes[ci]]
            if status is None:
                ok = False
            else:
                for p, value in status[0]:
                    self._set(p, value, queue)
                    if self.ones > self.bound:
                        ok = False
                        break
            queued[ci] = 0
        for ci in queue:
            queued[ci] = 0
        queue.clear()
        return ok

    def _propagate_all(self) -> bool:
        self.queued[:] = b"\x01" * len(self.cons)
        return self._propagate(list(range(len(self.cons))))

    def _weight_slack_ok(self) -> bool:
        """Admissible lower bound: pack vertex-disjoint constraints and sum
        the minimum number of extra ones each still requires."""
        ones, bound = self.ones, self.bound
        if ones + self.free - len(self.trail) <= bound:
            return True
        extra = 0
        used: set[int] = set()
        for con, code in zip(self.cons, self.codes):
            _, open_, best = con[code]
            if best and used.isdisjoint(open_):
                extra += best
                used.update(open_)
                if ones + extra > bound:
                    return False
        return True

    def _undo(self, mark: int) -> None:
        assign, trail, codes, occurs = self.assign, self.trail, self.codes, self.occurs
        for p in trail[mark:]:
            value = assign[p]
            self.ones -= value
            for ci, w in occurs[p]:
                codes[ci] -= (value + 1) * w
            assign[p] = UNASSIGNED
        del trail[mark:]

    def run(self) -> Assignment | None:
        if self.ones > self.bound:
            return None
        assign, trail = self.assign, self.trail
        ok = self._propagate_all() and self._weight_slack_ok()
        frames: list[list[int]] = []  # [pivot, trail length before it, value]
        start = 0
        queue: list[int] = []
        while True:
            if ok:
                try:
                    pivot = assign.index(UNASSIGNED, start)
                except ValueError:
                    return Assignment(self.universe, tuple(assign))
                frame = [pivot, len(trail), 0]
                frames.append(frame)
            else:
                # the deepest pivot still at 0 tries 1, if the bound allows
                while frames:
                    frame = frames[-1]
                    self._undo(frame[1])
                    if frame[2] == 0 and self.ones < self.bound:
                        frame[2] = 1
                        break
                    frames.pop()
                else:
                    return None
            pivot, _, value = frame
            self._set(pivot, value, queue)
            start = pivot + 1
            ok = self._propagate(queue) and self._weight_slack_ok()


def find_model(formula: Formula, weight_bound: int | None = None,
               forced: Mapping[str, int] | None = None) -> Assignment | None:
    """Lexicographically least model of weight <= bound extending ``forced``,
    or None."""
    return _Search(formula, weight_bound, forced or {}).run()


def sat_leq(formula: Formula, weight_bound: int, forced: Mapping[str, int] | None = None) -> bool:
    """Decision oracle: is there a model of weight <= bound extending ``forced``?"""
    return find_model(formula, weight_bound, forced) is not None


def propagate(formula: Formula) -> list[int] | None:
    """Values forced by propagation from the empty assignment (UNASSIGNED
    where nothing is forced), or None when propagation meets a conflict."""
    s = _Search(formula, None, {})
    return s.assign if s._propagate_all() else None


def frozen_by_probing(formula: Formula) -> dict[str, int]:
    """Frozen variables, by probing each candidate against one base model.

    Only variables in some constraint can be frozen.  A probe that finds a
    model with the candidate flipped clears every candidate on which that
    model differs from the base.
    """
    base = find_model(formula)
    if base is None:
        raise PreconditionError("formula is unsatisfiable; every variable is vacuously frozen")
    values = base.as_dict()
    candidates = set(formula.occurring())
    out: dict[str, int] = {}
    for v in formula.universe:
        if v not in candidates:
            continue
        flipped = find_model(formula, forced={v: 1 - values[v]})
        if flipped is None:
            out[v] = values[v]
        else:
            candidates.difference_update(u for u, b in flipped.as_dict().items() if b != values[u])
    return out
