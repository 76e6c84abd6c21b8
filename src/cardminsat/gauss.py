"""Linear algebra over the two-element field.

Provides ``gauss_solve`` for explicit XOR-equation systems, extraction of
parity-check equations from affine relations, and an exact minimum-weight
query answerer for formulas whose relations are all affine.

The solver keeps every determined variable fully reduced: its value is an
int mask over the constant bit and the bits of the currently-free "slot"
variables.  Equations that determine nothing new eliminate one slot by
back-substitution through that slot's append-only user list, whose stale
entries are skipped, and retired slot ids are recycled, so masks stay narrow
even on systems with hundreds of thousands of highly redundant equations.
A whole formula is folded in one loop, with the cyclic garbage collector
paused.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardError
from .formulas import Formula, require_query
from .relations import Relation, set_bit_indices
from .util import nogc

XorEquation = tuple[Sequence[str], int]
ParityCheck = tuple[Sequence[int], int]  # (coords, parity) over a constraint's variables

DEFAULT_DIM_GUARD = 22


class GF2Solver:
    """Online Gauss-Jordan elimination in solved form.

    Every seen variable maps to an int mask: bit 0 is the affine constant,
    bit s (s >= 1) stands for the free variable currently occupying slot s
    (whose own mask is exactly that bit).  Masks only ever reference live
    slots.  Each live slot keeps an append-only list of the names whose
    masks hold its bit; a name is appended when its mask gains the bit, and
    an entry whose mask has since lost the bit is stale and skipped, so a
    name may appear more than once.  Eliminating a slot back-substitutes
    through its list and recycles its id, which keeps masks narrow on huge
    redundant systems.
    """

    def __init__(self) -> None:
        self.mask: dict[str, int] = {}
        self._users: dict[int, list[str]] = {}
        self._spare_ids: list[int] = []
        self._next_slot = 1
        self.unsat = False

    def _new_slot(self, var: str) -> int:
        if self._spare_ids:
            s = self._spare_ids.pop()
        else:
            s = self._next_slot
            self._next_slot += 1
        self.mask[var] = 1 << s
        self._users[s] = [var]
        return s

    def add(self, vars: Sequence[str], parity: int) -> None:
        """Add the equation ``xor(vars) = parity``; repetitions cancel."""
        self.fold([(vars, [(range(len(vars)), parity & 1)])])

    def fold(self, rows: Iterable[tuple[Sequence[str], Iterable[ParityCheck]]]) -> None:
        """For each row ``(vs, checks)``, add ``xor(vs[j] for j in coords) =
        parity`` for each ``(coords, parity)`` of ``checks`` with ``parity``
        in {0, 1}; repeated variables cancel.  Nothing is added once the
        system is unsatisfiable."""
        if self.unsat:
            return
        mask = self.mask
        users = self._users
        for vs, checks in rows:
            for coords, parity in checks:
                expr = parity
                unseen: list[str] | None = None
                for j in coords:
                    v = vs[j]
                    m = mask.get(v)
                    if m is not None:
                        expr ^= m
                    elif unseen is None:
                        unseen = [v]
                    elif v in unseen:
                        unseen.remove(v)
                    else:
                        unseen.append(v)
                if unseen:
                    pivot = unseen.pop()
                    for v in unseen:
                        expr ^= 1 << self._new_slot(v)
                    mask[pivot] = expr
                    bits = expr & ~1
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        users[low.bit_length() - 1].append(pivot)
                elif expr == 1:
                    self.unsat = True
                    return
                elif expr:
                    self._retire(expr)

    def _retire(self, expr: int) -> None:
        """Pick the free slot of ``expr`` with the shortest user list, solve
        its variable, and back-substitute into every name that still holds
        the slot's bit; stale and repeated entries are skipped."""
        users_index = self._users
        best = None
        bits = expr & ~1
        while bits:
            low = bits & -bits
            bits ^= low
            s = low.bit_length() - 1
            load = len(users_index[s])
            if best is None or load < best[0]:
                best = (load, s)
        assert best is not None
        s = best[1]
        bit = 1 << s
        users = users_index.pop(s)
        self._spare_ids.append(s)
        # xor-ing ``expr`` swaps the slot's bit for the rest of ``expr``
        changed = expr & ~(bit | 1)
        mask = self.mask
        for w in users:
            old = mask[w]
            if not old & bit:
                continue
            new = old ^ expr
            mask[w] = new
            gained = new & changed
            while gained:
                low = gained & -gained
                gained ^= low
                users_index[low.bit_length() - 1].append(w)

    def copy(self) -> GF2Solver:
        """An independent solver in the same state: folding into either
        leaves the other unchanged."""
        other = GF2Solver()
        other.mask = dict(self.mask)
        other._users = {s: vs.copy() for s, vs in self._users.items()}
        other._spare_ids = list(self._spare_ids)
        other._next_slot = self._next_slot
        other.unsat = self.unsat
        return other

    # -- queries ---------------------------------------------------------

    @property
    def satisfiable(self) -> bool:
        return not self.unsat

    def free_slot_bits(self) -> list[int]:
        return sorted(self._users)

    def value_mask(self, var: str) -> int:
        """Value mask of ``var`` over the constant bit and the free slots;
        variables mentioned in no equation read as constant 0."""
        return self.mask.get(var, 0)

    def solution(self) -> dict[str, int]:
        """One solution, free variables set to 0."""
        if self.unsat:
            raise ValueError("system is unsatisfiable")
        return {v: m & 1 for v, m in self.mask.items()}


def gauss_solve(equations: Iterable[XorEquation]) -> tuple[bool, dict[str, int] | None]:
    """Decide an XOR system; on success also return one solution (frees 0)."""
    solver = GF2Solver()
    for vars, parity in equations:
        solver.add(vars, parity)
    if not solver.satisfiable:
        return False, None
    return True, solver.solution()


# ---------------------------------------------------------------------------
# Affine relations as parity-check systems
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _parity_checks(arity: int, rows: int) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    if rows == 0:
        # The empty relation is the contradictory system on the first coordinate.
        return (((0,), 0), ((0,), 1))
    count = rows.bit_count()
    if count & (count - 1):
        return None  # an affine relation has a power-of-two number of tuples
    idxs = set_bit_indices(rows).tolist()
    t0 = idxs[0]
    basis: dict[int, int] = {}
    for t in idxs[1:]:
        vec = t ^ t0
        while vec:
            p = vec.bit_length() - 1
            if p in basis:
                vec ^= basis[p]
            else:
                basis[p] = vec
                break
    if count != 1 << len(basis):
        return None
    # Reduce the span basis so each pivot occurs in exactly one vector.
    for p in sorted(basis, reverse=True):
        for q in basis:
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    pivots = set(basis)
    checks: list[tuple[tuple[int, ...], int]] = []
    for f in range(arity):
        if f in pivots:
            continue
        h = 1 << f
        for p, vec in basis.items():
            if (vec >> f) & 1:
                h |= 1 << p
        coords = tuple(sorted(arity - 1 - b for b in range(arity) if (h >> b) & 1))
        checks.append((coords, (h & t0).bit_count() & 1))
    return tuple(checks)


def affine_parity_checks(rel: Relation) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    """XOR equations over 0-based coordinates defining ``rel``, or None if
    the relation is not affine."""
    return _parity_checks(rel.arity, rel.rows)


def is_affine(rel: Relation) -> bool:
    return affine_parity_checks(rel) is not None


@nogc()
def formula_system(formula: Formula) -> GF2Solver | None:
    """Load a formula whose relations are all affine; None otherwise.

    Every relation is checked before anything is folded.  Each relation's
    checks are folded narrowest first, so unit and two-variable checks
    determine variables before a wider check would open them as free slots
    that a later check has to retire again.
    """
    cons = formula.constraints
    # keyed by identity: the formula keeps every relation alive, and
    # same-named relations may differ
    checks_of: dict[int, list[ParityCheck]] = {}
    for key, rel in {id(rel): rel for rel, _ in cons}.items():
        found = affine_parity_checks(rel)
        if found is None:
            return None
        checks_of[key] = sorted(found, key=lambda check: len(check[0]))
    solver = GF2Solver()
    solver.fold((vs, checks_of[id(rel)]) for rel, vs in cons)
    return solver


def _parity_vectors(masks: dict[int, int], dim_of_bit: dict[int, int], dim: int) -> np.ndarray:
    """Weight contribution over all 2**dim free assignments, const included."""
    total = np.zeros(1 << dim, dtype=np.int64)
    space = np.arange(1 << dim, dtype=np.uint32)
    for mask, count in masks.items():
        vec = np.zeros(1 << dim, dtype=bool)
        if mask & 1:
            vec ^= True
        bits = mask & ~1
        while bits:
            low = bits & -bits
            bits ^= low
            vec ^= ((space >> np.uint32(dim_of_bit[low.bit_length() - 1])) & np.uint32(1)).astype(bool)
        total += count * vec
    return total


def cms_affine(formula: Formula, query: str) -> tuple[bool, int | None, bool] | None:
    """Exact (satisfiable, min_weight, query-in-some-min-model) for a formula
    built from affine relations only; None when some relation is not affine.

    Variables mentioned by no parity check are weighed as constant 0, which
    matches minimum-weight semantics: setting them to 1 only adds weight.
    """
    require_query(formula, query)
    solver = formula_system(formula)
    if solver is None:
        return None
    if not solver.satisfiable:
        return (False, None, False)
    free = solver.free_slot_bits()
    dim = len(free)
    if dim > DEFAULT_DIM_GUARD:
        raise GuardError(f"solution space dimension {dim} exceeds guard {DEFAULT_DIM_GUARD}")
    dim_of_bit = {b: i for i, b in enumerate(free)}
    masks = Counter(map(solver.mask.get, formula.universe))
    masks.pop(None, None)  # mentioned by no check: constant 0, no weight
    weights = _parity_vectors(masks, dim_of_bit, dim)
    qvec = _parity_vectors({solver.value_mask(query): 1}, dim_of_bit, dim).astype(bool)
    min_weight = int(weights.min())
    verdict = bool(np.any(qvec & (weights == min_weight)))
    return (True, min_weight, verdict)
