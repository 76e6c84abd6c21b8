"""Exhaustive-enumeration oracles that every engine is checked against."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import GuardError, PreconditionError
from .formulas import Assignment, CmsAnswer, CmsStarInstance, Formula, require_query
from .relations import index_to_tuple

DEFAULT_MAX_VARS = 24
_CHUNK = 1 << 20


def _check_guard(formula: Formula, max_vars: int) -> int:
    n = formula.num_vars
    if n > max_vars:
        raise GuardError(f"universe of {n} variables exceeds the enumeration guard ({max_vars})")
    return n


def _model_chunks(formula: Formula, n: int) -> Iterator[np.ndarray]:
    """Yield arrays of model indices; index bit (n-1-j) holds variable j."""
    pos = {v: i for i, v in enumerate(formula.universe)}
    tables = [(c.relation.table(), [pos[v] for v in c.vars]) for c in formula.constraints]
    total = 1 << n
    for start in range(0, total, _CHUNK):
        idxs = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        keep = np.ones(len(idxs), dtype=bool)
        for table, positions in tables:
            k = len(positions)
            tup = np.zeros(len(idxs), dtype=np.uint32)
            for j, p in enumerate(positions):
                tup |= ((idxs >> np.uint32(n - 1 - p)) & np.uint32(1)) << np.uint32(k - 1 - j)
            keep &= table[tup]
            if not keep.any():
                break
        yield idxs[keep]


def _index_to_assignment(formula: Formula, idx: int) -> Assignment:
    return Assignment(formula.universe, index_to_tuple(idx, formula.num_vars))


def enumerate_models(formula: Formula, max_vars: int = DEFAULT_MAX_VARS) -> list[Assignment]:
    """All satisfying assignments, in lexicographic order of the universe."""
    n = _check_guard(formula, max_vars)
    out: list[Assignment] = []
    for chunk in _model_chunks(formula, n):
        out.extend(_index_to_assignment(formula, int(i)) for i in chunk)
    return out


def cms_bruteforce(formula: Formula, query: str, max_vars: int = DEFAULT_MAX_VARS) -> CmsAnswer:
    """Reference answer by scanning the full assignment space."""
    require_query(formula, query)
    n = _check_guard(formula, max_vars)
    qshift = np.uint32(n - 1 - formula.universe.index(query))
    min_weight: int | None = None
    best_q: int | None = None  # least index among min-weight models with query=1
    for chunk in _model_chunks(formula, n):
        if not len(chunk):
            continue
        weights = np.bitwise_count(chunk)
        w = int(weights.min())
        if min_weight is None or w < min_weight:
            min_weight = w
            best_q = None
        if w == min_weight:
            sel = chunk[(weights == w) & (((chunk >> qshift) & np.uint32(1)).astype(bool))]
            if len(sel):
                cand = int(sel.min())
                if best_q is None or cand < best_q:
                    best_q = cand
    witness = None if best_q is None else _index_to_assignment(formula, best_q)
    return CmsAnswer(min_weight, witness)


def cms_star_bruteforce(instance: CmsStarInstance, max_vars: int = DEFAULT_MAX_VARS) -> bool:
    answer = cms_bruteforce(instance.formula, instance.query, max_vars)
    return answer.verdict and answer.min_weight <= instance.bound


def frozen_vars(formula: Formula, max_vars: int = DEFAULT_MAX_VARS) -> dict[str, int]:
    """Variables taking one fixed value across all models, with that value,
    by enumerating the models.  The formula must be satisfiable."""
    n = _check_guard(formula, max_vars)
    always, ever = -1, 0  # AND and OR of the model indices; no model leaves always at -1
    for chunk in _model_chunks(formula, n):
        if len(chunk):
            always &= int(np.bitwise_and.reduce(chunk))
            ever |= int(np.bitwise_or.reduce(chunk))
    if always < 0:
        raise PreconditionError("formula is unsatisfiable; every variable is vacuously frozen")
    out: dict[str, int] = {}
    for j, v in enumerate(formula.universe):
        bit = 1 << (n - 1 - j)
        if always & bit:
            out[v] = 1
        elif not ever & bit:
            out[v] = 0
    return out
