"""Dense two-phase simplex for small, well-scaled linear programs.

Solves max/min c.x subject to rows of A x (<=|=|>=) b and x >= 0 on a
dense numpy tableau.  A pivot updates only the rows where the pivot column
is non-zero and the columns where the pivot row is non-zero; every other
cell would only have 0 * x subtracted, so the result equals a full
rank-one update of the tableau while touching a few percent of it on the
stopping LPs.  Entering variables use Dantzig pricing by default
and switch permanently to Bland's rule after a run of degenerate pivots,
which keeps the anti-cycling guarantee without Bland's usual slowness;
``pricing="bland"`` forces the pure rule.  Leaving-variable ties always
break toward the smallest basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblem, NumericError, UnboundedProblem

_EPS = 1e-9
_PIVOT_EPS = 1e-11


@dataclass
class SimplexResult:
    values: np.ndarray
    objective: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(T[row])
    # cells outside rows x cols would only have 0 * x subtracted
    T[np.ix_(rows, cols)] -= np.outer(T[rows, col], T[row, cols])
    basis[row] = col


def _run(T: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
         pricing: str, max_iter: int) -> int:
    m = T.shape[0] - 1
    bland = pricing == "bland"
    stall = 0
    iters = 0
    while True:
        red = T[-1, :-1]
        cand = np.flatnonzero(allowed & (red < -_EPS))
        if cand.size == 0:
            return iters
        col = int(cand[0]) if bland else int(cand[np.argmin(red[cand])])
        colv = T[:m, col]
        pos = colv > _PIVOT_EPS
        if not pos.any():
            raise UnboundedProblem("no blocking row for entering column")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / colv[pos]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + _PIVOT_EPS)
        row = int(ties[np.argmin(basis[ties])])
        before = T[-1, -1]
        _pivot(T, basis, row, col)
        iters += 1
        if iters > max_iter:
            raise NumericError(f"simplex exceeded {max_iter} pivots")
        if not bland:
            # degenerate stretch: fall back to Bland to rule out cycling
            stall = stall + 1 if abs(T[-1, -1] - before) < 1e-13 else 0
            if stall > 2 * m + 20:
                bland = True


def simplex_solve_arrays(c: np.ndarray, A: np.ndarray, b: np.ndarray,
                         rels, sense: str = "max",
                         pricing: str = "dantzig") -> SimplexResult:
    """Solve the LP; ``rels`` is one of "<=", "==", ">=" per row."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, nvar = A.shape
    rels = list(rels)
    if sense == "max":
        c = -c
    elif sense != "min":
        raise ValueError(f"sense must be max or min, got {sense!r}")

    # normalise to b >= 0
    rows = A.copy()
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    for i in range(m):
        if b[i] < 0:
            rows[i] = -rows[i]
            b[i] = -b[i]
            rels[i] = flip[rels[i]]

    n_slack = sum(1 for r in rels if r in ("<=", ">="))
    n_art = sum(1 for r in rels if r in ("==", ">="))
    total = nvar + n_slack + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :nvar] = rows
    T[:m, -1] = b
    basis = np.empty(m, dtype=int)
    s_off, a_off = nvar, nvar + n_slack
    si = ai = 0
    art_cols = []
    for i, rel in enumerate(rels):
        if rel == "<=":
            T[i, s_off + si] = 1.0
            basis[i] = s_off + si
            si += 1
        elif rel == ">=":
            T[i, s_off + si] = -1.0
            si += 1
            T[i, a_off + ai] = 1.0
            basis[i] = a_off + ai
            art_cols.append(a_off + ai)
            ai += 1
        else:
            T[i, a_off + ai] = 1.0
            basis[i] = a_off + ai
            art_cols.append(a_off + ai)
            ai += 1

    max_iter = 2000 + 60 * (m + total)
    iters = 0
    art_cols = np.array(art_cols, dtype=int)
    allowed = np.ones(total, dtype=bool)

    if n_art:
        # phase 1: minimise the artificial sum
        phase1 = np.zeros(total)
        phase1[a_off:a_off + n_art] = 1.0
        T[-1, :-1] = phase1
        T[-1, -1] = 0.0
        for i in range(m):
            if T[-1, basis[i]] != 0.0:
                T[-1] -= T[-1, basis[i]] * T[i]
        iters += _run(T, basis, allowed, pricing, max_iter)
        if T[-1, -1] < -1e-7:
            raise InfeasibleProblem(f"phase-1 optimum {-T[-1, -1]:.3e} > 0")
        # drive any zero-level artificials out of the basis
        for i in range(m):
            if basis[i] in art_cols:
                pivots = np.flatnonzero(np.abs(T[i, :a_off]) > _PIVOT_EPS)
                if pivots.size:
                    _pivot(T, basis, i, int(pivots[0]))
        allowed[a_off:a_off + n_art] = False

    # phase 2
    full_c = np.zeros(total)
    full_c[:nvar] = c
    T[-1, :-1] = full_c
    T[-1, -1] = 0.0
    for i in range(m):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    iters += _run(T, basis, allowed, pricing, max_iter)

    values = np.zeros(total)
    values[basis] = T[:m, -1]
    obj = -T[-1, -1]
    if sense == "max":
        obj = -obj
    return SimplexResult(values=values[:nvar], objective=obj, iterations=iters)
