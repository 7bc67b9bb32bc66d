"""Dense single-phase simplex for the stopping LPs.

Solves max c.v subject to A v <= b and v >= 0 with b >= 0, the one form
every primal in ``lp`` takes: the stopping rows are <= 1 and the welfare
rows <= 0.  Because b >= 0, v = 0 is feasible and the slack columns form
a feasible starting basis, so one simplex run from that basis solves the
LP; any other form is rejected with ``ValueError``.

A pivot updates only the rows where the pivot column is non-zero and the
columns where the pivot row is non-zero; every other cell would only have
0 * x subtracted, so the result equals a full rank-one update of the
tableau while touching a few percent of it on the stopping LPs.  Entering
variables use Dantzig pricing and switch permanently to Bland's rule after
a run of degenerate pivots, which keeps the anti-cycling guarantee without
Bland's usual slowness.  Leaving-variable ties always break toward the
smallest basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UnboundedProblem

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
    # cells outside rows x cols would only have 0 * x subtracted; the
    # block is one gather and one scatter on T's flat view
    assert T.flags.c_contiguous
    flat = T.reshape(-1)
    block = rows[:, None] * T.shape[1] + cols
    flat[block] -= np.outer(T[rows, col], T[row, cols])
    basis[row] = col


def _run(T: np.ndarray, basis: np.ndarray, max_iter: int) -> int:
    m = T.shape[0] - 1
    bland = False
    stall = 0
    iters = 0
    while True:
        red = T[-1, :-1]
        cand = np.flatnonzero(red < -_EPS)
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
                         rels) -> SimplexResult:
    """Maximise c.v subject to A v <= b, v >= 0; every ``rels`` entry
    must be "<=" and every b_i >= 0."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, nvar = A.shape
    if list(rels) != ["<="] * m or not np.all(b >= 0):
        raise ValueError("simplex_solve_arrays accepts only max c.v subject "
                         "to A v <= b, v >= 0, with every b_i >= 0")

    # [A | I | b] over [-c | 0 | 0]: the slack columns are the basis
    T = np.zeros((m + 1, nvar + m + 1))
    T[:m, :nvar] = A
    basis = nvar + np.arange(m)
    T[np.arange(m), basis] = 1.0
    T[:m, -1] = b
    T[-1, :nvar] = -c
    iters = _run(T, basis, 2000 + 60 * (m + nvar + m))

    values = np.zeros(nvar + m)
    values[basis] = T[:m, -1]
    return SimplexResult(values=values[:nvar], objective=T[-1, -1],
                         iterations=iters)
