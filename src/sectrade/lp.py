"""The two stopping LPs, their dual certificates, and feasibility checks.

The *strong* pair bounds how often any rank-based stopping rule can end
with the single best buyer.  Its primal, over variables x_{i,j} = P(sell
to the j-th buyer, best-so-far, when the seller arrived i-th), is

    max  sum_{i<=j} (1/(n+1)) (j/n) x_{i,j}
    s.t. j x_{i,j} + sum_{k=i}^{j-1} x_{i,k} <= 1,      x >= 0,

and the dual asks for y_{i,j} >= 0 with j y_{i,j} + sum_{k>j} y_{i,k} >=
j/((n+1) n).  The *weak* pair adds second-best stopping variables y_{i,j}
and a scalar A bounded by the two welfare expressions that drive the
1.76239 bound; its dual has two families, alpha and beta.

Both dual certificates come from one backward sweep, ``_sweep``, that
holds each dual row with equality against the running suffix sum, one
suffix cumsum per stretch.  Each stretch runs from its top down in
cache-sized chunks of ``_CHUNK`` entries and stops at the chunk that holds
its break, so the sweep computes each j about once, and the cumsum carried
from chunk to chunk adds in the same order as one cumsum over the
stretch.  The weak certificate is its two-family case, the strong one its
one-family case, equal to rounding to the closed form

    a_j = (1 - sum_{k=j}^{n-1} 1/k) / ((n+1) n),   y_{i,j} = max(a_j, 0),

whose objective sum_j j y_j falls to (e^2+1)/(4e^2) as n grows.

Both primals are built as numpy arrays c, A, b (maximise c v subject to
A v <= b, v >= 0): row and column r belong to the r-th pair (i, j) of
``np.triu_indices(n)``, shifted to 1-based, and a solution is the point v
the simplex returns, in that column order.

Dual variables never depend on the seller position i, so certificates
store one array over j per variable of a pair, and one O(n) verifier,
a separate pass over the same chunks, checks either kind; that is what
makes n = 2 * 10^6 routine.  Only z is n-long: a certificate passes one
function of j per family, called per chunk on that chunk's own j, only
for the active families, and the objective is summed in fixed blocks.  A
constructor whose own point fails the verifier's check raises
``NumericError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import check_real, check_size
from .simplex import simplex_solve_arrays

#: Largest n of either primal LP; the weak one's dense tableau has ~n^4 cells.
SIZE_CAP = 60
#: Largest n of either dual certificate; the weak one peaks near 16 B per n
#: (tracemalloc at n = 2e6), alpha and beta; the strong one near 8, y.
CERT_CAP = 10**7
#: How far below 0 a certificate's slack may fall to roundoff before it fails.
SLACK_TOL = 1e-12
#: Elements per chunk of the certificate sweep and verifier: each of their
#: per-chunk arrays is 128 KiB, so a chunk's steps stay in cache.
_CHUNK = 1 << 14
#: Entries per block of the certificate objective, from j = 1 up: its
#: fixed summation order, whatever ``_CHUNK`` is.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class LinearProgram:
    """max c v subject to A v <= b and v >= 0, for one of the primals.

    Row r and column r belong to the r-th pair (i, j), i <= j, in
    row-major order (``np.triu_indices(n)``, 1-based).  The weak primal
    interleaves x_{i,j} and y_{i,j} (rows and columns 2r and 2r+1), then
    has A as its last column and the two welfare rows last."""

    n: int
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def to_arrays(self):
        return self.c, self.A, self.b, ["<="] * self.b.size


def _stopping_rows(n: int, width: int):
    """Stopping rows for ``width`` variables per pair (i, j), side by side:
    the row of a variable v_{i,j} has j on v_{i,j} and 1 on every variable
    of the pairs (i, k), i <= k < j.  Also returns j as floats."""
    i, j = np.triu_indices(n)
    r = np.arange(i.size)
    earlier = (i[:, None] == i) & (r[:, None] > r)
    rows = np.kron(earlier, np.ones((width, width)))
    j = j + 1.0
    np.fill_diagonal(rows, np.repeat(j, width))
    return rows, j


def build_strong_primal(n: int) -> LinearProgram:
    """Stopping LP for the best-buyer objective; n(n+1)/2 variables."""
    n = check_size("build_strong_primal", "n", n, cap=SIZE_CAP)
    rows, j = _stopping_rows(n, 1)
    return LinearProgram(n=n, c=j / (n * (n + 1)), A=rows, b=np.ones(j.size))


def build_weak_primal(n: int) -> LinearProgram:
    """Max-min LP behind the weak lower bound; 2 n(n+1)/2 + 1 variables."""
    n = check_size("build_weak_primal", "n", n, cap=SIZE_CAP)
    rows, j = _stopping_rows(n, 2)
    m = rows.shape[0]
    A = np.zeros((m + 2, m + 1))
    A[:m, :m] = rows
    w = j / (n * n + n)
    A[m, :m:2] = -2.0 * w
    A[m + 1, :m:2] = -1.5 * w * (2 * n - j) / n
    A[m + 1, 1:m:2] = -1.5 * w * (j - 1) / n
    A[m:, m] = 1.0
    c = np.zeros(m + 1)
    c[m] = 1.0
    return LinearProgram(n=n, c=c, A=A, b=np.r_[np.ones(m), 0.0, 0.0])


@dataclass
class PrimalSolution:
    """A point v of either primal, in the column order of ``LinearProgram``,
    with a from-scratch residual check.

    ``pivots`` is the simplex pivot count (0 for a point built by hand)."""

    v: np.ndarray
    objective_value: float
    pivots: int = 0

    def max_violation(self, lp: LinearProgram) -> float:
        r = np.einsum("ij,j", lp.A, self.v) - lp.b
        return float(max(np.max(r), np.max(-self.v), 0.0))


def simplex_solve(lp: LinearProgram) -> PrimalSolution:
    """Solve an LP built here; the solution is the simplex's point."""
    result = simplex_solve_arrays(*lp.to_arrays())
    return PrimalSolution(v=result.values,
                          objective_value=float(result.objective),
                          pivots=result.iterations)


# ---------------------------------------------------------------------------
# Dual certificates: one backward sweep
# ---------------------------------------------------------------------------

def _chunks(top):
    """(lo, hi) index ranges covering [0, top) from the top down, each
    ``_CHUNK`` wide but the last."""
    for hi in range(top, 0, -_CHUNK):
        yield max(hi - _CHUNK, 0), hi


def _sweep(n, rhs):
    """Backward sweep behind both dual certificates.  ``rhs`` holds one
    elementwise function of the float array j per family r of rows
    j z_{r,j} + s_j >= rhs_{r,j}, s_j = sum_{k>j} sum_r z_{r,k}; the last
    family goes negative first.

    From j = n down, each active z_{r,j} holds its row with equality.  With
    f families active, s_{j-1} = s_j (j-f)/j + R_j/j (R_j: their rhs summed)
    telescopes in s_j/(j)_f, (j)_f = j (j-1) ... (j-f+1), into one suffix
    cumsum from the stretch's top J (first J = n, s_n = 0):
    s_m/(m)_f = s_J/(J)_f + sum_{k=m+1}^{J} R_k/(k)_{f+1} for m >= f.  A
    stretch runs down in ``_CHUNK``-element chunks, the cumsum carried from
    one to the next, and stops at the chunk that holds its break: the
    largest j where its last family goes negative.  That family is zero
    from there down, and the rest restart there.  Each chunk calls the
    functions of the active families alone, on its own j and the one above
    it, so no n-long rhs or j is held.
    Returns the z arrays, each family's break (0 if none) and the objective
    sum_j j sum_r z_{r,j}: one ``np.einsum`` per ``_BLOCK`` entries from
    j = 1 up, added in block order, so one order on every host."""
    z, breaks = [np.zeros(n) for _ in rhs], [0] * len(rhs)
    top, s_top = n, 0.0
    for f in range(len(rhs), 0, -1):
        for lo, hi in _chunks(top):
            # the chunk holds j = lo+1..hi, rows j = lo+1..end; r is R_{j+1}
            # for each j < top
            end = min(hi + 1, top)
            j = np.arange(lo + 1.0, end + 1.0)
            rows = [fn(j) for fn in rhs[:f]]
            r = sum((rk[1:] for rk in rows[1:]), rows[0][1:])
            s = np.empty(hi - lo)
            a = max(lo, f - 1)
            if a < hi:
                m = ff = j[a - lo:]           # ff: (m)_f, m = a+1..end
                for d in range(1, f):
                    ff = ff * (m - d)
                t = s[a - lo:]                # s_m/(m)_f, then s_m
                np.divide(r[a - lo:], ff[1:] * (m[1:] - f),
                          out=t[:end - a - 1])
                if hi == top:
                    t[-1] = s_top / ff[-1]
                else:                         # the cumsum of the chunk above
                    t[-1] += carry
                np.cumsum(t[::-1], out=t[::-1])
                carry = t[0]
                t *= ff[:hi - a]
            # m < f: the recurrence itself, s_m at index m - 1
            for k in range(min(f - 1, hi) - 1, lo - 1, -1):
                above = s[k + 1 - lo] if k + 1 < hi else s_hi
                s[k - lo] = above * (k + 2 - f) / (k + 2) + r[k - lo] / (k + 2)
            s_hi = s[0]
            for zk, rk in zip(z, rows):
                np.subtract(rk[:hi - lo], s, out=zk[lo:hi])
                zk[lo:hi] /= j[:hi - lo]
            negative = np.flatnonzero(z[f - 1][lo:hi] < 0.0)
            if negative.size:
                top = breaks[f - 1] = lo + int(negative[-1]) + 1
                s_top = s[top - 1 - lo]
                z[f - 1][lo:top] = 0.0
                break
        else:                                 # no break down to j = 1
            break
    objective = 0.0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        objective += np.einsum("i,i", np.arange(lo + 1.0, hi + 1.0),
                               sum((zk[lo:hi] for zk in z[1:]), z[0][lo:hi]))
    return z, breaks, float(objective)


@dataclass(frozen=True)
class StrongDualCertificate:
    n: int
    y_pos: np.ndarray    # y_j >= 0, j = 1..n (index j-1)
    # the first j with y_j > 0 (y_n > 0, so one exists), not a break of
    # the sweep as the weak certificate's j* and j** are
    j_star: int
    objective: float
    min_residual: float

    def to_json_dict(self) -> dict:
        return {"n": self.n, "j_star": self.j_star,
                "objective": self.objective,
                "min_residuals": {"dual": self.min_residual}}


def _strong_rhs(n: int):
    """The strong dual's one family: rhs_j = j/((n+1) n)."""
    return (lambda j: j / ((n + 1.0) * n),)


def strong_dual_certificate(n: int) -> StrongDualCertificate:
    """The sweep's one-family case, rhs_j = j/((n+1) n)."""
    n = check_size("strong_dual_certificate", "n", n, least=2, cap=CERT_CAP)
    rhs = _strong_rhs(n)
    (y,), _, objective = _sweep(n, rhs)
    return StrongDualCertificate(
        n=n, y_pos=y, j_star=int(np.argmax(y > 0.0)) + 1, objective=objective,
        min_residual=_enforce(("dual",), (y,), rhs)[0])


@dataclass(frozen=True)
class WeakDualCertificate:
    n: int
    w1: float
    w2: float
    alpha: np.ndarray
    beta: np.ndarray
    # the sweep's breaks: the largest j where beta (j*) or alpha (j**)
    # went negative and was zeroed, 0 if it never did.  Usually one below
    # the first positive entry, but not always: at n = 5, w1 = 0, alpha_1
    # was zeroed and alpha_2 came out 0, so j** = 1 while alpha_3 > 0
    j_star: int
    j_double_star: int
    objective: float
    min_residual_u: float
    min_residual_v: float

    def to_json_dict(self) -> dict:
        return {"n": self.n, "w1": self.w1, "w2": self.w2,
                "j_star": self.j_star, "j_double_star": self.j_double_star,
                "objective": self.objective,
                "min_residuals": {"u": self.min_residual_u,
                                  "v": self.min_residual_v}}


def _weak_rhs(n: int, w1: float, w2: float):
    """The weak dual's two families, (ru, rv)."""
    denom = n * n + n
    return (lambda j: (2.0 * j / denom * w1
                       + 3.0 * j * (2.0 * n - j) / (2.0 * n * denom) * w2),
            lambda j: 3.0 * j * (j - 1.0) / (2.0 * n * denom) * w2)


def weak_dual_certificate(n: int, w1: float, w2: float) -> WeakDualCertificate:
    """The sweep's two-family case, rhs (ru, rv).  j* and j** are its
    breaks: the largest j where beta (alpha) went negative and was zeroed,
    or 0 if it never did.  Unlike the strong j*, the first j with y_j > 0,
    a break may sit more than one below its family's first positive
    entry."""
    n = check_size("weak_dual_certificate", "n", n, least=2, cap=CERT_CAP)
    w1 = check_real("weak_dual_certificate", "w1", w1)
    w2 = check_real("weak_dual_certificate", "w2", w2)
    if not (w1 >= 0 and w2 >= 0 and abs(w1 + w2 - 1.0) <= 1e-12):
        raise ValueError(f"need finite w1, w2 >= 0 with w1 + w2 = 1, got {w1}, {w2}")
    rhs = _weak_rhs(n, w1, w2)
    (alpha, beta), (j_double_star, j_star), objective = _sweep(n, rhs)
    res_u, res_v = _enforce(("u", "v"), (alpha, beta), rhs)
    return WeakDualCertificate(
        n=n, w1=w1, w2=w2, alpha=alpha, beta=beta, j_star=j_star,
        j_double_star=j_double_star, objective=objective,
        min_residual_u=res_u, min_residual_v=res_v)


# ---------------------------------------------------------------------------
# Feasibility verification (recomputes every slack from scratch)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    min_residuals: tuple    # per family, the smallest slack
    argmins: tuple          # per family, the (1-based) j where it falls
    min_residual: float     # overall, the earlier family winning a tie
    argmin_j: int


def verify_dual_feasibility(z, rhs) -> FeasibilityReport:
    """Recompute every slack of a dual point given as one array z[r] over j
    per variable r of a pair (i, j), whose rows read

        j z_{r,j} + sum_{k>j} sum_{r'} z_{r',k} >= rhs_{r,j};

    the strong dual has one family (y), the weak dual two (alpha, beta).
    ``rhs`` holds one function of j per family, which returns rhs_{r,j}
    elementwise.  A residual is LHS - RHS; feasibility means every
    residual >= 0.  The slacks are computed in ``_CHUNK``-element chunks
    from j = n down, each chunk calling every family's function on its own
    j and carrying the suffix sum from one to the next; a family's lowest
    j wins a tie for its smallest slack.  Raises ``ValueError`` unless z is
    one or more numpy arrays of one length with one function each, and
    each function gives one entry per j."""
    if not len(z) or len(rhs) != len(z):
        raise ValueError(f"need one rhs function per dual family, got "
                         f"{len(rhs)} for {len(z)}")
    n = np.size(z[0])
    if any(not isinstance(zr, np.ndarray) or zr.shape != (n,) for zr in z):
        raise ValueError("need numpy dual arrays of one length, got "
                         f"{[getattr(zr, 'shape', type(zr)) for zr in z]}")
    found = [(math.inf, 0)] * len(z)
    for lo, hi in _chunks(n):
        j = np.arange(lo + 1.0, hi + 1.0)
        rows = [fn(j) for fn in rhs]
        if any(np.shape(rr) != j.shape for rr in rows):
            raise ValueError(f"rhs for j = {lo + 1}..{hi} gave shapes "
                             f"{[np.shape(rr) for rr in rows]}, need "
                             f"{j.shape}")
        # suffix: sum_{k>j} of every family for j = lo+1..hi, 0 at j = n
        end = min(hi + 1, n)
        suffix = np.zeros(hi - lo)
        part = suffix[:end - lo - 1]
        part[:] = z[0][lo + 1:end]    # from z[0]: 0 + -0.0 would drop the sign
        for zr in z[1:]:
            part += zr[lo + 1:end]
        if hi < n - 1:                # the suffix above, but no 0 of j = n
            part[-1] += carry
        np.cumsum(part[::-1], out=part[::-1])
        carry = suffix[0]
        for r, (zr, rr) in enumerate(zip(z, rows)):
            residual = j * zr[lo:hi] + suffix - rr
            arg = int(np.argmin(residual))
            value = float(residual[arg])
            if value <= found[r][0] or value != value:  # NaN as np.argmin
                found[r] = (value, lo + arg + 1)
    return FeasibilityReport(*zip(*found), *min(found, key=lambda f: f[0]))


def _enforce(families, z, rhs) -> tuple:
    """Per-family minimum slacks of z; raises if one is < -SLACK_TOL or NaN."""
    report = verify_dual_feasibility(z, rhs)
    for name, res, j in zip(families, report.min_residuals, report.argmins):
        if not res >= -SLACK_TOL:
            raise NumericError(f"dual certificate infeasible: {name} row at "
                               f"j={j} has slack {res:.3e}")
    return report.min_residuals
