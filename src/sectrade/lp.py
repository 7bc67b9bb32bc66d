"""The two stopping LPs, their dual certificates, and feasibility checks.

The *strong* pair bounds how often any rank-based stopping rule can end
with the single best buyer.  Its primal, over variables x_{i,j} = P(sell
to the j-th buyer, best-so-far, when the seller arrived i-th), is

    max  sum_{i<=j} (1/(n+1)) (j/n) x_{i,j}
    s.t. j x_{i,j} + sum_{k=i}^{j-1} x_{i,k} <= 1,      x >= 0,

and the dual asks for y_{i,j} >= 0 with j y_{i,j} + sum_{k>j} y_{i,k} >=
j/((n+1) n).  The closed-form certificate uses suffix harmonic sums,

    a_j = (1 - sum_{k=j}^{n-1} 1/k) / ((n+1) n),   y_{i,j} = max(a_j, 0),

whose objective sum_j j y_j falls to (e^2+1)/(4e^2) as n grows.

The *weak* pair adds second-best stopping variables y_{i,j} and a scalar A
bounded by the two welfare expressions that drive the 1.76239 bound; its
dual certificate comes from the two backward sweeps of
``weak_dual_certificate`` (one running suffix sum, assignments that hold
the binding constraint with equality, and two break points j*, j**).
Each sweep's recurrence telescopes, so both run as suffix cumsums.

Both primals are built as numpy arrays c, A, b (maximise c v subject to
A v <= b, v >= 0): row and column r belong to the r-th pair (i, j) of
``np.triu_indices(n)``, shifted to 1-based, and a solution is the point v
the simplex returns, in that column order.

Dual variables never depend on the seller position i, so certificates
store one array over j per variable of a pair, and one O(n) verifier
checks either kind; that is what makes n = 2 * 10^6 routine.  A
constructor whose own point fails that check raises ``NumericError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SizeCapError
from .simplex import simplex_solve_arrays

SIZE_CAP = 60
#: Largest n of either dual certificate; the weak one peaks near 130 B per n.
CERT_CAP = 10**7
#: How far below 0 a certificate's slack may fall to roundoff before it fails.
SLACK_TOL = 1e-12


@dataclass(frozen=True)
class LinearProgram:
    """max c @ v subject to A @ v <= b and v >= 0, for one of the primals.

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


def _check_cap(n: int) -> None:
    if not (1 <= n <= SIZE_CAP):
        raise SizeCapError(f"need 1 <= n <= {SIZE_CAP}, got {n}")


def _check_cert_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > CERT_CAP:
        raise SizeCapError(f"dual certificates capped at n={CERT_CAP}, got {n}")


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
    _check_cap(n)
    rows, j = _stopping_rows(n, 1)
    return LinearProgram(n=n, c=j / (n * (n + 1)), A=rows, b=np.ones(j.size))


def build_weak_primal(n: int) -> LinearProgram:
    """Max-min LP behind the weak lower bound; 2 n(n+1)/2 + 1 variables."""
    _check_cap(n)
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
        return float(max(np.max(lp.A @ self.v - lp.b), np.max(-self.v), 0.0))


def simplex_solve(lp: LinearProgram) -> PrimalSolution:
    """Solve an LP built here; the solution is the simplex's point."""
    result = simplex_solve_arrays(*lp.to_arrays())
    return PrimalSolution(v=result.values,
                          objective_value=float(result.objective),
                          pivots=result.iterations)


# ---------------------------------------------------------------------------
# Strong dual certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongDualCertificate:
    n: int
    a: np.ndarray        # a_j, j = 1..n (index j-1)
    y_pos: np.ndarray    # max(a_j, 0)
    j_star: int
    objective: float
    min_residual: float

    def to_json_dict(self) -> dict:
        return {"n": self.n, "j_star": self.j_star,
                "objective": self.objective,
                "min_residuals": {"dual": self.min_residual}}


def strong_dual_certificate(n: int) -> StrongDualCertificate:
    """O(n) closed-form dual-feasible point via suffix harmonic sums."""
    _check_cert_n(n)
    inv_k = 1.0 / np.arange(1.0, float(n))        # 1/k for k = 1..n-1
    suffix = np.zeros(n)
    suffix[:n - 1] = np.cumsum(inv_k[::-1])[::-1]  # sum_{k=j}^{n-1} 1/k
    a = (1.0 - suffix) / (n * (n + 1.0))
    y = np.maximum(a, 0.0)
    j = np.arange(1.0, n + 1.0)
    objective = float(j @ y)
    report = verify_dual_feasibility((y,), (j / ((n + 1.0) * n),))
    return StrongDualCertificate(
        n=n, a=a, y_pos=y, j_star=math.ceil(1.0 + (n - 1.0) / math.e),
        objective=objective, min_residual=_enforce(report, ("dual",))[0])


# ---------------------------------------------------------------------------
# Weak dual certificate (backward-sweep construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakDualCertificate:
    n: int
    w1: float
    w2: float
    alpha: np.ndarray
    beta: np.ndarray
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
    j = np.arange(1.0, n + 1.0)
    denom = n * n + n
    ru = 2.0 * j / denom * w1 + 3.0 * j * (2.0 * n - j) / (2.0 * n * denom) * w2
    rv = 3.0 * j * (j - 1.0) / (2.0 * n * denom) * w2
    return ru, rv


def weak_dual_certificate(n: int, w1: float, w2: float) -> WeakDualCertificate:
    """Backward-sweep dual point: assign alpha_j/beta_j so the binding
    constraint holds with equality against the running suffix sum, break to
    a second alpha-only sweep when beta would go negative (j*), and stop
    that sweep when alpha would too (j**).

    Both sweeps are linear recurrences in the running sum s_j taken before
    step j (s_n = 0), so each is a suffix cumsum rather than a loop:

    * sweep 1, s_{j-1} = s_j (j-2)/j + (ru_j + rv_j)/j, telescopes in
      s_j / (j (j-1)) for j >= 3, and s_1 = (ru_2 + rv_2)/2;
    * sweep 2, s_{j-1} = s_j (j-1)/j + ru_j/j, telescopes in s_j / j,
      starting from s_{j*}.

    j* is the largest j with beta_j < 0 and j** the largest j <= j* with
    alpha_j < 0 in the second sweep (0 when there is none)."""
    _check_cert_n(n)
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise ValueError(f"need finite w1, w2, got {w1}, {w2}")
    if w1 < 0 or w2 < 0 or abs(w1 + w2 - 1.0) > 1e-12:
        raise ValueError(f"need w1, w2 >= 0 with w1 + w2 = 1, got {w1}, {w2}")
    ru, rv = _weak_rhs(n, w1, w2)
    jj = np.arange(1.0, n + 1.0)

    s = np.zeros(n)                       # s[j-1] = s_j
    k = jj[2:]                            # k = 3..n
    terms = (ru[2:] + rv[2:]) / (k * (k - 1.0) * (k - 2.0))
    m = jj[1:-1]                          # m = 2..n-1
    s[1:-1] = m * (m - 1.0) * np.cumsum(terms[::-1])[::-1]
    s[0] = (ru[1] + rv[1]) / 2.0
    alpha = (ru - s) / jj
    beta = (rv - s) / jj
    negative = np.flatnonzero(beta < 0.0)
    j_star = int(negative[-1]) + 1 if negative.size else 0
    # the second sweep reassigns alpha_{j*}; beta stays 0 from j* down
    alpha[:j_star] = 0.0
    beta[:j_star] = 0.0

    j_double_star = 0
    if j_star:
        k = jj[1:j_star]                  # k = 2..j*
        terms = np.empty(j_star)
        terms[:-1] = ru[1:j_star] / (k * (k - 1.0))
        terms[-1] = s[j_star - 1] / j_star
        js = jj[:j_star]
        s2 = js * np.cumsum(terms[::-1])[::-1]
        alpha2 = (ru[:j_star] - s2) / js
        negative = np.flatnonzero(alpha2 < 0.0)
        j_double_star = int(negative[-1]) + 1 if negative.size else 0
        alpha[j_double_star:j_star] = alpha2[j_double_star:]

    objective = float(jj @ (alpha + beta))
    report = verify_dual_feasibility((alpha, beta), (ru, rv))
    res_u, res_v = _enforce(report, ("u", "v"))
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
    A residual is LHS - RHS; feasibility means every residual >= 0."""
    total = sum(z[1:], z[0])  # from z[0]: 0 + -0.0 would drop the sign
    suffix = np.zeros(total.size)
    suffix[:-1] = np.cumsum(total[:0:-1])[::-1]   # sum_{k>j} of every family
    j = np.arange(1.0, total.size + 1.0)
    found = []
    for zr, rr in zip(z, rhs):
        residual = j * zr + suffix - rr
        arg = int(np.argmin(residual))
        found.append((float(residual[arg]), arg + 1))
    return FeasibilityReport(*zip(*found), *min(found, key=lambda f: f[0]))


def _enforce(report: FeasibilityReport, families) -> tuple:
    """Per-family minimum slacks; raises if one is below -SLACK_TOL or NaN."""
    for name, res, j in zip(families, report.min_residuals, report.argmins):
        if not res >= -SLACK_TOL:
            raise NumericError(f"dual certificate infeasible: {name} row at "
                               f"j={j} has slack {res:.3e}")
    return report.min_residuals
