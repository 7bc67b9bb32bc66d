"""Exact success probabilities for the trading policies.

Everything here is closed form or quadrature; no sampling.  The module
covers four groups of quantities:

* the buy-then-resell policy's probability ``delta_mu`` of finishing with
  the best buyer when ``mu`` buyers outprice the seller, its limit
  (e^2+1)/(4e^2), and the matching strong-ratio constant 4e^2/(e^2+1);

* the coin-flip policy's exact rational holder probabilities
  1/(2 i (i+1));

* the double-threshold policy's success probabilities: asymptotic
  best-buyer and second-buyer limits, the n-independent sale probability
  1 - (1/3 + t2^3/6 + t1^2 t2 / 2), and the finite-n per-rank
  probabilities p_i of all ranks at once, as 1D integrals in the buyer's
  time once the seller's is integrated out in closed form;

* threshold analysis: the rank-monotonicity cutoffs I1/I2, the
  f(i, n) = i (i+1) p_i unimodality table, and the grid-plus-refine
  threshold optimizer for both ratio objectives.

The quadrature splits every double integral at the threshold lines and the
diagonal so each panel integrand is smooth, and evaluates (1-t)^m as
exp(m log1p(-t)) so large exponents underflow cleanly to zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeCapError
from .model import Thresholds
from .policies import SELL_CUTOFF, SKIP_CUTOFF
from .quadrature import integrate_graded, integrate_rect, integrate_wedge

E = math.e

#: Absolute tolerance of every double-threshold probability p_i.
_ALG3_TOL = 1e-8

#: Largest n for the full per-rank table of ``alg3_report`` and
#: ``unimodality_f``: refining it keeps about 0.3 kB per rank.  A single
#: rank (``alg3_pi_parts``) has no cap.
ALG3_TABLE_CAP = 100_000


def pow1m(t, m):
    """(1 - t)**m for t in [0, 1] and integer m >= 0, elementwise over the
    broadcast of the arrays t and m; stable for large m."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(m * np.log1p(-t))
    return np.where(m == 0, 1.0, np.where(t >= 1.0, 0.0, out))


# ---------------------------------------------------------------------------
# Buy-then-resell policy: delta_mu and its limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongExactReport:
    """delta_mu split into its three disjoint success scenarios."""

    mu: int
    alpha: float
    beta: float
    gamma: float
    delta: float

    def to_json_dict(self) -> dict:
        return {"mu": self.mu, "alpha": self.alpha, "beta": self.beta,
                "gamma": self.gamma, "delta": self.delta}


def delta_mu(mu: int) -> StrongExactReport:
    """Probability that the buy-then-resell policy ends with the top buyer.

    With s the seller's arrival time and t the top buyer's, the success
    probability splits into three regions: seller before 1/e, seller in
    [1/e, (e-1)/e], and seller after (e-1)/e (where winning additionally
    needs an earlier middle buyer to have beaten the seller).  Each region
    is a smooth double integral in (s, t) involving (1-t)^(mu-1).
    """
    if mu < 1:
        raise ValueError(f"need mu >= 1, got {mu}")
    rtol = 1e-9 / 3.0

    def f_alpha(s, t):
        q = pow1m(t, mu - 1)
        return q + (1.0 - q) / (E * t)

    def f_beta(s, t):
        return pow1m(t, mu - 1) + 0.0 * s

    def f_gamma(s, t):
        return s * (1.0 - pow1m(t, mu - 1)) / t

    alpha = integrate_rect(f_alpha, 0.0, SELL_CUTOFF, SELL_CUTOFF, 1.0,
                           tol=rtol)
    beta = integrate_wedge(f_beta, SELL_CUTOFF, SKIP_CUTOFF, 1.0, tol=rtol)
    gamma = integrate_wedge(f_gamma, SELL_CUTOFF, 1.0, 1.0, tol=rtol)
    return StrongExactReport(mu=mu, alpha=alpha, beta=beta, gamma=gamma,
                             delta=alpha + beta + gamma)


def delta_limit() -> float:
    """Closed-form limit of delta_mu as mu grows: (e^2+1)/(4e^2)."""
    return (E * E + 1.0) / (4.0 * E * E)


def delta_limit_quadrature() -> float:
    """The same limit by quadrature of its two defining integrals."""
    part1 = integrate_rect(lambda s, t: 1.0 / (E * t) + 0.0 * s,
                           0.0, SELL_CUTOFF, SELL_CUTOFF, 1.0, tol=1e-10 / 2)
    part2 = integrate_wedge(lambda s, t: s / t, SELL_CUTOFF, 1.0, 1.0,
                            tol=1e-10 / 2)
    return part1 + part2


def strong_ratio_limit() -> float:
    """The strong competitive-ratio constant 4e^2/(e^2+1) ~= 3.523188."""
    return 4.0 * E * E / (E * E + 1.0)


def delta_gap_closed_form(mu: int) -> float:
    """Closed form for delta_mu - delta_{mu+1} (log-space for large mu)."""
    if mu < 1:
        raise ValueError(f"need mu >= 1, got {mu}")
    log_den = (mu + 2) + math.log(mu) + math.log(mu + 1) + math.log(mu + 2)
    term1 = math.exp(math.log(mu + 1 + E) + (mu + 1) * math.log(E - 1) - log_den)
    term2 = math.exp(math.log(2 * E + mu * E - mu) - log_den)
    return term1 - term2


# ---------------------------------------------------------------------------
# Coin-flip policy: exact rational holder probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alg2HolderProb:
    """Holder probability of the rank-i buyer, with its two-case split."""

    i: int
    mu: int
    p: Fraction
    p1: Fraction  # an early middle buyer forced the purchase
    p2: Fraction  # the coin forced the purchase


def alg2_holder_prob(i: int, mu: int) -> Alg2HolderProb:
    """p_i = 1/(2 i (i+1)) for the coin-flip policy, exactly.

    The split: p1 = (1/(i(i+1)) - 1/(mu(mu+1)))/2 covers orders where some
    weaker-than-i but stronger-than-seller buyer arrived before the seller,
    and p2 = 1/(2 mu (mu+1)) the orders decided by the coin alone.
    """
    if not (1 <= i <= mu):
        raise ValueError(f"need 1 <= i <= mu, got i={i}, mu={mu}")
    p1 = (Fraction(1, i * (i + 1)) - Fraction(1, mu * (mu + 1))) / 2
    p2 = Fraction(1, 2 * mu * (mu + 1))
    return Alg2HolderProb(i=i, mu=mu, p=p1 + p2, p1=p1, p2=p2)


# ---------------------------------------------------------------------------
# Double-threshold policy: asymptotic limits
# ---------------------------------------------------------------------------

def _log_term(t1, t2):
    """t1^2 ln(t2/t1) with the continuous extension 0 at t1 = 0."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = t1 * t1 * np.log(t2 / t1)
    return np.where(t1 > 0.0, val, 0.0)


def _p1_limit_arr(t1, t2):
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return (2.0 + t1 * t1 * (3.0 - 6.0 * t2) + (3.0 - 2.0 * t2) * t2 * t2
            + 6.0 * _log_term(t1, t2)) / 12.0


def _p2_limit_arr(t1, t2):
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return (2.0 + 8.0 * t1 ** 3 + t1 * t1 * (3.0 - 12.0 * t2)
            + (3.0 - 4.0 * t2) * t2 * t2 + 6.0 * _log_term(t1, t2)) / 12.0


def alg3_p1_limit(th: Thresholds) -> float:
    """Large-n probability that the double-threshold policy sells to the
    best buyer.  At t1 = 0 the t1^2 ln(t2/t1) term is taken as its limit 0.
    """
    return float(_p1_limit_arr(th.t1, th.t2))


def alg3_p2_limit(th: Thresholds) -> float:
    """Large-n probability of selling to the second-best buyer."""
    return float(_p2_limit_arr(th.t1, th.t2))


def _sale_prob_arr(t1, t2):
    return 1.0 - (1.0 / 3.0 + t2 ** 3 / 6.0 + t1 * t1 * t2 / 2.0)


def alg3_sale_prob(th: Thresholds) -> float:
    """Probability that the double-threshold policy sells at all.

    Exact for every n >= 2: the three disjoint failure events involve only
    the seller and the top two buyers (seller last among the three; seller
    between them with the runner-up before t2; seller first with the best
    buyer before t1 and the runner-up before t2).
    """
    return float(_sale_prob_arr(th.t1, th.t2))


@dataclass(frozen=True)
class Alg3Ratio:
    """Asymptotic ratio bound at given thresholds, via both routes."""

    thresholds: Thresholds
    via_p1: float     # 1 / (2 p1_limit): all value on the top buyer
    via_sale: float   # 1 / sale_prob:   all buyers equally valuable
    bound: float      # max of the two


def alg3_ratio(th: Thresholds) -> Alg3Ratio:
    p1 = alg3_p1_limit(th)
    sale = alg3_sale_prob(th)
    via_p1 = 1.0 / (2.0 * p1) if p1 > 0 else math.inf
    via_sale = 1.0 / sale if sale > 0 else math.inf
    return Alg3Ratio(thresholds=th, via_p1=via_p1, via_sale=via_sale,
                     bound=max(via_p1, via_sale))


# ---------------------------------------------------------------------------
# Double-threshold policy: finite-n probabilities
# ---------------------------------------------------------------------------
#
# With s the seller's time and t the rank-i buyer's, the (s, t) square
# splits at the thresholds and at t = s into five regions k.  Each carries
# a "record" factor F (probability that the stronger early buyers cleared
# out in time); regions with t > t2 also carry a second-chance factor
# G = t F (sell as second-best) and a late-runner factor H.  Every factor
# is a polynomial in s, so the s-integral is done by hand:
#
#   k  t range       s range    int F ds                    int H ds
#   1  t1 < t < t2   [0, t1]    t1^2 / t                    -
#   2  t1 < t < t2   [t1, t]    (t^2 - t1^2) / (2t)         -
#   3  t2 < t < 1    [0, t1]    t1^2 t2 / t^2               t1^2 (1 - t2/t)
#   4  t2 < t < 1    [t1, t2]   t2 (t2^2 - t1^2) / (2t^2)   (t2^2 - t1^2)(1 - t2/t)/2
#   5  t2 < t < 1    [t2, t]    (t^3 - t2^3) / (3t^2)       (t^2 - t2^2)/2 - (t^3 - t2^3)/(3t)
#
# With q = 1 - t, F_k and H_k these s-integrals and L_k the length of the
# s range, f(i, n) = i (i+1) p_i is the sum of eight (b_k1, b_k2) pairs,
# one per region k = 1..5 and one per second chance on r = 3, 4, 5:
#   b_k1 = i(i+1) int F_k q^(i-1),         b_k2 = i(i+1) int (L_k - F_k) q^(n-1)
#   b_k1 = i(i+1)(i-1) int t F_r q^(i-2),  b_k2 = i(i+1)(n-1) int H_r q^(n-2).
# The second-best share p_i2 = (i-1) int_t2^1 q^(i-2) [q^(n-i) (t^2+t1^2)/2
# + (1 - q^(n-i)) t (F_3 + F_4 + F_5)] splits, as q^(i-2) q^(n-i) = q^(n-2),
# into those second-chance b_k1 / (i(i+1)) and (i-1) times a rank-free
# integral.  So only q^(i-1) (and q^(i-2) = q^(i-1) / q) depends on the
# rank: all ranks come from one (rank x node) power table and a product.

def _alg3_pieces(ranks, n: int, th: Thresholds):
    """(b_k1, b_k2, p_i2) at the given ranks: two (8, ranks) arrays and one
    (ranks,) array.  Ranks above n are allowed for the b pieces."""
    ranks = np.asarray(ranks)
    t1, t2 = th.t1, th.t2
    i1 = ranks - 1.0

    def estimate(rules):
        (ta, wa), (tb, wb) = rules
        t, w = np.concatenate((ta, tb)), np.concatenate((wa, wb))
        hi = np.arange(t.size) >= ta.size  # the nodes of [t2, 1]
        # per node (rows) and region (columns): int F ds, the length L of
        # the s range and int H ds, zero off the region's t range
        on = hi[:, None] == (np.arange(5) >= 2)
        F = on * np.column_stack((
            t1 * t1 / t, (t * t - t1 * t1) / (2.0 * t), t1 * t1 * t2 / t ** 2,
            t2 * (t2 * t2 - t1 * t1) / (2.0 * t * t),
            (t ** 3 - t2 ** 3) / (3.0 * t * t)))
        L = on * np.column_stack(np.broadcast_arrays(t1, t - t1, t1, t2 - t1,
                                                     t - t2))
        H = hi[:, None] * np.column_stack((
            t1 * t1 * (1.0 - t2 / t), (t2 * t2 - t1 * t1) * (1.0 - t2 / t) / 2,
            (t * t - t2 * t2) / 2.0 - (t ** 3 - t2 ** 3) / (3.0 * t)))
        late = hi * ((t * t + t1 * t1) / 2.0 - t * F[:, 2:].sum(axis=1))
        # rank-free parts; q^(n-2) enters only with the factor n - 1
        wq1 = w * pow1m(t, n - 1)
        wq2 = w * pow1m(t, max(n - 2, 0))
        b2 = np.concatenate((wq1 @ (L - F), (n - 1) * (wq2 @ H)))
        # rank parts: q^(i-1) for chunks of at most 2^16 (rank x node) cells
        W = np.column_stack((w[:, None] * F,
                             (w * t / (1.0 - t))[:, None] * F[:, 2:]))
        b1 = np.empty((ranks.size, 8))
        step = max(1, (1 << 16) // max(t.size, 1))
        for first in range(0, ranks.size, step):
            rows = slice(first, first + step)
            b1[rows] = pow1m(t, i1[rows, None]) @ W
        b1[:, 5:] *= i1[:, None]
        p2 = b1[:, 5:].sum(axis=1) + i1 * (wq2 @ late)
        # row 0: the rank-free b_k2; then per rank the b_k1 and p_i2
        return np.vstack((np.append(b2, 0.0), np.column_stack((b1, p2))))

    # refined on the p scale (pieces over i (i+1)), 16 pieces to a p_i
    table = integrate_graded(estimate, ((t1, t2), (t2, 1.0)), n,
                             _ALG3_TOL / 16.0)
    scale = ranks * (ranks + 1.0)
    return scale * table[1:, :8].T, np.outer(table[0, :8], scale), table[1:, 8]


def alg3_pi_finite(i: int, n: int, th: Thresholds) -> float:
    """Finite-n probability that the rank-i buyer ends up with the item."""
    p, _, _ = alg3_pi_parts(i, n, th)
    return p


def alg3_pi_parts(i: int, n: int,
                  th: Thresholds) -> tuple[float, float, float]:
    """(p_i, p_i1, p_i2): total and the best-so-far / second-best split.

    p_i2 (sold as the second-best-so-far buyer) carries the factor i - 1,
    so it is exactly 0 for the top buyer.
    """
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    b1, b2, p2 = _alg3_pieces([i], n, th)
    p, p2 = float(b1.sum() + b2.sum()) / (i * (i + 1)), float(p2[0])
    return p, p - p2, p2


@dataclass(frozen=True)
class Alg3ExactReport:
    """Per-rank probabilities and asymptotic summary at fixed thresholds."""

    n: int
    th: Thresholds
    p: tuple
    p1_limit: float
    p2_limit: float
    sale_prob: float
    ratio: float

    def f_values(self) -> tuple:
        return tuple(i * (i + 1) * self.p[i - 1] for i in range(1, self.n + 1))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "t1": self.th.t1, "t2": self.th.t2,
                "p": list(self.p), "p1_limit": self.p1_limit,
                "p2_limit": self.p2_limit, "sale_prob": self.sale_prob,
                "ratio": self.ratio}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "p_i", "f_i"])
            for i, (pi, fi) in enumerate(zip(self.p, self.f_values()), start=1):
                writer.writerow([i, repr(pi), repr(fi)])


def _check_table_size(n: int) -> None:
    if n > ALG3_TABLE_CAP:
        raise SizeCapError(f"full per-rank table capped at n={ALG3_TABLE_CAP}, "
                           f"got {n}; a single rank (--i) has no cap")


def alg3_report(n: int, th: Thresholds) -> Alg3ExactReport:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_table_size(n)
    ranks = np.arange(1, n + 1)
    b1, b2, _ = _alg3_pieces(ranks, n, th)
    p = tuple(((b1.sum(axis=0) + b2.sum(axis=0)) / (ranks * (ranks + 1.0)))
              .tolist())
    rep = alg3_ratio(th)
    return Alg3ExactReport(n=n, th=th, p=p, p1_limit=alg3_p1_limit(th),
                           p2_limit=alg3_p2_limit(th),
                           sale_prob=alg3_sale_prob(th), ratio=rep.bound)


# ---------------------------------------------------------------------------
# Unimodality of f(i, n) = i (i+1) p_i
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnimodalityReport:
    """f(i, n) with its eight-piece decomposition f = sum_k (b_k1 + b_k2).

    ``beta_k1[k][i-1]`` depends only on the buyer rank i; ``beta_k2``
    carries the n-dependence.  ``unimodal`` flags the f(1) < f(2) > f(3) >
    ... shape.
    """

    n: int
    th: Thresholds
    f: tuple
    beta_k1: tuple
    beta_k2: tuple
    unimodal: bool


def unimodality_f(n: int, th: Thresholds) -> UnimodalityReport:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_table_size(n)
    b1, b2, _ = _alg3_pieces(np.arange(1, n + 1), n, th)
    f_vals = (b1.sum(axis=0) + b2.sum(axis=0)).tolist()
    unimodal = f_vals[0] < f_vals[1] and all(
        f_vals[j] > f_vals[j + 1] for j in range(1, n - 1))
    return UnimodalityReport(
        n=n, th=th, f=tuple(f_vals),
        beta_k1=tuple(map(tuple, b1.tolist())),
        beta_k2=tuple(map(tuple, b2.tolist())),
        unimodal=unimodal)


@dataclass(frozen=True)
class RankComparisonConstants:
    """The three numeric anchors behind the f(1) < f(2) > f(3) comparison.

    ``gain_2_vs_1``  = sum_k b_k1(2) - sum_k b_k1(1)
    ``drop_2_vs_3``  = sum_k b_k1(2) - sum_k b_k1(3)
    ``tail_gain_3_vs_2_at_n2`` = sum_k (b_k2(3, 2) - b_k2(2, 2))

    The comparison f(2, n) > f(3, n) reduces to drop_2_vs_3 >
    tail_gain_3_vs_2_at_n2.  Note: the latter two are conventionally quoted
    divided by 3, the arrival weight 1/(n+1) at the n = 2 reference point;
    the raw values here are pinned by the identity f = sum_k (b_k1 + b_k2).
    """

    gain_2_vs_1: float
    drop_2_vs_3: float
    tail_gain_3_vs_2_at_n2: float


def rank_comparison_constants(th: Thresholds) -> RankComparisonConstants:
    b1, b2, _ = _alg3_pieces([1, 2, 3], 2, th)
    f1, f2 = b1.sum(axis=0).tolist(), b2.sum(axis=0).tolist()
    return RankComparisonConstants(
        gain_2_vs_1=f1[1] - f1[0],
        drop_2_vs_3=f1[1] - f1[2],
        tail_gain_3_vs_2_at_n2=f2[2] - f2[1])


# ---------------------------------------------------------------------------
# Rank-monotonicity cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityThresholds:
    """Ranks beyond which the two difference sequences become decreasing."""

    t_star: float
    I1: int
    I2: int


def mono_thresholds(t_star: float) -> MonotonicityThresholds:
    """Ceiling formulas for the monotonicity cutoffs at inner time t_star."""
    if not (0.0 < t_star <= 1.0):
        raise ValueError(f"need 0 < t_star <= 1, got {t_star}")
    i1 = (4.0 - 5.0 * t_star + math.sqrt(t_star ** 2 - 8.0 * t_star + 8.0)) / (2.0 * t_star)
    i2 = (6.0 - 5.0 * t_star + math.sqrt(t_star ** 2 - 12.0 * t_star + 12.0)) / (2.0 * t_star)
    return MonotonicityThresholds(t_star=t_star, I1=math.ceil(i1), I2=math.ceil(i2))


# ---------------------------------------------------------------------------
# Threshold optimisation
# ---------------------------------------------------------------------------

def _objective_arr(name: str, t1, t2):
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = _p1_limit_arr(t1, t2)
        if name == "upper_bound":
            a = np.where(p1 > 0, 1.0 / (2.0 * p1), np.inf)
            sale = _sale_prob_arr(np.asarray(t1, dtype=float),
                                  np.asarray(t2, dtype=float))
            b = np.where(sale > 0, 1.0 / sale, np.inf)
        elif name == "lower_bound_family":
            p2 = _p2_limit_arr(t1, t2)
            a = np.where(p1 > 0, 1.0 / (2.0 * p1), np.inf)
            b = np.where(p1 + p2 > 0, (2.0 / 3.0) / (p1 + p2), np.inf)
        else:
            raise ValueError(f"unknown objective {name!r}")
    return np.maximum(a, b)


_GRID_CELLS_MAX = 2000 * 2000  # coarse scan: 1e6 cells at the default 1e-3


def optimize_thresholds(objective: str,
                        grid_step: float = 1e-3) -> tuple[Thresholds, float]:
    """Minimise a ratio objective over the triangle 0 <= t1 <= t2 <= 1.

    objective "upper_bound" balances the worst single-spike instance
    against the all-ones instance; "lower_bound_family" balances the
    one-high-bid family against the two-high-bids family.  A coarse grid
    scan is followed by shrinking local grids down to a step of 1e-6.
    ``grid_step`` must lie in (0, 1] and keep the coarse grid within
    ``_GRID_CELLS_MAX`` cells.
    """
    if not (math.isfinite(grid_step) and 0.0 < grid_step <= 1.0):
        raise ValueError(f"grid_step must be a finite number in (0, 1], "
                         f"got {grid_step!r}")
    side = math.ceil((1.0 + grid_step / 2) / grid_step)  # len of the arange
    if side * side > _GRID_CELLS_MAX:
        smallest = 1.0 / (math.isqrt(_GRID_CELLS_MAX) - 0.5)
        raise ValueError(f"grid_step {grid_step!r} needs {side}^2 coarse grid "
                         f"cells (cap {_GRID_CELLS_MAX}); the smallest "
                         f"allowed step is {smallest!r}")
    ts = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    t1g, t2g = np.meshgrid(ts, ts, indexing="ij")
    vals = _objective_arr(objective, t1g, t2g)
    vals = np.where(t1g <= t2g, vals, np.inf)
    best = np.unravel_index(int(np.argmin(vals)), vals.shape)
    b1, b2 = float(t1g[best]), float(t2g[best])
    bval = float(vals[best])

    # pattern search: walk the valley at each scale until stuck, then shrink.
    # The objective's valley is far thinner across than along (the balance
    # curve between the two max branches), so t2 is sampled 100x finer.
    step = grid_step
    while step > 1e-6:
        step /= 10.0
        for _ in range(200):
            l1 = np.clip(b1 + np.arange(-10, 11) * step, 0.0, 1.0)
            l2 = np.clip(b2 + np.arange(-1000, 1001) * (step / 100.0), 0.0, 1.0)
            g1, g2 = np.meshgrid(l1, l2, indexing="ij")
            lv = _objective_arr(objective, g1, g2)
            lv = np.where(g1 <= g2, lv, np.inf)
            loc = np.unravel_index(int(np.argmin(lv)), lv.shape)
            if not lv[loc] < bval:
                break
            b1, b2, bval = float(g1[loc]), float(g2[loc]), float(lv[loc])
    return Thresholds(t1=b1, t2=b2), bval

