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
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .model import Thresholds, check_real, check_size
from .policies import SELL_CUTOFF, SKIP_CUTOFF
from .quadrature import integrate_graded, integrate_rect, integrate_wedge

E = math.e

#: Absolute tolerance of every double-threshold probability p_i.
_ALG3_TOL = 1e-8

#: Largest n for the full per-rank table of ``alg3_report`` and
#: ``unimodality_f``: refining it keeps about 0.3 kB per rank.  A single
#: rank (``alg3_pi_parts``) has no cap.
ALG3_TABLE_CAP = 100_000

#: Cells a grid scan evaluates at once (512 kB of doubles): the rank x
#: node power table of the finite-n alg3 pieces and the row chunks of the
#: threshold optimizer's (t1, t2) scans.
_CELLS = 1 << 16


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
        return asdict(self)


def _strong_parts(q, tol: float) -> tuple:
    """delta_mu's (alpha, beta, gamma) given q(t) = (1-t)^(mu-1)."""
    def f_alpha(s, t):
        qt = q(t)
        return qt + (1.0 - qt) / (E * t)

    return (integrate_rect(f_alpha, 0.0, SELL_CUTOFF, SELL_CUTOFF, 1.0, tol),
            integrate_wedge(lambda s, t: q(t), SELL_CUTOFF, SKIP_CUTOFF, 1.0,
                            tol),
            integrate_wedge(lambda s, t: s * (1.0 - q(t)) / t, SELL_CUTOFF,
                            1.0, 1.0, tol))


def delta_mu(mu: int) -> StrongExactReport:
    """Probability that the buy-then-resell policy ends with the top buyer.

    With s the seller's arrival time and t the top buyer's, the success
    probability splits into three regions: seller before 1/e, seller in
    [1/e, (e-1)/e], and seller after (e-1)/e (where winning additionally
    needs an earlier middle buyer to have beaten the seller).  Each region
    is a smooth double integral in (s, t) involving (1-t)^(mu-1).
    """
    mu = check_size("delta_mu", "mu", mu)
    alpha, beta, gamma = _strong_parts(lambda t: pow1m(t, mu - 1), 1e-9 / 3.0)
    return StrongExactReport(mu=mu, alpha=alpha, beta=beta, gamma=gamma,
                             delta=alpha + beta + gamma)


def delta_limit() -> float:
    """Closed-form limit of delta_mu as mu grows: (e^2+1)/(4e^2)."""
    return (E * E + 1.0) / (4.0 * E * E)


def delta_limit_quadrature() -> float:
    """The same limit by quadrature of delta_mu's integrals at q = 0."""
    return sum(_strong_parts(lambda t: 0.0, 1e-10 / 2))


def strong_ratio_limit() -> float:
    """The strong competitive-ratio constant 4e^2/(e^2+1) ~= 3.523188."""
    return 4.0 * E * E / (E * E + 1.0)


def delta_gap_closed_form(mu: int) -> float:
    """Closed form for delta_mu - delta_{mu+1} (log-space for large mu)."""
    mu = check_size("delta_gap_closed_form", "mu", mu)
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
    i = check_size("alg2_holder_prob", "i", i)
    mu = check_size("alg2_holder_prob", "mu", mu, least=i)
    p1 = (Fraction(1, i * (i + 1)) - Fraction(1, mu * (mu + 1))) / 2
    p2 = Fraction(1, 2 * mu * (mu + 1))
    return Alg2HolderProb(i=i, mu=mu, p=p1 + p2, p1=p1, p2=p2)


# ---------------------------------------------------------------------------
# Double-threshold policy: asymptotic limits
# ---------------------------------------------------------------------------

def _log_term(t1, t2):
    """t1^2 ln(t2/t1) with the continuous extension 0 at t1 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = t1 * t1 * np.log(t2 / t1)
    return np.where(t1 > 0.0, val, 0.0)


# Each limit is one array formula; the scalar entry points below and the
# optimizer's grids both evaluate it, so they agree to the last bit.

def _p1_limit_arr(t1, t2):
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    return (2.0 + t1 * t1 * (3.0 - 6.0 * t2) + (3.0 - 2.0 * t2) * t2 * t2
            + 6.0 * _log_term(t1, t2)) / 12.0


def _p2_limit_arr(t1, t2):
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    return (2.0 + 8.0 * t1 ** 3 + t1 * t1 * (3.0 - 12.0 * t2)
            + (3.0 - 4.0 * t2) * t2 * t2 + 6.0 * _log_term(t1, t2)) / 12.0


def _sale_prob_arr(t1, t2):
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    return 1.0 - (1.0 / 3.0 + t2 ** 3 / 6.0 + t1 * t1 * t2 / 2.0)


def alg3_p1_limit(th: Thresholds) -> float:
    """Large-n probability that the double-threshold policy sells to the
    best buyer.  At t1 = 0 the t1^2 ln(t2/t1) term is taken as its limit 0.
    """
    return float(_p1_limit_arr(th.t1, th.t2))


def alg3_p2_limit(th: Thresholds) -> float:
    """Large-n probability of selling to the second-best buyer."""
    return float(_p2_limit_arr(th.t1, th.t2))


def alg3_sale_prob(th: Thresholds) -> float:
    """Probability that the double-threshold policy sells at all.

    Exact for every n >= 2: the three disjoint failure events involve only
    the seller and the top two buyers (seller last among the three; seller
    between them with the runner-up before t2; seller first with the best
    buyer before t1 and the runner-up before t2).
    """
    return float(_sale_prob_arr(th.t1, th.t2))


def _ratio_branches(name: str, t1, t2):
    """The two ratios whose max is the objective ``name``, as arrays.

    Both objectives share 1 / (2 p1) (all value on the top buyer).
    "upper_bound" adds 1 / sale (all buyers equally valuable) and
    "lower_bound_family" (2/3) / (p1 + p2) (two equal high bids).  Only
    the limits a branch reads are evaluated.
    """
    if name not in ("upper_bound", "lower_bound_family"):
        raise ValueError(f"unknown objective {name!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = _p1_limit_arr(t1, t2)
        if name == "upper_bound":
            num, den = 1.0, _sale_prob_arr(t1, t2)
        else:
            num, den = 2.0 / 3.0, p1 + _p2_limit_arr(t1, t2)
        return (np.where(p1 > 0, 1.0 / (2.0 * p1), np.inf),
                np.where(den > 0, num / den, np.inf))


def _objective_arr(name: str, t1, t2):
    return np.maximum(*_ratio_branches(name, t1, t2))


@dataclass(frozen=True)
class Alg3Ratio:
    """Asymptotic ratio bound at given thresholds, via both routes."""

    thresholds: Thresholds
    via_p1: float     # 1 / (2 p1_limit): all value on the top buyer
    via_sale: float   # 1 / sale_prob:   all buyers equally valuable
    bound: float      # max of the two: the "upper_bound" objective


def alg3_ratio(th: Thresholds) -> Alg3Ratio:
    via_p1, via_sale = _ratio_branches("upper_bound", th.t1, th.t2)
    return Alg3Ratio(thresholds=th, via_p1=float(via_p1),
                     via_sale=float(via_sale),
                     bound=float(np.maximum(via_p1, via_sale)))


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
# rank: all ranks come from one (node x rank) power table and a product.

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
        b2 = np.concatenate((np.einsum("i,ij", wq1, L - F),
                             (n - 1) * np.einsum("i,ij", wq2, H)))
        # rank parts, _CELLS cells a chunk; W is 0 off [:lo, :2] and [lo:, 2:]
        W = np.c_[w[:, None] * F, (w * t / (1.0 - t))[:, None] * F[:, 2:]]
        # a chunk whose largest cell, at the least node and rank, is 0.0
        # is 0.0 throughout (exp is monotone), and keeps b1's zeros
        b1, lo = np.zeros((8, ranks.size)), ta.size
        step = max(1, _CELLS // max(t.size, 1))
        t_min = t.min(initial=1.0)
        for first in range(0, ranks.size, step):
            rows = slice(first, first + step)
            if pow1m(t_min, i1[rows].min()) == 0.0:
                continue
            q = pow1m(t[:, None], i1[rows])
            np.einsum("ji,jk->ki", q[:lo], W[:lo, :2], out=b1[:2, rows])
            np.einsum("ji,jk->ki", q[lo:], W[lo:, 2:], out=b1[2:, rows])
        b1[5:] *= i1
        p2 = b1[5:].sum(axis=0) + i1 * np.einsum("i,i", wq2, late)
        # column 0: the rank-free b_k2; then per rank the b_k1 and p_i2
        return np.column_stack((np.append(b2, 0.0), np.vstack((b1, p2))))

    # refined on the p scale (pieces over i (i+1)), 16 pieces to a p_i
    table = integrate_graded(estimate, ((t1, t2), (t2, 1.0)), n,
                             _ALG3_TOL / 16.0)
    scale = ranks * (ranks + 1.0)
    return scale * table[:8, 1:], np.outer(table[:8, 0], scale), table[8, 1:]


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
    i = check_size("alg3_pi_parts", "i", i)
    n = check_size("alg3_pi_parts", "n", n, least=i)
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


def alg3_report(n: int, th: Thresholds) -> Alg3ExactReport:
    n = check_size("alg3_report", "n", n, cap=ALG3_TABLE_CAP)
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
    n = check_size("unimodality_f", "n", n, least=2, cap=ALG3_TABLE_CAP)
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
    t_star = check_real("mono_thresholds", "t_star", t_star)
    if not (0.0 < t_star <= 1.0):
        raise ValueError(f"need 0 < t_star <= 1, got {t_star}")
    i1 = (4.0 - 5.0 * t_star + math.sqrt(t_star ** 2 - 8.0 * t_star + 8.0)) / (2.0 * t_star)
    i2 = (6.0 - 5.0 * t_star + math.sqrt(t_star ** 2 - 12.0 * t_star + 12.0)) / (2.0 * t_star)
    return MonotonicityThresholds(t_star=t_star, I1=math.ceil(i1), I2=math.ceil(i2))


# ---------------------------------------------------------------------------
# Threshold optimisation
# ---------------------------------------------------------------------------

#: Step of the coarse scan over the triangle (1001 x 1001 cells).
_GRID_STEP = 1e-3


def _grid_argmin(objective: str, l1, l2) -> tuple[float, float, float]:
    """(t1, t2, value) minimising the objective over the grid l1 x l2
    within t1 <= t2: exactly the cell and value of one ``np.argmin`` over
    the whole grid with every t1 > t2 cell set to +inf.

    l1 and l2 must be non-decreasing (ValueError otherwise).  The grid is
    scanned in chunks of max(1, _CELLS // len(l2)) rows, each evaluated
    by broadcasting its t1 column against a t2 row.  A chunk starting at
    row lo evaluates only the columns from the first l2 >= l1[lo] on, as
    every cell left of it has t2 < t1; t1 > t2 cells inside the chunk
    are set to +inf.  Ties go to the first cell in row-major order and a
    NaN beats every number, as in ``np.argmin``: the chunks fold in row
    order from cell (0, 0) at +inf, and a chunk's first minimum replaces
    the best so far only if it is smaller, or the first NaN.  So a grid
    with no cell below +inf gives (l1[0], l2[0], inf)."""
    l1, l2 = np.asarray(l1, dtype=float), np.asarray(l2, dtype=float)
    if np.any(np.diff(l1) < 0) or np.any(np.diff(l2) < 0):
        raise ValueError("grid axes must be non-decreasing")
    step = max(1, _CELLS // l2.size)
    best = (0, 0, np.inf)
    for lo in range(0, l1.size, step):
        col = l1[lo:lo + step, None]
        j0 = int(np.searchsorted(l2, l1[lo]))
        if j0 == l2.size:
            continue  # no cell of the chunk on or above the diagonal
        row = l2[None, j0:]
        vals = _objective_arr(objective, col, row)
        vals[col > row] = np.inf
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        val = vals[i, j]
        if val < best[2] or (np.isnan(val) and not np.isnan(best[2])):
            best = (lo + i, j0 + j, val)
    i, j, val = best
    return float(l1[i]), float(l2[j]), float(val)


def optimize_thresholds(objective: str) -> tuple[Thresholds, float]:
    """Minimise a ratio objective over the triangle 0 <= t1 <= t2 <= 1.

    objective "upper_bound" balances the worst single-spike instance
    against the all-ones instance; "lower_bound_family" balances the
    one-high-bid family against the two-high-bids family.  A coarse grid
    scan is followed by shrinking local grids down to a step of 1e-6.
    Both scans evaluate at most _CELLS cells at once, so the tracemalloc
    peak stays near 3 MiB.
    """
    ts = np.arange(0.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)
    b1, b2, bval = _grid_argmin(objective, ts, ts)

    # pattern search: walk the valley at each scale until stuck, then shrink.
    # The objective's valley is far thinner across than along (the balance
    # curve between the two max branches), so t2 is sampled 100x finer.
    step = _GRID_STEP
    while step > 1e-6:
        step /= 10.0
        for _ in range(200):
            t1, t2, val = _grid_argmin(
                objective, np.clip(b1 + np.arange(-10, 11) * step, 0.0, 1.0),
                np.clip(b2 + np.arange(-1000, 1001) * (step / 100.0), 0.0, 1.0))
            if not val < bval:
                break
            b1, b2, bval = t1, t2, val
    return Thresholds(t1=b1, t2=b2), bval
