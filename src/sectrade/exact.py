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
  probabilities p_i obtained by 2D quadrature over the five smooth pieces
  of the (seller time, buyer time) square;

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

from .model import Thresholds
from .policies import SELL_CUTOFF, SKIP_CUTOFF
from .quadrature import integrate_rect, integrate_wedge

E = math.e


def pow1m(t, m: int):
    """(1 - t)**m for array t in [0, 1], stable for large m."""
    t = np.asarray(t, dtype=float)
    if m == 0:
        return np.ones_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(m * np.log1p(-t))
    return np.where(t >= 1.0, 0.0, out)


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


def delta_mu(mu: int, tol: float = 1e-9) -> StrongExactReport:
    """Probability that the buy-then-resell policy ends with the top buyer.

    With s the seller's arrival time and t the top buyer's, the success
    probability splits into three regions: seller before 1/e, seller in
    [1/e, (e-1)/e], and seller after (e-1)/e (where winning additionally
    needs an earlier middle buyer to have beaten the seller).  Each region
    is a smooth double integral in (s, t) involving (1-t)^(mu-1).
    """
    if mu < 1:
        raise ValueError(f"need mu >= 1, got {mu}")
    rtol = tol / 3.0

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


def delta_limit_quadrature(tol: float = 1e-10) -> float:
    """The same limit by quadrature of its two defining integrals."""
    part1 = integrate_rect(lambda s, t: 1.0 / (E * t) + 0.0 * s,
                           0.0, SELL_CUTOFF, SELL_CUTOFF, 1.0, tol=tol / 2)
    part2 = integrate_wedge(lambda s, t: s / t, SELL_CUTOFF, 1.0, 1.0,
                            tol=tol / 2)
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

    def to_json_dict(self) -> dict:
        return {"i": self.i, "mu": self.mu, "p": str(self.p),
                "p1": str(self.p1), "p2": str(self.p2)}


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

    def to_json_dict(self) -> dict:
        return {"t1": self.thresholds.t1, "t2": self.thresholds.t2,
                "via_p1": self.via_p1, "via_sale": self.via_sale,
                "bound": self.bound}


def alg3_ratio(th: Thresholds) -> Alg3Ratio:
    p1 = alg3_p1_limit(th)
    sale = alg3_sale_prob(th)
    via_p1 = 1.0 / (2.0 * p1) if p1 > 0 else math.inf
    via_sale = 1.0 / sale if sale > 0 else math.inf
    return Alg3Ratio(thresholds=th, via_p1=via_p1, via_sale=via_sale,
                     bound=max(via_p1, via_sale))


# ---------------------------------------------------------------------------
# Double-threshold policy: finite-n probabilities by quadrature
# ---------------------------------------------------------------------------
#
# With s the seller's time and t the rank-i buyer's, the plane splits into
# five regions with smooth integrands (kinks only at the thresholds and at
# t = s).  Each region carries a "record" factor F(s, t) (probability that
# the stronger early buyers cleared out in time), and regions with t > t2
# additionally a second-chance factor G (sell as second-best) and the
# late-runner factor H.

def _regions(t1: float, t2: float):
    # (kind, bounds, F, G, H); kind "rect" = (slo, shi, tlo, thi),
    # "wedge" = (slo, shi, thi) with t from s to thi.  G/H are None for the
    # no-second-chance regions.
    return (
        ("rect", (0.0, t1, t1, t2), lambda s, t: t1 / t, None, None),
        ("wedge", (t1, t2, t2), lambda s, t: s / t, None, None),
        ("rect", (0.0, t1, t2, 1.0), lambda s, t: t1 * t2 / t ** 2,
         lambda s, t: t1 * t2 / t, lambda s, t: t1 * (1.0 - t2 / t)),
        ("rect", (t1, t2, t2, 1.0), lambda s, t: s * t2 / t ** 2,
         lambda s, t: s * t2 / t, lambda s, t: s * (1.0 - t2 / t)),
        ("wedge", (t2, 1.0, 1.0), lambda s, t: (s / t) ** 2,
         lambda s, t: s * s / t, lambda s, t: s * (1.0 - s / t)),
    )


def _integrate_region(kind, bounds, f, tol):
    if kind == "rect":
        return integrate_rect(f, *bounds, tol=tol)
    return integrate_wedge(f, *bounds, tol=tol)


def alg3_pi_finite(i: int, n: int, th: Thresholds, tol: float = 1e-8) -> float:
    """Finite-n probability that the rank-i buyer ends up with the item."""
    p, _, _ = alg3_pi_parts(i, n, th, tol=tol)
    return p


def alg3_pi_parts(i: int, n: int, th: Thresholds,
                  tol: float = 1e-8) -> tuple[float, float, float]:
    """(p_i, p_i1, p_i2): total and the best-so-far / second-best split.

    p_i2 (sold as the second-best-so-far buyer) is identically 0 for the
    top buyer and is enforced as such without quadrature.
    """
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    t1, t2 = th.t1, th.t2
    rtol = tol / 8.0

    def combined(F, G, H):
        def f(s, t):
            val = (F(s, t) * pow1m(t, i - 1)
                   + (1.0 - F(s, t)) * pow1m(t, n - 1))
            if G is not None:
                if i >= 2:
                    val = val + (i - 1) * G(s, t) * pow1m(t, i - 2)
                if n >= 2:
                    val = val + (n - 1) * H(s, t) * pow1m(t, n - 2)
            return val
        return f

    total = 0.0
    for kind, bounds, F, G, H in _regions(t1, t2):
        total += _integrate_region(kind, bounds, combined(F, G, H), rtol)

    if i == 1:
        return total, total, 0.0

    def second_chance(lead, r_factor):
        def f(s, t):
            tail = pow1m(t, n - i)
            return ((i - 1) * lead(s, t) * pow1m(t, i - 2)
                    * (tail + (1.0 - tail) * r_factor(s, t) / t))
        return f

    p2 = (_integrate_region("rect", (0.0, t1, t2, 1.0),
                            second_chance(lambda s, t: t1, lambda s, t: t2), rtol)
          + _integrate_region("rect", (t1, t2, t2, 1.0),
                              second_chance(lambda s, t: s, lambda s, t: t2), rtol)
          + _integrate_region("wedge", (t2, 1.0, 1.0),
                              second_chance(lambda s, t: s, lambda s, t: s), rtol))
    return total, total - p2, p2


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


def alg3_report(n: int, th: Thresholds, tol: float = 1e-8) -> Alg3ExactReport:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p = tuple(alg3_pi_finite(i, n, th, tol=tol) for i in range(1, n + 1))
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

    def to_json_dict(self) -> dict:
        return {"n": self.n, "t1": self.th.t1, "t2": self.th.t2,
                "f": list(self.f), "unimodal": self.unimodal}


def _beta_tables(i: int, n: int, th: Thresholds, tol: float):
    """The eight (b_k1, b_k2) pairs at rank i."""
    t1, t2 = th.t1, th.t2
    regions = _regions(t1, t2)
    b1, b2 = [], []
    scale = i * (i + 1)
    # k = 1..5: record-factor pieces on each region
    for kind, bounds, F, _, _ in regions:
        b1.append(scale * _integrate_region(
            kind, bounds, lambda s, t, F=F: F(s, t) * pow1m(t, i - 1), tol))
        b2.append(scale * _integrate_region(
            kind, bounds,
            lambda s, t, F=F: (1.0 - F(s, t)) * pow1m(t, n - 1), tol))
    # k = 6..8: second-chance pieces on the three t > t2 regions
    for kind, bounds, _, G, H in regions[2:]:
        if i >= 2:
            b1.append(scale * (i - 1) * _integrate_region(
                kind, bounds, lambda s, t, G=G: G(s, t) * pow1m(t, i - 2), tol))
        else:
            b1.append(0.0)
        if n >= 2:
            b2.append(scale * (n - 1) * _integrate_region(
                kind, bounds, lambda s, t, H=H: H(s, t) * pow1m(t, n - 2), tol))
        else:
            b2.append(0.0)
    return b1, b2


def unimodality_f(n: int, th: Thresholds, tol: float = 1e-8) -> UnimodalityReport:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rtol = tol / 8.0
    k1_rows = [[] for _ in range(8)]
    k2_rows = [[] for _ in range(8)]
    f_vals = []
    for i in range(1, n + 1):
        b1, b2 = _beta_tables(i, n, th, rtol)
        for k in range(8):
            k1_rows[k].append(b1[k])
            k2_rows[k].append(b2[k])
        f_vals.append(sum(b1) + sum(b2))
    unimodal = f_vals[0] < f_vals[1] and all(
        f_vals[j] > f_vals[j + 1] for j in range(1, n - 1))
    return UnimodalityReport(
        n=n, th=th, f=tuple(f_vals),
        beta_k1=tuple(tuple(row) for row in k1_rows),
        beta_k2=tuple(tuple(row) for row in k2_rows),
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


def rank_comparison_constants(th: Thresholds,
                              tol: float = 1e-8) -> RankComparisonConstants:
    rtol = tol / 8.0
    b1_1, _ = _beta_tables(1, 2, th, rtol)
    b1_2, b2_2 = _beta_tables(2, 2, th, rtol)
    b1_3, b2_3 = _beta_tables(3, 2, th, rtol)
    return RankComparisonConstants(
        gain_2_vs_1=sum(b1_2) - sum(b1_1),
        drop_2_vs_3=sum(b1_2) - sum(b1_3),
        tail_gain_3_vs_2_at_n2=sum(b2_3) - sum(b2_2))


# ---------------------------------------------------------------------------
# Rank-monotonicity cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityThresholds:
    """Ranks beyond which the two difference sequences become decreasing."""

    t_star: float
    I1: int
    I2: int

    def to_json_dict(self) -> dict:
        return {"t_star": self.t_star, "I1": self.I1, "I2": self.I2}


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


def optimize_thresholds(objective: str, grid_step: float = 1e-3,
                        refine_to: float = 1e-6) -> tuple[Thresholds, float]:
    """Minimise a ratio objective over the triangle 0 <= t1 <= t2 <= 1.

    objective "upper_bound" balances the worst single-spike instance
    against the all-ones instance; "lower_bound_family" balances the
    one-high-bid family against the two-high-bids family.  A coarse grid
    scan is followed by shrinking local grids down to ``refine_to``.
    ``grid_step`` must lie in (0, 1] and keep the coarse grid within
    ``_GRID_CELLS_MAX`` cells; ``refine_to`` must be finite and > 0.
    """
    if not (math.isfinite(refine_to) and refine_to > 0.0):
        raise ValueError(f"refine_to must be a finite number > 0, "
                         f"got {refine_to!r}")
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
    while step > refine_to:
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

