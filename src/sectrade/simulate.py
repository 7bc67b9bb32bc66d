"""Seeded, worker-count-invariant Monte Carlo for the trading policies.

Stream discipline
-----------------
The generator is numpy's Philox (counter-based).  Each trial owns a fixed
window of the counter space: trial k consumes draws [k*S, (k+1)*S) where
the stride S is n+2 rounded up to a multiple of 4 (n+1 per-agent arrival
uniforms, one coin slot, padding).  Trials are processed in fixed blocks
of ``BLOCK`` trials; a block's draws come from one ``Philox(key=seed)``
generator advanced to the block's first window.  Workers receive whole
blocks and the per-block partial sums are reduced in block order with
compensated addition, so the report is byte-identical for any worker
count.

Policy evaluation is vectorized over the trials of a block, on row-major
arrays.  The arrival times are gathered into the canonical strength order
with ``take``, which keeps each trial's times contiguous (strongest agent
first).  Best-so-far flags are strict prefix minima along that order, so
their times fall strictly along it and the earliest record past a time
cutoff is the last record past it; second-best-so-far flags come from the
running minimum of max(t_k, min before k) and fall the same way.  Weak OPT
reads the same array: buyer prices fall along the strength order, so the
best buyer arriving after the seller is the first one in it.

The kernel gathers only the first ``_PREFIX`` strength columns of each
trial.  A column further down the order is a record only if its time
undercuts every prefix time, and a second-best only if it undercuts all
but one, so a trial is settled by its prefix when

* weak OPT: some prefix column arrived after the seller;
* alg1 / alg2: some prefix time is within the cutoff, max(seller, 1/e)
  for alg1 and the seller's time for alg2;
* alg3: one prefix time is within max(seller, t1) and two are within
  max(seller, t2);
* secretary baseline: one prefix time is within max(seller, 1/e).

The unsettled trials are evaluated again on a prefix 8x as wide, until it
covers every column (at once for n < 32).  Each trial's result is exactly
that of a scan over all n+1 columns, so the prefix width changes no output
bit.

A block is drawn and evaluated in sub-chunks that keep every draw array
within ``_BLOCK_BUDGET`` doubles (one trial when a trial alone is larger);
the block layout, each trial's window and the order of every sum stay
those of the whole block, so the sub-chunk size changes no output bit.
Sub-chunks of 2 MiB (under numpy's 4 MiB huge-page advice) keep thread
timing from moving the peak memory.  The state machines in
:mod:`sectrade.policies` stay the behavioural reference; the kernel here
is cross-checked against them trial by trial in the test suite.

Competitive ratios divide the mean benchmark by the mean policy welfare
(never per-trial ratios), matching the expectation-based definitions.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .benchmarks import strong_opt
from .errors import NumericError
from .model import Instance, Thresholds, canonicalize
from .policies import SELL_CUTOFF, SKIP_CUTOFF

BLOCK = 1 << 14
_BLOCK_BUDGET = 1 << 18  # max doubles per draw array (or one trial's)
_LAYOUT_BUDGET = 1 << 22  # doubles per block at large n (fixes the sums)
_PREFIX = 32  # strength columns the kernel reads in its first round

POLICY_IDS = ("alg1", "alg2", "alg3", "secretary-baseline")


@dataclass(frozen=True)
class _Market:
    """Instance facts the kernels need, in array form."""

    n: int
    prices: np.ndarray          # price by holder id 0..n+1 (0 = intermediary)
    strength_cols: np.ndarray   # agent time-columns, strongest first
    buyer_cols: np.ndarray      # strength_cols without the seller's
    seller_strength_pos: int    # seller's index within strength_cols
    seller_price: float


def _market(instance: Instance) -> _Market:
    ranked = canonicalize(instance)
    n = instance.n
    prices = np.zeros(n + 2)
    prices[1:n + 1] = [float(p) for p in instance.buyer_prices]
    prices[n + 1] = float(instance.seller_price)
    buyer_cols = [b - 1 for b in ranked.original_index_of_rank]
    strength_cols = np.array(buyer_cols[:ranked.mu] + [n] + buyer_cols[ranked.mu:],
                             dtype=np.int64)
    return _Market(n=n, prices=prices,
                   strength_cols=strength_cols,
                   buyer_cols=np.array(buyer_cols, dtype=np.int64),
                   seller_strength_pos=ranked.mu,
                   seller_price=float(instance.seller_price))


def _stride(n: int) -> int:
    return 4 * ((n + 2 + 3) // 4)


def _block_size(n: int) -> int:
    """Trials per block: BLOCK, shrunk toward the draw budget for large n
    but never below 256 trials (a deterministic function of n alone).

    The block fixes which trials share a partial sum and so the reduction
    order.  Memory is bounded separately: ``_block_partials`` draws a
    block in sub-chunks of at most ``_BLOCK_BUDGET`` doubles, which leaves
    this layout unchanged."""
    return max(256, min(BLOCK, _LAYOUT_BUDGET // _stride(n)))


def block_draws(seed: int, n: int, start: int, count: int) -> np.ndarray:
    """Uniform draws for trials [start, start+count), shape (count, stride).

    Column a < n holds buyer (a+1)'s arrival time, column n the seller's,
    column n+1 the coin; the rest is padding that keeps windows 4-aligned
    for Philox counter jumps.
    """
    stride = _stride(n)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * (stride // 4))
    gen = np.random.Generator(bitgen)
    return gen.random(count * stride).reshape(count, stride)


def _prefix_min(ts: np.ndarray) -> np.ndarray:
    """prefix[:, k] = min of columns < k (inf at k = 0)."""
    out = np.empty_like(ts)
    out[:, 0] = np.inf
    np.minimum.accumulate(ts[:, :-1], axis=1, out=out[:, 1:])
    return out


def _last_true(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of the last True in each row, and whether the row has one."""
    rev = mask[:, ::-1]
    j = rev.argmax(axis=1)
    return mask.shape[1] - 1 - j, rev[np.arange(mask.shape[0]), j]


def _evaluate(policy_id: str, mk: _Market, u: np.ndarray,
              th: Thresholds | None,
              width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Final holder id (0 = intermediary) and weak-OPT value per trial of
    one array of draws.

    Reads only the first ``width`` strength columns (``_PREFIX`` when
    None).  Rows that this prefix does not settle are evaluated again at
    8x the width, until the prefix covers every column."""
    if width is None:
        width = _PREFIX
    n = mk.n
    rows = np.arange(u.shape[0])
    seller_t = u[:, n]
    with_seller = policy_id in ("alg1", "alg2")
    cols = mk.strength_cols if with_seller else mk.buyer_cols
    whole = width >= len(cols)
    cols = cols[:width]
    ts = u.take(cols, axis=1)  # C order: trial-major, strongest agent first

    # Weak OPT: buyer prices fall along the strength order, so the best
    # buyer arriving after the seller is the first one in that order (the
    # seller's own column never arrives after itself).
    after = ts > seller_t[:, None]
    first = after.argmax(axis=1)
    settled = after[rows, first]
    weak = np.where(settled, mk.prices[cols[first] + 1], -np.inf)
    weak = np.maximum(weak, mk.seller_price)

    # Best-so-far records are strict prefix minima, so their times fall
    # strictly along the strength order: the earliest record past a time
    # cutoff is the last one past it.  For the same reason no column past
    # the prefix is a record past a cutoff that some prefix time is within.
    stronger_before = _prefix_min(ts)
    record = ts < stronger_before
    if not whole:
        earliest = ts.min(axis=1)

    if with_seller:
        pos = mk.seller_strength_pos
        if policy_id == "alg1":
            skip = seller_t > SKIP_CUTOFF
            cutoff = np.maximum(seller_t, SELL_CUTOFF)
        else:
            skip = u[:, n + 1] >= 0.5
            cutoff = seller_t
        # Wherever ``skip`` holds the cutoff is the seller's own time (alg1
        # skips only past (e-1)/e > 1/e), so in a settled row some prefix
        # time beats the seller's, and a seller past the prefix is no record.
        no_buy = skip & record[:, pos] if pos < width else False
        if not whole:
            settled &= earliest <= cutoff
        record &= ts > cutoff[:, None]  # never the seller: cutoff >= seller_t
        idx, sold = _last_true(record)
        holders = np.where(no_buy, n + 1, np.where(sold, cols[idx] + 1, 0))
    elif policy_id == "secretary-baseline":
        record &= after
        record &= ts > SELL_CUTOFF
        idx, sold = _last_true(record)
        holders = np.where(sold, cols[idx] + 1, 0)
        if not whole:
            settled &= earliest <= np.maximum(seller_t, SELL_CUTOFF)
    else:
        # alg3 also sells to second-best-so-far buyers.  The second-smallest
        # time so far is the running minimum of max(t_k, min before k), and
        # a second-best time undercuts it, so those times fall strictly
        # along the order as well: the earliest qualifier is the earlier of
        # the last qualifying record and the last qualifying second-best.
        # A second-best past the prefix undercuts all prefix times but one.
        record &= after
        second = stronger_before < ts
        np.maximum(ts, stronger_before, out=stronger_before)
        second &= ts < _prefix_min(stronger_before)
        second &= after
        second &= ts > th.t2
        record &= ts > th.t1
        idx1, sold1 = _last_true(record)
        idx2, sold2 = _last_true(second)
        idx = np.where(sold1 & ~(sold2 & (ts[rows, idx2] < ts[rows, idx1])),
                       idx1, idx2)
        holders = np.where(sold1 | sold2, cols[idx] + 1, 0)
        if not whole:
            # the least max(t_k, min before k) is the second-smallest time
            second_earliest = stronger_before.min(axis=1)
            settled &= earliest <= np.maximum(seller_t, th.t1)
            settled &= second_earliest <= np.maximum(seller_t, th.t2)

    if not whole:
        rest = np.flatnonzero(~settled)
        if rest.size:
            holders[rest], weak[rest] = _evaluate(policy_id, mk, u[rest], th,
                                                  8 * width)
    return holders, weak


def _block_partials(policy_id: str, mk: _Market, seed: int, start: int,
                    count: int, th: Thresholds | None) -> dict:
    # Draw and evaluate the block in sub-chunks that keep each draw array
    # within _BLOCK_BUDGET doubles (one trial when a trial alone exceeds
    # it).  Trials keep their Philox windows and the block's sums run over
    # the concatenated per-trial values, so the partials do not depend on
    # the sub-chunk size.
    n = mk.n
    step = max(1, _BLOCK_BUDGET // _stride(n))
    end = start + count
    parts = [_evaluate(policy_id, mk,
                       block_draws(seed, n, s, min(step, end - s)), th)
             for s in range(start, end, step)]
    holders = np.concatenate([h for h, _ in parts])
    weak = np.concatenate([w for _, w in parts])
    welfare = mk.prices[holders]
    with np.errstate(over="ignore", invalid="ignore"):  # ``simulate`` checks
        return {
            "counts": np.bincount(holders, minlength=n + 2),
            "sum_w": float(welfare.sum()),
            "sum_w2": float((welfare * welfare).sum()),
            "sum_o": float(weak.sum()),
            "sum_o2": float((weak * weak).sum()),
            "sum_wo": float((welfare * weak).sum()),
        }


def _kahan_total(values) -> float:
    total = 0.0
    carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


@dataclass(frozen=True)
class SimulationReport:
    policy: str
    instance_digest: str
    trials: int
    seed: int
    holder_freq: dict
    mean_alg_welfare: float
    se_alg: float
    mean_weak_opt: float
    se_weak: float
    strong_opt: float
    ratio_strong: float
    ratio_weak: float
    ratio_weak_se: float

    def to_json_dict(self) -> dict:
        # string holder keys: sort_keys would order int keys numerically
        freq = {str(k): v for k, v in self.holder_freq.items()}
        return {**asdict(self), "holder_freq": freq}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def simulate(policy_id: str, instance: Instance, trials: int,
             seed: int, workers: int = 1,
             thresholds: Thresholds | None = None) -> SimulationReport:
    """Estimate holder frequencies, welfare, and competitive ratios.

    Deterministic given (seed, trials): the block layout and per-trial
    draw windows depend only on those, and per-block partials are reduced
    in block order, so ``workers`` cannot change any output bit.  At most
    min(workers, blocks, cores) threads run.  Raises ``NumericError`` when
    a welfare sum overflows float64.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 128):
        raise ValueError(f"need an integer seed in [0, 2**128), got {seed!r}")
    if policy_id not in POLICY_IDS:
        raise ValueError(f"unknown policy id {policy_id!r}")
    if policy_id == "alg3" and thresholds is None:
        raise ValueError("alg3 needs thresholds")
    if policy_id == "alg3" and instance.seller_price != 0:
        raise ValueError("alg3 requires seller price 0")
    mk = _market(instance)

    block = _block_size(mk.n)
    starts = list(range(0, trials, block))
    blocks = [(s, min(block, trials - s)) for s in starts]

    def work(args):
        start, count = args
        return _block_partials(policy_id, mk, seed, start, count, thresholds)

    threads = min(workers, len(blocks), os.cpu_count() or 1)
    if threads == 1:
        partials = [work(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(work, blocks))

    counts = np.zeros(mk.n + 2, dtype=np.int64)
    for p in partials:
        counts += p["counts"]
    sums = {key: _kahan_total(p[key] for p in partials)
            for key in ("sum_w", "sum_w2", "sum_o", "sum_o2", "sum_wo")}
    overflow = [key for key, total in sums.items() if not math.isfinite(total)]
    if overflow:
        raise NumericError(f"{', '.join(overflow)} overflowed float64; the "
                           f"prices are too large for welfare moments")

    n_t = float(trials)
    mean_w = sums["sum_w"] / n_t
    mean_o = sums["sum_o"] / n_t
    ddof = n_t - 1.0 if trials > 1 else 1.0
    var_w = max((sums["sum_w2"] - n_t * mean_w ** 2) / ddof, 0.0)
    var_o = max((sums["sum_o2"] - n_t * mean_o ** 2) / ddof, 0.0)
    cov = (sums["sum_wo"] - n_t * mean_w * mean_o) / ddof
    se_w = math.sqrt(var_w / n_t)
    se_o = math.sqrt(var_o / n_t)
    s_opt = float(strong_opt(instance))
    if mean_w > 0:
        ratio_weak = mean_o / mean_w
        ratio_strong = s_opt / mean_w
        # delta method for the ratio r of two correlated means; dividing
        # by mean_w**2 alone keeps every power finite when the sums are
        r = ratio_weak
        ratio_var = (var_o - 2.0 * r * cov + r ** 2 * var_w) / mean_w ** 2
        ratio_weak_se = math.sqrt(max(ratio_var, 0.0) / n_t)
    else:
        ratio_weak = ratio_strong = ratio_weak_se = math.inf

    return SimulationReport(
        policy=policy_id,
        instance_digest=instance.digest(),
        trials=trials,
        seed=int(seed),  # numpy integers are not JSON-serialisable
        holder_freq={int(h): c / n_t for h, c in enumerate(counts) if c},
        mean_alg_welfare=mean_w,
        se_alg=se_w,
        mean_weak_opt=mean_o,
        se_weak=se_o,
        strong_opt=s_opt,
        ratio_strong=ratio_strong,
        ratio_weak=ratio_weak,
        ratio_weak_se=ratio_weak_se,
    )
