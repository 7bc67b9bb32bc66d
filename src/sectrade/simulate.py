"""Seeded, worker-count-invariant Monte Carlo for the trading policies.

Stream discipline
-----------------
The generator is numpy's Philox (counter-based).  Each trial owns a fixed
window of the counter space: trial k consumes draws [k*S, (k+1)*S) where
the stride S is n+2 rounded up to a multiple of 4 (n+1 per-agent arrival
uniforms, one coin slot, padding).  Trials are processed in blocks of
``_block_size(n)`` trials, ``BLOCK`` shrunk at large n (a function of n
alone); a block's draws come from one ``Philox(key=seed)`` generator
advanced to the block's first window.  Workers receive whole
blocks, which are folded into the totals in block order as they finish
(the moment sums with compensated addition), so the report is
byte-identical for any worker count.

Policy evaluation is vectorized over the trials of a block, on
strength-major arrays: the arrival times are gathered into one C-order row
per column of the canonical strength order (strongest agent first), each
row across the trials, so that every numpy call covers all the trials it
reads.  Every policy buys by its own test and then sells to the earliest
buyer who is r-th best so far after max(seller, floor_r), for each of its
time floors (one for alg1, alg2 and the baseline, two for alg3).  A column
is r-th best so far when its time lies between the (r-1)-th and the r-th
smallest time before it; those r-th smallest times are running minima,
one ``minimum`` per row, so the qualifying times fall strictly along the
strength order and the earliest qualifier past a cutoff is the last one.
Weak OPT reads the same array: buyer prices fall along the strength order,
so the best buyer arriving after the seller is the first one in it.  The
last qualifier and the first buyer after the seller are each one max down
the rows of a mask times a small integer weight per row.

The kernel gathers only the first ``_PREFIX`` strength columns of each
trial.  A column further down the order is r-th best so far only if its
time undercuts all but r-1 prefix times, so a trial is settled by its
prefix when some prefix column arrived after the seller (weak OPT) and,
for every rank r, r prefix times are within max(seller, floor_r).  The
unsettled trials are evaluated again on a prefix 8x as wide, until it
covers every column (at once for n < 32).  Each trial's result is exactly
that of a scan over all n+1 columns, so the prefix width changes no output
bit.

Philox is counter-based (Salmon et al., SC'11), so a uniform can also be
computed from its counter alone: column c of trial k is word c % 4 of
Philox4x64-10 at counter k*S/4 + c//4 + 1 (numpy steps the counter
before it generates) under the key (seed mod 2**64, seed >> 64), and the
double is (word >> 11) * 2**-53.  ``_philox`` does this with numpy ufuncs,
bit for bit, at about 8 times the cost of a block drawn natively.  When 8
times the 4-column blocks that the first prefix, the seller and the coin
need is below a window's S/4 blocks (n = 1000 and 10^5, not n = 10 or
100), a block is read from its counters: each round computes only the
blocks it reads, for all of the block's trials it reads, in reads of
``_rows_per_read`` trials.  Otherwise whole windows are drawn.  The
stream contract is the same either way, and so is every output byte.

Whole windows are drawn and evaluated in sub-chunks that keep every draw
array within ``_BLOCK_BUDGET`` doubles (one trial when a trial alone is
larger), and counter reads keep every array, uint64 temporaries included,
within it too; the block layout, each trial's window and the order of
every sum stay those of the whole block, so neither changes an output
bit.  Sub-chunks of 2 MiB (under numpy's 4 MiB huge-page advice) keep
thread timing from moving the peak memory.  The state machines in
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
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .benchmarks import strong_opt
from .errors import NumericError
from .model import Instance, Thresholds, check_size, rank_buyers
from .policies import SELL_CUTOFF, SKIP_CUTOFF

BLOCK = 1 << 14
_BLOCK_BUDGET = 1 << 18  # max doubles per draw array (or one trial's)
_LAYOUT_BUDGET = 1 << 22  # doubles per block at large n (fixes the sums)
# the welfare moments a block sums, in the order of its sums array
_MOMENTS = ("sum_w", "sum_w2", "sum_o", "sum_o2", "sum_wo")
_PREFIX = 32  # strength columns the kernel reads in its first round
# one Philox block computed with numpy ufuncs costs about 8 drawn by
# numpy's own Philox (7-10x, best of 15 calls of 2048-4096 blocks on a
# shared 2-core x86-64 host)
_COUNTER_COST = 8
_M64 = (1 << 64) - 1
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# the two round multipliers as a column, and their 32-bit halves
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _32

POLICY_IDS = ("alg1", "alg2", "alg3", "secretary-baseline")
# each policy's time floors: it sells to the earliest buyer who is r-th
# best so far after max(seller, floors[r-1]), for r = 1..len(floors)
_FLOORS = {"alg1": lambda th: (SELL_CUTOFF,),
           "alg2": lambda th: (0.0,),
           "alg3": lambda th: (th.t1, th.t2),
           "secretary-baseline": lambda th: (SELL_CUTOFF,)}


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
    buyer_cols, mu = rank_buyers(instance)
    n = instance.n
    prices = np.zeros(n + 2)
    prices[1:n + 1] = (instance.buyer_array
                       if instance.buyer_array is not None
                       else [float(p) for p in instance.buyer_prices])
    prices[n + 1] = float(instance.seller_price)
    return _Market(n=n, prices=prices,
                   strength_cols=np.insert(buyer_cols, mu, n),
                   buyer_cols=buyer_cols,
                   seller_strength_pos=mu,
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


def block_draws(seed: int, n: int, start: int, count: int,
                blocks: np.ndarray | None = None,
                rows: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws of trials [start, start+count).

    Column a < n of a trial's window holds buyer (a+1)'s arrival time,
    column n the seller's, column n+1 the coin; the rest is padding that
    keeps windows 4-aligned for Philox counter jumps.  With ``blocks``
    None this is every window, shape (count, stride), drawn by numpy's
    Philox.  Otherwise it is window columns 4b..4b+3 for each b in
    ``blocks`` of trials start + ``rows`` (all count trials when None),
    shape (len(rows), 4 * len(blocks)), computed from their Philox
    counters alone: column c of trial k is word c % 4 of the block at
    counter k*S/4 + c//4 + 1 (numpy steps the counter before it
    generates), so both forms give the same bits.  This form is the
    transpose of a C-order array, so each of its columns is contiguous.
    """
    stride = _stride(n)
    base = start * (stride // 4)
    if blocks is None:
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(base)
        gen = np.random.Generator(bitgen)
        return gen.random(count * stride).reshape(count, stride)
    if rows is None:
        rows = np.arange(count)
    # 128-bit counters as two words, block-major; the low word carries
    # into the high one as numpy's counter does (trials past 2**128
    # counters are not supported)
    off = ((blocks.astype(np.uint64) + np.uint64(1))[:, None]
           + rows.astype(np.uint64) * np.uint64(stride // 4)).ravel()
    lo = off + np.uint64(base & _M64)
    hi = (lo < off) + np.uint64(base >> 64)
    # row 4*i + w of ``words`` is word w of block blocks[i] of each trial
    words = np.stack([w.reshape(len(blocks), -1)
                      for w in _philox(seed, lo, hi)], axis=1)
    words = words.reshape(4 * len(blocks), -1)
    words >>= np.uint64(11)
    return (words * 2.0 ** -53).T


def _mulhilo(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of a's rows with the
    Philox multipliers, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _32
    t = a1 * _PHILOX_M_LO + ((a0 * _PHILOX_M_LO) >> _32)
    u = a0 * _PHILOX_M_HI + (t & _LOW32)
    return (a1 * _PHILOX_M_HI + (t >> _32) + (u >> _32), a * _PHILOX_M)


def _philox(seed: int, c0: np.ndarray, c1: np.ndarray) -> tuple:
    """Philox4x64-10 (Salmon et al., SC'11) of the counters (c0, c1, 0, 0)
    (1-D uint64) under the key (seed mod 2**64, seed >> 64), as numpy's
    Philox has it.

    Rows x = (c0, c2) and y = (c1, c3) go through each round together:
    the round is (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0) for
    (hi_i, lo_i) = the i-th multiplier times (c0, c2)[i]."""
    keys = np.array([[[(seed + r * _PHILOX_W[0]) & _M64],
                      [((seed >> 64) + r * _PHILOX_W[1]) & _M64]]
                     for r in range(10)], dtype=np.uint64)
    zero = np.zeros_like(c0)
    x, y = np.stack((c0, zero)), np.stack((c1, zero))
    for key in keys:
        hi, lo = _mulhilo(x)
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
    return x[0], y[0], x[1], y[1]


def _scan_cols(policy_id: str, mk: _Market) -> np.ndarray:
    """The time-columns a policy scans, strongest first (alg1 and alg2
    see the seller among the buyers)."""
    return (mk.strength_cols if policy_id in ("alg1", "alg2")
            else mk.buyer_cols)


def _read_blocks(n: int, cols: np.ndarray) -> np.ndarray:
    """The Philox blocks, ascending, that a read of window columns ``cols``
    computes: theirs, the seller's and the coin's."""
    hit = np.zeros(_stride(n) // 4, dtype=bool)
    hit[cols // 4] = True
    hit[[n // 4, (n + 1) // 4]] = True
    return np.flatnonzero(hit)


def _by_counter(n: int, cols: np.ndarray) -> bool:
    """Whether to compute only the Philox blocks the kernel reads instead
    of drawing whole windows: when the first round's blocks, at
    _COUNTER_COST native blocks each, cost less than a window's S/4."""
    first = _read_blocks(n, cols[:_PREFIX])
    return _COUNTER_COST * first.size < _stride(n) // 4


def _rows_per_read(n: int, cols: np.ndarray) -> int:
    """Trials per counter read of ``cols``: _BLOCK_BUDGET/128 (trial,
    block) pairs, so that the read's uint64 temporaries and the kernel's
    arrays hold at most 64 KiB each (larger reads measured a higher peak
    RSS on ``mc_large_n``)."""
    return max(1, _BLOCK_BUDGET // (128 * _read_blocks(n, cols).size))


def _window_reader(u: np.ndarray, n: int):
    """Reads (times at window columns, seller times, coins) of trial rows
    (a slice or an index array) from whole windows already drawn, the
    times strength-major: one C-order row per column, across the trials.
    They are one index of the windows' transpose by the columns, which
    numpy writes out in C order (a ``take`` would first copy the whole
    transpose)."""
    def read(rows, cols):
        v = u[rows].T[np.concatenate((cols, [n, n + 1]))]
        return v[:-2], v[-2], v[-1]
    return read


def _counter_reader(seed: int, n: int, start: int, count: int):
    """Reads like ``_window_reader`` for trials start + rows of [start,
    start+count), computing only the Philox blocks each read needs.

    ``block_draws`` returns them as the transpose of a C-order array with
    one row per window column, so indexing its rows gathers the
    strength-major times without a transposing copy."""
    def read(rows, cols):
        blocks = _read_blocks(n, cols)
        cols = np.concatenate((cols, [n, n + 1]))
        slot = np.zeros(_stride(n) // 4, dtype=np.intp)
        slot[blocks] = np.arange(0, 4 * blocks.size, 4)
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(count))
        v = block_draws(seed, n, start, count, blocks, rows)
        v = v.T[slot[cols // 4] + cols % 4]
        return v[:-2], v[-2], v[-1]
    return read


def _running_min(level: np.ndarray, out: np.ndarray) -> None:
    """out[k] = min of level's rows < k for k = 0..len(level): inf first and
    the least of all rows last.  ``level`` may be out[1:] itself.

    Row by row across the trials, or one ``accumulate`` down the rows when
    they outnumber the trials (min is exact, so both give the same bits)."""
    out[0] = np.inf
    if level.shape[0] > level.shape[1]:
        np.minimum.accumulate(level, axis=0, out=out[1:])
    else:
        for k in range(level.shape[0]):
            np.minimum(out[k], level[k], out=out[k + 1])


def _next_rank(ts: np.ndarray, bound: np.ndarray) -> None:
    """Turns ``bound`` from m_{r-1} into m_r in place (len(ts) + 1 rows, as
    ``_running_min`` writes them): the running minimum of max(t, m_{r-1}).

    max(t, m_{r-1}) goes into bound[1:] first.  Row by row it runs
    backward, so that each row reads the m_{r-1} above it; in one call
    (more rows than trials) numpy copies the overlapping rows first."""
    if ts.shape[0] > ts.shape[1]:
        np.maximum(ts, bound[:-1], out=bound[1:])
    else:
        for k in range(ts.shape[0] - 1, -1, -1):
            np.maximum(ts[k], bound[k], out=bound[k + 1])
    _running_min(bound[1:], bound)


def _evaluate(policy_id: str, mk: _Market, ts: np.ndarray,
              seller_t: np.ndarray, coin: np.ndarray, th: Thresholds | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of the kernel: holder id (0 = intermediary), weak-OPT value
    and whether the result is final, per trial, from its times ``ts`` at
    the first ts.shape[0] columns of the policy's strength order (C order,
    strength-major: one row per column, strongest agent first, each row
    across the trials), its seller time and its coin."""
    n = mk.n
    cols = _scan_cols(policy_id, mk)
    with_seller = cols is mk.strength_cols
    width, trials = ts.shape
    whole = width >= len(cols)
    cols = cols[:width]
    # weight k + 1 on row k: the max of a mask times it down the rows is
    # 1 + the row of the last True in each trial (0 when there is none);
    # reversed, it is width - the row of the first
    up = np.arange(1, width + 1, dtype=np.min_scalar_type(width))[:, None]

    # Weak OPT: buyer prices fall along the strength order, so the best
    # buyer arriving after the seller is the first one in that order (the
    # seller's own column never arrives after itself).
    first = np.multiply(ts > seller_t, up[::-1]).max(axis=0)
    settled = first > 0
    weak = np.maximum(np.concatenate(([-np.inf], mk.prices[cols[::-1] + 1])),
                      mk.seller_price)[first]

    # The buy test: alg1 skips a seller past (e-1)/e and alg2 one whose coin
    # lands >= 1/2, each only when the seller is a record.  Wherever a skip
    # holds the seller's time is the rank-1 cutoff (alg1 skips only past
    # (e-1)/e > 1/e), so in a settled trial some prefix time beats the
    # seller's, and a seller past the prefix is no record.
    # m_1: the least time before each row, and last the least of all
    bound = np.empty((width + 1, trials))
    _running_min(ts, bound)
    pos = mk.seller_strength_pos
    if with_seller and pos < width:
        skip = (seller_t > SKIP_CUTOFF if policy_id == "alg1"
                else coin >= 0.5)
        no_buy = skip & (ts[pos] < bound[pos])
    else:
        no_buy = False

    # The sell rule.  m_r[k], the r-th smallest time before row k, is the
    # running minimum of max(t, m_{r-1}) (m_0 = -inf); row k is r-th best
    # so far when m_{r-1} < t < m_r.  ``bound`` holds m_r and last the r-th
    # smallest time of all rows, and turns into m_{r+1} in place.  The
    # earliest qualifier of rank r is its last one, and a lower rank wins
    # a time tie.
    # ts[k - 1, j] is flat[k * trials + off[j]] (k = 0 wraps to the last row)
    flat, off = ts.reshape(-1), np.arange(-trials, 0)
    for r, floor in enumerate(_FLOORS[policy_id](th)):
        cut = np.maximum(seller_t, floor)
        if r:
            qual = bound[:-1] < ts
            _next_rank(ts, bound)
            qual &= ts < bound[:-1]
        else:
            qual = ts < bound[:-1]
        qual &= ts > cut
        last_r = np.multiply(qual, up).max(axis=0).astype(np.intp)
        if not r:
            last = last_r
        else:
            t, t_r = flat[last * trials + off], flat[last_r * trials + off]
            take = (last_r > 0) & ~((last > 0) & (t <= t_r))
            last = np.where(take, last_r, last)
        if not whole:
            settled &= bound[-1] <= cut
    holders = np.where(no_buy, n + 1, np.concatenate(([0], cols + 1))[last])
    return holders, weak, settled | whole


def _outcomes(policy_id: str, mk: _Market, read, th: Thresholds | None,
              count: int, rows_per_read=None) -> tuple[np.ndarray, np.ndarray]:
    """Final holder id and weak-OPT value of ``count`` trials.

    ``read(rows, cols)`` returns the times of trials ``rows`` at window
    columns ``cols``, their seller times and their coins
    (``_window_reader``, ``_counter_reader``).  The first round reads the
    first ``_PREFIX`` columns of the policy's strength order; each later
    round reads the trials the last one did not settle at 8x the width,
    until a round covers every column.  A read takes at most
    ``rows_per_read(cols)`` trials (all when None)."""
    scan = _scan_cols(policy_id, mk)
    reads = []  # (rows, holders, weak) of each read, in round order
    rest, width = None, _PREFIX  # None: every trial, read by slices
    while rest is None or rest.size:
        cols = scan[:width]
        todo = count if rest is None else rest.size
        step = todo if rows_per_read is None else rows_per_read(cols)
        left = []
        for i in range(0, todo, step):
            rows = slice(i, i + step) if rest is None else rest[i:i + step]
            holders, weak, settled = _evaluate(policy_id, mk,
                                               *read(rows, cols), th)
            reads.append((rows, holders, weak))
            stuck = np.flatnonzero(~settled)
            left.append(stuck + i if rest is None else rows[stuck])
        rest, width = np.concatenate(left), 8 * width
    if len(reads) == 1:  # one read settled every trial
        return reads[0][1:]
    holders, weak = np.empty(count, dtype=np.int64), np.empty(count)
    for rows, h, w in reads:  # later rounds overwrite the trials they read
        holders[rows], weak[rows] = h, w
    return holders, weak


def _block_partials(policy_id: str, mk: _Market, seed: int, start: int,
                    count: int, th: Thresholds | None
                    ) -> tuple[np.ndarray, np.ndarray]:
    # The block's holder counts and its _MOMENTS sums as one float64 array.
    # Either read the whole block from its Philox counters, in reads of
    # _rows_per_read trials, or draw it in sub-chunks of whole windows that
    # keep each draw array within _BLOCK_BUDGET doubles (one trial when a
    # trial alone exceeds it).  Trials keep their Philox windows and the
    # block's sums run over the concatenated per-trial values, so the
    # partials depend on neither the path nor the sub-chunk size.
    n = mk.n
    if _by_counter(n, _scan_cols(policy_id, mk)):
        holders, weak = _outcomes(
            policy_id, mk, _counter_reader(seed, n, start, count), th, count,
            lambda cols: _rows_per_read(n, cols))
    else:
        step = max(1, _BLOCK_BUDGET // _stride(n))
        parts = []
        for s in range(start, start + count, step):
            c = min(step, start + count - s)
            read = _window_reader(block_draws(seed, n, s, c), n)
            parts.append(_outcomes(policy_id, mk, read, th, c))
        holders = np.concatenate([h for h, _ in parts])
        weak = np.concatenate([w for _, w in parts])
    welfare = mk.prices[holders]
    with np.errstate(over="ignore", invalid="ignore"):  # ``simulate`` checks
        sums = np.array([welfare.sum(), (welfare * welfare).sum(), weak.sum(),
                         (weak * weak).sum(), (welfare * weak).sum()])
    return np.bincount(holders, minlength=n + 2), sums


def _kahan_total(values):
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
    trials = check_size("simulate", "trials", trials)
    workers = check_size("simulate", "workers", workers)
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 128):
        raise ValueError(f"need an integer seed in [0, 2**128), got {seed!r}")
    # a numpy integer would overflow in the Philox key arithmetic and is
    # not JSON-serialisable
    seed = int(seed)
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

    # fold the blocks in block order as they come, so that no block's
    # holder counts outlive it; one thread runs without a pool
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    counts = np.zeros(mk.n + 2, dtype=np.int64)
    block_sums = []
    with (ThreadPoolExecutor(max_workers=threads) if threads > 1
          else nullcontext()) as pool:
        for block_counts, sums in (pool.map if pool else map)(work, blocks):
            counts += block_counts
            block_sums.append(sums)

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        sums = _kahan_total(block_sums).tolist()
    overflow = [key for key, total in zip(_MOMENTS, sums)
                if not math.isfinite(total)]
    if overflow:
        raise NumericError(f"{', '.join(overflow)} overflowed float64; the "
                           f"prices are too large for welfare moments")
    sum_w, sum_w2, sum_o, sum_o2, sum_wo = sums

    n_t = float(trials)
    mean_w = sum_w / n_t
    mean_o = sum_o / n_t
    ddof = n_t - 1.0 if trials > 1 else 1.0
    var_w = max((sum_w2 - n_t * mean_w ** 2) / ddof, 0.0)
    var_o = max((sum_o2 - n_t * mean_o ** 2) / ddof, 0.0)
    cov = (sum_wo - n_t * mean_w * mean_o) / ddof
    se_w = math.sqrt(var_w / n_t)
    se_o = math.sqrt(var_o / n_t)
    s_opt = float(strong_opt(instance))
    if mean_w > 0:
        ratio_weak = mean_o / mean_w
        ratio_strong = s_opt / mean_w
        # delta method for the ratio r of two correlated means; dividing
        # by mean_w**2 alone keeps every power finite when the sums are
        # finite (mean_w ** 4 overflowed for prices near 1e77)
        r = ratio_weak
        ratio_var = (var_o - 2.0 * r * cov + r ** 2 * var_w) / mean_w ** 2
        ratio_weak_se = math.sqrt(max(ratio_var, 0.0) / n_t)
    else:
        ratio_weak = ratio_strong = ratio_weak_se = math.inf

    held = np.flatnonzero(counts)
    return SimulationReport(
        policy=policy_id,
        instance_digest=instance.digest(),
        trials=trials,
        seed=seed,
        holder_freq=dict(zip(held.tolist(), (counts[held] / n_t).tolist())),
        mean_alg_welfare=mean_w,
        se_alg=se_w,
        mean_weak_opt=mean_o,
        se_weak=se_o,
        strong_opt=s_opt,
        ratio_strong=ratio_strong,
        ratio_weak=ratio_weak,
        ratio_weak_se=ratio_weak_se,
    )
