"""Seeded, worker-count-invariant Monte Carlo for the trading policies.

Stream layout (Monte Carlo contract v3)
---------------------------------------
Every uniform is a double of numpy's ``PCG64DXSM(seed)`` (O'Neill's PCG
with the DXSM output function, seeded through numpy's ``SeedSequence``),
at a place fixed by the seed, n, the strength order, the trial and the
agent alone.  Take a trial's n+1 agents in the strength order
(``_Market.strength_cols``, strongest first), let H = min(n+1, 33) and let
the seller sit at strength position mu.

* The head of a trial holds strength positions 0..H-1, then the seller
  when it ranks lower (mu >= H), then alg2's coin: h = H + 1 + [mu >= H]
  rows.  Trials form groups of G = 256, stored one row per agent across the
  group's trials: head row i of trial k is double (k // G) h G + i G + k % G
  of the stream.
* The tail of a trial holds its other agents (strength positions H..n
  without the seller, L = n + 2 - h of them) in strength order: the j-th is
  double 2**127 + k L + j of the stream.

``advance`` reaches any of these places in one jump.  The stream has
period 2**128, so the heads stay below the tails for the first
2**127 / (h G) groups, about 2**127 / 35 = 4.9e36 trials since h <= 35,
and the tails stay below 2**128 for the first 2**127 / L trials; only past
those counts would the two ranges meet.  DXSM, not PCG64's default output
function: numpy documents that one as correlating states a power of two (a
distance of low Hamming weight) apart, and the tails start 2**127 after the
heads.

The layout does not depend on the policy, the worker count, the prefix
width or the memory budget.  Trials are processed in blocks of ``BLOCK``
trials at every n (the last one shorter).  Workers receive whole blocks,
which are folded into the totals in block order as they finish (the moment
sums by compensated addition) and dropped, so a call keeps no per-block
state and its report is byte-identical for any worker count.

Policy evaluation is vectorized over the trials of a block, on
strength-major arrays: one C-order row per column of the canonical strength
order (strongest agent first, the seller among the buyers), each row across
the trials, so that every numpy call covers all the trials it reads.  Every
policy reads a prefix of that one order, and its rule from the table
``sectrade.policies.POLICIES``.  A policy that does not rank the seller
reads its column as +inf, so that it never ranks and is never sold to.
Every policy skips a record seller by its row's test and then sells to the
earliest buyer who is r-th best so far after max(seller, floor_r), for each
of its row's time floors.  A column is r-th best so far when its time lies
between the (r-1)-th and the r-th smallest time before it; those r-th
smallest times are running minima, one ``minimum`` per row, so the
qualifying times fall strictly along the strength order and the earliest
qualifier past a cutoff is the last one.  Weak OPT reads the same array:
buyer prices fall along the strength order, so the best buyer arriving
after the seller is the first one in it, and a +inf seller column ends it
at the seller's price, which no buyer after it exceeds.  The last qualifier
and the first buyer after the seller are each one max down the rows of a
mask times a small integer weight per row.

The kernel reads only the first ``_PREFIX`` strength columns of each
trial, which the head holds with the seller and the coin.  A column further
down the order is r-th best so far only if its time undercuts all but r-1
prefix times, so a trial is settled by its prefix when some prefix column
arrived after the seller (weak OPT) and, for every rank r, r prefix times
are within max(seller, floor_r).  The unsettled trials are evaluated again
on a prefix 8x as wide, which adds the start of each one's tail (one
advance and one draw) and puts a seller past the head back in its
place, until it covers the policy's whole scan (at once for n < 32): all
n+1 columns, but n when a policy that ranks the buyers alone has the
seller last.  Each trial's result is exactly that of the whole scan, so
the prefix width changes no output bit.

A block is drawn and evaluated in sub-chunks of whole groups whose heads
fit in ``_BLOCK_BUDGET`` doubles, and every draw array and kernel read
stays within it too (one trial's tail when that alone is larger); neither
changes the layout or the order of any sum, so no output bit.  Sub-chunks
of 1 MiB (under numpy's 4 MiB huge-page advice) keep thread timing from
moving the peak memory.  Each thread of a ``simulate`` call reuses one
workspace for the head draw, its strength-major copy, the seller's times
that a +inf column replaces and the kernel's running minima: grow-only
buffers of at most ``_BLOCK_BUDGET`` doubles each (a larger array is
allocated afresh), dropped when the call returns, so a block faults in no
new pages for them.  The state machines in :mod:`sectrade.policies` stay
the behavioural reference; the kernel here is cross-checked against them
trial by trial in the test suite.

Competitive ratios divide the mean benchmark by the mean policy welfare
(never per-trial ratios), matching the expectation-based definitions.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .benchmarks import strong_opt
from .errors import NumericError
from .model import Instance, Thresholds, check_size, rank_buyers
from .policies import POLICIES, policy_rule

BLOCK = 1 << 14  # trials per block: they fix the order of every sum
_BLOCK_BUDGET = 1 << 17  # max doubles per draw array and kernel read
# the welfare moments a block sums, in the order of its sums array
_MOMENTS = ("sum_w", "sum_w2", "sum_o", "sum_o2", "sum_wo")
_PREFIX = 32  # strength columns the kernel reads in its first round
_HEAD = 33  # strength positions in a trial's head
_GROUP = 256  # trials per head group: one row of a group is G doubles
_TAIL = 1 << 127  # the stream position where the tails start


@dataclass(frozen=True)
class _Market:
    """Instance facts the kernels need, in array form."""

    n: int
    prices: np.ndarray          # price by holder id 0..n+1 (0 = intermediary)
    strength_cols: np.ndarray   # agent time-columns, strongest first
    seller_strength_pos: int    # seller's index within strength_cols
    seller_price: float


def _float(price, what: str) -> float:
    """``price`` as a float; ``NumericError`` naming ``what`` if too large."""
    try:
        return float(price)
    except OverflowError:
        try:
            text = f" {str(price)[:20]!r}..."
        except ValueError:  # more digits than Python prints
            text = ""
        raise NumericError(f"{what}{text} is beyond float64") from None


def _market(instance: Instance) -> _Market:
    buyer_cols, mu = rank_buyers(instance)
    n = instance.n
    prices = np.zeros(n + 2)
    prices[1:n + 1] = (instance.buyer_array
                       if instance.buyer_array is not None
                       else [_float(p, f"buyer price #{k}") for k, p
                             in enumerate(instance.buyer_prices, 1)])
    seller_price = prices[n + 1] = _float(instance.seller_price,
                                          "seller price")
    return _Market(n=n, prices=prices,
                   strength_cols=np.insert(buyer_cols, mu, n),
                   seller_strength_pos=mu, seller_price=seller_price)


def _head_rows(mk: _Market) -> int:
    """Rows of a trial's head: the first _HEAD strength positions, the
    seller when it ranks lower, and the coin."""
    return min(mk.n + 1, _HEAD) + 1 + (mk.seller_strength_pos >= _HEAD)


def _buffer(ws: dict | None, key: str, shape: tuple) -> np.ndarray:
    """A C-contiguous float64 array of ``shape``: a view of the workspace
    ``ws``'s grow-only buffer ``key``, or a fresh array without a workspace
    or past _BLOCK_BUDGET doubles."""
    size = math.prod(shape)
    if ws is None or size > _BLOCK_BUDGET:
        return np.empty(shape)
    buf = ws.get(key)
    if buf is None or buf.size < size:
        buf = ws[key] = np.empty(size)
    return buf[:size].reshape(shape)


def block_draws(seed: int, mk: _Market, start: int, count: int,
                rows: np.ndarray | None = None, width: int = 0,
                ws: dict | None = None) -> np.ndarray:
    """Uniforms of trials [start, start+count) of market ``mk``,
    strength-major.

    With ``rows`` None these are the trials' heads, shape (h, count): one
    row per head agent across the trials, from one draw of the head groups
    they touch, in the buffers of the workspace ``ws`` when one is given
    (so the array lives until the workspace's next head draw) and fresh
    otherwise.  Else they are the first ``width`` tail uniforms of each
    trial start + rows (``rows`` ascending), shape (width, len(rows)): one
    advance and one draw per trial."""
    h = _head_rows(mk)
    bitgen = np.random.PCG64DXSM(seed)
    gen = np.random.Generator(bitgen)
    if rows is None:
        first, end = start // _GROUP, -(-(start + count) // _GROUP)
        bitgen.advance(first * h * _GROUP)
        u = gen.random(out=_buffer(ws, "draw", (end - first, h, _GROUP)))
        head = _buffer(ws, "head", (h, end - first, _GROUP))
        np.copyto(head, u.transpose(1, 0, 2))
        return head.reshape(h, -1)[:, start - first * _GROUP:][:, :count]
    per = mk.n + 2 - h  # doubles per tail
    out = np.empty((width, len(rows)))
    at = 0  # the position the next draw starts from
    for j, k in enumerate(rows.tolist()):
        pos = _TAIL + (start + k) * per
        bitgen.advance(pos - at)
        out[:, j] = gen.random(width)
        at = pos + width
    return out


def _scan_width(policy_id: str, mk: _Market) -> int:
    """Strength columns of a policy's whole scan: all n+1, but n for a
    policy that ranks the buyers alone when the seller is last."""
    return mk.n + 1 - (not POLICIES[policy_id].ranks_seller
                       and mk.seller_strength_pos == mk.n)


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
              seller_t: np.ndarray, coin: np.ndarray, th: Thresholds | None,
              ws: dict | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of the kernel: holder id (0 = intermediary), weak-OPT value
    and whether the result is final, per trial, from its times ``ts`` at
    the first ts.shape[0] columns of the strength order (C order,
    strength-major: one row per column, strongest agent first, each row
    across the trials), its seller time and its coin.  A policy that does
    not rank the seller reads its column as +inf, which never ranks and
    ends weak OPT at the seller's price.  The running minima live in the
    workspace ``ws`` when one is given."""
    rule, floors = policy_rule(policy_id, th)
    width, trials = ts.shape
    whole = width >= _scan_width(policy_id, mk)
    cols = mk.strength_cols[:width]
    # weight k + 1 on row k: the max of a mask times it down the rows is
    # 1 + the row of the last True in each trial (0 when there is none);
    # reversed, it is width - the row of the first
    up = np.arange(1, width + 1, dtype=np.min_scalar_type(width))[:, None]

    # Weak OPT: buyer prices fall along the strength order, so the best
    # buyer arriving after the seller is the first one in that order (the
    # seller's own column arrives after itself only at +inf).
    first = np.multiply(ts > seller_t, up[::-1]).max(axis=0)
    settled = first > 0
    weak = np.maximum(np.concatenate(([-np.inf], mk.prices[cols[::-1] + 1])),
                      mk.seller_price)[first]

    # The buy test: a record seller past the rule's skip_after is skipped,
    # with a coin only where it lands >= 1/2.  Wherever a skip holds the
    # seller's time is the rank-1 cutoff (alg1 skips only past
    # (e-1)/e > 1/e), so in a settled trial some prefix time beats the
    # seller's, and a seller past the prefix is no record.
    # m_1: the least time before each row, and last the least of all
    bound = _buffer(ws, "bound", (width + 1, trials))
    _running_min(ts, bound)
    pos = mk.seller_strength_pos
    if rule.skip_after < math.inf and pos < width:
        no_buy = (seller_t > rule.skip_after) & (ts[pos] < bound[pos])
        if rule.coin:
            no_buy &= coin >= 0.5
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
    for r, floor in enumerate(floors):
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
    holders = np.where(no_buy, mk.n + 1,
                       np.concatenate(([0], cols + 1))[last])
    return holders, weak, settled | whole


def _outcomes(policy_id: str, mk: _Market, seed: int, start: int,
              count: int, th: Thresholds | None, ws: dict | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Final holder id and weak-OPT value of trials [start, start+count).

    The heads are drawn once, into the workspace ``ws``.  Each read is a
    prefix of the strength order, the seller's head row in its place (+inf,
    its times copied out first, for a policy that does not rank it).  The
    first round reads ``_PREFIX`` columns of every trial; each later round
    reads the trials the last one did not settle at 8x the width, with the
    start of each one's tail, until a round covers the policy's whole
    scan.  A read of at most _BLOCK_BUDGET // width trials is evaluated
    in ``ws`` and writes its results in place, over an earlier round's."""
    mu, scan = mk.seller_strength_pos, _scan_width(policy_id, mk)
    head = block_draws(seed, mk, start, count, ws=ws)
    row = min(mu, _HEAD)  # the seller's head row
    seller_t = head[row]
    if not POLICIES[policy_id].ranks_seller and mu < scan:  # read as +inf
        seller_t = _buffer(ws, "seller", (count,))
        np.copyto(seller_t, head[row])
        head[row] = np.inf
    holders, weak = np.empty(count, dtype=np.int64), np.empty(count)
    rest, width = None, _PREFIX  # None: every trial, read by slices
    while rest is None or rest.size:
        width = min(width, scan)
        todo = count if rest is None else rest.size
        step = max(1, _BLOCK_BUDGET // width)
        left = []
        for i in range(0, todo, step):
            rows = slice(i, i + step) if rest is None else rest[i:i + step]
            hd = head[:, rows]
            ts = hd[:min(width, _HEAD)]
            if width > _HEAD:  # strength positions past the head
                inside = _HEAD <= mu < width  # the seller among them
                tails = block_draws(seed, mk, start, count,
                                    np.arange(count)[rows],
                                    width - _HEAD - inside)
                at = mu - _HEAD if inside else len(tails)
                ts = np.concatenate((ts, tails[:at], hd[_HEAD:_HEAD + inside],
                                     tails[at:]))
            holders[rows], weak[rows], settled = _evaluate(
                policy_id, mk, ts, seller_t[rows], hd[-1], th, ws)
            stuck = np.flatnonzero(~settled)
            left.append(stuck + i if rest is None else rows[stuck])
        rest, width = np.concatenate(left), 8 * width
    return holders, weak


def _block_partials(policy_id: str, mk: _Market, seed: int, start: int,
                    count: int, th: Thresholds | None, ws: dict | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    # The block's holder counts and its _MOMENTS sums as one float64 array.
    # The block is read in sub-chunks of whole head groups whose heads fit
    # in _BLOCK_BUDGET doubles (one group when one alone is larger); the
    # block's sums run over the concatenated per-trial values, so the
    # partials do not depend on the sub-chunk size.  Every sub-chunk
    # draws and evaluates in the calling thread's workspace ``ws``.
    n = mk.n
    step = _GROUP * max(1, _BLOCK_BUDGET // (_head_rows(mk) * _GROUP))
    parts = []
    for s in range(start, start + count, step):
        c = min(step, start + count - s)
        parts.append(_outcomes(policy_id, mk, seed, s, c, th, ws))
    holders = np.concatenate([h for h, _ in parts])
    weak = np.concatenate([w for _, w in parts])
    welfare = mk.prices[holders]
    with np.errstate(over="ignore", invalid="ignore"):  # ``simulate`` checks
        sums = np.array([welfare.sum(), (welfare * welfare).sum(), weak.sum(),
                         (weak * weak).sum(), (welfare * weak).sum()])
    return np.bincount(holders, minlength=n + 2), sums


def _windowed_map(pool, fn, items, window: int):
    """``pool.map(fn, items)`` that submits each item only once fewer than
    ``window`` calls wait to be read, so that memory does not grow with
    the number of items; results come in the order of ``items``."""
    pending = deque()
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


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

    Deterministic given (seed, trials): the block layout and the place of
    every uniform depend only on those, and per-block partials are folded
    in block order, so ``workers`` cannot change any output bit.  At most
    min(workers, blocks, cores) threads run.  Raises ``NumericError`` when
    a price is beyond float64 or a welfare sum overflows it.
    """
    trials = check_size("simulate", "trials", trials)
    workers = check_size("simulate", "workers", workers)
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 128):
        raise ValueError(f"need an integer seed in [0, 2**128), got {seed!r}")
    seed = int(seed)  # a numpy integer is not JSON-serialisable
    if (policy_rule(policy_id, thresholds)[0].zero_seller
            and instance.seller_price != 0):
        raise ValueError(f"{policy_id} requires seller price 0")
    mk = _market(instance)

    blocks = range(0, trials, BLOCK)

    local = threading.local()  # each thread's workspace, for this call

    def work(start):
        if not hasattr(local, "ws"):
            local.ws = {}
        return _block_partials(policy_id, mk, seed, start,
                               min(BLOCK, trials - start), thresholds,
                               local.ws)

    # fold the blocks in block order as they come, the sums by compensated
    # addition, so that no block outlives its fold; one thread needs no pool
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    counts = np.zeros(mk.n + 2, dtype=np.int64)
    total = carry = 0.0
    with (ThreadPoolExecutor(max_workers=threads) if threads > 1
          else nullcontext()) as pool:
        for block_counts, sums in (_windowed_map(pool, work, blocks,
                                                 2 * threads)
                                   if pool else map(work, blocks)):
            counts += block_counts
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                y = sums - carry
                t = total + y
                carry = (t - total) - y
                total = t

    sums = total.tolist()
    overflow = [key for key, value in zip(_MOMENTS, sums)
                if not math.isfinite(value)]
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
