import importlib
import json
import math
import sys
import threading
import tracemalloc
import types
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from sectrade.benchmarks import weak_opt_expected
from sectrade.errors import NumericError
from sectrade.model import ArrivalSample, Instance, Thresholds, gen_instance
from sectrade.oracle import enumerate_alg2_exact
from sectrade.policies import POLICIES, SELL_CUTOFF, SKIP_CUTOFF, run_episode
from sectrade.simulate import (_BLOCK_BUDGET, _GROUP, _HEAD, _PREFIX, BLOCK,
                               SimulationReport, _market, _outcomes,
                               block_draws, simulate)

POLICY_IDS = tuple(POLICIES)
TH = Thresholds(0.296151, 0.805018)
# the module itself, whose globals the tests patch
SIM = importlib.import_module("sectrade.simulate")


class _FixedCoin:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _windows(seed, mk, start, count):
    """Every uniform of trials [start, start+count), rebuilt from
    ``block_draws``: row k holds buyer a's time at column a, the seller's at
    column n and the coin at column n + 1."""
    n, mu = mk.n, mk.seller_strength_pos
    head = block_draws(seed, mk, start, count)
    top = min(n + 1, _HEAD)
    u = np.empty((count, n + 2))
    u[:, mk.strength_cols[:top]] = head[:top].T
    u[:, n] = head[min(mu, _HEAD)]
    u[:, n + 1] = head[-1]
    tail_cols = mk.strength_cols[top:]
    tail_cols = tail_cols[tail_cols != n]
    if tail_cols.size:
        u[:, tail_cols] = block_draws(seed, mk, start, count, np.arange(count),
                                      tail_cols.size).T
    return u


class TestStreams:
    def test_blocks_are_windows_of_one_stream(self):
        # a trial's uniforms are the same in any range of trials holding it,
        # and a shorter tail read is the start of a longer one
        for inst in (gen_instance("spike", n=40),
                     Instance(tuple(float(40 - i) for i in range(40)), 35.5)):
            mk = _market(inst)
            a = _windows(9, mk, 0, 700)
            assert np.array_equal(a[260:], _windows(9, mk, 260, 440))
            assert np.array_equal(a[3:301], _windows(9, mk, 3, 298))
            rows = np.array([2, 257, 299])
            assert np.array_equal(block_draws(9, mk, 1, 400, rows, 3),
                                  block_draws(9, mk, 1, 400, rows, 6)[:3])

    def test_distinct_seeds_differ(self):
        mk = _market(gen_instance("spike", n=40))
        a = _windows(9, mk, 0, 10)
        b = _windows(10, mk, 0, 10)
        assert not np.array_equal(a, b)

    def test_policies_read_the_same_uniforms(self, monkeypatch):
        # alg1 scans the zero-price seller, alg3 does not: both read the
        # same heads, and every tail they read starts the trial's tail
        inst = gen_instance("spike", n=300)
        mk = _market(inst)
        trials = 2000
        full = _windows(4, mk, 0, trials)
        tails = full[:, mk.strength_cols[_HEAD:-1]].T  # the seller is last
        draw = SIM.block_draws
        heads = {"alg1": [], "alg3": []}
        tail_reads = []

        def spy(seed, mk, start, count, rows=None, width=0, ws=None):
            u = draw(seed, mk, start, count, rows, width, ws)
            if rows is None:
                heads[policy].append((start, count, u.copy()))
            else:
                tail_reads.append((start + rows, u.copy()))
            return u

        monkeypatch.setattr(SIM, "block_draws", spy)
        for policy in heads:
            tail_reads.clear()
            simulate(policy, inst, trials, seed=4, thresholds=TH)
            assert tail_reads  # n = 300 rescans read tails
            for ks, u in tail_reads:
                assert np.array_equal(u, tails[:u.shape[0], ks])
        (a, b) = heads.values()
        assert [h[:2] for h in a] == [h[:2] for h in b] == [(0, trials)]
        assert np.array_equal(a[0][2], b[0][2])


class TestDeterminism:
    def test_worker_count_is_invisible(self):
        inst = gen_instance("flat_k", n=9, k=4)
        reports = [simulate("alg2", inst, 3 * BLOCK + 777, seed=42, workers=w)
                   for w in (1, 8)]
        assert reports[0] == reports[1]
        assert reports[0].to_json() == reports[1].to_json()

    def test_concurrent_calls_keep_their_workspaces(self):
        # two calls at once, each on two threads: every thread draws into
        # its own call's workspace, so the reports are those of the same
        # calls run one after the other
        inst = gen_instance("flat_k", n=10, k=3)
        seeds = (11, 12)

        def run(seed):
            return simulate("alg2", inst, 3 * BLOCK + 777, seed=seed,
                            workers=2).to_json()

        alone = [run(seed) for seed in seeds]
        start = threading.Barrier(len(seeds))

        def together(seed):
            start.wait(timeout=60)
            return run(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                assert list(pool.map(together, seeds, timeout=120)) == alone
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers,cpus,trials,threads", [
        (64, 3, 5 * BLOCK, 3),      # capped by the cores
        (64, 16, 2 * BLOCK, 2),     # capped by the blocks
        (2, 16, 5 * BLOCK, 2),      # as asked
        (8, 16, BLOCK, None),       # one block: no pool at all
    ])
    def test_worker_threads_capped(self, monkeypatch, workers, cpus, trials,
                                   threads):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        inst = gen_instance("spike", n=4)
        serial = simulate("alg1", inst, trials, seed=5)
        monkeypatch.setattr(SIM, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(SIM.os, "cpu_count", lambda: cpus)
        capped = simulate("alg1", inst, trials, seed=5, workers=workers)
        assert asked == ([] if threads is None else [threads])
        assert capped.to_json() == serial.to_json()

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_layout_is_invisible(self, monkeypatch, policy_id):
        # every uniform has one place, so the workers, the draw budget and
        # the prefix width change no byte: n = 100 over two blocks (the
        # first in head sub-chunks), n = 1000 with a paid seller at strength
        # position 40 (alg3: a zero-price one) and tails in the rescans
        paid = 960.5 if policy_id != "alg3" else 0
        cases = [(gen_instance("geometric", n=100, r=0.97), BLOCK + 700),
                 (Instance(tuple(float(1000 - i) for i in range(1000)), paid),
                  3000)]
        for inst, trials in cases:
            def run(workers=1):
                return simulate(policy_id, inst, trials, seed=11,
                                workers=workers, thresholds=TH).to_json()

            base = run()
            assert run(2) == run(8) == base
            with monkeypatch.context() as patch:
                patch.setattr(SIM, "_BLOCK_BUDGET", 1 << 16)
                assert run() == base
            for prefix in (1, 2, 5, 32):
                with monkeypatch.context() as patch:
                    patch.setattr(SIM, "_PREFIX", prefix)
                    assert run() == base

    def test_repeat_runs_identical(self):
        inst = gen_instance("spike", n=5)
        a = simulate("alg1", inst, 20_000, seed=3)
        b = simulate("alg1", inst, 20_000, seed=3)
        assert a.to_json() == b.to_json()


class TestKernelAgainstStateMachines:
    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_same_draws_same_outcomes(self, policy_id):
        instances = [
            gen_instance("spike", n=5),
            gen_instance("seller_spike", n=4),
            gen_instance("geometric", n=6, r=0.6),
            Instance((0.3, 0.3, 0.9, 0.9), 0.3),
            Instance((1, 0.5, 0.25, 0.125), 0.15),  # seller mid-ranking
        ]
        for inst in instances:
            if POLICIES[policy_id].zero_seller and inst.seller_price != 0:
                continue
            n = inst.n
            mk = _market(inst)
            u = _windows(555, mk, 0, 200)
            vec = _outcomes(policy_id, mk, 555, 0, 200, TH)[0]
            for k in range(200):
                row = u[k, :n + 1]
                perm = np.argsort(row, kind="stable")
                sample = ArrivalSample(
                    order=tuple(int(a) + 1 for a in perm),
                    times=tuple(float(t) for t in row[perm]))
                out = run_episode(policy_id, inst, sample,
                                  rng=_FixedCoin(u[k, n + 1]), thresholds=TH)
                assert out.holder == vec[k]


def reference_holders(policy_id, mk, u, th):
    """The column-major kernel the package used before: a fancy-indexed
    strength gather, a float masked argmin for the earliest qualifier, and
    a Python loop over the buyers for the second-best scan."""
    def prefix_min(ts):
        out = np.empty_like(ts)
        out[:, 0] = np.inf
        np.minimum.accumulate(ts[:, :-1], axis=1, out=out[:, 1:])
        return out

    def earliest(qualify, ts):
        masked = np.where(qualify, ts, np.inf)
        idx = np.argmin(masked, axis=1)
        found = masked[np.arange(ts.shape[0]), idx] < np.inf
        return idx, found

    n = mk.n
    times = u[:, :n + 1]
    seller_t = times[:, n]
    by_strength = times[:, mk.strength_cols]
    record = by_strength < prefix_min(by_strength)
    pos = mk.seller_strength_pos

    if policy_id in ("alg1", "alg2"):
        seller_record = record[:, pos]
        if policy_id == "alg1":
            no_buy = (seller_t > SKIP_CUTOFF) & seller_record
            cutoff = np.maximum(seller_t, SELL_CUTOFF)
        else:
            no_buy = seller_record & (u[:, n + 1] >= 0.5)
            cutoff = seller_t
        qualify = record & (by_strength > cutoff[:, None])
        qualify[:, pos] = False
        idx, sold = earliest(qualify, by_strength)
        buyer_id = mk.strength_cols[idx] + 1
        return np.where(no_buy, n + 1, np.where(sold, buyer_id, 0))

    buyer_ts = (by_strength[:, :n] if pos == n
                else np.delete(by_strength, pos, axis=1))
    first_min = np.full(u.shape[0], np.inf)
    second_min = np.full(u.shape[0], np.inf)
    best_flag = np.empty((u.shape[0], n), dtype=bool)
    second_flag = np.empty((u.shape[0], n), dtype=bool)
    for k in range(n):
        tk = buyer_ts[:, k]
        best_flag[:, k] = tk < first_min
        second_flag[:, k] = (first_min < tk) & (tk < second_min)
        newly_second = np.minimum(np.maximum(first_min, tk), second_min)
        first_min = np.minimum(first_min, tk)
        second_min = newly_second

    held = buyer_ts > seller_t[:, None]
    if policy_id == "alg3":
        qualify = held & ((best_flag & (buyer_ts > th.t1))
                          | (second_flag & (buyer_ts > th.t2)))
    else:
        qualify = held & best_flag & (buyer_ts > SELL_CUTOFF)
    idx, sold = earliest(qualify, buyer_ts)
    buyer_cols = mk.strength_cols[mk.strength_cols != n]
    return np.where(sold, buyer_cols[idx] + 1, 0)


def reference_weak_opt(mk, u):
    """Weak OPT as the package computed it before: the largest price among
    buyers arriving after the seller, floored at the seller's price."""
    n = mk.n
    times = u[:, :n + 1]
    after_seller = times[:, :n] > times[:, n][:, None]
    buyer_prices = mk.prices[1:n + 1]
    weak = np.max(np.where(after_seller, buyer_prices[None, :], -np.inf), axis=1)
    return np.maximum(weak, mk.seller_price)


def _reference_instances(policy_id, n):
    """Distinct and tied prices; paid sellers at every strength position
    for the policies that allow them (all but alg3), zero-price sellers for
    alg3."""
    distinct = tuple(float(n - i) for i in range(n))
    tied = tuple(float((n - i) // 2) for i in range(n))
    if policy_id == "alg3":
        return [Instance(distinct, 0), Instance(tied, 0)]
    instances = [Instance(distinct, p + 0.5) for p in range(n + 1)]
    instances += [Instance(tied, float(p)) for p in sorted(set(tied))]
    instances += [Instance(tied, 0), Instance((0.0,) * n, 0)]
    return instances


def _check_against_reference(policy_id, n):
    for k, inst in enumerate(_reference_instances(policy_id, n)):
        mk = _market(inst)
        u = _windows(900 + k, mk, 17 * k, 500)
        holders, weak = _outcomes(policy_id, mk, 900 + k, 17 * k, 500, TH)
        assert np.array_equal(holders, reference_holders(policy_id, mk, u, TH))
        assert np.array_equal(weak, reference_weak_opt(mk, u))


class TestKernelAgainstReference:
    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 37])
    def test_same_arrays_as_reference(self, policy_id, n):
        _check_against_reference(policy_id, n)

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 37])
    @pytest.mark.parametrize("prefix", [1, 2, 5])
    def test_narrow_prefix_same_arrays_as_reference(self, monkeypatch,
                                                     policy_id, n, prefix):
        # narrow prefixes send most rows through one or more rescans
        monkeypatch.setattr(SIM, "_PREFIX", prefix)
        _check_against_reference(policy_id, n)

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    @pytest.mark.parametrize("n,prefix", [(10, _PREFIX), (37, _PREFIX),
                                          (1000, _PREFIX), (1000, 256)])
    def test_trial_counts_around_the_width(self, monkeypatch, policy_id, n,
                                           prefix):
        # a read runs its running minima row by row when it has no more
        # columns than trials and by one accumulate when it has more: 1, 2,
        # width-1, width and width+1 trials put the first read on both
        # sides, and the rescans of n = 37 and 1000 read wider still
        monkeypatch.setattr(SIM, "_PREFIX", prefix)
        paid = policy_id in ("alg1", "alg2")  # a seller mid-strength
        mk = _market(Instance(tuple(float(n - i) for i in range(n)),
                              n // 2 + 0.5 if paid else 0))
        width = min(prefix, SIM._scan_width(policy_id, mk))
        for trials in (1, 2, width - 1, width, width + 1):
            u = _windows(trials, mk, 5 * trials, trials)
            holders, weak = _outcomes(policy_id, mk, trials, 5 * trials,
                                      trials, TH)
            assert np.array_equal(holders,
                                  reference_holders(policy_id, mk, u, TH))
            assert np.array_equal(weak, reference_weak_opt(mk, u))

    def test_seller_covers_every_position(self):
        positions = {_market(inst).seller_strength_pos
                     for inst in _reference_instances("alg1", 10)}
        assert positions == set(range(11))

    @pytest.mark.parametrize("policy_id,inst", [
        ("alg1", gen_instance("spike", n=1000)),
        ("alg1", Instance(tuple(float(1000 - i) for i in range(1000)), 960.5)),
        ("alg2", gen_instance("seller_spike", n=1000)),
        ("alg2", Instance(tuple(float(1000 - i) for i in range(1000)), 960.5)),
        ("alg3", gen_instance("spike", n=1000)),
        ("secretary-baseline", gen_instance("geometric", n=1000, r=0.99)),
    ])
    def test_rescans_match_whole_width(self, monkeypatch, policy_id, inst):
        # n = 1000 takes rounds of 32, 256 and 2048 columns; the paid
        # seller of 960.5 sits at strength position 40, past the first and
        # past the head, so the rescans read it from the head's seller row
        # between tail columns
        mk = _market(inst)
        n = mk.n
        u = _windows(77, mk, 0, 2000)
        # every column of the policy's scan in strength order; a policy
        # that ranks the buyers alone reads the seller's as +inf
        scan = mk.strength_cols[:SIM._scan_width(policy_id, mk)]
        ts = u.T.take(scan, axis=0)
        if policy_id in ("alg3", "secretary-baseline"):
            ts[scan == n] = np.inf
        whole = SIM._evaluate(policy_id, mk, ts, u[:, n], u[:, n + 1], TH)
        assert whole[2].all()
        widths = []
        evaluate = SIM._evaluate

        def spy(policy_id, mk, ts, seller_t, coin, th, ws=None):
            widths.append(ts.shape[0])
            return evaluate(policy_id, mk, ts, seller_t, coin, th, ws)

        monkeypatch.setattr(SIM, "_evaluate", spy)
        holders, weak = _outcomes(policy_id, mk, 77, 0, 2000, TH)
        assert widths[0] == _PREFIX and 8 * _PREFIX in widths  # rescans
        assert np.array_equal(holders, whole[0])
        assert np.array_equal(weak, whole[1])
        assert np.array_equal(holders, reference_holders(policy_id, mk, u, TH))
        assert np.array_equal(weak, reference_weak_opt(mk, u))


def _shuffled_4000():
    # 4000 distinct prices in a fixed shuffled order: the first strength
    # prefix is scattered over the buyer ids
    rng = np.random.default_rng(4000)
    return Instance(tuple(float(p) for p in rng.permutation(4000) + 1), 0)


_PATH_CASES = [
    ("spike:n=1000", gen_instance("spike", n=1000), 4500),
    ("paid seller at strength position 40",
     Instance(tuple(float(1000 - i) for i in range(1000)), 960.5), 4500),
    ("shuffled n=4000", _shuffled_4000(), 1300),
    ("seller_spike:n=100000", gen_instance("seller_spike", n=100_000), 256),
]


class TestCounterPath:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5, 2**128 - 1])
    def test_same_bits_as_numpys_philox(self, seed):
        # (named for the generator of contract v2; it now reads
        # PCG64DXSM) heads and tails at their places in numpy's stream:
        # head row i of trial k is double (k // G) h G + i G + k % G of
        # PCG64DXSM(seed), and tail uniform j is double 2**127 + k L + j,
        # L = n + 2 - h.  n = 9 has no tail; at n = 40 the seller sits at
        # strength position 3 (in the head) and 33 (just below it), and at
        # n = 42, 43 and 1001 last; the tails' lengths are 8, 7, 9, 10 and
        # 968.  The seeds cross the 64-bit word of numpy's SeedSequence.
        rng = np.random.default_rng(seed % 997)
        prices = tuple(float(40 - i) for i in range(40))
        for inst in (gen_instance("spike", n=9), Instance(prices, 37.5),
                     Instance(prices, 7.5), gen_instance("spike", n=42),
                     gen_instance("spike", n=43),
                     gen_instance("spike", n=1001)):
            mk = _market(inst)
            h = SIM._head_rows(mk)
            assert h == min(mk.n + 1, _HEAD) + 1 + (
                mk.seller_strength_pos >= _HEAD)
            stream = np.random.Generator(np.random.PCG64DXSM(seed))
            flat = stream.random(3 * h * _GROUP)
            k, i = np.arange(10, 610), np.arange(h)[:, None]
            assert np.array_equal(
                block_draws(seed, mk, 10, 600),
                flat[(k // _GROUP) * h * _GROUP + i * _GROUP + k % _GROUP])
            tail = mk.n + 2 - h
            if not tail:
                continue
            bitgen = np.random.PCG64DXSM(seed)
            bitgen.advance(2**127)
            tails = np.random.Generator(bitgen).random(40 * tail)
            tails = tails.reshape(40, tail)
            rows = np.sort(rng.choice(30, size=9, replace=False))
            width = int(rng.integers(1, tail + 1))
            assert np.array_equal(block_draws(seed, mk, 10, 30, rows, width),
                                  tails[10 + rows, :width].T)
            assert np.array_equal(
                block_draws(seed, mk, 10, 30, np.arange(30), tail),
                tails[10:].T)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
    def test_counter_carries_past_two_to_the_64(self, seed):
        # head groups and tails whose positions pass 2**64 (and a head
        # group at a trial index past 2**70), each read through numpy's
        # ``advance`` from the start of the stream: trial indices past
        # int64 stay exact
        mk = _market(gen_instance("spike", n=40))
        h = SIM._head_rows(mk)  # 35 rows: the zero-price seller is last

        def stream_at(position):
            bitgen = np.random.PCG64DXSM(seed)
            bitgen.advance(position)
            return np.random.Generator(bitgen)

        per_group = h * _GROUP
        g = 2**64 // per_group
        assert g * per_group < 2**64 < (g + 1) * per_group
        for group in (g, 2**70 // _GROUP + 3):
            assert np.array_equal(
                block_draws(seed, mk, group * _GROUP, _GROUP),
                stream_at(group * per_group).random((h, _GROUP)))
        start = 2**64 // 7 - 2  # tails of 7 uniforms
        assert start * 7 < 2**64 < (start + 5) * 7
        expect = np.stack([stream_at(2**127 + 7 * (start + r)).random(7)
                           for r in range(5)], axis=1)
        assert np.array_equal(block_draws(seed, mk, start, 5, np.arange(5), 7),
                              expect)

    @pytest.mark.parametrize("seed", [np.int64(9), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        # numpy's PCG64DXSM(seed) seeds its SeedSequence with the Python
        # integer
        inst = gen_instance("spike", n=1000)
        assert (simulate("alg1", inst, 500, seed=seed).to_json()
                == simulate("alg1", inst, 500, seed=int(seed)).to_json())

    @pytest.mark.parametrize("policy_id,inst,trials", [
        pytest.param(policy_id, inst, trials, id=f"{policy_id}-{name}")
        for name, inst, trials in _PATH_CASES for policy_id in POLICY_IDS
        if policy_id != "alg3" or inst.seller_price == 0])
    def test_both_paths_same_report(self, monkeypatch, policy_id, inst,
                                    trials):
        # the prefix rounds, which read the tails of only the trials the
        # head does not settle, and one round over every column, which
        # reads every trial's whole tail, give the same report
        mk = _market(inst)
        tail = mk.n + 2 - SIM._head_rows(mk)
        draw = SIM.block_draws
        tails = []  # (trials, width) of each tail read

        def spy(seed, mk, start, count, rows=None, width=0, ws=None):
            if rows is not None:
                tails.append((start + rows, width))
            return draw(seed, mk, start, count, rows, width, ws)

        monkeypatch.setattr(SIM, "block_draws", spy)
        reports = []
        for prefix, workers in [(_PREFIX, 1), (_PREFIX, 2), (mk.n + 1, 1)]:
            monkeypatch.setattr(SIM, "_PREFIX", prefix)
            tails.clear()
            reports.append(simulate(policy_id, inst, trials, seed=2024,
                                    workers=workers, thresholds=TH).to_json())
            read = np.unique(np.concatenate([np.empty(0, np.intp)]
                                            + [k for k, _ in tails]))
            if prefix > mk.n:
                assert read.size == trials
                assert {w for _, w in tails} == {tail}
            elif (policy_id == "secretary-baseline"
                  and mk.seller_strength_pos == 0):
                # the seller's +inf first row settles weak OPT in the head
                assert read.size == 0
            else:
                assert 0 < read.size < trials
        assert len(set(reports)) == 1


class TestScanWidth:
    @pytest.mark.parametrize("policy_id,seller", [
        (policy_id, seller) for policy_id in POLICY_IDS for seller in (0, 5.5)
        if policy_id != "alg3" or not seller])
    def test_scan_reads_the_seller_unless_last(self, monkeypatch, policy_id,
                                               seller):
        # n = 10 fits one round: every policy reads all 11 strength
        # columns, but alg3 and the baseline drop a zero-price seller,
        # which is last, and read 10
        inst = Instance(tuple(float(10 - i) for i in range(10)), seller)
        assert _market(inst).seller_strength_pos == (10 if not seller else 5)
        widths = []
        evaluate = SIM._evaluate

        def spy(policy_id, mk, ts, *args):
            widths.append(ts.shape[0])
            return evaluate(policy_id, mk, ts, *args)

        monkeypatch.setattr(SIM, "_evaluate", spy)
        simulate(policy_id, inst, 2 * BLOCK, seed=7, thresholds=TH)
        buyers_alone = policy_id in ("alg3", "secretary-baseline")
        assert set(widths) == {10 if buyers_alone and not seller else 11}


class TestMemoryBound:
    def test_draws_stay_within_budget(self, monkeypatch):
        # every block_draws array and kernel read, at the default prefix and
        # with every read as wide as the trial (its whole tail).  At n = 100
        # a block is read in head sub-chunks; at n = 1e5 under a 2**16
        # budget a tail alone is larger, and is read one trial at a time.
        shapes = []
        draw, evaluate = SIM.block_draws, SIM._evaluate

        def draw_spy(seed, mk, start, count, rows=None, width=0, ws=None):
            u = draw(seed, mk, start, count, rows, width, ws)
            shapes.append((rows is None, start, u.shape))
            return u

        def evaluate_spy(policy_id, mk, ts, *args):
            shapes.append((False, None, ts.shape))
            return evaluate(policy_id, mk, ts, *args)

        monkeypatch.setattr(SIM, "block_draws", draw_spy)
        monkeypatch.setattr(SIM, "_evaluate", evaluate_spy)
        for n, budget, trials in [(100, _BLOCK_BUDGET, None),
                                  (100_000, 1 << 16, 3)]:
            inst = gen_instance("seller_spike", n=n)
            mk = _market(inst)
            h = SIM._head_rows(mk)
            per_chunk = _GROUP * (budget // (h * _GROUP))
            trials = trials or 2 * per_chunk + 1  # two full sub-chunks + 1
            expected = simulate("alg1", inst, trials, seed=3).to_json()
            monkeypatch.setattr(SIM, "_BLOCK_BUDGET", budget)
            for prefix in (_PREFIX, n + 1):
                monkeypatch.setattr(SIM, "_PREFIX", prefix)
                shapes.clear()
                rep = simulate("alg1", inst, trials, seed=3)
                assert rep.to_json() == expected
                heads = [(start, shape[1]) for is_head, start, shape in shapes
                         if is_head]
                if n == 100:  # one block, in head sub-chunks
                    assert trials <= BLOCK
                    assert heads == [(0, per_chunk), (per_chunk, per_chunk),
                                     (2 * per_chunk, 1)]
                else:
                    assert heads == [(0, trials)]
                if prefix > n:  # whole tails read
                    assert max(shape[0] for _, _, shape in shapes) > n
                over = [shape for _, _, shape in shapes
                        if math.prod(shape) > budget]
                assert bool(over) == (prefix > n and n > budget)
                assert all(shape[1] == 1 for shape in over)  # one trial
            monkeypatch.setattr(SIM, "_BLOCK_BUDGET", _BLOCK_BUDGET)
        assert 8 * _BLOCK_BUDGET < 1 << 22  # under numpy's huge-page advice size

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_block_peak_within_draws(self, policy_id):
        # one 16384-trial block at n = 10: the strength-major times, one
        # bound array that each rank updates in place, and masks
        mk = _market(gen_instance("spike", n=10))
        draws = BLOCK * (10 + 2) * 8  # every uniform of the block
        SIM._block_partials(policy_id, mk, 1, 0, BLOCK, TH)  # warm up
        tracemalloc.start()
        try:
            SIM._block_partials(policy_id, mk, 1, 0, BLOCK, TH)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 4.5 * draws

    def test_blocks_reuse_the_workspace(self, monkeypatch):
        # one thread, three blocks, each in head sub-chunks: every head is
        # drawn into the memory of the first; without a workspace each call
        # returns a fresh array
        inst = gen_instance("flat_k", n=10, k=3)
        draw = SIM.block_draws
        heads = []

        def spy(seed, mk, start, count, rows=None, width=0, ws=None):
            u = draw(seed, mk, start, count, rows, width, ws)
            if rows is None:
                heads.append(u)
            return u

        monkeypatch.setattr(SIM, "block_draws", spy)
        simulate("alg2", inst, 3 * BLOCK, seed=5)
        mk = _market(inst)
        per_chunk = _GROUP * (_BLOCK_BUDGET // (SIM._head_rows(mk) * _GROUP))
        assert len(heads) == 3 * -(-BLOCK // per_chunk) == 6
        assert all(np.shares_memory(u, heads[0]) for u in heads)
        assert not np.shares_memory(draw(5, mk, 0, BLOCK),
                                    draw(5, mk, 0, BLOCK))

    def test_workspace_within_budget(self, monkeypatch):
        # the one-trial-tail case of test_draws_stay_within_budget: reads
        # larger than the budget are allocated afresh, so no workspace
        # buffer grows past it
        budget = 1 << 16
        partials = SIM._block_partials
        spaces = []

        def spy(policy_id, mk, seed, start, count, th, ws=None):
            spaces.append(ws)
            return partials(policy_id, mk, seed, start, count, th, ws)

        monkeypatch.setattr(SIM, "_block_partials", spy)
        monkeypatch.setattr(SIM, "_BLOCK_BUDGET", budget)
        inst = gen_instance("seller_spike", n=100_000)
        for prefix in (_PREFIX, inst.n + 1):
            monkeypatch.setattr(SIM, "_PREFIX", prefix)
            spaces.clear()
            simulate("alg1", inst, 3, seed=3)
            sizes = [buf.size for ws in spaces for buf in ws.values()]
            assert sizes and max(sizes) <= budget

    def test_market_memory_per_buyer(self):
        # the per-buyer lists and floats of the old _market peaked at
        # about 112 B per buyer
        n = 10**5
        tracemalloc.start()
        try:
            _market(gen_instance("seller_spike", n=n))
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 64 * n

    @pytest.mark.parametrize("policy_id", ["alg2", "alg3"])
    def test_sub_chunks_do_not_change_bytes(self, monkeypatch, policy_id):
        # a block is BLOCK trials whatever the budget, so over two blocks
        # at n = 20000 a smaller budget shrinks only the sub-chunks (3584
        # -> 1792 trials) and the whole-width reads (6 -> 3 trials)
        inst = gen_instance("spike", n=20_000)
        trials = BLOCK + 44
        base = simulate(policy_id, inst, trials, seed=21,
                        thresholds=TH).to_json()
        monkeypatch.setattr(SIM, "_BLOCK_BUDGET", 1 << 16)
        for workers in (1, 2):
            again = simulate(policy_id, inst, trials, seed=21,
                             workers=workers, thresholds=TH)
            assert again.to_json() == base

    def test_blocks_fold_as_they_finish(self, monkeypatch):
        # each block's holder counts are n + 2 int64 (160 kB at n = 20000);
        # 30 blocks of BLOCK trials must cost no more memory than one
        n = 20_000
        blocks = []

        def fake_partials(policy_id, mk, seed, start, count, th, ws):
            blocks.append(count)
            counts = np.zeros(n + 2, dtype=np.int64)
            counts[1] = count
            return counts, np.ones(len(SIM._MOMENTS))

        monkeypatch.setattr(SIM, "_block_partials", fake_partials)
        inst = gen_instance("spike", n=n)
        peaks = []
        for trials in (BLOCK, 30 * BLOCK):
            tracemalloc.start()
            try:
                rep = simulate("alg1", inst, trials, seed=1)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert rep.holder_freq == {1: 1.0}
        assert blocks == [BLOCK] * 31
        assert peaks[1] - peaks[0] < 1 << 20

    def test_no_per_block_state(self, monkeypatch):
        # at n = 2 a block's partials are a few dozen bytes, so 20000 blocks
        # may cost no more memory than one: no list of blocks or of their
        # sums grows with the trial count
        def fake_partials(policy_id, mk, seed, start, count, th, ws):
            counts = np.zeros(4, dtype=np.int64)
            counts[1] = count
            return counts, np.ones(len(SIM._MOMENTS))

        monkeypatch.setattr(SIM, "_block_partials", fake_partials)
        inst = gen_instance("spike", n=2)
        peaks = []
        for trials in (BLOCK, 20_000 * BLOCK):
            tracemalloc.start()
            try:
                rep = simulate("alg1", inst, trials, seed=1)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert rep.holder_freq == {1: 1.0}
            assert rep.mean_alg_welfare == 1.0 / BLOCK  # one per block
        assert peaks[1] - peaks[0] < 64 << 10

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_sums_fold_compensated(self, monkeypatch, workers):
        # 1 + 2^-53 + 2^-53 rounds to 1 when added in turn; the compensated
        # fold keeps the two halves of an ulp and lands on 1 + 2^-52
        def fake_partials(policy_id, mk, seed, start, count, th, ws):
            counts = np.zeros(4, dtype=np.int64)
            counts[1] = count
            return counts, np.full(len(SIM._MOMENTS),
                                   1.0 if start == 0 else 2.0 ** -53)

        monkeypatch.setattr(SIM, "_block_partials", fake_partials)
        rep = simulate("alg1", gen_instance("spike", n=2), 3 * BLOCK, seed=1,
                       workers=workers)
        assert rep.mean_alg_welfare == (1 + 2 ** -52) / (3 * BLOCK)

    def test_threads_keep_a_window_of_blocks(self, monkeypatch):
        # the threaded path submits a block only when few enough wait to
        # be folded: 20000 blocks on two threads may cost no more memory
        # than one
        def fake_partials(policy_id, mk, seed, start, count, th, ws):
            counts = np.zeros(4, dtype=np.int64)
            counts[1] = count
            return counts, np.full(len(SIM._MOMENTS), float(start))

        monkeypatch.setattr(SIM, "_block_partials", fake_partials)
        inst = gen_instance("spike", n=2)
        peaks = []
        for trials in (BLOCK, 20_000 * BLOCK):
            tracemalloc.start()
            try:
                rep = simulate("alg1", inst, trials, seed=1, workers=2)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert rep.holder_freq == {1: 1.0}
        # every block folded once: the mean block start is 19999/2 blocks
        assert rep.mean_alg_welfare == 19_999 / 2
        assert peaks[1] - peaks[0] < 64 << 10

    def test_windowed_map_keeps_order_and_window(self):
        submitted, read = [], []

        class Pool:
            def submit(self, fn, item):
                submitted.append(item)
                assert len(submitted) - len(read) <= 3
                future = Future()
                future.set_result(fn(item))
                return future

        for value in SIM._windowed_map(Pool(), lambda x: x * x, range(10), 3):
            read.append(value)
        assert read == [x * x for x in range(10)]
        assert submitted == list(range(10))

    def test_blocks_are_fixed(self, monkeypatch):
        # the partition of trials into blocks depends on trials alone
        partials = SIM._block_partials
        starts = []

        def spy(policy_id, mk, seed, start, count, th, ws=None):
            starts.append((start, count))
            return partials(policy_id, mk, seed, start, count, th, ws)

        monkeypatch.setattr(SIM, "_block_partials", spy)
        for n in (10, 1000, 100_000):
            starts.clear()
            simulate("alg1", gen_instance("seller_spike", n=n), 2 * BLOCK + 5,
                     seed=2)
            assert starts == [(0, BLOCK), (BLOCK, BLOCK), (2 * BLOCK, 5)]


class TestStatisticalAgreement:
    def test_alg2_matches_exact_distribution(self):
        inst = gen_instance("geometric", n=5, r=0.5)
        exact = enumerate_alg2_exact(
            gen_instance("geometric", n=5, r=__import__("fractions").Fraction(1, 2)))
        trials = 200_000
        rep = simulate("alg2", inst, trials, seed=31)
        for holder, p in exact.holder_prob.items():
            p = float(p)
            sigma = math.sqrt(p * (1 - p) / trials) if 0 < p < 1 else 0.0
            assert abs(rep.holder_freq.get(holder, 0.0) - p) < max(3 * sigma, 1e-9)

    def test_mean_weak_opt_unbiased(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            n = int(rng.integers(2, 7))
            inst = Instance(tuple(float(x) for x in rng.uniform(0, 1, n)),
                            float(rng.uniform(0, 1)))
            trials = 100_000
            rep = simulate("alg1", inst, trials, seed=8)
            expect = float(weak_opt_expected(inst))
            assert abs(rep.mean_weak_opt - expect) < 3.5 * rep.se_weak + 1e-12

    def test_alg1_seller_spike_ratio_is_e(self):
        rep = simulate("alg1", gen_instance("seller_spike", n=10),
                       300_000, seed=6)
        band = 3 * rep.ratio_weak_se
        assert abs(rep.ratio_weak - math.e) < band + 1e-3

    def test_alg2_ratio_two(self):
        rep = simulate("alg2", gen_instance("seller_spike", n=10),
                       300_000, seed=7)
        assert abs(rep.ratio_weak - 2.0) < 3 * rep.ratio_weak_se + 1e-3

    def test_alg3_sale_prob_independent_of_n(self):
        from sectrade.exact import alg3_sale_prob
        sale = alg3_sale_prob(TH)
        for n in (2, 10, 100):
            inst = gen_instance("flat_k", n=n, k=n)
            trials = 120_000
            rep = simulate("alg3", inst, trials, seed=n, thresholds=TH)
            sold = sum(f for h, f in rep.holder_freq.items() if 1 <= h <= n)
            sigma = math.sqrt(sale * (1 - sale) / trials)
            assert abs(sold - sale) < 3.5 * sigma

    def test_holder_frequencies_sum_to_one(self):
        rep = simulate("alg1", gen_instance("spike", n=4), 50_000, seed=1)
        assert abs(sum(rep.holder_freq.values()) - 1.0) < 1e-12


class TestValidation:
    def test_bad_arguments(self):
        inst = gen_instance("spike", n=3)
        with pytest.raises(ValueError):
            simulate("alg1", inst, 0, seed=1)
        with pytest.raises(ValueError):
            simulate("alg1", inst, 10, seed=1, workers=0)
        with pytest.raises(ValueError):
            simulate("nope", inst, 10, seed=1)
        with pytest.raises(ValueError):
            simulate("alg3", inst, 10, seed=1)  # thresholds missing
        with pytest.raises(ValueError, match="needs Thresholds"):
            simulate("alg3", inst, 10, seed=1, thresholds=(0.3, 0.7))

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, True, 1.5, "7"])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            simulate("alg1", gen_instance("spike", n=3), 10, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(9), 2 ** 128 - 1])
    def test_seed_range_ends_accepted(self, seed):
        rep = simulate("alg1", gen_instance("spike", n=3), 10, seed=seed)
        assert json.loads(rep.to_json())["seed"] == seed

    def test_alg3_rejects_paid_seller(self):
        inst = Instance((1, 0.5), 0.3)
        with pytest.raises(ValueError):
            simulate("alg3", inst, 10, seed=1, thresholds=TH)


class TestCurve:
    def test_flat_k_ratio_grows_toward_bound(self):
        # the weak ratio of the buy-then-resell policy on flat instances
        # climbs toward 2 e^2/(e^2-1) ~ 2.3130 as k grows
        ratios = [simulate("alg1", gen_instance("flat_k", n=40, k=k), 60_000,
                           seed=12).ratio_weak for k in (1, 8, 40)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 2.05

    def test_alg3_p1_cross_check(self):
        from sectrade.exact import alg3_pi_finite
        n, trials = 60, 150_000
        inst = gen_instance("geometric", n=n, r=0.9)
        rep = simulate("alg3", inst, trials, seed=44, thresholds=TH)
        p1 = alg3_pi_finite(1, n, TH)
        sigma = math.sqrt(p1 * (1 - p1) / trials)
        assert abs(rep.holder_freq.get(1, 0.0) - p1) < 3.5 * sigma

    def test_alg3_large_n_reaches_asymptotic_limit(self):
        # at n = 2000 the finite-n best-buyer probability and its limit
        # coincide to ~1e-14, so Monte Carlo must bracket the limit itself
        from sectrade.exact import alg3_p1_limit
        trials = 40_000
        rep = simulate("alg3", gen_instance("spike", n=2000), trials,
                       seed=41, thresholds=TH)
        p1 = alg3_p1_limit(TH)
        sigma = math.sqrt(p1 * (1 - p1) / trials)
        assert abs(rep.holder_freq.get(1, 0.0) - p1) < 3.5 * sigma


def test_overflowing_sums_raise_numeric_error():
    inst = Instance((1e308, 1e308), 0)
    with pytest.raises(NumericError, match="sum_w"):
        simulate("alg1", inst, 100, seed=1)
    # zero welfare is no overflow: the ratios keep the inf convention
    rep = simulate("alg1", Instance((0, 0), 0), 100, seed=1)
    assert rep.mean_alg_welfare == 0.0
    assert rep.ratio_weak == rep.ratio_strong == math.inf


def test_price_with_more_digits_than_python_prints():
    # the CLI's JSON and price strings stop at 4300 digits, but a library
    # caller can pass a longer int: the error still names the price
    with pytest.raises(NumericError,
                       match=r"^buyer price #2 is beyond float64$"):
        simulate("alg1", Instance((1, 10 ** 5000), 0), 10, seed=1)


def test_ratio_se_is_scale_free_for_huge_finite_prices():
    # the delta-method variance divides by mean welfare squared only, so
    # prices near 1e100 (fourth power past float64) still give a finite SE
    big = simulate("alg1", Instance((1e100, 1e99), 0), 2000, seed=1)
    small = simulate("alg1", Instance((1.0, 0.1), 0), 2000, seed=1)
    assert math.isfinite(big.ratio_weak_se)
    assert big.ratio_weak_se == pytest.approx(small.ratio_weak_se, rel=1e-12)


def test_report_json_shape():
    rep = simulate("alg1", gen_instance("spike", n=3), 1000, seed=2)
    doc = rep.to_json_dict()
    for key in ("policy", "instance_digest", "trials", "seed", "holder_freq",
                "mean_alg_welfare", "se_alg", "mean_weak_opt", "se_weak",
                "strong_opt", "ratio_strong", "ratio_weak"):
        assert key in doc
    assert isinstance(rep, SimulationReport)


def test_package_attribute_is_the_module():
    import sectrade
    assert isinstance(sectrade.simulate, types.ModuleType)
    assert sectrade.simulate is SIM
    assert "simulate" not in sectrade.__all__
    assert sectrade.SimulationReport is SimulationReport
