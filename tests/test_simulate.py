import importlib
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from sectrade.benchmarks import weak_opt_expected
from sectrade.errors import NumericError
from sectrade.model import ArrivalSample, Instance, Thresholds, gen_instance
from sectrade.oracle import enumerate_alg2_exact
from sectrade.policies import SELL_CUTOFF, SKIP_CUTOFF, run_episode
from sectrade.simulate import (_BLOCK_BUDGET, _PREFIX, BLOCK, POLICY_IDS,
                               SimulationReport, _counter_reader, _market,
                               _outcomes, _rows_per_read, _scan_cols, _stride,
                               _window_reader, block_draws, simulate)

TH = Thresholds(0.296151, 0.805018)
# the module itself, whose globals the tests patch
SIM = importlib.import_module("sectrade.simulate")


class _FixedCoin:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestStreams:
    def test_blocks_are_windows_of_one_stream(self):
        a = block_draws(seed=9, n=4, start=0, count=100)
        b = block_draws(seed=9, n=4, start=60, count=40)
        assert np.array_equal(a[60:], b)

    def test_distinct_seeds_differ(self):
        a = block_draws(seed=9, n=4, start=0, count=10)
        b = block_draws(seed=10, n=4, start=0, count=10)
        assert not np.array_equal(a, b)


class TestDeterminism:
    def test_worker_count_is_invisible(self):
        inst = gen_instance("flat_k", n=9, k=4)
        reports = [simulate("alg2", inst, 3 * BLOCK + 777, seed=42, workers=w)
                   for w in (1, 8)]
        assert reports[0] == reports[1]
        assert reports[0].to_json() == reports[1].to_json()

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

            def map(self, fn, items):
                return map(fn, items)

        inst = gen_instance("spike", n=4)
        serial = simulate("alg1", inst, trials, seed=5)
        monkeypatch.setattr(SIM, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(SIM.os, "cpu_count", lambda: cpus)
        capped = simulate("alg1", inst, trials, seed=5, workers=workers)
        assert asked == ([] if threads is None else [threads])
        assert capped.to_json() == serial.to_json()

    def test_repeat_runs_identical(self):
        inst = gen_instance("spike", n=5)
        a = simulate("alg1", inst, 20_000, seed=3)
        b = simulate("alg1", inst, 20_000, seed=3)
        assert a.to_json() == b.to_json()


class TestKernelAgainstStateMachines:
    @pytest.mark.parametrize("policy_id", ["alg1", "alg2", "alg3",
                                           "secretary-baseline"])
    def test_same_draws_same_outcomes(self, policy_id):
        instances = [
            gen_instance("spike", n=5),
            gen_instance("seller_spike", n=4),
            gen_instance("geometric", n=6, r=0.6),
            Instance((0.3, 0.3, 0.9, 0.9), 0.3),
            Instance((1, 0.5, 0.25, 0.125), 0.15),  # seller mid-ranking
        ]
        for inst in instances:
            if policy_id == "alg3" and inst.seller_price != 0:
                continue
            n = inst.n
            mk = _market(inst)
            u = block_draws(seed=555, n=n, start=0, count=200)
            vec = _outcomes(policy_id, mk, _window_reader(u, n), TH, 200)[0]
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
    for the policies that allow them, zero-price sellers for the others."""
    distinct = tuple(float(n - i) for i in range(n))
    tied = tuple(float((n - i) // 2) for i in range(n))
    if policy_id in ("alg3", "secretary-baseline"):
        return [Instance(distinct, 0), Instance(tied, 0)]
    instances = [Instance(distinct, p + 0.5) for p in range(n + 1)]
    instances += [Instance(tied, float(p)) for p in sorted(set(tied))]
    instances += [Instance(tied, 0), Instance((0.0,) * n, 0)]
    return instances


def _check_against_reference(policy_id, n):
    for k, inst in enumerate(_reference_instances(policy_id, n)):
        mk = _market(inst)
        u = block_draws(seed=900 + k, n=n, start=17 * k, count=500)
        holders, weak = _outcomes(policy_id, mk, _window_reader(u, n), TH,
                                  500)
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
        width = min(prefix, len(_scan_cols(policy_id, mk)))
        for trials in (1, 2, width - 1, width, width + 1):
            u = block_draws(seed=trials, n=n, start=5 * trials, count=trials)
            for read, rows_per_read in [
                    (_window_reader(u, n), None),
                    (_counter_reader(trials, n, 5 * trials, trials),
                     lambda cols: _rows_per_read(n, cols))]:
                holders, weak = _outcomes(policy_id, mk, read, TH, trials,
                                          rows_per_read)
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
        # seller of 960.5 sits at strength position 40, past the first.
        # Both readers: whole windows, and the Philox blocks of each round.
        mk = _market(inst)
        n = mk.n
        u = block_draws(seed=77, n=n, start=0, count=2000)
        scan = _scan_cols(policy_id, mk)
        whole = SIM._evaluate(policy_id, mk, u.T.take(scan, axis=0), u[:, n],
                              u[:, n + 1], TH)
        assert whole[2].all()
        widths = []
        evaluate = SIM._evaluate

        def spy(policy_id, mk, ts, seller_t, coin, th):
            widths.append(ts.shape[0])
            return evaluate(policy_id, mk, ts, seller_t, coin, th)

        monkeypatch.setattr(SIM, "_evaluate", spy)
        for read, rows_per_read in [
                (_window_reader(u, n), None),
                (_counter_reader(77, n, 0, 2000),
                 lambda cols: _rows_per_read(n, cols))]:
            widths.clear()
            holders, weak = _outcomes(policy_id, mk, read, TH, 2000,
                                      rows_per_read)
            assert widths[0] == _PREFIX and 8 * _PREFIX in widths  # rescans
            assert np.array_equal(holders, whole[0])
            assert np.array_equal(weak, whole[1])
            assert np.array_equal(holders,
                                  reference_holders(policy_id, mk, u, TH))
            assert np.array_equal(weak, reference_weak_opt(mk, u))


def _shuffled_4000():
    # 4000 distinct prices in a fixed shuffled order: the first strength
    # prefix is scattered over the window
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
        # random (trial, block) sets of a stream, with the seller's and the
        # coin's block and the padding (n = 9 pads column 11, n = 1001
        # column 1003); key words are seed mod 2**64 and seed >> 64
        rng = np.random.default_rng(seed % 997)
        for n in (9, 1001):
            stride = _stride(n)
            philox = np.random.Philox(key=seed)
            stream = np.random.Generator(philox).random(40 * stride)
            stream = stream.reshape(40, stride)
            picked = rng.choice(stride // 4, size=min(3, stride // 4),
                                replace=False)
            blocks = np.unique(np.r_[picked, n // 4, (n + 1) // 4,
                                     stride // 4 - 1])
            rows = np.sort(rng.choice(30, size=9, replace=False))
            got = block_draws(seed, n, 10, 30, blocks, rows)
            cols = (4 * blocks[:, None] + np.arange(4)).ravel()
            assert np.array_equal(got, stream[10 + rows][:, cols])
            assert np.array_equal(block_draws(seed, n, 10, 30, blocks),
                                  stream[10:][:, cols])

    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
    def test_counter_carries_past_two_to_the_64(self, seed):
        # trials whose counters straddle 2**64: the low word carries into
        # the second counter word, as numpy's ``advance`` does
        n = 9
        per_trial = _stride(n) // 4
        start = 2**64 // per_trial - 2
        native = block_draws(seed, n, start, 5)
        assert (start + 5) * per_trial > 2**64 > start * per_trial
        assert np.array_equal(
            block_draws(seed, n, start, 5, np.arange(per_trial)), native)

    @pytest.mark.parametrize("seed", [np.int64(9), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        # the counter path computes Philox keys from the seed with Python
        # integers, as numpy's Philox(key=seed) does
        inst = gen_instance("spike", n=1000)
        assert (simulate("alg1", inst, 500, seed=seed).to_json()
                == simulate("alg1", inst, 500, seed=int(seed)).to_json())

    def test_path_follows_the_blocks_read(self):
        # the counter path when 8x the first round's blocks is below the
        # S/4 blocks of a window: native at n = 10 and 100, counters at
        # n = 1000 and 1e5 (the two sides the benchmark runs)
        def by_counter(policy_id, inst):
            mk = _market(inst)
            return SIM._by_counter(mk.n, SIM._scan_cols(policy_id, mk))

        for n, expected in [(10, False), (100, False), (1000, True),
                            (100_000, True)]:
            for policy_id in POLICY_IDS:
                assert by_counter(policy_id, gen_instance("spike", n=n)) \
                    is expected
        assert by_counter("alg1", gen_instance("seller_spike", n=100_000))
        assert by_counter("alg3", _shuffled_4000())

    @pytest.mark.parametrize("policy_id,inst,trials", [
        pytest.param(policy_id, inst, trials, id=f"{policy_id}-{name}")
        for name, inst, trials in _PATH_CASES for policy_id in POLICY_IDS
        if policy_id != "alg3" or inst.seller_price == 0])
    def test_both_paths_same_report(self, monkeypatch, policy_id, inst,
                                    trials):
        draw = SIM.block_draws
        kinds = set()

        def spy(seed, n, start, count, blocks=None, rows=None):
            kinds.add(blocks is None)
            return draw(seed, n, start, count, blocks, rows)

        monkeypatch.setattr(SIM, "block_draws", spy)
        reports = []
        for by_counter in (False, True):
            monkeypatch.setattr(SIM, "_by_counter",
                                lambda n, cols, forced=by_counter: forced)
            for workers in (1, 2):
                kinds.clear()
                reports.append(simulate(policy_id, inst, trials, seed=2024,
                                        workers=workers,
                                        thresholds=TH).to_json())
                assert kinds == {not by_counter}
        assert len(set(reports)) == 1


class TestMemoryBound:
    def test_draws_stay_within_budget(self, monkeypatch):
        # both paths, at the default prefix and with every read as wide as
        # the window (the width of the last rescan)
        n = 100_000
        per_chunk = _BLOCK_BUDGET // _stride(n)
        trials = 2 * per_chunk + 1  # one block: two full sub-chunks and one trial
        inst = gen_instance("seller_spike", n=n)
        expected = simulate("alg1", inst, trials, seed=3).to_json()
        calls, counters = [], []
        draw, philox = SIM.block_draws, SIM._philox

        def draw_spy(seed, n, start, count, blocks=None, rows=None):
            u = draw(seed, n, start, count, blocks, rows)
            calls.append((start, count, blocks is None, u.size))
            return u

        def philox_spy(seed, c0, c1):
            counters.append(c0.size)
            return philox(seed, c0, c1)

        monkeypatch.setattr(SIM, "block_draws", draw_spy)
        monkeypatch.setattr(SIM, "_philox", philox_spy)
        for by_counter in (False, True):
            monkeypatch.setattr(SIM, "_by_counter",
                                lambda n, cols, forced=by_counter: forced)
            for prefix in (_PREFIX, n + 1):
                monkeypatch.setattr(SIM, "_PREFIX", prefix)
                calls.clear()
                counters.clear()
                rep = simulate("alg1", inst, trials, seed=3)
                assert rep.to_json() == expected
                sizes = [c[3] for c in calls]
                if by_counter:
                    assert calls and not any(c[2] for c in calls)
                    # every uint64 array of a counter draw (the counters,
                    # each Philox word and temporary) has the counters'
                    # size, and the four words stacked are what it returns
                    assert 4 * max(counters) <= _BLOCK_BUDGET
                    assert 4 * sum(counters) == sum(sizes)
                else:
                    assert [c[:3] for c in calls] == [
                        (0, per_chunk, True), (per_chunk, per_chunk, True),
                        (2 * per_chunk, 1, True)]
                    assert not counters
                if prefix > n:
                    assert max(sizes) >= _stride(n)  # whole windows read
                assert max(sizes) <= _BLOCK_BUDGET
        assert 8 * _BLOCK_BUDGET < 1 << 22  # under numpy's huge-page advice size

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_block_peak_within_draws(self, policy_id):
        # one 16384-trial block at n = 10: the strength-major times, one
        # bound array that each rank updates in place, and masks
        mk = _market(gen_instance("spike", n=10))
        draws = BLOCK * _stride(10) * 8
        SIM._block_partials(policy_id, mk, 1, 0, BLOCK, TH)  # warm up
        tracemalloc.start()
        try:
            SIM._block_partials(policy_id, mk, 1, 0, BLOCK, TH)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 4.5 * draws

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
        # at n = 20000 a block is 256 trials whatever the budget, so a
        # smaller budget shrinks only the sub-chunks (13 -> 3 trials)
        inst = gen_instance("spike", n=20_000)
        base = simulate(policy_id, inst, 300, seed=21, thresholds=TH).to_json()
        monkeypatch.setattr(SIM, "_BLOCK_BUDGET", 1 << 16)
        assert SIM._block_size(20_000) == 256
        for workers in (1, 2):
            again = simulate(policy_id, inst, 300, seed=21, workers=workers,
                             thresholds=TH)
            assert again.to_json() == base

    def test_blocks_fold_as_they_finish(self, monkeypatch):
        # each block's holder counts are n + 2 int64 (160 kB at n = 20000,
        # a 256-trial block); 30 blocks must cost no more memory than one
        n = 20_000

        def fake_partials(policy_id, mk, seed, start, count, th):
            counts = np.zeros(n + 2, dtype=np.int64)
            counts[1] = count
            return counts, np.ones(len(SIM._MOMENTS))

        monkeypatch.setattr(SIM, "_block_partials", fake_partials)
        inst = gen_instance("spike", n=n)
        peaks = []
        for trials in (256, 7680):
            tracemalloc.start()
            try:
                rep = simulate("alg1", inst, trials, seed=1)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert rep.holder_freq == {1: 1.0}
        assert SIM._block_size(n) == 256
        assert peaks[1] - peaks[0] < 1 << 20


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
