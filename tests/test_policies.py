import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from sectrade.errors import ProtocolError
from sectrade.model import (ArrivalSample, Instance, Thresholds,
                            gen_instance, tiebreak_key)
from sectrade.policies import (HELD, NONE, SELL_CUTOFF, SKIP_CUTOFF, SOLD,
                               PolicyEvent, PolicyState, alg1_step, alg2_step,
                               alg3_step, make_policy, run_episode)


def ev(time, price, position, *, seller=False, index=1):
    return PolicyEvent(time=time, is_seller=seller, price=price,
                      position=position, sort_key=tiebreak_key(price, index))


def sample_arrival(n, rng):
    """n+1 iid uniform arrival times, one per agent, sorted: a uniform
    order of the agents and their times, from one set of uniforms."""
    u = rng.random(n + 1)
    perm = np.argsort(u, kind="stable")
    return ArrivalSample(order=tuple(int(a) + 1 for a in perm),
                         times=tuple(float(t) for t in u[perm]))


class FixedCoin:
    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


class TestAlg1Step:
    def test_late_best_seller_skipped(self):
        state = PolicyState()
        assert alg1_step(state, ev(0.5, 3, 1, index=1)) == "pass"
        assert alg1_step(state, ev(0.95, 9, 2, seller=True, index=3)) == "pass"
        assert state.stopped

    def test_early_seller_bought_regardless(self):
        state = PolicyState()
        assert alg1_step(state, ev(0.1, 99, 1, seller=True, index=2)) == "deal"
        assert state.inventory == "held"

    def test_sell_to_record_buyer_after_cutoff(self):
        state = PolicyState()
        alg1_step(state, ev(0.1, 2, 1, seller=True, index=3))
        assert alg1_step(state, ev(0.5, 5, 2, index=1)) == "deal"

    def test_no_sell_before_cutoff(self):
        state = PolicyState()
        alg1_step(state, ev(0.05, 2, 1, seller=True, index=3))
        assert alg1_step(state, ev(0.2, 5, 2, index=1)) == "pass"

    def test_no_sell_to_non_record(self):
        state = PolicyState()
        alg1_step(state, ev(0.1, 7, 1, seller=True, index=3))
        assert alg1_step(state, ev(0.6, 5, 2, index=1)) == "pass"

    def test_out_of_order_events_rejected(self):
        state = PolicyState()
        alg1_step(state, ev(0.5, 1, 1, index=1))
        with pytest.raises(ProtocolError):
            alg1_step(state, ev(0.4, 2, 2, index=2))
        with pytest.raises(ProtocolError):
            alg1_step(state, ev(0.9, 2, 5, index=2))
        # a NaN time compares false both ways: it is out of order, and no
        # later time is let through after it
        with pytest.raises(ProtocolError):
            alg1_step(state, ev(math.nan, 2, 2, index=2))
        with pytest.raises(ProtocolError):
            alg1_step(state, ev(0.1, 2, 2, index=2))


class TestAlg2Step:
    def test_seller_first_is_current_max_coin_buy(self):
        state = PolicyState(rng=FixedCoin(0.2))
        assert alg2_step(state, ev(0.3, 4, 1, seller=True, index=2)) == "deal"
        assert state.rng.calls == 1

    def test_seller_first_coin_skip(self):
        state = PolicyState(rng=FixedCoin(0.9))
        assert alg2_step(state, ev(0.3, 4, 1, seller=True, index=2)) == "pass"
        assert state.stopped

    def test_dominated_seller_bought_without_coin(self):
        state = PolicyState(rng=FixedCoin(0.9))
        alg2_step(state, ev(0.2, 10, 1, index=1))
        assert alg2_step(state, ev(0.4, 5, 2, seller=True, index=2)) == "deal"
        assert state.rng.calls == 0

    def test_non_record_buyer_passed(self):
        state = PolicyState(rng=FixedCoin(0.0))
        alg2_step(state, ev(0.1, 5, 1, seller=True, index=3))
        alg2_step(state, ev(0.3, 10, 2, index=1))  # sold here
        assert state.inventory == "sold"
        assert alg2_step(state, ev(0.5, 7, 3, index=2)) == "pass"

    def test_out_of_order_seller_decides_nothing(self):
        # the order check runs before the buy test: no coin is drawn and
        # the item is not bought
        state = PolicyState(rng=FixedCoin(0.0))
        alg2_step(state, ev(0.5, 1, 1, index=1))
        with pytest.raises(ProtocolError):
            alg2_step(state, ev(0.4, 9, 2, seller=True, index=3))
        assert state.rng.calls == 0
        assert state.inventory == NONE
        assert not state.stopped
        assert (state.last_position, state.last_time) == (1, 0.5)

    def test_at_most_one_coin_per_episode(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            inst = Instance(tuple(rng.uniform(0, 1, size=4)), rng.uniform(0, 1))
            sample = sample_arrival(4, rng)
            coin = FixedCoin(0.3)
            run_episode("alg2", inst, sample, rng=coin)
            assert coin.calls <= 1

    def test_coin_only_matters_when_seller_best_so_far(self):
        rng = np.random.default_rng(5)
        changed = 0
        for _ in range(200):
            inst = Instance(tuple(rng.uniform(0, 1, size=5)), rng.uniform(0, 1))
            sample = sample_arrival(5, rng)
            buy = run_episode("alg2", inst, sample, rng=FixedCoin(0.0))
            skip = run_episode("alg2", inst, sample, rng=FixedCoin(1.0))
            seller_pos = sample.order.index(inst.seller_id)
            seller_key = tiebreak_key(inst.seller_price, inst.seller_id)
            price = (0, *inst.buyer_prices, inst.seller_price)
            best_before = all(
                tiebreak_key(price[a], a) < seller_key
                for a in sample.order[:seller_pos])
            if buy != skip:
                changed += 1
                assert best_before
        assert changed > 0


class TestAlg3Step:
    TH = Thresholds(0.3, 0.7)

    def test_seller_always_bought(self):
        state = PolicyState()
        assert alg3_step(state, ev(0.99, 0, 1, seller=True, index=3), self.TH) == "deal"

    def test_nonzero_seller_price_rejected(self):
        state = PolicyState()
        with pytest.raises(ValueError):
            alg3_step(state, ev(0.5, 1, 1, seller=True, index=3), self.TH)

    def test_best_so_far_after_t1(self):
        state = PolicyState()
        alg3_step(state, ev(0.1, 0, 1, seller=True, index=4), self.TH)
        assert alg3_step(state, ev(0.4, 5, 2, index=1), self.TH) == "deal"

    def test_second_best_after_t2(self):
        state = PolicyState()
        alg3_step(state, ev(0.1, 0, 1, seller=True, index=4), self.TH)
        alg3_step(state, ev(0.2, 9, 2, index=1), self.TH)  # best, before t1
        assert alg3_step(state, ev(0.9, 5, 3, index=2), self.TH) == "deal"

    def test_second_best_before_t2_passed(self):
        state = PolicyState()
        alg3_step(state, ev(0.1, 0, 1, seller=True, index=4), self.TH)
        alg3_step(state, ev(0.2, 9, 2, index=1), self.TH)
        assert alg3_step(state, ev(0.5, 5, 3, index=2), self.TH) == "pass"

    def test_degenerate_thresholds_never_sell(self):
        outcome = run_episode("alg3", gen_instance("spike", n=3),
                              sample_arrival(3, np.random.default_rng(3)),
                              thresholds=Thresholds(1.0, 1.0))
        assert outcome.holder in (0, 4)
        assert outcome.welfare == 0

    def test_t1_zero_reduces_to_best_so_far_rule(self):
        # with t1 = 0 the rule sells to the first record buyer after the
        # seller; whenever the delayed 1/e baseline manages to sell, this
        # rule must have sold too
        rng = np.random.default_rng(17)
        inst = gen_instance("geometric", n=6, r=0.5)
        for _ in range(50):
            sample = sample_arrival(6, rng)
            a = run_episode("alg3", inst, sample, thresholds=Thresholds(0.0, 1.0))
            b = run_episode("secretary-baseline", inst, sample)
            if b.holder != 0:
                assert a.holder != 0

    def test_never_sells_third_or_worse(self):
        rng = np.random.default_rng(23)
        inst = gen_instance("geometric", n=8, r=0.7)
        th = Thresholds(0.296151, 0.805018)
        for _ in range(400):
            sample = sample_arrival(8, rng)
            outcome = run_episode("alg3", inst, sample, thresholds=th)
            if outcome.holder == 0:
                continue
            pos = sample.order.index(outcome.holder)
            earlier_buyers = [a for a in sample.order[:pos + 1]
                              if a != inst.seller_id]
            price = (0, *inst.buyer_prices, inst.seller_price)
            better = sum(1 for a in earlier_buyers
                         if price[a] > price[outcome.holder])
            assert better <= 1


class TestRunEpisode:
    def test_seller_spike_skip_branch(self):
        inst = gen_instance("seller_spike", n=1)
        sample = ArrivalSample(order=(2, 1), times=(0.99, 0.995))
        outcome = run_episode("alg1", inst, sample)
        assert outcome.holder == 2
        assert outcome.welfare == 1

    def test_deterministic_with_seed(self):
        inst = Instance((1, 0.5, 0.2), 0.4)
        sample = sample_arrival(3, np.random.default_rng(8))
        a = run_episode("alg2", inst, sample, rng=np.random.default_rng(5))
        b = run_episode("alg2", inst, sample, rng=np.random.default_rng(5))
        assert a == b

    def test_alg3_spike_hand_trace(self):
        th = Thresholds(0.3, 0.8)
        inst = gen_instance("spike", n=2)
        sample = ArrivalSample(order=(3, 1, 2), times=(0.1, 0.5, 0.9))
        outcome = run_episode("alg3", inst, sample, thresholds=th)
        assert outcome.holder == 1
        assert outcome.welfare == 1

    def test_size_mismatch(self):
        inst = gen_instance("spike", n=3)
        sample = sample_arrival(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_episode("alg1", inst, sample)

    def test_fraction_prices_flow_through(self):
        inst = Instance((Fraction(3, 4), Fraction(1, 4)), Fraction(1, 2))
        sample = ArrivalSample(order=(3, 1, 2), times=(0.1, 0.5, 0.9))
        outcome = run_episode("alg1", inst, sample)
        assert outcome.holder == 1
        assert outcome.welfare == Fraction(3, 4)

    def test_feasibility_every_episode(self):
        # at most one buy, at most one sell, sell never precedes buy
        rng = np.random.default_rng(31)
        th = Thresholds(0.2, 0.6)
        for k in range(300):
            n = 2 + k % 5
            inst = Instance(tuple(rng.uniform(0, 1, size=n)), 0)
            sample = sample_arrival(n, rng)
            for pid in ("alg1", "alg2", "alg3", "secretary-baseline"):
                outcome = run_episode(pid, inst, sample,
                                      rng=np.random.default_rng(k),
                                      thresholds=th)
                deals = [i for i, d in enumerate(outcome.decisions) if d]
                assert len(deals) <= 2
                if len(deals) == 2:
                    first, second = deals
                    assert sample.order[first] == inst.seller_id
                    assert sample.order[second] != inst.seller_id

    def test_coin_policy_needs_an_rng(self):
        # the seller arrives first, so alg2 would flip its coin
        sample = ArrivalSample(order=(3, 1, 2), times=(0.1, 0.5, 0.9))
        with pytest.raises(ValueError, match="'alg2' needs an rng"):
            run_episode("alg2", gen_instance("spike", n=2), sample)

    def test_policy_registry_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("alg9")
        with pytest.raises(ValueError):
            make_policy("alg3")  # thresholds required
        with pytest.raises(ValueError, match="needs Thresholds"):
            make_policy("alg3", (0.3, 0.7))  # a tuple is no Thresholds
        with pytest.raises(ValueError, match="needs Thresholds"):
            run_episode("alg3", gen_instance("spike", n=2),
                        ArrivalSample((3, 1, 2), (0.1, 0.5, 0.9)),
                        thresholds=(0.3, 0.7))

    def test_alg3_requires_zero_seller(self):
        inst = Instance((1, 0.5), 0.2)
        sample = sample_arrival(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_episode("alg3", inst, sample, thresholds=Thresholds(0.1, 0.5))

    def test_seller_holding_frequency_matches_inverse_e(self):
        # seller priced above everyone: holder is the seller iff its arrival
        # falls after (e-1)/e
        inst = gen_instance("seller_spike", n=6)
        rng = np.random.default_rng(12)
        trials = 4000
        kept = 0
        for _ in range(trials):
            sample = sample_arrival(6, rng)
            if run_episode("alg1", inst, sample).holder == 7:
                kept += 1
        p = kept / trials
        sigma = math.sqrt((1 / math.e) * (1 - 1 / math.e) / trials)
        assert abs(p - 1 / math.e) < 4 * sigma

    def test_cutoff_constants_full_precision(self):
        assert SELL_CUTOFF == 1.0 / math.e
        assert SKIP_CUTOFF == (math.e - 1.0) / math.e

    def test_order_must_be_a_permutation(self):
        inst = Instance((1, 0.5), 0.25)
        times = (0.1, 0.5, 0.9)
        for order in ((1, 1, 2),   # the seller never arrives
                      (3, 1, 3),   # the seller arrives twice
                      (1, 2, 4)):  # no such agent
            with pytest.raises(ValueError, match="permutation"):
                run_episode("alg1", inst, ArrivalSample(order, times))

    @pytest.mark.parametrize("times,match", [
        ((0.1, 0.5), "2 times for 3 arrivals"),             # one time short
        ((0.1, 0.5, 0.9, 0.95), "4 times for 3 arrivals"),  # one time extra
        ((0.1, math.nan, 0.9), "nan is not a real number"),
        ((0.1, 0.5, math.inf), "inf is not a real number"),
        ((-0.1, 0.5, 0.9), "-0.1 is not a real number"),
        ((0.1, 0.5, 1.5), "1.5 is not a real number"),
        ((0.1, True, 0.9), "True is not a real number"),
        ((0.1, "0.5", 0.9), "'0.5' is not a real number"),
        ((0.1, 0.1, 0.9), "got 0.1 after 0.1"),            # a tie
        ((0.1, 0.9, 0.5), "got 0.5 after 0.9"),
    ])
    def test_times_are_validated(self, times, match):
        inst = Instance((1, 0.5), 0.25)
        with pytest.raises(ValueError, match=match):
            run_episode("alg1", inst, ArrivalSample((3, 1, 2), times))

    def test_out_of_order_times_rejected_before_any_step(self):
        inst = Instance((1, 0.5), 0.25)
        sample = ArrivalSample((3, 1, 2), (0.5, 0.1, 0.9))
        with pytest.raises(ValueError, match="0.1 after 0.5"):
            run_episode("alg1", inst, sample)
        # the seller arrives first as the best offer, so a first step
        # would draw the coin
        coin = FixedCoin(0.0)
        with pytest.raises(ValueError, match="strictly increase"):
            run_episode("alg2", inst, sample, rng=coin)
        assert coin.calls == 0

    def test_time_range_ends_accepted(self):
        inst = Instance((1, 0.5), 0.25)
        sample = ArrivalSample((3, 1, 2), (0, Fraction(1, 2), np.float64(1)))
        assert run_episode("alg1", inst, sample).holder == 1


# ---------------------------------------------------------------------------
# Reference: the four step functions as they were written before the one
# deal/stop routine, each with its own inventory and stop bookkeeping, and
# the three trackers and rank predicates they read before the kept-key list.
# ---------------------------------------------------------------------------

@dataclass
class RefState:
    inventory: str = NONE
    best_buyer_key: tuple | None = None
    second_best_buyer_key: tuple | None = None
    best_agent_key: tuple | None = None
    stopped: bool = False
    rng: object = None
    last_position: int = 0
    last_time: float = -1.0


def _ingest(state: RefState, event: PolicyEvent) -> None:
    """Validate event order, then fold the event into the trackers."""
    if event.position != state.last_position + 1 or event.time <= state.last_time:
        raise ProtocolError(
            f"event out of order: position {event.position} after "
            f"{state.last_position}, time {event.time} after {state.last_time}")
    state.last_position = event.position
    state.last_time = event.time
    key = event.sort_key
    if state.best_agent_key is None or key > state.best_agent_key:
        state.best_agent_key = key
    if not event.is_seller:
        if state.best_buyer_key is None or key > state.best_buyer_key:
            state.second_best_buyer_key = state.best_buyer_key
            state.best_buyer_key = key
        elif (state.second_best_buyer_key is None
              or key > state.second_best_buyer_key):
            state.second_best_buyer_key = key


def _beats_all_agents(state: RefState, key: tuple) -> bool:
    return state.best_agent_key is None or key > state.best_agent_key


def _is_best_so_far_buyer(state: RefState, key: tuple) -> bool:
    return state.best_buyer_key is None or key > state.best_buyer_key


def _is_second_best_so_far_buyer(state: RefState, key: tuple) -> bool:
    # Exactly one earlier buyer ranks above the arriving one.
    return (state.best_buyer_key is not None and key < state.best_buyer_key
            and (state.second_best_buyer_key is None
                 or key > state.second_best_buyer_key))


def reference_alg1_step(state: RefState, event: PolicyEvent) -> str:
    decision = "pass"
    if not state.stopped:
        if event.is_seller:
            if event.time > SKIP_CUTOFF and _beats_all_agents(state, event.sort_key):
                state.stopped = True
            else:
                state.inventory = HELD
                decision = "deal"
        elif (state.inventory == HELD and event.time > SELL_CUTOFF
              and _beats_all_agents(state, event.sort_key)):
            state.inventory = SOLD
            state.stopped = True
            decision = "deal"
    _ingest(state, event)
    return decision


def reference_alg2_step(state: RefState, event: PolicyEvent) -> str:
    decision = "pass"
    if not state.stopped:
        if event.is_seller:
            if _beats_all_agents(state, event.sort_key):
                if state.rng.random() < 0.5:
                    state.inventory = HELD
                    decision = "deal"
                else:
                    state.stopped = True
            else:
                state.inventory = HELD
                decision = "deal"
        elif state.inventory == HELD and _beats_all_agents(state, event.sort_key):
            state.inventory = SOLD
            state.stopped = True
            decision = "deal"
    _ingest(state, event)
    return decision


def reference_alg3_step(state: RefState, event: PolicyEvent,
                        th: Thresholds) -> str:
    decision = "pass"
    if not state.stopped:
        if event.is_seller:
            if event.price != 0:
                raise ValueError("double-threshold policy requires seller price 0")
            state.inventory = HELD
            decision = "deal"
        elif state.inventory == HELD:
            qualifies = (
                (event.time > th.t1 and _is_best_so_far_buyer(state, event.sort_key))
                or (event.time > th.t2
                    and _is_second_best_so_far_buyer(state, event.sort_key)))
            if qualifies:
                state.inventory = SOLD
                state.stopped = True
                decision = "deal"
    _ingest(state, event)
    return decision


def reference_secretary_baseline_step(state: RefState,
                                      event: PolicyEvent) -> str:
    decision = "pass"
    if not state.stopped:
        if event.is_seller:
            state.inventory = HELD
            decision = "deal"
        elif (state.inventory == HELD and event.time > SELL_CUTOFF
              and _is_best_so_far_buyer(state, event.sort_key)):
            state.inventory = SOLD
            state.stopped = True
            decision = "deal"
    _ingest(state, event)
    return decision


def _replay(step, state, inst, order, times):
    """Feed one arrival order to a step function, as run_episode does."""
    decisions, prices = [], (0, *inst.buyer_prices, inst.seller_price)
    for pos, agent in enumerate(order):
        price = prices[agent]
        decisions.append(step(state, PolicyEvent(
            time=times[pos], is_seller=agent == inst.seller_id, price=price,
            position=pos + 1, sort_key=tiebreak_key(price, agent))))
    return decisions


def _shared_fields(state):
    return (state.inventory, state.stopped, state.last_position,
            state.last_time)


def _reference_top(pid, state):
    """The kept keys a reference state's trackers amount to: the best
    agent, the best buyer, or the two best buyers."""
    keys = {"alg1": [state.best_agent_key], "alg2": [state.best_agent_key],
            "secretary-baseline": [state.best_buyer_key],
            "alg3": [state.best_buyer_key, state.second_best_buyer_key]}[pid]
    return [k for k in keys if k is not None]


def _reference_outcome(inst, order, decisions):
    deals = [agent for agent, d in zip(order, decisions) if d == "deal"]
    assert len(deals) <= 2 and all(a == inst.seller_id for a in deals[:1])
    holder = (inst.seller_id if not deals
              else deals[1] if len(deals) == 2 else 0)
    return holder, (0, *inst.buyer_prices, inst.seller_price)[holder]


class TestMatchesReference:
    """Every arrival order of small instances, on a time grid that
    straddles 1/e, (e-1)/e and every t1, t2 below, hits each cutoff
    exactly, and includes 0 and 1."""

    THRESHOLDS = (Thresholds(0.3, 0.7), Thresholds(0.0, 0.8),
                  Thresholds(0.5, 0.5), Thresholds(1.0, 1.0))
    GRID = (0.0, 0.2, 0.3, SELL_CUTOFF, 0.4, 0.5, 0.6, SKIP_CUTOFF, 0.7, 0.75,
            0.8, 0.9, 1.0)
    INSTANCES = (
        Instance((1,), 0), Instance((1,), 1),
        Instance((2, 2), 0), Instance((1, 3), 2),
        Instance((1, 1, 0.5), 0), Instance((3, 1, 2), 2),
        Instance((Fraction(1, 2), 1, 1, Fraction(1, 4)), 0),
        Instance((4, 1, 3, 1), 3),
        Instance((1, 1, 1, 0.5, 0.25), 0), Instance((5, 2, 4, 2, 1), 2),
    )

    def _cases(self, inst):
        yield "alg1", reference_alg1_step, alg1_step, None, None
        for value in (0.0, 0.9):  # coin says buy / skip
            yield "alg2", reference_alg2_step, alg2_step, value, None
        yield ("secretary-baseline", reference_secretary_baseline_step,
               make_policy("secretary-baseline"), None, None)
        if inst.seller_price == 0:
            for th in self.THRESHOLDS:
                yield ("alg3", lambda s, e, th=th: reference_alg3_step(s, e, th),
                       lambda s, e, th=th: alg3_step(s, e, th), None, th)

    @pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: f"n{i.n}")
    def test_same_decisions_states_and_outcomes(self, inst):
        m = inst.n + 1
        # n = 4 and 5 (120 and 720 orders) skip windows to stay cheap
        windows = range(0, len(self.GRID) - m + 1, max(1, m - 3))
        for order in itertools.permutations(range(1, m + 1)):
            for w in windows:
                times = self.GRID[w:w + m]
                sample = ArrivalSample(order, times)
                for pid, ref, new, coin, th in self._cases(inst):
                    ref_state = RefState(rng=FixedCoin(coin))
                    new_state = PolicyState(rng=FixedCoin(coin))
                    expected = _replay(ref, ref_state, inst, order, times)
                    assert _replay(new, new_state, inst, order, times) == expected
                    assert (_shared_fields(new_state)
                            == _shared_fields(ref_state))
                    assert new_state.top == _reference_top(pid, ref_state)
                    assert new_state.rng.calls == ref_state.rng.calls <= 1
                    outcome = run_episode(pid, inst, sample,
                                          rng=FixedCoin(coin), thresholds=th)
                    assert outcome.decisions == tuple(
                        d == "deal" for d in expected)
                    assert (outcome.holder, outcome.welfare) == \
                        _reference_outcome(inst, order, expected)

    def test_paid_seller_raises_in_both(self):
        th = Thresholds(0.3, 0.7)
        for step, state in ((reference_alg3_step, RefState()),
                            (alg3_step, PolicyState())):
            with pytest.raises(ValueError):
                step(state, ev(0.5, 1, 1, seller=True, index=3), th)
