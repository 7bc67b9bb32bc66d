"""Online trading policies as resettable state machines over arrival events.

Each policy sees only the online information set: arrival time, a seller
flag, the offered price, and the position in the arrival sequence.  Price
comparisons use the universal tie-break key, so the policies inherit the
strict total order from :func:`sectrade.model.canonicalize` without ever
observing offline information.

A policy makes two kinds of irrevocable decision: whether to buy when the
seller arrives (declining stops the episode), and whether to sell the held
item when a buyer arrives.  ``_step`` alone makes both, so each policy is
just a buy test plus per-rank time floors: it keeps the keys of the best
agents so far that it ranks against, one per floor, and sells to a buyer
of relative rank r (r of the kept keys above it) that arrives after
floor r.

* ``alg1`` (random transaction).  Ranks every agent; floor 1/e.  Buy
  unless the seller arrives after (e-1)/e holding the best price so far.
  Sell to the first buyer after 1/e who beats every agent seen before it.

* ``alg2`` (simple random transaction).  Ranks every agent; floor -inf.
  Buy unless the seller is the best offer so far and a fair coin (at most
  one per episode) says no.  Sell to the first buyer who beats every
  agent seen so far.

* ``alg3`` (double threshold, zero-price seller only; a paid seller raises
  ``ValueError``).  Ranks the buyers; floors (t1, t2).  Always buy.  Sell
  to the first buyer who is the best-so-far buyer after t1, or the
  second-best-so-far buyer after t2.

* ``secretary-baseline``: ranks the buyers; floor 1/e.  Always buy, then
  the classical 1/e rule on the buyers; a comparison curve only.

They share no code with :mod:`sectrade.simulate`, whose vectorized kernel
they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from .errors import ProtocolError
from .model import (ArrivalSample, Instance, Thresholds, TradeOutcome,
                    tiebreak_key)

#: Observation cutoff 1/e and the seller skip cutoff (e-1)/e, full precision.
SELL_CUTOFF = 1.0 / math.e
SKIP_CUTOFF = (math.e - 1.0) / math.e

NONE, HELD, SOLD = "none", "held", "sold"


@dataclass
class PolicyEvent:
    """One arrival as seen by a policy."""

    time: float
    is_seller: bool
    price: object
    position: int
    sort_key: tuple  # tie-break key of the arriving agent


@dataclass
class PolicyState:
    """Sufficient statistics carried between events of one episode."""

    inventory: str = NONE
    #: tie-break keys of the best agents seen so far that the policy ranks
    #: against, best first, at most as many as it has floors
    top: list = field(default_factory=list)
    stopped: bool = False
    rng: object = None  # coin source, algorithm 2 only
    last_position: int = 0
    last_time: float = -1.0


def _step(state: PolicyState, event: PolicyEvent, floors: tuple,
          with_seller: bool, buys) -> str:
    """The one deal/stop and sell rule; returns "deal" or "pass".

    The arriving key's relative rank r is the number of kept keys above
    it.  ``buys(record=r == 0)`` decides a seller arrival: yes holds the
    item, no stops the episode.  A buyer arriving while the item is held
    is sold to iff r < len(floors) and its time is past ``floors[r]``.
    Nothing is decided once the episode has stopped.  The key is then
    kept, among the best len(floors), if it is a buyer's or
    ``with_seller`` ranks the seller too.
    """
    if event.position != state.last_position + 1 or event.time <= state.last_time:
        raise ProtocolError(
            f"event out of order: position {event.position} after "
            f"{state.last_position}, time {event.time} after {state.last_time}")
    key, top = event.sort_key, state.top
    r = 0
    while r < len(top) and top[r] > key:
        r += 1
    decision = "pass"
    if not state.stopped:
        if event.is_seller:
            if buys(record=r == 0):
                state.inventory = HELD
                decision = "deal"
            else:
                state.stopped = True
        elif (state.inventory == HELD and r < len(floors)
              and event.time > floors[r]):
            state.inventory = SOLD
            state.stopped = True
            decision = "deal"
    if with_seller or not event.is_seller:
        top.insert(r, key)
        del top[len(floors):]
    state.last_position = event.position
    state.last_time = event.time
    return decision


def alg1_step(state: PolicyState, event: PolicyEvent) -> str:
    """Random-transaction step; returns "deal" or "pass"."""
    return _step(state, event, (SELL_CUTOFF,), True, lambda record: not (
        event.time > SKIP_CUTOFF and record))


def alg2_step(state: PolicyState, event: PolicyEvent) -> str:
    """Simple-random-transaction step; flips at most one coin per episode."""
    return _step(state, event, (-math.inf,), True, lambda record: (
        not record or state.rng.random() < 0.5))


def alg3_step(state: PolicyState, event: PolicyEvent, th: Thresholds) -> str:
    """Double-threshold step for a zero-price seller."""
    def buys(record: bool) -> bool:
        if event.price != 0:
            raise ValueError("double-threshold policy requires seller price 0")
        return True

    return _step(state, event, (th.t1, th.t2), False, buys)


def secretary_baseline_step(state: PolicyState, event: PolicyEvent) -> str:
    """Always buy; then run the classical 1/e rule over the buyers."""
    return _step(state, event, (SELL_CUTOFF,), False, lambda record: True)


_STEPS = {"alg1": alg1_step, "alg2": alg2_step,
          "secretary-baseline": secretary_baseline_step}


def make_policy(policy_id: str, thresholds: Thresholds | None = None):
    """Step function ``(state, event) -> "deal" | "pass"`` of a policy id.

    Ids: "alg1" | "alg2" | "alg3" | "secretary-baseline".  "alg3" requires
    thresholds, which its step function binds.
    """
    if policy_id == "alg3":
        if thresholds is None:
            raise ValueError("alg3 needs thresholds")
        return lambda state, event: alg3_step(state, event, thresholds)
    if policy_id not in _STEPS:
        raise ValueError(f"unknown policy id {policy_id!r}")
    return _STEPS[policy_id]


def run_episode(policy_id: str, instance: Instance,
                sample: ArrivalSample, rng=None,
                thresholds: Thresholds | None = None) -> TradeOutcome:
    """Replay one arrival sample through a policy and score the outcome.

    The sample's order must be a permutation of the agent ids 1..n+1, with
    one arrival time in [0, 1] per agent, strictly increasing; "alg2" needs
    an ``rng`` (its coin source) and "alg3" a zero-price seller, which its
    step checks at the seller's arrival (no episode stops before it).
    Returns the final holder: the seller if the intermediary never bought,
    0 if it bought and never resold, else the buyer it sold to.
    Deterministic given (policy, instance, sample, rng state).
    """
    step = make_policy(policy_id, thresholds)
    n = instance.n
    if sample.size != n + 1:
        raise ValueError(f"sample has {sample.size} arrivals, instance needs {n + 1}")
    if sorted(sample.order) != list(range(1, n + 2)):
        raise ValueError(f"sample order is not a permutation of 1..{n + 1}")
    if len(sample.times) != sample.size:
        raise ValueError(f"sample has {len(sample.times)} times for "
                         f"{sample.size} arrivals")
    last = -1.0
    for t in sample.times:
        # a float skips the much slower abstract-base-class check
        real = type(t) is float or (isinstance(t, Real)
                                    and not isinstance(t, bool))
        if not real or not 0 <= t <= 1:
            raise ValueError(f"arrival time {t!r} is not a real number in [0, 1]")
        if t <= last:
            raise ValueError(f"arrival times must strictly increase, "
                             f"got {t!r} after {last!r}")
        last = t
    if policy_id == "alg2" and rng is None:
        raise ValueError(f"policy {policy_id!r} needs an rng")

    state = PolicyState(rng=rng)
    sold_to = 0
    decisions = []
    for pos, agent in enumerate(sample.order):
        price = instance.price_of(agent)
        event = PolicyEvent(time=sample.times[pos],
                            is_seller=agent == instance.seller_id, price=price,
                            position=pos + 1, sort_key=tiebreak_key(price, agent))
        deal = step(state, event) == "deal"
        decisions.append(deal)
        if deal and not event.is_seller:
            sold_to = agent
    holder = {NONE: instance.seller_id, HELD: 0, SOLD: sold_to}[state.inventory]
    welfare = instance.price_of(holder) if holder else 0
    return TradeOutcome(holder=holder, welfare=welfare, decisions=tuple(decisions))
