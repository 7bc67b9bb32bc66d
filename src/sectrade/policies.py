"""Online trading policies as resettable state machines over arrival events.

Each policy sees only the online information set: arrival time, a seller
flag, the offered price, and the position in the arrival sequence.  Price
comparisons use the universal tie-break key, so the policies inherit the
strict total order from :func:`sectrade.model.canonicalize` without ever
observing offline information.

A policy makes two kinds of irrevocable decision: whether to buy when the
seller arrives (declining stops the episode), and whether to sell the held
item when a buyer arrives.  Every policy is a skip test on a record seller
plus per-rank time floors (the per-rank time-threshold form of Chan, Chen
and Jiang, SODA 2015): it keeps the keys of the best agents so far that it
ranks against, one per floor, and sells to a buyer of relative rank r (r
of the kept keys above it) that arrives after floor r.  Each policy's rule
is one row of ``POLICIES``, which :mod:`sectrade.simulate`'s vectorized
kernel reads too; the two share the table but not the logic, so the state
machines here check the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from numbers import Real

from .errors import ProtocolError
from .model import (ArrivalSample, Instance, Thresholds, TradeOutcome,
                    tiebreak_key)

#: Observation cutoff 1/e and the seller skip cutoff (e-1)/e, full precision.
SELL_CUTOFF = 1.0 / math.e
SKIP_CUTOFF = (math.e - 1.0) / math.e

NONE, HELD, SOLD = "none", "held", "sold"


@dataclass(frozen=True)
class Policy:
    """One policy's rule.  A held item goes to the first buyer of relative
    rank r arriving after ``floors[r]``; None reads them from the
    thresholds, (t1, t2).  A record seller (above every kept key) arriving
    after ``skip_after`` is skipped, with ``coin`` only if a fair coin,
    drawn only then, lands >= 1/2.  ``ranks_seller``: the seller's key is
    kept too.  ``zero_seller``: a paid seller raises ``ValueError``."""

    floors: tuple | None
    skip_after: float = math.inf
    coin: bool = False
    ranks_seller: bool = True
    zero_seller: bool = False


# alg1 (random transaction), alg2 (simple random transaction: its floor 0
# passes every buyer, who arrives after the seller), alg3 (double
# threshold) and the classical 1/e rule on the buyers, a comparison curve
POLICIES = {
    "alg1": Policy((SELL_CUTOFF,), skip_after=SKIP_CUTOFF),
    "alg2": Policy((0.0,), skip_after=-math.inf, coin=True),
    "alg3": Policy(None, ranks_seller=False, zero_seller=True),
    "secretary-baseline": Policy((SELL_CUTOFF,), ranks_seller=False),
}


def policy_rule(policy_id: str, thresholds: Thresholds | None = None
                ) -> tuple[Policy, tuple]:
    """The row of ``policy_id`` and its floors; ``ValueError`` for an
    unknown id, or a row whose floors are thresholds given no
    ``Thresholds``."""
    rule = POLICIES.get(policy_id) if isinstance(policy_id, str) else None
    if rule is None:
        raise ValueError(f"unknown policy id {policy_id!r}")
    if rule.floors is not None:
        return rule, rule.floors
    if not isinstance(thresholds, Thresholds):
        raise ValueError(f"{policy_id} needs Thresholds, got {thresholds!r}")
    return rule, (thresholds.t1, thresholds.t2)


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
    rng: object = None  # coin source, coin policies only
    last_position: int = 0
    last_time: float = -1.0


def _step(rule: Policy, floors: tuple, state: PolicyState,
          event: PolicyEvent) -> str:
    """The one deal/stop and sell rule; returns "deal" or "pass".

    The arriving key's relative rank r is the number of kept keys above
    it.  A seller arrival is skipped, which stops the episode, or else
    bought, by ``rule``.  A buyer arriving while the item is held is sold
    to iff r < len(floors) and its time is past ``floors[r]``.  Nothing is
    decided once the episode has stopped.  The key is then kept, among the
    best len(floors), if it is a buyer's or the rule ranks the seller.
    """
    if event.position != state.last_position + 1 or not event.time > state.last_time:
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
            if rule.zero_seller and event.price != 0:
                raise ValueError("policy requires seller price 0")
            if (r == 0 and event.time > rule.skip_after
                    and (not rule.coin or state.rng.random() >= 0.5)):
                state.stopped = True
            else:
                state.inventory = HELD
                decision = "deal"
        elif (state.inventory == HELD and r < len(floors)
              and event.time > floors[r]):
            state.inventory = SOLD
            state.stopped = True
            decision = "deal"
    if rule.ranks_seller or not event.is_seller:
        top.insert(r, key)
        del top[len(floors):]
    state.last_position = event.position
    state.last_time = event.time
    return decision


def make_policy(policy_id: str, thresholds: Thresholds | None = None):
    """Step function ``(state, event) -> "deal" | "pass"`` of a policy id,
    with its floors bound; ``ValueError`` as :func:`policy_rule`."""
    return partial(_step, *policy_rule(policy_id, thresholds))


# the exported steps of the paper's three policies
alg1_step = make_policy("alg1")
alg2_step = make_policy("alg2")


def alg3_step(state: PolicyState, event: PolicyEvent, th: Thresholds) -> str:
    """Double-threshold step for a zero-price seller."""
    return _step(*policy_rule("alg3", th), state, event)


def run_episode(policy_id: str, instance: Instance,
                sample: ArrivalSample, rng=None,
                thresholds: Thresholds | None = None) -> TradeOutcome:
    """Replay one arrival sample through a policy and score the outcome.

    The sample's order must be a permutation of the agent ids 1..n+1, with
    one arrival time in [0, 1] per agent, strictly increasing; a coin
    policy ("alg2") needs an ``rng`` (its coin source) and "alg3" a
    zero-price seller, which its step checks at the seller's arrival (no
    episode stops before it).
    Returns the final holder: the seller if the intermediary never bought,
    0 if it bought and never resold, else the buyer it sold to.
    Deterministic given (policy, instance, sample, rng state).
    """
    rule, floors = policy_rule(policy_id, thresholds)
    prices = (0, *instance.buyer_prices, instance.seller_price)  # by id
    seller = len(prices) - 1
    if sample.size != seller:
        raise ValueError(f"sample has {sample.size} arrivals, instance needs {seller}")
    if sorted(sample.order) != list(range(1, seller + 1)):
        raise ValueError(f"sample order is not a permutation of 1..{seller}")
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
    if rule.coin and rng is None:
        raise ValueError(f"policy {policy_id!r} needs an rng")

    state = PolicyState(rng=rng)
    sold_to = 0
    decisions = []
    for pos, agent in enumerate(sample.order):
        price = prices[agent]
        event = PolicyEvent(time=sample.times[pos], is_seller=agent == seller,
                            price=price, position=pos + 1,
                            sort_key=tiebreak_key(price, agent))
        deal = _step(rule, floors, state, event) == "deal"
        decisions.append(deal)
        if deal and agent != seller:
            sold_to = agent
    holder = {NONE: seller, HELD: 0, SOLD: sold_to}[state.inventory]
    return TradeOutcome(holder=holder, welfare=prices[holder],
                        decisions=tuple(decisions))
