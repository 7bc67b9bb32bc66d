"""Exhaustive exact ground truth for small markets, in rational arithmetic.

Two policies are fully determined by the arrival order alone (the weak
offline optimum, and the coin-flip policy up to its single coin), so for
small n we can enumerate all (n+1)! orders and obtain exact expectations.
These enumerations are the reference oracles for the closed forms
elsewhere in the package.

The oracle scales the given prices, each read as the
``fractions.Fraction`` it equals (a float price must be integral), to
Python ints by L, the lcm of their n+1 denominators.  The scaled market
has the same order and the same ties, so every order makes the same
comparisons in int arithmetic, and each result, an int tally divided by
L and the number of orders, is the same Fraction as an enumeration in
Fractions.

The weak optimum of each order is the per-order rule of
:func:`sectrade.benchmarks.weak_opt_given_order`.  The coin-flip policy is
replayed through the state machine of :mod:`sectrade.policies`.

The time-threshold policies are excluded on purpose: their outcomes depend
on the continuous arrival times beyond the order, so their ground truth is
the quadrature engine, not enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .benchmarks import _weak_opt_of_order
from .model import ArrivalSample, Instance, canonicalize, check_size
from .policies import run_episode

WEAK_OPT_CAP = 7
ALG2_CAP = 6


def _int_instance(instance: Instance) -> tuple[Instance, int]:
    """The instance times L, the lcm of the denominators of its n+1 prices
    read as Fractions, as an instance of ints; and L.  A float price must
    be integral."""
    prices = (*instance.buyer_prices, instance.seller_price)
    for p in prices:
        if isinstance(p, float) and not p.is_integer():
            raise ValueError(
                f"exact enumeration needs rational prices, got float {p}; "
                "pass Fraction values instead")
    prices = [Fraction(p) for p in prices]
    scale = math.lcm(*(p.denominator for p in prices))
    ints = [p.numerator * (scale // p.denominator) for p in prices]
    return Instance(ints[:-1], ints[-1]), scale


def enumerate_weak_opt_exact(instance: Instance) -> Fraction:
    """Exact expected weak optimum: average the per-order optimum over all
    (n+1)! arrival orders."""
    n = check_size("weak-opt enumeration", "n", instance.n, cap=WEAK_OPT_CAP)
    inst, scale = _int_instance(instance)
    total = sum(_weak_opt_of_order(inst, order)
                for order in permutations(range(1, n + 2)))
    return Fraction(total, math.factorial(n + 1) * scale)


@dataclass(frozen=True)
class Alg2Distribution:
    """Exact outcome law of the coin-flip policy on one instance.

    ``holder_prob`` maps holder id (0 = intermediary, buyers 1..n, seller
    n+1) to its exact probability; ``expected_welfare`` is the exact mean
    social welfare.
    """

    instance: Instance
    holder_prob: dict
    expected_welfare: Fraction

    def prob_of_rank(self, rank: int) -> Fraction:
        """Holder probability of the canonically ranked rank-th buyer."""
        if not 1 <= rank <= self.instance.n:
            raise ValueError(f"need 1 <= rank <= {self.instance.n}, "
                             f"got {rank}")
        ranked = canonicalize(self.instance)
        agent = ranked.original_index_of_rank[rank - 1]
        return self.holder_prob.get(agent, Fraction(0))


class _FixedCoin:
    """Stub rng returning a preset uniform; counts how often it is drawn."""

    def __init__(self, value: float):
        self.value = value
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.value


def enumerate_alg2_exact(instance: Instance) -> Alg2Distribution:
    """Replay the coin-flip policy on every order, branching on the coin.

    Each order flips at most one coin (the seller arrives once); orders
    where the seller is best-so-far at arrival contribute both coin
    branches with weight 1/2 each.  The tallies count halves: 2 for an
    order without a coin, 1 for each coin branch.
    """
    n = check_size("coin-flip enumeration", "n", instance.n, cap=ALG2_CAP)
    inst, scale = _int_instance(instance)
    times = tuple((k + 1) / (n + 2) for k in range(n + 1))
    halves: dict[int, int] = {}
    welfare = 0  # in halves of 1/scale
    n_orders = 0
    for order in permutations(range(1, n + 2)):
        n_orders += 1
        sample = ArrivalSample(order=order, times=times)
        buy_coin = _FixedCoin(0.0)   # coin says buy
        outcome_buy = run_episode("alg2", inst, sample, rng=buy_coin)
        if buy_coin.calls == 0:
            branches = ((outcome_buy, 2),)
        else:
            skip_coin = _FixedCoin(1.0)  # coin says skip
            outcome_skip = run_episode("alg2", inst, sample, rng=skip_coin)
            branches = ((outcome_buy, 1), (outcome_skip, 1))
        for outcome, weight in branches:
            halves[outcome.holder] = halves.get(outcome.holder, 0) + weight
            welfare += weight * outcome.welfare
    total = 2 * n_orders
    return Alg2Distribution(
        instance=instance,
        holder_prob={h: Fraction(k, total) for h, k in sorted(halves.items())},
        expected_welfare=Fraction(welfare, total * scale))
