"""Strong and weak offline benchmarks.

The strong optimum reorders arrivals at will, so it always collects the
single highest price.  The weak optimum is stuck with the realized arrival
order: the best it can do is buy from the seller and resell to the
highest-priced buyer arriving afterwards, keeping the item with the seller
when no later buyer improves on the seller's own price.  Averaged over the
uniform arrival order this gives the closed form

    E[weak OPT] = sum_{i<=mu} X_i / (i (i+1))  +  X_{n+1} / (mu+1),

where X_1 >= X_2 >= ... are the canonically ranked buyer prices and mu
counts the buyers ranked above the seller.  The coefficient 1/(i(i+1)) is
the probability that the rank-i buyer is the best buyer arriving after the
seller, and 1/(mu+1) the probability that the seller outlasts all mu
stronger buyers.

All functions run exactly when fed Fraction prices (the coefficients are
Fractions), and in floats otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from .model import Instance, canonicalize


def strong_opt(instance: Instance):
    """Best price over all n+1 agents."""
    return max(max(instance.buyer_prices), instance.seller_price)


def weak_opt_given_order(instance: Instance, order):
    """Best achievable welfare for one fixed arrival order.

    ``order`` is a permutation of the agent ids 1..n+1.
    """
    ids = tuple(order)
    if sorted(ids) != list(range(1, instance.n + 2)):
        raise ValueError(f"order is not a permutation of 1..{instance.n + 1}")
    return _weak_opt_of_order(instance, ids)


def _weak_opt_of_order(inst: Instance, ids: tuple):
    """``weak_opt_given_order`` for an order already known to be a
    permutation: the seller's price, or the best buyer price after it."""
    seller_pos = ids.index(inst.seller_id)
    best = inst.seller_price
    for agent in ids[seller_pos + 1:]:  # only buyers follow the seller
        price = inst.buyer_prices[agent - 1]
        if price > best:
            best = price
    return best


def weak_opt_expected(instance: Instance):
    """Expected weak optimum over the uniform arrival order (closed form)."""
    ranked = canonicalize(instance)
    total = instance.seller_price * Fraction(1, ranked.mu + 1)
    for i in range(1, ranked.mu + 1):
        total += ranked.sorted_buyer_prices[i - 1] * Fraction(1, i * (i + 1))
    return total
