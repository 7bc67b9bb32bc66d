#!/usr/bin/env python3
"""Walkthrough: the coin-flip policy and the weak benchmark.

The weak benchmark sees the arrival order in advance but cannot reorder
it: its best move is to resell to the strongest buyer arriving after the
seller.  The coin-flip policy buys outright when the seller is not the
best offer so far, buys with probability 1/2 when it is, and resells to
the first buyer beating everything seen.  Its expected welfare is exactly
half the weak benchmark on every instance: the rank-i buyer ends up
holding with probability 1/(2 i (i+1)) versus the benchmark's 1/(i (i+1)),
and the seller-keeps case halves identically.
"""

from fractions import Fraction

from sectrade import (enumerate_alg2_exact, enumerate_weak_opt_exact,
                      gen_instance, weak_opt_expected)
from sectrade.simulate import simulate


def main():
    print("=" * 64)
    print("1. Exact holder law on a 3-buyer instance (all orders enumerated)")
    print("=" * 64)
    inst = gen_instance("geometric", n=3, r=Fraction(1, 2))
    dist = enumerate_alg2_exact(inst)
    print("buyer prices 1, 1/2, 1/4; seller price 0")
    for holder, prob in dist.holder_prob.items():
        who = ("intermediary stuck" if holder == 0
               else "seller keeps" if holder == 4 else f"buyer {holder}")
        print(f"  {who:<20} {str(prob):>6}")
    for i in (1, 2, 3):
        print(f"  rank {i}: got {dist.prob_of_rank(i)}, "
              f"formula 1/(2i(i+1)) = {Fraction(1, 2 * i * (i + 1))}")

    print()
    print("=" * 64)
    print("2. The ratio is exactly 2, instance by instance")
    print("=" * 64)
    for family, params in (("spike", {"n": 5}),
                           ("flat_k", {"n": 5, "k": 2}),
                           ("seller_spike", {"n": 4}),
                           ("geometric", {"n": 4, "r": Fraction(1, 3)})):
        inst = gen_instance(family, **params)
        opt = enumerate_weak_opt_exact(inst)
        alg = enumerate_alg2_exact(inst).expected_welfare
        print(f"  {family:<13} OPT = {str(opt):>7}  ALG = {str(alg):>7}  "
              f"OPT/ALG = {opt / alg}")

    print()
    print("=" * 64)
    print("3. Monte Carlo agrees at scale")
    print("=" * 64)
    inst = gen_instance("flat_k", n=25, k=10)
    rep = simulate("alg2", inst, 400_000, seed=2)
    expect = float(weak_opt_expected(inst))
    print(f"  mean weak optimum : {rep.mean_weak_opt:.6f} "
          f"(closed form {expect:.6f})")
    print(f"  mean policy value : {rep.mean_alg_welfare:.6f}")
    print(f"  ratio of means    : {rep.ratio_weak:.4f} "
          f"+- {3 * rep.ratio_weak_se:.4f} (3 sigma)")


if __name__ == "__main__":
    main()
