#!/usr/bin/env python3
"""Walkthrough: the double-threshold policy for a free item.

With the seller's price pinned at zero the intermediary always buys, and
the game is pure reselling: accept the best-so-far buyer after time t1, or
the second-best-so-far buyer after the later time t2.  The second chance
is what beats the plain secretary rule against the weak benchmark: when
the runner-up price is close to the best one, catching either is nearly as
good.

Two instance families pin down the worst case: a single valuable buyer
(only the best counts) and all-equal buyers (any sale counts).  Balancing
them fixes the thresholds.
"""

import math

from sectrade import (Thresholds, alg3_pi_finite, alg3_ratio, alg3_sale_prob,
                      gen_instance, mono_thresholds, optimize_thresholds,
                      unimodality_f)
from sectrade.simulate import simulate


def main():
    print("=" * 64)
    print("1. Tuning the thresholds")
    print("=" * 64)
    th_u, val_u = optimize_thresholds("upper_bound")
    print(f"worst-case balance     : t1 = {th_u.t1:.6f}, t2 = {th_u.t2:.6f} "
          f"-> ratio bound {val_u:.5f}")
    th_l, val_l = optimize_thresholds("lower_bound_family")
    print(f"two-spike family bound : t1 = {th_l.t1:.6f}, t2 = {th_l.t2:.6f} "
          f"-> ratio {val_l:.5f}")

    th = Thresholds(0.296151, 0.805018)
    rep = alg3_ratio(th)
    print(f"\nat the tuned thresholds the two routes agree:")
    print(f"  via best-buyer probability : {rep.via_p1:.5f}")
    print(f"  via sale probability       : {rep.via_sale:.5f}")

    print()
    print("=" * 64)
    print("2. Finite-n rank probabilities (quadrature)")
    print("=" * 64)
    n = 10
    print(f"n = {n}: p_i and the profile f(i) = i(i+1) p_i")
    print(f"{'i':>3} {'p_i':>10} {'f(i)':>10}")
    total = 0.0
    for i in range(1, n + 1):
        p = alg3_pi_finite(i, n, th)
        total += p
        print(f"{i:>3} {p:>10.6f} {i * (i + 1) * p:>10.6f}")
    print(f"sum p_i = {total:.9f}; sale probability (n-free closed form) = "
          f"{alg3_sale_prob(th):.9f}")

    rep_u = unimodality_f(n, th)
    print(f"f rises once then falls (worst cases sit at the ends): "
          f"{rep_u.unimodal}")
    cuts = mono_thresholds(th.t1)
    print(f"rank-difference monotonicity cutoffs at t* = t1: "
          f"I1 = {cuts.I1}, I2 = {cuts.I2}")

    print()
    print("=" * 64)
    print("3. Monte Carlo at n = 10 (one million episodes)")
    print("=" * 64)
    trials = 1_000_000
    mc = simulate("alg3", gen_instance("geometric", n=n, r=0.5), trials,
                  seed=23, thresholds=th)
    print(f"{'i':>3} {'exact':>10} {'MC':>10} {'z':>6}")
    for i in (1, 2, 3, 5, 10):
        p = alg3_pi_finite(i, n, th)
        p_hat = mc.holder_freq.get(i, 0.0)
        z = abs(p_hat - p) / math.sqrt(p * (1 - p) / trials)
        print(f"{i:>3} {p:>10.6f} {p_hat:>10.6f} {z:>6.2f}")


if __name__ == "__main__":
    main()
