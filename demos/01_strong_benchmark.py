#!/usr/bin/env python3
"""Walkthrough: the buy-then-resell policy against the strong benchmark.

The strong benchmark always collects the single highest price among the
n+1 agents.  The policy buys from the seller unless the seller shows up
late (after (e-1)/e) holding the best price so far, then resells to the
first record buyer after time 1/e.  Its worst case is governed by
delta_mu, the probability of finishing with the best buyer when mu buyers
outprice the seller, which falls monotonically to (e^2+1)/(4e^2); the
reciprocal is the 3.523188... ratio.
"""

import math

from sectrade import (Instance, canonicalize, delta_limit,
                      delta_limit_quadrature, delta_mu, gen_instance,
                      strong_dual_certificate, strong_ratio_limit)
from sectrade.simulate import simulate


def main():
    print("=" * 64)
    print("1. delta_mu: success probability vs number of strong buyers")
    print("=" * 64)
    print(f"{'mu':>4} {'alpha':>10} {'beta':>10} {'gamma':>10} {'delta':>10}")
    for mu in (1, 2, 3, 5, 10, 30, 100):
        r = delta_mu(mu)
        print(f"{mu:>4} {r.alpha:>10.6f} {r.beta:>10.6f} {r.gamma:>10.6f} "
              f"{r.delta:>10.6f}")
    print(f"\nlimit (closed form)  = {delta_limit():.9f}")
    print(f"limit (quadrature)   = {delta_limit_quadrature():.9f}")
    print(f"strong ratio         = {strong_ratio_limit():.9f}  (= 1/limit)")

    print()
    print("=" * 64)
    print("2. Monte Carlo cross-check at mu = 3")
    print("=" * 64)
    inst = Instance((1, 0.5, 0.25, 0.125, 0.0625), 0.15)
    mu = canonicalize(inst).mu
    trials = 400_000
    rep = simulate("alg1", inst, trials, seed=101)
    p_exact = delta_mu(mu).delta
    p_mc = rep.holder_freq.get(1, 0.0)
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    print(f"mu = {mu}; P(best buyer ends up holding):")
    print(f"  exact engine : {p_exact:.6f}")
    print(f"  Monte Carlo  : {p_mc:.6f}   (z = {abs(p_mc - p_exact) / sigma:.2f})")

    print()
    print("=" * 64)
    print("3. When the seller is the prize: holder frequency 1/e")
    print("=" * 64)
    rep = simulate("alg1", gen_instance("seller_spike", n=30), trials, seed=7)
    print(f"  P(seller keeps item) = {rep.holder_freq.get(31, 0):.6f} "
          f"(1/e = {1 / math.e:.6f})")

    print()
    print("=" * 64)
    print("4. The matching impossibility bound, by dual certificate")
    print("=" * 64)
    print(f"{'n':>9} {'dual objective':>15} {'gap to limit':>14}")
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        cert = strong_dual_certificate(n)
        print(f"{n:>9} {cert.objective:>15.7f} "
              f"{cert.objective - delta_limit():>14.2e}")
    print("\nNo rank-based stopping rule beats the certificate objective, so")
    print("the policy's constant is tight as n grows.")


if __name__ == "__main__":
    main()
