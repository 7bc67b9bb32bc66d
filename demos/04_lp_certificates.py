#!/usr/bin/env python3
"""Walkthrough: linear-programming certificates for the impossibility side.

Any rank-based stopping rule induces stopping probabilities x_{i,j} that
satisfy a small family of linear constraints, so the best achievable
success probability is bounded by an LP optimum.  A feasible point of the
dual program certifies an upper bound on that optimum without solving
anything: we only need its objective value and nonnegative slacks.

This script solves the primals exactly at small n with the built-in
simplex, checks the certificates dominate them (weak duality), and then
pushes the certificates to n where the simplex could never go.
"""

from sectrade import (build_strong_primal, build_weak_primal, simplex_solve,
                      strong_dual_certificate, verify_dual_feasibility,
                      weak_dual_certificate)

W1, W2 = 0.970659, 0.029341


def main():
    print("=" * 64)
    print("1. Weak duality sandwich at small n")
    print("=" * 64)
    print(f"{'n':>3} {'strong primal':>14} {'strong dual':>12} "
          f"{'weak primal':>12} {'weak dual':>10}")
    for n in (2, 4, 8, 12, 16):
        sp = simplex_solve(build_strong_primal(n)).objective_value
        sd = strong_dual_certificate(n).objective
        wp = simplex_solve(build_weak_primal(n)).objective_value
        wd = weak_dual_certificate(n, W1, W2).objective
        print(f"{n:>3} {sp:>14.8f} {sd:>12.8f} {wp:>12.8f} {wd:>10.8f}")
    print("primal <= dual on every row; the strong pair is tight already.")

    print()
    print("=" * 64)
    print("2. Certificates at scale")
    print("=" * 64)
    cert = strong_dual_certificate(10 ** 6)
    print(f"strong, n = 1e6: objective = {cert.objective:.7f}, "
          f"j* = {cert.j_star}, min slack = {cert.min_residual:.2e}")
    wcert = weak_dual_certificate(2 * 10 ** 6, W1, W2)
    print(f"weak,  n = 2e6: objective = {wcert.objective:.7f}, "
          f"j* = {wcert.j_star}, j** = {wcert.j_double_star}")
    print(f"               slacks: u >= {wcert.min_residual_u:.2e}, "
          f"v >= {wcert.min_residual_v:.2e}")
    print(f"               implied ratio bound = {1 / wcert.objective:.5f}")

    print()
    print("=" * 64)
    print("3. The verifier is not a rubber stamp")
    print("=" * 64)
    n = 200
    broken = strong_dual_certificate(n)
    broken.y_pos[80] += 1.0
    broken.y_pos[81:] -= 0.01
    report = verify_dual_feasibility((broken.y_pos,),
                                     (lambda j: j / ((n + 1.0) * n),))
    print(f"corrupted certificate: min slack = {report.min_residual:.3e} "
          f"at j = {report.argmin_j} (flagged infeasible)")


if __name__ == "__main__":
    main()
