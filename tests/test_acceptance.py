"""Acceptance battery: every headline number at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion, e.g.::

    criterion 07 PASS (0.00s) double-threshold ratio bound 1.83683 by both routes

Each criterion also carries a wall-clock budget; exceeding it fails the
test even when the numbers agree.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from sectrade.benchmarks import weak_opt_expected
from sectrade.cli import main as cli_main
from sectrade.exact import (alg3_pi_finite, alg3_ratio, alg3_sale_prob,
                            delta_gap_closed_form, delta_limit, delta_mu,
                            mono_thresholds, optimize_thresholds,
                            rank_comparison_constants, unimodality_f)
from sectrade.lp import (build_strong_primal, build_weak_primal,
                         simplex_solve, strong_dual_certificate,
                         weak_dual_certificate)
from sectrade.model import Instance, Thresholds, canonicalize, gen_instance
from sectrade.oracle import enumerate_alg2_exact, enumerate_weak_opt_exact
from sectrade.simulate import simulate

TUNED_TH = Thresholds(0.296151, 0.805018)
W1, W2 = 0.970659, 0.029341


@contextmanager
def criterion(num: int, budget_s: float, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL ({time.perf_counter() - t0:.2f}s) {label}")
        raise
    dt = time.perf_counter() - t0
    if dt > budget_s:
        print(f"criterion {num:02d} FAIL ({dt:.2f}s) {label} "
              f"[over {budget_s}s budget]")
        raise AssertionError(f"criterion {num} exceeded {budget_s}s: {dt:.2f}s")
    print(f"criterion {num:02d} PASS ({dt:.2f}s) {label}")


def binom_sigma(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def test_criterion_01_strong_ratio_constant(tmp_path, capsys):
    with criterion(1, 1.0, "strong-ratio constant via `exact limits`"):
        out_path = tmp_path / "limits.json"
        code = cli_main(["exact", "limits", "--out", str(out_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3.523188" in stdout and "0.2838338" in stdout
        doc = json.loads(out_path.read_text())
        assert doc["agreement"] < 1e-9
        assert abs(doc["strong_ratio"] - 3.523188) < 5e-7


def test_criterion_02_delta_monotonicity():
    with criterion(2, 30.0, "delta_mu decreasing, above limit, gap recursion"):
        reports = [delta_mu(mu) for mu in range(1, 202)]
        deltas = [r.delta for r in reports]
        # the true gap (1-1/e)^mu drops below one double ulp near mu = 80,
        # so strictness there lives in the closed form (ledger): floats must
        # never increase, strict wherever a double can represent the gap,
        # and the analytic gap stays positive through mu = 200
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        for mu in range(1, 201):
            gap_cf = delta_gap_closed_form(mu)
            assert gap_cf > 0.0
            if gap_cf > 4e-16:
                assert deltas[mu - 1] > deltas[mu]
        # lower bound: the limit (e^2+1)/(4e^2) = 0.2838338...; the
        # criterion's printed 0.2838344 transposes its final digits and
        # sits above the limit itself (see the decisions ledger)
        bound = delta_limit()
        assert all(d >= bound - 1e-12 for d in deltas)
        for mu in range(1, 31):
            gap = deltas[mu - 1] - deltas[mu]
            assert abs(gap - delta_gap_closed_form(mu)) < 1e-9


def test_criterion_03_alg1_seller_holding():
    with criterion(3, 60.0, "alg1 keeps seller-spike item with prob 1/e"):
        trials = 10 ** 6
        rep = simulate("alg1", gen_instance("seller_spike", n=50), trials,
                       seed=7)
        p_hat = rep.holder_freq.get(51, 0.0)
        assert abs(p_hat - 1 / math.e) < 3 * binom_sigma(1 / math.e, trials)


def test_criterion_04_alg1_best_buyer_probability():
    with criterion(4, 60.0, "alg1 best-buyer frequency matches delta_3"):
        inst = Instance((1, 0.5, 0.25, 0.125, 0.0625, 0.03125), 0.15)
        assert canonicalize(inst).mu == 3
        trials = 10 ** 6
        rep = simulate("alg1", inst, trials, seed=17)
        d3 = delta_mu(3).delta
        p_hat = rep.holder_freq.get(1, 0.0)
        assert abs(p_hat - d3) < 3 * binom_sigma(d3, trials)


def test_criterion_05_alg2_exactness():
    with criterion(5, 10.0, "alg2 exact rationals 1/(2i(i+1)) and weak ratio 2"):
        instances = []
        for n in range(1, 6):
            instances.append(gen_instance("spike", n=n))
            instances.append(gen_instance("seller_spike", n=n))
            instances.append(gen_instance("geometric", n=n, r=Fraction(1, 2)))
            for k in range(1, n + 1):
                instances.append(gen_instance("flat_k", n=n, k=k))
        for inst in instances:
            ranked = canonicalize(inst)
            dist = enumerate_alg2_exact(inst)
            for i in range(1, ranked.mu + 1):
                assert dist.prob_of_rank(i) == Fraction(1, 2 * i * (i + 1))
            opt = enumerate_weak_opt_exact(inst)
            assert opt == 2 * dist.expected_welfare


def test_criterion_06_weak_opt_closed_form():
    with criterion(6, 30.0, "weak OPT closed form == enumeration, 50 instances"):
        rng = np.random.default_rng(2718)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            buyers = tuple(
                Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 8)))
                for _ in range(n))
            seller = Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 8)))
            inst = Instance(buyers, seller)
            assert enumerate_weak_opt_exact(inst) == weak_opt_expected(inst)


def test_criterion_07_theorem4_constant():
    with criterion(7, 1.0, "double-threshold ratio bound 1.83683 by both routes"):
        rep = alg3_ratio(TUNED_TH)
        assert abs(rep.via_p1 - 1.83683) < 1e-4
        assert abs(rep.via_sale - 1.83683) < 1e-4


def test_criterion_08_remark_constant():
    with criterion(8, 60.0, "family lower bound 1.76239 at its thresholds"):
        th, value = optimize_thresholds("lower_bound_family")
        assert abs(value - 1.76239) < 1e-4
        assert abs(th.t1 - 0.365883) < 1e-3
        assert abs(th.t2 - 0.978772) < 1e-3


def test_criterion_09_finite_n_formulas():
    with criterion(9, 300.0, "finite-n rank probabilities: sums and Monte Carlo"):
        sale = alg3_sale_prob(TUNED_TH)
        for n in (2, 5, 10):
            total = sum(alg3_pi_finite(i, n, TUNED_TH) for i in range(1, n + 1))
            assert abs(total - sale) < 1e-6
        n, trials = 10, 10 ** 6
        rep = simulate("alg3", gen_instance("geometric", n=n, r=0.5), trials,
                       seed=23, thresholds=TUNED_TH)
        for i in range(1, n + 1):
            p = alg3_pi_finite(i, n, TUNED_TH)
            assert abs(rep.holder_freq.get(i, 0.0) - p) < 3 * binom_sigma(p, trials)


def test_criterion_10_unimodality_numerics():
    with criterion(10, 120.0, "rank-comparison constants and unimodality flag"):
        consts = rank_comparison_constants(TUNED_TH)
        assert abs(consts.gain_2_vs_1 - 0.459218) < 1e-4
        # 0.1186 is quoted with the 1/(n+1)|_{n=2} = 1/3 weight attached
        # (ledger); the unweighted inequality is asserted alongside
        assert abs(consts.drop_2_vs_3 / 3 - 0.1186) < 5e-4
        assert consts.drop_2_vs_3 > consts.tail_gain_3_vs_2_at_n2
        for n in range(2, 13):
            assert unimodality_f(n, TUNED_TH).unimodal


def test_criterion_11_monotonicity_thresholds():
    with criterion(11, 1.0, "rank cutoffs I = 9, 3, 1 at the cited t*"):
        assert mono_thresholds(0.296151).I1 == 9
        assert mono_thresholds(0.805018).I2 == 3
        assert mono_thresholds(0.805018).I1 == 1


def test_criterion_12_strong_dual_certificate():
    with criterion(12, 10.0, "strong dual certificate feasible, objective near limit"):
        for n in (10 ** 2, 10 ** 4, 10 ** 6):
            cert = strong_dual_certificate(n)
            assert cert.min_residual >= -1e-12
        gaps = [abs(strong_dual_certificate(10 ** k).objective - 0.283834)
                for k in (3, 4, 5, 6)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1.1e-3


def test_criterion_13_weak_dual_certificate():
    with criterion(13, 30.0, "weak dual certificate 0.567411 at n = 2e6"):
        cert = weak_dual_certificate(2_000_000, W1, W2)
        assert abs(cert.objective - 0.567411) < 5e-4
        assert cert.min_residual_u >= -1e-12
        assert cert.min_residual_v >= -1e-12


def test_criterion_14_weak_duality_sandwich():
    with criterion(14, 300.0, "simplex optima below certificate objectives"):
        for n in range(2, 41):
            primal = simplex_solve(build_strong_primal(n)).objective_value
            dual = strong_dual_certificate(n).objective
            assert primal <= dual + 1e-9, f"strong pair violated at n={n}"
        for n in range(2, 31):
            primal = simplex_solve(build_weak_primal(n)).objective_value
            dual = weak_dual_certificate(n, W1, W2).objective
            assert primal <= dual + 1e-9, f"weak pair violated at n={n}"


def test_criterion_15_simulation_determinism():
    with criterion(15, 120.0, "simulate is byte-identical for workers 1 and 8"):
        cases = [
            ("alg1", gen_instance("seller_spike", n=12), None),
            ("alg2", gen_instance("flat_k", n=9, k=4), None),
            ("alg3", gen_instance("spike", n=8), TUNED_TH),
            ("secretary-baseline", gen_instance("geometric", n=7, r=0.5), None),
        ]
        for policy_id, inst, th in cases:
            a = simulate(policy_id, inst, 50_000, seed=99, workers=1,
                         thresholds=th)
            b = simulate(policy_id, inst, 50_000, seed=99, workers=8,
                         thresholds=th)
            assert a.to_json().encode() == b.to_json().encode()
