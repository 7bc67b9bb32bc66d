import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sectrade.exact import (alg2_holder_prob, alg3_p1_limit, alg3_p2_limit,
                            alg3_pi_finite, alg3_pi_parts, alg3_ratio,
                            alg3_report, alg3_sale_prob, delta_gap_closed_form,
                            delta_limit, delta_limit_quadrature, delta_mu,
                            mono_thresholds, optimize_thresholds, pow1m,
                            strong_ratio_limit, unimodality_f, _alg3_pieces,
                            _grid_argmin, _objective_arr, _p1_limit_arr,
                            _p2_limit_arr, _ratio_branches, _sale_prob_arr,
                            ALG3_TABLE_CAP)
import sectrade.exact as exact
from sectrade.errors import NumericError, SizeCapError
from sectrade.model import Thresholds
from sectrade.quadrature import integrate_rect, integrate_wedge

E = math.e
TUNED_TH = Thresholds(0.296151, 0.805018)
FAMILY_TH = Thresholds(0.365883, 0.978772)


class TestDeltaMu:
    def test_mu_one_against_antiderivatives(self):
        # independent closed forms: the inner integrals are elementary at
        # mu = 1, where the middle-buyer set is empty
        alpha1 = (1 / E) * (1 - 1 / E)
        beta1 = ((1 - 1 / E) ** 2 - (1 / E) ** 2) / 2
        rep = delta_mu(1)
        assert abs(rep.alpha - alpha1) < 1e-9
        assert abs(rep.beta - beta1) < 1e-9
        assert rep.gamma == 0.0
        assert abs(rep.delta - 0.3646647167633873) < 1e-9

    def test_delta_between_limit_and_one(self):
        for mu in (1, 2, 7, 40):
            rep = delta_mu(mu)
            assert delta_limit() - 1e-12 <= rep.delta <= 1.0
            assert abs(rep.delta - (rep.alpha + rep.beta + rep.gamma)) < 1e-15

    def test_strictly_decreasing_and_above_limit(self):
        values = [delta_mu(mu).delta for mu in range(1, 61)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # bounded below by the limit (e^2+1)/(4e^2) = 0.28383382...
        assert all(v >= delta_limit() - 1e-12 for v in values)

    def test_gap_matches_closed_form_recursion(self):
        deltas = [delta_mu(mu).delta for mu in range(1, 32)]
        for mu in range(1, 31):
            gap = deltas[mu - 1] - deltas[mu]
            assert abs(gap - delta_gap_closed_form(mu)) < 1e-9

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            delta_mu(0)


class TestDeltaLimit:
    def test_closed_form_value(self):
        assert abs(delta_limit() - (E * E + 1) / (4 * E * E)) == 0.0
        assert abs(delta_limit() - 0.2838338) < 5e-8

    def test_quadrature_agrees(self):
        assert abs(delta_limit() - delta_limit_quadrature()) < 1e-9

    def test_reciprocal_is_strong_ratio(self):
        assert abs(strong_ratio_limit() - 3.523188) < 5e-7
        assert abs(strong_ratio_limit() * delta_limit() - 1.0) < 1e-14


class TestAlg2HolderProb:
    def test_top_buyer_single(self):
        rep = alg2_holder_prob(1, 1)
        assert rep.p == Fraction(1, 4)
        assert rep.p1 == 0
        assert rep.p2 == Fraction(1, 4)

    def test_second_of_three(self):
        assert alg2_holder_prob(2, 3).p == Fraction(1, 12)

    def test_weakest_tracked_buyer_has_no_early_exchange(self):
        for mu in (1, 2, 5, 9):
            assert alg2_holder_prob(mu, mu).p1 == 0

    def test_general_formula(self):
        for mu in (2, 4, 7):
            for i in range(1, mu + 1):
                assert alg2_holder_prob(i, mu).p == Fraction(1, 2 * i * (i + 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alg2_holder_prob(3, 2)


class TestAlg3Limits:
    def test_degenerate_thresholds(self):
        assert alg3_p1_limit(Thresholds(1, 1)) == 0.0
        assert abs(alg3_sale_prob(Thresholds(0, 0)) - 2 / 3) < 1e-15
        assert abs(alg3_sale_prob(Thresholds(1, 1))) < 1e-15

    def test_tuned_threshold_values(self):
        assert abs(alg3_p1_limit(TUNED_TH) - 0.272208) < 1e-5
        assert abs(alg3_sale_prob(TUNED_TH) - 0.544415) < 1e-6
        rep = alg3_ratio(TUNED_TH)
        assert abs(rep.via_p1 - 1.83683) < 1e-4
        assert abs(rep.via_sale - 1.83683) < 1e-4

    def test_ratio_bound_is_the_optimizer_objective_bitwise(self):
        # one arithmetic path: the scalar entry points and the optimizer's
        # broadcast grids evaluate the same limit formulas
        l1, l2 = np.random.default_rng(3).random((2, 210))
        grid = _objective_arr("upper_bound", l1[:, None], l2[None, :])
        pairs = [(i, j) for i in range(l1.size) for j in range(l2.size)
                 if l1[i] <= l2[j]]
        assert len(pairs) >= 20_000
        for i, j in pairs:
            t1, t2 = float(l1[i]), float(l2[j])
            bound = alg3_ratio(Thresholds(t1, t2)).bound
            assert bound == float(_objective_arr("upper_bound", t1, t2))
            assert bound == grid[i, j]

    @pytest.mark.parametrize("scalar, arr", [
        (alg3_p1_limit, _p1_limit_arr), (alg3_p2_limit, _p2_limit_arr),
        (alg3_sale_prob, _sale_prob_arr)], ids=["p1", "p2", "sale"])
    def test_scalar_limit_is_the_array_formula_bitwise(self, scalar, arr):
        t1s, t2s = np.sort(np.random.default_rng(5).random((2, 500)), axis=0)
        t1s = np.concatenate([[0.0, 0.0, 1.0], t1s])
        t2s = np.concatenate([[0.0, 1.0, 1.0], t2s])
        vals = arr(t1s, t2s)
        for t1, t2, val in zip(t1s.tolist(), t2s.tolist(), vals):
            assert scalar(Thresholds(t1, t2)) == val

    def test_ratio_routes_infinite_without_sales(self):
        # at t1 = t2 = 1 the policy never sells: p1 = sale = 0
        rep = alg3_ratio(Thresholds(1, 1))
        assert rep.via_p1 == rep.via_sale == rep.bound == math.inf
        rep = alg3_ratio(Thresholds(0, 0))
        assert rep.via_p1 == 3.0 and rep.bound == 3.0
        assert rep.via_sale == 1.0 / alg3_sale_prob(Thresholds(0, 0))

    def test_unknown_objective_rejected_before_arithmetic(self):
        with pytest.raises(ValueError, match="unknown objective 'sideways'"):
            _ratio_branches("sideways", object(), object())

    @pytest.mark.parametrize("objective, unread", [
        ("upper_bound", "_p2_limit_arr"),
        ("lower_bound_family", "_sale_prob_arr")])
    def test_objective_evaluates_only_its_limits(self, monkeypatch,
                                                 objective, unread):
        expected = float(_objective_arr(objective, 0.3, 0.8))

        def unread_limit(t1, t2):
            raise AssertionError(f"{objective} evaluated {unread}")

        monkeypatch.setattr(exact, unread, unread_limit)
        assert float(_objective_arr(objective, 0.3, 0.8)) == expected
        if objective == "upper_bound":
            assert alg3_ratio(Thresholds(0.3, 0.8)).bound == expected

    def test_family_threshold_values(self):
        p1 = alg3_p1_limit(FAMILY_TH)
        p2 = alg3_p2_limit(FAMILY_TH)
        assert abs(p1 - 0.283703) < 1e-5
        assert abs(p2 - 0.094565) < 1e-5
        value = max(1 / (2 * p1), (2 / 3) / (p1 + p2))
        assert abs(value - 1.76239) < 1e-4

    def test_t1_zero_continuous_extension(self):
        # t1^2 ln(t2/t1) -> 0, so only the t2 polynomial survives
        t2 = 0.7
        expected = (2 + (3 - 2 * t2) * t2 * t2) / 12
        assert abs(alg3_p1_limit(Thresholds(0.0, t2)) - expected) < 1e-15

    def test_log_term_simplifies_at_ratio_e(self):
        # t2 = e t1 makes the log term exactly 6 t1^2
        t1 = 0.25
        t2 = E * t1
        expected = (2 + t1 * t1 * (3 - 6 * t2) + (3 - 2 * t2) * t2 * t2
                    + 6 * t1 * t1) / 12
        assert abs(alg3_p1_limit(Thresholds(t1, t2)) - expected) < 1e-14

    def test_limits_match_independent_quadrature(self):
        from sectrade.quadrature import integrate_rect, integrate_wedge
        t1, t2 = TUNED_TH.t1, TUNED_TH.t2
        q1 = (integrate_rect(lambda s, t: t1 / t + 0 * s, 0, t1, t1, t2)
              + integrate_rect(lambda s, t: t1 * t2 / t ** 2 + 0 * s, 0, t1, t2, 1)
              + integrate_wedge(lambda s, t: s / t, t1, t2, t2)
              + integrate_rect(lambda s, t: s * t2 / t ** 2, t1, t2, t2, 1)
              + integrate_wedge(lambda s, t: (s / t) ** 2, t2, 1, 1))
        assert abs(q1 - alg3_p1_limit(TUNED_TH)) < 1e-9
        q2 = (integrate_rect(lambda s, t: (1 - t) * t1 / t + 0 * s, 0, t1, t1, t2)
              + integrate_rect(lambda s, t: (1 - t) * (t1 / t) * (t2 / t)
                               + t1 * t2 / t + 0 * s, 0, t1, t2, 1)
              + integrate_wedge(lambda s, t: (1 - t) * s / t, t1, t2, t2)
              + integrate_rect(lambda s, t: (1 - t) * (s / t) * (t2 / t)
                               + s * t2 / t, t1, t2, t2, 1)
              + integrate_wedge(lambda s, t: (1 - t) * (s / t) ** 2 + s * s / t,
                                t2, 1, 1))
        assert abs(q2 - alg3_p2_limit(TUNED_TH)) < 1e-9


class TestAlg3FiniteN:
    def test_single_buyer_closed_form(self):
        # one buyer: sell iff the buyer arrives after the seller and after
        # t1, so p_1 = P(t > max(s, t1)) = (1 - t1^2) / 2
        for th in (TUNED_TH, Thresholds(0.1, 0.9), Thresholds(0.5, 0.5)):
            p, p1, p2 = alg3_pi_parts(1, 1, th)
            assert abs(p - (1 - th.t1 ** 2) / 2) < 1e-9
            assert p2 == 0.0
            assert p1 == p

    def test_sum_equals_sale_probability(self):
        sale = alg3_sale_prob(TUNED_TH)
        for n in (2, 5, 10):
            total = sum(alg3_pi_finite(i, n, TUNED_TH) for i in range(1, n + 1))
            assert abs(total - sale) < 1e-6

    def test_top_rank_probability_decreases_with_n(self):
        seq = [alg3_pi_finite(1, n, TUNED_TH) for n in range(1, 51)]
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_top_rank_approaches_limit(self):
        gap = alg3_pi_finite(1, 2000, TUNED_TH) - alg3_p1_limit(TUNED_TH)
        assert abs(gap) < 2e-3

    def test_probabilities_in_range_and_decreasing_from_two(self):
        rep = alg3_report(9, TUNED_TH)
        assert all(0 <= p <= 1 for p in rep.p)
        assert sum(rep.p) <= 1 + 1e-9
        tail = rep.p[1:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            alg3_pi_finite(0, 3, TUNED_TH)
        with pytest.raises(ValueError):
            alg3_pi_finite(4, 3, TUNED_TH)

    @pytest.mark.parametrize("n", [0, -1])
    def test_report_rejects_empty_market(self, n):
        with pytest.raises(ValueError):
            alg3_report(n, TUNED_TH)

    def test_full_table_capped(self):
        for table in (alg3_report, unimodality_f):
            with pytest.raises(SizeCapError, match="capped at n=100000"):
                table(ALG3_TABLE_CAP + 1, TUNED_TH)

    def test_report_csv(self, tmp_path):
        rep = alg3_report(3, TUNED_TH)
        path = tmp_path / "alg3.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,p_i,f_i"
        assert len(lines) == 4


class TestUnimodality:
    def test_flag_holds_for_small_n(self):
        for n in range(2, 13):
            assert unimodality_f(n, TUNED_TH).unimodal, n

    def test_f_consistent_with_pi(self):
        rep = unimodality_f(6, TUNED_TH)
        for i in range(1, 7):
            expected = i * (i + 1) * alg3_pi_finite(i, 6, TUNED_TH)
            assert abs(rep.f[i - 1] - expected) < 1e-7

    def test_comparison_constants(self):
        # the anchors behind f(1) < f(2) > f(3) at n = 2, where f(i) =
        # sum_k (b_k1(i) + b_k2(i))
        b1, b2, _ = _alg3_pieces([1, 2, 3], 2, TUNED_TH)
        f1, f2 = b1.sum(axis=0).tolist(), b2.sum(axis=0).tolist()
        gain_2_vs_1, drop_2_vs_3 = f1[1] - f1[0], f1[1] - f1[2]
        tail_gain_3_vs_2_at_n2 = f2[2] - f2[1]
        assert abs(gain_2_vs_1 - 0.459218) < 1e-4
        # the published rank-2-vs-3 anchors carry the 1/(n+1) = 1/3 weight
        # of the n = 2 reference point
        assert abs(drop_2_vs_3 / 3 - 0.1186) < 5e-4
        assert abs(tail_gain_3_vs_2_at_n2 / 3 - 0.1049) < 5e-4
        # the substantive inequality behind f(2, n) > f(3, n)
        assert drop_2_vs_3 > tail_gain_3_vs_2_at_n2


class TestMonoThresholds:
    def test_published_cutoff_evaluations(self):
        assert mono_thresholds(0.296151).I1 == 9
        assert mono_thresholds(0.805018).I1 == 1
        assert mono_thresholds(0.805018).I2 == 3

    def test_invalid_t_star(self):
        with pytest.raises(ValueError):
            mono_thresholds(0.0)
        with pytest.raises(ValueError):
            mono_thresholds(-0.3)
        # t_star goes through the real-number rule of Thresholds: a bool
        # is not the time 1, and a string is no number
        for bad in (True, "0.5"):
            with pytest.raises(ValueError, match="real t_star"):
                mono_thresholds(bad)


class TestOptimizeThresholds:
    def test_upper_bound_recovers_known_optimum(self):
        th, value = optimize_thresholds("upper_bound")
        assert abs(th.t1 - 0.296151) < 1e-3
        assert abs(th.t2 - 0.805018) < 1e-3
        assert abs(value - 1.83683) < 1e-4

    def test_lower_bound_family_recovers_known_optimum(self):
        th, value = optimize_thresholds("lower_bound_family")
        assert abs(th.t1 - 0.365883) < 1e-3
        assert abs(th.t2 - 0.978772) < 1e-3
        assert abs(value - 1.76239) < 1e-4

    def test_local_optimality(self):
        import numpy as np
        th, value = optimize_thresholds("upper_bound")
        for d1 in (-1e-6, 0.0, 1e-6):
            for d2 in (-1e-6, 0.0, 1e-6):
                t1 = min(max(th.t1 + d1, 0.0), 1.0)
                t2 = min(max(th.t2 + d2, 0.0), 1.0)
                if t1 > t2:
                    continue
                neighbour = float(_objective_arr("upper_bound",
                                                 np.asarray(t1),
                                                 np.asarray(t2)))
                assert value <= neighbour + 1e-12

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_thresholds("sideways")

    @pytest.mark.parametrize("objective", ["upper_bound",
                                           "lower_bound_family"])
    def test_memory_is_bounded(self, objective):
        # the coarse scan goes in _CELLS-sized row chunks; evaluating the
        # whole 1001 x 1001 grid at once would peak near 39 MiB
        tracemalloc.start()
        try:
            optimize_thresholds(objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestGridArgmin:
    @staticmethod
    def _meshgrid_argmin(objective, l1, l2):
        # the full-coordinate scan the broadcast helper replaced
        g1, g2 = np.meshgrid(l1, l2, indexing="ij")
        vals = np.where(g1 <= g2, exact._objective_arr(objective, g1, g2),
                        np.inf)
        best = np.unravel_index(int(np.argmin(vals)), vals.shape)
        return float(g1[best]), float(g2[best]), float(vals[best])

    @pytest.mark.parametrize("objective", ["upper_bound",
                                           "lower_bound_family"])
    def test_matches_meshgrid_scan(self, objective):
        ts = np.arange(0.0, 1.005, 0.01)
        assert (_grid_argmin(objective, ts, ts)
                == self._meshgrid_argmin(objective, ts, ts))
        # a pattern-search step's shape: 21 values of t1, 2001 of t2
        th = TUNED_TH if objective == "upper_bound" else FAMILY_TH
        l1 = np.clip(th.t1 + np.arange(-10, 11) * 1e-4, 0.0, 1.0)
        l2 = np.clip(th.t2 + np.arange(-1000, 1001) * 1e-6, 0.0, 1.0)
        assert (_grid_argmin(objective, l1, l2)
                == self._meshgrid_argmin(objective, l1, l2))

    @pytest.mark.parametrize("objective", ["upper_bound",
                                           "lower_bound_family"])
    def test_coarse_grid_matches_meshgrid_scan(self, objective):
        # the optimizer's own 1001 x 1001 scan, 16 chunks of 65 rows
        ts = np.arange(0.0, 1.0 + exact._GRID_STEP / 2, exact._GRID_STEP)
        assert (_grid_argmin(objective, ts, ts)
                == self._meshgrid_argmin(objective, ts, ts))

    @pytest.mark.parametrize("cells", [1, 303, 1000])
    def test_small_chunks_match_meshgrid_scan(self, monkeypatch, cells):
        monkeypatch.setattr(exact, "_CELLS", cells)
        ts = np.arange(0.0, 1.005, 0.01)
        for objective in ("upper_bound", "lower_bound_family"):
            assert (_grid_argmin(objective, ts, ts)
                    == self._meshgrid_argmin(objective, ts, ts))

    def test_cells_above_diagonal_excluded_first_tie_wins(self, monkeypatch):
        # t2 - t1 is least where t1 > t2; within t1 <= t2 every diagonal
        # cell ties at 0 and the first in row-major order is (0, 0)
        monkeypatch.setattr(exact, "_objective_arr",
                            lambda name, t1, t2: t2 - t1)
        ts = np.linspace(0.0, 1.0, 11)
        assert _grid_argmin("upper_bound", ts, ts) == (0.0, 0.0, 0.0)

    @staticmethod
    def _patch(monkeypatch, objective, cells=22):
        # 22 cells over 11 columns: chunks of two rows, edges at 2, 4, ...
        monkeypatch.setattr(exact, "_CELLS", cells)
        monkeypatch.setattr(exact, "_objective_arr",
                            lambda name, t1, t2: objective(t1 + 0.0 * t2,
                                                           t2 + 0.0 * t1))

    def test_tie_across_chunk_edge_first_wins(self, monkeypatch):
        # rows 1 and 2 lie in chunks [0, 2) and [2, 4); both hold a 0 at
        # t2 = 0.5, and the earlier chunk's cell wins
        ts = np.linspace(0.0, 1.0, 11)
        self._patch(monkeypatch, lambda t1, t2: np.where(
            (np.abs(t2 - 0.5) < 1e-9) & (t1 > 0.05) & (t1 < 0.25), 0.0, 1.0))
        got = _grid_argmin("upper_bound", ts, ts)
        assert got == (ts[1], 0.5, 0.0)
        assert got == self._meshgrid_argmin("upper_bound", ts, ts)

    def test_first_nan_wins_across_chunks(self, monkeypatch):
        # NaN at rows 3 and 5 (chunks [2, 4) and [4, 6)) and a -1 in an
        # earlier chunk: np.argmin returns the first NaN
        ts = np.linspace(0.0, 1.0, 11)
        self._patch(monkeypatch, lambda t1, t2: np.where(
            (np.abs(t2 - 0.9) < 1e-9) & (np.abs(t1 - 0.3) < 1e-9), np.nan,
            np.where((np.abs(t2 - 0.9) < 1e-9) & (np.abs(t1 - 0.5) < 1e-9),
                     np.nan, np.where(t1 == 0.0, -1.0, 1.0))))
        for grid in (_grid_argmin, self._meshgrid_argmin):
            t1, t2, val = grid("upper_bound", ts, ts)
            assert (t1, t2) == (ts[3], ts[9]) and math.isnan(val)

    def test_all_inf_objective_gives_first_cell(self, monkeypatch):
        l1 = np.linspace(0.2, 1.0, 9)
        l2 = np.linspace(0.0, 1.0, 11)
        self._patch(monkeypatch, lambda t1, t2: np.full(t1.shape, np.inf))
        assert _grid_argmin("upper_bound", l1, l2) == (0.2, 0.0, np.inf)
        assert (self._meshgrid_argmin("upper_bound", l1, l2)
                == (0.2, 0.0, np.inf))

    def test_chunks_wholly_below_diagonal(self, monkeypatch):
        # rows with t1 > 1 have every column below the diagonal: their
        # chunks evaluate nothing, though -t1 - t2 would be least there
        l1 = np.linspace(0.0, 2.0, 21)
        l2 = np.linspace(0.0, 1.0, 11)
        shapes = []

        def objective(t1, t2):
            shapes.append(t1.shape)
            return -t1 - t2

        self._patch(monkeypatch, objective)
        assert _grid_argmin("upper_bound", l1, l2) == (1.0, 1.0, -2.0)
        assert len(shapes) == 6 and min(map(min, shapes)) > 0
        shapes.clear()
        # and a grid with no cell on or above the diagonal at all
        assert (_grid_argmin("upper_bound", l1[11:], l2)
                == (float(l1[11]), 0.0, np.inf))
        assert shapes == []

    def test_axes_must_be_non_decreasing(self):
        ts = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            _grid_argmin("upper_bound", ts[::-1], ts)
        with pytest.raises(ValueError):
            _grid_argmin("upper_bound", ts, ts[::-1])


def test_pow1m_edge_cases():
    import numpy as np
    t = np.array([0.0, 0.5, 1.0])
    assert np.allclose(pow1m(t, 0), 1.0)
    assert pow1m(t, 3)[2] == 0.0
    assert abs(pow1m(t, 3)[1] - 0.125) < 1e-15
    big = pow1m(np.array([0.9]), 5000)
    assert big[0] == 0.0  # clean underflow, not garbage


def test_alg3_rank_table_skips_only_zero_chunks(monkeypatch):
    # the rank table skips a chunk whose largest cell (1 - t)^(i-1)
    # underflows to 0.0; computing every chunk, as the loop did before,
    # gives the same bits.  At t >= 1/2 the cells underflow past rank
    # 1076, so most of the 5000 ranks are skipped.
    scalars = []

    def recording(t, m):
        q = pow1m(t, m)
        if np.ndim(q) == 0:  # the per-chunk test
            scalars.append(float(q))
        return q

    def never_zero(t, m):
        q = pow1m(t, m)
        return q if np.ndim(q) else 1.0

    args = (np.arange(1, 5001), 5000, Thresholds(0.5, 0.8))
    monkeypatch.setattr(exact, "pow1m", recording)
    skipped = exact._alg3_pieces(*args)
    assert scalars.count(0.0) > len(scalars) // 2 > 0
    monkeypatch.setattr(exact, "pow1m", never_zero)
    full = exact._alg3_pieces(*args)
    for a, b in zip(skipped, full):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The 2D route that the 1D engine replaced, kept as an independent reference
# ---------------------------------------------------------------------------

def _ref_regions(t1, t2):
    # (kind, bounds, F, G, H); kind "rect" = (slo, shi, tlo, thi),
    # "wedge" = (slo, shi, thi) with t from s to thi
    return (
        ("rect", (0.0, t1, t1, t2), lambda s, t: t1 / t, None, None),
        ("wedge", (t1, t2, t2), lambda s, t: s / t, None, None),
        ("rect", (0.0, t1, t2, 1.0), lambda s, t: t1 * t2 / t ** 2,
         lambda s, t: t1 * t2 / t, lambda s, t: t1 * (1.0 - t2 / t)),
        ("rect", (t1, t2, t2, 1.0), lambda s, t: s * t2 / t ** 2,
         lambda s, t: s * t2 / t, lambda s, t: s * (1.0 - t2 / t)),
        ("wedge", (t2, 1.0, 1.0), lambda s, t: (s / t) ** 2,
         lambda s, t: s * s / t, lambda s, t: s * (1.0 - s / t)),
    )


def _ref_integrate_region(kind, bounds, f, tol):
    if kind == "rect":
        return integrate_rect(f, *bounds, tol=tol)
    return integrate_wedge(f, *bounds, tol=tol)


def _ref_pi_parts(i, n, th, tol):
    """(p_i, p_i1, p_i2) by eight 2D quadratures."""
    t1, t2 = th.t1, th.t2
    rtol = tol / 8.0

    def combined(F, G, H):
        def f(s, t):
            val = (F(s, t) * pow1m(t, i - 1)
                   + (1.0 - F(s, t)) * pow1m(t, n - 1))
            if G is not None:
                if i >= 2:
                    val = val + (i - 1) * G(s, t) * pow1m(t, i - 2)
                if n >= 2:
                    val = val + (n - 1) * H(s, t) * pow1m(t, n - 2)
            return val
        return f

    total = 0.0
    for kind, bounds, F, G, H in _ref_regions(t1, t2):
        total += _ref_integrate_region(kind, bounds, combined(F, G, H), rtol)
    if i == 1:
        return total, total, 0.0

    def second_chance(lead, r_factor):
        def f(s, t):
            tail = pow1m(t, n - i)
            return ((i - 1) * lead(s, t) * pow1m(t, i - 2)
                    * (tail + (1.0 - tail) * r_factor(s, t) / t))
        return f

    p2 = (_ref_integrate_region("rect", (0.0, t1, t2, 1.0),
                                second_chance(lambda s, t: t1,
                                              lambda s, t: t2), rtol)
          + _ref_integrate_region("rect", (t1, t2, t2, 1.0),
                                  second_chance(lambda s, t: s,
                                                lambda s, t: t2), rtol)
          + _ref_integrate_region("wedge", (t2, 1.0, 1.0),
                                  second_chance(lambda s, t: s,
                                                lambda s, t: s), rtol))
    return total, total - p2, p2


def _ref_beta_tables(i, n, th, tol):
    """The eight (b_k1, b_k2) pairs at rank i by up to 16 2D quadratures."""
    regions = _ref_regions(th.t1, th.t2)
    b1, b2 = [], []
    scale = i * (i + 1)
    for kind, bounds, F, _, _ in regions:
        b1.append(scale * _ref_integrate_region(
            kind, bounds, lambda s, t, F=F: F(s, t) * pow1m(t, i - 1), tol))
        b2.append(scale * _ref_integrate_region(
            kind, bounds,
            lambda s, t, F=F: (1.0 - F(s, t)) * pow1m(t, n - 1), tol))
    for kind, bounds, _, G, H in regions[2:]:
        if i >= 2:
            b1.append(scale * (i - 1) * _ref_integrate_region(
                kind, bounds, lambda s, t, G=G: G(s, t) * pow1m(t, i - 2),
                tol))
        else:
            b1.append(0.0)
        if n >= 2:
            b2.append(scale * (n - 1) * _ref_integrate_region(
                kind, bounds, lambda s, t, H=H: H(s, t) * pow1m(t, n - 2),
                tol))
        else:
            b2.append(0.0)
    return b1, b2


# t1 = 0, t1 = t2 and (1, 1) included.  At (0, 0) the 2D route does not
# converge (see TestOneDimensionalEngine.test_both_thresholds_zero).
REFERENCE_TH = (TUNED_TH, FAMILY_TH, Thresholds(0.0, 0.805018),
                Thresholds(0.0, 0.4), Thresholds(0.1, 0.9),
                Thresholds(0.5, 0.5), Thresholds(0.2, 1.0),
                Thresholds(1.0, 1.0))
# per-integral tolerance of the reference: at its default (1e-8 / 8) the
# 2D route is itself up to 1.2e-10 off at t1 = 0, where s / t has a corner
REFERENCE_TOL = 2e-11


class TestOneDimensionalEngine:
    @pytest.mark.parametrize("th", REFERENCE_TH,
                             ids=lambda th: f"t1={th.t1},t2={th.t2}")
    def test_matches_2d_reference(self, th):
        for n in (1, 2, 3, 10, 50, 200):
            ranks = range(1, n + 1) if n <= 10 else (1, 2, 3, 4, n // 2,
                                                     n - 1, n)
            rep = unimodality_f(n, th) if n >= 2 else None
            for i in ranks:
                got = alg3_pi_parts(i, n, th)
                want = _ref_pi_parts(i, n, th, 8 * REFERENCE_TOL)
                assert np.max(np.abs(np.subtract(got, want))) < 1e-10, (n, i)
                if rep is None:
                    continue
                # the pieces carry the factor i (i+1); compare on the p scale
                b1, b2 = _ref_beta_tables(i, n, th, REFERENCE_TOL)
                for ours, ref in ((rep.beta_k1, b1), (rep.beta_k2, b2)):
                    for k in range(8):
                        diff = abs(ours[k][i - 1] - ref[k])
                        assert diff < 1e-10 * i * (i + 1), (n, i, k)

    def test_top_rank_gap_at_t1_zero(self):
        # at t1 = 0, p_1 approaches its limit as 0.5 / n^2
        th = Thresholds(0.0, 0.805018)
        for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
            gap = alg3_pi_finite(1, n, th) - alg3_p1_limit(th)
            assert abs(gap / (0.5 / n ** 2) - 1.0) < 0.02, n

    def test_report_memory_is_bounded(self):
        tracemalloc.start()
        try:
            rep = alg3_report(5000, TUNED_TH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.p) == 5000
        assert peak < 8 * 2 ** 20

    def test_both_thresholds_zero(self):
        # outside the 2D route's reach; the sale probability is exact n >= 2
        th = Thresholds(0.0, 0.0)
        for n in (2, 5, 50):
            assert abs(sum(alg3_report(n, th).p) - alg3_sale_prob(th)) < 1e-12
        with pytest.raises(NumericError):
            _ref_beta_tables(1, 2, th, 1e-9)

    def test_pow1m_array_exponents(self):
        t = np.array([0.0, 0.3, 0.999, 1.0])
        m = np.array([0, 1, 7, 4000])
        table = pow1m(t[None, :], m[:, None])
        for row, mi in zip(table, m):
            assert np.array_equal(row, pow1m(t, int(mi)))
        assert np.array_equal(table[0], np.ones(4))
