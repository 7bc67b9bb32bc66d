import math

import numpy as np
import pytest

from sectrade import simplex
from sectrade.errors import NumericError, SizeCapError, UnboundedProblem
from sectrade.lp import (_weak_rhs, build_strong_primal,
                         build_weak_primal, simplex_solve, strong_dual_certificate,
                         verify_dual_feasibility, weak_dual_certificate)
from sectrade.simplex import simplex_solve_arrays

W1, W2 = 0.970659, 0.029341


def dense_pivot(T, basis, row, col):
    """Reference pivot: a rank-one update of the whole tableau."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def loop_sweep(n, w1, w2):
    """Reference weak certificate: the two backward sweeps as scalar loops.
    Returns alpha, beta, j*, j**."""
    ru_arr, rv_arr = _weak_rhs(n, w1, w2)
    ru, rv = ru_arr.tolist(), rv_arr.tolist()
    alpha, beta = [0.0] * n, [0.0] * n
    s = 0.0
    j_star = 0
    for j in range(n, 0, -1):
        aj = (ru[j - 1] - s) / j
        bj = (rv[j - 1] - s) / j
        if bj < 0.0:
            j_star = j
            break
        alpha[j - 1] = aj
        beta[j - 1] = bj
        s += aj + bj
    j_double_star = 0
    for j in range(j_star, 0, -1):
        aj = (ru[j - 1] - s) / j
        if aj < 0.0:
            j_double_star = j
            break
        alpha[j - 1] = aj
        s += aj
    return np.array(alpha), np.array(beta), j_star, j_double_star


def pair_list(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def reference_strong(n):
    """Strong primal c, A, b written one coefficient at a time."""
    pairs = pair_list(n)
    col = {p: r for r, p in enumerate(pairs)}
    A = np.zeros((len(pairs), len(pairs)))
    for row, (i, j) in enumerate(pairs):
        for k in range(i, j):
            A[row, col[(i, k)]] = 1.0
        A[row, col[(i, j)]] = float(j)
    c = np.array([j / (n * (n + 1)) for i, j in pairs])
    return c, A, np.ones(len(pairs))


def reference_weak(n):
    """Weak primal c, A, b one coefficient at a time: x_p in column 2r,
    y_p in 2r + 1, A last; the x and y rows of pair r are 2r and 2r + 1."""
    pairs = pair_list(n)
    m = len(pairs)
    col = {p: 2 * r for r, p in enumerate(pairs)}
    A = np.zeros((2 * m + 2, 2 * m + 1))
    for row, (i, j) in enumerate(pairs):
        for v in (0, 1):
            for k in range(i, j):
                A[2 * row + v, col[(i, k)]] = 1.0
                A[2 * row + v, col[(i, k)] + 1] = 1.0
            A[2 * row + v, col[(i, j)] + v] = float(j)
        w = j / (n * n + n)
        A[-2, col[(i, j)]] = -2.0 * w
        A[-1, col[(i, j)]] = -1.5 * w * (2 * n - j) / n
        A[-1, col[(i, j)] + 1] = -1.5 * w * (j - 1) / n
    A[-2:, -1] = 1.0
    c = np.zeros(2 * m + 1)
    c[-1] = 1.0
    b = np.zeros(2 * m + 2)
    b[:2 * m] = 1.0
    return c, A, b


def same_result(a, b):
    return (a.values.tobytes() == b.values.tobytes()
            and a.objective.hex() == b.objective.hex()
            and a.iterations == b.iterations)


class TestSimplexCore:
    def test_tiny_max(self):
        # max x + y st x + y <= 1, x <= 0.6
        res = simplex_solve_arrays([1, 1], [[1, 1], [1, 0]], [1, 0.6],
                                   ["<=", "<="])
        assert abs(res.objective - 1.0) < 1e-12

    @pytest.mark.parametrize("rels,b", [
        (["<=", "=="], [1, 1]),
        ([">=", "<="], [1, 1]),
        (["<=", "<="], [1, -2]),
        (["<=", "<="], [math.nan, 1]),
    ])
    def test_rejects_other_forms(self, rels, b):
        with pytest.raises(ValueError, match="A v <= b"):
            simplex_solve_arrays([1, 1], [[1, 1], [1, 0]], b, rels)

    def test_unbounded(self):
        with pytest.raises(UnboundedProblem):
            simplex_solve_arrays([1], [[-1]], [1], ["<="])

    def test_cycling_lp_reaches_bland_fallback(self):
        # Beale-type LP on which Dantzig pricing with smallest-index ties
        # cycles through degenerate pivots; only the switch to Bland's rule
        # after 2m + 20 of them lets the solver finish
        c = [0.75, -20.0, 0.5, -6.0]
        A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
             [0.0, 0.0, 1.0, 0.0]]
        b = [0.0, 0.0, 1.0]
        res = simplex_solve_arrays(c, A, b, ["<="] * 3)
        assert abs(res.objective - 1.25) < 1e-12
        assert np.allclose(res.values, [1.0, 0.0, 1.0, 0.0], rtol=0,
                           atol=1e-12)
        assert res.iterations > 2 * 3 + 20
        try:
            from scipy.optimize import linprog
        except ImportError:
            return
        ref = linprog(-np.array(c), A_ub=A, b_ub=b, bounds=(0, None),
                      method="highs")
        assert abs(res.objective + ref.fun) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_scipy_on_both_primals(self, n):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for builder in (build_strong_primal, build_weak_primal):
            lp = builder(n)
            c, A, b, rels = lp.to_arrays()
            ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            mine = simplex_solve(lp)
            assert abs(mine.objective_value + ref.fun) < 1e-8
            assert mine.max_violation(lp) < 1e-9


class TestSparsePivot:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_pivot_bytes(self, seed):
        # random tableaus a few percent to half non-zero, pivoted on a
        # positive element as the ratio test guarantees
        rng = np.random.default_rng(seed)
        m, width = rng.integers(2, 40), rng.integers(2, 60)
        density = rng.uniform(0.03, 0.5)
        T = np.where(rng.random((m + 1, width)) < density,
                     rng.normal(size=(m + 1, width)), 0.0)
        basis = rng.integers(0, width, size=m)
        row, col = rng.integers(0, m), rng.integers(0, width)
        T[row, col] = rng.uniform(0.1, 2.0)
        ref_T, ref_basis = T.copy(), basis.copy()
        for _ in range(3):
            dense_pivot(ref_T, ref_basis, row, col)
            simplex._pivot(T, basis, row, col)
            assert T.tobytes() == ref_T.tobytes()
            assert basis.tobytes() == ref_basis.tobytes()
            positive = np.argwhere(T[:m] > 0.1)
            if not positive.size:
                break
            row, col = positive[rng.integers(len(positive))]

    @pytest.mark.parametrize("builder,sizes", [
        (build_weak_primal, range(1, 13)),
        (build_strong_primal, (1, 2, 5, 9, 14, 20)),
    ])
    def test_solve_matches_dense_pivot_bytes(self, monkeypatch, builder, sizes):
        for n in sizes:
            c, A, b, rels = builder(n).to_arrays()
            sparse = simplex_solve_arrays(c, A, b, rels)
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "_pivot", dense_pivot)
                dense = simplex_solve_arrays(c, A, b, rels)
            assert same_result(sparse, dense), n

    def test_pivot_count_carried(self):
        lp = build_weak_primal(6)
        sol = simplex_solve(lp)
        assert sol.pivots == simplex_solve_arrays(*lp.to_arrays()).iterations
        assert sol.pivots > 0


class TestBuilders:
    @pytest.mark.parametrize("builder,reference", [
        (build_strong_primal, reference_strong),
        (build_weak_primal, reference_weak),
    ])
    def test_arrays_match_loop_reference_bytes(self, builder, reference):
        for n in range(1, 31):
            c, A, b, rels = builder(n).to_arrays()
            for mine, ref in zip((c, A, b), reference(n)):
                assert mine.shape == ref.shape, n
                assert mine.tobytes() == ref.tobytes(), n
            assert rels == ["<="] * b.size

    def test_solution_is_the_simplex_point(self):
        for lp in (build_strong_primal(5), build_weak_primal(5)):
            sol = simplex_solve(lp)
            ref = simplex_solve_arrays(*lp.to_arrays()).values
            assert sol.v.tobytes() == ref.tobytes()
            assert sol.v.size == lp.c.size
        # A is the weak primal's last column and its objective
        assert sol.v[-1] == sol.objective_value

    @pytest.mark.parametrize("builder", [build_strong_primal,
                                         build_weak_primal])
    def test_max_violation_matches_row_sums(self, builder):
        # the matrix product sums each row in another order than a loop,
        # so the two agree to a few ulps of the right-hand side 1
        for n in range(1, 13):
            lp = builder(n)
            sol = simplex_solve(lp)
            v = sol.v.tolist()
            c, A, b, rels = lp.to_arrays()
            worst = max(0.0, max(-val for val in v))
            for row, rhs in zip(A.tolist(), b.tolist()):
                worst = max(worst, sum(a * val for a, val in zip(row, v)) - rhs)
            assert abs(sol.max_violation(lp) - worst) <= 64 * np.finfo(float).eps

    def test_max_violation_flags_bad_points(self):
        from sectrade.lp import PrimalSolution
        strong, weak = build_strong_primal(3), build_weak_primal(3)
        # row (1, 2): 2 x_{1,2} + x_{1,1} <= 1; (1, 1) and (1, 2) are
        # columns 0 and 1
        v = np.zeros(strong.c.size)
        v[[0, 1]] = 0.5
        sol = PrimalSolution(v=v, objective_value=0.0)
        assert sol.max_violation(strong) == 0.5
        # y_{2,3} is column 2 * 4 + 1: (2, 3) is the fifth pair at n = 3
        v = np.zeros(weak.c.size)
        v[9] = -0.25
        sol = PrimalSolution(v=v, objective_value=0.0)
        assert sol.max_violation(weak) == 0.25
        # A (the last column) above both welfare rows, everything else 0
        v = np.zeros(weak.c.size)
        v[-1] = 0.125
        sol = PrimalSolution(v=v, objective_value=0.125)
        assert sol.max_violation(weak) == 0.125


class TestStrongPrimal:
    def test_n1_structure(self):
        lp = build_strong_primal(1)
        c, A, b, rels = lp.to_arrays()
        assert c.tolist() == [0.5]
        assert A.tolist() == [[1.0]]
        assert b.tolist() == [1.0]
        assert rels == ["<="]
        sol = simplex_solve(lp)
        assert abs(sol.objective_value - 0.5) < 1e-12
        assert abs(sol.v[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_counts(self, n):
        lp = build_strong_primal(n)
        assert lp.c.size == n * (n + 1) // 2
        assert lp.b.size == n * (n + 1) // 2

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build_strong_primal(61)

    def test_decomposes_by_seller_position(self):
        # constraints couple only within fixed i, so per-i solves add up
        n = 7
        joint = simplex_solve(build_strong_primal(n)).objective_value
        total = 0.0
        for i in range(1, n + 1):
            js = list(range(i, n + 1))
            c = np.array([j / (n * (n + 1)) for j in js])
            A = np.zeros((len(js), len(js)))
            for row, j in enumerate(js):
                A[row, :row] = 1.0
                A[row, row] = j
            res = simplex_solve_arrays(c, A, np.ones(len(js)),
                                       ["<="] * len(js))
            total += res.objective
        assert abs(joint - total) < 1e-9


class TestWeakPrimal:
    def test_n1_optimum(self):
        sol = simplex_solve(build_weak_primal(1))
        assert abs(sol.objective_value - 0.75) < 1e-9
        assert abs(sol.v[-1] - 0.75) < 1e-9

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_counts(self, n):
        lp = build_weak_primal(n)
        assert lp.c.size == n * (n + 1) + 1
        assert lp.b.size == n * (n + 1) + 2

    def test_discrete_threshold_policy_is_feasible(self):
        # stopping rule "pass the first r-1 buyers, then take the first
        # best-so-far": x_{i,j} = (m-1)/((j-1) j) with m = max(i, r), which
        # saturates the stopping constraint with equality; with y = 0 and
        # A = min(2 p1, 1.5 (p1 + p2)) the whole vector is feasible
        n, r = 8, 3
        lp = build_weak_primal(n)
        x = {}
        for i in range(1, n + 1):
            m = max(i, r)
            for j in range(i, n + 1):
                if j == m == i:
                    x[(i, j)] = 1.0 / j
                elif j >= m:
                    x[(i, j)] = (m - 1) / ((j - 1) * j)
        p1 = sum(j / (n * (n + 1)) * v for (i, j), v in x.items())
        p2 = sum(j * (n - j) / (n * n) / (n + 1) * v for (i, j), v in x.items())
        A = min(2 * p1, 1.5 * (p1 + p2))
        # x_p in column 2r for the r-th pair p, y = 0, A last
        v = np.zeros(lp.c.size)
        v[:-1:2] = [x.get(p, 0.0) for p in pair_list(n)]
        v[-1] = A
        from sectrade.lp import PrimalSolution
        sol = PrimalSolution(v=v, objective_value=A)
        assert sol.max_violation(lp) < 1e-12


class TestStrongCertificate:
    def test_last_coefficient_is_empty_sum(self):
        for n in (2, 5, 17):
            cert = strong_dual_certificate(n)
            assert abs(cert.a[-1] - 1.0 / (n * (n + 1))) < 1e-15

    def test_nonnegative_from_j_star(self):
        for n in (10, 100, 1000):
            cert = strong_dual_certificate(n)
            assert np.all(cert.a[cert.j_star - 1:] >= 0)

    def test_feasible_at_scale(self):
        for n in (100, 10 ** 4, 10 ** 6):
            cert = strong_dual_certificate(n)
            assert cert.min_residual >= -1e-12

    def test_objective_descends_toward_limit(self):
        target = 0.283834
        objs = [strong_dual_certificate(10 ** k).objective for k in (3, 4, 5, 6)]
        gaps = [abs(o - target) for o in objs]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1.1e-3

    def test_corrupted_certificate_flagged(self):
        n = 100
        cert = strong_dual_certificate(n)
        cert.y_pos[40] += 1.0  # break a suffix: earlier rows now over-count
        cert.y_pos[41:] -= 0.02
        rhs = np.arange(1.0, n + 1.0) / ((n + 1.0) * n)  # j / ((n+1) n)
        report = verify_dual_feasibility((cert.y_pos,), (rhs,))
        assert report.min_residual < -1e-6


class TestRefusedCertificates:
    """A constructor whose own point fails the verifier raises instead of
    reporting a bound."""

    @pytest.fixture
    def stricter(self, monkeypatch):
        monkeypatch.setattr(
            "sectrade.lp.verify_dual_feasibility", lambda z, rhs:
            verify_dual_feasibility(z, tuple(r + 1e-9 for r in rhs)))

    def test_strong_raises(self, stricter):
        with pytest.raises(NumericError, match=r"dual row at j=\d+"):
            strong_dual_certificate(100)

    def test_weak_raises(self, stricter):
        with pytest.raises(NumericError, match=r"[uv] row at j=\d+"):
            weak_dual_certificate(100, W1, W2)


class TestWeakCertificate:
    def test_moved_mass_breaks_only_its_v_row(self):
        """Past j*, both rows at j0 are tight; moving delta from beta to
        alpha at j0 keeps every suffix, so only the v row at j0 fails."""
        cert = weak_dual_certificate(500, W1, W2)
        j0 = (cert.j_star + cert.n) // 2
        alpha, beta = cert.alpha.copy(), cert.beta.copy()
        alpha[j0 - 1] += 1e-3
        beta[j0 - 1] -= 1e-3
        report = verify_dual_feasibility((alpha, beta),
                                         _weak_rhs(500, W1, W2))
        assert report.min_residuals[1] < 0
        assert report.argmins[1] == j0
        assert report.min_residuals[0] > report.min_residuals[1]
        assert report.min_residuals[0] >= -1e-12
        assert (report.min_residual, report.argmin_j) == (
            report.min_residuals[1], j0)

    def test_headline_objective(self):
        cert = weak_dual_certificate(2_000_000, W1, W2)
        assert abs(cert.objective - 0.567411) < 5e-4
        assert cert.min_residual_u >= -1e-12
        assert cert.min_residual_v >= -1e-12
        assert abs(1.0 / cert.objective - 1.76239) < 2e-3

    def test_feasible_across_sizes(self):
        for n in (10 ** 3, 10 ** 5):
            cert = weak_dual_certificate(n, W1, W2)
            assert cert.min_residual_u >= -1e-12
            assert cert.min_residual_v >= -1e-12

    def test_u_constraint_tight_where_alpha_positive(self):
        cert = weak_dual_certificate(5000, W1, W2)
        n = cert.n
        combined = cert.alpha + cert.beta
        suffix = np.zeros(n)
        suffix[:-1] = np.cumsum(combined[:0:-1])[::-1]
        j = np.arange(1.0, n + 1.0)
        denom = n * n + n
        ru = 2 * j / denom * W1 + 3 * j * (2 * n - j) / (2 * n * denom) * W2
        res_u = j * cert.alpha + suffix - ru
        tight = res_u[cert.alpha > 0]
        assert np.max(np.abs(tight)) < 1e-15

    def test_zero_w2_kills_beta(self):
        cert = weak_dual_certificate(1000, 1.0, 0.0)
        assert np.all(cert.beta == 0.0)

    def test_break_points_ordered(self):
        cert = weak_dual_certificate(10 ** 4, W1, W2)
        assert 1 <= cert.j_double_star <= cert.j_star <= cert.n

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            weak_dual_certificate(100, 0.7, 0.2)
        with pytest.raises(ValueError):
            weak_dual_certificate(100, -0.5, 1.5)

    @pytest.mark.parametrize("w1,w2", [(math.nan, math.nan), (math.nan, 0.5),
                                       (math.inf, 0.0), (1.0, math.nan)])
    def test_non_finite_weights(self, w1, w2):
        with pytest.raises(ValueError):
            weak_dual_certificate(10, w1, w2)

    @pytest.mark.parametrize("w1,w2", [(W1, W2), (1.0, 0.0), (0.5, 0.5),
                                       (0.0, 1.0), (0.2, 0.8)])
    def test_sweep_matches_loop(self, w1, w2):
        # summation order differs from the loop, so alpha and beta agree to
        # rounding relative to their largest entry, break points exactly
        for n in list(range(2, 301)) + [10 ** 5]:
            alpha, beta, j_star, j_double_star = loop_sweep(n, w1, w2)
            cert = weak_dual_certificate(n, w1, w2)
            assert (cert.j_star, cert.j_double_star) == (j_star, j_double_star)
            for mine, ref in ((cert.alpha, alpha), (cert.beta, beta)):
                scale = max(np.max(np.abs(ref)), 1e-300)
                assert np.max(np.abs(mine - ref)) <= 1e-12 * scale, n


class TestWeakDuality:
    @pytest.mark.parametrize("n", [2, 5, 11, 17])
    def test_strong_sandwich(self, n):
        primal = simplex_solve(build_strong_primal(n)).objective_value
        dual = strong_dual_certificate(n).objective
        assert primal <= dual + 1e-9

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_weak_sandwich(self, n):
        primal = simplex_solve(build_weak_primal(n)).objective_value
        dual = weak_dual_certificate(n, W1, W2).objective
        assert primal <= dual + 1e-9
