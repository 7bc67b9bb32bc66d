import json
import math
import tracemalloc

import numpy as np
import pytest

from sectrade import lp, simplex
from sectrade.errors import NumericError, SizeCapError, UnboundedProblem
from sectrade.lp import (_strong_rhs, _sweep, _weak_rhs, build_strong_primal,
                         build_weak_primal, simplex_solve, strong_dual_certificate,
                         verify_dual_feasibility, weak_dual_certificate)
from sectrade.simplex import simplex_solve_arrays

W1, W2 = 0.970659, 0.029341


def rows_of(arrays):
    """One rhs function of j per whole rhs array: its entries at j."""
    return tuple(lambda j, a=a: a[j.astype(np.intp) - 1] for a in arrays)


def whole_weak_rhs(n, w1, w2):
    """Reference for ``lp._weak_rhs``: ru and rv as whole arrays."""
    j = np.arange(1.0, n + 1.0)
    denom = n * n + n
    ru = 2.0 * j / denom * w1 + 3.0 * j * (2.0 * n - j) / (2.0 * n * denom) * w2
    rv = 3.0 * j * (j - 1.0) / (2.0 * n * denom) * w2
    return ru, rv


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
    ru_arr, rv_arr = whole_weak_rhs(n, w1, w2)
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


def plain_induction(rhs):
    """Reference for ``lp._sweep``: the stopping induction as a plain loop.
    From j = n down, z_{r,j} = max((rhs_{r,j} - s_j)/j, 0) for every family
    r, then s_{j-1} = s_j + sum_r z_{r,j} (s_n = 0).  Returns the z arrays
    and the objective sum_j j sum_r z_{r,j}."""
    rows = [r.tolist() for r in rhs]
    n = len(rows[0])
    z = [[0.0] * n for _ in rows]
    s = 0.0
    for j in range(n, 0, -1):
        for zr, rr in zip(z, rows):
            zr[j - 1] = max((rr[j - 1] - s) / j, 0.0)
        s += sum(zr[j - 1] for zr in z)
    objective = sum(j * sum(zr[j - 1] for zr in z) for j in range(1, n + 1))
    return [np.array(zr) for zr in z], objective


def block_objective(j, z):
    """Reference for the objective of ``lp._sweep``: sum_j j sum_r z_{r,j},
    one ``np.einsum`` per 2^14 entries from j = 1 up, added in block order."""
    total = sum(z[1:], z[0])
    objective = 0.0
    for lo in range(0, total.size, 1 << 14):
        objective += np.einsum("i,i", j[lo:lo + (1 << 14)],
                               total[lo:lo + (1 << 14)])
    return float(objective)


def whole_sweep(rhs):
    """Reference for ``lp._sweep``: every stretch over the whole range
    [1, top], one suffix cumsum each, then cut at its break."""
    n = rhs[0].size
    j = np.arange(1.0, n + 1.0)
    z, breaks = [np.empty(n) for _ in rhs], [0] * len(rhs)
    top, s_top = n, 0.0
    for f in range(len(rhs), 0, -1):
        r = sum(rhs[1:f], rhs[0])
        m = ff = j[f - 1:top]                 # ff: (m)_f, m = f..top
        for d in range(1, f):
            ff = ff * (m - d)
        s = np.empty(top)
        t = s[f - 1:]                         # s_m/(m)_f, then s_m
        np.divide(r[f:top], ff[1:] * (m[1:] - f), out=t[:-1])
        t[-1] = s_top / ff[-1]
        np.cumsum(t[::-1], out=t[::-1])
        t *= ff
        for k in range(f - 1, 0, -1):         # m < f: the recurrence itself
            s[k - 1] = s[k] * (k + 1 - f) / (k + 1) + r[k] / (k + 1)
        for zk, rk in zip(z[:f], rhs):
            np.subtract(rk[:top], s, out=zk[:top])
            zk[:top] /= j[:top]
        negative = np.flatnonzero(z[f - 1][:top] < 0.0)
        if not negative.size:
            break
        top = breaks[f - 1] = int(negative[-1]) + 1
        s_top = s[top - 1]
        z[f - 1][:top] = 0.0
    return z, breaks, block_objective(j, z)


def whole_verify(z, rhs):
    """Reference for ``lp.verify_dual_feasibility``: whole-array total,
    suffix and residuals.  Returns (min residual, argmin j) per family."""
    total = sum(z[1:], z[0])
    suffix = np.zeros(total.size)
    suffix[:-1] = np.cumsum(total[:0:-1])[::-1]
    j = np.arange(1.0, total.size + 1.0)
    found = []
    for zr, rr in zip(z, rhs):
        residual = j * zr + suffix - rr
        arg = int(np.argmin(residual))
        found.append((float(residual[arg]), arg + 1))
    return found


def closed_form_strong(n):
    """Reference strong certificate: the harmonic-suffix closed form
    a_j = (1 - sum_{k=j}^{n-1} 1/k) / ((n+1) n), y_j = max(a_j, 0).
    Returns y and j*, the first j with y_j > 0."""
    inv_k = 1.0 / np.arange(1.0, float(n))        # 1/k for k = 1..n-1
    suffix = np.zeros(n)
    suffix[:n - 1] = np.cumsum(inv_k[::-1])[::-1]  # sum_{k=j}^{n-1} 1/k
    y = np.maximum((1.0 - suffix) / (n * (n + 1.0)), 0.0)
    return y, int(np.argmax(y > 0.0)) + 1


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


class TestSweepInduction:
    @pytest.mark.parametrize("n", [2, 3, 10, 300, 3000])
    def test_sweep_is_the_plain_induction(self, n):
        # the strong rhs and the weak one at five weights; the breaks are
        # not compared (at an exact zero they differ by definition: w2 = 0
        # gives 0 at j = n), but z is 0 at and below each of them
        cases = [(np.arange(1.0, n + 1.0) / ((n + 1.0) * n),)]
        cases += [whole_weak_rhs(n, w1, 1.0 - w1)
                  for w1 in (0.0, 0.3, 0.5, 0.970659, 1.0)]
        for rhs in cases:
            z, breaks, objective = _sweep(n, rows_of(rhs))
            ref, ref_objective = plain_induction(rhs)
            scale = max(float(np.abs(zr).max()) for zr in ref)
            for zr, rr, b in zip(z, ref, breaks):
                assert np.abs(zr - rr).max() <= 1e-12 * scale
                assert not zr[:b].any()
            assert abs(objective - ref_objective) <= 1e-12 * abs(ref_objective)


def strong_rhs(n):
    return (np.arange(1.0, n + 1.0) / ((n + 1.0) * n),)


class TestChunkedSweep:
    """``_sweep`` and ``verify_dual_feasibility`` run in ``lp._CHUNK``-element
    chunks, calling the rhs functions on each chunk's j as they go; every
    chunk size gives the whole-array bits.  ``fns`` defaults to
    ``rows_of(rhs)``."""

    def same_as_whole(self, rhs, fns=None):
        fns = fns or rows_of(rhs)
        z, breaks, objective = _sweep(rhs[0].size, fns)
        ref_z, ref_breaks, ref_objective = whole_sweep(rhs)
        assert [zr.tobytes() for zr in z] == [zr.tobytes() for zr in ref_z]
        assert breaks == ref_breaks
        assert objective.hex() == ref_objective.hex()
        self.same_verdict(z, rhs, fns)
        return breaks

    @staticmethod
    def same_verdict(z, rhs, fns=None):
        report = verify_dual_feasibility(z, fns or rows_of(rhs))
        found = [(res.hex(), j) for res, j in zip(report.min_residuals,
                                                  report.argmins)]
        assert found == [(res.hex(), j) for res, j in whole_verify(z, rhs)]

    @pytest.fixture(params=[1, 2, 3, 7, 64])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(lp, "_CHUNK", request.param)
        return request.param

    def test_strong_rhs(self, chunk):
        for n in range(2, 301):
            self.same_as_whole(strong_rhs(n), _strong_rhs(n))

    @pytest.mark.parametrize("n", [2, 3, 10, 300, 3000])
    def test_weak_rhs(self, chunk, n):
        # n = 2 and 3 run the m < f tail; w1 = 1 gives w2 = 0, an exact
        # zero in rv and beta at j = n
        for w1 in (0.0, 0.3, 0.5, 0.970659, 1.0):
            self.same_as_whole(whole_weak_rhs(n, w1, 1.0 - w1),
                               _weak_rhs(n, w1, 1.0 - w1))

    def test_zero_at_the_top(self, chunk):
        for n in (2, 3, 65, 300):
            rhs = whole_weak_rhs(n, 1.0, 0.0)
            assert rhs[1][-1] == 0.0
            assert self.same_as_whole(rhs)[1] == n - 1

    def test_break_on_a_chunk_edge(self, monkeypatch):
        # each break is the lowest, then the highest, element of a chunk
        n = 300
        rhs = whole_weak_rhs(n, W1, W2)
        j_double_star, j_star = whole_sweep(rhs)[1]
        assert 1 < j_double_star < j_star < n
        for size in (n - j_star + 1, n - j_star, j_star - j_double_star + 1,
                     j_star - j_double_star):
            monkeypatch.setattr(lp, "_CHUNK", size)
            assert self.same_as_whole(rhs) == [j_double_star, j_star]

    def test_default_chunk_spans_several(self):
        for n in (lp._CHUNK + 1, 3 * lp._CHUNK, 40_001):
            self.same_as_whole(strong_rhs(n), _strong_rhs(n))
            self.same_as_whole(whole_weak_rhs(n, W1, W2),
                               _weak_rhs(n, W1, W2))

    def test_verifier_tie_goes_to_the_lowest_j(self, chunk):
        # residual -1 at j = 3 and j = 8, in different chunks when the
        # chunk is 3 or 7 wide; a NaN wins over any number, the first one
        z = (np.zeros(10),)
        rhs = np.zeros(10)
        rhs[[2, 7]] = 1.0
        report = verify_dual_feasibility(z, rows_of((rhs,)))
        assert (report.min_residual, report.argmin_j) == (-1.0, 3)
        self.same_verdict(z, (rhs,))
        rhs[[5, 8]] = math.nan
        report = verify_dual_feasibility(z, rows_of((rhs,)))
        assert math.isnan(report.min_residual) and report.argmin_j == 6
        self.same_verdict(z, (rhs,))


class TestObjectiveFold:
    """The certificate objective is summed in fixed 2^14-entry blocks,
    whatever the sweep's chunk size, and stays close to the exact sum."""

    @pytest.mark.parametrize("n", [16385, 100003, 2 * 10**6])
    def test_close_to_fsum(self, n):
        # the per-block einsum reads up to 1.6e-15 off at the strong
        # n = 100003, with or without the blocks
        j = np.arange(1.0, n + 1.0)
        strong = strong_dual_certificate(n)
        weak = weak_dual_certificate(n, W1, W2)
        for cert, z in ((strong, (strong.y_pos,)),
                        (weak, (weak.alpha, weak.beta))):
            exact = math.fsum(np.concatenate([j * zr for zr in z]).tolist())
            assert abs(cert.objective - exact) <= 2e-15 * exact

    def test_chunk_does_not_move_it(self, monkeypatch):
        n = 40_001
        objectives = []
        for chunk in (7, lp._CHUNK):
            monkeypatch.setattr(lp, "_CHUNK", chunk)
            objectives += [_sweep(n, _strong_rhs(n))[2].hex(),
                           _sweep(n, _weak_rhs(n, W1, W2))[2].hex()]
        assert objectives[:2] == objectives[2:]


def read_ranges(n):
    """Every ``lp._chunks`` range, then the one row past each chunk edge
    that the sweep reads for its shifted R_{j+1}."""
    ranges = list(lp._chunks(n))
    return ranges + [(lo, hi + 1) for lo, hi in ranges if hi < n]


class TestRowsPerChunk:
    """The certificates' rhs functions give the whole-array bits on the j
    of every range the sweep and the verifier read."""

    # _CHUNK = 1 at n = 100003 is left out: 2e5 calls per weight take
    # seconds, and n = 16385 already crosses a chunk edge at that size
    @pytest.mark.parametrize("chunk,n", [
        (chunk, n) for chunk in (1, 7, 64, 1 << 14)
        for n in (2, 3, 16385, 100003) if (chunk, n) != (1, 100003)])
    def test_rows_are_whole_array_slices(self, monkeypatch, chunk, n):
        monkeypatch.setattr(lp, "_CHUNK", chunk)
        ranges = read_ranges(n)
        j = np.arange(1.0, n + 1.0)
        # w1 = 1 gives w2 = 0, where rv is exactly zero
        cases = [(_weak_rhs(n, w1, 1.0 - w1), whole_weak_rhs(n, w1, 1.0 - w1))
                 for w1 in (0.0, 0.3, 0.5, 0.970659, 1.0)]
        cases.append((_strong_rhs(n), strong_rhs(n)))
        for fns, whole in cases:
            got = [tuple(fn(j[lo:hi]) for fn in fns) for lo, hi in ranges]
            assert all(len(g) == len(whole) for g in got)
            for r, w in enumerate(whole):
                mine = np.concatenate([g[r] for g in got])
                ref = np.concatenate([w[lo:hi] for lo, hi in ranges])
                assert mine.tobytes() == ref.tobytes()


class TestVerifierShapes:
    """A verifier input whose shapes do not match raises instead of
    reporting a slack."""

    def test_fewer_rows_than_families(self):
        with pytest.raises(ValueError, match="got 1 for 2"):
            verify_dual_feasibility((np.ones(3), np.ones(3)),
                                    rows_of((np.zeros(3),)))

    def test_more_rows_than_families(self):
        with pytest.raises(ValueError, match="got 2 for 1"):
            verify_dual_feasibility((np.ones(3),),
                                    rows_of((np.zeros(3), np.zeros(3))))

    def test_dual_arrays_differ_in_length(self):
        with pytest.raises(ValueError, match="of one length"):
            verify_dual_feasibility((np.ones(3), np.ones(5)),
                                    rows_of((np.zeros(3), np.zeros(5))))
        with pytest.raises(ValueError, match="of one length"):
            verify_dual_feasibility((np.ones(5), np.ones(3)),
                                    rows_of((np.zeros(5), np.zeros(3))))

    def test_rows_of_the_wrong_width(self, monkeypatch):
        # the chunks are j = 7..10, 3..6 and 1..2; only the second one's
        # rows come one entry short
        monkeypatch.setattr(lp, "_CHUNK", 4)
        with pytest.raises(ValueError, match=r"j = 3\.\.6"):
            verify_dual_feasibility(
                (np.ones(10),), (lambda j: np.zeros(j.size - (j[0] == 3)),))

    def test_no_families(self):
        with pytest.raises(ValueError, match="got 1 for 0"):
            verify_dual_feasibility((), lp._strong_rhs(2))
        with pytest.raises(ValueError, match="got 0 for 0"):
            verify_dual_feasibility((), ())

    def test_dual_given_as_a_list(self):
        with pytest.raises(ValueError, match="numpy dual arrays"):
            verify_dual_feasibility(([0.0, 1.0],), lp._strong_rhs(2))


class TestActiveFamiliesOnly:
    """The sweep calls rv, the weak rhs's second family, only in the
    two-family stretch [j*, n]: once per chunk down to the one holding j*."""

    @pytest.mark.parametrize("n,chunk", [(300, 7), (2_000_000, None)])
    def test_rv_read_down_to_j_star(self, monkeypatch, n, chunk):
        if chunk:
            monkeypatch.setattr(lp, "_CHUNK", chunk)
        ru, rv = _weak_rhs(n, W1, W2)
        tops = []

        def spy(j):
            tops.append(int(j[-1]))
            return rv(j)

        _, (j_double_star, j_star), _ = _sweep(n, (ru, spy))
        chunks = list(lp._chunks(n))
        assert 1 < j_double_star < j_star < n
        assert min(tops) >= j_star
        assert len(tops) == sum(hi >= j_star for _, hi in chunks) < len(chunks)


def traced_peak(certificate, n):
    tracemalloc.start()
    try:
        certificate(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCertificateMemory:
    """Neither certificate holds an n-long rhs, j or sum: the traced peak is
    z and cache-sized chunks."""

    @pytest.mark.parametrize("certificate,bytes_per_n", [
        (lambda n: weak_dual_certificate(n, W1, W2), 40),
        (strong_dual_certificate, 21)])
    def test_traced_peak(self, certificate, bytes_per_n):
        # no n-long rhs: at most z, an n-long j and the objective's sum
        assert traced_peak(certificate, 300_000) <= bytes_per_n * 300_000

    @pytest.mark.parametrize("certificate,bytes_per_n", [
        (lambda n: weak_dual_certificate(n, W1, W2), 24),
        (strong_dual_certificate, 13)])
    def test_traced_peak_z_only(self, certificate, bytes_per_n):
        # nor an n-long j or sum: z (16 or 8 bytes a row) and the chunks
        assert traced_peak(certificate, 300_000) <= bytes_per_n * 300_000


class TestStrongCertificate:
    def test_last_coefficient_is_empty_sum(self):
        for n in (2, 5, 17):
            cert = strong_dual_certificate(n)
            assert abs(cert.y_pos[-1] - 1.0 / (n * (n + 1))) < 1e-15

    def test_nonnegative_from_j_star(self):
        for n in (10, 100, 1000):
            cert = strong_dual_certificate(n)
            assert np.all(cert.y_pos >= 0)
            assert np.all(cert.y_pos[:cert.j_star - 1] == 0.0)

    def test_sweep_matches_closed_form(self):
        # the sweep sums in another order than the harmonic suffix, so y
        # agrees to rounding relative to its largest entry, j* exactly
        for n in list(range(2, 3001)) + [10 ** 6]:
            y, j_star = closed_form_strong(n)
            cert = strong_dual_certificate(n)
            assert cert.j_star == j_star, n
            assert np.max(np.abs(cert.y_pos - y)) <= 1e-13 * np.max(y), n

    def test_j_star_is_first_positive_y(self):
        for n in range(2, 3001):
            cert = strong_dual_certificate(n)
            assert cert.y_pos[cert.j_star - 1] > 0
            assert not np.any(cert.y_pos[:cert.j_star - 1])

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
        report = verify_dual_feasibility((cert.y_pos,), rows_of((rhs,)))
        assert report.min_residual < -1e-6


class TestRefusedCertificates:
    """A constructor whose own point fails the verifier raises instead of
    reporting a bound."""

    @pytest.fixture
    def stricter(self, monkeypatch):
        monkeypatch.setattr(
            "sectrade.lp.verify_dual_feasibility", lambda z, rhs:
            verify_dual_feasibility(z, tuple(lambda j, fn=fn: fn(j) + 1e-9
                                             for fn in rhs)))

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

    def test_j_star_conventions(self):
        # the strong j* is the first j with y_j > 0
        strong = strong_dual_certificate(10)
        assert strong.j_star == 4
        assert strong.y_pos[2] == 0.0 < strong.y_pos[3]
        # the weak j* and j** are the sweep's breaks, the largest j where
        # beta (alpha) went negative, here one below the first positive
        weak = weak_dual_certificate(10, W1, W2)
        assert (weak.j_star, weak.j_double_star) == (9, 3)
        assert weak.beta[8] == 0.0 < weak.beta[9]
        assert weak.alpha[2] == 0.0 < weak.alpha[3]
        # but not always: alpha_1 was zeroed, and alpha_2 came out 0
        weak = weak_dual_certificate(5, 0.0, 1.0)
        assert weak.j_double_star == 1
        assert weak.alpha[1] == 0.0 < weak.alpha[2]

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

    @pytest.mark.parametrize("w1,w2", [(True, False), (1, False),
                                       ("1", 0.0), (1.0, None)])
    def test_non_real_weights(self, w1, w2):
        with pytest.raises(ValueError, match="needs a real w[12]"):
            weak_dual_certificate(10, w1, w2)

    def test_weights_kept_as_floats(self):
        cert = weak_dual_certificate(10, np.float32(0.5), np.float32(0.5))
        assert type(cert.w1) is float and type(cert.w2) is float
        doc = json.loads(json.dumps(cert.to_json_dict()))
        assert (doc["w1"], doc["w2"]) == (0.5, 0.5)
        assert doc == weak_dual_certificate(10, 0.5, 0.5).to_json_dict()

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
