import math

import numpy as np
import pytest

from sectrade.errors import NumericError
from sectrade.quadrature import (integrate_graded, integrate_rect,
                                 integrate_wedge, panel_rule)


def test_panel_rule_weights_sum_to_length():
    pts, wts = panel_rule(0.25, 0.75, 4)
    assert abs(wts.sum() - 0.5) < 1e-14
    assert pts.min() > 0.25 and pts.max() < 0.75


def test_panel_rule_exact_through_degree_15():
    # 8 Gauss-Legendre nodes per panel integrate degree <= 15 exactly
    pts, wts = panel_rule(0.0, 1.0, 1)
    assert len(pts) == 8
    for k in range(16):
        assert abs(wts @ pts ** k - 1.0 / (k + 1)) < 1e-14
    assert abs(wts @ pts ** 16 - 1.0 / 17) > 1e-12


def test_rect_polynomial_exact():
    # separable cubic: integral of s^3 t^2 over [0,1]x[1,2]
    val = integrate_rect(lambda s, t: s ** 3 * t ** 2, 0, 1, 1, 2)
    assert abs(val - (1 / 4) * (7 / 3)) < 1e-12


def test_rect_constant_in_one_variable():
    val = integrate_rect(lambda s, t: 1.0 / t + 0.0 * s, 0, 0.5, 0.5, 1.0)
    assert abs(val - 0.5 * math.log(2.0)) < 1e-12


def test_rect_empty_interval():
    assert integrate_rect(lambda s, t: s + t, 1, 1, 0, 1) == 0.0


def test_wedge_against_closed_form():
    # integral over 0 <= s <= t <= 1 of s/t: inner gives -s ln s
    val = integrate_wedge(lambda s, t: s / t, 0.0, 1.0, 1.0)
    assert abs(val - 0.25) < 1e-10


def test_wedge_matches_rect_split():
    # area of a triangle via a wedge
    val = integrate_wedge(lambda s, t: np.ones_like(t), 0.0, 1.0, 1.0)
    assert abs(val - 0.5) < 1e-12


def test_wedge_upper_limit_below_band():
    val = integrate_wedge(lambda s, t: np.ones_like(t), 0.2, 0.6, 0.6)
    assert abs(val - 0.5 * 0.4 ** 2) < 1e-12


def test_nonconvergent_integrand_raises():
    rng = np.random.default_rng(0)

    def noisy(s, t):
        return rng.standard_normal(np.broadcast_shapes(s.shape, t.shape)) * 100

    with pytest.raises(NumericError):
        integrate_rect(noisy, 0, 1, 0, 1, tol=1e-12)


def test_graded_powers_of_one_minus_t():
    # int_a^1 (1 - t)^m dt = (1 - a)^(m+1) / (m + 1) for every m <= n at once
    n = 10 ** 4
    m = np.arange(n + 1)

    def estimate(rules):
        (t, w), = rules
        return np.exp(m[:, None] * np.log1p(-t)[None, :]) @ w

    for a in (0.0, 0.3):
        got = integrate_graded(estimate, ((a, 1.0),), n, tol=1e-13)
        want = np.exp((m + 1) * math.log1p(-a)) / (m + 1)
        assert np.max(np.abs(got - want)) < 1e-14


def test_graded_cells_and_empty_span():
    seen = []

    def estimate(rules):
        seen.append(rules)
        (t, w), (te, we) = rules
        return np.array([w.sum(), te.size + we.size])

    length, empty = integrate_graded(estimate, ((0.25, 0.75), (0.5, 0.5)), 3)
    assert abs(length - 0.5) < 1e-14 and empty == 0
    # n = 3: cells end at 0.25 + 0.5 * 2^-k for k = 3..0, four cells of 8
    # nodes at one panel each, the first below 0.25 + 0.5 / 8
    (t, _), _ = seen[0]
    assert [rules[0][0].size for rules in seen] == [32, 64]
    assert 0.25 < t.min() and np.sum(t < 0.3125) == 8 and t.max() < 0.75
