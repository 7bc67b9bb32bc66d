"""Composite Gauss-Legendre quadrature.

Double integrals in (s, t) are smooth except for kinks along the threshold
lines and the diagonal t = s, so regions are set up so that every panel
sees a smooth integrand:

* ``integrate_rect``  handles  s in [sa, sb], t in [ta, tb];
* ``integrate_wedge`` handles  s in [sa, sb], t in [s, thi], mapping the
  wedge to the unit square via t = s + (thi - s) v so that panels never
  straddle the diagonal.

``integrate_graded`` handles 1D integrands in t with factors (1 - t)^m,
m <= n, on cells that shrink geometrically toward the left end of each
span.  Every routine doubles its panel count until two successive
estimates agree to the requested absolute tolerance in every entry.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

_NODES_PER_PANEL = 8
_MAX_PANELS = 256
_X, _W = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)  # on [-1, 1]


def _edge_rule(edges):
    """Composite Gauss-Legendre nodes/weights on the panels between edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * _X[None, :]).ravel()
    wts = (half[:, None] * _W[None, :]).ravel()
    return pts, wts


def panel_rule(a: float, b: float, panels: int):
    """Composite Gauss-Legendre nodes/weights over [a, b] with equal panels."""
    return _edge_rule(np.linspace(a, b, panels + 1))


def _tensor_estimate(f, s_pts, s_wts, t_pts, t_wts):
    vals = np.asarray(f(s_pts[:, None], t_pts[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (s_pts.size, t_pts.size))
    return float(s_wts @ vals @ t_wts)


def _refine(estimate, tol: float):
    prev = estimate(1)
    panels = 2
    while panels <= _MAX_PANELS:
        cur = estimate(panels)
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur
        panels *= 2
    raise NumericError(f"quadrature did not reach tol={tol}")


def integrate_rect(f, sa: float, sb: float, ta: float, tb: float,
                   tol: float = 1e-10) -> float:
    """Integral of f(s, t) over the rectangle [sa, sb] x [ta, tb]."""
    if sa >= sb or ta >= tb:
        return 0.0

    def estimate(panels: int) -> float:
        s_pts, s_wts = panel_rule(sa, sb, panels)
        t_pts, t_wts = panel_rule(ta, tb, panels)
        return _tensor_estimate(f, s_pts, s_wts, t_pts, t_wts)

    return _refine(estimate, tol)


def integrate_wedge(f, sa: float, sb: float, thi: float,
                    tol: float = 1e-10) -> float:
    """Integral of f(s, t) over { sa <= s <= sb, s <= t <= thi }."""
    if sa >= sb:
        return 0.0

    def estimate(panels: int) -> float:
        s_pts, s_wts = panel_rule(sa, sb, panels)
        v_pts, v_wts = panel_rule(0.0, 1.0, panels)
        s = s_pts[:, None]
        span = thi - s  # may vanish at s = thi; weight then vanishes too
        t = s + span * v_pts[None, :]
        vals = np.asarray(f(np.broadcast_to(s, t.shape), t), dtype=float) * span
        vals = np.broadcast_to(vals, t.shape)
        return float(s_wts @ vals @ v_wts)

    return _refine(estimate, tol)


def integrate_graded(estimate, spans, n: int, tol: float = 1e-10):
    """Refine ``estimate(rules)``, where ``rules[j]`` holds the nodes and
    weights over ``spans[j] = (a, b)``; the estimate may be an array.

    Cells end at a + (b - a) 2^-k, k = K, ..., 0, each cut into equal panels;
    K = ceil(log2(n + 1)) + 1 makes the first cell narrower than the 1/n
    scale on which (1 - t)^m, m <= n, falls off from t = a."""
    ends = 2.0 ** -np.arange(int(n).bit_length() + 1, -1, -1)

    def rule(a, b, panels):
        cells = np.append(a, a + (b - a) * ends) if a < b else np.array([a])
        edges = cells[:-1, None] + np.diff(cells)[:, None] * (
            np.arange(panels) / panels)
        return _edge_rule(np.append(edges, cells[-1]))

    return _refine(lambda panels: estimate(
        [rule(a, b, panels) for a, b in spans]), tol)
