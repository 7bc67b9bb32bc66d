"""Composite Gauss-Legendre quadrature.

Double integrals in (s, t) are smooth except for kinks along the threshold
lines and the diagonal t = s, so regions are set up so that every panel
sees a smooth integrand:

* ``integrate_rect``  handles  s in [sa, sb], t in [ta, tb];
* ``integrate_wedge`` handles  s in [sa, sb], t in [s, thi]: it maps the
  wedge onto [sa, sb] x [0, 1] via t = s + (thi - s) v, so that panels
  never straddle the diagonal, for ``integrate_rect``, which sums over t,
  then over s, by ``np.einsum``: one order on every host, no BLAS.

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
# numpy's leggauss(8) on [-1, 1], bit for bit: its nodes and weights are
# exactly symmetric, so the positive half is mirrored
_X = np.array([0.18343464249564978, 0.525532409916329,
               0.7966664774136267, 0.9602898564975362])
_W = np.array([0.36268378337836166, 0.3137066458778869,
               0.22238103445337443, 0.10122853629037706])
_X, _W = np.r_[-_X[::-1], _X], np.r_[_W[::-1], _W]


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
        vals = np.asarray(f(s_pts[:, None], t_pts[None, :]), dtype=float)
        vals = np.broadcast_to(vals, (s_pts.size, t_pts.size))
        return float(np.einsum("i,i", s_wts, np.einsum("ij,j", vals, t_wts)))

    return _refine(estimate, tol)


def integrate_wedge(f, sa: float, sb: float, thi: float,
                    tol: float = 1e-10) -> float:
    """Integral of f(s, t) over { sa <= s <= sb, s <= t <= thi }, as one
    over (s, v) in [sa, sb] x [0, 1] with t = s + (thi - s) v."""
    return integrate_rect(lambda s, v: f(s, s + (thi - s) * v) * (thi - s),
                          sa, sb, 0.0, 1.0, tol)


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
