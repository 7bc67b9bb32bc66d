"""In-memory spans and counters at the package's layer boundaries.

The tracer wraps public functions under the names their callers bind
(``sectrade.cli`` imported ``run_simulation`` by name, ``sectrade.lp``
imported ``simplex_solve_arrays``, and so on), so the package itself is
not changed.  Each wrapped call records one span: an id, the id of the
span that caused it, its layer, the wrapped function, the op it belongs
to, and its start and end.  Spans stay in memory until the run ends.

Layers (span names):

* ``op``               one CLI command (or library call) of a workload
* ``simulate``         ``sectrade.cli.run_simulation``
* ``simulate.draws``   ``sectrade.simulate.block_draws`` (may run on pool threads)
* ``exact``            the ``sectrade.exact`` entry points in ``EXACT_ENTRY``
* ``quadrature``       ``integrate_rect`` / ``integrate_wedge`` as bound in ``sectrade.exact``
* ``oracle``           the two enumerations of ``sectrade.oracle``
* ``policies.episode`` ``run_episode`` as bound in ``sectrade.oracle``
* ``lp.build``         ``build_*_primal`` and ``LinearProgram.to_arrays``
* ``lp.check``         ``PrimalSolution.max_violation``
* ``lp.cert``          the two certificate constructors
* ``lp.verify``        ``verify_dual_feasibility``
* ``simplex``          ``simplex_solve_arrays`` as bound in ``sectrade.lp``
"""

from __future__ import annotations

import importlib
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

# Entry points of sectrade.exact that the CLI and the workloads call.
# Nested calls among them (alg3_report -> alg3_pi_finite -> alg3_pi_parts)
# record only the outermost span.
EXACT_ENTRY = ("delta_mu", "delta_limit", "delta_limit_quadrature",
               "strong_ratio_limit", "alg3_pi_finite", "alg3_pi_parts",
               "alg3_report", "alg3_ratio", "optimize_thresholds",
               "unimodality_f")

# Every per-layer metric, in report order.  ``run.py`` and BENCHMARK.json
# list the same names.
LAYER_METRICS = {
    "simulate.s": "s", "simulate.draws_s": "s", "simulate.compute_s": "s",
    "simulate.uniforms": "count", "simulate.uniforms_per_trial": "count",
    "simulate.block_bytes_max": "bytes", "simulate.trials_per_s": "trials/s",
    "simulate.thread_speedup": "ratio", "simulate.thread_base_s": "s",
    "quadrature.integrals": "count", "quadrature.estimates": "count",
    "quadrature.points": "count", "quadrature.max_panels": "count",
    "quadrature.s": "s", "quadrature.points_per_s": "1/s",
    "exact.s": "s", "exact.self_s": "s", "exact.optimize_s": "s",
    "oracle.s": "s", "policies.episodes": "count", "policies.episode_us": "us",
    "lp.build_s": "s", "lp.check_s": "s", "lp.cert_s": "s",
    "lp.verify_s": "s", "lp.sweep_s": "s",
    "simplex.s": "s", "simplex.pivots": "count", "simplex.pivot_ms": "ms",
    "simplex.tableau_cells_max": "count",
    "cli.ops": "count", "cli.failed": "count", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Tracer:
    """Spans and counters of one workload process; ``install`` patches the
    package and ``restore`` undoes every patch."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._next_id = 0
        self._patches = []
        self.op = None
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, func: str = ""):
        stack = self._stack()
        # a span opened on a pool thread was caused by the main thread's
        # open span (the pool's caller blocks inside it)
        origin = stack or (self._main if stack is not self._main else [])
        parent = origin[-1][0] if origin else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, layer, func, self.op, t0, t1))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def take(self):
        """Return and clear what was recorded since the last call."""
        with self._lock:
            spans, counts, maxima = self.spans, self.counts, self.maxima
            self.spans = []
            self.counts = defaultdict(float)
            self.maxima = defaultdict(float)
        return spans, counts, maxima

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, after=None, wrap_args=None,
              outermost: bool = False) -> None:
        original = getattr(owner, attr)

        @wraps(original)
        def traced(*args, **kwargs):
            if outermost and any(name == layer for _, name in self._stack()):
                return original(*args, **kwargs)
            if wrap_args is not None:
                args = wrap_args(args)
            with self.span(layer, attr):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        cli = importlib.import_module("sectrade.cli")
        # sectrade/__init__ rebinds the name ``simulate`` to the function,
        # so the module is taken from the import system
        sim = importlib.import_module("sectrade.simulate")
        exact = importlib.import_module("sectrade.exact")
        quad = importlib.import_module("sectrade.quadrature")
        lp = importlib.import_module("sectrade.lp")
        oracle = importlib.import_module("sectrade.oracle")

        def sim_done(args, report):
            self.add("simulate.trials", report.trials)

        def drawn(args, u):
            self.add("simulate.uniforms", u.size)
            self.peak("simulate.block_bytes_max", u.nbytes)

        self.patch(cli, "run_simulation", "simulate", after=sim_done)
        self.patch(sim, "block_draws", "simulate.draws", after=drawn)

        nodes = getattr(quad, "_NODES_PER_PANEL", 8)

        def count_integrand(args):
            f = args[0]

            def counted(s, t):
                vals = f(s, t)
                shape = np.broadcast_shapes(np.shape(s), np.shape(t))
                self.add("quadrature.estimates", 1)
                self.add("quadrature.points", math.prod(shape))
                self.peak("quadrature.max_panels", shape[0] // nodes)
                return vals
            return (counted,) + tuple(args[1:])

        for name in ("integrate_rect", "integrate_wedge"):
            self.patch(exact, name, "quadrature", wrap_args=count_integrand)
        for name in EXACT_ENTRY:
            self.patch(exact, name, "exact", outermost=True)

        for name in ("enumerate_weak_opt_exact", "enumerate_alg2_exact"):
            self.patch(oracle, name, "oracle")
        self.patch(oracle, "run_episode", "policies.episode")

        for name in ("build_strong_primal", "build_weak_primal"):
            self.patch(lp, name, "lp.build")
        self.patch(lp.LinearProgram, "to_arrays", "lp.build")
        self.patch(lp.PrimalSolution, "max_violation", "lp.check")
        for name in ("strong_dual_certificate", "weak_dual_certificate"):
            self.patch(lp, name, "lp.cert")
        self.patch(lp, "verify_dual_feasibility", "lp.verify")

        def solved(args, result):
            self.add("simplex.pivots", result.iterations)
            self.peak("simplex.tableau_cells_max", tableau_cells(*args[:4]))

        self.patch(lp, "simplex_solve_arrays", "simplex", after=solved)


def tableau_cells(c, A, b, rels) -> int:
    """Cells of the dense two-phase tableau, from the LP's shape: one
    slack per inequality and one artificial per >= or == row once the
    rows are flipped to b >= 0."""
    m, nvar = np.shape(A)
    flipped = {"<=": ">=", ">=": "<=", "==": "=="}
    rels = [flipped[r] if bi < 0 else r for r, bi in zip(rels, np.asarray(b))]
    slack = sum(r != "==" for r in rels)
    art = sum(r != "<=" for r in rels)
    return (m + 1) * (nvar + slack + art + 1)


def layer_metrics(spans, counts, maxima) -> dict:
    """Per-layer metrics of one traced pass (timings are busy seconds,
    summed over threads)."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    by_func = defaultdict(float)
    children = defaultdict(float)
    for sid, parent, layer, func, _op, t0, t1 in spans:
        d = t1 - t0
        busy[layer] += d
        calls[layer] += 1
        by_func[layer, func] += d
        if parent is not None:
            children[parent] += d
    cli_self = sum((t1 - t0) - children[sid]
                   for sid, _p, layer, _f, _o, t0, t1 in spans if layer == "op")

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    trials = counts["simulate.trials"]
    return {
        "simulate.s": busy["simulate"],
        "simulate.draws_s": busy["simulate.draws"],
        "simulate.compute_s": busy["simulate"] - busy["simulate.draws"],
        "simulate.uniforms": counts["simulate.uniforms"],
        "simulate.uniforms_per_trial": ratio(counts["simulate.uniforms"], trials),
        "simulate.block_bytes_max": maxima["simulate.block_bytes_max"],
        "simulate.trials_per_s": ratio(trials, busy["simulate"]),
        "quadrature.integrals": calls["quadrature"],
        "quadrature.estimates": counts["quadrature.estimates"],
        "quadrature.points": counts["quadrature.points"],
        "quadrature.max_panels": maxima["quadrature.max_panels"],
        "quadrature.s": busy["quadrature"],
        "quadrature.points_per_s": ratio(counts["quadrature.points"],
                                         busy["quadrature"]),
        "exact.s": busy["exact"],
        "exact.self_s": busy["exact"] - busy["quadrature"],
        "exact.optimize_s": by_func["exact", "optimize_thresholds"],
        "oracle.s": busy["oracle"],
        "policies.episodes": calls["policies.episode"],
        "policies.episode_us": ratio(busy["policies.episode"],
                                     calls["policies.episode"], 1e6),
        "lp.build_s": busy["lp.build"],
        "lp.check_s": busy["lp.check"],
        "lp.cert_s": busy["lp.cert"],
        "lp.verify_s": busy["lp.verify"],
        "lp.sweep_s": busy["lp.cert"] - busy["lp.verify"],
        "simplex.s": busy["simplex"],
        "simplex.pivots": counts["simplex.pivots"],
        "simplex.pivot_ms": ratio(busy["simplex"], counts["simplex.pivots"], 1e3),
        "simplex.tableau_cells_max": maxima["simplex.tableau_cells_max"],
        "cli.ops": calls["op"],
        "cli.self_s": cli_self,
        "trace.spans": len(spans),
    }


def write_spans(path, spans) -> None:
    """Write every span as one JSON object per line."""
    keys = ("id", "parent", "layer", "func", "op", "start", "end")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
