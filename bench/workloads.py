"""The four workloads: fixed lists of the commands people run, each with a
correctness gate against an independent reference in the package.

No gate compares against pinned result bytes, so a change to the
simulation's stream layout (which moves every Monte Carlo estimate) still
passes as long as the estimates stay within their standard errors.

Workloads and why each exists:

* ``mc_small_n``: ``simulate`` for all four policies at n = 10.  At small n
  the per-block costs (draws, weak-OPT, reduction) are a large share, so a
  kernel that wins at large n cannot hide a loss here.
* ``mc_large_n``: ``simulate`` at n = 1000 and n = 100000.  The O(n) holder
  kernel dominates, and at n = 1e5 one block of draws is about twice the
  L3 size, so memory shows in the peak RSS.
* ``exact``: quadrature (over half the time) and the rational oracles
  (about a fifth); neither does much work in any other workload.
* ``lp``: the dense simplex (about three quarters) and the O(n)
  certificate sweeps at n = 2e6.  If ``exact`` and ``lp`` were merged,
  quadrature would be about a tenth of the merged workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from sectrade import exact
from sectrade.benchmarks import weak_opt_expected
from sectrade.lp import strong_dual_certificate, weak_dual_certificate
from sectrade.model import (Instance, Thresholds, canonicalize,
                            parse_family_spec)

T1, T2 = "0.296151", "0.805018"
TH = Thresholds(float(T1), float(T2))
W1, W2 = "0.970659", "0.029341"
Z = 4.0  # standard errors allowed between a frequency and its reference

# the op pair whose time ratio is ``simulate.thread_speedup``
THREAD_PAIR = ("alg1 spike n=1000 workers=1", "alg1 spike n=1000 workers=2")

# layers each workload must exercise; every other layer must read zero
ACTIVE_LAYERS = {
    "mc_small_n": {"simulate", "cli"},
    "mc_large_n": {"simulate", "cli"},
    "exact": {"quadrature", "exact", "oracle", "policies", "cli"},
    # `report constants` also runs quadrature, the optimizer and an oracle
    "lp": {"lp", "simplex", "quadrature", "exact", "oracle", "policies",
           "cli"},
}

WARMUP = {
    "mc_small_n": ["simulate", "--policy", "alg1", "--instance", "spike:n=4",
                   "--trials", "1000", "--seed", "0"],
    "mc_large_n": ["simulate", "--policy", "alg1", "--instance", "spike:n=4",
                   "--trials", "1000", "--seed", "0"],
    "exact": ["exact", "delta", "--mu", "2"],
    "lp": ["lp", "solve", "--which", "strong", "--n", "3"],
}



class GateFailure(Exception):
    """An op's output disagrees with its reference."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


@dataclass
class Op:
    """One command of a workload.

    ``argv`` ops run through ``sectrade.cli.main`` with ``--out`` appended;
    ``call`` ops are library calls.  ``check(result, raw, done)`` gets the
    parsed ``--out`` payload (or the call's return value), the ``--out``
    bytes (None for calls) and ``done``, which maps each earlier op of the
    pass to its (result, raw) pair; it raises GateFailure on a mismatch.
    """

    name: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    trials: int = 0  # simulated trials, for trials_per_s


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _agent_of_rank(spec: str) -> tuple:
    """Holder id of each canonical buyer rank (index 0 = rank 1)."""
    return canonicalize(parse_family_spec(spec)).original_index_of_rank


def _freq_near(payload: dict, holder: int, p: float, what: str,
               bias: float = 0.0) -> None:
    trials = payload["trials"]
    got = payload["holder_freq"].get(str(holder), 0.0)
    se = math.sqrt(p * (1.0 - p) / trials)
    need(abs(got - p) <= Z * se + bias,
         f"{what}: frequency {got:.6f} vs reference {p:.6f} "
         f"(|diff| > {Z:g} SE = {Z * se:.2e})")


def _sim_op(name: str, policy: str, spec: str, trials: int, seed: int,
            refs: list, workers: int = 1) -> Op:
    """``refs``: (holder id, reference probability, label, bias) tuples."""
    argv = ["simulate", "--policy", policy, "--instance", spec,
            "--trials", str(trials), "--seed", str(seed)]
    if workers != 1:
        argv += ["--workers", str(workers)]
    if policy == "alg3":
        argv += ["--t1", T1, "--t2", T2]

    def check(payload, raw, done):
        need(payload["trials"] == trials and payload["seed"] == seed,
             f"{name}: report echoes trials/seed wrongly")
        for holder, p, label, bias in refs:
            _freq_near(payload, holder, p, f"{name} {label}", bias)

    return Op(name, check, argv=argv, trials=trials)


def _same_bytes_as(first: str, op: Op) -> Op:
    """Extend an op's check: its ``--out`` bytes must equal those of
    ``first`` (the worker count must not change any output bit)."""
    inner = op.check

    def check(payload, raw, done):
        inner(payload, raw, done)
        need(first in done and raw == done[first][1],
             f"{op.name}: report bytes differ from {first!r}")

    return Op(op.name, check, argv=op.argv, trials=op.trials)


def mc_small_n(seed: int, workdir, nproc: int) -> list:
    trials = 1_000_000
    n = 10
    ranks_flat = _agent_of_rank("flat_k:n=10,k=3")
    ranks_spike = _agent_of_rank("spike:n=10")
    ranks_geo = _agent_of_rank("geometric:n=10,r=0.5")
    mu = n  # zero-priced sellers rank below every buyer
    sale = exact.alg3_sale_prob(TH)
    # The secretary baseline ends with the top buyer with probability
    # delta_mu(n) + (1/e)^(n+1) / (n (n+1)): it is the buy-then-resell
    # policy without the skip after (e-1)/e.  The second term is < 2e-7.
    secretary_gap = math.exp(-(n + 1)) / (n * (n + 1))
    return [
        _sim_op("alg1 seller_spike n=10", "alg1", "seller_spike:n=10",
                trials, seed, [(n + 1, 1.0 / math.e, "seller keeps", 0.0)]),
        _sim_op("alg2 flat_k n=10 k=3", "alg2", "flat_k:n=10,k=3", trials,
                seed, [(ranks_flat[i - 1],
                        float(exact.alg2_holder_prob(i, mu).p),
                        f"rank {i}", 0.0) for i in (1, 2, 3)]),
        _sim_op("alg3 spike n=10", "alg3", "spike:n=10", trials, seed,
                [(ranks_spike[i - 1], exact.alg3_pi_finite(i, n, TH),
                  f"rank {i}", 0.0) for i in (1, 2)]
                + [(0, 1.0 - sale, "unsold", 0.0)]),
        _sim_op("secretary geometric n=10", "secretary-baseline",
                "geometric:n=10,r=0.5", trials, seed,
                [(ranks_geo[0], exact.delta_mu(n).delta, "rank 1",
                  secretary_gap)]),
    ]


def mc_large_n(seed: int, workdir, nproc: int) -> list:
    n = 1000
    trials = 20_000
    top = _agent_of_rank("spike:n=1000")[0]
    alg1_top = [(top, exact.delta_mu(n).delta, "rank 1", 0.0)]
    w1, w2 = THREAD_PAIR
    return [
        _sim_op(w1, "alg1", "spike:n=1000", trials, seed, alg1_top),
        _same_bytes_as(w1, _sim_op(w2, "alg1", "spike:n=1000", trials, seed,
                                   alg1_top, workers=min(2, nproc))),
        _sim_op("alg3 spike n=1000", "alg3", "spike:n=1000", trials, seed,
                [(top, exact.alg3_pi_finite(1, n, TH), "rank 1", 0.0),
                 (0, 1.0 - exact.alg3_sale_prob(TH), "unsold", 0.0)]),
        _sim_op("alg1 seller_spike n=100000", "alg1", "seller_spike:n=100000",
                256, seed, [(100_001, 1.0 / math.e, "seller keeps", 0.0)]),
    ]


# ---------------------------------------------------------------------------
# Quadrature and oracles
# ---------------------------------------------------------------------------

def _oracle_instance(rng, n: int) -> Instance:
    """n buyers priced k/8 (k = 1..n, shuffled by the seed) and a seller
    between ranks 4 and 5, so every seed does the same amount of work."""
    prices = [Fraction(k, 8) for k in range(1, n + 1)]
    rng.shuffle(prices)
    return Instance(tuple(prices), Fraction(2 * (n - 4) + 1, 16))


def _write_instance(path, inst: Instance) -> str:
    path.write_text(json.dumps(inst.to_json_dict()))
    return str(path)


def _oracle_instances(seed: int, workdir) -> tuple:
    rng = np.random.default_rng(seed)
    weak_inst = _oracle_instance(rng, 7)
    alg2_inst = _oracle_instance(rng, 6)
    return (weak_inst, _write_instance(workdir / "weakopt7.json", weak_inst),
            alg2_inst, _write_instance(workdir / "alg2_6.json", alg2_inst))


def write_instances(name: str, seed: int, workdir) -> None:
    """The instance files a workload reads (part of its set-up)."""
    if name == "exact":
        _oracle_instances(seed, workdir)


def exact_workload(seed: int, workdir, nproc: int) -> list:
    weak_inst, weak_path, alg2_inst, alg2_path = _oracle_instances(
        seed, workdir)
    sale = exact.alg3_sale_prob(TH)
    p1_limit = exact.alg3_p1_limit(TH)
    delta_floor = exact.delta_limit()
    ops = []

    def check_table(payload, raw, done):
        need(len(payload["p"]) == 1000, "alg3 n=1000: wrong table length")
        total = math.fsum(payload["p"])
        need(abs(total - sale) < 1e-6,
             f"alg3 n=1000: sum p_i = {total:.9f}, sale prob {sale:.9f}")

    ops.append(Op("exact alg3 n=1000", check_table,
                  argv=["exact", "alg3", "--n", "1000", "--t1", T1, "--t2", T2]))

    def check_single(payload, raw, done):
        need(payload["p_i2"] == 0.0 and payload["p_i"] == payload["p_i1"],
             "alg3 n=1e5 i=1: the top buyer has no second-best share")
        need(abs(payload["p_i"] - p1_limit) < 1e-5,
             f"alg3 n=1e5 i=1: p_1 = {payload['p_i']:.9f} far from its "
             f"limit {p1_limit:.9f}")

    ops.append(Op("exact alg3 n=100000 i=1", check_single,
                  argv=["exact", "alg3", "--n", "100000", "--i", "1",
                        "--t1", T1, "--t2", T2]))

    def check_delta(mu):
        def check(payload, raw, done):
            need(payload["mu"] == mu, f"delta mu={mu}: wrong mu echoed")
            parts = payload["alpha"] + payload["beta"] + payload["gamma"]
            need(abs(parts - payload["delta"]) < 1e-12,
                 f"delta mu={mu}: parts do not add up")
            need(payload["delta"] >= delta_floor - 1e-12,
                 f"delta mu={mu}: below the limit")
            if mu > 1:
                prev = done[f"exact delta mu={mu - 1}"][0]["delta"]
                gap = exact.delta_gap_closed_form(mu - 1)
                need(abs(prev - payload["delta"] - gap) < 1e-9,
                     f"delta mu={mu}: step from mu={mu - 1} is not the "
                     f"closed-form gap")
        return check

    for mu in range(1, 101):
        ops.append(Op(f"exact delta mu={mu}", check_delta(mu),
                      argv=["exact", "delta", "--mu", str(mu)]))

    for objective, target in (("upper", 1.83683), ("lowerfamily", 1.76239)):
        def check_opt(payload, raw, done, target=target, objective=objective):
            need(abs(payload["value"] - target) < 1e-5,
                 f"optimize {objective}: {payload['value']:.6f} != {target}")
        ops.append(Op(f"optimize {objective}", check_opt,
                      argv=["optimize", "thresholds", "--objective", objective]))

    weak_ref = weak_opt_expected(weak_inst)

    def check_weakopt(payload, raw, done):
        need(Fraction(payload["weak_opt"]) == weak_ref,
             f"oracle weakopt: {payload['weak_opt']} != closed form {weak_ref}")

    ops.append(Op("oracle weakopt 7 buyers", check_weakopt,
                  argv=["oracle", "weakopt", "--instance", weak_path]))

    ranked = canonicalize(alg2_inst)

    def check_alg2(payload, raw, done):
        for i in range(1, ranked.mu + 1):
            agent = ranked.original_index_of_rank[i - 1]
            got = Fraction(payload["holder_prob"].get(str(agent), "0"))
            need(got == Fraction(1, 2 * i * (i + 1)),
                 f"oracle alg2: rank {i} holds with {got}, not 1/(2i(i+1))")

    ops.append(Op("oracle alg2 6 buyers", check_alg2,
                  argv=["oracle", "alg2", "--instance", alg2_path]))

    n_uni = 40
    f_ref = [i * (i + 1) * exact.alg3_pi_finite(i, n_uni, TH)
             for i in range(1, n_uni + 1)]

    def check_unimodal(report, raw, done):
        need(report.unimodal, "unimodality_f(40): f(i, 40) is not unimodal")
        worst = max(abs(a - b) for a, b in zip(report.f, f_ref))
        need(worst < 1e-6, f"unimodality_f(40): f differs from "
             f"i (i+1) p_i by {worst:.2e}")

    # unimodality_f has no CLI command, so it is called as a library function
    ops.append(Op("unimodality_f n=40", check_unimodal,
                  call=lambda: exact.unimodality_f(n_uni, TH)))
    return ops


# ---------------------------------------------------------------------------
# LP and certificates
# ---------------------------------------------------------------------------

def lp_workload(seed: int, workdir, nproc: int) -> list:
    ops = []
    for which, n in (("weak", 30), ("weak", 24), ("strong", 40)):
        dual = (weak_dual_certificate(n, float(W1), float(W2)).objective
                if which == "weak" else strong_dual_certificate(n).objective)

        def check_solve(payload, raw, done, dual=dual, which=which, n=n):
            need(payload["objective"] <= dual + 1e-9,
                 f"lp {which} n={n}: optimum {payload['objective']:.12f} "
                 f"above the dual objective {dual:.12f}")
            need(payload["max_violation"] <= 1e-9,
                 f"lp {which} n={n}: max violation {payload['max_violation']:.2e}")

        ops.append(Op(f"lp solve {which} n={n}", check_solve,
                      argv=["lp", "solve", "--which", which, "--n", str(n)]))

    def check_weak(payload, raw, done):
        res = payload["min_residuals"]
        need(min(res["u"], res["v"]) >= -1e-12,
             f"certify weak: negative residual {res}")
        need(abs(payload["objective"] - 0.567411) <= 5e-4,
             f"certify weak: objective {payload['objective']:.6f}")

    ops.append(Op("certify weak n=2000000", check_weak,
                  argv=["certify", "weak", "--n", "2000000",
                        "--w1", W1, "--w2", W2]))

    limit = exact.delta_limit()

    def check_strong(payload, raw, done):
        need(payload["min_residuals"]["dual"] >= -1e-12,
             f"certify strong: negative residual {payload['min_residuals']}")
        need(abs(payload["objective"] - limit) < 1e-5,
             f"certify strong: objective {payload['objective']:.9f} "
             f"far from the limit {limit:.9f}")

    ops.append(Op("certify strong n=1000000", check_strong,
                  argv=["certify", "strong", "--n", "1000000"]))

    def check_constants(payload, raw, done):
        need(len(payload) == 7, f"report constants: {len(payload)} rows")
        for row, vals in payload.items():
            need(abs(vals["computed"] - vals["target"]) < 1e-5,
                 f"report constants: {row.strip()} = {vals['computed']} "
                 f"vs target {vals['target']}")

    ops.append(Op("report constants", check_constants,
                  argv=["report", "constants"]))
    return ops


BUILDERS = {
    "mc_small_n": mc_small_n,
    "mc_large_n": mc_large_n,
    "exact": exact_workload,
    "lp": lp_workload,
}


def block_bytes_computed(spec: str) -> int | None:
    """Bytes of one block of draws for an inline instance, from the
    simulation's layout helpers (None once those helpers are gone)."""
    import importlib

    sim = importlib.import_module("sectrade.simulate")
    block_size = getattr(sim, "_block_size", None)
    stride = getattr(sim, "_stride", None)
    if block_size is None or stride is None:
        return None
    n = parse_family_spec(spec).n
    return int(block_size(n) * stride(n) * 8)
