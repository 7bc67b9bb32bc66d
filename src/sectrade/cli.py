"""Command-line interface exposing every capability of the package.

Each command prints a short human-readable summary to stdout and returns
its JSON payload; ``main`` writes that payload to ``--out`` only after the
command returned, so a failed command writes no file.  The one exception
is ``exact alg3`` given a ``.csv`` path, which writes its own table and
returns no payload (with ``--i`` such a path exits 2).  Exit codes:
0 success, 2 argument/validation error, 3 internal numeric failure.
Sizes above a cap (``lp solve`` n > 60, an ``exact alg3`` table n > 1e5,
family instances and ``certify`` n > 1e7, ``oracle weakopt`` n > 7,
``oracle alg2`` n > 6) exit 2 before any allocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import exact, lp, oracle
from .model import Thresholds, load_instance
from .policies import POLICIES
from .simulate import simulate as run_simulation

# the double thresholds of ``optimize thresholds --objective upper``
_TUNED = Thresholds(0.296151, 0.805018)


def _finite(v):
    """``v`` with every non-finite float as None: RFC 8259 JSON has no
    Infinity or NaN."""
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_out(path, payload: dict | None) -> None:
    if path and payload is not None:
        with open(path, "w") as fh:
            json.dump(_finite(payload), fh, sort_keys=True, indent=2,
                      allow_nan=False)
            fh.write("\n")


def _cmd_simulate(args) -> dict:
    th = None
    if POLICIES[args.policy].floors is None:  # floors from --t1/--t2
        th = Thresholds(args.t1 if args.t1 is not None else _TUNED.t1,
                        args.t2 if args.t2 is not None else _TUNED.t2)
    elif args.t1 is not None or args.t2 is not None:
        raise ValueError("--t1/--t2 apply only to --policy alg3")
    instance = load_instance(args.instance)
    report = run_simulation(args.policy, instance, args.trials, args.seed,
                            workers=args.workers, thresholds=th)
    print(f"policy={report.policy} trials={report.trials} seed={report.seed}")
    print(f"mean welfare = {report.mean_alg_welfare:.6f} +- {report.se_alg:.6f}")
    print(f"mean weak opt = {report.mean_weak_opt:.6f} +- {report.se_weak:.6f}")
    print(f"strong opt = {report.strong_opt:.6f}")
    print(f"ratio_weak = {report.ratio_weak:.6f}  ratio_strong = {report.ratio_strong:.6f}")
    return report.to_json_dict()


def _cmd_exact_delta(args) -> dict:
    report = exact.delta_mu(args.mu)
    print(f"mu={report.mu}: alpha={report.alpha:.9f} beta={report.beta:.9f} "
          f"gamma={report.gamma:.9f} delta={report.delta:.9f}")
    return report.to_json_dict()


def _cmd_exact_alg3(args) -> dict | None:
    if args.i is not None and (args.out or "").endswith(".csv"):
        raise ValueError("--i reports one rank as JSON, not to a .csv --out")
    th = Thresholds(args.t1, args.t2)
    if args.i is not None:
        p, p1, p2 = exact.alg3_pi_parts(args.i, args.n, th)
        print(f"i={args.i} n={args.n}: p_i={p:.9f} (best-so-far {p1:.9f}, "
              f"second {p2:.9f})")
        return {"n": args.n, "i": args.i, "t1": th.t1, "t2": th.t2,
                "p_i": p, "p_i1": p1, "p_i2": p2}
    report = exact.alg3_report(args.n, th)
    print(f"n={args.n} t1={th.t1} t2={th.t2}")
    print(f"sale probability = {report.sale_prob:.9f}")
    print(f"p1 limit = {report.p1_limit:.9f}  p2 limit = {report.p2_limit:.9f}")
    print(f"asymptotic ratio bound = {report.ratio:.6f}")
    for i, p in enumerate(report.p, start=1):
        print(f"  p_{i} = {p:.9f}")
    if args.out and args.out.endswith(".csv"):
        report.to_csv(args.out)
        return None
    return report.to_json_dict()


def _cmd_exact_limits(args) -> dict:
    closed = exact.delta_limit()
    quad = exact.delta_limit_quadrature()
    ratio = exact.strong_ratio_limit()
    print(f"4e^2/(e^2+1) = {ratio:.9f}")
    print(f"(e^2+1)/(4e^2) = {closed:.9f} (closed form)")
    print(f"(e^2+1)/(4e^2) = {quad:.9f} (quadrature)")
    print(f"|closed - quadrature| = {abs(closed - quad):.3e}")
    return {"delta_limit_closed_form": closed,
            "delta_limit_quadrature": quad,
            "agreement": abs(closed - quad),
            "strong_ratio": ratio}


def _cmd_certify(args) -> dict:
    if args.kind == "strong":
        cert = lp.strong_dual_certificate(args.n)
        print(f"n={cert.n}: objective={cert.objective:.9f} j*={cert.j_star} "
              f"min residual={cert.min_residual:.3e}")
    else:
        cert = lp.weak_dual_certificate(args.n, args.w1, args.w2)
        print(f"n={cert.n} w1={cert.w1} w2={cert.w2}: "
              f"objective={cert.objective:.9f}")
        print(f"j*={cert.j_star} j**={cert.j_double_star} "
              f"residuals: u={cert.min_residual_u:.3e} "
              f"v={cert.min_residual_v:.3e}")
    return cert.to_json_dict()


def _cmd_lp_solve(args) -> dict:
    builder = (lp.build_strong_primal if args.which == "strong"
               else lp.build_weak_primal)
    program = builder(args.n)
    solution = lp.simplex_solve(program)
    payload = {"which": args.which, "n": args.n,
               "objective": solution.objective_value,
               "max_violation": solution.max_violation(program)}
    print(f"{args.which} primal n={args.n}: optimum = "
          f"{solution.objective_value:.9f}")
    if args.which == "weak":
        # the weak primal's last column is the scalar A
        payload["A"] = float(solution.v[-1])
        print(f"A = {payload['A']:.9f}")
    print(f"pivots={solution.pivots}", file=sys.stderr)
    return payload


def _cmd_optimize(args) -> dict:
    objective = {"upper": "upper_bound", "lowerfamily": "lower_bound_family"}
    th, value = exact.optimize_thresholds(objective[args.objective])
    print(f"{args.objective}: t1={th.t1:.6f} t2={th.t2:.6f} value={value:.6f}")
    return {"objective": args.objective, "t1": th.t1, "t2": th.t2,
            "value": value}


def _cmd_oracle(args) -> dict:
    instance = load_instance(args.instance)
    if args.kind == "weakopt":
        result = oracle.enumerate_weak_opt_exact(instance)
        print(f"expected weak optimum = {result} (= {float(result):.9f})")
        return {"weak_opt": str(result), "weak_opt_float": float(result)}
    dist = oracle.enumerate_alg2_exact(instance)
    for holder, prob in dist.holder_prob.items():
        label = ("intermediary" if holder == 0
                 else "seller" if holder == dist.instance.seller_id
                 else f"buyer {holder}")
        print(f"P(holder = {label}) = {prob} (= {float(prob):.9f})")
    print(f"expected welfare = {dist.expected_welfare} "
          f"(= {float(dist.expected_welfare):.9f})")
    return {
        "holder_prob": {str(h): str(p) for h, p in dist.holder_prob.items()},
        "holder_prob_float": {str(h): float(p)
                              for h, p in dist.holder_prob.items()},
        "expected_welfare": str(dist.expected_welfare),
        "expected_welfare_float": float(dist.expected_welfare),
    }


def _cmd_report_constants(args) -> dict:
    rows = []
    closed = exact.delta_limit()
    quad = exact.delta_limit_quadrature()
    rows.append(("strong ratio 4e^2/(e^2+1)", 3.523188, exact.strong_ratio_limit()))
    rows.append(("best-buyer probability limit", 0.283834, closed))
    rows.append(("  same, by quadrature", 0.283834, quad))
    rational = load_instance({"buyer_prices": ["1", "1/2", "1/4"],
                              "seller_price": "1/8"})
    alg2 = oracle.enumerate_alg2_exact(rational)
    weak = oracle.enumerate_weak_opt_exact(rational)
    rows.append(("coin-flip policy weak ratio", 2.0,
                 float(weak / alg2.expected_welfare)))
    rows.append(("double-threshold ratio bound", 1.83683,
                 exact.alg3_ratio(_TUNED).bound))
    th_l, value = exact.optimize_thresholds("lower_bound_family")
    rows.append(("threshold family lower bound", 1.76239, value))
    cert = lp.weak_dual_certificate(2_000_000, 0.970659, 0.029341)
    rows.append(("weak dual objective, n=2e6", 0.567411, cert.objective))
    print(f"{'quantity':<38} {'target':>10} {'computed':>14}")
    for name, target, value in rows:
        print(f"{name:<38} {target:>10.6f} {value:>14.9f}")
    return {name: {"target": target, "computed": value}
            for name, target, value in rows}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process by the
    first call (never at import); each ``parse_args`` starts a fresh
    namespace, so no call sees another's values."""
    parser = argparse.ArgumentParser(
        prog="sectrade",
        description="Online-trading lab: policies, exact probabilities, "
                    "Monte Carlo, and dual certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", parents=[out],
                           help="Monte Carlo estimate for a policy")
    p_sim.add_argument("--policy", required=True, choices=tuple(POLICIES))
    p_sim.add_argument("--instance", required=True,
                       help="JSON file or inline family:params spec")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--t1", type=float, default=None)
    p_sim.add_argument("--t2", type=float, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_exact = sub.add_parser("exact", help="closed-form/quadrature reports")
    ex_sub = p_exact.add_subparsers(dest="exact_command", required=True)
    p_delta = ex_sub.add_parser("delta", parents=[out])
    p_delta.add_argument("--mu", type=int, required=True)
    p_delta.set_defaults(func=_cmd_exact_delta)
    p_a3 = ex_sub.add_parser("alg3", parents=[out])
    p_a3.add_argument("--n", type=int, required=True)
    p_a3.add_argument("--t1", type=float, required=True)
    p_a3.add_argument("--t2", type=float, required=True)
    p_a3.add_argument("--i", type=int, default=None)
    p_a3.set_defaults(func=_cmd_exact_alg3)
    p_lim = ex_sub.add_parser("limits", parents=[out])
    p_lim.set_defaults(func=_cmd_exact_limits)

    p_cert = sub.add_parser("certify", help="dual-feasible certificates")
    cert_sub = p_cert.add_subparsers(dest="certify_command", required=True)
    p_cs = cert_sub.add_parser("strong", parents=[out])
    p_cs.add_argument("--n", type=int, required=True)
    p_cs.set_defaults(func=_cmd_certify, kind="strong")
    p_cw = cert_sub.add_parser("weak", parents=[out])
    p_cw.add_argument("--n", type=int, required=True)
    p_cw.add_argument("--w1", type=float, required=True)
    p_cw.add_argument("--w2", type=float, required=True)
    p_cw.set_defaults(func=_cmd_certify, kind="weak")

    p_lp = sub.add_parser("lp", help="solve the small primals")
    lp_sub = p_lp.add_subparsers(dest="lp_command", required=True)
    p_solve = lp_sub.add_parser("solve", parents=[out])
    p_solve.add_argument("--which", required=True, choices=("strong", "weak"))
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.set_defaults(func=_cmd_lp_solve)

    p_opt = sub.add_parser("optimize", help="threshold optimisation")
    opt_sub = p_opt.add_subparsers(dest="optimize_command", required=True)
    p_th = opt_sub.add_parser("thresholds", parents=[out])
    p_th.add_argument("--objective", required=True,
                      choices=("upper", "lowerfamily"))
    p_th.set_defaults(func=_cmd_optimize)

    p_oracle = sub.add_parser("oracle", help="exact small-n enumeration")
    or_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_wo = or_sub.add_parser("weakopt", parents=[out])
    p_wo.add_argument("--instance", required=True)
    p_wo.set_defaults(func=_cmd_oracle, kind="weakopt")
    p_a2 = or_sub.add_parser("alg2", parents=[out])
    p_a2.add_argument("--instance", required=True)
    p_a2.set_defaults(func=_cmd_oracle, kind="alg2")

    p_rep = sub.add_parser("report", help="summary tables")
    rep_sub = p_rep.add_subparsers(dest="report_command", required=True)
    p_const = rep_sub.add_parser("constants", parents=[out])
    p_const.set_defaults(func=_cmd_report_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    try:
        _write_out(args.out, args.func(args))
        return 0
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
