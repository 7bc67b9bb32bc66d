"""Run a fixed list of ``sectrade`` commands and keep every byte they emit.

    python tools/out_bytes.py DEST [--src PATH]

Each command runs as ``python -m sectrade.cli ... --out FILE`` against
``PATH`` (default: the ``src/`` of this checkout) and leaves
``<name>.out``, ``<name>.stdout``, ``<name>.stderr`` and ``<name>.code``
in DEST.  A refactor that must not change any output is checked with

    python tools/out_bytes.py /tmp/before --src /path/to/parent/src
    python tools/out_bytes.py /tmp/after
    diff -r /tmp/before /tmp/after

Exits 1 when any command exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

TH = ["--t1", "0.296151", "--t2", "0.805018"]
W = ["--w1", "0.970659", "--w2", "0.029341"]
RATIONAL_TIE = json.dumps({"buyer_prices": ["1", "1/2", "1/2", "1/4"],
                           "seller_price": "1/2"})
MIXED_TIE = json.dumps({"buyer_prices": [2, 1, 1.0, 2.0, 0.5],
                        "seller_price": 1})
# six buyers priced k/8 in a fixed shuffled order and a seller between
# ranks 2 and 3: every arrival order and both coin branches
K8_N6 = json.dumps({"buyer_prices": ["3/8", "3/4", "1/8", "5/8", "1/4",
                                     "1/2"],
                    "seller_price": "9/16"})
# non-dyadic prices with ties among the buyers and with the seller, at the
# oracle caps: the enumerations' integer scaling (the lcm of 3, 5 and 7)
NONDYADIC_N7 = json.dumps({"buyer_prices": ["1/3", "2/7", "3/5", "1/3", 2,
                                            1.0, "5/7"],
                           "seller_price": "1/3"})
# float prices, one of them the seller's: the oracle reads an integral
# float as the Fraction it equals
FLOAT_SELLER = json.dumps({"buyer_prices": [2.0, 1, "1/2"],
                           "seller_price": 0.0})
NONDYADIC_N6 = json.dumps({"buyer_prices": ["1/3", "2/7", "3/5", "1/3", 2,
                                            "5/7"],
                           "seller_price": "3/5"})
# buyers priced 1000 down to 1, strongest first, and a seller at strength
# position 5 (inside the first 33) or 40 (past them)
PAID_1000 = {pos: json.dumps({"buyer_prices": list(range(1000, 0, -1)),
                              "seller_price": 1000.5 - pos})
             for pos in (5, 40)}
# buyers priced 10 down to 1 and a seller at strength position 5
PAID_N10 = json.dumps({"buyer_prices": list(range(10, 0, -1)),
                       "seller_price": 5.5})
# buyer i (1..4000) priced 2731 i mod 4001, a permutation of 1..4000, so
# the strongest buyers are scattered over the window; the seller's 2000.5
# ranks in the middle
SCATTERED_4000 = json.dumps({"buyer_prices": [2731 * i % 4001
                                              for i in range(1, 4001)],
                             "seller_price": 2000.5})


def _simulate(policy, spec, trials, *extra):
    argv = ["simulate", "--policy", policy, "--instance", spec,
            "--trials", str(trials), "--seed", "1", *extra]
    return argv + TH if policy == "alg3" else argv


# name -> (argv, suffix of the --out file the command is given)
COMMANDS = {
    "report_constants": (["report", "constants"], ".json"),
    "exact_delta_mu5": (["exact", "delta", "--mu", "5"], ".json"),
    # q(t) = (1-t)^999 underflows over most of [1/e, 1]
    "exact_delta_mu1000": (["exact", "delta", "--mu", "1000"], ".json"),
    "exact_limits": (["exact", "limits"], ".json"),
    "exact_alg3_n1000": (["exact", "alg3", "--n", "1000", *TH], ".json"),
    # q^(i-1) underflows to 0.0 over most of the rank table
    "exact_alg3_n100000": (["exact", "alg3", "--n", "100000", *TH], ".json"),
    "exact_alg3_n50_csv": (["exact", "alg3", "--n", "50", *TH], ".csv"),
    "exact_alg3_i3": (["exact", "alg3", "--n", "1000", "--i", "3", *TH],
                      ".json"),
    # the threshold-family optimum, a second point for sale_prob and ratio
    "exact_alg3_n50_family": (["exact", "alg3", "--n", "50", "--t1",
                               "0.365883", "--t2", "0.978772"], ".json"),
    "certify_strong_2e6": (["certify", "strong", "--n", "2000000"], ".json"),
    "certify_strong_n10": (["certify", "strong", "--n", "10"], ".json"),
    # the paper's weights at 10 buyers: 1/objective = 1.6882267
    "certify_weak_n10": (["certify", "weak", "--n", "10", *W], ".json"),
    "certify_strong_1e6": (["certify", "strong", "--n", "1000000"], ".json"),
    "certify_weak_2e6": (["certify", "weak", "--n", "2000000", *W], ".json"),
    # the largest n either certificate takes (lp.CERT_CAP)
    "certify_weak_1e7": (["certify", "weak", "--n", "10000000", *W], ".json"),
    # several 16384-element sweep and verifier chunks, with n no whole
    # multiple of the chunk
    "certify_weak_100003": (["certify", "weak", "--n", "100003", *W],
                            ".json"),
    "certify_strong_65537": (["certify", "strong", "--n", "65537"], ".json"),
    # both breaks of the sweep at small n: j* = 2, j** = 1
    "certify_weak_n3_w2": (["certify", "weak", "--n", "3", "--w1", "0",
                            "--w2", "1"], ".json"),
    # rv is exactly zero, so beta breaks at j* = n - 1, just under the
    # first chunk edge
    "certify_weak_16385_w2zero": (["certify", "weak", "--n", "16385",
                                   "--w1", "1", "--w2", "0"], ".json"),
    # n is exactly one sweep and verifier chunk
    "certify_strong_16384": (["certify", "strong", "--n", "16384"], ".json"),
    # j* = 32771 and j** = 17056: each stretch crosses a chunk edge, and
    # the one-family stretch reads ru alone
    "certify_weak_49157_w1zero": (["certify", "weak", "--n", "49157",
                                   "--w1", "0", "--w2", "1"], ".json"),
    "lp_weak_n30": (["lp", "solve", "--which", "weak", "--n", "30"], ".json"),
    # one buyer: no second buyer, so no rank-2 chance in the welfare rows
    "lp_weak_n1": (["lp", "solve", "--which", "weak", "--n", "1"], ".json"),
    "lp_strong_n40": (["lp", "solve", "--which", "strong", "--n", "40"],
                      ".json"),
    "optimize_upper": (["optimize", "thresholds", "--objective", "upper"],
                       ".json"),
    "optimize_lowerfamily": (["optimize", "thresholds", "--objective",
                              "lowerfamily"], ".json"),
    **{f"simulate_{policy}_spike100":
       (_simulate(policy, "spike:n=100", 20000), ".json")
       for policy in ("alg1", "alg2", "alg3", "secretary-baseline")},
    # the benchmark's n = 10 ops at 200000 trials: 13 blocks whose first
    # round covers the whole width
    **{f"simulate_{policy}_n10": (_simulate(policy, spec, 200000), ".json")
       for policy, spec in (("alg1", "seller_spike:n=10"),
                            ("alg2", "flat_k:n=10,k=3"),
                            ("alg3", "spike:n=10"),
                            ("secretary-baseline", "geometric:n=10,r=0.5"))},
    # 13 blocks on 2 threads, each reusing its workspace across blocks:
    # the bytes of simulate_alg2_n10
    "simulate_alg2_n10_workers2": (
        _simulate("alg2", "flat_k:n=10,k=3", 200000, "--workers", "2"),
        ".json"),
    "simulate_alg1_mixed_tie": (_simulate("alg1", MIXED_TIE, 20000), ".json"),
    "simulate_alg2_rational_tie": (_simulate("alg2", RATIONAL_TIE, 20000),
                                   ".json"),
    "oracle_weakopt_rational_tie": (["oracle", "weakopt", "--instance",
                                     RATIONAL_TIE], ".json"),
    "oracle_alg2_rational_tie": (["oracle", "alg2", "--instance",
                                  RATIONAL_TIE], ".json"),
    "oracle_alg2_k8_n6": (["oracle", "alg2", "--instance", K8_N6], ".json"),
    "oracle_weakopt_n7_nondyadic": (["oracle", "weakopt", "--instance",
                                     NONDYADIC_N7], ".json"),
    "oracle_alg2_n6_nondyadic": (["oracle", "alg2", "--instance",
                                  NONDYADIC_N6], ".json"),
    "oracle_alg2_float_seller": (["oracle", "alg2", "--instance",
                                  FLOAT_SELLER], ".json"),
    "simulate_alg2_seller_spike_1e5": (
        _simulate("alg2", "seller_spike:n=100000", 256), ".json"),
    # float buyers and an int seller: the float64 price array at n = 1e5
    "simulate_alg1_geometric_1e5": (
        _simulate("alg1", "geometric:n=100000,r=0.99999", 256), ".json"),
    "simulate_alg3_spike100_workers2": (
        _simulate("alg3", "spike:n=100", 20000, "--workers", "2"), ".json"),
    # n = 1000 takes the 32 -> 256 -> 2048-column rescans of both ranks
    **{f"simulate_{policy}_geometric1000":
       (_simulate(policy, "geometric:n=1000,r=0.99", 2000), ".json")
       for policy in ("alg3", "secretary-baseline")},
    # a scattered strength prefix and a key whose high word is 1 (seed
    # 2**64 + 5)
    "simulate_alg1_scattered4000": (
        ["simulate", "--policy", "alg1", "--instance", SCATTERED_4000,
         "--trials", "3000", "--seed", str(2**64 + 5)], ".json"),
    # the seller's uniform inside a trial's head, after it, and tails read
    # by the rescans of a zero-price seller's instance
    "simulate_alg1_paid_head_1000": (_simulate("alg1", PAID_1000[5], 20000),
                                     ".json"),
    "simulate_alg2_paid_below_head_1000": (
        _simulate("alg2", PAID_1000[40], 20000), ".json"),
    "simulate_alg3_spike300": (_simulate("alg3", "spike:n=300", 20000),
                               ".json"),
    # both alg3 floors at an edge: at 0 each rank sells from the seller's
    # arrival on, at 1/2 both ranks wait for the same time
    **{f"simulate_alg3_spike100_floors_{name}": (
        ["simulate", "--policy", "alg3", "--instance", "spike:n=100",
         "--trials", "20000", "--seed", "1", "--t1", t, "--t2", t], ".json")
       for name, t in (("zero", "0"), ("half", "0.5"))},
    # the baseline ranks the buyers alone past a paid seller inside the
    # head, past one after it, and at n = 10 with the seller mid-order
    "simulate_baseline_paid_head_1000": (
        _simulate("secretary-baseline", PAID_1000[5], 20000), ".json"),
    "simulate_baseline_paid_below_head_1000": (
        _simulate("secretary-baseline", PAID_1000[40], 20000), ".json"),
    "simulate_baseline_paid_n10": (
        _simulate("secretary-baseline", PAID_N10, 200000), ".json"),
    # non-dyadic prices over several blocks: the partition of trials into
    # blocks fixes the order of the second-moment sums
    "simulate_baseline_geometric1000_20k": (
        _simulate("secretary-baseline", "geometric:n=1000,r=0.99", 20000),
        ".json"),
    # 13 blocks of non-dyadic moment sums on 2 threads: plain addition in
    # place of the compensated fold across blocks moves se_weak here
    "simulate_alg2_geometric10_200k_workers2": (
        _simulate("alg2", "geometric:n=10,r=0.9", 200000, "--workers", "2"),
        ".json"),
    # exact Fraction prices r**0, ..., r**199 with r = 1/3, so the way the
    # family builds its powers moves no byte
    "simulate_alg1_geometric200_fraction": (
        _simulate("alg1", "geometric:n=200,r=1/3", 2000), ".json"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dest", type=Path)
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args(argv)
    # each command runs inside DEST, so a relative DEST must not be
    # resolved a second time against itself
    args.dest = args.dest.resolve()
    args.dest.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    failed = []
    for name, (cmd, suffix) in COMMANDS.items():
        out = args.dest / f"{name}{suffix}"
        proc = subprocess.run(
            [sys.executable, "-m", "sectrade.cli", *cmd, "--out", str(out)],
            capture_output=True, env=env, cwd=args.dest)
        if out.exists():
            out.replace(args.dest / f"{name}.out")
        (args.dest / f"{name}.stdout").write_bytes(proc.stdout)
        (args.dest / f"{name}.stderr").write_bytes(proc.stderr)
        (args.dest / f"{name}.code").write_text(f"{proc.returncode}\n")
        if proc.returncode:
            failed.append(name)
    print(f"{len(COMMANDS)} commands, {len(failed)} failed"
          + (f": {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
