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


def _simulate(policy, spec, trials, *extra):
    argv = ["simulate", "--policy", policy, "--instance", spec,
            "--trials", str(trials), "--seed", "1", *extra]
    return argv + TH if policy == "alg3" else argv


# name -> (argv, suffix of the --out file the command is given)
COMMANDS = {
    "report_constants": (["report", "constants"], ".json"),
    "exact_delta_mu5": (["exact", "delta", "--mu", "5"], ".json"),
    "exact_limits": (["exact", "limits"], ".json"),
    "exact_alg3_n1000": (["exact", "alg3", "--n", "1000", *TH], ".json"),
    "exact_alg3_n50_csv": (["exact", "alg3", "--n", "50", *TH], ".csv"),
    "exact_alg3_i3": (["exact", "alg3", "--n", "1000", "--i", "3", *TH],
                      ".json"),
    "certify_strong_2e6": (["certify", "strong", "--n", "2000000"], ".json"),
    "certify_weak_2e6": (["certify", "weak", "--n", "2000000", *W], ".json"),
    "lp_weak_n30": (["lp", "solve", "--which", "weak", "--n", "30"], ".json"),
    "lp_strong_n40": (["lp", "solve", "--which", "strong", "--n", "40"],
                      ".json"),
    "optimize_upper": (["optimize", "thresholds", "--objective", "upper"],
                       ".json"),
    "optimize_lowerfamily": (["optimize", "thresholds", "--objective",
                              "lowerfamily"], ".json"),
    **{f"simulate_{policy}_spike100":
       (_simulate(policy, "spike:n=100", 20000), ".json")
       for policy in ("alg1", "alg2", "alg3", "secretary-baseline")},
    "simulate_alg1_mixed_tie": (_simulate("alg1", MIXED_TIE, 20000), ".json"),
    "simulate_alg2_rational_tie": (_simulate("alg2", RATIONAL_TIE, 20000),
                                   ".json"),
    "oracle_weakopt_rational_tie": (["oracle", "weakopt", "--instance",
                                     RATIONAL_TIE], ".json"),
    "oracle_alg2_rational_tie": (["oracle", "alg2", "--instance",
                                  RATIONAL_TIE], ".json"),
    "simulate_alg2_seller_spike_1e5": (
        _simulate("alg2", "seller_spike:n=100000", 256), ".json"),
    "simulate_alg3_spike100_workers2": (
        _simulate("alg3", "spike:n=100", 20000, "--workers", "2"), ".json"),
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
