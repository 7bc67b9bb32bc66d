"""Benchmark of the sectrade CLI: four workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_small_n --seed 1 --seconds 20 --trace 0

Workloads: mc_small_n, mc_large_n, exact, lp (see bench/workloads.py).
Each run starts fresh worker processes (bench/worker.py) that import the
package from ``src/`` of the checkout, with BLAS and OpenMP pools held to
one thread so the only parallelism is the CLI's own ``--workers``.

``--trace 0`` reports the end-to-end metrics (tracing off):

* ``wall_s``       median over passes of one pass over the op list
* ``setup_s``      median over seven fresh processes of spawn to first op
                   ready (import, instance files, one untimed warm-up op)
* ``peak_rss_mb``  ``ru_maxrss`` of the measuring process

``--trace 1`` reports the per-layer metrics of bench/tracer.py from
traced passes, the tracing overhead, and a self-check: every layer the
workload exercises must read non-zero and every other layer zero.

Human-readable lines, a ``detail`` JSON line (seed, machine facts, per-op
times, trials/s, fail fraction, spreads) and finally one JSON result line
go to stdout.  The run exits 2 when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc_small_n", "mc_large_n", "exact", "lp")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(BENCH))
from tracer import LAYER_METRICS  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cache_bytes() -> dict:
    """Data-cache sizes by level, in bytes, as the kernel reports them."""
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"l{level}_bytes"] = int(size.rstrip("KMG")) * units.get(size[-1], 1)
    return sizes


def machine_facts() -> dict:
    return {
        "nproc": nproc(),
        "cpu": platform.processor() or platform.machine(),
        "l2_bytes": None, "l3_bytes": None, **cache_bytes(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }


class Worker:
    """One worker process; ``setup_s`` is spawn to its ``ready`` line."""

    def __init__(self, args, workdir: Path, probe: bool, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--src", str(SRC),
               "--nproc", str(nproc())]
        if probe:
            cmd.append("--probe")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                     self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0 if line.strip() == "ready" else None

    def finish(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait()
        finally:
            self.stop()

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def median(values):
    return statistics.median(values) if values else 0.0


def rel_spread(values) -> float:
    """(max - min) / median of a run's pass values."""
    mid = median(values)
    return (max(values) - min(values)) / mid if len(values) > 1 and mid else 0.0


def layer_report(workload: str, result: dict, problems: list) -> dict:
    """Median per-layer metrics over the traced passes, plus the
    self-check of which layers fired."""
    layers = result["layers"]
    metrics = {name: median([p[name] for p in layers])
               for name in layers[0]}
    plain = result["plain"]
    metrics["cli.failed"] = median([len(p["failures"]) for p in result["traced"]])
    metrics["trace.overhead_s"] = (median([p["wall_s"] for p in result["traced"]])
                                   - median([p["wall_s"] for p in plain]))
    w1, w2 = result["thread_pair"]
    pairs = [(p["op_s"][w1], p["op_s"][w2]) for p in plain
             if w1 in p["op_s"] and w2 in p["op_s"]]
    metrics["simulate.thread_base_s"] = median([a for a, _ in pairs])
    metrics["simulate.thread_speedup"] = median([a / b for a, b in pairs])

    active = set(result["active_layers"])
    for name in LAYER_METRICS:
        layer = name.split(".")[0]
        if layer == "trace" or name == "cli.failed":
            continue
        expect = layer in active
        if name.startswith("simulate.thread_"):
            expect = bool(pairs)
        if expect and metrics[name] == 0:
            problems.append(f"self-check: {name} is 0 on {workload}, "
                            f"but the {layer} layer should be active")
        if not expect and metrics[name] != 0:
            problems.append(f"self-check: {name} = {metrics[name]} on "
                            f"{workload}, but it should be idle")
    return {name: metrics[name] for name in LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sectrade" / "cli.py").is_file():
        print(f"no package to benchmark: {SRC / 'sectrade'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups = []
    try:
        probes = SETUP_SAMPLES - 1 if args.trace == 0 else 0
        for _ in range(probes):
            probe = Worker(args, workdir, probe=True, deadline=deadline)
            if probe.finish() != 0 or probe.setup_s is None:
                print("set-up probe failed", file=sys.stderr)
                return 1
            setups.append(probe.setup_s)
        worker = Worker(args, workdir, probe=False, deadline=deadline)
        code = worker.finish()
        if code != 0 or worker.setup_s is None:
            print(f"worker failed with exit code {code}", file=sys.stderr)
            return 1
        setups.append(worker.setup_s)
        result = json.loads((workdir / "result.json").read_text())
        if args.trace:
            shutil.move(workdir / "spans.jsonl",
                        OUT / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["cold"] + result["plain"] + result["traced"]
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = [f"{f['op']}: {f['error']}" for f in failures]
    walls = [p["wall_s"] for p in result["plain"]]
    op_names = list(result["plain"][0]["op_s"])
    facts = machine_facts()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": dict(facts, python=result["python"], numpy=result["numpy"]),
        "block_bytes_vs_l3": {
            name: {"block_bytes_computed": size, "l3_bytes": facts["l3_bytes"]}
            for name, size in result["block_bytes_computed"].items()},
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_wall_spread": rel_spread(walls),
        "op_median_s": {name: median([p["op_s"][name] for p in result["plain"]])
                        for name in op_names},
        "trials_per_s": median([p["trials_per_s"] for p in result["plain"]]),
        "fail_frac": len(failures) / attempted,
        "setup_samples_s": setups,
    }

    if args.trace:
        metrics = layer_report(args.workload, result, problems)
        units = LAYER_METRICS
    else:
        metrics = {"wall_s": median(walls), "setup_s": median(setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}  nproc {facts['nproc']}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    if args.workload.startswith("mc_"):
        print(f"  {'trials_per_s':<30} {detail['trials_per_s']:>16.6g} trials/s")
        for name, size in result["block_bytes_computed"].items():
            print(f"  block array of {name!r}: {size} bytes (computed), "
                  f"L3 {facts['l3_bytes']} bytes")
    print(f"  {'fail_frac':<30} {detail['fail_frac']:>16.6g} ratio")
    for problem in problems:
        print(f"  FAIL {problem}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
