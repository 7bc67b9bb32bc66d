"""One workload in one fresh process; started by run.py, not by hand.

Set-up (import, instance files, one untimed warm-up op) ends with the
line ``ready`` on stdout, so the parent can time the process from spawn
to first op ready.  With ``--probe`` the process exits there.  Otherwise
it computes the gates' references, runs passes over the op list until
``--seconds`` have passed, and writes ``result.json`` to ``--workdir``.

With ``--trace 1`` untraced and traced passes alternate; the traced
passes give the per-layer metrics and the difference between the two
kinds is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_memory(trim) -> None:
    """Collect garbage and return freed heap pages to the OS, so an op's
    peak memory does not depend on what pool threads of earlier ops kept."""
    gc.collect()
    if trim is not None:
        trim(0)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def run_op(cli, op, workdir: Path, tracer=None):
    """Run one op; returns (seconds, result, raw bytes, error or None)."""
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    span = (tracer.span("op", op.name) if tracer is not None
            else contextlib.nullcontext())
    result = raw = None
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            if op.call is not None:
                result = op.call()
            else:
                code = cli.main(op.argv + ["--out", str(out)])
                if code != 0:
                    error = f"exit code {code}: {sink.getvalue()[-300:]!r}"
    except Exception:  # an op that raises counts as failed, the run goes on
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if error is None and op.call is None:
        try:
            raw = out.read_bytes()
            result = json.loads(raw)
        except (OSError, ValueError) as exc:
            error = f"unreadable --out file: {exc}"
    return elapsed, result, raw, error


def run_pass(cli, ops, workdir: Path, tracer=None) -> dict:
    trim = malloc_trim()
    done = {}
    times = {}
    failures = []
    for op in ops:
        release_memory(trim)
        if tracer is not None:
            tracer.op = op.name
        elapsed, result, raw, error = run_op(cli, op, workdir, tracer)
        times[op.name] = elapsed
        if error is None:
            try:
                op.check(result, raw, done)
            except Exception as exc:  # a crashing gate is a failed gate
                error = f"{type(exc).__name__}: {exc}"
        if error is None:
            done[op.name] = (result, raw)
        else:
            failures.append({"op": op.name, "error": error})
    if tracer is not None:
        tracer.op = None
    trials = sum(op.trials for op in ops)
    sim_s = sum(times[op.name] for op in ops if op.trials)
    return {"wall_s": sum(times.values()), "op_s": times,
            "failures": failures,
            "trials_per_s": trials / sim_s if sim_s else 0.0}


def main(argv=None) -> int:
    args = parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    import numpy
    import sectrade
    import sectrade.cli as cli
    if args.src.resolve() not in Path(sectrade.__file__).resolve().parents:
        print(f"sectrade was imported from {sectrade.__file__}, "
              f"not from {args.src}", file=sys.stderr)
        return 2
    import workloads
    workloads.write_instances(args.workload, args.seed, args.workdir)
    warmup = workloads.Op("warm-up", check=None,
                          argv=workloads.WARMUP[args.workload])
    _, _, _, error = run_op(cli, warmup, args.workdir)
    if error is not None:
        print(f"warm-up failed: {error}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.probe:
        return 0

    ops = workloads.BUILDERS[args.workload](args.seed, args.workdir, args.nproc)
    plain, traced, layers = [], [], []
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics, write_spans
        tracer = Tracer()
        spans = []
    # the first pass of a process runs cold; in a traced run it is kept out
    # of the traced-minus-untraced comparison
    cold = [run_pass(cli, ops, args.workdir)] if tracer is not None else []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(run_pass(cli, ops, args.workdir))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, ops, args.workdir, tracer))
            finally:
                tracer.restore()
            pass_spans, counts, maxima = tracer.take()
            layers.append(layer_metrics(pass_spans, counts, maxima))
            spans.extend(pass_spans)
        if time.perf_counter() >= deadline:
            break

    result = {
        "cold": cold,
        "plain": plain,
        "traced": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "block_bytes_computed": {
            op.name: workloads.block_bytes_computed(op.argv[op.argv.index("--instance") + 1])
            for op in ops if op.trials},
        "thread_pair": list(workloads.THREAD_PAIR),
        "active_layers": sorted(workloads.ACTIVE_LAYERS[args.workload]),
    }
    if tracer is not None:
        write_spans(args.workdir / "spans.jsonl", spans)
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
