"""The benchmark's name contract: ``bench/`` reads the package by name.

The tracer wraps package functions under the names their callers bind,
and the workloads call library functions and read result attributes, so a
rename in the package breaks the benchmark.  These tests read ``bench/``
without editing it: they install and restore the tracer and build every
workload's op list.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_tracer_patches_every_name_and_restores_it(bench):
    tracer = bench("tracer").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


@pytest.mark.parametrize("name", ["mc_small_n", "mc_large_n", "exact", "lp"])
def test_workload_op_list_builds(bench, tmp_path, name):
    workloads = bench("workloads")
    workloads.write_instances(name, 1, tmp_path)
    ops = workloads.BUILDERS[name](1, tmp_path, 1)
    assert ops
    for op in ops:
        assert (op.argv is None) != (op.call is None), op.name
