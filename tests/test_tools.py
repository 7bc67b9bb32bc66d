import filecmp
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "out_bytes.py"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_out_bytes():
    return load_tool("out_bytes")


def test_out_bytes_relative_dest(tmp_path, monkeypatch):
    out_bytes = load_out_bytes()
    monkeypatch.setattr(out_bytes, "COMMANDS",
                        {"exact_limits": (["exact", "limits"], ".json")})
    monkeypatch.chdir(tmp_path)
    assert out_bytes.main(["rel"]) == 0
    assert (tmp_path / "rel" / "exact_limits.out").read_text().startswith("{")
    assert (tmp_path / "rel" / "exact_limits.code").read_text() == "0\n"


def test_readme_counts_the_commands():
    readme = (ROOT / "README.md").read_text()
    counts = re.findall(r"fixed list of (\d+)\s+commands", readme)
    assert counts == [str(len(load_out_bytes().COMMANDS))]


def _openblas_x86_64():
    try:  # numpy < 1.26 has no CONFIG
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.lower())


# glibc's own selection of the routines of a host without FMA (masking
# either feature alone already switches its scalar pow)
NO_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA"
# host emulations whose --out bytes must match the default run's
EMULATIONS = {"Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
              "Nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
              "no-FMA glibc": {"GLIBC_TUNABLES": NO_FMA},
              "Nehalem, no-FMA glibc": {"OPENBLAS_CORETYPE": "Nehalem",
                                        "GLIBC_TUNABLES": NO_FMA}}


def _no_fma_moves_pow():
    """Whether ``GLIBC_TUNABLES=NO_FMA`` changes libm ``pow`` in a child
    process: on an x86-64 glibc host with FMA, and nowhere else."""
    probe = [sys.executable, "-c", "print([0.99 ** i for i in range(1000)])"]
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
    default, no_fma = (subprocess.run(probe, capture_output=True, check=True,
                                      env={**env, **extra}).stdout
                       for extra in ({}, {"GLIBC_TUNABLES": NO_FMA}))
    return default != no_fma


@pytest.mark.skipif(not _openblas_x86_64(),
                    reason="OPENBLAS_CORETYPE picks a kernel only in an "
                           "x86-64 OpenBLAS build")
def test_out_bytes_survive_the_blas_kernel(tmp_path, monkeypatch):
    """The bytes of a certificate, an alg3 table, a delta quadrature, a
    primal residual and a simulate on float geometric prices do not depend
    on the host: with OpenBLAS's AVX2 (Haswell) or SSE4 (Nehalem) kernel,
    with glibc's no-FMA routines, and with both, they match the default
    run.  Where the glibc setting does not change ``pow``, its cases would
    pass without testing anything, so they are skipped."""
    out_bytes = load_out_bytes()
    names = ("certify_weak_n3_w2", "exact_delta_mu1000",
             "exact_alg3_n50_family", "lp_weak_n30",
             "simulate_baseline_geometric1000_20k")
    monkeypatch.setattr(out_bytes, "COMMANDS",
                        {name: out_bytes.COMMANDS[name] for name in names})
    for var in ("OPENBLAS_CORETYPE", "GLIBC_TUNABLES"):
        monkeypatch.delenv(var, raising=False)
    glibc = _no_fma_moves_pow()
    assert out_bytes.main([str(tmp_path / "default")]) == 0
    files = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert len(files) == 4 * len(names)
    for host, env in EMULATIONS.items():
        if "GLIBC_TUNABLES" in env and not glibc:
            continue
        with monkeypatch.context() as m:
            for var, value in env.items():
                m.setenv(var, value)
            assert out_bytes.main([str(tmp_path / host)]) == 0
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "default", tmp_path / host, files, shallow=False)
        assert (mismatch, errors) == ([], []), host
    if not glibc:
        pytest.skip(f"GLIBC_TUNABLES={NO_FMA} leaves libm pow as it is on "
                    "this host (not x86-64 glibc, or no FMA), so only the "
                    "OpenBLAS kernels were checked")


def _report(mean_w, se_w, ratio=2.0, ratio_se=0.1):
    return json.dumps({"mean_alg_welfare": mean_w, "se_alg": se_w,
                       "mean_weak_opt": 2.0, "se_weak": 0.1,
                       "ratio_weak": ratio, "ratio_weak_se": ratio_se})


@pytest.mark.parametrize("before,after,code,distance", [
    # moved by 3 and by 4.5 combined SE: hypot(0.3, 0.4) = 0.5
    (_report(0.0, 0.3), _report(1.5, 0.4), 0, "3.000 SE (mean_alg_welfare)"),
    (_report(1.0, 0.4, 2.0, 0.3), _report(1.0, 0.4, 4.25, 0.4), 1,
     "4.500 SE (ratio_weak)"),
    # zero standard errors and equal values, in another byte layout
    (_report(1.0, 0.0, 2.0, 0.0), _report(1.0, 0.0, 2.0, 0.0) + "\n", 0,
     "0.000 SE (mean_alg_welfare)"),
])
def test_se_distance(tmp_path, capsys, before, after, code, distance):
    se_distance = load_tool("se_distance")
    for side, report in (("before", before), ("after", after)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "simulate_a.out").write_text(report)
        (tmp_path / side / "simulate_b.out").write_text(_report(1.0, 0.5))
        (tmp_path / side / "exact_c.out").write_text(side)  # not simulate
    assert se_distance.main([str(tmp_path / "before"),
                             str(tmp_path / "after")]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"simulate_a: {distance}"]
    assert lines[-1].startswith("1 simulate outputs moved")
