import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectrade.cli import build_parser, main
from sectrade.lp import CERT_CAP
from sectrade.model import FAMILY_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_limits(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "limits")
        assert code == 0
        assert "3.523188312" in out
        assert "0.283833821" in out

    def test_limits_out_file(self, capsys, tmp_path):
        path = tmp_path / "limits.json"
        code, _, _ = run_cli(capsys, "exact", "limits", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["agreement"] < 1e-9

    def test_delta(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "delta", "--mu", "1")
        assert code == 0
        assert "delta=0.364664717" in out

    def test_delta_invalid_mu(self, capsys):
        code, _, err = run_cli(capsys, "exact", "delta", "--mu", "0")
        assert code == 2

    def test_alg3_single_rank(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "alg3", "--n", "5",
                               "--t1", "0.296151", "--t2", "0.805018",
                               "--i", "1")
        assert code == 0
        assert "p_i=" in out

    def test_alg3_zero_buyers(self, capsys):
        code, out, err = run_cli(capsys, "exact", "alg3", "--n", "0",
                                 "--t1", "0.3", "--t2", "0.8")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_alg3_table_csv(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "exact", "alg3", "--n", "4",
                               "--t1", "0.296151", "--t2", "0.805018",
                               "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("i,p_i,f_i")

    def test_alg3_single_rank_refuses_csv(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "exact", "alg3", "--i", "2",
                                 "--n", "4", "--t1", "0.3", "--t2", "0.8",
                                 "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not path.exists()

    def test_alg3_table_over_cap_allocates_nothing(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "exact", "alg3", "--n", "100001",
                                     "--t1", "0.3", "--t2", "0.8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "capped" in err
        assert peak < 2 ** 20

    def test_alg3_single_rank_has_no_cap(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "alg3", "--n", "10000000",
                               "--i", "1", "--t1", "0.3", "--t2", "0.8")
        assert code == 0
        assert out.startswith("i=1 n=10000000:")


class TestSimulate:
    def test_family_spec_and_out(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "simulate", "--policy", "alg2",
                               "--instance", "seller_spike:n=6",
                               "--trials", "20000", "--seed", "5",
                               "--workers", "2", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["trials"] == 20000
        assert abs(doc["ratio_weak"] - 2.0) < 0.1

    def test_out_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, workers in zip(paths, ("1", "8")):
            code, _, _ = run_cli(capsys, "simulate", "--policy", "alg1",
                                 "--instance", "spike:n=4",
                                 "--trials", "30000", "--seed", "9",
                                 "--workers", workers, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_instance_file(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(
            {"buyer_prices": [1.0, 0.4], "seller_price": 0.2}))
        code, out, _ = run_cli(capsys, "simulate", "--policy", "alg1",
                               "--instance", str(inst), "--trials", "5000",
                               "--seed", "1")
        assert code == 0
        assert "ratio_weak" in out

    def test_alg3_threshold_flags(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--policy", "alg3",
                               "--instance", "spike:n=5",
                               "--trials", "5000", "--seed", "2",
                               "--t1", "0.3", "--t2", "0.8")
        assert code == 0

    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--policy", "alg1",
                               "--instance", "/nonexistent.json",
                               "--trials", "10", "--seed", "1")
        assert code == 2
        assert "error" in err

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--policy", "alg1",
                                 "--instance", "spike:n=3",
                                 "--trials", "10", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "seed" in err and "key" not in err

    def test_overflowing_welfare_is_numeric_failure(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "simulate", "--policy", "alg1", "--instance",
            json.dumps({"buyer_prices": [1e308, 1e308], "seller_price": 0}),
            "--trials", "100", "--seed", "1", "--out", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:") and "sum_w" in err
        assert not path.exists()

    def test_huge_finite_welfare_succeeds(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "simulate", "--policy", "alg1", "--instance",
            json.dumps({"buyer_prices": [1e100, 1e99], "seller_price": 0}),
            "--trials", "100", "--seed", "1", "--out", str(path))
        assert code == 0
        assert err == ""
        assert math.isfinite(json.loads(path.read_text())["ratio_weak_se"])

    @pytest.mark.parametrize("instance,message", [
        ("geometric:n=3,r=1/0", "zero denominator"),
        (json.dumps({"buyer_prices": [1, 2], "seller_price": "1/0"}),
         "zero denominator"),
        ("spike:n=3,zz=1", "unknown parameter zz"),
        ("flat_k:n=3", "needs parameter k"),
        ("spike:n=5,n=6", "repeated family parameter 'n'"),
        ("flat_k:k=2,n=5,k=3", "repeated family parameter 'k'"),
        *((json.dumps({"buyer_prices": prices, "seller_price": 0}),
           '"buyer_prices" is a list') for prices in (5, "12", None)),
        ("[1, 2]", '"buyer_prices" is a list'),
    ])
    def test_malformed_instance(self, capsys, instance, message):
        code, out, err = run_cli(capsys, "simulate", "--policy", "alg1",
                                 "--instance", instance,
                                 "--trials", "10", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("flags", [["--t1", "0.2"], ["--t1", "0.9"],
                                       ["--t2", "0.5"]])
    def test_thresholds_only_for_alg3(self, capsys, flags):
        code, out, err = run_cli(capsys, "simulate", "--policy", "alg1",
                                 "--instance", "spike:n=5",
                                 "--trials", "10", "--seed", "1", *flags)
        assert code == 2
        assert out == ""
        assert err == "error: --t1/--t2 apply only to --policy alg3\n"


class TestCertify:
    def test_strong(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "certify", "strong", "--n", "1000",
                               "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["min_residuals"]["dual"] >= -1e-12

    def test_weak(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "weak", "--n", "10000",
                               "--w1", "0.970659", "--w2", "0.029341")
        assert code == 0
        assert "objective=0.567" in out

    def test_weak_bad_weights(self, capsys):
        code, _, err = run_cli(capsys, "certify", "weak", "--n", "100",
                               "--w1", "0.9", "--w2", "0.2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["strong", "--n", "100"],
        ["weak", "--n", "100", "--w1", "0.970659", "--w2", "0.029341"],
    ])
    def test_refused_certificate_exits_3(self, capsys, tmp_path, monkeypatch,
                                         argv):
        from sectrade.lp import verify_dual_feasibility
        monkeypatch.setattr(
            "sectrade.lp.verify_dual_feasibility", lambda z, rhs:
            verify_dual_feasibility(z, tuple(r + 1e-9 for r in rhs)))
        path = tmp_path / "cert.json"
        code, out, err = run_cli(capsys, "certify", *argv, "--out", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:") and "infeasible" in err
        assert not path.exists()

    def test_weak_nan_weights(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, err = run_cli(capsys, "certify", "weak", "--n", "10",
                                 "--w1", "nan", "--w2", "nan",
                                 "--out", str(path))
        assert code == 2
        assert "finite" in err
        assert not path.exists()


class TestLpSolve:
    def test_strong(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "solve", "--which", "strong",
                               "--n", "4")
        assert code == 0
        assert "optimum" in out

    def test_weak_n1(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "solve", "--which", "weak",
                               "--n", "1")
        assert code == 0
        assert "0.75" in out

    def test_pivots_on_stderr_only(self, capsys, tmp_path):
        path = tmp_path / "lp.json"
        code, out, err = run_cli(capsys, "lp", "solve", "--which", "weak",
                                 "--n", "3", "--out", str(path))
        assert code == 0
        assert "pivots=" in err and "pivots" not in out
        assert set(json.loads(path.read_text())) == {
            "which", "n", "objective", "max_violation", "A"}

    def test_over_cap(self, capsys):
        code, _, err = run_cli(capsys, "lp", "solve", "--which", "strong",
                               "--n", "100")
        assert code == 2


class TestOptimize:
    def test_upper(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "thresholds",
                               "--objective", "upper", "--grid", "0.005")
        assert code == 0
        assert "value=1.8368" in out

    def test_lowerfamily(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "thresholds",
                               "--objective", "lowerfamily", "--grid", "0.005")
        assert code == 0
        assert "value=1.7623" in out

    @pytest.mark.parametrize("grid", ["0", "-0.5", "nan", "inf", "1.5", "1e-5"])
    def test_bad_grid(self, capsys, grid):
        code, out, err = run_cli(capsys, "optimize", "thresholds",
                                 "--objective", "upper", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "grid_step" in err


class TestOracle:
    def test_weakopt_fractions(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(
            {"buyer_prices": ["1", "1/2"], "seller_price": "1/4"}))
        code, out, _ = run_cli(capsys, "oracle", "weakopt",
                               "--instance", str(inst))
        assert code == 0
        assert "2/3" in out

    def test_alg2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "alg2",
                               "--instance", "spike:n=3")
        assert code == 0
        assert "1/4" in out

    def test_cap_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "alg2",
                               "--instance", "spike:n=7")
        assert code == 2

    def test_inline_json_list(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "weakopt",
                                 "--instance", "[1, 2]")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and '"buyer_prices" is a list' in err

    @pytest.mark.parametrize("doc", [
        [1, 2], None, "x", {"buyer_prices": None, "seller_price": 0},
    ])
    def test_malformed_instance_file(self, capsys, tmp_path, doc):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "oracle", "weakopt",
                                 "--instance", str(inst))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestReportConstants:
    def test_table(self, capsys, tmp_path):
        path = tmp_path / "constants.json"
        code, out, _ = run_cli(capsys, "report", "constants",
                               "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        for name, row in doc.items():
            tol = 5e-4 if "0.567411" not in name else 1e-3
            assert abs(row["computed"] - row["target"]) < max(
                tol, abs(row["target"]) * 2e-4), name


_TH = ["--t1", "0.296151", "--t2", "0.805018"]
_LEAVES = {
    "simulate": ["simulate", "--policy", "alg1", "--instance", "spike:n=3",
                 "--trials", "10", "--seed", "1"],
    "exact delta": ["exact", "delta", "--mu", "1"],
    "exact alg3": ["exact", "alg3", "--n", "4", *_TH],
    "exact alg3 --i": ["exact", "alg3", "--n", "4", "--i", "2", *_TH],
    "exact limits": ["exact", "limits"],
    "certify strong": ["certify", "strong", "--n", "10"],
    "certify weak": ["certify", "weak", "--n", "10",
                     "--w1", "0.970659", "--w2", "0.029341"],
    "lp solve": ["lp", "solve", "--which", "weak", "--n", "2"],
    "optimize thresholds": ["optimize", "thresholds", "--objective", "upper",
                            "--grid", "0.25"],
    "oracle weakopt": ["oracle", "weakopt", "--instance", "spike:n=3"],
    "oracle alg2": ["oracle", "alg2", "--instance", "spike:n=3"],
    "report constants": ["report", "constants"],
}


class TestOut:
    @pytest.mark.parametrize("leaf", list(_LEAVES))
    def test_writes_json_object(self, capsys, tmp_path, leaf):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, *_LEAVES[leaf], "--out", str(path))
        assert code == 0
        assert out
        assert isinstance(json.loads(path.read_text()), dict)

    @pytest.mark.parametrize("leaf,name", [
        *((leaf, "out.json") for leaf in _LEAVES), ("exact alg3", "t.csv")])
    def test_missing_directory_exits_2(self, capsys, tmp_path, leaf, name):
        path = tmp_path / "missing" / name
        code, out, err = run_cli(capsys, *_LEAVES[leaf], "--out", str(path))
        assert code == 2
        # the summary is printed before the payload is written
        assert out
        assert err.splitlines()[-1].startswith("error:")
        assert not path.parent.exists()


class TestExitCodes:
    def test_numeric_failure_maps_to_three(self, capsys, monkeypatch):
        from sectrade import cli
        from sectrade.errors import NumericError

        def boom(mu):
            raise NumericError("synthetic non-convergence")

        monkeypatch.setattr(cli.exact, "delta_mu", boom)
        code, _, err = run_cli(capsys, "exact", "delta", "--mu", "2")
        assert code == 3
        assert "numeric failure" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out


class TestSizeCaps:
    @pytest.mark.parametrize("argv", [
        ["certify", "strong", "--n", str(CERT_CAP + 1)],
        ["certify", "weak", "--n", str(CERT_CAP + 1), "--w1", "1", "--w2", "0"],
        ["simulate", "--policy", "alg1", "--instance",
         f"spike:n={FAMILY_CAP + 1}", "--trials", "1", "--seed", "1"],
    ])
    def test_over_cap_allocates_nothing(self, capsys, argv):
        assert CERT_CAP == FAMILY_CAP == 10 ** 7
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "capped" in err
        assert peak < 2 ** 20


def _readme_commands() -> list:
    """The ``sectrade`` lines of the README's "Command line" bash block,
    continuations joined, comments and optional ``[...]`` groups dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.replace("\\\n", " ").splitlines():
        line = re.sub(r"\[[^]]*\]", "", line.split("#", 1)[0]).strip()
        if line.startswith("sectrade"):
            lines.append(shlex.split(line)[1:])
    return lines


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 13
    parser = build_parser()
    for tokens in commands:
        try:
            parser.parse_args(tokens)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(tokens)}")


# Bounded argv grammar for the fuzz: every size stays small enough that
# one example runs in milliseconds (n <= 8, trials <= 200, lp n <= 6,
# oracle instances n <= 4 or above the enumeration caps).
_BAD = ["-1", "0", "nan", "inf", "-inf", "1/0", "x", ""]
_UNIT = ["0", "0.3", "0.8", "1"]
_UNIT_BAD = ["-0.5", "1.5", "nan", "inf", "1/0", "x"]


def _family_spec(sizes):
    family = st.sampled_from(["spike", "flat_k", "seller_spike", "geometric",
                              "nosuch"])
    key = st.sampled_from(["n", "k", "r", "zz"])
    value = st.sampled_from(["1", "3", "1/2", "0.5"] + _BAD)
    params = st.lists(st.tuples(key, value), max_size=2).map(
        lambda kv: "".join(f",{k}={v}" for k, v in kv))
    return st.builds(lambda f, n, p: f"{f}:n={n}{p}", family,
                     st.sampled_from(sizes), params)


def _instance(sizes):
    price = st.sampled_from([0, 1, 0.5, -1, "1/2", "1/0", "x", None, True])
    doc = st.fixed_dictionaries(
        {"buyer_prices": st.lists(price, max_size=4), "seller_price": price})
    return st.one_of(
        _family_spec(sizes),
        doc.map(json.dumps),
        st.sampled_from(['{"buyer_prices": [1,', "{}", "[]", "[1, 2]",
                         "null", "spike:", "/nonexistent/inst.json",
                         '{"buyer_prices": 5, "seller_price": 0}',
                         '{"buyer_prices": "12", "seller_price": 0}',
                         '{"buyer_prices": null, "seller_price": 0}']))


def _flags(**choices):
    """``choices`` maps a flag to (good values, bad values).  A flag gets a
    good value seven times in ten, a bad one once, no value once, and is
    left out once."""
    def one(flag, good, bad):
        if isinstance(good, list):
            good = st.sampled_from(good)
        return st.tuples(st.integers(0, 9), good, st.sampled_from(bad)).map(
            lambda d: [] if d[0] == 0 else [flag] if d[0] == 1
            else [flag, d[2]] if d[0] == 2 else [flag, d[1]])
    return st.tuples(*(one(f"--{k}", *v) for k, v in choices.items())).map(
        lambda parts: [tok for part in parts for tok in part])


_COMMANDS = st.one_of(
    st.tuples(st.just(["simulate"]), _flags(
        policy=(["alg1", "alg2", "alg3", "secretary-baseline"], ["nosuch"]),
        instance=(_instance(["1", "3", "8"]), ["", "spike:n=-1"]),
        trials=(["1", "50", "200"], _BAD),
        seed=(["0", "7"], [str(2**128)] + _BAD),
        workers=(["1", "2"], _BAD),
        t1=(_UNIT, _UNIT_BAD), t2=(_UNIT, _UNIT_BAD))),
    st.tuples(st.just(["exact", "delta"]), _flags(mu=(["1", "5", "8"], _BAD))),
    st.tuples(st.just(["exact", "alg3"]), _flags(
        n=(["1", "5", "8"], _BAD), t1=(_UNIT, _UNIT_BAD),
        t2=(_UNIT, _UNIT_BAD), i=(["1", "3", "9"], _BAD))),
    st.tuples(st.just(["exact", "limits"]), _flags()),
    st.tuples(st.just(["certify", "strong"]), _flags(n=(["1", "8"], _BAD))),
    st.tuples(st.just(["certify", "weak"]), _flags(
        n=(["1", "8"], _BAD), w1=(["0.9", "1"], _UNIT_BAD),
        w2=(["0.1", "0"], _UNIT_BAD))),
    st.tuples(st.just(["lp", "solve"]), _flags(
        which=(["strong", "weak"], ["nosuch"]),
        n=(["1", "3", "6"], ["61"] + _BAD))),
    st.tuples(st.just(["optimize", "thresholds"]), _flags(
        objective=(["upper", "lowerfamily"], ["nosuch"]),
        grid=(["0.25", "0.5", "1"], ["1e-5"] + _BAD))),
    st.tuples(st.sampled_from([["oracle", "weakopt"], ["oracle", "alg2"]]),
              _flags(instance=(_instance(["1", "2", "4"]),
                               ["spike:n=8", "seller_spike:n=9"]))),
    st.tuples(st.sampled_from([["report"], ["nosuch"], []]), _flags()),
).map(lambda parts: parts[0] + parts[1])

# one argv in ten ends in a stray token
_EXTRA = st.tuples(st.integers(0, 9), st.sampled_from(
    [["--help"], ["--out", "/nonexistent/out.json"], ["--config"], ["-x"]])
).map(lambda d: d[1] if d[0] == 0 else [])


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=_COMMANDS, extra=_EXTRA)
    def test_exit_code_is_documented(self, argv, extra):
        code = main(argv + extra)
        assert code in (0, 2, 3), (argv + extra, code)
