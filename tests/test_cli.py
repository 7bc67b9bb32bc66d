import json

import pytest

from sectrade.cli import main


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


class TestConfig:
    def test_config_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("mu=1\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg),
                               "exact", "delta")
        assert code == 0
        assert "mu=1" in out
        code, out, _ = run_cli(capsys, "--config", str(cfg),
                               "exact", "delta", "--mu", "2")
        assert code == 0
        assert "mu=2" in out

    def test_config_without_path(self, capsys):
        code, out, err = run_cli(capsys, "report", "constants", "--config")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
