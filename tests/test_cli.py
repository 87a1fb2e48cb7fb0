"""CLI surface: subcommands, exit codes, byte-reproducible JSON, GNF1 I/O."""
import json
import math
import os
import subprocess
import sys

import pytest

from gnlab import cli
from gnlab.fieldio import read_gnf


def run_cli(args, tmp_path, env_extra=None):
    env = dict(os.environ)
    env["GNLAB_CACHE_DIR"] = str(tmp_path / "cache")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gnlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    return proc


PROBLEM = {
    "n": 3,
    "theta": "1/2",
    "scale": "HomogBesov",
    "target": {"s": "0", "p": "4", "q": "inf"},
    "source0": {"s": "-1", "p": "inf", "q": "inf"},
    "source1": {"s": "1", "p": "2", "q": "inf"},
}


class TestCheck:
    def test_verdict_on_stdout(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM))
        proc = run_cli(["check", "--rule", "besov", "--problem", str(path)], tmp_path)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "Holds"
        assert doc["residual"] == "0"

    def test_auto_rule(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM))
        proc = run_cli(["check", "--problem", str(path)], tmp_path)
        assert proc.returncode == 0

    def test_malformed_problem_exit_2(self, tmp_path):
        path = tmp_path / "problem.json"
        bad = dict(PROBLEM)
        bad["surprise"] = 1
        path.write_text(json.dumps(bad))
        proc = run_cli(["check", "--problem", str(path)], tmp_path)
        assert proc.returncode == 2
        assert "surprise" in proc.stderr

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["check", "--problem", str(path), "--output", str(out1)], tmp_path).returncode == 0
        assert run_cli(["check", "--problem", str(path), "--output", str(out2)], tmp_path).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFieldCommands:
    def test_family_then_norm(self, tmp_path):
        field = tmp_path / "train.gnf"
        proc = run_cli(
            ["family", "--kind", "EpsBumpTrain", "--n", "1", "--points", "4096",
             "--box-length", str(4 * math.pi), "--index", "5", "--j0", "2",
             "--params", '{"eps": "1/4"}', "--output", str(field)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        f = read_gnf(field)
        assert f.grid.points_per_dim == 4096
        proc = run_cli(
            ["norm", "--field", str(field), "--family", "HomogBesov",
             "--s", "1/2", "--p", "2", "--q", "2"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["value"] > 0
        assert doc["family"] == "HomogBesov"

    def test_gaussian_and_random(self, tmp_path):
        g1 = tmp_path / "g.gnf"
        proc = run_cli(
            ["gaussian", "--n", "1", "--points", "512", "--box-length", "40",
             "--width", "1.5", "--output", str(g1)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        r1 = tmp_path / "r.gnf"
        proc = run_cli(
            ["random", "--n", "1", "--points", "512", "--box-length", str(4 * math.pi),
             "--k-lo", "2", "--k-hi", "4", "--seed", "7", "--output", str(r1)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        r2 = tmp_path / "r2.gnf"
        run_cli(
            ["random", "--n", "1", "--points", "512", "--box-length", str(4 * math.pi),
             "--k-lo", "2", "--k-hi", "4", "--seed", "7", "--output", str(r2)],
            tmp_path,
        )
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("family,q,header_bytes", [
        ("HomogBesov", "-2", None), ("HomogTriebel", "-1", None), ("HomogBesov", "2", 8),
    ])
    def test_bad_norm_input_exit_2(self, tmp_path, family, q, header_bytes):
        from gnlab.fieldio import write_gnf
        from gnlab.spectral import make_grid
        from gnlab.testfuncs import gaussian

        field = tmp_path / "g.gnf"
        write_gnf(field, gaussian(make_grid(1, 512, 40.0), 1.5))
        if header_bytes is not None:
            field.write_bytes(field.read_bytes()[:header_bytes])
        proc = run_cli(
            ["norm", "--field", str(field), "--family", family, "--q", q], tmp_path
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_invalid_family_exit_2(self, tmp_path):
        proc = run_cli(
            ["family", "--kind", "EpsBumpTrain", "--n", "1", "--points", "256",
             "--box-length", str(4 * math.pi), "--index", "40", "--output",
             str(tmp_path / "x.gnf")],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "admissible count" in proc.stderr
        assert not (tmp_path / "x.gnf").exists()


class TestHarnessCommand:
    def test_regression_csv(self, tmp_path):
        out = tmp_path / "reg.csv"
        summ = tmp_path / "reg.json"
        proc = run_cli(
            ["harness", "--suite", "regression", "--checks-only",
             "--output", str(out), "--summary", str(summ)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert len(lines) >= 13  # header + 12+ instances
        assert lines[0].startswith("name,status")
        doc = json.loads(summ.read_text())
        assert all(row["ok"] for row in doc["rows"])


class TestExperimentCommand:
    def test_experiment_csv_and_summary(self, tmp_path):
        cfg = {
            "problem": {"n": 1, "theta": "1/2", "scale": "HomogBesov",
                        "target": {"s": "1/2", "p": "4/3", "q": "2"},
                        "source0": {"s": "0", "p": "2", "q": "2"},
                        "source1": {"s": "1/2", "p": "2", "q": "2"}},
            "family": {"kind": "EpsBumpTrain", "j0": 2, "eps": "1/4", "amp_exp": "1/4"},
            "indices": [4, 5, 6, 7],
            "grid": {"n": 1, "points_per_dim": 4096, "box_length": 4 * math.pi},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "exp.csv"
        summ = tmp_path / "exp-summary.json"
        proc = run_cli(["harness", "--experiment", str(path), "--output", str(out),
                        "--summary", str(summ)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,target_norm,source0_norm,source1_norm,ratio"
        assert len(lines) == 5
        doc = json.loads(summ.read_text())
        assert doc["verdict"]["violated"] == ["1.9"]
        assert doc["fitted_slope"] == pytest.approx(0.25, rel=0.15)
        assert doc["bounded"] is False


class TestMinimizeCommand:
    def test_small_run_writes_artifacts(self, tmp_path):
        cfg = {
            "grid": {"n": 3, "points_per_dim": 16, "box_length": 16.0},
            "params": {"s": 1.0, "m2": 0.0, "beta": 2.0, "G": "sum_squares"},
            "masses": [1.0],
            "options": {"max_iters": 600, "tol": 1e-9},
            "output_prefix": str(tmp_path / "run"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(["minimize", "--config", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["final_energy"] < 0
        assert doc["converged"] is True
        assert (tmp_path / "run.component0.gnf").exists()
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,energy"

    def test_unknown_config_keys_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {}, "params": {}, "masses": [], "bogus": 1}))
        proc = run_cli(["minimize", "--config", str(path)], tmp_path)
        assert proc.returncode == 2


class TestRegimesCommand:
    def test_supercritical_report(self, tmp_path):
        proc = run_cli(
            ["regimes", "--n", "3", "--beta", "2", "--s", "1", "--m2", "0",
             "--c", "1", "--cstar", "1.0"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["regime"] == "MinimizerExists"

    def test_cstar_auto_uses_cache(self, tmp_path):
        args = ["regimes", "--n", "3", "--beta", "2", "--s", "1", "--m2", "0",
                "--c", "1", "--cstar", "auto", "--points", "16", "--box-length", "12"]
        proc1 = run_cli(args, tmp_path)
        assert proc1.returncode == 0, proc1.stderr
        cache_files = list((tmp_path / "cache").glob("cstar-*.json"))
        assert len(cache_files) == 1
        proc2 = run_cli(args, tmp_path)
        assert proc2.stdout == proc1.stdout


class TestCStarCommand:
    def test_reports_value(self, tmp_path):
        proc = run_cli(
            ["cstar", "--n", "3", "--beta", "2", "--points", "16",
             "--box-length", "12", "--no-cache"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["cstar"] > 0


    @pytest.mark.parametrize("damaged", ['{"val', '{"value": NaN}\n', "[]\n"])
    def test_damaged_cache_entry_is_a_miss(self, tmp_path, monkeypatch, damaged):
        from gnlab.spectral import make_grid

        monkeypatch.setenv("GNLAB_CACHE_DIR", str(tmp_path / "cache"))
        path = cli._cstar_cache_path(3, 2.0, make_grid(3, 16, 12.0))
        path.parent.mkdir(parents=True)
        path.write_text(damaged)
        args = ["cstar", "--n", "3", "--beta", "2", "--points", "16", "--box-length", "12"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        value = json.loads(proc.stdout)["cstar"]
        assert value > 0
        assert json.loads(path.read_text()) == {"value": value}
        again = run_cli(args, tmp_path)
        assert again.stdout == proc.stdout


    def test_cache_path_keyed_on_version(self, tmp_path, monkeypatch):
        import gnlab
        from gnlab.spectral import make_grid

        monkeypatch.setenv("GNLAB_CACHE_DIR", str(tmp_path / "cache"))
        grid = make_grid(3, 16, 12.0)
        before = cli._cstar_cache_path(3, 2.0, grid)
        assert cli._cstar_cache_path(3, 2.0, grid) == before
        monkeypatch.setattr(gnlab, "__version__", gnlab.__version__ + ".post1")
        assert cli._cstar_cache_path(3, 2.0, grid) != before


class TestCanonicalJson:
    def test_float_formatting(self):
        assert cli.format_float(1.0) == "1"
        assert cli.format_float(1 / 3) == "0.33333333333333331"

    def test_sorted_keys_and_fractions(self):
        from fractions import Fraction

        text = cli.canonical_json({"b": 1.5, "a": Fraction(1, 3), "c": [1, None, True]})
        assert text == '{"a": "1/3", "b": 1.5, "c": [1, null, true]}'
