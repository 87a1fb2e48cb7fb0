"""CLI surface: subcommands, exit codes, byte-reproducible JSON, GNF1 I/O."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types

import pytest

from gnlab import cli
from gnlab.fieldio import read_gnf


def run_cli(args):
    """Run `gnlab args` in this process and report it as a finished process:
    returncode (argparse's SystemExit read as its code), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return types.SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_process(args):
    """Run `python -m gnlab.cli args` in a new process."""
    return subprocess.run(
        [sys.executable, "-m", "gnlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


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
        proc = run_cli(["check", "--rule", "besov", "--problem", str(path)])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "Holds"
        assert doc["residual"] == "0"

    def test_auto_rule(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM))
        proc = run_cli(["check", "--problem", str(path)])
        assert proc.returncode == 0

    def test_malformed_problem_exit_2(self, tmp_path):
        path = tmp_path / "problem.json"
        bad = dict(PROBLEM)
        bad["surprise"] = 1
        path.write_text(json.dumps(bad))
        proc = run_cli(["check", "--problem", str(path)])
        assert proc.returncode == 2
        assert "surprise" in proc.stderr

    def test_byte_identical_reruns(self, tmp_path):
        """Two processes, so two hash seeds, write the same bytes."""
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_process(["check", "--problem", str(path), "--output", str(out1)]).returncode == 0
        assert run_process(["check", "--problem", str(path), "--output", str(out2)]).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEntryPoint:
    def test_exit_codes(self, tmp_path):
        """python -m gnlab.cli exits with main's code: 0 for a verdict, 2 for
        bad input, 3 for a numerical failure (a solve that does not
        converge)."""
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM))
        proc = run_process(["check", "--problem", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "Holds"
        path.write_text(json.dumps(dict(PROBLEM, surprise=1)))
        proc = run_process(["check", "--problem", str(path)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("gnlab: ") and "surprise" in proc.stderr
        assert "Traceback" not in proc.stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0},
            "params": {"s": 1, "m2": 0, "beta": "1/2"}, "masses": [1.0],
            "options": {"max_iters": 1},
        }))
        proc = run_process(["minimize", "--config", str(cfg)])
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout)["converged"] is False


class TestFieldCommands:
    def test_family_then_norm(self, tmp_path):
        field = tmp_path / "train.gnf"
        proc = run_cli(
            ["family", "--kind", "EpsBumpTrain", "--n", "1", "--points", "4096",
             "--box-length", str(4 * math.pi), "--index", "5", "--j0", "2",
             "--params", '{"eps": "1/4"}', "--output", str(field)],
        )
        assert proc.returncode == 0, proc.stderr
        f = read_gnf(field)
        assert f.grid.points_per_dim == 4096
        proc = run_cli(
            ["norm", "--field", str(field), "--family", "HomogBesov",
             "--s", "1/2", "--p", "2", "--q", "2"],
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
        )
        assert proc.returncode == 0, proc.stderr
        r1 = tmp_path / "r.gnf"
        proc = run_cli(
            ["random", "--n", "1", "--points", "512", "--box-length", str(4 * math.pi),
             "--k-lo", "2", "--k-hi", "4", "--seed", "7", "--output", str(r1)],
        )
        assert proc.returncode == 0, proc.stderr
        r2 = tmp_path / "r2.gnf"
        run_cli(
            ["random", "--n", "1", "--points", "512", "--box-length", str(4 * math.pi),
             "--k-lo", "2", "--k-hi", "4", "--seed", "7", "--output", str(r2)],
        )
        assert r1.read_bytes() == r2.read_bytes()

    def test_nested_gnf_output(self, tmp_path):
        """A GNF --output, like a JSON one, creates its missing directories,
        leaves no temporary file beside the field, and gets the permissions
        a plain open() gives, not the temporary file's 0600."""
        out = tmp_path / "sub" / "dir" / "g.gnf"
        proc = run_cli(["gaussian", "--n", "1", "--points", "64", "--box-length", "8",
                        "--width", "0.6", "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert read_gnf(out).grid.points_per_dim == 64
        assert [p.name for p in out.parent.iterdir()] == ["g.gnf"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_gnf_write_leaves_nothing(self, tmp_path, monkeypatch):
        """A write that fails before its file is in place exits 2 and leaves
        neither the field nor the temporary file."""
        from gnlab import fieldio

        def refuse(src, dst):
            raise OSError("refused")

        monkeypatch.setattr(fieldio.os, "replace", refuse)
        out = tmp_path / "sub" / "g.gnf"
        proc = run_cli(["gaussian", "--n", "1", "--points", "64", "--box-length", "8",
                        "--width", "0.6", "--output", str(out)])
        assert proc.returncode == 2 and "refused" in proc.stderr
        assert list(out.parent.iterdir()) == []

    def test_random_seed_range(self, tmp_path):
        """A negative seed is an input error (exit 2) that writes nothing; a
        seed of 2^64 and more is accepted."""
        args = ["random", "--n", "1", "--points", "512", "--box-length", str(4 * math.pi),
                "--k-lo", "2", "--k-hi", "4"]
        bad = tmp_path / "bad.gnf"
        proc = run_cli(args + ["--seed", "-1", "--output", str(bad)])
        assert proc.returncode == 2 and "seed" in proc.stderr and not bad.exists()
        proc = run_cli(args + ["--seed", str(2 ** 64 + 7), "--output", str(tmp_path / "big.gnf")])
        assert proc.returncode == 0, proc.stderr

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
            ["norm", "--field", str(field), "--family", family, "--q", q]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_rational_box_and_width(self, tmp_path):
        """--box-length and --width take "a/b", as a config's box_length does;
        --box-length 32/2 was an argparse error."""
        blobs = []
        for box, width in (("16", "1.5"), ("32/2", "1.5"), ("16", "3/2")):
            out = tmp_path / f"g{len(blobs)}.gnf"
            assert cli.main(["gaussian", "--n", "2", "--points", "64", "--box-length", box,
                             "--width", width, "--output", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[1] == blobs[0]
        assert blobs[2] == blobs[0]

    def test_nan_width_exit_2(self, tmp_path, capsys):
        """--width nan wrote an all-NaN field and exited 0."""
        out = tmp_path / "g.gnf"
        assert cli.main(["gaussian", "--n", "1", "--points", "64", "--box-length", "16",
                         "--width", "nan", "--output", str(out)]) == 2
        assert "width" in capsys.readouterr().err
        assert not out.exists()

    def test_os_errors_exit_2(self, tmp_path):
        """A directory where a file is expected is an IsADirectoryError, an
        OSError like a missing file."""
        proc = run_cli(
            ["gaussian", "--n", "1", "--points", "512", "--box-length", "40",
             "--width", "1.5", "--output", str(tmp_path)],
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_cli(["norm", "--field", str(tmp_path), "--family", "HomogBesov"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_huge_exponent_reads_as_inf(self, tmp_path, flag):
        """1e400 reads as inf, as float() reads it; it used to end in an
        OverflowError traceback with exit 1."""
        from gnlab.fieldio import write_gnf
        from gnlab.spectral import make_grid
        from gnlab.testfuncs import gaussian

        field = tmp_path / "g.gnf"
        write_gnf(field, gaussian(make_grid(1, 512, 40.0), 1.5))
        docs = []
        for value in ("1e400", "inf"):
            proc = run_cli(["norm", "--field", str(field), "--family", "HomogBesov",
                            flag, value])
            assert proc.returncode == 0, proc.stderr
            docs.append(proc.stdout)
        assert docs[0] == docs[1]

    def test_rational_too_large_exit_2(self, tmp_path):
        from gnlab.fieldio import write_gnf
        from gnlab.spectral import make_grid
        from gnlab.testfuncs import gaussian

        field = tmp_path / "g.gnf"
        write_gnf(field, gaussian(make_grid(1, 512, 40.0), 1.5))
        proc = run_cli(["norm", "--field", str(field), "--family", "HomogBesov",
                        "--p", "1" + "0" * 400 + "/3"])
        assert proc.returncode == 2, proc.stderr
        assert "too large for a float" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_object_header_exit_2(self, tmp_path):
        import struct

        from gnlab.fieldio import MAGIC

        field = tmp_path / "h.gnf"
        field.write_bytes(MAGIC + struct.pack("<I", 6) + b"[1, 2]")
        proc = run_cli(["norm", "--field", str(field), "--family", "Lebesgue"])
        assert proc.returncode == 2, proc.stderr
        assert "header is not a JSON object" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nonfinite_m2_exit_2(self, tmp_path):
        from gnlab.fieldio import write_gnf
        from gnlab.spectral import make_grid
        from gnlab.testfuncs import gaussian

        field = tmp_path / "g.gnf"
        write_gnf(field, gaussian(make_grid(1, 512, 40.0), 1.5))
        proc = run_cli(
            ["norm", "--field", str(field), "--family", "BesselSobolev", "--s", "1",
             "--m2", "nan"],
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "m2 must be finite" in proc.stderr

    def test_rational_m2(self, tmp_path):
        """--m2 takes "a/b" as --s does."""
        from gnlab.fieldio import write_gnf
        from gnlab.spectral import make_grid
        from gnlab.testfuncs import gaussian

        field = tmp_path / "g.gnf"
        write_gnf(field, gaussian(make_grid(1, 512, 40.0), 1.5))
        docs = []
        for m2 in ("1/2", "0.5"):
            proc = run_cli(["norm", "--field", str(field), "--family", "BesselSobolev",
                            "--s", "1/2", "--m2", m2])
            assert proc.returncode == 0, proc.stderr
            docs.append(json.loads(proc.stdout))
        assert docs[0] == docs[1]
        assert docs[0]["value"] > 0

    def test_invalid_family_exit_2(self, tmp_path):
        proc = run_cli(
            ["family", "--kind", "EpsBumpTrain", "--n", "1", "--points", "256",
             "--box-length", str(4 * math.pi), "--index", "40", "--output",
             str(tmp_path / "x.gnf")],
        )
        assert proc.returncode == 2
        assert "admissible count" in proc.stderr
        assert not (tmp_path / "x.gnf").exists()

    @pytest.mark.parametrize("params", ["[]", '"eps"', "null"])
    def test_non_object_params_exit_2(self, tmp_path, capsys, params):
        """--params '[]' was an AttributeError traceback, exit 1."""
        out = tmp_path / "x.gnf"
        code = cli.main(["family", "--kind", "EpsBumpTrain", "--n", "1", "--points", "256",
                         "--box-length", "12", "--index", "3", "--params", params,
                         "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "gnlab: family parameters must be a JSON object, e.g. {\"eps\": \"1/4\"}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,expected", [
        (["gaussian", "--n", "1", "--points", "64", "--box-length", "x", "--width", "1",
          "--output", "g.gnf"],
         "argument --box-length: invalid number (decimal or a/b) value: 'x'"),
        (["cstar", "--n", "3", "--points", "16", "--box-length", "12", "--beta", "x"],
         "argument --beta: invalid rational (decimal or a/b) value: 'x'"),
    ])
    def test_type_errors_name_the_accepted_forms(self, capsys, argv, expected):
        """argparse named the parser functions: "invalid _parse_real value"."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert expected in err
        assert "_parse_real" not in err and "as_fraction" not in err


class TestHarnessCommand:
    def test_regression_csv(self, tmp_path):
        out = tmp_path / "reg.csv"
        summ = tmp_path / "reg.json"
        proc = run_cli(
            ["harness", "--suite", "regression", "--checks-only",
             "--output", str(out), "--summary", str(summ)],
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert len(lines) >= 13  # header + 12+ instances
        assert lines[0].startswith("name,status")
        doc = json.loads(summ.read_text())
        assert all(row["ok"] for row in doc["rows"])

    def test_suite_artifacts_pinned(self, tmp_path):
        """The full suite's CSV and summary, slopes included, are pinned byte
        for byte (sha256 captured on x86-64 Linux with numpy 2.4)."""
        import hashlib

        out, summ = tmp_path / "suite.csv", tmp_path / "suite.json"
        assert cli.main(["harness", "--suite", "regression",
                         "--output", str(out), "--summary", str(summ)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, summ)]
        assert digests == [
            "54d20744225b70c4dbe378c271e0f43f43efb310664cd8bbcb1f9db07a7757bb",
            "8c411cd3ef0be7c25c33d34a20af2f11e3677bb6bfc21dc6857447d600beee9a",
        ]


EXPERIMENT_PROBLEM = {"n": 1, "theta": "1/2", "scale": "HomogBesov",
                      "target": {"s": "1/2", "p": "4/3", "q": "2"},
                      "source0": {"s": "0", "p": "2", "q": "2"},
                      "source1": {"s": "1/2", "p": "2", "q": "2"}}


class TestExperimentCommand:
    def test_experiment_csv_and_summary(self, tmp_path):
        cfg = {
            "problem": EXPERIMENT_PROBLEM,
            "family": {"kind": "EpsBumpTrain", "j0": 2, "eps": "1/4", "amp_exp": "1/4"},
            "indices": [4, 5, 6, 7],
            "grid": {"n": 1, "points_per_dim": 4096, "box_length": 4 * math.pi},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "exp.csv"
        summ = tmp_path / "exp-summary.json"
        proc = run_cli(["harness", "--experiment", str(path), "--output", str(out),
                        "--summary", str(summ)])
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,target_norm,source0_norm,source1_norm,ratio"
        assert len(lines) == 5
        doc = json.loads(summ.read_text())
        assert doc["verdict"]["violated"] == ["1.9"]
        assert doc["fitted_slope"] == pytest.approx(0.25, rel=0.15)
        assert doc["bounded"] is False

    def test_unknown_family_key_exit_2(self, tmp_path, capsys):
        """The config's family is read as family --params is; an unknown key
        was a TypeError from the LacunaryFamily constructor."""
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "problem": EXPERIMENT_PROBLEM,
            "family": {"kind": "EpsBumpTrain", "eps": "1/4", "width": 2},
            "indices": [4, 5, 6, 7],
            "grid": {"n": 1, "points_per_dim": 4096, "box_length": 4 * math.pi},
        }))
        assert cli.main(["harness", "--experiment", str(path)]) == 2
        captured = capsys.readouterr()
        assert "unknown family params ['width']" in captured.err
        assert captured.out == ""

    def test_non_object_family_exit_2(self, tmp_path, capsys):
        """A family that is not an object gets the family --params message."""
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "problem": EXPERIMENT_PROBLEM,
            "family": ["EpsBumpTrain"],
            "indices": [4, 5],
            "grid": {"n": 1, "points_per_dim": 4096, "box_length": 4 * math.pi},
        }))
        assert cli.main(["harness", "--experiment", str(path)]) == 2
        assert capsys.readouterr().err == "gnlab: family parameters must be a JSON object, e.g. {\"eps\": \"1/4\"}\n"


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
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["final_energy"] < 0
        assert doc["converged"] is True
        assert (tmp_path / "run.component0.gnf").exists()
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,energy"

    def test_collapse_exits_3(self, tmp_path):
        """s = 3/4 < (n - beta)/2: from the default Gaussian the descent
        collapses and raises, which the CLI reports as a numerical failure."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"n": 3, "points_per_dim": 32, "box_length": 16.0},
            "params": {"s": "3/4", "m2": "1/2", "beta": "1/2"},
            "masses": [1.0],
            "options": {"tol": 1e-10},
        }))
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode == 3
        assert proc.stderr.startswith("gnlab: numerical failure: line search failed at iteration")
        assert proc.stdout == ""

    def test_initial_from_gaussian_files(self, tmp_path):
        """initial names one GNF file per mass.  Files that `gnlab gaussian`
        wrote with the default start's width L/8 give the default run."""
        files = [str(tmp_path / f"start{i}.gnf") for i in range(2)]
        for path in files:
            proc = run_cli(["gaussian", "--n", "2", "--points", "32", "--box-length", "12",
                            "--width", "3/2", "--output", path])
            assert proc.returncode == 0, proc.stderr
        cfg = {
            "grid": {"n": 2, "points_per_dim": 32, "box_length": 12.0},
            "params": {"s": 1, "m2": "1/2", "beta": 1, "G": "product_powers:1,1"},
            "masses": [1.0, 0.5],
            "options": {"max_iters": 20, "tol": 1e-12},
        }
        runs = []
        for initial in (None, files):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(cfg, initial=initial) if initial else cfg))
            runs.append(run_cli(["minimize", "--config", str(path)]))
        assert runs[0].returncode in (0, 3), runs[0].stderr
        assert json.loads(runs[1].stdout)["iterations"] > 1
        assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)

    def test_unknown_config_keys_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {}, "params": {}, "masses": [], "bogus": 1}))
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode == 2

    def test_removed_option_key_exit_2(self, tmp_path):
        """options takes max_iters and tol only; the line-search and plateau
        settings are constants."""
        cfg = {
            "grid": {"n": 3, "points_per_dim": 16, "box_length": 16.0},
            "params": {"s": 1.0, "m2": 0.0, "beta": 2.0},
            "masses": [1.0],
            "options": {"window": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert "window" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("options,key", [
        ({"tol": "x"}, "options tol"), ({"tol": None}, "options tol"), ({"tol": math.nan}, "options tol"),
        ({"tol": -1}, "options tol"),
        ({"max_iters": 0}, "options max_iters"), ({"max_iters": -3}, "options max_iters"),
    ])
    def test_bad_options_exit_2_before_solving(self, tmp_path, capsys, monkeypatch, options, key):
        """A string or null tol ran the whole solve and then exited 2, a NaN
        or negative one never let the plateau test fire, and max_iters 0 ran
        no iteration and exited 3."""
        def solve(*args):
            raise AssertionError("minimize ran")

        monkeypatch.setattr(cli, "minimize", solve)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0},
            "params": {"s": 1.0, "m2": 0.0, "beta": 0.5}, "masses": [1.0], "options": options,
        }))
        assert cli.main(["minimize", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"gnlab: {key} must")
        assert captured.out == ""


    def test_exact_rational_params(self, tmp_path):
        """s, m2 and beta take "a/b" and reach the regime decision exactly:
        n = 1, beta = 1/3, s = 1/3 = (n - beta)/2 is critical, which the
        floats 0.333... would miss."""
        cfg = {
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0},
            "params": {"s": "1/3", "m2": "0", "beta": "1/3"},
            "masses": [1.0],
            "options": {"max_iters": 3},
            "cstar": 1.0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode in (0, 3), proc.stderr
        assert json.loads(proc.stdout)["regime"]["case"] == "critical-massless"

    def test_rational_and_nonfinite_cstar(self, tmp_path):
        """"cstar": "1/2" was a ValueError (exit 2) while regimes --cstar 1/2
        was accepted; it now reads as 0.5, and a non-finite value stays out
        of scope."""
        regimes = {}
        for cstar in ("1/2", 0.5, "nan", "Infinity"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({
                "grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0},
                "params": {"s": "1/3", "m2": "0", "beta": "1/3"},
                "masses": [1.0],
                "options": {"max_iters": 3},
                "cstar": float(cstar) if cstar == "Infinity" else cstar,
            }))
            proc = run_cli(["minimize", "--config", str(path)])
            assert proc.returncode in (0, 3), proc.stderr
            regimes[cstar] = json.loads(proc.stdout)["regime"]
        assert regimes["1/2"] == regimes[0.5]
        assert regimes["1/2"]["critical_mass"] is not None
        for cstar in ("nan", "Infinity"):
            assert regimes[cstar]["regime"] == "OutOfScope"
            assert regimes[cstar]["critical_mass"] is None

    def test_rational_mass_and_box(self, tmp_path):
        """"masses" and "box_length" take "a/b" like s, m2, beta and cstar:
        "masses": ["1/2"] exited 2 with "could not convert string to float"."""
        docs = []
        for mass, box in (("1/2", "32/2"), (0.5, 16.0)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({
                "grid": {"n": 1, "points_per_dim": 64, "box_length": box},
                "params": {"s": 1, "m2": 0, "beta": "1/2"},
                "masses": [mass],
                "options": {"max_iters": 3},
                "cstar": 1.0,
            }))
            proc = run_cli(["minimize", "--config", str(path)])
            assert proc.returncode in (0, 3), proc.stderr
            docs.append(json.loads(proc.stdout))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("command", ["minimize", "harness"])
    def test_infinite_box_exit_2(self, tmp_path, command):
        """An infinite box built a grid that failed later in k_min with
        "math domain error"; the grid now rejects it, in both config readers."""
        path = tmp_path / "cfg.json"
        grid = '{"n": 1, "points_per_dim": 64, "box_length": Infinity}'
        if command == "minimize":
            path.write_text('{"grid": %s, "params": {"s": 1, "m2": 0, "beta": 0.5}, '
                            '"masses": [1]}' % grid)
            args = ["minimize", "--config", str(path)]
        else:
            path.write_text('{"grid": %s, "indices": [4, 5, 6, 7], "family": '
                            '{"kind": "EpsBumpTrain", "eps": "1/4"}, "problem": %s}'
                            % (grid, json.dumps(EXPERIMENT_PROBLEM)))
            args = ["harness", "--experiment", str(path)]
        proc = run_cli(args)
        assert proc.returncode == 2, proc.stderr
        assert "box_length must be positive and finite" in proc.stderr
        assert proc.stdout == ""

    def test_param_too_large_exit_2(self, tmp_path):
        """"s": "1e400" is exact but has no float; it was an OverflowError
        traceback, exit 1."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0},
            "params": {"s": "1e400", "m2": 0, "beta": "1/2"},
            "masses": [1.0],
        }))
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("gnlab: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_nonfinite_mass_exit_2(self, tmp_path, bad):
        """A NaN or infinite mass used to pass MultiField and end as a
        numerical failure (exit 3)."""
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0}, '
            '"params": {"s": 1, "m2": 0, "beta": 0.5}, "masses": [%s]}' % bad
        )
        proc = run_cli(["minimize", "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert "positive and finite" in proc.stderr
        assert proc.stdout == ""


class TestRegimesCommand:
    def test_supercritical_report(self):
        proc = run_cli(
            ["regimes", "--n", "3", "--beta", "2", "--s", "1", "--m2", "0",
             "--c", "1", "--cstar", "1.0"],
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["regime"] == "MinimizerExists"

    def test_exact_rationals(self):
        """n=3, beta=11/5, s=2/5 is critical; the flags take "a/b"."""
        proc = run_cli(
            ["regimes", "--n", "3", "--beta", "11/5", "--s", "2/5", "--m2", "0",
             "--c", "1", "--cstar", "1"],
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["case"] == "critical-massless"
        assert doc["regime"] == "MinusInfinity"  # c = 1 > 1/(2 cstar)

    def test_rational_cstar(self):
        docs = []
        for cstar in ("1/2", "0.5"):
            proc = run_cli(
                ["regimes", "--n", "3", "--beta", "1", "--s", "1", "--m2", "0",
                 "--c", "1", "--cstar", cstar],
            )
            assert proc.returncode == 0, proc.stderr
            docs.append(json.loads(proc.stdout))
        assert docs[0] == docs[1]
        assert docs[0]["cstar"] == 0.5
        assert docs[0]["critical_mass"] == 1.0

    @pytest.mark.parametrize("cstar", ["nan", "inf", "1e400"])
    def test_nonfinite_cstar_out_of_scope(self, cstar):
        """cstar = nan used to read as NoMinimizer with a NaN critical mass,
        cstar = inf as MinusInfinity with critical mass 0."""
        proc = run_cli(
            ["regimes", "--n", "3", "--beta", "1", "--s", "1", "--m2", "0",
             "--c", "1", "--cstar", cstar],
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["regime"] == "OutOfScope"
        assert doc["note"] == "parameters out of range"
        assert doc["critical_mass"] is None

    @pytest.mark.parametrize("c", ["1e400", "nan"])
    def test_nonfinite_c_out_of_scope(self, c):
        """--c is read as a real: 1e400 was an OverflowError traceback (exit 1)
        and nan a parse error (exit 2)."""
        proc = run_cli(
            ["regimes", "--n", "3", "--beta", "1", "--s", "1", "--m2", "0",
             "--c", c, "--cstar", "1"],
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["regime"] == "OutOfScope"
        assert doc["critical_mass"] is None

    @pytest.mark.parametrize("g", ["sum_powers:1e400", "product_powers:1e400,1", "sum_powers:nan"])
    def test_nonfinite_exponent_exits_2(self, g):
        """An exponent too large for a float was an OverflowError traceback, exit 1."""
        proc = run_cli(
            ["regimes", "--n", "3", "--beta", "1", "--s", "1", "--m2", "0",
             "--c", "1", "--cstar", "1", "--g", g],
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("gnlab: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_auto_critical_matches_cstar_command(self):
        """--cstar auto on a critical case prints the estimate that `gnlab
        cstar` prints for the same grid, and the critical mass 1/(2 cstar)."""
        grid = ["--points", "16", "--box-length", "12"]
        proc = run_cli(["regimes", "--n", "3", "--beta", "1", "--s", "1", "--m2", "0",
                        "--c", "1", "--cstar", "auto", *grid])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        est = run_cli(["cstar", "--n", "3", "--beta", "1", *grid])
        assert est.returncode == 0, est.stderr
        assert doc["case"] == "critical-massless"
        assert doc["cstar"] == json.loads(est.stdout)["cstar"]
        assert doc["critical_mass"] == 1 / (2 * doc["cstar"])

    @pytest.mark.parametrize("beta, regime, note", [
        ("5", "OutOfScope", "beta outside (0, n)"),
        ("2", "MinimizerExists", ""),
    ], ids=["beta-out-of-range", "supercritical"])
    def test_auto_estimates_only_for_a_critical_verdict(self, monkeypatch, capsys, beta, regime, note):
        """A verdict without a critical mass reads no C*: auto estimated it
        anyway, and beta = 5 exited 2 where --cstar 1 gave OutOfScope."""
        def estimate(*args, **kwargs):
            raise AssertionError("estimated C* for a verdict that does not read it")

        monkeypatch.setattr(cli, "estimate_cstar", estimate)
        assert cli.main(["regimes", "--n", "3", "--beta", beta, "--s", "1", "--m2", "0",
                         "--c", "1", "--cstar", "auto"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["regime"], doc["note"]) == (regime, note)
        assert doc["cstar"] is None
        assert doc["critical_mass"] is None


def _estimate_stub(calls):
    """A stand-in for cli.estimate_cstar that records (n, beta) and
    estimates 0.5."""
    def estimate(n, beta, grid):
        calls.append((n, beta))
        return types.SimpleNamespace(value=0.5)
    return estimate


class TestCStarCommand:
    def test_reports_value(self):
        proc = run_cli(
            ["cstar", "--n", "3", "--beta", "2", "--points", "16",
             "--box-length", "12"],
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["cstar"] > 0


    def test_beta_too_large_exit_2(self):
        """--beta 1e400 is exact but has no float; it was an OverflowError
        traceback, exit 1."""
        proc = run_cli(["cstar", "--n", "3", "--beta", "1e400", "--points", "16",
                        "--box-length", "12"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("gnlab: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_decimal_beta_read_exactly(self, monkeypatch, capsys):
        """2.2 and 11/5 are one beta: both print "11/5" and estimate the
        same problem."""
        calls = []
        monkeypatch.setattr(cli, "estimate_cstar", _estimate_stub(calls))
        for beta in ("2.2", "11/5"):
            assert cli.main(["cstar", "--n", "3", "--beta", beta, "--points", "16",
                             "--box-length", "12"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["cstar"] == 0.5
            assert doc["beta"] == "11/5"
        assert calls == [(3, 2.2), (3, 2.2)]

    def test_beta_printed_exactly(self, monkeypatch, capsys):
        """--beta 1/3 was printed as the float 0.33333333333333331."""
        monkeypatch.setattr(cli, "estimate_cstar", _estimate_stub([]))
        assert cli.main(["cstar", "--n", "3", "--beta", "1/3", "--points", "16",
                         "--box-length", "12"]) == 0
        out = capsys.readouterr().out
        assert '"beta": "1/3"' in out
        assert json.loads(out)["cstar"] == 0.5

    def test_no_cache_flag_is_gone(self, capsys):
        """cstar has no file cache, so argparse rejects --no-cache (exit 2)
        rather than taking it as a no-op."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["cstar", "--n", "3", "--beta", "2", "--points", "16",
                      "--box-length", "12", "--no-cache"])
        assert exc.value.code == 2
        assert "--no-cache" in capsys.readouterr().err


class TestOutputPaths:
    """An unusable --output or --summary exits 2 before any work is done."""

    def _no_work(self, *args, **kwargs):
        raise AssertionError("the command ran its work before checking its output path")

    @pytest.mark.parametrize("flag", ["--output", "--summary"])
    def test_directory_output_fails_fast(self, tmp_path, monkeypatch, flag):
        monkeypatch.setattr(cli, "estimate_cstar", self._no_work)
        monkeypatch.setattr(cli, "run_regression", self._no_work)
        args = {
            "--output": ["cstar", "--n", "3", "--beta", "2", "--points", "16",
                         "--box-length", "12"],
            "--summary": ["harness", "--suite", "regression", "--checks-only"],
        }[flag]
        assert cli.main(args + [flag, str(tmp_path)]) == 2

    def test_parent_under_a_file_fails_fast(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "estimate_cstar", self._no_work)
        blocker = tmp_path / "file.txt"
        blocker.write_text("")
        out = blocker / "sub" / "out.json"
        assert cli.main(["cstar", "--n", "3", "--beta", "2", "--points", "16",
                         "--box-length", "12", "--output", str(out)]) == 2


class TestIntegerInputs:
    """Integers read from files are exact: a number that int() would
    truncate, or a bool, exits 2 with a message naming the key, and an
    integral number reads as before."""

    def _fails(self, argv, key, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"{key} must be an integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n", [2.9, True, "2.9"], ids=["float", "bool", "str"])
    def test_problem_dimension(self, tmp_path, capsys, n):
        """"n": 2.9 was checked as the n = 2 problem and printed Holds."""
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(PROBLEM, n=n)))
        self._fails(["check", "--problem", str(path)], "n", capsys)
        path.write_text(json.dumps(dict(PROBLEM, n=3.0)))
        assert cli.main(["check", "--problem", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["problem"]["n"] == 3

    @pytest.mark.parametrize("key,value", [("points_per_dim", 64.7), ("n", 1.5), ("n", True)])
    def test_config_grid(self, tmp_path, capsys, key, value):
        """A minimize config with points_per_dim 64.7 ran on 64 points."""
        grid = {"n": 1, "points_per_dim": 64, "box_length": 16.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": dict(grid, **{key: value}), "params": {"s": 1.0, "m2": 0.0, "beta": 0.5},
            "masses": [1.0], "options": {"max_iters": 3},
        }))
        self._fails(["minimize", "--config", str(path)], f"grid {key}", capsys)

    @pytest.mark.parametrize("max_iters", [2.5, True])
    def test_minimize_max_iters(self, tmp_path, capsys, max_iters):
        """"max_iters": true ran one iteration and exited 3."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 16.0},
            "params": {"s": 1.0, "m2": 0.0, "beta": 0.5}, "masses": [1.0],
            "options": {"max_iters": max_iters},
        }))
        self._fails(["minimize", "--config", str(path)], "options max_iters", capsys)

    def _experiment(self, tmp_path, family, indices):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "problem": EXPERIMENT_PROBLEM, "family": family, "indices": indices,
            "grid": {"n": 1, "points_per_dim": 4096, "box_length": 4 * math.pi},
        }))
        return ["harness", "--experiment", str(path)]

    def test_family_j0(self, tmp_path, capsys):
        family = {"kind": "EpsBumpTrain", "j0": 2.5, "eps": "1/4"}
        self._fails(self._experiment(tmp_path, family, [4, 5, 6, 7]), "j0", capsys)

    def test_experiment_indices(self, tmp_path, capsys):
        family = {"kind": "EpsBumpTrain", "eps": "1/4"}
        self._fails(self._experiment(tmp_path, family, [4, 5, 6, 7.5]), "indices", capsys)

    def test_field_header(self, tmp_path, capsys):
        """A header with n 1.5 and a 1D payload was read as a 1D field."""
        import struct

        from gnlab.fieldio import MAGIC

        header = {"n": 1.5, "points_per_dim": 16, "box_length": 1.0, "domain": "physical",
                  "dtype": "c128"}
        blob = json.dumps(header).encode()
        field = tmp_path / "h.gnf"
        field.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + bytes(16 * 16))
        self._fails(["norm", "--field", str(field), "--family", "Lebesgue"], "n", capsys)


class TestReadmeExamples:
    def test_command_line_block_parses(self):
        """Every gnlab line of README's "Command line" block, continuations
        joined, is accepted by the parser."""
        import pathlib
        import shlex

        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        lines = [ln.strip() for ln in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(ln) for ln in lines if ln.startswith("gnlab ")]
        assert len(commands) >= 12
        for words in commands:
            cli.build_parser().parse_args(words[1:])


class TestCanonicalJson:
    def test_float_formatting(self):
        assert cli.format_float(1.0) == "1"
        assert cli.format_float(1 / 3) == "0.33333333333333331"

    def test_sorted_keys_and_fractions(self):
        from fractions import Fraction

        text = cli.canonical_json({"b": 1.5, "a": Fraction(1, 3), "c": [1, None, True]})
        assert text == '{"a": "1/3", "b": 1.5, "c": [1, null, true]}'
