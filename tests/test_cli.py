"""Command-line driver: outputs, determinism, and exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vortexblob.integrators
from vortexblob import cli
from vortexblob.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main
from vortexblob.errors import DomainError, PairDegeneracyError


def read_csv(path):
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_writes_drift_table_and_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["simulate", "--cells", "4", "--steps", "5", "--tau", "0.5",
                     "--method", "dmm", "--out", out])
        assert code == EXIT_OK
        header, rows = read_csv(os.path.join(out, "drift.csv"))
        assert header == ["time", "drift_px", "drift_py", "drift_ell", "drift_ham"]
        assert len(rows) == 6
        drift = np.array([[float(v) for v in row[1:]] for row in rows])
        assert drift.max() <= 1e-11
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["method"] == "dmm"
        assert manifest["steps"] == 5

    def test_single_cell_is_constant(self, tmp_path):
        out = str(tmp_path / "one")
        code = main(["simulate", "--cells", "1", "--steps", "3", "--tau", "1.0",
                     "--method", "rk4", "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "drift.csv"))
        assert all(float(v) == 0.0 for row in rows for v in row[1:])

    def test_deterministic_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--random-vortices", "3", "--seed", "42",
                "--steps", "20", "--tau", "0.1", "--method", "rm2"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == EXIT_OK
        assert main(args + ["--out", out_b]) == EXIT_OK
        bytes_a = open(os.path.join(out_a, "drift.csv"), "rb").read()
        bytes_b = open(os.path.join(out_b, "drift.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_seedless_random_rerun_is_byte_identical(self, tmp_path):
        # without --seed the random system is seed 0's, and the manifest says so
        args = ["simulate", "--random-vortices", "3", "--steps", "2"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == EXIT_OK
        assert main(args + ["--out", out_b]) == EXIT_OK
        bytes_a = open(os.path.join(out_a, "drift.csv"), "rb").read()
        bytes_b = open(os.path.join(out_b, "drift.csv"), "rb").read()
        assert bytes_a == bytes_b
        assert json.load(open(os.path.join(out_a, "manifest.json")))["seed"] == 0

    def test_methods_share_header_but_differ_in_drift(self, tmp_path):
        base = ["simulate", "--random-vortices", "3", "--seed", "7",
                "--steps", "20", "--tau", "0.5"]
        out_rm2, out_dmm = str(tmp_path / "rm2"), str(tmp_path / "dmm")
        assert main(base + ["--method", "rm2", "--out", out_rm2]) == EXIT_OK
        assert main(base + ["--method", "dmm", "--out", out_dmm]) == EXIT_OK
        head_a, rows_a = read_csv(os.path.join(out_rm2, "drift.csv"))
        head_b, rows_b = read_csv(os.path.join(out_dmm, "drift.csv"))
        assert head_a == head_b
        assert rows_a != rows_b

    def test_floats_round_trip_losslessly(self, tmp_path):
        out = str(tmp_path / "rt")
        main(["simulate", "--cells", "3", "--steps", "2", "--tau", "0.25",
              "--method", "rm4", "--out", out])
        _, rows = read_csv(os.path.join(out, "drift.csv"))
        for row in rows:
            for cell in row:
                value = float(cell)
                assert f"{value:.16e}" == cell


class TestConservation:
    def test_all_four_methods_reported(self, tmp_path):
        out = str(tmp_path / "cons")
        code = main(["conservation", "--cells", "4", "--steps", "10",
                     "--tau", "0.5", "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "summary.csv"))
        assert [row[0] for row in rows] == ["rm2", "rm4", "imm", "dmm"]
        by_method = {row[0]: [float(v) for v in row[1:5]] for row in rows}
        assert max(by_method["dmm"]) <= 1e-11
        # IMM preserves impulses but not the Hamiltonian
        assert max(by_method["imm"][:3]) <= 1e-11
        assert by_method["imm"][3] > 1e-11

    def test_zero_steps_gives_zero_drift(self, tmp_path):
        out = str(tmp_path / "zero")
        assert main(["conservation", "--cells", "3", "--steps", "0",
                     "--out", out]) == EXIT_OK
        _, rows = read_csv(os.path.join(out, "summary.csv"))
        assert all(float(v) == 0.0 for row in rows for v in row[1:5])


class TestOrderCommands:
    def test_temporal_order_emits_fit(self, tmp_path):
        out = str(tmp_path / "temp")
        code = main(["temporal-order", "--taus", "0.5", "0.25", "0.125",
                     "--orders", "2", "--t-final", "2", "--out", out])
        assert code == EXIT_OK
        _, slopes = read_csv(os.path.join(out, "slopes.csv"))
        assert len(slopes) == 1
        assert float(slopes[0][1]) == pytest.approx(2.0, abs=0.1)

    def test_single_tau_emits_no_fit(self, tmp_path):
        out = str(tmp_path / "single")
        code = main(["temporal-order", "--taus", "0.5", "--orders", "2",
                     "--t-final", "1", "--out", out])
        assert code == EXIT_OK
        assert not os.path.exists(os.path.join(out, "slopes.csv"))
        _, rows = read_csv(os.path.join(out, "errors.csv"))
        assert len(rows) == 1

    def test_run_without_fit_deletes_earlier_slopes(self, tmp_path):
        # three taus at m = 2 fit a slope; one tau at m = 4 fits none, so
        # slopes.csv must not keep m = 2's slope next to m = 4's errors.csv
        out = str(tmp_path / "reuse")
        assert main(["temporal-order", "--taus", "0.5", "0.25", "0.125", "--orders", "2",
                     "--t-final", "1", "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "slopes.csv"))
        assert main(["temporal-order", "--taus", "0.5", "--orders", "4",
                     "--t-final", "1", "--out", out]) == EXIT_OK
        _, rows = read_csv(os.path.join(out, "errors.csv"))
        assert [row[0] for row in rows] == ["4"]
        assert not os.path.exists(os.path.join(out, "slopes.csv"))

    @pytest.mark.parametrize("args", [["temporal-order", "--taus", "0.1", "0.1", "0.1", "--t-final", "0.2"],
                                      ["spatial-order", "--grids", "4", "4", "4", "--tau", "0.1", "--t-final", "0.1"]])
    def test_repeated_scale_is_usage_error(self, tmp_path, args):
        # three points at one scale have no slope to fit
        assert main([*args, "--orders", "2", "--out", str(tmp_path / "same")]) == EXIT_USAGE

    def test_spatial_order_runs_small(self, tmp_path):
        out = str(tmp_path / "spat")
        code = main(["spatial-order", "--grids", "4", "8", "16", "--orders", "2",
                     "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "errors.csv"))
        errors = [float(row[2]) for row in rows]
        assert errors[0] > errors[-1] > 0.0

    @pytest.mark.parametrize("args", [["temporal-order", "--taus", "0.5", "0.25", "0.125", "--t-final", "1"],
                                      ["spatial-order", "--grids", "4", "8", "16"]])
    def test_order_sweeps_take_no_samples(self, tmp_path, monkeypatch, args):
        # both sweeps read only final states: no conserved() call, and the tables
        # a run through integrate writes, byte for byte
        calls = []
        real_conserved = vortexblob.integrators.conserved

        def counting_conserved(system, state):
            calls.append(1)
            return real_conserved(system, state)

        monkeypatch.setattr(vortexblob.integrators, "conserved", counting_conserved)
        assert main([*args, "--orders", "2", "4", "--out", str(tmp_path / "advance")]) == EXIT_OK
        assert calls == []
        monkeypatch.setattr(cli, "advance", lambda *a, **kw: vortexblob.integrators.integrate(*a, **kw)[1])
        assert main([*args, "--orders", "2", "4", "--out", str(tmp_path / "integrate")]) == EXIT_OK
        assert calls
        for name in ("errors.csv", "slopes.csv"):
            with open(tmp_path / "advance" / name) as got, open(tmp_path / "integrate" / name) as want:
                assert got.read() == want.read()

    def test_spatial_order_p_per_order(self, tmp_path):
        # without --p, m = 6 runs at p = 15 and m = 2 and 4 at 3; an explicit --p
        # applies to every order; the manifest records what each order ran with
        rows, ran_with = {}, {}
        for name, flags in (("default", []), ("p3", ["--p", "3"]), ("p15", ["--p", "15"])):
            out = str(tmp_path / name)
            assert main(["spatial-order", "--grids", "4", *flags, "--out", out]) == EXIT_OK
            rows[name] = {row[0]: row for row in read_csv(os.path.join(out, "errors.csv"))[1]}
            ran_with[name] = json.load(open(os.path.join(out, "manifest.json")))["p"]
        assert ran_with == {"default": {"2": 3, "4": 3, "6": 15}, "p3": {"2": 3, "4": 3, "6": 3},
                            "p15": {"2": 15, "4": 15, "6": 15}}
        assert [rows["default"][m] for m in "24"] == [rows["p3"][m] for m in "24"]
        assert rows["p3"]["6"] != rows["default"]["6"] == rows["p15"]["6"]


class TestE1Table:
    def test_accuracy_columns(self, tmp_path):
        out = str(tmp_path / "e1")
        code = main(["e1-table", "--count", "500", "--out", out])
        assert code == EXIT_OK
        header, rows = read_csv(os.path.join(out, "e1.csv"))
        assert header == ["x", "value", "reference", "rel_error"]
        assert len(rows) == 500
        assert max(float(row[3]) for row in rows) <= 5e-15

    def test_rows_above_cutoff_report_zero(self, tmp_path):
        out = str(tmp_path / "hi")
        code = main(["e1-table", "--x-min", "35", "--x-max", "100",
                     "--count", "10", "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "e1.csv"))
        assert all(float(row[1]) == 0.0 for row in rows)

    def test_empty_range(self, tmp_path):
        out = str(tmp_path / "empty")
        assert main(["e1-table", "--count", "0", "--out", out]) == EXIT_OK
        _, rows = read_csv(os.path.join(out, "e1.csv"))
        assert rows == []


class TestTiming:
    def test_rows_per_seed_and_method(self, tmp_path):
        out = str(tmp_path / "time")
        code = main(["timing", "--steps", "50", "--n-seeds", "2", "--seed", "0",
                     "--methods", "rm2", "dmm", "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "timing.csv"))
        assert len(rows) == 4
        assert {row[1] for row in rows} == {"rm2", "dmm"}

    def test_zero_steps_rows(self, tmp_path):
        out = str(tmp_path / "tzero")
        code = main(["timing", "--steps", "0", "--n-seeds", "1", "--seed", "3",
                     "--methods", "rm2", "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "timing.csv"))
        assert float(rows[0][4]) == 0.0  # no drift without steps

    def test_match_time_keeps_zero_steps(self, tmp_path):
        out = str(tmp_path / "mzero")
        code = main(["timing", "--match-time", "--steps", "0", "--n-seeds", "1",
                     "--seed", "3", "--out", out])
        assert code == EXIT_OK
        _, rows = read_csv(os.path.join(out, "timing.csv"))
        assert [row[1] for row in rows] == ["rm2", "rm4", "dmm"]
        assert all(row[2] == "0" for row in rows)


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert main(["simulate", "--m", "3"]) == EXIT_USAGE
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main(["e1-table", "--x-min", "-1", "--count", "5",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        out = ["--out", str(tmp_path / "bad")]
        for argv in (["simulate", "--tol", "-1"],
                     ["simulate", "--max-iters", "0"],
                     ["simulate", "--random-vortices", "0"],
                     ["timing", "--random-vortices", "0"],
                     ["e1-table", "--method", "dmm"],
                     ["temporal-order", "--cells", "4"],
                     ["temporal-order", "--taus", "0"],
                     ["spatial-order", "--tau", "0"]):
            assert main(argv + out) == EXIT_USAGE, argv

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_usage_error(self, tol, tmp_path):
        # --tol inf would end every dmm step at its first iterate, the explicit Euler step
        assert main(["simulate", "--cells", "6", "--steps", "20", "--tol", tol,
                     "--out", str(tmp_path / "bad")]) == EXIT_USAGE

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["dmm", "rm2"])
    def test_non_finite_tau_is_usage_error(self, tau, method, tmp_path, capsys):
        # not a solver failure at the first step: no step is taken
        assert main(["simulate", "--cells", "3", "--steps", "2", f"--tau={tau}", "--method", method,
                     "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "tau must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "drift.csv").exists()

    @pytest.mark.parametrize("t_final", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("args", [["spatial-order", "--grids", "4", "8"], ["temporal-order"]])
    def test_t_final_must_be_positive(self, args, t_final, tmp_path, capsys):
        assert main([*args, "--orders", "2", f"--t-final={t_final}",
                     "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "--t-final must be positive" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "errors.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["temporal-order", "--taus", "1e-300", "--t-final", "1e10"],
        ["spatial-order", "--grids", "2", "4", "--t-final", "1e300", "--tau", "1e-10"],
    ])
    def test_step_count_past_the_floats_is_usage_error(self, argv, tmp_path, capsys):
        # t_final / tau overflows: no step count, where int(inf) once exited 1
        assert main([*argv, "--orders", "2", "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "more steps than a float holds" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "errors.csv").exists()

    @pytest.mark.parametrize("taus", [["0.5"], ["0.05", "0.025", "0.4"]])
    def test_tau_without_a_step_is_usage_error(self, taus, tmp_path, capsys, monkeypatch):
        # round(t_final / tau) = 0 steps measured an error of exactly 0 at tau = 0.5
        runs = []
        monkeypatch.setattr(cli, "advance", lambda *args, **kwargs: runs.append(args))
        assert main(["temporal-order", "--taus", *taus, "--orders", "2", "--t-final", "0.2",
                     "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--taus" in err and "--t-final" in err
        assert runs == [] and not (tmp_path / "bad" / "errors.csv").exists()

    @pytest.mark.parametrize("n_seeds", ["0", "-1"])
    def test_timing_needs_a_seed(self, n_seeds, tmp_path, capsys):
        assert main(["timing", "--steps", "2", "--n-seeds", n_seeds, "--methods", "rm2",
                     "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "--n-seeds must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "timing.csv").exists()

    @pytest.mark.parametrize("argv", [["simulate", "--random-vortices", "3"],
                                      ["timing", "--steps", "2", "--n-seeds", "1", "--methods", "rm2"]])
    def test_negative_seed_is_usage_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("x_max", ["inf", "1e400"])
    def test_e1_table_needs_a_finite_bound(self, x_max, tmp_path, capsys):
        assert main(["e1-table", "--x-max", x_max, "--count", "5", "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "--x-max < inf" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["-540", "1000"])
    def test_blob_width_whose_square_overflows_or_vanishes_is_usage_error(self, q, tmp_path, capsys):
        # delta = h^q with h = 1/2: delta^2 overflows at q = -540 and underflows to 0 at q = 1000
        assert main(["simulate", "--cells", "4", "--steps", "2", f"--q={q}",
                     "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        assert "delta**2 must be positive and finite" in capsys.readouterr().err

    def test_solver_failure_exit(self, tmp_path):
        code = main(["simulate", "--cells", "4", "--steps", "2", "--tau", "0.5",
                     "--method", "dmm", "--tol", "1e-30", "--max-iters", "2",
                     "--out", str(tmp_path / "sf")])
        assert code == EXIT_SOLVER

    def test_solver_failure_names_step(self, tmp_path, capsys):
        code = main(["simulate", "--cells", "6", "--steps", "5", "--max-iters", "2",
                     "--out", str(tmp_path / "sf")])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver failure: step 1: ")

    @pytest.mark.parametrize("method", ["imm", "dmm"])
    def test_overflowing_iterate_is_solver_failure(self, method, tmp_path, capsys):
        # the RM2 start's stage r2 overflows where it is formed, with no
        # warning: a solver failure of iterate 1, not a domain error
        code = main(["simulate", "--random-vortices", "3", "--tau", "1e200", "--method", method,
                     "--out", str(tmp_path / "overflow")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver failure: step 1: ")
        assert "iterate 1 is outside the field's domain" in err

    @pytest.mark.parametrize("error, message", [
        (PairDegeneracyError(0, 1), "degeneracy error:"),
        (DomainError("conserved quantities are not finite"), "domain error:"),
    ])
    def test_degeneracy_and_domain_exit(self, error, message, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "integrate", fail)
        assert main(["simulate", "--cells", "2", "--steps", "1",
                     "--out", str(tmp_path / "bad")]) == EXIT_DEGENERATE == 4
        assert capsys.readouterr().err.startswith(message)

    def test_success_exit_is_zero(self, tmp_path):
        assert main(["simulate", "--cells", "2", "--steps", "1",
                     "--out", str(tmp_path / "ok")]) == EXIT_OK


class TestManifest:
    # Each subcommand's flags (as parser dests) and the results it adds.
    FLAGS = {
        "simulate": "cells m q p random_vortices seed tau steps method tol max_iters out",
        "conservation": "cells m q p random_vortices seed tau steps tol max_iters out",
        "temporal-order": "taus t_final orders method tol max_iters out",
        "spatial-order": "grids orders q p tau t_final method tol max_iters out",
        "timing": "random_vortices n_seeds seed m tau steps methods match_time tol max_iters out",
        "e1-table": "x_min x_max count out",
    }
    RESULTS = {"simulate": "M", "conservation": "M", "e1-table": "max_rel_error"}
    DEFAULTS = {"simulate": {"seed": 0}, "conservation": {"seed": 0}, "timing": {"seed": 0, "random_vortices": 3}}
    TOY_ARGS = {
        "simulate": ["--cells", "3", "--steps", "2"],
        "conservation": ["--cells", "3", "--steps", "2"],
        "temporal-order": ["--taus", "0.5", "--orders", "2", "--t-final", "1"],
        "spatial-order": ["--grids", "4", "--orders", "2"],
        "timing": ["--steps", "2", "--n-seeds", "1", "--methods", "rm2"],
        "e1-table": ["--count", "3"],
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_manifest_holds_flags_and_results(self, command, tmp_path):
        out = str(tmp_path / command)
        assert main([command, *self.TOY_ARGS[command], "--out", out]) == EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        expected = {"command", "wall_time", *self.FLAGS[command].split(), *self.RESULTS.get(command, "").split()}
        assert set(manifest) == expected
        assert manifest["wall_time"] > 0.0
        assert manifest["command"] == command
        assert manifest["out"] == out
        for key, value in self.DEFAULTS.get(command, {}).items():
            assert manifest[key] == value


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy made unimportable, the
    # CLI imports and toy simulate, e1-table and spatial-order runs exit 0
    child = """
import os, sys
sys.modules["scipy"] = None
from vortexblob.cli import main
for argv in (["simulate", "--cells", "3", "--steps", "2"], ["e1-table", "--count", "20"],
             ["spatial-order", "--grids", "4", "--orders", "2"]):
    code = main([*argv, "--out", os.path.join(sys.argv[1], argv[0])])
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
