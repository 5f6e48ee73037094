"""End-to-end tests of the command-line front end."""

import contextlib
import csv
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gupmdm
from gupmdm import cli, solver, susy
from gupmdm.cli import (
    EXIT_SOLVER,
    SHOOTING_STEPS,
    ConfigError,
    RunConfig,
    config_from_sources,
    main,
    parse_config_text,
)
from gupmdm.core import SampledFunction, SturmLiouvilleProblem, make_grid
from gupmdm.models import GupOscillatorParams, p_space_sl
from gupmdm.solver import ANGLE_TOL, Shooter, SolverError, shooting_eigenvalue, solve_sl

FAST = ["--n", "301", "--k", "3"]


class TestConfig:
    def test_round_trip(self):
        text = ("model = swanson\nomega = 2\ntau = 0.050000000000000003\n"
                "alpha = 0.29999999999999999\nbeta = 0.10000000000000001\n"
                "n = 401\nk = 4\nformat = json\nplot = false\nout = 1.csv\n")
        cfg = RunConfig(model="swanson", omega=2.0, alpha=0.3, beta=0.1,
                        tau=0.05, n=401, k=4, format="json", out="1.csv")
        parsed = config_from_sources(parse_config_text(text), {})
        assert parsed == cfg
        assert (type(parsed.omega), type(parsed.n)) == (float, int)

    def test_cli_flags_win_over_file(self):
        file_values = parse_config_text("omega = 2.0\nn = 301\n")
        cfg = config_from_sources(file_values, {"omega": 3.0})
        assert cfg.omega == 3.0
        assert cfg.n == 301

    def test_comments_and_blank_lines(self):
        values = parse_config_text("# header\n\nomega = 1.5  # inline\n")
        assert values == {"omega": "1.5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_sources({"omeg": "1.0"}, {})

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            config_from_sources({"omega": "abc"}, {})

    @pytest.mark.parametrize("key, raw, message", [
        ("plot", "maybe", "cannot parse boolean plot = 'maybe'"),
        ("n", "1e3", "cannot parse n = '1e3'"),
        ("k", "2.5", "cannot parse k = '2.5'"),
        ("tau", "0.1.2", "cannot parse tau = '0.1.2'"),
    ])
    def test_unparsable_value_names_its_key(self, key, raw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_sources({key: raw}, {})

    def test_unknown_sweep_param_is_usage_error(self, capsys):
        # --param's choices are the one rule; argparse exits 2 before any solve.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "n", "--start", "0", "--stop", "1", "--count", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'n'" in capsys.readouterr().err

    def test_pmax_rejected_outside_profile(self, tmp_path, capsys):
        # solve and sweep work in the normal form, which has no box to set.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--pmax", "8"])
        assert exc.value.code == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega = 2.0\npmax = 8\n")
        assert main(["solve", "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert "unknown config key 'pmax'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, cfg_text, message", [
        (["solve", "--alpha", "0.3", "--format", "json"], None,
         "model gup-oscillator has no parameter alpha (got alpha = 0.3)"),
        (["solve"], "beta = 0.1\n",
         "model gup-oscillator has no parameter beta (got beta = 0.1)"),
        (["sweep", "--param", "alpha", "--start", "0", "--stop", "0.5", "--count", "2"],
         None, "model gup-oscillator has no parameter alpha (got alpha = 0.5)"),
        (["profile", "mass", "--energy", "3", "--out", "{tmp}/p.csv"], None,
         "profile mass has no parameter energy (got energy = 3.0)"),
        (["profile", "mass", "--k", "3"], None, "profile has no parameter k (got k = 3)"),
        (["profile", "veff", "--energy", "1", "--out", "{tmp}/p.csv"], "k = 3\n",
         "profile has no parameter k (got k = 3)"),
        (["sweep", "--param", "tau", "--tau", "0.3", "--start", "0", "--stop", "0.1",
          "--count", "2"], None,
         "sweep sets tau at each point, so a fixed tau = 0.3 would be ignored"),
        (["sweep", "--param", "tau", "--start", "0", "--stop", "0.1", "--count", "2"],
         "tau = 0.3\n", "sweep sets tau at each point, so a fixed tau = 0.3 would be ignored"),
    ], ids=["flag", "config-line", "sweep-point", "profile-mass-energy", "profile-k",
            "profile-k-config-line", "sweep-fixed-param", "sweep-fixed-param-config-line"])
    def test_parameter_the_model_lacks_exit_2(self, argv, cfg_text, message, tmp_path,
                                              capsys):
        # The oscillator has no alpha or beta, a profile no k, a mass profile
        # no energy and a sweep no fixed value of the swept parameter: set,
        # they would leave the output unchanged while the command line claims
        # otherwise.
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if cfg_text is not None:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(cfg_text)
            argv = [*argv, "--config", str(cfgfile)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if cfg_text else [])

    def test_validate_rejects_small_n(self):
        with pytest.raises(ConfigError):
            RunConfig(n=3).validate()


class TestSolve:
    def test_exit_zero_and_header(self, capsys):
        rc = main(["solve", *FAST])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,lambda,energy,energy_shooting,abs_delta"
        assert len(lines) == 4

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", *FAST, "--out", str(a)]) == 0
        assert main(["solve", *FAST, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_meta(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["solve", *FAST, "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["config"]["n"] == 301
        assert "pmax" not in payload["meta"]["config"]
        assert len(payload["rows"]) == 3
        e0 = payload["rows"][0]["energy"]
        assert e0 == pytest.approx(0.5, abs=1e-4)
        assert payload["rows"][0]["abs_delta"] < 1e-6

    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega = 2.0\ntau = 0.05\nn = 201\nk = 2\n")
        rc = main(["solve", "--config", str(cfgfile)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_plot_outputs(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["solve", *FAST, "--out", str(out), "--plot"])
        assert rc == 0
        svg = (tmp_path / "run.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<polyline" in svg
        funcs = (tmp_path / "run_eigenfunctions.csv").read_text().splitlines()
        assert funcs[0] == "x,y0,y1,y2"
        assert len(funcs) == 602  # header + refined grid (2n-1 points)

    @pytest.mark.parametrize("out, stem", [("./run", "run"), ("res.d/prof", "res.d/prof"),
                                           ("res.d/prof.csv", "res.d/prof")])
    def test_plot_named_after_out(self, out, stem, tmp_path, monkeypatch):
        # Only the file name's extension goes, never a dot in a directory name.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "res.d").mkdir()
        assert main(["solve", *FAST, "--out", out, "--plot"]) == 0
        made = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert made == sorted([out.removeprefix("./"), stem + ".svg",
                               stem + "_eigenfunctions.csv"])

    @pytest.mark.parametrize("argv", [
        ["solve", *FAST, "--out", "{tmp}"],
        ["solve", *FAST, "--out", "{tmp}/missing/run.csv"],
        ["profile", "mass", "--n", "51", "--out", "{tmp}"],
        ["verify", "reduction", "--out", "{tmp}"],
        ["verify", "reduction", "--out", "{tmp}/missing/x.json"],
    ], ids=["solve-dir", "solve-missing-dir", "profile-dir", "verify-dir",
            "verify-missing-dir"])
    def test_unwritable_out_exit_2(self, argv, tmp_path, capsys):
        rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--out" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, config", [
        (["solve", *FAST, "--plot"], ""),
        (["solve", *FAST, "--out", "-", "--plot"], ""),
        (["solve", *FAST], "plot = true\n"),
        (["profile", "mass", "--n", "51", "--plot"], ""),
        (["sweep", "--param", "tau", "--start", "0", "--stop", "0.1", "--count", "2",
          *FAST, "--out", "{tmp}/s.csv", "--plot"], ""),
        (["sweep", "--param", "tau", "--start", "0", "--stop", "0.1", "--count", "2",
          *FAST, "--out", "{tmp}/s.csv"], "plot = on\n"),
    ], ids=["solve-stdout", "solve-dash", "solve-config", "profile-stdout",
            "sweep", "sweep-config"])
    def test_plot_that_writes_nothing_exit_2(self, argv, config, tmp_path, capsys):
        # Only solve and profile plot, and only next to a file --out.
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert "--plot" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])

    @pytest.mark.parametrize("argv", [["solve", *FAST], ["profile", "mass", "--n", "51"]],
                             ids=["solve", "profile"])
    def test_plot_over_svg_out_exit_2(self, argv, tmp_path, capsys):
        # The plot is <stem>.svg; an --out of that name would lose the table to it.
        rc = main([*argv, "--out", str(tmp_path / "run.svg"), "--plot"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--plot" in captured.err and "run.svg" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_invalid_model_params_exit_2(self, capsys):
        rc = main(["solve", "--omega", "-1.0", *FAST])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_n_exit_2(self, capsys):
        rc = main(["solve", "--n", "3"])
        assert rc == 2

    def test_missing_config_file_exit_2(self, capsys):
        rc = main(["solve", "--config", "/nonexistent/nowhere.cfg"])
        assert rc == 2

    def test_solver_failure_exit_3(self, monkeypatch, capsys):
        def boom(cfg):
            raise SolverError("no convergence")

        monkeypatch.setattr(cli, "_solve_rows", boom)
        rc = main(["solve", *FAST])
        assert rc == 3
        assert "solver error" in capsys.readouterr().err

    def test_bracket_failure_exit_3(self, monkeypatch, capsys):
        # An angle that never reaches the target: shooting finds no bracket.
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (0.5, 0.0))
        rc = main(["solve", *FAST])
        captured = capsys.readouterr()
        assert rc == 3
        assert "solver error" in captured.err
        assert captured.out == ""

    def test_eigenvector_failure_exit_3(self, monkeypatch, capsys, tmp_path):
        # dstein runs on the first read of the eigenfunctions, which only
        # --plot makes; its failure is a solver error, and no file is written.
        monkeypatch.setattr(solver, "dstein",
                            lambda d, e, w, *_: (np.zeros((d.size, w.size)), 2))
        rc = main(["solve", *FAST, "--plot", "--out", str(tmp_path / "run.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "solver error" in captured.err
        assert "2 of 3 eigenvectors failed to converge" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("plot, calls", [(False, 0), (True, 1)])
    def test_dstein_runs_only_for_plot(self, plot, calls, dstein_calls, tmp_path):
        # The coarse grid's levels, seeded by the closed form, and the fine
        # grid's, seeded by the coarse ones, are certified by shifted inverse
        # iteration, not dstein; shooting starts from the matrix eigenvalues
        # alone, so only the --plot table reads the eigenvectors, with one call.
        argv = ["solve", *FAST, "--out", str(tmp_path / "run.csv")]
        assert main(argv + ["--plot"] * plot) == 0
        assert len(dstein_calls) == calls

    def test_default_solve_bisects_on_neither_grid(self, dstebz_ranges):
        # The closed form seeds the coarse grid and the coarse levels the
        # fine one: dstebz only counts over a range "V" on each.
        assert main(["solve", "--out", os.devnull]) == 0
        assert dstebz_ranges == [1, 1]

    def test_k1_solve_is_unseeded_solve(self, monkeypatch, capsys, dstebz_ranges):
        # `_polish` declines k < 2: both grids bisect (range "I"), and the
        # rows are those of a solve given no seed, byte for byte.
        assert main(["solve", "--k", "1"]) == 0
        seeded = capsys.readouterr().out
        assert dstebz_ranges == [2, 2]
        real = solver.solve_extrapolated
        monkeypatch.setattr(solver, "solve_extrapolated",
                            lambda build, grid, k, near=None: real(build, grid, k))
        assert main(["solve", "--k", "1"]) == 0
        assert capsys.readouterr().out == seeded

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "1000000000000"],
        ["sweep", "--param", "tau", "--start", "0", "--stop", "0.1",
         "--count", "1000000000000"],
    ], ids=["solve-n", "sweep-count"])
    def test_too_large_to_allocate_exit_2(self, argv, monkeypatch, capsys):
        # The grid's points (np.arange) or the sweep's values (np.linspace)
        # are the first allocation of that size. It is refused here rather
        # than tried: an overcommitting host may grant it and then be killed.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert "Unable to allocate 7.28 TiB" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("model, tau, n, k, rtol", [
        # From tau ~ 0.404 on, Swanson (2, 0.3, 0.1) has eps^2 > 2: q is a
        # barrier with its top at the centre, where shooting matches. Held to
        # 1e-6 absolute.
        *(("swanson", tau, 1201, 6, False) for tau in (0.42, 0.5, 0.6, 0.68)),
        # The rest are held to 1e-6 relative, the tolerance `solve` gates on;
        # at tau = 1.4-1.5 the energies reach 27. Where kappa <= 2 the whole
        # interval's ends decide the spectrum, and the matrix is 3.6e-7 to
        # 1.3e-6 off here.
        ("gup-oscillator", 1.2, 1201, 6, True), ("gup-oscillator", 20.0, 1201, 6, True),
        *(("gup-oscillator", tau, 2401, 6, True) for tau in (1.4, 1.45, 1.5)),
        ("swanson", 0.3, 2401, 6, True),
        # Coarse grids where kappa >= 20: the matrix is 0.8-1.4e-6 off, and
        # shooting on the fine grid's n - 1 half-steps errs with it.
        ("gup-oscillator", 0.05, 201, 6, True), ("gup-oscillator", 0.0, 301, 6, True),
        ("swanson", 0.02, 201, 6, True), ("gup-oscillator", 0.0, 201, 3, True),
        # Shooting on fewer than 1600 half-steps errs with the matrix here, 3.2e-6 off.
        ("swanson", 0.01, 201, 6, True),
    ], ids=str)
    def test_barrier_band_exits_0_only_when_exact(self, model, tau, n, k, rtol, capsys):
        # A solve may print a spectrum only if both columns are the closed
        # form within 1e-6; otherwise it is a solver error, with nothing on
        # stdout.
        swanson = {"omega": 2.0, "alpha": 0.3, "beta": 0.1} if model == "swanson" else {}
        cfg = RunConfig(model=model, tau=tau, n=n, k=k, **swanson)
        rc = main(["solve", "--model", model, "--tau", str(tau), "--n", str(n), "--k", str(k),
                   *(f"--{key}={value}" for key, value in swanson.items())])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if rc == 0:
            params = cfg.params()
            rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
            assert len(rows) == k
            for row in rows:
                exact = params.exact_energy(int(row[0]))
                bound = 1e-6 * abs(exact) if rtol else 1e-6
                assert abs(float(row[2]) - exact) <= bound
                assert abs(float(row[3]) - exact) <= bound
        else:
            assert rc == 3
            assert "solver error" in captured.err
            assert captured.out == ""

    def test_small_omega_shooting_levels_distinct(self, capsys):
        # A search that stops short prints one non-root for two levels; each
        # level must be a root of its own angle target.
        rc = main(["solve", "--omega", "0.001", "--k", "3"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        shot = [float(line.split(",")[3]) for line in captured.out.strip().splitlines()[1:]]
        assert len(shot) == 3
        assert shot[0] < shot[1] < shot[2]
        cfg = RunConfig(omega=0.001, k=3)
        eps = cfg.params().normal_form().eps
        shooter = Shooter(eps, SHOOTING_STEPS)
        for n in range(3):
            assert shooting_eigenvalue(shooter, n).mismatch <= ANGLE_TOL

    def test_matrix_shooting_disagreement_exit_3(self, capsys):
        # At tau*omega = 4 the singular ends slow both methods down; at the
        # default n they differ by about 1e-5 relative. That is a solver
        # failure, not a printed spectrum.
        rc = main(["solve", "--tau", "4"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "differ by more than" in captured.err
        assert captured.out == ""

    def test_fine_grid_solves(self, capsys):
        # 100001 fine-grid points: bisection to an absolute tolerance keeps the
        # matrix levels within AGREE_RTOL of shooting (at abstol 0, ulp * ||T||
        # grows like n^2 and level 0 missed by 1.4e-6 relative).
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        rc = main(["solve", "--tau", "0.05", "--n", "50001"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        assert len(rows) == 6
        for n, row in enumerate(rows):
            assert float(row[2]) == pytest.approx(params.exact_energy(n), rel=1e-8)

    def test_even_n_folds_at_a_coupling(self, capsys):
        # n = 1200 gives an even number of matrix rows on the coarse grid, so
        # the fold's even-row branch runs; both columns stay on the closed form.
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        rc = main(["solve", "--tau", "0.05", "--n", "1200"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        assert len(rows) == 6
        for n, row in enumerate(rows):
            assert abs(float(row[2]) - params.exact_energy(n)) <= 1e-8
            assert abs(float(row[3]) - params.exact_energy(n)) <= 1e-8

    def test_fine_levels_closer_than_bisection_at_large_n(self, capsys):
        # At n = 50001 bisection stops near ulp * ||T||, 5.6e-9 (relative) off
        # the closed form; the fine grid's Rayleigh quotients are not bound by it.
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        rc = main(["solve", "--tau", "0.05", "--n", "50001"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        assert len(rows) == 6
        for n, row in enumerate(rows):
            assert abs(float(row[2]) / params.exact_energy(n) - 1.0) <= 1e-9

    @pytest.mark.parametrize("tau, bound", [(0.01, 3.5e-9), (0.02, 2.5e-9)])
    def test_short_box_has_finer_h(self, tau, bound, capsys):
        # The box {log R >= -72} is shorter than 12 here (10.9 and 9.4), so the
        # same n has a finer h: the worst level is 3.0e-9 and 1.9e-9 off the
        # closed form (relative), against 4.9e-9 and 3.7e-9 on [-12, 12].
        params = GupOscillatorParams(omega=1.0, tau=tau)
        rc = main(["solve", "--tau", str(tau)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        worst = max(abs(float(row[2]) / params.exact_energy(int(row[0])) - 1.0) for row in rows)
        assert worst < bound

    def test_swanson_huge_weight_solves(self, capsys):
        # The p-space weight exp(delta p^2) grows fast here; the normal form
        # has no weight to overflow, and the spectrum is exact.
        rc = main(["solve", "--model", "swanson", "--omega", "2", "--alpha", "0.9",
                   "--beta", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        energies = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        omega_bar = math.sqrt(4.0 - 4.0 * 0.9 * 0.05)
        for n, e in enumerate(energies):
            assert abs(e - (n + 0.5) * omega_bar) <= 1e-6

    @pytest.mark.parametrize("command", [
        ["solve", "--model", "swanson", "--omega", "1e200"],
        ["profile", "mass", "--model", "swanson", "--omega", "1e200"],
        ["profile", "mass", "--omega", "1e-200"],      # (1/omega)^2 overflows
    ])
    def test_omega_square_overflow_exit_2(self, command, capsys):
        rc = main(command)
        captured = capsys.readouterr()
        assert rc == 2
        assert "overflows" in captured.err
        assert captured.out == ""

    def test_unresolved_spectrum_exit_3(self):
        # A p box of 12/sqrt(omega) is too wide for 1201 points to resolve the
        # ground state of width sqrt(omega): a SolverError (exit 3 from main),
        # not a config error.
        params = GupOscillatorParams(omega=0.001)
        pmax = 12.0 / math.sqrt(params.omega)
        with pytest.raises(SolverError, match="strictly ascending"):
            solve_sl(p_space_sl(params, make_grid(-pmax, pmax, 1201)), 6)

    @pytest.mark.parametrize("argv, message", [
        (["--model", "swanson", "--omega", "2", "--alpha", "0.3", "--beta", "0.1",
          "--tau", "0.8"], "<= 0 at tau = 0.8"),
        (["--tau", "1e300"], "not finite at tau = 1e+300"),
        (["--tau", "inf"], "not finite at tau = inf"),
        # G = omega^2 = 1e-320 is subnormal: a few bits, not a spectrum.
        (["--model", "swanson", "--omega", "1e-160"], "subnormal at omega = 1e-160"),
        # omega (a^dagger a + 1/2) at omega < 0 has no lowest level; G = omega
        # (omega + alpha + beta) > 0 must not hide the sign.
        (["--model", "swanson", "--omega", "-2"], "omega must be positive, got -2"),
    ], ids=["oscillatory-end", "huge-tau", "inf-tau", "subnormal-g", "negative-omega"])
    def test_no_normal_form_exit_2(self, argv, message, capsys):
        rc = main(["solve", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert captured.out == ""


class TestSweep:
    def test_tau_sweep_csv(self, capsys):
        rc = main(["sweep", "--param", "tau", "--start", "0.0", "--stop", "0.1",
                   "--count", "3", "--n", "201", "--k", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,index,lambda,energy,energy_shooting,abs_delta,error"
        assert len(lines) == 1 + 3 * 2
        assert all(line.endswith(",") for line in lines[1:])  # empty error column

    def test_failed_point_gets_nan_rows(self, capsys):
        # At tau = 0.8 this Swanson model has Q <= 0 (an oscillatory end);
        # that point must appear as NaN rows with a message rather than
        # aborting the sweep, while tau = 0 solves.
        rc = main(["sweep", "--model", "swanson", "--omega", "2.0",
                   "--alpha", "0.3", "--beta", "0.1", "--param", "tau",
                   "--start", "0.0", "--stop", "0.8", "--count", "2",
                   "--n", "201", "--k", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()[1:]
        failed = [l for l in lines if not l.endswith(",")]
        ok = [l for l in lines if l.endswith(",")]
        assert failed and ok
        assert all(l.startswith("0.8") and "nan" in l and "<= 0 at tau = 0.8" in l
                   for l in failed)

    def test_disagreeing_point_gets_nan_rows(self, capsys):
        rc = main(["sweep", "--param", "tau", "--start", "4", "--stop", "0.1",
                   "--count", "2", "--k", "2"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        assert all(l.startswith("4,") and ",nan," in l and "differ by more than" in l
                   for l in lines[:2])
        assert all(l.endswith(",") for l in lines[2:])

    def test_error_cell_with_comma_is_quoted(self, capsys):
        # The tau = 1e300 message holds commas; csv.reader must still see 7
        # fields per row and get the message back.
        rc = main(["sweep", "--param", "tau", "--start", "0", "--stop", "1e300",
                   "--count", "2", "--n", "201", "--k", "2"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rc == 0
        assert all(len(row) == 7 for row in rows)
        with pytest.raises(ValueError) as exc:
            RunConfig(tau=1e300).params().normal_form()
        assert "," in str(exc.value)
        assert [row[-1] for row in rows[1:]] == ["", "", str(exc.value), str(exc.value)]

    @pytest.mark.parametrize("argv", [
        ["--param", "tau", "--start", "0", "--stop", "1e300"],
        ["--param", "omega", "--start", "1", "--stop", "2", "--tau", "nan"],
    ], ids=["tau-1e300", "config-tau-nan"])
    def test_json_writes_nonfinite_as_null(self, argv, capsys):
        # NaN and Infinity are not JSON (RFC 8259); a strict parser must accept
        # the document, with null in each failed row next to its message.
        def strict(token):
            raise ValueError(f"non-JSON token {token}")

        rc = main(["sweep", *argv, "--count", "2", "--n", "201", "--k", "2",
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert rc == 0
        failed = [row for row in payload["rows"] if row["error"]]
        assert failed
        for row in failed:
            assert [row[key] for key in ("lambda", "energy", "energy_shooting",
                                         "abs_delta")] == [None] * 4
        if "nan" in argv:
            assert payload["meta"]["config"]["tau"] is None
            assert len(failed) == 4
        else:
            with pytest.raises(ValueError) as exc:
                RunConfig(tau=1e300).params().normal_form()
            assert [row["error"] for row in failed] == [str(exc.value)] * 2

    @pytest.mark.parametrize("flag", ["--start", "--stop"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_range_exit_2(self, flag, value, capsys):
        bounds = {"--start": "0", "--stop": "0.1", flag: value}   # "=": -inf is no option
        rc = main(["sweep", "--param", "tau", *(f"{k}={v}" for k, v in bounds.items()),
                   "--count", "3", "--n", "201", "--k", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{flag} must be finite" in captured.err
        assert captured.out == ""

    def test_count_one_rejected(self, capsys):
        rc = main(["sweep", "--param", "tau", "--start", "0", "--stop", "1",
                   "--count", "1", "--n", "201"])
        assert rc == 2


class TestProfile:
    @pytest.mark.parametrize("argv, pmax", [([], 6.0), (["--pmax", "7.5"], 7.5)])
    def test_window(self, argv, pmax, capsys):
        # Default 12/sqrt(omega), or the explicit --pmax.
        rc = main(["profile", "mass", "--omega", "4", "--n", "5", *argv])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        assert [float(r.split(",")[0]) for r in rows] == [-pmax, -pmax / 2, 0.0, pmax / 2, pmax]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", [["mass"], ["veff", "--energy", "1"]])
    @pytest.mark.parametrize("model", ["gup-oscillator", "swanson"])
    @pytest.mark.parametrize("tau", ["inf", "nan", "1e300"])
    def test_extreme_tau_no_warning(self, tau, model, which, capsys):
        # The p-space builders: finite numbers, or exit 2 naming tau; no numpy
        # RuntimeWarning on the way (warnings are errors here).
        rc = main(["profile", *which, "--model", model, "--tau", tau, "--n", "11"])
        captured = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 2:
            assert f"tau = {float(tau):g}" in captured.err
            assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["mass", "--pmax", "1e308"],
         "grid bounds and their span must be finite, got [-1e+308, 1e+308]"),
        (["veff", "--energy", "nan"], "--energy: V_eff - Lambda is not finite at energy = nan"),
        (["veff", "--energy", "1e308"],
         "--energy: V_eff - Lambda is not finite at energy = 1e+308"),
    ], ids=["pmax-span-overflows", "energy-nan", "energy-overflows"])
    def test_non_finite_input_exit_2(self, argv, message, capsys):
        # A box whose width overflows, or an energy whose V_eff - Lambda is not
        # finite: exit 2 naming the input, with no numpy RuntimeWarning.
        rc = main(["profile", *argv, "--n", "11"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_profile_without_normal_form(self, capsys):
        # Q <= 0 rules out a solve, not the p-space profile.
        rc = main(["profile", "mass", "--model", "swanson", "--omega", "2",
                   "--alpha", "0.3", "--beta", "0.1", "--tau", "0.8", "--n", "11"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 12

    def test_mass_values(self, capsys):
        rc = main(["profile", "mass", "--tau", "0.25", "--pmax", "2",
                   "--n", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        vals = {float(p): float(v) for p, v in rows}
        assert vals[0.0] == 1.0
        assert vals[2.0] == pytest.approx(0.5, abs=1e-15)

    def test_veff_requires_energy(self, capsys):
        rc = main(["profile", "veff", "--tau", "0.1", "--n", "11"])
        assert rc == 2

    def test_veff_gup_point_value(self, capsys):
        # (mu^2 p^2 - lam)/(1+tau p^2) at p = 0 is -lam = -2E/omega^2.
        rc = main(["profile", "veff", "--energy", "0.5", "--omega", "1.0",
                   "--tau", "0.1", "--pmax", "2", "--n", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = {float(p): float(v) for p, v in
                (line.split(",") for line in out.strip().splitlines()[1:])}
        assert rows[0.0] == pytest.approx(-1.0, abs=1e-15)

    def test_swanson_mass_tau_zero_gaussian(self, capsys):
        rc = main(["profile", "mass", "--model", "swanson", "--omega", "2.0",
                   "--alpha", "0.3", "--beta", "0.1", "--tau", "0.0", "--n", "11"])
        assert rc == 0
        delta = 0.2 / (2.0 * 2.4)
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            p, v = map(float, line.split(","))
            assert v == pytest.approx(math.exp(-delta * p * p), rel=1e-14)

    def test_plot_svg(self, tmp_path):
        out = tmp_path / "mass.csv"
        rc = main(["profile", "mass", "--tau", "0.1", "--n", "51",
                   "--pmax", "5", "--out", str(out), "--plot"])
        assert rc == 0
        assert (tmp_path / "mass.svg").read_text().startswith("<?xml")


_PROFILE_MODELS = {
    "gup-oscillator": {"tau": 0.05},
    "swanson": {"omega": 2.0, "alpha": 0.3, "beta": 0.1, "tau": 0.05},
}
_PROFILE_ENERGY = 1.7


def _profile_argv(cfg: RunConfig, which: str, pmax: float | None) -> list[str]:
    argv = ["profile", which, "--model", cfg.model, "--n", str(cfg.n)]
    argv += [a for name in ("omega", "tau", "alpha", "beta")
             if getattr(cfg, name) != getattr(RunConfig, name)
             for a in (f"--{name}", repr(getattr(cfg, name)))]
    if which == "veff":
        argv += ["--energy", repr(_PROFILE_ENERGY)]
    if cfg.format != RunConfig.format:
        argv += ["--format", cfg.format]
    return argv + ([] if pmax is None else ["--pmax", repr(pmax)])


def _profile_table(cfg: RunConfig, which: str, pmax: float | None) -> str:
    """write_table's text of every row of the profile, none derived from another."""
    params = cfg.params()
    pmax = 12.0 / math.sqrt(cfg.omega) if pmax is None else pmax
    slp = params.sl(make_grid(-pmax, pmax, cfg.n))
    prof = (slp.mass if which == "mass" else
            slp.effective_potential(params.eigenvalue_from_energy(_PROFILE_ENERGY)))
    dest = io.StringIO()
    cli.write_table(["p", "value"], list(zip(slp.grid.points.tolist(), prof.values.tolist())),
                    cfg, dest)
    return dest.getvalue()


@pytest.fixture
def mirror_calls(monkeypatch):
    """The results of cli._mirrored, one per call, in call order."""
    calls = []
    mirrored = cli._mirrored
    monkeypatch.setattr(cli, "_mirrored", lambda *args: calls.append(mirrored(*args))
                        or calls[-1])
    return calls


class TestMirroredProfile:
    """A CSV profile writes each p < 0 line as "-" + its mirror line; the
    bytes must be those of write_table on every row."""

    @staticmethod
    def _run(argv, dest, tmp_path, capsys) -> str:
        if dest == "stdout":
            assert main(argv) == 0
            return capsys.readouterr().out
        path = tmp_path / "profile.out"
        assert main([*argv, "--out", str(path)]) == 0
        return path.read_text()

    @pytest.mark.parametrize("dest", ["file", "stdout"])
    @pytest.mark.parametrize("pmax", [None, 5.0], ids=["default-box", "pmax-5"])
    @pytest.mark.parametrize("n", [5, 6, 51, 1200, 1201])
    @pytest.mark.parametrize("which", ["mass", "veff"])
    @pytest.mark.parametrize("model", sorted(_PROFILE_MODELS))
    def test_csv_matches_every_row(self, model, which, n, pmax, dest, tmp_path, capsys,
                                   mirror_calls):
        cfg = RunConfig(model=model, n=n, **_PROFILE_MODELS[model])
        text = self._run(_profile_argv(cfg, which, pmax), dest, tmp_path, capsys)
        assert mirror_calls == [True]
        assert text == _profile_table(cfg, which, pmax)

    @pytest.mark.parametrize("which", ["mass", "veff"])
    @pytest.mark.parametrize("model", sorted(_PROFILE_MODELS))
    def test_json_unchanged(self, model, which, capsys, mirror_calls):
        cfg = RunConfig(model=model, n=51, format="json", **_PROFILE_MODELS[model])
        text = self._run(_profile_argv(cfg, which, None), "stdout", None, capsys)
        assert mirror_calls == []
        assert text == _profile_table(cfg, which, None)

    @pytest.mark.parametrize("spoil", ["ulp", "signed-zero"])
    def test_unmirrored_values_take_plain_path(self, spoil, monkeypatch, capsys, mirror_calls):
        # Values that are not a bitwise palindrome are written row by row.
        true_mass = SturmLiouvilleProblem.mass.fget

        def mass(slp):
            v = true_mass(slp).values.copy()
            if spoil == "ulp":
                v[3] = np.nextafter(v[3], math.inf)
            else:
                v[3], v[-4] = 0.0, -0.0
            return SampledFunction(slp.grid, v)

        monkeypatch.setattr(SturmLiouvilleProblem, "mass", property(mass))
        cfg = RunConfig(n=51, **_PROFILE_MODELS["gup-oscillator"])
        text = self._run(_profile_argv(cfg, "mass", None), "stdout", None, capsys)
        assert mirror_calls == [False]
        assert text == _profile_table(cfg, "mass", None)
        if spoil == "signed-zero":
            lines = text.splitlines()
            assert lines[1 + 3].endswith(",0") and lines[-4].endswith(",-0")

    @pytest.mark.parametrize("points, values, expected", [
        ([-2.0, -1.0, 0.0, 1.0, 2.0], [4.0, 1.0, 7.0, 1.0, 4.0], True),
        ([-1.5, -0.5, 0.5, 1.5], [3.0, 1.0, 1.0, 3.0], True),
        ([-2.0, -1.0, 0.0, 1.0, 2.0], [4.0, 1.0, 7.0, np.nextafter(1.0, 2.0), 4.0], False),
        ([-2.0, -1.0, 0.0, 1.0, 2.0], [4.0, 0.0, 7.0, -0.0, 4.0], False),
        ([-2.0, -1.0, 0.0, np.nextafter(1.0, 2.0), 2.0], [4.0, 1.0, 7.0, 1.0, 4.0], False),
        ([-1.0, -0.0, 0.0, 1.0], [3.0, 1.0, 1.0, 3.0], False),    # p = 0 has no mirror
        ([2.0, 1.0, 0.0, -1.0, -2.0], [4.0, 1.0, 7.0, 1.0, 4.0], False),
    ], ids=["odd", "even", "value-ulp", "value-signed-zero", "point-ulp", "zero-mirrored",
            "descending"])
    def test_mirrored_rule(self, points, values, expected):
        assert cli._mirrored(np.array(points), np.array(values)) is expected


def _reference_csv(header, rows) -> str:
    """The CSV text of write_table, cell by cell: .17g for floats, str otherwise."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 1 / 3]
_LONG = 2 * cli.CSV_BLOCK_ROWS + 3


def _long_array(outlier: float | None = None) -> np.ndarray:
    """_LONG rows of p in [-12, 12] (p = 0 at the centre) and exp(-p^2 / 16),
    all in %.17g's fixed-notation range; `outlier` replaces one cell of the
    middle CSV_BLOCK_ROWS block."""
    p = np.linspace(-12.0, 12.0, _LONG)
    table = np.column_stack([p, np.exp(-p * p / 16.0)])
    if outlier is not None:
        table[cli.CSV_BLOCK_ROWS + 100, 1] = outlier
    return table


# The fixed-notation range is 1e-4 <= |x| < 1e17. The ties are exact doubles whose
# 18th significant digit is a final 5: they round half to even, to ...12 and ...38.
_IN_RANGE_EDGES = [0.0, -0.0, 1e-4, -1e-4, np.nextafter(1e17, 0.0), -np.nextafter(1e17, 0.0),
                   123456789012345.125, 123456789012345.375, 0.1, 1 / 3, 100.0, 1e16, 9.5,
                   0.000123, 5e-4, 12345.678, 2.0**53, 2.0**53 + 2.0]
_OUT_OF_RANGE_EDGES = [np.nextafter(1e-4, 0.0), 1e17, -1e17, 5e-324, math.nan, math.inf,
                       -math.inf, 1e300, -2.5e-7]
_WRITER_TABLES = {
    "edge-values": (
        ["i", "x", "np", "s"],
        [[i, x, np.float64(x) * 3, f"s{i}"] for i, x in enumerate(_EDGE_FLOATS)],
    ),
    "header-only": (["p", "value"], []),
    "blocks": (
        ["p", "value"],
        list(zip(np.linspace(-12.0, 12.0, _LONG).tolist(),
                 np.exp(-np.linspace(0.0, 9.0, _LONG)).tolist())),
    ),
    # A list table goes cell by cell: a float block, then an int cell.
    "blocks-mixed-types": (
        ["x", "y"],
        [[j / 7, j / 3] for j in range(_LONG - 1)] + [[0.1, 10**20]],
    ),
    "array-blocks": (["p", "value"], _long_array()),
    # The chunk holding the outlier takes the % fallback; the others take the kernel.
    "array-blocks-one-outlier": (["p", "value"], _long_array(outlier=1e-7)),
    "array-in-range-edges": (["x", "y"], np.array(_IN_RANGE_EDGES).reshape(-1, 2)),
    "array-out-of-range-edges": (
        ["x", "y", "z"],
        np.array([[x, 1.5, -x] for x in _OUT_OF_RANGE_EDGES]),
    ),
    "array-one-column": (["x"], np.array(_IN_RANGE_EDGES)[:, None]),
    "sweep": (
        ["tau", "index", "lambda", "energy", "energy_shooting", "abs_delta", "error"],
        [[0.0, 0, 1.0000002031862414, 0.5, 0.50000006730820878, 3.4e-08, ""],
         [0.4, 0, math.nan, math.nan, math.nan, math.nan, "Q <= 0 at tau = 0.4"],
         [0.8, 1, 3.0000018328203688, 1.5, 1.5000010079503234, 9.2e-08, ""]],
    ),
}


class TestWriteTable:
    @pytest.mark.parametrize("name", sorted(_WRITER_TABLES))
    def test_csv_matches_per_cell_reference(self, name):
        header, rows = _WRITER_TABLES[name]
        dest = io.StringIO()
        cli.write_table(header, rows, RunConfig(), dest)
        assert dest.getvalue() == _reference_csv(header, rows)

    @given(
        cols=st.integers(1, 3),
        cells=st.lists(st.one_of(
            *[st.builds(math.copysign,
                        st.floats(1e-4, 1e17, exclude_max=True), st.sampled_from([1.0, -1.0]))] * 8,
            st.sampled_from([0.0, -0.0]),
            st.floats(),
        ), min_size=1, max_size=60),
        chunk_cells=st.sampled_from([1, 4, cli.CSV_CHUNK_CELLS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_float_array_matches_per_cell_reference(self, cols, cells, chunk_cells):
        table = np.resize(np.array(cells), (-(-len(cells) // cols), cols))
        header = [f"c{j}" for j in range(cols)]
        dest = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_CHUNK_CELLS", chunk_cells)
            cli.write_table(header, table, RunConfig(), dest)
        assert dest.getvalue() == _reference_csv(header, table)

    def test_string_cells_quoted(self):
        texts = ["a,b", 'say "hi"', "two\nlines", "plain"]
        dest = io.StringIO()
        cli.write_table(["i", "text"], [[i, t] for i, t in enumerate(texts)],
                        RunConfig(), dest)
        rows = list(csv.reader(io.StringIO(dest.getvalue())))
        assert rows == [["i", "text"], *([str(i), t] for i, t in enumerate(texts))]
        assert dest.getvalue().endswith("\n3,plain\n")


class TestParser:
    def test_options_do_not_leak_between_calls(self, capsys):
        assert main(["solve", "--n", "401", "--k", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3
        assert main(["solve", "--n", "401"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 6

    def test_argparse_error_between_calls(self, capsys):
        argv = ["solve", "--n", "201", "--k", "2", "--tau", "0.05"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--omega", "3", "--k", "two"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestVerify:
    def test_reduction_suite_json(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "reduction", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "reduction"
        assert payload["passed"] is True
        for check in payload["checks"]:
            assert set(check) >= {"name", "measured", "tolerance", "passed"}
            assert check["passed"] is True

    def test_failed_check_exit_1(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.VERIFY_SUITES, "reduction",
                            lambda: [cli._check("too large", 2.0, 1.0)])
        rc = main(["verify", "reduction"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == cli.EXIT_VERIFY_FAILED == 1
        assert payload == {
            "suite": "reduction",
            "passed": False,
            "checks": [{"name": "too large", "measured": 2.0, "tolerance": 1.0,
                        "passed": False}],
        }

    def test_susy_bisects_no_grid(self, monkeypatch):
        # Each partner_check seeds all four grids at n = 3001 and 2n - 1: the
        # original's coarse grid with the closed-form levels, the partner's
        # coarse grid with the original's coarse levels 1..k, and each fine
        # grid with its own coarse levels. dstebz only counts (range "V") to
        # certify them, and bisects (range "I") none.
        calls, certified = [], []

        def dstebz(d, e, rng, *args):
            calls.append((rng, d.size))
            return real_dstebz(d, e, rng, *args)

        def polish(*args):
            result = real_polish(*args)
            certified.append(result is not None)
            return result

        real_dstebz, real_polish = solver.dstebz, solver._polish
        monkeypatch.setattr(solver, "dstebz", dstebz)
        monkeypatch.setattr(solver, "_polish", polish)
        assert main(["verify", "susy", "--out", os.devnull]) == 0
        assert calls == [(1, 2999), (1, 5999), (1, 2999), (1, 5999)] * 2
        assert certified == [True] * 8

    def test_susy_reads_only_fine_eigenvectors(self, dstein_calls):
        # No grid needs dstein to be certified; the mapped residuals read the
        # original's fine eigenfunctions (n = 2 * 3001 - 1), once per tau.
        assert main(["verify", "susy", "--out", os.devnull]) == 0
        assert [args[0].size for args in dstein_calls] == [5999, 5999]

    def test_hermitize_bisects_no_grid(self, dstebz_ranges):
        # The closed-form levels (n + 1/2) omega_bar seed the n = 8001 solve:
        # dstebz only counts (range "V") to certify them.
        assert main(["verify", "hermitize", "--out", os.devnull]) == 0
        assert dstebz_ranges == [1]

    def test_vonroos_suite_passes(self, capsys):
        rc = main(["verify", "vonroos"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["passed"] is True
        assert {tuple(c["tolerance"]) for c in payload["checks"]} == {(3.6, 4.4)}

    @pytest.mark.parametrize("measured, passed", [(3.6, True), (4.0, True), (4.5, False),
                                                  (math.nan, False)])
    def test_interval_check(self, measured, passed):
        check = cli._check("ratio", measured, (3.6, 4.4))
        assert check["tolerance"] == [3.6, 4.4]
        assert check["passed"] is passed


class TestTracedCounts:
    """The counts the benchmark's traced pass checks (bench/run.py,
    `traced_phase`): an ok `solve` makes `SOLVE_K` = 6 shooting levels and 2
    eigen_solve calls (the coarse and the fine grid), and no other command
    shoots. This mirrors that check and changes only with it (ROADMAP item 1)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eigen_solve": 0, "shooting_eigenvalue": 0}
        for name in counts:
            def spy(*args, _real=getattr(solver, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(solver, name, spy)
        return counts

    @pytest.mark.parametrize("argv", [
        ["--model", "gup-oscillator", "--omega", "1.0", "--tau", "0.05"],
        ["--model", "swanson", "--omega", "2.0", "--alpha", "0.3", "--beta", "0.1",
         "--tau", "0.05"],
    ], ids=["oscillator", "swanson"])
    def test_solve(self, argv, counts):
        assert main(["solve", *argv, "--out", os.devnull]) == 0
        assert counts == {"eigen_solve": 2, "shooting_eigenvalue": 6}

    @pytest.mark.parametrize("argv", [
        *(["verify", suite] for suite in sorted(cli.VERIFY_SUITES)),
        ["profile", "mass", "--tau", "0.1"],
        ["profile", "veff", "--model", "swanson", "--omega", "2.0", "--alpha", "0.3",
         "--beta", "0.1", "--tau", "0.05", "--energy", "1.5"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_no_other_command_shoots(self, argv, counts):
        assert main([*argv, "--out", os.devnull]) == 0
        assert counts["shooting_eigenvalue"] == 0


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` (say "-c", code) with this checkout's gupmdm."""
    src = str(Path(gupmdm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_solver_imports_no_scipy_interpolate():
    # solver loads scipy's LAPACK extension alone: no scipy.interpolate, and
    # no scipy.linalg package init with the numpy.testing and unittest it imports.
    run = _run_fresh(
        "-c", "import sys, gupmdm.solver; "
        "print(sorted(m for m in sys.modules for p in "
        "('scipy.interpolate', 'scipy.linalg', 'numpy.testing', 'unittest') "
        "if m == p or m.startswith(p + '.')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_commands_without_eigensolve_load_no_scipy(tmp_path):
    # cli imports gupmdm.solver, and with it scipy, only in the commands that
    # eigensolve, so a profile or an operator-identity suite starts without it.
    out = str(tmp_path / "out")
    run = _run_fresh(
        "-c", "import sys; from gupmdm.cli import main; "
        f"codes = [main(argv + ['--out', {out!r}]) for argv in "
        "(['profile', 'mass'], ['verify', 'reduction'], ['verify', 'vonroos'])]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0, 0] []"


PARTNER_DEMO = Path(__file__).resolve().parents[1] / "scripts" / "partner_demo.py"


def test_partner_demo_bad_k_is_usage_error():
    # partner_demo.py maps a ValueError to an argparse error, exit 2, as `gupmdm` does.
    run = _run_fresh(str(PARTNER_DEMO), "-k", "0")
    assert run.returncode == 2
    assert "error:" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv, message", [
    (["--n", "5"], "need 1 <= k <= 2, got 5"),
    (["--tau", "-1"], "tau must be non-negative, got -1.0"),
], ids=["n5", "tau-1"])
def test_partner_demo_bad_grid_or_tau_is_usage_error(argv, message):
    # The message names the values the user gave: at --n 5 the -k 5 asked
    # for, not the original's k + 1 levels.
    run = _run_fresh(str(PARTNER_DEMO), *argv)
    assert run.returncode == 2
    assert f"error: {message}" in run.stderr
    assert "Traceback" not in run.stderr


def test_partner_demo_solver_failure_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverError("levels not resolved")

    monkeypatch.setattr(susy, "partner_check", fail)
    monkeypatch.setattr(sys, "argv", [str(PARTNER_DEMO)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(PARTNER_DEMO), run_name="__main__")
    assert exit_info.value.code == EXIT_SOLVER
    assert capsys.readouterr().err == "solver error: levels not resolved\n"


EXTREME = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300])


@given(
    command=st.sampled_from([["solve"], ["profile", "mass"], ["profile", "veff"]]),
    model=st.sampled_from(["gup-oscillator", "swanson"]),
    omega=st.floats(0.1, 3.0),
    tau=st.floats(0.0, 0.3),
    alpha=st.floats(-0.5, 0.5),
    beta=st.floats(-0.5, 0.5),
    pmax=st.one_of(st.none(), st.floats(1.0, 20.0)),
    energy=st.floats(-10.0, 10.0),
    n=st.integers(-3, 201),
    k=st.integers(-1, 8),
    spoiled=st.sampled_from([None, "omega", "tau", "alpha", "beta", "pmax", "energy"]),
    extreme=EXTREME,
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_main_fuzz_exit_codes(command, spoiled, extreme, **values):
    """Any input exits 0, 2 or 3 without a traceback; exit 0 prints finite numbers.

    One float option at a time (`spoiled`) takes an extreme value.
    """
    if spoiled is not None:
        values[spoiled] = extreme
    names = ["model", "omega", "tau", "n"]
    if values["model"] == "swanson":  # the oscillator has no alpha or beta
        names += ["alpha", "beta"]
    names += {"solve": ["k"], "mass": ["pmax"], "veff": ["pmax", "energy"]}[command[-1]]
    argv = [*command] + [f"--{name}={values[name]}" for name in names
                         if values[name] is not None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), err.getvalue()
    if rc == 0:
        text = out.getvalue().lower()
        assert "nan" not in text and "inf" not in text
    else:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _solve_inputs(draw) -> dict:
    """A `solve` config over the whole family: the oscillator at omega and
    tau omega log-uniform (tau omega up to 1000, or 0), Swanson with alpha,
    beta <= 0.45 omega and tau from 0 to 1.25 times its Q <= 0 edge
    2 (omega - 2 sqrt(alpha beta)) / G."""
    values = {"n": draw(st.integers(201, 4801)), "k": draw(st.integers(1, 8))}
    if draw(st.sampled_from(["gup-oscillator", "swanson"])) == "gup-oscillator":
        omega = draw(_log_uniform(0.1, 10.0))
        tau_omega = draw(st.one_of(st.just(0.0), _log_uniform(1e-4, 1000.0)))
        return {"model": "gup-oscillator", "omega": omega, "tau": tau_omega / omega, **values}
    omega = draw(st.floats(0.5, 4.0))
    alpha, beta = draw(st.floats(0.0, 0.45 * omega)), draw(st.floats(0.0, 0.45 * omega))
    edge = 2.0 * (omega - 2.0 * math.sqrt(alpha * beta)) / (omega * (omega + alpha + beta))
    return {"model": "swanson", "omega": omega, "alpha": alpha, "beta": beta,
            "tau": draw(st.floats(0.0, 1.25)) * edge, **values}


@given(values=_solve_inputs())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_solve_exit_0_means_closed_form(values):
    """Exit 0 means both energy columns are the closed form within 1e-6
    (relative); any other outcome is exit 2 or 3 with a message and nothing
    on stdout."""
    argv = ["solve", *(f"--{key}={value}" for key, value in values.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        params = RunConfig(**values).params()
        rows = [line.split(",") for line in out.getvalue().strip().splitlines()[1:]]
        assert len(rows) == values["k"]
        for row in rows:
            exact = params.exact_energy(int(row[0]))
            assert abs(float(row[2]) - exact) <= 1e-6 * abs(exact), argv
            assert abs(float(row[3]) - exact) <= 1e-6 * abs(exact), argv
    else:
        assert rc in (2, 3), err.getvalue()
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()
