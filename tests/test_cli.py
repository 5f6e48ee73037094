"""End-to-end tests of the command-line front end."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupmdm import cli
from gupmdm.cli import (
    ConfigError,
    RunConfig,
    config_from_sources,
    emit_config,
    main,
    parse_config_text,
)
from gupmdm.core import make_grid
from gupmdm.models import GupOscillatorParams, gup_oscillator_sl, normal_form_grid, normal_form_sl
from gupmdm.solver import ANGLE_TOL, Shooter, SolverError, shooting_eigenvalue, solve_sl

FAST = ["--n", "201", "--k", "3"]


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(model="swanson", omega=2.0, alpha=0.3, beta=0.1,
                        tau=0.05, n=401, k=4, format="json")
        parsed = config_from_sources(parse_config_text(emit_config(cfg)), {})
        assert parsed == cfg

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
        assert payload["meta"]["config"]["n"] == 201
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
        assert len(funcs) == 402  # header + refined grid (2n-1 points)

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
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: 0.5)
        rc = main(["solve", *FAST])
        captured = capsys.readouterr()
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
        shooter = Shooter(normal_form_sl(eps, normal_form_grid(eps, cfg.n).refined()))
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
            solve_sl(gup_oscillator_sl(params, make_grid(-pmax, pmax, 1201)), 6)

    @pytest.mark.parametrize("argv, message", [
        (["--model", "swanson", "--omega", "2", "--alpha", "0.3", "--beta", "0.1",
          "--tau", "0.8"], "<= 0 at tau = 0.8"),
        (["--tau", "1e300"], "not finite at tau = 1e+300"),
        (["--tau", "inf"], "not finite at tau = inf"),
    ], ids=["oscillatory-end", "huge-tau", "inf-tau"])
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

    def test_vonroos_suite_passes(self, capsys):
        rc = main(["verify", "vonroos"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["passed"] is True


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
    names = ["model", "omega", "tau", "alpha", "beta", "n"]
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
