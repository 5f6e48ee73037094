"""Acceptance gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and then asserts the criterion at its
stated tolerance.
"""

import math

import numpy as np
import pytest

from gupmdm.core import constant, inner_slice, make_grid, sample
from gupmdm.models import (
    GupOscillatorParams,
    SwansonParams,
    gup_oscillator_raw,
    gup_oscillator_sl,
    raw_residual_values,
    sl_residual_values,
    swanson_sl,
)
from gupmdm.solver import richardson, shooting_eigenvalue, solve_sl
from gupmdm.susy import partner_check
from gupmdm.algebra import (
    LadderRep,
    apply_ladder,
    apply_ladder_adjoint,
    hermitized_problem,
    ladder_commutator,
    similarity_weight,
    swanson_coefficients,
    untransformed_residual,
)
from gupmdm.vonroos import (
    AmbiguityParams,
    MassFunction,
    reduced_form_apply,
    vonroos_apply,
)
from gupmdm import cli


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")


TAUS = (0.0, 0.01, 0.05, 0.1)
OMEGAS = (0.5, 1.0, 2.0)


@pytest.fixture(scope="session")
def cross_method_matrix():
    """Extrapolated matrix eigenvalues and shooting eigenvalues for the
    (tau, omega) grid, lowest 6 levels each; shared by criteria 3 and 9."""
    results = {}
    for tau in TAUS:
        for omega in OMEGAS:
            params = GupOscillatorParams(omega=omega, tau=tau)
            pmax = 12.0 / math.sqrt(omega)
            g1 = make_grid(-pmax, pmax, 1201)
            g2 = g1.refined()
            spec1 = solve_sl(gup_oscillator_sl(params, g1), 6)
            slp2 = gup_oscillator_sl(params, g2)
            spec2 = solve_sl(slp2, 6)
            lam = np.array(
                [
                    richardson(float(a), float(b))
                    for a, b in zip(spec1.eigenvalues, spec2.eigenvalues)
                ]
            )
            lam_shoot = np.array(
                [shooting_eigenvalue(slp2, i).eigenvalue for i in range(6)]
            )
            results[(tau, omega)] = (params, lam, lam_shoot)
    return results


def test_criterion_01_undeformed_oscillator_spectrum():
    params = GupOscillatorParams(omega=1.0, tau=0.0)
    g1 = make_grid(-12, 12, 1201)
    g2 = g1.refined()
    spec1 = solve_sl(gup_oscillator_sl(params, g1), 10)
    spec2 = solve_sl(gup_oscillator_sl(params, g2), 10)
    errs = []
    for n in range(10):
        lam = richardson(float(spec1.eigenvalues[n]), float(spec2.eigenvalues[n]))
        errs.append(abs(params.energy_from_eigenvalue(lam) - (n + 0.5)))
    worst = max(errs)
    ok = worst <= 1e-6
    report(1, "undeformed oscillator spectrum", ok, f"max |E_n-(n+1/2)| = {worst:.3g}")
    assert ok


def test_criterion_02_swanson_spectrum():
    params = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)
    omega_bar = math.sqrt(3.88)
    g1 = make_grid(-10, 10, 1601)
    g2 = g1.refined()
    spec1 = solve_sl(swanson_sl(params, g1), 6)
    spec2 = solve_sl(swanson_sl(params, g2), 6)
    errs = []
    for n in range(6):
        lam = richardson(float(spec1.eigenvalues[n]), float(spec2.eigenvalues[n]))
        errs.append(abs(params.energy_from_eigenvalue(lam) - (n + 0.5) * omega_bar))
    worst = max(errs)
    ok = worst <= 1e-5
    report(2, "Swanson spectrum", ok, f"max |E_n-(n+1/2)*omega_bar| = {worst:.3g}")
    assert ok


def test_criterion_03_cross_method_oracle(cross_method_matrix):
    worst = 0.0
    for (tau, omega), (_, lam, lam_shoot) in cross_method_matrix.items():
        rel = np.abs(lam - lam_shoot) / np.abs(lam)
        worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-6
    report(3, "cross-method oracle", ok, f"worst relative disagreement = {worst:.3g}")
    assert ok


def test_criterion_04_vonroos_identity_convergence():
    tau = 0.1
    ok_all = True
    details = []
    for a, b in ((0.0, -1.0), (-0.5, 0.0), (0.0, 0.0), (-1.0, 0.0)):
        amb = AmbiguityParams(a, b)
        devs = []
        for n in (401, 801, 1601):
            grid = make_grid(-6.0, 6.0, n)
            mass = MassFunction.from_profile(
                sample(grid, lambda p: 1.0 / (1.0 + tau * p * p))
            )
            V = sample(grid, lambda p: p * p)
            phi = sample(grid, lambda p: np.exp(-0.5 * p * p))
            lhs = vonroos_apply(mass, amb, phi) + V * phi
            rhs = reduced_form_apply(mass, amb, V, phi)
            sl = inner_slice(n)
            devs.append(float(np.max(np.abs(lhs.values[sl] - rhs.values[sl]))))
        if devs[-1] < 1e-11:
            # For orderings where both application paths are the same discrete
            # expression the deviation is rounding noise; there is no h^2
            # trend left to measure.
            details.append(f"(a={a},b={b}) rounding floor {devs[-1]:.2g}")
            continue
        for i in range(2):
            ratio = devs[i] / devs[i + 1]
            if not 3.6 <= ratio <= 4.4:
                ok_all = False
            details.append(f"(a={a},b={b}) ratio {ratio:.3f}")
    report(4, "von Roos identity h^2 convergence", ok_all, "; ".join(details))
    assert ok_all


def test_criterion_05_sl_reduction_equivalence():
    tau, omega = 0.1, 1.0
    grid = make_grid(-8.0, 8.0, 801)
    params = GupOscillatorParams(omega=omega, tau=tau)
    raw = gup_oscillator_raw(params, grid)
    slp = gup_oscillator_sl(params, grid)
    u = sample(grid, lambda p: 1.0 + tau * p * p)
    worst = 0.0
    for j, (amp, width, shift) in enumerate(
        [(1.0, 1.0, 0.0), (0.7, 1.3, 0.5), (1.2, 0.8, -0.4), (0.5, 2.0, 1.0),
         (1.0, 0.6, -1.2)]
    ):
        phi = sample(grid, lambda p: amp * np.exp(-0.5 * ((p - shift) / width) ** 2))
        lam = 1.0 + 0.1 * j
        lhs = u * raw_residual_values(raw, phi, lam)
        rhs = sl_residual_values(slp, phi, lam)
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    ok = worst <= 1e-12
    report(5, "SL reduction equivalence", ok, f"max pointwise defect = {worst:.3g}")
    assert ok


def test_criterion_06_susy_isospectrality():
    worst_shift, worst_res = 0.0, 0.0
    for tau, pmax in ((0.0, 8.0), (0.05, 14.0)):
        pc = partner_check(tau, pmax, 3001, k=5)
        worst_shift = max(worst_shift, float(np.max(pc.shift_defects)))
        worst_res = max(worst_res, float(np.max(pc.mapped_residuals)))
    ok = worst_shift <= 1e-4 and worst_res <= 1e-3
    report(
        6,
        "SUSY isospectrality",
        ok,
        f"max |Lambda_1,n - Lambda_n+1| = {worst_shift:.3g}, "
        f"max mapped residual = {worst_res:.3g}",
    )
    assert ok


def test_criterion_07_hermitization():
    params = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)
    grid = make_grid(-10.0, 10.0, 8001)
    rep = LadderRep(r=constant(grid, 1.0), s=sample(grid, lambda p: p))
    coeffs = swanson_coefficients(rep, params)
    rho = similarity_weight(coeffs)
    spec = solve_sl(hermitized_problem(coeffs), 5)
    worst = 0.0
    for n in range(5):
        res = untransformed_residual(
            coeffs, rho, spec.eigenfunctions[n], float(spec.eigenvalues[n])
        )
        worst = max(worst, res)
    herm = SwansonParams(omega=2.0, alpha=0.2, beta=0.2, tau=0.0)
    rho_h = similarity_weight(swanson_coefficients(rep, herm))
    rho_dev = float(np.max(np.abs(rho_h.values - 1.0)))
    ok = worst <= 1e-4 and rho_dev == 0.0
    report(
        7,
        "Hermitization",
        ok,
        f"max mapped residual = {worst:.3g}, alpha=beta rho deviation = {rho_dev:.3g}",
    )
    assert ok


def test_criterion_08_commutator_convergence_order():
    pairs = [
        (lambda p: 1.0 + 0.05 * p * p, lambda p: p + 0.1 * np.sin(p)),
        (lambda p: np.exp(0.02 * p * p), lambda p: 0.5 * p),
        (lambda p: 2.0 + np.cos(0.5 * p), lambda p: 0.05 * p**3),
    ]
    ok_all = True
    details = []
    for j, (rf, sf) in enumerate(pairs):
        errs, hs = [], []
        for n in (401, 801, 1601):
            g = make_grid(-6, 6, n)
            rep = LadderRep(r=sample(g, rf), s=sample(g, sf))
            phi = sample(g, lambda p: np.exp(-0.5 * p * p))
            lhs = apply_ladder(rep, apply_ladder_adjoint(rep, phi)) - (
                apply_ladder_adjoint(rep, apply_ladder(rep, phi))
            )
            rhs = ladder_commutator(rep) * phi
            sl = inner_slice(n)
            errs.append(float(np.max(np.abs(lhs.values[sl] - rhs.values[sl]))))
            hs.append(g.h)
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        if not 1.9 <= slope <= 2.1:
            ok_all = False
        details.append(f"pair {j} slope {slope:.3f}")
    report(8, "commutator formula convergence order", ok_all, "; ".join(details))
    assert ok_all


def test_criterion_09_tau_continuity(cross_method_matrix):
    # Proximity of the tau -> 0 limit. At omega = 0.5 the perturbative shift
    # dE_n/dtau = omega^2 (n^2+n+1/2)/2 keeps all six levels inside the 1e-3
    # window at tau = 1e-4.
    omega = 0.5
    params0 = GupOscillatorParams(omega=omega, tau=0.0)
    params1 = GupOscillatorParams(omega=omega, tau=1e-4)
    g = make_grid(-17, 17, 1201)
    spec0 = solve_sl(gup_oscillator_sl(params0, g), 6)
    spec1 = solve_sl(gup_oscillator_sl(params1, g), 6)
    e0 = np.array([params0.energy_from_eigenvalue(v) for v in spec0.eigenvalues])
    e1 = np.array([params1.energy_from_eigenvalue(v) for v in spec1.eigenvalues])
    shift = float(np.max(np.abs(e1 - e0)))

    # Monotone trend over the tau sweep, both solvers agreeing on each point.
    trend_ok, agree_worst = True, 0.0
    prev = None
    for tau in TAUS:
        params, lam, lam_shoot = cross_method_matrix[(tau, omega)]
        energies = np.array([params.energy_from_eigenvalue(v) for v in lam])
        agree_worst = max(
            agree_worst, float(np.max(np.abs(lam - lam_shoot) / np.abs(lam)))
        )
        if prev is not None and not np.all(energies > prev):
            trend_ok = False
        prev = energies
    ok = shift <= 1e-3 and trend_ok and agree_worst <= 1e-6
    report(
        9,
        "tau-continuity",
        ok,
        f"max |E(1e-4)-E(0)| = {shift:.3g}, trend monotone = {trend_ok}, "
        f"solver agreement = {agree_worst:.3g}",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    args = ["solve", "--n", "401", "--k", "4", "--tau", "0.05"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    report(10, "determinism", ok, f"{a.stat().st_size} bytes, byte-identical = {ok}")
    assert ok


SWANSON = dict(model="swanson", omega=2.0, alpha=0.3, beta=0.1)
CLOSED_FORM_POINTS = (
    [dict(model="gup-oscillator", tau=tau, omega=omega) for tau in TAUS for omega in OMEGAS]
    + [dict(SWANSON, tau=tau) for tau in (0.0, 0.05, 0.1, 0.2)]
    + [dict(SWANSON, alpha=0.1, beta=0.3, tau=0.1),          # alpha < beta
       dict(model="gup-oscillator", tau=0.5, omega=2.0)]     # tau * omega = 1
)


def test_criterion_11_closed_form_spectra(tmp_path):
    # `gupmdm solve` at its defaults against the closed forms: the
    # Kempf-Mangano-Mann spectrum and its Swanson analogue, (n+1/2) omega_bar
    # at tau = 0 (`exact_energy`).
    out = tmp_path / "solve.csv"
    worst, where = 0.0, None
    for point in CLOSED_FORM_POINTS:
        argv = [f"--{name}={value}" for name, value in point.items()]
        assert cli.main(["solve", *argv, "--out", str(out)]) == 0, point
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        params = cli.RunConfig(**point).params()
        for row in rows:
            n, energy = int(row[0]), float(row[2])
            rel = abs(energy - params.exact_energy(n)) / params.exact_energy(n)
            if rel > worst:
                worst, where = rel, (point, n)
    ok = worst <= 1e-6
    report(11, "closed-form spectra", ok,
           f"{len(CLOSED_FORM_POINTS)} points, worst relative error {worst:.3g} at {where}")
    assert ok
