"""Closed-form answers the benchmark checks the program against.

Pure `math`, so importing this module does not pull numpy in before the
set-up timer starts.
"""

from __future__ import annotations

import math

# |E - E_exact| <= EXACT_RTOL * max(1, |E_exact|) counts as a match.
EXACT_RTOL = 1e-6


def oscillator_energy(tau: float, omega: float, n: int) -> float:
    """Kempf-Mangano-Mann spectrum of the deformed oscillator (PRD 52, 1108).

    E_n = omega[(n+1/2)(sqrt(1+g^2/4) + g/2) + g n^2/2] with g = tau*omega,
    in the units of `gupmdm.models.GupOscillatorParams`.
    """
    g = tau * omega
    return omega * ((n + 0.5) * (math.sqrt(1.0 + g * g / 4.0) + g / 2.0) + g * n * n / 2.0)


def swanson_energy(omega: float, alpha: float, beta: float, n: int) -> float:
    """Undeformed Swanson spectrum (n + 1/2) sqrt(omega^2 - 4 alpha beta)."""
    return (n + 0.5) * math.sqrt(omega * omega - 4.0 * alpha * beta)


def exact_energy(point: dict, n: int) -> float | None:
    """Closed-form E_n for an input point, or None where none is known."""
    if point["model"] == "gup-oscillator":
        return oscillator_energy(point["tau"], point["omega"], n)
    if point["tau"] == 0.0:
        return swanson_energy(point["omega"], point["alpha"], point["beta"], n)
    return None


def matches(energy: float, exact: float) -> bool:
    return abs(energy - exact) <= EXACT_RTOL * max(1.0, abs(exact))


def profile_value(point: dict, which: str, p: float) -> float:
    """Closed-form mass M(p) or V_eff(p) - Lambda at one momentum.

    The formulas are those of the deformed Hamiltonians themselves:
    M = (1+tau p^2)^-1 for the oscillator and
    (1+tau p^2)^-(1 + delta/tau) for Swanson, delta = (alpha-beta)/G,
    G = omega(omega+alpha+beta); V_eff - Lambda = (p^2/omega^2 - 2E/omega^2)
    /(1+tau p^2) for the oscillator and
    [C p^2 - (2E+alpha-beta)] (1+tau p^2)^(-1+delta/tau)/G for Swanson.
    """
    tau, omega = point["tau"], point["omega"]
    u = 1.0 + tau * p * p
    if point["model"] == "gup-oscillator":
        if which == "mass":
            return 1.0 / u
        return (p * p - 2.0 * point["energy"]) / (omega * omega * u)
    alpha, beta = point["alpha"], point["beta"]
    big_g = omega * (omega + alpha + beta)
    delta = (alpha - beta) / big_g
    if which == "mass":
        return u ** -(1.0 + delta / tau)
    big_c = (omega - alpha - beta) / omega - (omega + alpha - beta) * tau
    bracket = big_c * p * p - (2.0 * point["energy"] + alpha - beta)
    return bracket * u ** (-1.0 + delta / tau) / big_g
