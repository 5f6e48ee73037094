import numpy as np
import pytest

from gupmdm import solver
from gupmdm.algebra import LadderRep, hermitized_problem, swanson_coefficients
from gupmdm.core import constant, make_grid, sample
from gupmdm.models import (
    GupOscillatorParams,
    SwansonParams,
    normal_form_grid,
    normal_form_sl,
    p_space_sl,
)


@pytest.fixture
def dstein_calls(monkeypatch):
    """The argument tuples of every `solver.dstein` call the test makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = solver.dstein
    monkeypatch.setattr(solver, "dstein", counted)
    return calls


@pytest.fixture
def dstebz_ranges(monkeypatch):
    """The range argument (1 for "V", 2 for "I") of every `solver.dstebz` call."""
    ranges = []

    def spy(d, e, rng, *args):
        ranges.append(rng)
        return real(d, e, rng, *args)

    real = solver.dstebz
    monkeypatch.setattr(solver, "dstebz", spy)
    return ranges


@pytest.fixture
def sl_problems():
    """(SL problem, phi) on the normal form, the p-space oscillator and Swanson,
    and the hermitized Swanson problem of `verify hermitize` on a coarser grid."""
    nf_grid = normal_form_grid(0.4, 201)
    p_grid = make_grid(-8, 8, 321)
    rep = LadderRep(r=constant(p_grid, np.sqrt(0.5)),
                    s=sample(p_grid, lambda p: p * np.sqrt(0.5)))
    problems = {
        "normal-form": normal_form_sl(0.4, nf_grid),
        "oscillator": p_space_sl(GupOscillatorParams(omega=1.3, tau=0.1), p_grid),
        "swanson": p_space_sl(SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.05), p_grid),
        "hermitized": hermitized_problem(swanson_coefficients(rep, SwansonParams(2.0, 0.3, 0.1))),
    }
    return {name: (slp, sample(slp.grid, lambda p: np.exp(-0.5 * p * p) * (1.0 + p)))
            for name, slp in problems.items()}
