import pytest

from gupmdm import solver


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
