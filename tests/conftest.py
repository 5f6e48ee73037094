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
