"""Deformed-oscillator eigenproblems as momentum-dependent-mass SL problems."""

__version__ = "0.1.0"
