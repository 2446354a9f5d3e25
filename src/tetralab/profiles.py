"""Smooth one-dimensional profiles with analytic slopes.

Every function here accepts a float or an array and works elementwise,
so the Hamiltonians built from them can be evaluated on stacks of
points (see ``HamiltonianSpec``).  A float argument gives a float back.
Polynomials are written with products only: a power of an array may go
through a vectorised ``pow`` that rounds differently from the scalar
one, and a point's value would then depend on the batch it sits in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _unit(x):
    """x clipped to [0, 1]."""
    if isinstance(x, float):  # one point: skip the ufunc call overhead
        return min(max(x, 0.0), 1.0)
    return np.minimum(np.maximum(x, 0.0), 1.0)


def smoothstep(x):
    """C^1 step 3x^2 - 2x^3 on [0, 1], constant outside."""
    x = _unit(x)
    return x * x * (3 - 2 * x)


def smoothstep_int(x):
    """Integral of ``smoothstep`` from 0 to x (x clipped to [0, 1])."""
    x = _unit(x)
    return x * x * x * (1 - x / 2.0)


def quintic(x):
    """C^2 step 6x^5 - 15x^4 + 10x^3 on [0, 1], constant outside."""
    x = _unit(x)
    return x * x * x * (x * (6 * x - 15) + 10)


def quintic_d(x):
    """Slope 30 x^2 (1 - x)^2 of ``quintic``; zero outside (0, 1)."""
    x = _unit(x)
    u = x * (1 - x)
    return 30 * u * u


@dataclass(frozen=True)
class Plateau:
    """C^2 profile equal to 1 on [lo, hi], 0 outside [lo-roll, hi+roll].

    The rising and falling quintics are constant off their own rolls, so
    their product is the profile and the sum of their slopes its slope.
    """

    lo: float
    hi: float
    roll: float

    def _args(self, y):
        return ((y - (self.lo - self.roll)) / self.roll,
                (y - self.hi) / self.roll)

    def value(self, y):
        rise, fall = self._args(y)
        return quintic(rise) * (1.0 - quintic(fall))

    def deriv(self, y):
        rise, fall = self._args(y)
        return (quintic_d(rise) - quintic_d(fall)) / self.roll
