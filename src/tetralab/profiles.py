"""Smooth one-dimensional profiles with analytic slopes.

Every function here accepts a float or an array and works elementwise,
so the Hamiltonians built from them can be evaluated on stacks of
points (see ``HamiltonianSpec``).  A float argument gives a float back.
Polynomials are written with products only: a power of an array may go
through a vectorised ``pow`` that rounds differently from the scalar
one, and a point's value would then depend on the batch it sits in.

``PlateauStack`` evaluates several plateaus in one pass: row i of its
argument goes to plateau i, and the rising and falling arguments of all
rows are clipped, raised to the quintic and differentiated together.
Each element goes through the same operations as in ``Plateau.value``
and ``Plateau.deriv``, so the results are bit-identical; what the stack
saves is the per-call overhead of many small array operations.
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


def _quintic_on_unit(x):
    """x * x * x * (x * (6 * x - 15) + 10), an array's temporaries
    updated in place."""
    q = x * x
    q *= x
    b = 6.0 * x
    b -= 15.0
    b *= x
    b += 10.0
    q *= b
    return q


def _quintic_d_on_unit(x):
    """30 * u * u for u = x * (1 - x), in place as above."""
    u = 1.0 - x
    u *= x
    d = 30.0 * u
    d *= u
    return d


def quintic(x):
    """C^2 step 6x^5 - 15x^4 + 10x^3 on [0, 1], constant outside."""
    return _quintic_on_unit(_unit(x))


def quintic_d(x):
    """Slope 30 x^2 (1 - x)^2 of ``quintic``; zero outside (0, 1)."""
    return _quintic_d_on_unit(_unit(x))


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


class PlateauStack:
    """Values and slopes of m plateaus, evaluated on m rows at once.

    ``values_and_slopes(y)`` takes ``y`` of shape ``(m, ...)`` and
    returns two arrays of that shape: row i holds
    ``plateaus[i].value(y[i])`` and ``plateaus[i].deriv(y[i])``, bit for
    bit.
    """

    def __init__(self, plateaus):
        self.m = len(plateaus)
        # rising-argument origins lo - roll in layer 0, falling ones hi in 1
        self._start = np.array([[[pl.lo - pl.roll] for pl in plateaus],
                                [[pl.hi] for pl in plateaus]])
        self._roll = np.array([[pl.roll] for pl in plateaus])

    def values_and_slopes(self, y):
        x = y.reshape(self.m, -1) - self._start
        x /= self._roll
        np.minimum(np.maximum(x, 0.0, out=x), 1.0, out=x)
        q, d = _quintic_on_unit(x), _quintic_d_on_unit(x)
        value = 1.0 - q[1]
        value *= q[0]
        slope = d[0] - d[1]
        slope /= self._roll
        return value.reshape(y.shape), slope.reshape(y.shape)
