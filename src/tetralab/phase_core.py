"""Symplectic calculus on flat phase charts.

Conventions used throughout the package
---------------------------------------
Coordinates on a chart with n pairs are ordered ``(p_1..p_n, q_1..q_n)``
and the symplectic form is the standard ``omega = dp ^ dq``.  Hamiltonian
vector fields are defined by ``i_v omega = -dH``, which in coordinates
reads

    pdot_i = -dH/dq_i,    qdot_i = +dH/dp_i.

The Poisson bracket is ``{F, G} = dF(sgrad G)``, i.e. the rate of change
of F along the flow of G.  Under the sign convention above this gives

    {F, G} = sum_i dF/dq_i * dG/dp_i - dF/dp_i * dG/dq_i,

so in particular ``{p, q} = -1``.  The literature is split on this sign;
it is fixed once here and everything else in the package follows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class EvaluationError(ValueError):
    """A Hamiltonian callback returned a non-finite value.

    Carries the offending phase-space point in ``point``.
    """

    def __init__(self, message, point):
        super().__init__(f"{message} at point {np.asarray(point)!r}")
        self.point = np.array(point, dtype=float)


@dataclass(frozen=True)
class PhaseChart:
    """Flat chart R^{2n} with optional flat-torus q-factors.

    ``periodic[i]`` marks q_i as an angle coordinate identified mod 1.
    """

    dim_pairs: int
    periodic: tuple = ()
    labels: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.dim_pairs < 1:
            raise ValueError("dim_pairs must be >= 1")
        per = tuple(bool(b) for b in self.periodic)
        if not per:
            per = (False,) * self.dim_pairs
        if len(per) != self.dim_pairs:
            raise ValueError("periodic mask length must equal dim_pairs")
        object.__setattr__(self, "periodic", per)
        object.__setattr__(self, "_periodic_cols",
                           self.dim_pairs + np.flatnonzero(per))
        if not self.labels:
            n = self.dim_pairs
            labels = tuple(f"p{i+1}" for i in range(n)) + tuple(
                f"q{i+1}" for i in range(n)
            )
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self):
        return 2 * self.dim_pairs

    def wrap(self, coords):
        """Reduce periodic q-coordinates to [0, 1); accepts (..., 2n)."""
        out = np.array(coords, dtype=float)
        cols = self._periodic_cols
        if cols.size:
            w = out[..., cols] % 1.0
            # x % 1.0 can round to exactly 1.0 for tiny negative x
            w[w == 1.0] = 0.0
            out[..., cols] = w
        return out


@dataclass(frozen=True)
class HamiltonianSpec:
    """Scalar field on chart x time with an analytic gradient callback.

    ``value(x, t)`` returns a float, ``gradient(x, t)`` the covector
    ``(dH/dp_1.., dH/dq_1..)`` as a length-2n array.  Callbacks receive a
    float ndarray and must be pure: on a chart with a periodic
    coordinate it is a reduced copy, on a flat chart the caller's own
    array, so a callback must not write to it.  ``H(x, t)`` and
    ``H.grad(x, t)`` return arrays that share no memory with ``x`` and
    test the result for finiteness with one reduction, raising
    ``EvaluationError`` at the first non-finite row.

    Batch contract: both callbacks also accept a stack of points of shape
    ``(..., 2n)`` and return ``value`` of shape ``(...)`` and ``gradient``
    of shape ``(..., 2n)``, row by row equal to the single-point results.
    ``t`` is then a scalar or an array broadcasting against ``(...)``
    (one time per row).  ``H(x, t)`` and ``H.grad(x, t)`` follow the same
    shapes; ``H(x, t)`` returns a float for a single point.

    ``autonomous=False`` declares a time dependence of period 1 in t: the
    chord search sweeps start phases over one period and extrema are
    taken over one period.
    """

    chart: PhaseChart
    value: Callable
    gradient: Callable
    autonomous: bool = True
    name: str = ""

    def _check(self, what, out, x):
        """Raise on a non-finite result, naming the first bad point."""
        bad = ~np.isfinite(out)
        if bad.any():
            if out.ndim == x.ndim:
                bad = bad.any(axis=-1)
            raise EvaluationError(f"non-finite {what} of {self.name or 'H'}",
                                  x[bad][0] if x.ndim > 1 else x)

    def _evaluate(self, what, fn, x, t):
        """``fn`` at (x, t) as a float array of its own."""
        if self.chart._periodic_cols.size:
            x = self.chart.wrap(x)
        else:
            x = np.asarray(x, dtype=float)  # no copy: callbacks are pure
        out = np.asarray(fn(x, t), dtype=float)
        # a non-finite element makes the sum non-finite; an overflowing
        # sum of finite elements passes _check
        if not math.isfinite(out.sum()):
            self._check(what, out, x)
        if np.may_share_memory(out, x):
            out = out.copy()
        return out

    def __call__(self, x, t=0.0):
        v = self._evaluate("value", self.value, x, t)
        return float(v) if v.ndim == 0 else v

    def grad(self, x, t=0.0):
        return self._evaluate("gradient", self.gradient, x, t)


def sgrad(H: HamiltonianSpec, x, t=0.0):
    """Hamiltonian vector field of H at (x, t): (-dH/dq, +dH/dp).

    Accepts a point or a ``(..., 2n)`` stack (see ``HamiltonianSpec``).
    """
    g = H.grad(x, t)
    n = H.chart.dim_pairs
    out = np.empty_like(g)
    np.negative(g[..., n:], out=out[..., :n])
    out[..., n:] = g[..., :n]
    return out


def poisson_bracket(F: HamiltonianSpec, G: HamiltonianSpec, x, t=0.0):
    """{F, G} = dF(sgrad G) = sum_i F_q G_p - F_p G_q (so {p,q} = -1)."""
    gf = F.grad(x, t)
    gg = G.grad(x, t)
    n = F.chart.dim_pairs
    return float(np.dot(gf[n:], gg[:n]) - np.dot(gf[:n], gg[n:]))


def _pfaffian(a):
    """Pfaffian of a real antisymmetric matrix via the real Schur form."""
    import scipy.linalg  # here, so that importing the package skips it

    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    if m % 2:
        return 0.0
    t, z = scipy.linalg.schur(a, output="real")
    pf = np.linalg.det(z)
    for i in range(0, m, 2):
        pf *= t[i, i + 1]
    return float(pf)


@dataclass(frozen=True)
class VolumeFactor:
    """Result of the deformed-volume identity check at one point.

    ``det_ratio`` is the top-power ratio of the deformed form
    omega_tau = omega + tau dF^dG against omega, computed as a Pfaffian
    ratio of the assembled 2n x 2n matrices; ``analytic`` is the closed
    form 1 - tau*{F, G}.  ``degenerate`` flags tau*{F,G} >= 1, where
    omega_tau stops being symplectic.
    """

    det_ratio: float
    analytic: float
    degenerate: bool


def omega_matrix(n):
    """Matrix of omega = dp^dq in (p, q) block order: omega(e_i,e_j)."""
    o = np.zeros((2 * n, 2 * n))
    o[:n, n:] = np.eye(n)
    o[n:, :n] = -np.eye(n)
    return o


def volume_factor(F, G, tau, x, t=0.0) -> VolumeFactor:
    n = F.chart.dim_pairs
    gf = F.grad(x, t)
    gg = G.grad(x, t)
    m = omega_matrix(n) + tau * (np.outer(gf, gg) - np.outer(gg, gf))
    ratio = _pfaffian(m) / _pfaffian(omega_matrix(n))
    pb = poisson_bracket(F, G, x, t)
    analytic = 1.0 - tau * pb
    return VolumeFactor(
        det_ratio=float(ratio),
        analytic=float(analytic),
        degenerate=bool(tau * pb >= 1.0),
    )
