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
from typing import Callable, Optional

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
        object.__setattr__(self, "_periodic_cols", tuple(
            self.dim_pairs + i for i, b in enumerate(per) if b))
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
        for c in self._periodic_cols:  # in place, by basic indexing
            w = out[..., c]
            np.remainder(w, 1.0, out=w)
            # x % 1.0 can round to exactly 1.0 for tiny negative x
            w[w == 1.0] = 0.0
        return out

    def wrap_point(self, xs):
        """``wrap`` for one point on Python floats: a reduced copy of the
        list ``xs``, each periodic coordinate rounding as in ``wrap``."""
        xs = list(xs)
        for i in self._periodic_cols:
            w = xs[i] % 1.0
            xs[i] = 0.0 if w == 1.0 else w
        return xs


def row_sum(v):
    """The sum of the list of floats v as numpy's ``sum(axis=-1)`` adds a
    row, so that a float twin that sums rounds as its row: onto 0.0 (so
    -0.0 terms sum to 0.0), below 8 terms in index order, up to 128 in
    numpy's eight interleaved partial sums, combined as ((r0 + r1) + (r2 +
    r3)) + ((r4 + r5) + (r6 + r7)), then the tail in order, and above 128
    as two halves split at a multiple of 8 (pairwise summation: Higham,
    SIAM J. Sci. Comput. 14, 1993)."""
    n = len(v)
    acc = 0.0
    if n >= 8:
        if n > 128:
            half = n // 2 - n // 2 % 8
            return row_sum(v[:half]) + row_sum(v[half:])
        r = v[:8]
        for i in range(8, n - n % 8, 8):
            r = [a + b for a, b in zip(r, v[i:i + 8])]
        acc += (((r[0] + r[1]) + (r[2] + r[3]))
                + ((r[4] + r[5]) + (r[6] + r[7])))
        v = v[n - n % 8:]
    for x in v:
        acc += x
    return acc


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

    ``point_gradient(x, t)``, optional, is the gradient at one point on
    Python floats: ``x`` is a list of 2n floats with periodic
    coordinates reduced as ``PhaseChart.wrap`` reduces them, and the
    result is 2n floats equal bit for bit to the row ``gradient`` gives
    (a sum over coordinates is ``row_sum``, numpy's order).  Only
    ``sgrad`` reads it, for a point given as a list of floats (as
    ``integrate`` steps one), where it spares numpy's per-call cost on
    a 2n-vector.

    ``feature_width`` (inf, the default: none) bounds the phase-space
    width of H's narrowest localized feature from below: no integrator
    step moves a point farther, so none crosses a feature unsampled.
    """

    chart: PhaseChart
    value: Callable
    gradient: Callable
    autonomous: bool = True
    name: str = ""
    point_gradient: Optional[Callable] = None
    feature_width: float = math.inf

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
        if self.chart._periodic_cols:
            x = self.chart.wrap(x)
        else:
            x = np.asarray(x, dtype=float)  # no copy: callbacks are pure
        out = np.asarray(fn(x, t), dtype=float)
        # one elementwise test: no reduction that could overflow, and so
        # no warning, on finite values
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            self._check(what, out, x)
        # only x itself or a view (an array with a base) can share x's
        # memory
        if out is x or out.base is not None and np.may_share_memory(out, x):
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
    A list of Python floats, as ``integrate`` steps a point, is evaluated
    on floats by a spec's ``point_gradient`` and gets a list back; a
    non-finite component sends it through ``H.grad``, which raises the
    ``EvaluationError``.  Any other ``x`` (an array point, a stack, a
    nested list) is evaluated as ``H.grad`` evaluates it and gets an
    array, by C-level numpy calls only (the sweep calls this on every
    stage).
    """
    n = H.chart.dim_pairs
    floats = isinstance(x, list) and isinstance(x[0], float)
    if floats and H.point_gradient is not None:
        g = H.point_gradient(H.chart.wrap_point(x), t)
        if all(map(math.isfinite, g)):
            out = [-v for v in g[n:]]
            out += g[:n]
            return out
    g = H._evaluate("gradient", H.gradient, x, t)  # H.grad, a frame less
    out = np.empty(g.shape)
    np.negative(g[..., n:], out=out[..., :n])
    out[..., n:] = g[..., :n]
    return out.tolist() if floats else out


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
