"""Model contact geometries, Reeb flows and Lagrangian tetragons.

Three models are supported, each with a closed-form Reeb flow and an
explicit symplectization chart:

* ``CircleModel`` -- Sigma = S^1(u) with lambda0 = du; symplectization is
  the cylinder S^1(u) x R_+(s) with omega = ds^du (chart order (s, u)).
* ``TorusModel(k)`` -- Sigma = {|p| = 1} in T*T^k with lambda0 = p dq;
  the Reeb flow is the Euclidean geodesic flow (p, q) -> (p, q + p t);
  symplectization embeds into T*T^k \\ T^k via (p, q, s) -> (s p, q).
* ``SphereModel(k)`` -- Sigma = S^{2k-1} in C^k = R^{2k}(p, q) with
  lambda0 = (p dq - q dp)/2 and Reeb flow z -> e^{2 i t} z;
  symplectization embeds into C^k \\ 0 via (z, s) -> sqrt(s) z.

A tetragon is built from a Legendrian L, Reeb time T and radii
0 < R0 < R1 as the image of L x [R0, R1] x [0, T] under
Phi(x, s, t) = embed(psi_t(x), s).  Each model supplies Phi and its
tangents in closed form, and the distance and event functionals of a
horizontal piece and of a wall; ``build_tetragon`` lays out the four
regions floor / ceiling / low wall / high wall once for all models.
Condition (C2), psi_t(L) disjoint from L for 0 < t <= T, is checked
once, in closed form: ``ContactModel.check_reeb_time`` keeps T within
the model's first return of L to itself, and a property test checks
each model's bound.
Regions expose membership within the band ``MEMBER_TOL``, a
nonnegative distance proxy that vanishes exactly on the region, a
deterministic seed sampler, and a scalar event functional whose zero
level encloses the region (used for trajectory event detection).  A
sample grid is evaluated in one call (``Region.param_points``: ``phi``
takes arrays of parameters), and every event functional but the sphere
wall's carries a float twin for one point, which ``dynamics.integrate``
evaluates without numpy; the sphere wall's polar angle needs numpy's
``arctan2``, which differs from ``math.atan2`` in the last bit on some
arguments.  Squares are products, and a twin's sums are
``phase_core.row_sum``, as the batch contract needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .phase_core import PhaseChart, row_sum

_TINY = np.finfo(float).tiny

# a point is a member of a region within this distance of it
MEMBER_TOL = 1e-6

# the radial levels R0 < R1 of a tetragon whose caller names none
_DEFAULT_R0, _DEFAULT_R1 = 1.0, 2.0


class ParameterError(ValueError):
    """A model or tetragon parameter is out of its admissible range."""


def check_radii(R0, R1):
    """Raise ``ParameterError``, naming both values, unless the radial
    levels are finite with 0 < R0 < R1 (a NaN fails every comparison)."""
    if not (0.0 < R0 < R1 < math.inf):
        raise ParameterError(f"need 0 < R0 < R1 < inf, got R0={R0}, R1={R1}")


def _wrap_half(x):
    """Wrap to [-0.5, 0.5): nearest representative on the unit torus."""
    w = (np.asarray(x, dtype=float) + 0.5) % 1.0 - 0.5
    # (x + 0.5) % 1.0 can round to exactly 1.0 just below the seam
    return np.where(w == 0.5, -0.5, w)


def _point_wrap_half(x):
    """``_wrap_half`` of a float, as a float."""
    w = (x + 0.5) % 1.0 - 0.5
    return -0.5 if w == 0.5 else w


def _interval_excess(x, lo, hi):
    """Distance of x to the interval [lo, hi]."""
    return np.maximum(np.maximum(lo - x, 0.0), x - hi)


def _norm(x):
    """Euclidean norm over the last axis."""
    return np.sqrt(np.sum(x * x, axis=-1))


def _col(v):
    """v against the last axis of a stack: a float as it is, an ``(m,)``
    array as an ``(m, 1)`` column."""
    return v[..., None] if np.ndim(v) else v


def _cos_sin(a):
    """(cos a, sin a): math's for a float, numpy's columns for an ``(m,)``
    array (the two round alike)."""
    if np.ndim(a):
        return np.cos(a)[..., None], np.sin(a)[..., None]
    return math.cos(a), math.sin(a)


def unit_sphere_point(angles, k):
    """Hyperspherical parametrization of S^{k-1} in R^k by a sequence of
    k - 1 angles, or of each row of an ``(m, k - 1)`` array of them
    (``(m, k)`` out).

    k = 1 has no angles (the caller picks the component +-1); for k >= 2
    the first angle runs over [0, 2 pi) so that k = 2 covers the circle.
    """
    angles = np.asarray(angles, dtype=float)
    x = np.empty(angles.shape[:-1] + (k,))
    sin_prod = 1.0
    for j in range(k - 1):
        cos, sin = _cos_sin(angles[..., j])
        x[..., j:j + 1] = sin_prod * cos
        sin_prod = sin_prod * sin
    x[..., k - 1:] = sin_prod
    return x


def unit_sphere_tangent(angles, k, j):
    """d/d angle_j of unit_sphere_point (analytic product rule)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if k == 1:
        return np.zeros(1)
    out = np.zeros(k)
    for m in range(j, k):
        # x_m = prod_{i<m} sin(a_i) * cos(a_m), with cos absent for m=k-1
        prod = 1.0
        for i in range(min(m + 1, k - 1)):
            if i == j:
                prod *= (math.cos(angles[i]) if i < m
                         else -math.sin(angles[i]))
            else:
                prod *= (math.sin(angles[i]) if i < m
                         else math.cos(angles[i]))
        out[m] = prod
    return out


class ContactModel:
    """Common interface of the three model geometries.

    A model supplies the Reeb flow, the tetragon map ``phi`` with its
    tangents ``phi_tangents`` and the closed-form distance and event
    functionals of a horizontal piece and of a wall; ``build_tetragon``
    lays the four regions out from these.  Condition (C2) bounds the
    tetragon time by ``0 < T < max_reeb_time`` (``<=`` where
    ``max_reeb_time_inclusive``); ``default_reeb_time`` is the T that
    scenarios and commands use when a config sets none.
    """

    kind = ""
    k = 1
    max_reeb_time = math.inf
    max_reeb_time_inclusive = False
    default_reeb_time = 0.25

    def check_reeb_time(self, T):
        """Raise ``ParameterError`` unless T satisfies (C2)."""
        tmax = self.max_reeb_time
        strict = not self.max_reeb_time_inclusive
        if not (T > 0.0 and (T < tmax if strict else T <= tmax)):
            cmp = "<" if strict else "<="
            raise ParameterError(
                f"Reeb time T={T} violates 0 < T {cmp} {tmax} "
                f"for the {self.kind} model"
            )

    # -- Sigma-level operations -------------------------------------------
    def reeb_flow(self, x, t):
        raise NotImplementedError

    # -- Legendrian --------------------------------------------------------
    n_angles = 0
    n_components = 1

    @property
    def angle_bounds(self):
        """Parameter box of the Legendrian angles (``unit_sphere_point``)."""
        return tuple((0.0, 2 * math.pi) if j == 0 else (0.0, math.pi)
                     for j in range(self.n_angles))

    def legendrian_point(self, angles=(), component=0):
        raise NotImplementedError

    # -- symplectization and tetragon pieces -------------------------------
    chart: PhaseChart

    def phi(self, s, t, angles=(), component=0):
        """Phi(x, s, t) = embed(psi_t(x), s) at the Legendrian point
        x = legendrian_point(angles, component), periodic coordinates
        reduced to [0, 1).  ``x % 1.0`` rounds a tiny negative x up to
        1.0; reducing twice maps that to 0.0.  s or t may be an ``(m,)``
        array, with angles an ``(m, n_angles)`` array: then the ``(m,
        dim)`` points, each row equal bit for bit to its own call."""
        raise NotImplementedError

    def phi_tangents(self, s, t, angles=(), component=0):
        """Partial derivatives of ``phi`` at (s, t, angles): the list
        d/d angle_j for each Legendrian angle, then d/ds and d/dt."""
        raise NotImplementedError

    # The functionals take a point or an (m, dim) stack of points.
    def horizontal_distance(self, c, R, T):
        """Distance proxy to the horizontal piece Phi(L x {R} x [0, T])."""
        raise NotImplementedError

    def horizontal_event(self, c, R):
        """Functional whose zero level is the level set s = R."""
        raise NotImplementedError

    def wall_distance(self, c, t, R0, R1):
        """Distance proxy to the wall Phi(L x [R0, R1] x {t})."""
        raise NotImplementedError

    def wall_event(self, c, t):
        """Functional whose zero level contains the wall at Reeb time t."""
        raise NotImplementedError

    # Float twins of the event functionals at one point, a list of floats
    # with periodic coordinates reduced, equal bit for bit to the array
    # functional's value there; None where a model has none.
    point_horizontal_event = None
    point_wall_event = None


class CircleModel(ContactModel):
    """Sigma = S^1 with the trivial contact structure; L is the point 0."""

    kind = "circle"
    k = 1
    max_reeb_time = 1.0

    def __init__(self):
        self.chart = PhaseChart(dim_pairs=1, periodic=(True,),
                                labels=("s", "u"))

    def reeb_flow(self, x, t):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([(x[0] + t) % 1.0])

    def legendrian_point(self, angles=(), component=0):
        return np.array([0.0])

    def embed(self, x, s):
        u = float(np.atleast_1d(x)[0])
        return np.array([s, u % 1.0])

    def phi(self, s, t, angles=(), component=0):
        out = np.empty(np.broadcast(s, t).shape + (2,))
        out[..., 0] = s
        out[..., 1] = t % 1.0 % 1.0
        return out

    def phi_tangents(self, s, t, angles=(), component=0):
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

    def horizontal_distance(self, c, R, T):
        u = c[..., 1]
        outside = np.minimum(np.abs(_wrap_half(u)),
                             np.abs(_wrap_half(u - T)))
        return np.hypot(c[..., 0] - R,
                        np.where(u % 1.0 <= T, 0.0, outside))

    def horizontal_event(self, c, R):
        return c[..., 0] - R

    def point_horizontal_event(self, c, R):
        return c[0] - R

    def wall_distance(self, c, t, R0, R1):
        return np.hypot(self.wall_event(c, t),
                        _interval_excess(c[..., 0], R0, R1))

    def wall_event(self, c, t):
        return _wrap_half(c[..., 1] - t)

    def point_wall_event(self, c, t):
        return _point_wrap_half(c[1] - t)


class TorusModel(ContactModel):
    """Unit cotangent bundle of the flat torus T^k, k >= 2."""

    kind = "torus"
    max_reeb_time = 0.5

    def __init__(self, k):
        if k < 2:
            raise ParameterError(
                "TorusModel requires k >= 2; use CircleModel for k = 1"
            )
        self.k = k
        self.n_angles = k - 1
        self.chart = PhaseChart(dim_pairs=k, periodic=(True,) * k)

    # Sigma points are (p, q) with |p| = 1, q in T^k.
    def reeb_flow(self, x, t):
        x = np.asarray(x, dtype=float)
        p, q = x[: self.k], x[self.k:]
        return np.concatenate([p, (q + p * t) % 1.0])

    def legendrian_point(self, angles=(), component=0):
        p = unit_sphere_point(angles, self.k)
        return np.concatenate([p, np.zeros(self.k)])

    def embed(self, x, s):
        x = np.asarray(x, dtype=float)
        return np.concatenate([s * x[: self.k], x[self.k:] % 1.0])

    def phi(self, s, t, angles=(), component=0):
        # s * p and t * p for the unit momentum p = L(angles)
        p = unit_sphere_point(angles, self.k)
        q = _col(t) * p
        q %= 1.0
        q %= 1.0
        return np.concatenate([_col(s) * p, q], axis=-1)

    def phi_tangents(self, s, t, angles=(), component=0):
        p = unit_sphere_point(angles, self.k)
        zero = np.zeros(self.k)
        d_angles = []
        for j in range(self.n_angles):
            dp = unit_sphere_tangent(angles, self.k, j)
            d_angles.append(np.concatenate([s * dp, t * dp]))
        return d_angles + [np.concatenate([p, zero]),
                           np.concatenate([zero, p])]

    def _split(self, c, s_min):
        """|p|, wrapped q and p/|p| (p itself where |p| < s_min)."""
        p = c[..., : self.k]
        s = _norm(p)
        phat = p / np.where(s < s_min, 1.0, s)[..., None]
        return s, _wrap_half(c[..., self.k:]), phat

    def horizontal_distance(self, c, R, T):
        s, q, phat = self._split(c, 1e-9)
        a = np.sum(q * phat, axis=-1)
        perp = q - a[..., None] * phat
        ds, da = s - R, _interval_excess(a, 0.0, T)
        d = np.sqrt(ds * ds + np.sum(perp * perp, axis=-1) + da * da)
        return np.where(s < 1e-9, np.hypot(R, _norm(q)), d)

    def horizontal_event(self, c, R):
        return _norm(c[..., : self.k]) - R

    def point_horizontal_event(self, c, R):
        return math.sqrt(row_sum([v * v for v in c[: self.k]])) - R

    def wall_distance(self, c, t, R0, R1):
        s, q, phat = self._split(c, 1e-9)
        d = np.hypot(_norm(_wrap_half(q - t * phat)),
                     _interval_excess(s, R0, R1))
        return np.where(s < 1e-9, np.maximum(R0, _norm(q)), d)

    def wall_event(self, c, t):
        s, q, phat = self._split(c, 1e-12)
        return np.where(s < 1e-12, -t, np.sum(q * phat, axis=-1) - t)

    def point_wall_event(self, c, t):
        p = c[: self.k]
        s = math.sqrt(row_sum([v * v for v in p]))
        if s < 1e-12:
            return -t
        return row_sum([_point_wrap_half(v) * (u / s)
                        for u, v in zip(p, c[self.k:])]) - t


class SphereModel(ContactModel):
    """Standard contact sphere S^{2k-1} in C^k with Reeb flow e^{2it}."""

    kind = "sphere"
    max_reeb_time = default_reeb_time = math.pi / 4.0
    max_reeb_time_inclusive = True

    def __init__(self, k):
        if k < 1:
            raise ParameterError("SphereModel requires k >= 1")
        self.k = k
        self.n_angles = 0 if k == 1 else k - 1
        self.n_components = 2 if k == 1 else 1
        self.chart = PhaseChart(dim_pairs=k)

    # Sigma points are z = (p, q) in R^{2k} with |z| = 1.
    def _rotate(self, z, phi):
        """z rotated by the angle phi, a float or one per row of z."""
        z = np.asarray(z, dtype=float)
        p, q = z[..., : self.k], z[..., self.k:]
        c, s = _cos_sin(phi)
        return np.concatenate([c * p - s * q, s * p + c * q], axis=-1)

    def reeb_flow(self, x, t):
        return self._rotate(x, 2.0 * t)

    def legendrian_point(self, angles=(), component=0):
        x = unit_sphere_point(angles, self.k)
        if self.k == 1:
            x = x * (1.0 if component == 0 else -1.0)
        return np.concatenate([x, np.zeros_like(x)], axis=-1)

    def embed(self, x, s):
        return math.sqrt(s) * np.asarray(x, dtype=float)

    def _polar_angle(self, coords):
        """2*phi for z ~ |z| e^{i phi} x with x real; range (-pi, pi]."""
        z = np.asarray(coords, dtype=float)
        u, v = z[..., : self.k], z[..., self.k:]
        return np.arctan2(2.0 * np.sum(u * v, axis=-1),
                          np.sum(u * u, axis=-1) - np.sum(v * v, axis=-1))

    def phi(self, s, t, angles=(), component=0):
        x = self.legendrian_point(angles, component)
        return _col(np.sqrt(s)) * self.reeb_flow(x, t)

    def phi_tangents(self, s, t, angles=(), component=0):
        # psi_t is linear, so d/d angle_j flows the tangent dx of L; d/dt
        # is 2 J psi_t(x) with J(p, q) = (-q, p)
        rs = math.sqrt(s)
        zero = np.zeros(self.k)
        d_angles = []
        for j in range(self.n_angles):
            dx = np.concatenate([unit_sphere_tangent(angles, self.k, j),
                                 zero])
            d_angles.append(rs * self.reeb_flow(dx, t))
        xt = self.reeb_flow(self.legendrian_point(angles, component), t)
        return d_angles + [xt / (2.0 * rs), 2.0 * rs * np.concatenate(
            [-xt[self.k:], xt[: self.k]])]

    def horizontal_distance(self, c, R, T):
        """Distance to {sqrt(R) e^{i phi} x : phi in [0, 2T], x in L}."""
        k = self.k
        u, v = c[..., :k], c[..., k:]
        uu, vv = np.sum(u * u, axis=-1), np.sum(v * v, axis=-1)
        zz = uu + vv
        nz = np.sqrt(zz)
        A = zz / 2.0
        bx = (uu - vv) / 2.0
        by = np.sum(u * v, axis=-1)
        B = np.hypot(bx, by)
        psi = np.arctan2(by, bx)
        # A - B = (A^2 - B^2)/(A + B), and A^2 - B^2 = uu vv - (u.v)^2 is
        # the Lagrange sum of squared 2x2 minors (none for k = 1)
        minors = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                m = u[..., i] * v[..., j] - u[..., j] * v[..., i]
                minors = minors + m * m
        a_b = minors / np.maximum(A + B, _TINY)
        # |Re(z e^{-i phi})|^2 = A + B cos(2 phi - psi) = zz - gap with
        # gap = (A - B) + 2 B sin^2(phi - psi/2), period pi in phi; the
        # interior critical points count only inside [0, 2T].  The squared
        # distance zz + R - 2 r g is written without cancellation as
        # (|z| - r)^2 + 2 r gap / (|z| + g).
        r = math.sqrt(R)
        dz = nz - r
        best = np.full(np.shape(zz), np.inf)
        for phi, valid in [(0.0, True), (2.0 * T, True)] + [
                (base, (0.0 <= base) & (base <= 2.0 * T))
                for base in (psi / 2.0, psi / 2.0 - math.pi,
                             psi / 2.0 + math.pi)]:
            sn = np.sin(phi - psi / 2.0)
            gap = np.maximum(a_b + 2.0 * B * sn * sn, 0.0)
            g = np.sqrt(np.maximum(zz - gap, 0.0))
            d2 = dz * dz + 2.0 * r * gap / np.maximum(nz + g, _TINY)
            best = np.where(valid, np.minimum(best, d2), best)
        return np.sqrt(best)

    def horizontal_event(self, c, R):
        return np.sum(c * c, axis=-1) - R

    def point_horizontal_event(self, c, R):
        return row_sum([v * v for v in c]) - R

    def wall_distance(self, c, t, R0, R1):
        """Distance to {r e^{2it} x : sqrt(R0) <= r <= sqrt(R1)}."""
        z = self._rotate(c, -2.0 * t)
        return np.hypot(
            _interval_excess(_norm(z[..., : self.k]), math.sqrt(R0),
                             math.sqrt(R1)),
            _norm(z[..., self.k:]),
        )

    def wall_event(self, c, t):
        # wrapped angular offset from the wall's Reeb time
        dpsi = self._polar_angle(c) - 4.0 * t
        dpsi = (dpsi + math.pi) % (2.0 * math.pi) - math.pi
        return dpsi / 4.0


def make_model(kind, k=1) -> ContactModel:
    kind = kind.lower()
    if kind == "circle":
        if k != 1:
            raise ParameterError(
                f"the circle model has k = 1, got k = {k}; use the torus "
                "for k >= 2")
        return CircleModel()
    if kind == "torus":
        return TorusModel(k)
    if kind == "sphere":
        return SphereModel(k)
    raise ParameterError(f"unknown contact model kind: {kind!r}")


# ---------------------------------------------------------------------------
# Regions and tetragons
# ---------------------------------------------------------------------------

def _float_or_array(v):
    v = np.asarray(v, dtype=float)
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class Region:
    """A parametrized subset of the ambient symplectic chart.

    ``param_bounds`` are the continuous parameter axes of the region
    (Reeb time or radial coordinate first, then Legendrian angles), so
    every region has at least one axis; disconnected Legendrians add a
    discrete component index.

    ``event_fn`` may carry a float twin as its attribute ``point``: the
    event at one point on Python floats (a list with periodic coordinates
    reduced as ``PhaseChart.wrap_point`` reduces them), a float equal bit
    for bit to ``event_value``.  ``dynamics.integrate`` evaluates one
    point's events by it.
    """

    name: str
    chart: PhaseChart
    param_bounds: tuple
    n_components: int
    to_ambient: Callable = field(compare=False)
    distance_fn: Callable = field(compare=False)
    event_fn: Callable = field(compare=False)

    def distance(self, coords):
        """Distance proxy of one point (a float) or of each row of an
        ``(m, dim)`` stack (an array)."""
        return _float_or_array(self.distance_fn(np.asarray(coords, float)))

    def membership(self, coords):
        """Whether the point lies within ``MEMBER_TOL`` of the region."""
        return self.distance(coords) <= MEMBER_TOL

    def event_value(self, coords):
        return _float_or_array(self.event_fn(np.asarray(coords, float)))

    def param_point(self, params, component=0):
        return self.to_ambient(np.array(params, float, ndmin=1, copy=None),
                               component)

    def param_points(self, params):
        """``param_point`` of every ``(params, component)`` pair of the list
        ``params`` (as ``sample_params`` gives it), as an ``(m, dim)``
        array: one call of the model's ``phi`` on arrays per component,
        each row equal bit for bit to its own ``param_point``."""
        comps = np.array([comp for _, comp in params], dtype=int)
        grid = np.array([pr for pr, _ in params], dtype=float)
        out = np.empty((len(params), self.chart.dim))
        for comp in np.unique(comps):
            rows = comps == comp
            out[rows] = self.to_ambient(grid[rows], int(comp))
        return out

    def sample_params(self, n):
        """Deterministic grid of about n parameter tuples per component.

        Returns a list of (params, component) in a fixed order.
        """
        d = len(self.param_bounds)
        per_comp = max(1, n // self.n_components)
        m = max(2, int(round(per_comp ** (1.0 / d))))
        # give the first axis the leftover budget in 1D/2D cases
        counts = [m] * d
        if d == 1:
            counts = [per_comp]
        elif d == 2:
            counts[0] = max(2, per_comp // m)
        axes = [
            np.linspace(lo, hi, c)
            for (lo, hi), c in zip(self.param_bounds, counts)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([g.ravel() for g in mesh], axis=-1)
        return [(np.array(row, dtype=float), comp)
                for comp in range(self.n_components) for row in grid]

    def sample_points(self, n):
        """The points of ``sample_params(n)``, an ``(m, dim)`` array."""
        return self.param_points(self.sample_params(n))


@dataclass(frozen=True)
class Tetragon:
    """Floor, ceiling and walls of a Lagrangian tetragon in a model chart."""

    model: ContactModel
    R0: float
    R1: float
    T: float
    floor: Region
    ceiling: Region
    low_wall: Region
    high_wall: Region

    @property
    def chart(self):
        return self.model.chart

    @property
    def kappa(self):
        """Interlinking constant (R1 - R0) * T of this tetragon."""
        return (self.R1 - self.R0) * self.T

    def regions(self):
        return {
            "floor": self.floor,
            "ceiling": self.ceiling,
            "low_wall": self.low_wall,
            "high_wall": self.high_wall,
        }

    def describe(self):
        return {
            "model": self.model.kind,
            "k": self.model.k,
            "R0": self.R0,
            "R1": self.R1,
            "T": self.T,
            "kappa": self.kappa,
        }


def build_tetragon(model: ContactModel, R0, R1, T) -> Tetragon:
    """Construct the four tetragon regions in the model's ambient chart.

    Each region is a face of L x [R0, R1] x [0, T] under ``model.phi``:
    the floor and ceiling fix s = R0, R1 and sweep (t, angles); the low
    and high walls fix t = T, 0 and sweep (s, angles).
    """
    check_radii(R0, R1)
    model.check_reeb_time(T)

    def event(fn, twin, level):
        """The event ``fn(c, level)``, carrying ``twin(c, level)`` as its
        ``point`` attribute where the model has a twin."""
        def event_fn(c):
            return fn(c, level)
        if twin is not None:
            event_fn.point = lambda c: twin(c, level)
        return event_fn

    # ``par`` is one parameter tuple or an (m, d) array of them
    def horizontal(name, R):
        return Region(
            name=name, chart=model.chart,
            param_bounds=((0.0, T),) + model.angle_bounds,
            n_components=model.n_components,
            to_ambient=lambda par, comp: model.phi(
                R, par[..., 0], par[..., 1:], comp),
            distance_fn=lambda c: model.horizontal_distance(c, R, T),
            event_fn=event(model.horizontal_event,
                           model.point_horizontal_event, R),
        )

    def wall(name, t):
        return Region(
            name=name, chart=model.chart,
            param_bounds=((R0, R1),) + model.angle_bounds,
            n_components=model.n_components,
            to_ambient=lambda par, comp: model.phi(
                par[..., 0], t, par[..., 1:], comp),
            distance_fn=lambda c: model.wall_distance(c, t, R0, R1),
            event_fn=event(model.wall_event, model.point_wall_event, t),
        )

    return Tetragon(model, float(R0), float(R1), float(T),
                    horizontal("floor", R0), horizontal("ceiling", R1),
                    wall("low_wall", T), wall("high_wall", 0.0))


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundedRectangleLoop:
    """Embedded loop in [s0,s1] x [t0,t1] with circular corner arcs.

    Parametrized by arclength fraction sigma in [0, 1); encloses area
    (s1-s0)*(t1-t0) - (4-pi)*eps^2.
    """

    s0: float
    s1: float
    t0: float
    t1: float
    eps: float

    @property
    def area(self):
        return ((self.s1 - self.s0) * (self.t1 - self.t0)
                - (4.0 - math.pi) * (self.eps * self.eps))

    def _segments(self):
        e = self.eps
        w = self.s1 - self.s0 - 2 * e
        h = self.t1 - self.t0 - 2 * e
        arc = math.pi * e / 2.0
        # straight edge lengths and arc lengths, counterclockwise from
        # the bottom edge (t = t0)
        return [w, arc, h, arc, w, arc, h, arc]

    def point_and_velocity(self, sigma):
        """Return ((s, t), d(s, t)/d sigma) at arclength fraction sigma."""
        segs = self._segments()
        total = sum(segs)
        ell = (sigma % 1.0) * total
        e = self.eps
        s0, s1, t0, t1 = self.s0, self.s1, self.t0, self.t1
        corners = [(s1 - e, t0 + e), (s1 - e, t1 - e),
                   (s0 + e, t1 - e), (s0 + e, t0 + e)]
        starts = [(s0 + e, t0), (s1, t0 + e), (s1 - e, t1), (s0, t1 - e)]
        dirs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        arc_start = [-math.pi / 2.0, 0.0, math.pi / 2.0, math.pi]
        for i in range(4):
            w = segs[2 * i]
            if ell <= w:
                d = dirs[i]
                p = (starts[i][0] + d[0] * ell, starts[i][1] + d[1] * ell)
                return np.array(p), total * np.array(d)
            ell -= w
            arc = segs[2 * i + 1]
            if ell <= arc:
                th = arc_start[i] + ell / e
                c = corners[i]
                p = (c[0] + e * math.cos(th), c[1] + e * math.sin(th))
                vel = (-math.sin(th), math.cos(th))
                return np.array(p), total * np.array(vel)
            ell -= arc
        # numerical fallthrough at sigma ~ 1
        return self.point_and_velocity(0.0)


@dataclass(frozen=True)
class SmoothedTetragon:
    """Smoothed tetragon: the image of L x gamma_eps under Phi."""

    tetragon: Tetragon
    eps: float
    loop: RoundedRectangleLoop

    @property
    def area(self):
        return self.loop.area

    def tangent_frame(self, angles, component, sigma):
        """Tangent vectors of the surface: the model's ``phi_tangents``
        along the Legendrian angles, then ds d/ds Phi + dt d/dt Phi along
        the loop's velocity (ds, dt)."""
        (s, t), (ds, dt) = self.loop.point_and_velocity(sigma)
        *d_angles, d_s, d_t = self.tetragon.model.phi_tangents(
            s, t, angles, component)
        return d_angles + [ds * d_s + dt * d_t]

    def lagrangian_residual(self, n_samples=1000):
        """Max |omega(v_a, v_b)| over sampled points (seeded draws) and
        tangent pairs."""
        from .phase_core import omega_matrix

        model = self.tetragon.model
        omega = omega_matrix(model.chart.dim_pairs)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(n_samples):
            sigma = float(rng.uniform(0.0, 1.0))
            comp = int(rng.integers(model.n_components))
            angles = [float(rng.uniform(lo, hi))
                      for lo, hi in model.angle_bounds]
            frame = self.tangent_frame(angles, comp, sigma)
            for a in range(len(frame)):
                for b in range(a + 1, len(frame)):
                    val = abs(float(frame[a] @ omega @ frame[b]))
                    worst = max(worst, val)
        return worst


def smooth_tetragon(tet: Tetragon, eps) -> SmoothedTetragon:
    limit = min(tet.R1 - tet.R0, tet.T) / 2.0
    if not (0.0 < eps < limit):
        raise ParameterError(
            f"corner radius eps={eps} must lie in (0, {limit})"
        )
    loop = RoundedRectangleLoop(tet.R0, tet.R1, 0.0, tet.T, float(eps))
    return SmoothedTetragon(tet, float(eps), loop)
