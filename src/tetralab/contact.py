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

A tetragon is the union floor / ceiling / low wall / high wall built from
a Legendrian L, Reeb time T and radii 0 < R0 < R1.  Regions expose
membership with a tolerance band, a nonnegative distance proxy that
vanishes exactly on the region, a deterministic seed sampler, and a
scalar event functional whose zero level encloses the region (used for
trajectory event detection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .phase_core import PhaseChart


class ParameterError(ValueError):
    """A model or tetragon parameter is out of its admissible range."""


class GeometryError(ValueError):
    """A constructed geometric object violates a defining condition."""


class ConstraintError(ValueError):
    """A point fails the Sigma-constraint of a contact model."""


SIGMA_TOL = 1e-10


def _wrap_half(x):
    """Wrap to [-0.5, 0.5): nearest representative on the unit torus."""
    w = (np.asarray(x, dtype=float) + 0.5) % 1.0 - 0.5
    # (x + 0.5) % 1.0 can round to exactly 1.0 just below the seam
    return np.where(w == 0.5, -0.5, w)


def _interval_excess(x, lo, hi):
    """Distance of x to the interval [lo, hi]."""
    return np.maximum(np.maximum(lo - x, 0.0), x - hi)


def _norm(x):
    """Euclidean norm over the last axis."""
    return np.sqrt(np.sum(x * x, axis=-1))


def unit_sphere_point(angles, k):
    """Hyperspherical parametrization of S^{k-1} in R^k.

    k = 1 has no angles (the caller picks the component +-1); for k >= 2
    the first angle runs over [0, 2 pi) so that k = 2 covers the circle.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if k == 1:
        return np.array([1.0])
    x = np.empty(k)
    sin_prod = 1.0
    for j in range(k - 1):
        x[j] = sin_prod * math.cos(angles[j])
        sin_prod *= math.sin(angles[j])
    x[k - 1] = sin_prod
    return x


def unit_sphere_tangent(angles, k, j):
    """d/d angle_j of unit_sphere_point (analytic product rule)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if k == 1:
        return np.zeros(1)
    out = np.zeros(k)
    for m in range(k):
        # x_m = cos(a_m) * prod_{i<m} sin(a_i), with cos absent for m=k-1
        factors = [math.sin(angles[i]) for i in range(min(m, k - 1))]
        if m < k - 1:
            factors.append(math.cos(angles[m]))
        if j >= len(factors) or (j == m and m == k - 1 and j >= k - 1):
            continue
        prod = 1.0
        for i, f in enumerate(factors):
            if i == j:
                prod *= (math.cos(angles[i]) if i < m
                         else -math.sin(angles[i]))
            else:
                prod *= f
        out[m] = prod
    return out


class ContactModel:
    """Common interface of the three model geometries."""

    kind = ""
    k = 1

    # -- Sigma-level operations -------------------------------------------
    def constraint_residual(self, x):
        raise NotImplementedError

    def check_on_sigma(self, x, tol=SIGMA_TOL):
        r = abs(self.constraint_residual(x))
        if r > tol:
            raise ConstraintError(
                f"point is off Sigma for {self.kind}: residual {r:.3e}"
            )

    def reeb_flow(self, x, t):
        raise NotImplementedError

    def reeb_vector(self, x):
        raise NotImplementedError

    def lambda0(self, x, v):
        raise NotImplementedError

    # -- Legendrian --------------------------------------------------------
    n_angles = 0
    n_components = 1

    def legendrian_point(self, angles=(), component=0):
        raise NotImplementedError

    def legendrian_tangent(self, angles, component, j):
        raise NotImplementedError

    def legendrian_distance(self, x):
        """Distance on Sigma (proxy) from x to the Legendrian L."""
        raise NotImplementedError

    # -- symplectization ---------------------------------------------------
    chart: PhaseChart

    def embed(self, x, s):
        raise NotImplementedError

    def embed_tangent(self, x, s, v, s_dot):
        raise NotImplementedError

    def project(self, coords):
        """Inverse of embed: ambient coords -> (Sigma point, s)."""
        raise NotImplementedError

    def reeb_time(self, coords):
        """Reeb-time coordinate of an ambient point near the tetragon."""
        raise NotImplementedError

    def max_reeb_time(self):
        """Upper bound on admissible T for condition (C2)."""
        raise NotImplementedError


class CircleModel(ContactModel):
    """Sigma = S^1 with the trivial contact structure; L is the point 0."""

    kind = "circle"
    k = 1

    def __init__(self):
        self.chart = PhaseChart(dim_pairs=1, periodic=(True,),
                                labels=("s", "u"))

    def constraint_residual(self, x):
        return 0.0

    def reeb_flow(self, x, t):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([(x[0] + t) % 1.0])

    def reeb_vector(self, x):
        return np.array([1.0])

    def lambda0(self, x, v):
        return float(np.atleast_1d(v)[0])

    def legendrian_point(self, angles=(), component=0):
        return np.array([0.0])

    def legendrian_distance(self, x):
        u = float(np.atleast_1d(x)[0])
        return abs(float(_wrap_half(u)))

    def embed(self, x, s):
        u = float(np.atleast_1d(x)[0])
        return np.array([s, u % 1.0])

    def embed_tangent(self, x, s, v, s_dot):
        return np.array([s_dot, float(np.atleast_1d(v)[0])])

    def project(self, coords):
        c = np.asarray(coords, dtype=float)
        return np.array([c[1] % 1.0]), float(c[0])

    def reeb_time(self, coords):
        return float(np.asarray(coords)[1]) % 1.0

    def max_reeb_time(self):
        return 1.0


class TorusModel(ContactModel):
    """Unit cotangent bundle of the flat torus T^k, k >= 2."""

    kind = "torus"

    def __init__(self, k):
        if k < 2:
            raise ParameterError(
                "TorusModel requires k >= 2; use CircleModel for k = 1"
            )
        self.k = k
        self.n_angles = k - 1
        self.chart = PhaseChart(dim_pairs=k, periodic=(True,) * k)

    # Sigma points are (p, q) with |p| = 1, q in T^k.
    def constraint_residual(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x[: self.k]) - 1.0)

    def reeb_flow(self, x, t):
        x = np.asarray(x, dtype=float)
        p, q = x[: self.k], x[self.k:]
        return np.concatenate([p, (q + p * t) % 1.0])

    def reeb_vector(self, x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([np.zeros(self.k), x[: self.k]])

    def lambda0(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(np.dot(x[: self.k], v[self.k:]))

    def legendrian_point(self, angles=(), component=0):
        p = unit_sphere_point(angles, self.k)
        return np.concatenate([p, np.zeros(self.k)])

    def legendrian_tangent(self, angles, component, j):
        dp = unit_sphere_tangent(angles, self.k, j)
        return np.concatenate([dp, np.zeros(self.k)])

    def legendrian_distance(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(_wrap_half(x[self.k:])))

    def embed(self, x, s):
        x = np.asarray(x, dtype=float)
        return np.concatenate([s * x[: self.k], x[self.k:] % 1.0])

    def embed_tangent(self, x, s, v, s_dot):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.concatenate(
            [s_dot * x[: self.k] + s * v[: self.k], v[self.k:]]
        )

    def project(self, coords):
        c = np.asarray(coords, dtype=float)
        p = c[: self.k]
        s = float(np.linalg.norm(p))
        if s < 1e-12:
            raise ConstraintError("torus symplectization chart excludes p=0")
        return np.concatenate([p / s, c[self.k:] % 1.0]), s

    def reeb_time(self, coords):
        xs, _ = self.project(coords)
        phat = xs[: self.k]
        q = _wrap_half(coords[self.k:])
        return float(np.dot(q, phat))

    def max_reeb_time(self):
        return 0.5


class SphereModel(ContactModel):
    """Standard contact sphere S^{2k-1} in C^k with Reeb flow e^{2it}."""

    kind = "sphere"

    def __init__(self, k):
        if k < 1:
            raise ParameterError("SphereModel requires k >= 1")
        self.k = k
        self.n_angles = 0 if k == 1 else k - 1
        self.n_components = 2 if k == 1 else 1
        self.chart = PhaseChart(dim_pairs=k)

    # Sigma points are z = (p, q) in R^{2k} with |z| = 1.
    def constraint_residual(self, x):
        return float(np.linalg.norm(np.asarray(x, dtype=float)) - 1.0)

    def _rotate(self, z, phi):
        z = np.asarray(z, dtype=float)
        p, q = z[..., : self.k], z[..., self.k:]
        c, s = math.cos(phi), math.sin(phi)
        return np.concatenate([c * p - s * q, s * p + c * q], axis=-1)

    def reeb_flow(self, x, t):
        return self._rotate(x, 2.0 * t)

    def reeb_vector(self, x):
        # d/dt e^{2it} z at t=0 is 2 i z
        z = np.asarray(x, dtype=float)
        return np.concatenate([-2.0 * z[self.k:], 2.0 * z[: self.k]])

    def lambda0(self, x, v):
        z = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        p, q = z[: self.k], z[self.k:]
        return float((np.dot(p, v[self.k:]) - np.dot(q, v[: self.k])) / 2.0)

    def legendrian_point(self, angles=(), component=0):
        x = unit_sphere_point(angles, self.k)
        if self.k == 1:
            x = x * (1.0 if component == 0 else -1.0)
        return np.concatenate([x, np.zeros(self.k)])

    def legendrian_tangent(self, angles, component, j):
        dx = unit_sphere_tangent(angles, self.k, j)
        return np.concatenate([dx, np.zeros(self.k)])

    def legendrian_distance(self, x):
        z = np.asarray(x, dtype=float)
        # distance to {q = 0, |p| = 1} within the unit sphere (proxy)
        return float(np.linalg.norm(z[self.k:]))

    def embed(self, x, s):
        return math.sqrt(s) * np.asarray(x, dtype=float)

    def embed_tangent(self, x, s, v, s_dot):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        rs = math.sqrt(s)
        return rs * v + (s_dot / (2.0 * rs)) * x

    def project(self, coords):
        z = np.asarray(coords, dtype=float)
        r = float(np.linalg.norm(z))
        if r < 1e-12:
            raise ConstraintError("sphere symplectization chart excludes 0")
        return z / r, r * r

    def _polar_angle(self, coords):
        """2*phi for z ~ |z| e^{i phi} x with x real; range (-pi, pi]."""
        z = np.asarray(coords, dtype=float)
        u, v = z[..., : self.k], z[..., self.k:]
        return np.arctan2(2.0 * np.sum(u * v, axis=-1),
                          np.sum(u * u, axis=-1) - np.sum(v * v, axis=-1))

    def reeb_time(self, coords):
        # z = sqrt(s) e^{2it} x  =>  t = phi / 2 = psi / 4
        return self._polar_angle(coords) / 4.0

    def max_reeb_time(self):
        return math.pi / 4.0


def make_model(kind, k=1) -> ContactModel:
    kind = kind.lower()
    if kind == "circle":
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
    (Reeb time or radial coordinate first, then Legendrian angles);
    disconnected Legendrians add a discrete component index.
    """

    name: str
    chart: PhaseChart
    param_bounds: tuple
    n_components: int
    to_ambient: Callable = field(compare=False)
    distance_fn: Callable = field(compare=False)
    event_fn: Callable = field(default=None, compare=False)

    def distance(self, coords):
        """Distance proxy of one point (a float) or of each row of an
        ``(m, dim)`` stack (an array)."""
        return _float_or_array(self.distance_fn(np.asarray(coords, float)))

    def membership(self, coords, tol=1e-6):
        return self.distance(coords) <= tol

    def event_value(self, coords):
        return _float_or_array(self.event_fn(np.asarray(coords, float)))

    def param_point(self, params, component=0):
        return np.asarray(
            self.to_ambient(np.atleast_1d(np.asarray(params, float)),
                            component),
            dtype=float,
        )

    def sample_params(self, n):
        """Deterministic grid of about n parameter tuples per component.

        Returns a list of (params, component) in a fixed order.
        """
        d = len(self.param_bounds)
        per_comp = max(1, n // self.n_components)
        if d == 0:
            grids = [np.zeros((1, 0))]
        else:
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
            grids = [np.stack([g.ravel() for g in mesh], axis=-1)]
        out = []
        for comp in range(self.n_components):
            for row in grids[0]:
                out.append((np.array(row, dtype=float), comp))
        return out

    def sample_points(self, n):
        return [self.param_point(p, c) for p, c in self.sample_params(n)]


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


def _circle_regions(model, R0, R1, T):
    def seg_dist_u(u, lo, hi):
        outside = np.minimum(np.abs(_wrap_half(u - lo)),
                             np.abs(_wrap_half(u - hi)))
        return np.where((u - lo) % 1.0 <= hi - lo, 0.0, outside)

    def horiz(name, R, ev_sign):
        return Region(
            name=name,
            chart=model.chart,
            param_bounds=((0.0, T),),
            n_components=1,
            to_ambient=lambda par, comp, R=R: np.array([R, par[0] % 1.0]),
            distance_fn=lambda c, R=R: np.hypot(
                c[..., 0] - R, seg_dist_u(c[..., 1], 0.0, T)
            ),
            event_fn=lambda c, R=R: c[..., 0] - R,
        )

    def wall(name, u0):
        return Region(
            name=name,
            chart=model.chart,
            param_bounds=((R0, R1),),
            n_components=1,
            to_ambient=lambda par, comp, u0=u0: np.array([par[0], u0 % 1.0]),
            distance_fn=lambda c, u0=u0: np.hypot(
                _wrap_half(c[..., 1] - u0),
                _interval_excess(c[..., 0], R0, R1),
            ),
            event_fn=lambda c, u0=u0: _wrap_half(c[..., 1] - u0),
        )

    return (horiz("floor", R0, +1), horiz("ceiling", R1, +1),
            wall("low_wall", T), wall("high_wall", 0.0))


def _torus_regions(model, R0, R1, T):
    k = model.k
    angle_bounds = tuple(
        (0.0, 2 * math.pi) if j == 0 else (0.0, math.pi)
        for j in range(model.n_angles)
    )

    def split(c, s_min):
        """|p|, wrapped q and p/|p| (p itself where |p| < s_min)."""
        p = c[..., :k]
        s = _norm(p)
        phat = p / np.where(s < s_min, 1.0, s)[..., None]
        return s, _wrap_half(c[..., k:]), phat

    def horiz_dist(c, R):
        s, q, phat = split(c, 1e-9)
        a = np.sum(q * phat, axis=-1)
        perp = q - a[..., None] * phat
        d = np.sqrt((s - R) ** 2 + np.sum(perp * perp, axis=-1)
                    + _interval_excess(a, 0.0, T) ** 2)
        return np.where(s < 1e-9, np.hypot(R, _norm(q)), d)

    def wall_dist(c, t0):
        s, q, phat = split(c, 1e-9)
        d = np.hypot(_norm(_wrap_half(q - t0 * phat)),
                     _interval_excess(s, R0, R1))
        return np.where(s < 1e-9, np.maximum(R0, _norm(q)), d)

    def horiz(name, R):
        def to_amb(par, comp, R=R):
            t = par[0]
            phat = unit_sphere_point(par[1:], k)
            return np.concatenate([R * phat, (t * phat) % 1.0])

        return Region(
            name=name, chart=model.chart,
            param_bounds=((0.0, T),) + angle_bounds,
            n_components=1,
            to_ambient=to_amb,
            distance_fn=lambda c, R=R: horiz_dist(c, R),
            event_fn=lambda c, R=R: _norm(c[..., :k]) - R,
        )

    def wall(name, t0):
        def to_amb(par, comp, t0=t0):
            s = par[0]
            phat = unit_sphere_point(par[1:], k)
            return np.concatenate([s * phat, (t0 * phat) % 1.0])

        def ev(c, t0=t0):
            s, q, phat = split(c, 1e-12)
            return np.where(s < 1e-12, -t0,
                            np.sum(q * phat, axis=-1) - t0)

        return Region(
            name=name, chart=model.chart,
            param_bounds=((R0, R1),) + angle_bounds,
            n_components=1,
            to_ambient=to_amb,
            distance_fn=lambda c, t0=t0: wall_dist(c, t0),
            event_fn=ev,
        )

    return (horiz("floor", R0), horiz("ceiling", R1),
            wall("low_wall", T), wall("high_wall", 0.0))


def _sphere_regions(model, R0, R1, T):
    k = model.k
    angle_bounds = tuple(
        (0.0, 2 * math.pi) if j == 0 else (0.0, math.pi)
        for j in range(model.n_angles)
    )

    def arc_dist(c, R):
        """Distance to {sqrt(R) e^{i phi} x : phi in [0, 2T], x in S^{k-1}}."""
        u, v = c[..., :k], c[..., k:]
        uu, vv = np.sum(u * u, axis=-1), np.sum(v * v, axis=-1)
        zz = uu + vv
        A = zz / 2.0
        bx = (uu - vv) / 2.0
        by = np.sum(u * v, axis=-1)
        B = np.hypot(bx, by)
        psi = np.arctan2(by, bx)
        # |Re(z e^{-i phi})|^2 = A + B cos(2 phi - psi), period pi in phi;
        # the interior critical points count only inside [0, 2T]
        r = math.sqrt(R)
        best = np.full(np.shape(zz), np.inf)
        for phi, valid in [(0.0, True), (2.0 * T, True)] + [
                (base, (0.0 <= base) & (base <= 2.0 * T))
                for base in (psi / 2.0, psi / 2.0 - math.pi,
                             psi / 2.0 + math.pi)]:
            g2 = np.maximum(A + B * np.cos(2.0 * phi - psi), 0.0)
            d2 = np.maximum(zz + R - 2.0 * r * np.sqrt(g2), 0.0)
            best = np.where(valid, np.minimum(best, d2), best)
        return np.sqrt(best)

    def shell_dist(c, phi0):
        """Distance to {r e^{i phi0} x : sqrt(R0) <= r <= sqrt(R1)}."""
        z = model._rotate(c, -phi0)
        return np.hypot(
            _interval_excess(_norm(z[..., :k]), math.sqrt(R0),
                             math.sqrt(R1)),
            _norm(z[..., k:]),
        )

    def horiz(name, R):
        def to_amb(par, comp, R=R):
            t = par[0]
            x = model.legendrian_point(par[1:], comp)
            return model.embed(model.reeb_flow(x, t), R)

        return Region(
            name=name, chart=model.chart,
            param_bounds=((0.0, T),) + angle_bounds,
            n_components=model.n_components,
            to_ambient=to_amb,
            distance_fn=lambda c, R=R: arc_dist(c, R),
            event_fn=lambda c, R=R: np.sum(c * c, axis=-1) - R,
        )

    def wall(name, t0):
        def to_amb(par, comp, t0=t0):
            s = par[0]
            x = model.legendrian_point(par[1:], comp)
            return model.embed(model.reeb_flow(x, t0), s)

        def ev(c, t0=t0):
            # wrapped angular offset from the wall's Reeb time
            dpsi = model._polar_angle(c) - 4.0 * t0
            dpsi = (dpsi + math.pi) % (2.0 * math.pi) - math.pi
            return dpsi / 4.0

        return Region(
            name=name, chart=model.chart,
            param_bounds=((R0, R1),) + angle_bounds,
            n_components=model.n_components,
            to_ambient=to_amb,
            distance_fn=lambda c, t0=t0: shell_dist(c, 2.0 * t0),
            event_fn=ev,
        )

    return (horiz("floor", R0), horiz("ceiling", R1),
            wall("low_wall", T), wall("high_wall", 0.0))


def build_tetragon(model: ContactModel, R0, R1, T,
                   check_c2=True) -> Tetragon:
    """Construct the four tetragon regions in the model's ambient chart."""
    if not (0.0 < R0 < R1):
        raise ParameterError(f"need 0 < R0 < R1, got R0={R0}, R1={R1}")
    tmax = model.max_reeb_time()
    strict = model.kind != "sphere"
    if T <= 0.0 or (T >= tmax if strict else T > tmax):
        cmp = "<" if strict else "<="
        raise ParameterError(
            f"Reeb time T={T} violates 0 < T {cmp} {tmax} "
            f"for the {model.kind} model"
        )
    if model.kind == "circle":
        regions = _circle_regions(model, R0, R1, T)
    elif model.kind == "torus":
        regions = _torus_regions(model, R0, R1, T)
    else:
        regions = _sphere_regions(model, R0, R1, T)
    tet = Tetragon(model, float(R0), float(R1), float(T), *regions)
    if check_c2:
        _check_disjoint_sweep(model, T)
    return tet


def _check_disjoint_sweep(model, T, n_time=32, n_leg=16):
    """(C2): psi_t(L) stays disjoint from L for sampled t in (0, T]."""
    pts = []
    for comp in range(model.n_components):
        if model.n_angles == 0:
            pts.append(model.legendrian_point((), comp))
        else:
            for j in range(n_leg):
                ang = [
                    2 * math.pi * j / n_leg if a == 0 else
                    math.pi * (j + 0.5) / n_leg
                    for a in range(model.n_angles)
                ]
                pts.append(model.legendrian_point(ang, comp))
    for i in range(1, n_time + 1):
        t = T * i / n_time
        gap = min(model.legendrian_distance(model.reeb_flow(x, t))
                  for x in pts)
        if gap <= 1e-9:
            raise GeometryError(
                f"psi_t(L) meets L at t={t:.6f}; condition (C2) fails"
            )


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
                - (4.0 - math.pi) * self.eps ** 2)

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
            if ell <= w or i == 3 and ell <= w + segs[7] + 1e-12:
                if ell <= w:
                    d = dirs[i]
                    p = (starts[i][0] + d[0] * ell,
                         starts[i][1] + d[1] * ell)
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

    def surface_point(self, angles, component, sigma):
        model = self.tetragon.model
        (s, t), _ = self.loop.point_and_velocity(sigma)
        x = model.legendrian_point(angles, component)
        return model.embed(model.reeb_flow(x, t), s)

    def tangent_frame(self, angles, component, sigma):
        """Analytic tangent vectors (Legendrian directions, loop direction)."""
        model = self.tetragon.model
        (s, t), (ds, dt) = self.loop.point_and_velocity(sigma)
        x = model.legendrian_point(angles, component)
        xt = model.reeb_flow(x, t)
        frame = []
        for j in range(model.n_angles):
            v = model.legendrian_tangent(angles, component, j)
            # push the Legendrian tangent through the (linear) Reeb flow
            vt = _flow_pushforward(model, x, v, t)
            frame.append(model.embed_tangent(xt, s, vt, 0.0))
        reeb = model.reeb_vector(xt)
        frame.append(model.embed_tangent(xt, s, dt * reeb, ds))
        return frame

    def lagrangian_residual(self, n_samples=1000, rng_seed=0):
        """Max |omega(v_a, v_b)| over sampled points and tangent pairs."""
        from .phase_core import omega_matrix

        model = self.tetragon.model
        omega = omega_matrix(model.chart.dim_pairs)
        rng = np.random.default_rng(rng_seed)
        worst = 0.0
        for _ in range(n_samples):
            sigma = float(rng.uniform(0.0, 1.0))
            comp = int(rng.integers(model.n_components))
            angles = [
                float(rng.uniform(lo, hi))
                for lo, hi in (
                    ((0.0, 2 * math.pi),) +
                    ((0.0, math.pi),) * max(model.n_angles - 1, 0)
                )[: model.n_angles]
            ]
            frame = self.tangent_frame(angles, comp, sigma)
            for a in range(len(frame)):
                for b in range(a + 1, len(frame)):
                    val = abs(float(frame[a] @ omega @ frame[b]))
                    worst = max(worst, val)
        return worst


def _flow_pushforward(model, x, v, t):
    """Differential of the Reeb flow applied to a Sigma-tangent vector.

    All three model flows are linear or affine in the point, so the
    pushforward has a closed form.
    """
    if model.kind == "circle":
        return np.asarray(v, dtype=float)
    if model.kind == "torus":
        v = np.asarray(v, dtype=float)
        k = model.k
        out = v.copy()
        out[k:] = v[k:] + v[:k] * t
        return out
    return model._rotate(v, 2.0 * t)  # sphere: the flow is the rotation


def smooth_tetragon(tet: Tetragon, eps) -> SmoothedTetragon:
    limit = min(tet.R1 - tet.R0, tet.T) / 2.0
    if not (0.0 < eps < limit):
        raise ParameterError(
            f"corner radius eps={eps} must lie in (0, {limit})"
        )
    loop = RoundedRectangleLoop(tet.R0, tet.R1, 0.0, tet.T, float(eps))
    return SmoothedTetragon(tet, float(eps), loop)
