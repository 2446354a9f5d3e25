"""Shared fixtures and numerical oracles for the test suite.

Heavy runs (chord sweeps, grid estimates) execute once per session and
are reused by both the module tests and the acceptance suite; each
fixture records its wall-clock time so runtime budgets can be asserted.
"""

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tetralab.dynamics import ChordSearchConfig, find_chord, separation
from tetralab.pb4 import (Pb4Problem, estimate_pb4_plus, prototype_problem,
                          wall_witness)
from tetralab.phase_core import HamiltonianSpec, poisson_bracket
from tetralab.contact import CircleModel, build_tetragon
from tetralab.profiles import Plateau, PlateauStack
from tetralab.scenarios import (AWAY_FACTOR, PerturbationSpec, ScenarioConfig,
                                run_mechanical, run_reeb_chord,
                                run_superconductivity,
                                run_unstable_equilibrium)


@dataclass(frozen=True)
class Timed:
    value: object
    elapsed: float


def timed(fn):
    t0 = time.perf_counter()
    v = fn()
    return Timed(v, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def fd_gradient(H: HamiltonianSpec, x, t=0.0):
    """Centered finite-difference gradient oracle, step 1e-6*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (H.value(xp, t) - H.value(xm, t)) / (2 * h)
    return g


def check_gradient(H, points, t=0.0, rtol=1e-5):
    for x in points:
        g = H.grad(x, t)
        gf = fd_gradient(H, x, t)
        assert np.allclose(g, gf, rtol=rtol, atol=1e-7), (
            f"gradient mismatch at {x}: {g} vs fd {gf}"
        )


def fd_bracket_spec(F, G):
    """{F, G} as a HamiltonianSpec with a finite-difference gradient,
    for nesting brackets in identity checks."""
    def value(x, t):
        return poisson_bracket(F, G, x, t)

    def gradient(x, t):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        for i in range(len(x)):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            g[i] = (value(xp, t) - value(xm, t)) / (2 * h)
        return g

    return HamiltonianSpec(chart=F.chart, value=value, gradient=gradient)


def polynomial_hamiltonian(chart, coeffs):
    """Quadratic form sum c_ij x_i x_j + linear terms, analytic gradient."""
    A, b = coeffs
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return HamiltonianSpec(
        chart=chart,
        value=lambda x, t: float(x @ A @ x + b @ x),
        gradient=lambda x, t: (A + A.T) @ x + b,
    )


def constant_hamiltonian(chart, c=0.0, name="const"):
    return HamiltonianSpec(
        chart=chart,
        value=lambda x, t: np.full(np.shape(x)[:-1], float(c))[()],
        gradient=lambda x, t: np.zeros(np.shape(x)),
        autonomous=True,
        name=name,
    )


def gaussian_hamiltonian(chart, centers, widths, amps, name="bumps"):
    """Sum of radial Gaussian bumps with analytic gradients; accepts a
    point or a stack of points (the HamiltonianSpec batch contract)."""
    centers = [np.asarray(c, dtype=float) for c in centers]

    def bumps(x):
        for c, w, a in zip(centers, widths, amps):
            d = x - c
            yield d, w, a * np.exp(-(d * d).sum(axis=-1) / w ** 2)

    def value(x, t):
        return sum(e for _, _, e in bumps(x))

    def gradient(x, t):
        g = np.zeros(np.shape(x))
        for d, w, e in bumps(x):
            g = g + np.expand_dims(e * (-2.0 / w ** 2), -1) * d
        return g

    return HamiltonianSpec(chart=chart, value=value, gradient=gradient,
                           name=name)


def four_plateau_gradient(amplitude, R0=1.0, R1=2.0, time_periodic=True):
    """Reference for ``wall_perturbation``'s gradient callback: the whole
    gradient from its four plateaus in one ``PlateauStack`` pass, with an
    exact zero only where no row lies in the near-wall tube or the
    anti-diagonal band."""
    tube_radius = 0.15
    ring = Plateau(lo=R0, hi=R1, roll=0.2)
    nearq = Plateau(lo=0.0, hi=(tube_radius / 3.0) ** 2,
                    roll=tube_radius ** 2 - (tube_radius / 3.0) ** 2)
    far_ring = Plateau(lo=R0 + 0.2, hi=R1 - 0.2, roll=0.15)
    near_anti = Plateau(lo=0.0, hi=0.005, roll=0.015)
    bumps = PlateauStack((ring, nearq, near_anti, far_ring))

    def tfac(t):
        if not time_periodic:
            return 1.0
        return 0.5 * (1.0 + np.sin(2 * math.pi * np.asarray(t)))

    def gradient(x, t):
        p, q = x[..., 0], x[..., 1]
        qq, s = q * q, p + q
        w2 = 0.5 * (s * s)
        if np.all((qq - nearq.hi) / nearq.roll >= 1.0) and \
                np.all((w2 - near_anti.hi) / near_anti.roll >= 1.0):
            return np.zeros(np.shape(x))
        rho = p * p + qq
        (rv, nv, na, fr), (rd, nd, nad, frd) = bumps.values_and_slopes(
            np.stack([rho, qq, w2, rho]))
        tf = AWAY_FACTOR * amplitude * tfac(t)
        ns, nf = nad * s * fr, na * frd * 2
        g0 = -amplitude * rd * 2 * p * nv + tf * (ns + nf * p)
        g1 = -amplitude * (rd * 2 * q * nv + rv * nd * 2 * q) \
            + tf * (ns + nf * q)
        return np.stack([g0, g1], axis=-1)

    return gradient


def surface_point(smoothed, angles, component, sigma):
    """The smoothed tetragon's point Phi(angles, gamma_eps(sigma))."""
    (s, t), _ = smoothed.loop.point_and_velocity(sigma)
    return smoothed.tetragon.model.phi(s, t, angles, component)


def relabeled(problem: Pb4Problem) -> Pb4Problem:
    """The (Y1, Y0, X0, X1) relabeling whose estimate agrees with the
    original by anti-symmetry of the invariant."""
    m = problem.masks
    return Pb4Problem(
        window=problem.window,
        masks={"X0": m["Y1"], "X1": m["Y0"],
               "Y0": m["X0"], "Y1": m["X1"]},
        thicken_radius=problem.thicken_radius,
    )


def shrink_prototype_masks(problem: Pb4Problem, cells=2) -> Pb4Problem:
    """Shrink every mask by trimming ``cells`` columns/rows from the
    ends of its arc; the feasible set grows, so the invariant estimate
    cannot increase (tested with warm starts)."""
    out = {}
    for name, m in problem.masks.items():
        m = np.asarray(m, dtype=bool)
        new = m.copy()
        if name in ("X0", "X1"):
            cols = np.where(m.any(axis=0))[0]
            drop = set(list(cols[:cells]) + list(cols[-cells:]))
            new[:, sorted(drop)] = False
        else:
            rows = np.where(m.any(axis=1))[0]
            drop = set(list(rows[:cells]) + list(rows[-cells:]))
            new[sorted(drop), :] = False
        if not new.any():
            raise ValueError(f"shrinking emptied mask {name}")
        out[name] = new
    return replace(problem, masks=out)


# ---------------------------------------------------------------------------
# Session-scoped heavy runs
# ---------------------------------------------------------------------------

def scenario_payload(report):
    return json.dumps(report.describe(), sort_keys=True)


@pytest.fixture(scope="session")
def unstable_run():
    return timed(lambda: run_unstable_equilibrium(
        ScenarioConfig(scenario="unstable_equilibrium")))


@pytest.fixture(scope="session")
def perturbed_run():
    return timed(lambda: run_unstable_equilibrium(
        ScenarioConfig(scenario="unstable_equilibrium",
                       perturbation=PerturbationSpec(delta_target=0.25))))


@pytest.fixture(scope="session")
def channel_run_k1():
    return timed(lambda: run_superconductivity(
        ScenarioConfig(scenario="superconductivity", k=1)))


@pytest.fixture(scope="session")
def channel_run_k2():
    return timed(lambda: run_superconductivity(
        ScenarioConfig(scenario="superconductivity", k=2)))


@pytest.fixture(scope="session")
def mechanical_run():
    return timed(lambda: run_mechanical(
        ScenarioConfig(scenario="mechanical", beta=0.5)))


@pytest.fixture(scope="session")
def reeb_run():
    return timed(lambda: run_reeb_chord(
        ScenarioConfig(scenario="reeb_chord")))


@pytest.fixture(scope="session")
def reeb_constant_run():
    return timed(lambda: run_reeb_chord(
        ScenarioConfig(scenario="reeb_chord", reeb_factor_base=1.5,
                       reeb_factor_amp=0.0)))


@pytest.fixture(scope="session")
def pb4_runs():
    def compute():
        r128 = estimate_pb4_plus(prototype_problem(128))
        r256 = estimate_pb4_plus(prototype_problem(256))
        return r128, r256

    return timed(compute)


@pytest.fixture(scope="session")
def pb4_property_runs(pb4_runs):
    """Relabeled / shrunk / thickened re-estimates warm-started from the
    128^2 optimum, for the invariance and monotonicity checks."""
    r128 = pb4_runs.value[0]
    problem = prototype_problem(128)
    return {
        "relabeled": estimate_pb4_plus(relabeled(problem)),
        "shrunk": estimate_pb4_plus(
            shrink_prototype_masks(problem),
            warm_start=(r128.F, r128.G),
        ),
        "thickened": estimate_pb4_plus(
            prototype_problem(128, thicken_radius=1),
            warm_start=(r128.F, r128.G),
        ),
    }


@pytest.fixture(scope="session")
def witness_run():
    def compute():
        ww = wall_witness(1.0, 2.0, delta2=0.01)
        H = ww.hamiltonian()
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        budget = 0.25 / 1.01 - 0.01
        # ode_tol 1e-10 is the tolerance the refinement pins in
        # test_dynamics were measured at (the default 1e-9 takes 17
        # refinement evaluations here, not 16)
        search = find_chord(H, tet.high_wall, tet.low_wall, budget,
                            ChordSearchConfig(n_seeds=1001, ode_tol=1e-10))
        sep = separation(H, tet.floor, tet.ceiling)
        return ww, search, sep

    return timed(compute)
