"""Turn-key chord-search scenarios with certified time budgets.

Four families are provided: a momentum channel driven by a pure
potential on the torus, the planar unstable equilibrium (optionally
perturbed near the walls), mechanical Hamiltonians kinetic + potential,
and Reeb chords under a conformally rescaled contact flow.  Each run
measures the wall separation, derives the time budget kappa/(Delta -
delta), searches for a floor-to-ceiling chord, and reports a
self-certifying pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .contact import CircleModel, SphereModel, TorusModel, build_tetragon
from .dynamics import (ChordSearchConfig, chord_budget, deterministic_map,
                       find_chord, separation)
from .phase_core import HamiltonianSpec, PhaseChart
from .profiles import Plateau


class ConfigError(ValueError):
    """A scenario configuration violates a precondition."""


@dataclass(frozen=True)
class PerturbationSpec:
    """Wall-localized perturbation with a large-amplitude far bump.

    ``delta_target`` is the requested separation increment
    |Delta(F; low wall, high wall)|; the amplitude is calibrated by
    bisection.  ``away_factor`` scales the far bump relative to the wall
    bump; it sits away from both walls and from the chord corridor, so
    it may be large without destroying chords.
    """

    delta_target: float = 0.25
    tube_radius: float = 0.15
    away_factor: float = 10.0
    time_periodic: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    k: int = 1
    R0: float = 1.0
    R1: float = 2.0
    T: Optional[float] = None
    beta: float = 0.5
    potential_time_amp: float = 0.0
    reeb_model: str = "sphere"
    reeb_factor_base: float = 1.5
    reeb_factor_amp: float = 0.3
    perturbation: Optional[PerturbationSpec] = None
    n_seeds: int = 64
    n_phases: int = 16
    ode_tol: float = 1e-9
    tol: float = 1e-6

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k > 2:
            raise ConfigError(
                "k > 2 is not supported: the target sets have codimension "
                "too high for reliable desk-scale search"
            )
        if not (0.0 < self.R0 < self.R1):
            raise ConfigError("need 0 < R0 < R1")


@dataclass(frozen=True)
class ScenarioReport:
    """Self-certifying outcome: ``passed`` is computed from the fields."""

    scenario: str
    delta_separation: float
    delta_perturbation: float
    kappa: float
    budget: float
    found: bool
    time_length: Optional[float]
    increment: Optional[float]
    expected_increment: Optional[float]
    increment_tol: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        """A chord was found within budget + 1e-6 and, when an increment
        is expected, its increment lies within ``increment_tol`` of it."""
        ok = self.found and self.time_length is not None \
            and self.time_length <= self.budget + 1e-6
        if ok and self.expected_increment is not None:
            ok = abs(self.increment - self.expected_increment) \
                <= self.increment_tol
        return bool(ok)

    def describe(self):
        d = {
            "scenario": self.scenario,
            "delta_separation": self.delta_separation,
            "delta_perturbation": self.delta_perturbation,
            "kappa": self.kappa,
            "budget": self.budget,
            "found": self.found,
            "time_length": self.time_length,
            "increment": self.increment,
            "expected_increment": self.expected_increment,
            "increment_tol": self.increment_tol,
            "passed": self.passed,
        }
        d.update({k: v for k, v in self.details.items()
                  if isinstance(v, (int, float, str, bool, list))})
        return d


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _sq(x):
    """Squared norm over the last axis."""
    return (x * x).sum(axis=-1)


def unstable_hamiltonian(k=1) -> HamiltonianSpec:
    """H = (|p|^2 - |q|^2)/2; the diagonal p = q scales by e^t."""
    chart = PhaseChart(dim_pairs=k)

    def value(x, t):
        return 0.5 * (_sq(x[..., :k]) - _sq(x[..., k:]))

    def gradient(x, t):
        return np.concatenate([x[..., :k], -x[..., k:]], axis=-1)

    return HamiltonianSpec(chart=chart, value=value, gradient=gradient,
                           name="unstable-equilibrium")


def channel_potential(k=1) -> HamiltonianSpec:
    """H = U(q) = prod_i cos(2 pi q_i) on the torus chart; the flow is
    p(t) = p(0) - grad U(q(0)) t with q frozen."""
    if k == 1:
        chart = PhaseChart(dim_pairs=1, periodic=(True,),
                           labels=("s", "u"))
    else:
        chart = PhaseChart(dim_pairs=k, periodic=(True,) * k)

    def value(x, t):
        return np.prod(np.cos(2 * math.pi * x[..., k:]), axis=-1)

    def gradient(x, t):
        q = x[..., k:]
        cos = np.cos(2 * math.pi * q)
        g = np.zeros(np.shape(x))
        for i in range(k):
            others = np.prod(np.delete(cos, i, axis=-1), axis=-1)
            g[..., k + i] = -2 * math.pi * np.sin(2 * math.pi * q[..., i]) \
                * others
        return g

    return HamiltonianSpec(chart=chart, value=value, gradient=gradient,
                           name="channel-potential")


def mechanical_hamiltonian(k=1, beta=0.5, R0=1.0, R1=2.0,
                           time_amp=0.0) -> HamiltonianSpec:
    """G = |p|^2/2 + U(q[, t]) with U = -beta on the q-shell
    sqrt(R0) <= |q| <= sqrt(R1) and U = 0 near q = 0."""
    chart = PhaseChart(dim_pairs=k)
    shell = Plateau(lo=R0 - 0.1, hi=R1 + 0.1, roll=0.25)
    if shell.lo - shell.roll <= 0.0:
        raise ConfigError("potential shell reaches q = 0")

    def tfac(t):
        if not time_amp:
            return 1.0
        return 1.0 + time_amp * np.sin(2 * math.pi * np.asarray(t))

    def value(x, t):
        y = _sq(x[..., k:])
        return 0.5 * _sq(x[..., :k]) - beta * shell.value(y) * tfac(t)

    def gradient(x, t):
        y = _sq(x[..., k:])
        dq = -beta * shell.deriv(y) * tfac(t) * 2.0
        return np.concatenate([x[..., :k], np.asarray(dq)[..., None]
                               * x[..., k:]], axis=-1)

    return HamiltonianSpec(
        chart=chart, value=value, gradient=gradient,
        time_periodic=time_amp != 0.0, autonomous=time_amp == 0.0,
        name="mechanical",
    )


def add_hamiltonians(G: HamiltonianSpec, F: HamiltonianSpec,
                     name="") -> HamiltonianSpec:
    if G.chart.dim != F.chart.dim:
        raise ValueError("chart dimensions differ")
    return HamiltonianSpec(
        chart=G.chart,
        value=lambda x, t: G.value(x, t) + F.value(x, t),
        gradient=lambda x, t: np.asarray(G.gradient(x, t), float)
        + np.asarray(F.gradient(x, t), float),
        time_periodic=G.time_periodic or F.time_periodic,
        autonomous=G.autonomous and F.autonomous,
        name=name or f"{G.name}+{F.name}",
    )


def wall_perturbation(amplitude, R0=1.0, R1=2.0, away_factor=10.0,
                      tube_radius=0.15, time_periodic=True
                      ) -> HamiltonianSpec:
    """Planar (k=1) perturbation F = -A on the high wall, vanishing on
    the low wall, plus an away_factor*A bump supported near the
    anti-diagonal ring — far from both walls and from the floor-to-
    ceiling chord corridor along the main diagonal."""
    chart = PhaseChart(dim_pairs=1)
    ring = Plateau(lo=R0, hi=R1, roll=0.2)
    nearq = Plateau(lo=0.0, hi=(tube_radius / 3.0) ** 2,
                    roll=tube_radius ** 2 - (tube_radius / 3.0) ** 2)
    far_ring = Plateau(lo=R0 + 0.2, hi=R1 - 0.2, roll=0.15)
    near_anti = Plateau(lo=0.0, hi=0.005, roll=0.015)

    def tfac(t):
        if not time_periodic:
            return 1.0
        return 0.5 * (1.0 + np.sin(2 * math.pi * np.asarray(t)))

    def value(x, t):
        p, q = np.moveaxis(x, -1, 0)
        rho = p * p + q * q
        wall = -amplitude * ring.value(rho) * nearq.value(q * q)
        w2 = 0.5 * (p + q) ** 2
        far = away_factor * amplitude * near_anti.value(w2) \
            * far_ring.value(rho) * tfac(t)
        return wall + far

    def gradient(x, t):
        p, q = np.moveaxis(x, -1, 0)
        rho, w2 = p * p + q * q, 0.5 * (p + q) ** 2
        rv, rd = ring.value(rho), ring.deriv(rho)
        nv, nd = nearq.value(q * q), nearq.deriv(q * q)
        na, nad = near_anti.value(w2), near_anti.deriv(w2)
        fr, frd = far_ring.value(rho), far_ring.deriv(rho)
        tf = away_factor * amplitude * tfac(t)
        g0 = -amplitude * rd * 2 * p * nv \
            + tf * (nad * (p + q) * fr + na * frd * 2 * p)
        g1 = -amplitude * (rd * 2 * q * nv + rv * nd * 2 * q) \
            + tf * (nad * (p + q) * fr + na * frd * 2 * q)
        return np.stack([g0, g1], axis=-1)

    return HamiltonianSpec(
        chart=chart, value=value, gradient=gradient,
        time_periodic=time_periodic, autonomous=not time_periodic,
        name="wall-perturbation",
    )


def calibrate_perturbation(tet, spec: PerturbationSpec):
    """Bisect the amplitude until |Delta(F; low, high)| is within 0.005 of
    the target, for at most 40 steps."""
    target = spec.delta_target

    def measured(a):
        F = wall_perturbation(a, R0=tet.R0, R1=tet.R1,
                              away_factor=spec.away_factor,
                              tube_radius=spec.tube_radius,
                              time_periodic=spec.time_periodic)
        return abs(separation(F, tet.low_wall, tet.high_wall,
                              n_samples=64).delta), F

    lo, hi = 0.0, max(2.0 * target, 0.1)
    d_hi, F = measured(hi)
    it = 0
    while d_hi < target and it < 10:
        hi *= 2.0
        d_hi, F = measured(hi)
        it += 1
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        d_mid, F_mid = measured(mid)
        if abs(d_mid - target) <= 0.005:
            return F_mid, d_mid, mid
        if d_mid < target:
            lo = mid
        else:
            hi = mid
    d_mid, F_mid = measured(0.5 * (lo + hi))
    return F_mid, d_mid, 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def _chord_report(scenario, cfg: ScenarioConfig, tet, G: HamiltonianSpec,
                  sep, details, delta_pert=0.0, expected=None,
                  p_only=False) -> ScenarioReport:
    """Budget kappa/(Delta - delta), a floor-to-ceiling chord within it,
    and the report.  The increment is |end| - |start| over all
    coordinates, or over the p-block with ``p_only``."""
    budget = chord_budget(tet.kappa, sep.delta, delta_pert)
    search = ChordSearchConfig(
        n_seeds=cfg.n_seeds, n_phases=cfg.n_phases, tol=cfg.tol,
        ode_tol=cfg.ode_tol, escape_norm=10.0 * (math.sqrt(cfg.R1) + 1.0),
    )
    result = find_chord(G, tet.floor, tet.ceiling, budget, search)
    time_len = inc = None
    if result.found:
        n = cfg.k if p_only else None
        a, b = (np.asarray(x, dtype=float)[:n]
                for x in (result.chord.start, result.chord.end))
        inc = float(np.linalg.norm(b) - np.linalg.norm(a))
        time_len = result.chord.time_length
    return ScenarioReport(
        scenario=scenario,
        delta_separation=sep.delta, delta_perturbation=delta_pert,
        kappa=tet.kappa, budget=budget, found=result.found,
        time_length=time_len, increment=inc, expected_increment=expected,
        increment_tol=1e-6, details=details,
    )


def run_unstable_equilibrium(cfg: ScenarioConfig) -> ScenarioReport:
    T = cfg.T if cfg.T is not None else math.pi / 4.0
    model = SphereModel(cfg.k)
    tet = build_tetragon(model, cfg.R0, cfg.R1, T)
    G0 = unstable_hamiltonian(cfg.k)
    sep = separation(G0, tet.low_wall, tet.high_wall)
    delta_pert, G = 0.0, G0
    details = {"model": "sphere", "k": cfg.k}
    if cfg.perturbation is not None:
        if cfg.k != 1:
            raise ConfigError("wall perturbations are implemented for k=1")
        if cfg.perturbation.delta_target >= cfg.R0:
            raise ConfigError(
                f"perturbation target {cfg.perturbation.delta_target} "
                f"must stay below the separation R0 = {cfg.R0}"
            )
        F, delta_pert, amp = calibrate_perturbation(tet, cfg.perturbation)
        G = add_hamiltonians(G0, F)
        details["perturbation_amplitude"] = amp
        details["away_factor"] = cfg.perturbation.away_factor
    return _chord_report(
        "unstable_equilibrium", cfg, tet, G, sep, details,
        delta_pert=delta_pert,
        expected=math.sqrt(cfg.R1) - math.sqrt(cfg.R0))


def run_superconductivity(cfg: ScenarioConfig) -> ScenarioReport:
    r = cfg.T if cfg.T is not None else 0.25
    if not r < 0.5:
        raise ConfigError(f"channel scenario requires r < 1/2, got {r}")
    model = CircleModel() if cfg.k == 1 else TorusModel(cfg.k)
    tet = build_tetragon(model, cfg.R0, cfg.R1, r)
    H = channel_potential(cfg.k)
    sep = separation(H, tet.low_wall, tet.high_wall)
    if not sep.separating:
        raise ConfigError("potential does not separate the walls")
    return _chord_report(
        "superconductivity", cfg, tet, H, sep,
        {"model": model.kind, "k": cfg.k, "r": r},
        expected=cfg.R1 - cfg.R0, p_only=True)


def run_mechanical(cfg: ScenarioConfig) -> ScenarioReport:
    T = cfg.T if cfg.T is not None else math.pi / 4.0
    model = SphereModel(cfg.k)
    tet = build_tetragon(model, cfg.R0, cfg.R1, T)
    G = mechanical_hamiltonian(cfg.k, cfg.beta, cfg.R0, cfg.R1,
                               time_amp=cfg.potential_time_amp)
    _check_shell_max(G, cfg)
    sep = separation(G, tet.low_wall, tet.high_wall)
    return _chord_report(
        "mechanical", cfg, tet, G, sep,
        {"model": "sphere", "k": cfg.k, "beta": cfg.beta})


def _check_shell_max(G: HamiltonianSpec, cfg: ScenarioConfig):
    """The potential's max over the q-shell x period must be <= -beta."""
    k = cfg.k
    times = np.linspace(0.0, 1.0, 17)[:-1] if G.time_periodic else [0.0]
    worst = -math.inf
    for rho in np.linspace(math.sqrt(cfg.R0), math.sqrt(cfg.R1), 21):
        for ang in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            q = rho * np.array([math.cos(ang), math.sin(ang)])[:k] \
                if k > 1 else np.array([rho * math.cos(ang)])
            if k == 1 and abs(q[0]) < math.sqrt(cfg.R0) - 1e-9:
                continue
            x = np.concatenate([np.zeros(k), q])
            for t in times:
                worst = max(worst, G(x, t))
    if worst > -cfg.beta + 1e-9:
        raise ConfigError(
            f"potential max over the shell is {worst:.6f} > -beta = "
            f"{-cfg.beta}; re-declare beta to match"
        )


def run_reeb_chord(cfg: ScenarioConfig) -> ScenarioReport:
    """Chords of the conformally rescaled Reeb flow (speed f along Reeb
    lines) from L to psi_T(L); time is bounded by T / min f over the
    swept arcs."""
    base, amp = cfg.reeb_factor_base, cfg.reeb_factor_amp
    if cfg.reeb_model == "sphere":
        T = cfg.T if cfg.T is not None else math.pi / 4.0
        starts = [0.0, math.pi]
        span = 2.0 * T

        def f(theta):
            return base + amp * math.sin(theta)
    elif cfg.reeb_model == "circle":
        T = cfg.T if cfg.T is not None else 0.25
        starts = [0.0]
        span = T

        def f(theta):
            return base + amp * math.sin(2 * math.pi * theta)
    else:
        raise ConfigError(f"unknown reeb model {cfg.reeb_model!r}")
    grid = np.linspace(0.0, span, 2001)
    fmin = math.inf
    for th0 in starts:
        fmin = min(fmin, min(f(th0 + s) for s in grid))
    if fmin <= 0.0:
        raise ConfigError("conformal factor must be positive on Sigma")
    speed = 2.0 if cfg.reeb_model == "sphere" else 1.0

    times = []
    for th0 in starts:
        def rhs(t, y):
            return [speed * f(y[0])]

        def hit(t, y):
            return y[0] - (th0 + span)

        hit.terminal = True
        sol = solve_ivp(rhs, (0.0, 10.0 * T / fmin + 1.0), [th0],
                        rtol=1e-12, atol=1e-14, events=[hit],
                        method="DOP853")
        if len(sol.t_events[0]):
            times.append(float(sol.t_events[0][0]))
    found = len(times) == len(starts)
    time_len = min(times) if times else None
    return ScenarioReport(
        scenario="reeb_chord",
        delta_separation=fmin, delta_perturbation=0.0,
        kappa=T, budget=T / fmin, found=found,
        time_length=time_len, increment=None, expected_increment=None,
        increment_tol=1e-6,
        details={"model": cfg.reeb_model, "C": fmin,
                 "chord_times": [float(t) for t in times]},
    )


_RUNNERS = {
    "unstable_equilibrium": run_unstable_equilibrium,
    "superconductivity": run_superconductivity,
    "mechanical": run_mechanical,
    "reeb_chord": run_reeb_chord,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    if cfg.scenario not in _RUNNERS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; "
            f"choose from {sorted(_RUNNERS)}"
        )
    return _RUNNERS[cfg.scenario](cfg)


def run_batch(configs):
    """Run scenarios one at a time; report order follows input order."""
    return deterministic_map(run_scenario, list(configs))
