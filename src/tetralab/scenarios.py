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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .contact import (_DEFAULT_R0, _DEFAULT_R1, CircleModel, ParameterError,
                      SphereModel, TorusModel, build_tetragon, check_radii)
from .dynamics import (ChordSearchConfig, ChordSearchResult, chord_budget,
                       deterministic_map, find_chord, integrate, separation)
from .phase_core import HamiltonianSpec, PhaseChart, row_sum
from .profiles import Plateau, PlateauStack

# a found chord passes within this of its time budget
TIME_TOL = 1e-6

# a found chord's increment passes within this of the expected increment
INCREMENT_TOL = 1e-6

# the far bump of the wall perturbation is this many times the wall bump
AWAY_FACTOR = 10.0

# depth of the mechanical potential well when a caller names none
_DEFAULT_BETA = 0.5


class ConfigError(ValueError):
    """A scenario configuration violates a precondition."""


@dataclass(frozen=True)
class PerturbationSpec:
    """Wall-localized perturbation with a large-amplitude far bump.

    ``delta_target`` is the requested separation increment
    |Delta(F; low wall, high wall)|; ``calibrate_perturbation`` sets the
    amplitude.  The far bump is ``AWAY_FACTOR`` times the wall bump; it
    sits away from both walls and from the chord corridor, so it may be
    large without destroying chords.  Only the unstable-equilibrium
    scenario takes a perturbation.  The target is a |Delta|: finite and
    at least 0 (``ConfigError`` otherwise).
    """

    delta_target: float = 0.25

    def __post_init__(self):
        if not (math.isfinite(self.delta_target) and self.delta_target >= 0):
            raise ConfigError(f"delta_target must be finite and >= 0, "
                              f"got {self.delta_target}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario run.  ``SCENARIO_KEYS`` names the fields each kind
    reads; a field outside its kind's entry must keep its default
    (``ConfigError`` names every one that does not).  ``T`` defaults to
    the contact model's ``default_reeb_time``.  The search fields
    ``n_seeds``, ``n_phases`` and ``ode_tol`` default to None, "not
    set": the chord search then uses ``ChordSearchConfig``'s value.
    ``R0`` and ``R1`` must pass ``contact.check_radii``, and ``beta``,
    ``reeb_factor_base`` and ``reeb_factor_amp`` be finite
    (``ConfigError``, naming the value or the key)."""

    scenario: str
    k: int = 1
    R0: float = _DEFAULT_R0
    R1: float = _DEFAULT_R1
    T: Optional[float] = None
    beta: float = _DEFAULT_BETA
    reeb_model: str = "sphere"
    reeb_factor_base: float = 1.5
    reeb_factor_amp: float = 0.3
    perturbation: Optional[PerturbationSpec] = None
    n_seeds: Optional[int] = None
    n_phases: Optional[int] = None
    ode_tol: Optional[float] = None

    def __post_init__(self):
        check_scenario_keys(self.scenario, [
            f.name for f in fields(self)
            if getattr(self, f.name) != f.default])
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k > 2:
            raise ConfigError(
                "k > 2 is not supported: the target sets have codimension "
                "too high for reliable desk-scale search"
            )
        try:
            check_radii(self.R0, self.R1)
        except ParameterError as exc:
            raise ConfigError(exc) from None
        for name in ("beta", "reeb_factor_base", "reeb_factor_amp"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ScenarioReport:
    """Self-certifying outcome: ``passed`` is computed from the fields.

    ``time_error`` is the found chord's ``Chord.time_error`` (None for
    Reeb chords and when no chord is found).  ``n_refine_evals`` and
    ``n_refine_failed`` are the chord search's refinement counts (see
    ``ChordSearchResult``), and ``n_separation_evals`` the wall
    separation's ``SeparationReport.n_evals``; all three are None for
    Reeb chords, which run neither.  Perturbed runs carry the
    calibration's ``separation`` count as ``details["calibration_steps"]``.
    ``search`` is the chord search's whole result (None for Reeb chords),
    for a caller that writes the chord or the sweep's counts;
    ``describe`` does not read it."""

    scenario: str
    delta_separation: float
    delta_perturbation: float
    kappa: float
    budget: float
    found: bool
    time_length: Optional[float]
    increment: Optional[float]
    expected_increment: Optional[float]
    details: dict = field(default_factory=dict)
    time_error: Optional[float] = None
    n_refine_evals: Optional[int] = None
    n_refine_failed: Optional[int] = None
    n_separation_evals: Optional[int] = None
    search: Optional[ChordSearchResult] = field(default=None, compare=False,
                                                repr=False)

    @property
    def passed(self):
        """A chord was found within budget + ``TIME_TOL`` and, when an
        increment is expected, its increment lies within ``INCREMENT_TOL``
        of it."""
        ok = self.found and self.time_length is not None \
            and self.time_length <= self.budget + TIME_TOL
        if ok and self.expected_increment is not None:
            ok = abs(self.increment - self.expected_increment) \
                <= INCREMENT_TOL
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
            "time_error": self.time_error,
            "n_refine_evals": self.n_refine_evals,
            "n_refine_failed": self.n_refine_failed,
            "n_separation_evals": self.n_separation_evals,
            "increment": self.increment,
            "expected_increment": self.expected_increment,
            "increment_tol": INCREMENT_TOL,
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

    def point_gradient(x, t):
        return x[:k] + [-v for v in x[k:]]

    return HamiltonianSpec(chart=chart, value=value, gradient=gradient,
                           point_gradient=point_gradient,
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
        angle = 2 * math.pi * x[..., k:]
        cos, sin = np.cos(angle), np.sin(angle)
        g = np.zeros(np.shape(x))
        for i in range(k):
            # the other cosines multiplied in index order, as np.prod does
            others = math.prod(cos[..., j] for j in range(k) if j != i)
            g[..., k + i] = -2 * math.pi * sin[..., i] * others
        return g

    def point_gradient(x, t):
        # math's cos and sin round as numpy's do on these angles (the
        # batch-contract property test compares the two paths)
        angle = [2 * math.pi * v for v in x[k:]]
        cos = [math.cos(a) for a in angle]
        return [0.0] * k + [
            -2 * math.pi * math.sin(angle[i])
            * math.prod(cos[j] for j in range(k) if j != i)
            for i in range(k)]

    return HamiltonianSpec(chart=chart, value=value, gradient=gradient,
                           point_gradient=point_gradient,
                           name="channel-potential")


def mechanical_hamiltonian(k=1, beta=_DEFAULT_BETA, R0=_DEFAULT_R0,
                           R1=_DEFAULT_R1, time_amp=0.0) -> HamiltonianSpec:
    """G = |p|^2/2 + U(q[, t]) with U = -beta on the q-shell
    sqrt(R0) <= |q| <= sqrt(R1) and U = 0 near q = 0."""
    chart = PhaseChart(dim_pairs=k)
    shell = Plateau(lo=R0 - 0.1, hi=R1 + 0.1, roll=0.25)
    if shell.lo - shell.roll <= 0.0:
        raise ConfigError("potential shell reaches q = 0")

    def tfac(t, sin=np.sin):
        """The time factor; ``sin=math.sin`` takes a float t."""
        if not time_amp:
            return 1.0
        return 1.0 + time_amp * sin(2 * math.pi * t)

    def value(x, t):
        y = _sq(x[..., k:])
        return 0.5 * _sq(x[..., :k]) \
            - beta * shell.value(y) * tfac(np.asarray(t))

    def gradient(x, t):
        y = _sq(x[..., k:])
        dq = -beta * shell.deriv(y) * tfac(np.asarray(t)) * 2.0
        return np.concatenate([x[..., :k], np.asarray(dq)[..., None]
                               * x[..., k:]], axis=-1)

    def point_gradient(x, t):
        q = x[k:]
        dq = -beta * shell.deriv(row_sum([v * v for v in q])) \
            * tfac(t, math.sin) * 2.0
        return x[:k] + [dq * v for v in q]

    return HamiltonianSpec(
        chart=chart, value=value, gradient=gradient,
        point_gradient=point_gradient,
        autonomous=time_amp == 0.0,
        name="mechanical",
        # below the narrowest roll's width in |q|, sqrt(hi + roll) - sqrt(hi)
        feature_width=shell.roll / (2.0 * math.sqrt(shell.hi + shell.roll)),
    )


def add_hamiltonians(G: HamiltonianSpec, F: HamiltonianSpec,
                     name="") -> HamiltonianSpec:
    if G.chart.dim != F.chart.dim:
        raise ValueError("chart dimensions differ")
    point_gradient = None
    if G.point_gradient and F.point_gradient:
        def point_gradient(x, t):
            return [a + b for a, b in zip(G.point_gradient(x, t),
                                          F.point_gradient(x, t))]
    return HamiltonianSpec(
        chart=G.chart,
        value=lambda x, t: G.value(x, t) + F.value(x, t),
        gradient=lambda x, t: np.add(G.gradient(x, t), F.gradient(x, t),
                                     dtype=float),
        point_gradient=point_gradient,
        feature_width=min(G.feature_width, F.feature_width),
        autonomous=G.autonomous and F.autonomous,
        name=name or f"{G.name}+{F.name}",
    )


def wall_perturbation(amplitude, R0=_DEFAULT_R0, R1=_DEFAULT_R1,
                      time_periodic=True) -> HamiltonianSpec:
    """Planar (k=1) perturbation F = -A on the high wall, vanishing on
    the low wall, plus an ``AWAY_FACTOR``*A bump supported near the
    anti-diagonal ring — far from both walls and from the floor-to-
    ceiling chord corridor along the main diagonal.

    The gradient is the sum of two terms, each supported where its
    narrow bump is: the wall term (ring times the near-wall tube
    |q| < 0.15) and the far term (anti-diagonal band |p + q| < 0.2 times
    the far ring times the time factor).  A bump and its slope vanish
    where its falling argument ``(y - hi)/roll`` reaches 1, and that
    argument grows with y, so a term whose argument is at least 1 at
    the batch minimum of y is exactly zero on every row and is not
    evaluated.  Each term that runs evaluates its two plateaus in one
    ``PlateauStack`` pass, or at one point plateau by plateau on floats
    (``point_gradient``); the far term is added after the wall term.
    The values are those of the whole gradient up to the sign of an
    exact zero.  The chord search's single-point calls lie off both
    bumps and get an exact zero; its sweep batches mostly have rows in
    the tube and none in the band, and evaluate the wall term alone."""
    chart = PhaseChart(dim_pairs=1)
    tube_radius = 0.15
    ring = Plateau(lo=R0, hi=R1, roll=0.2)
    core = tube_radius / 3.0
    nearq = Plateau(lo=0.0, hi=core * core,
                    roll=tube_radius * tube_radius - core * core)
    far_ring = Plateau(lo=R0 + 0.2, hi=R1 - 0.2, roll=0.15)
    near_anti = Plateau(lo=0.0, hi=0.005, roll=0.015)

    def tfac(t, sin=np.sin):
        """The time factor; ``sin=math.sin`` takes a float t."""
        if not time_periodic:
            return 1.0
        return 0.5 * (1.0 + sin(2 * math.pi * t))

    def value(x, t):
        p, q = np.moveaxis(x, -1, 0)
        rho = p * p + q * q
        wall = -amplitude * ring.value(rho) * nearq.value(q * q)
        w2 = 0.5 * ((p + q) * (p + q))
        far = AWAY_FACTOR * amplitude * near_anti.value(w2) \
            * far_ring.value(rho) * tfac(np.asarray(t))
        return wall + far

    # each term's two plateaus, and the stack evaluating them together
    pairs = ((ring, nearq), (near_anti, far_ring))
    stacks = tuple(PlateauStack(pair) for pair in pairs)

    def reaches(bump, y):
        """Some element of y has ``bump``'s falling argument below 1 (or
        is NaN), the only place the bump or its slope can be nonzero."""
        low = y.min() if getattr(y, "ndim", 0) else y  # one point: a scalar
        return not (low - bump.hi) / bump.roll >= 1.0

    def stack_bumps(i, ys):
        return stacks[i].values_and_slopes(np.array(ys))

    def plateau_bumps(i, ys):
        """``stack_bumps`` on floats, plateau by plateau: the stacks
        match ``Plateau.value`` and ``Plateau.deriv`` bit for bit."""
        return ([pl.value(y) for pl, y in zip(pairs[i], ys)],
                [pl.deriv(y) for pl, y in zip(pairs[i], ys)])

    def terms(p, q, t, sin, bumps):
        """(dF/dp, dF/dq) at points (p, q), or None where both terms
        vanish; ``bumps(i, ys)`` gives the values and the slopes of term
        i's plateaus at ys."""
        qq, s = q * q, p + q
        w2 = 0.5 * (s * s)
        wall, far = reaches(nearq, qq), reaches(near_anti, w2)
        if not (wall or far):
            return None
        rho = p * p + qq
        if wall:
            (rv, nv), (rd, nd) = bumps(0, (rho, qq))
            g0 = -amplitude * rd * 2 * p * nv
            g1 = -amplitude * (rd * 2 * q * nv + rv * nd * 2 * q)
        if far:
            (na, fr), (nad, frd) = bumps(1, (w2, rho))
            tf = AWAY_FACTOR * amplitude * tfac(t, sin)
            ns, nf = nad * s * fr, na * frd * 2
            f0, f1 = tf * (ns + nf * p), tf * (ns + nf * q)
            g0, g1 = (g0 + f0, g1 + f1) if wall else (f0, f1)
        return g0, g1

    def gradient(x, t):
        g = np.zeros(np.shape(x))
        pq = terms(x[..., 0], x[..., 1], np.asarray(t), np.sin, stack_bumps)
        if pq is not None:
            g[..., 0], g[..., 1] = pq
        return g

    def point_gradient(x, t):
        pq = terms(*x, t, math.sin, plateau_bumps)
        return [0.0, 0.0] if pq is None else list(pq)

    return HamiltonianSpec(
        chart=chart, value=value, gradient=gradient,
        point_gradient=point_gradient,
        autonomous=not time_periodic,
        name="wall-perturbation",
    )


def calibrate_perturbation(tet, spec: PerturbationSpec):
    """Scale the wall perturbation so that |Delta(F; low, high)| is the
    target.  Every term of F is proportional to its amplitude, so
    Delta(F_A) = A Delta(F_1): one separation at A = 1 fixes A, and a
    second measures the |Delta| of F_A that the budget uses.  Returns F,
    its measured |Delta|, the amplitude and the number of separations
    measured (2)."""
    def measured(a):
        F = wall_perturbation(a, R0=tet.R0, R1=tet.R1)
        return abs(separation(F, tet.low_wall, tet.high_wall,
                              n_samples=64).delta), F

    unit, _ = measured(1.0)
    if unit == 0.0:
        raise ConfigError("the wall perturbation leaves the separation "
                          "unchanged; no amplitude reaches the target")
    amp = spec.delta_target / unit
    delta, F = measured(amp)
    return F, delta, amp, 2


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
        escape_norm=10.0 * (math.sqrt(cfg.R1) + 1.0),
        **{key: getattr(cfg, key) for key in SEARCH_KEYS
           if getattr(cfg, key) is not None})
    result = find_chord(G, tet.floor, tet.ceiling, budget, search)
    time_len = inc = time_err = None
    if result.found:
        n = cfg.k if p_only else None
        a, b = result.chord.trajectory.states[[0, -1], :n]
        inc = float(np.linalg.norm(b) - np.linalg.norm(a))
        time_len = result.chord.time_length
        time_err = result.chord.time_error
    return ScenarioReport(
        scenario=scenario,
        delta_separation=sep.delta, delta_perturbation=delta_pert,
        kappa=tet.kappa, budget=budget, found=result.found,
        time_length=time_len, increment=inc, expected_increment=expected,
        details=details, time_error=time_err,
        n_refine_evals=result.n_refine_evals,
        n_refine_failed=result.n_refine_failed,
        n_separation_evals=sep.n_evals, search=result,
    )


def _reeb_time(cfg, model):
    """The config's T, or the model's default."""
    return model.default_reeb_time if cfg.T is None else cfg.T


def run_unstable_equilibrium(cfg: ScenarioConfig) -> ScenarioReport:
    model = SphereModel(cfg.k)
    tet = build_tetragon(model, cfg.R0, cfg.R1, _reeb_time(cfg, model))
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
        F, delta_pert, amp, steps = calibrate_perturbation(
            tet, cfg.perturbation)
        G = add_hamiltonians(G0, F)
        details["perturbation_amplitude"] = amp
        details["calibration_steps"] = steps
        details["away_factor"] = AWAY_FACTOR
    return _chord_report(
        "unstable_equilibrium", cfg, tet, G, sep, details,
        delta_pert=delta_pert,
        expected=math.sqrt(cfg.R1) - math.sqrt(cfg.R0))


def run_superconductivity(cfg: ScenarioConfig) -> ScenarioReport:
    model = CircleModel() if cfg.k == 1 else TorusModel(cfg.k)
    r = _reeb_time(cfg, model)
    if not r < 0.5:
        raise ConfigError(f"channel scenario requires r < 1/2, got {r}")
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
    model = SphereModel(cfg.k)
    tet = build_tetragon(model, cfg.R0, cfg.R1, _reeb_time(cfg, model))
    G = mechanical_hamiltonian(cfg.k, cfg.beta, cfg.R0, cfg.R1)
    sep = separation(G, tet.low_wall, tet.high_wall)
    return _chord_report(
        "mechanical", cfg, tet, G, sep,
        {"model": "sphere", "k": cfg.k, "beta": cfg.beta})


def run_reeb_chord(cfg: ScenarioConfig) -> ScenarioReport:
    """Chords of the conformally rescaled Reeb flow (speed f along Reeb
    lines) from L to psi_T(L), for T in the model's (C2) range; time is
    bounded by T / min f over the swept arcs.

    The Reeb angle obeys theta' = speed * f(theta), the flow of
    H(s, theta) = speed * s * f(theta) on a plane chart: theta' = dH/ds
    and s' = -speed * s * f'(theta).  Each chord is one ``integrate`` run
    from (1, theta0), stopped where theta reaches the end of its arc.
    """
    base, amp = cfg.reeb_factor_base, cfg.reeb_factor_amp
    if cfg.reeb_model == "sphere":
        model, starts = SphereModel(1), [0.0, math.pi]
        speed, omega = 2.0, 1.0
    elif cfg.reeb_model == "circle":
        model, starts = CircleModel(), [0.0]
        speed, omega = 1.0, 2 * math.pi
    else:
        raise ConfigError(f"unknown reeb model {cfg.reeb_model!r}")
    T = _reeb_time(cfg, model)
    model.check_reeb_time(T)
    # theta' = speed at f = 1: theta sweeps 2T on the sphere, T on the circle
    span = speed * T

    def f(theta, sin=np.sin):
        return base + amp * sin(omega * theta)

    def f_d(theta, cos=np.cos):
        return amp * omega * cos(omega * theta)

    grid = np.linspace(0.0, span, 2001)
    fmin = min(float(f(th0 + grid).min()) for th0 in starts)
    if fmin <= 0.0:
        raise ConfigError("conformal factor must be positive on Sigma")
    H = HamiltonianSpec(
        chart=PhaseChart(dim_pairs=1, labels=("s", "theta")),
        value=lambda x, t: speed * x[..., 0] * f(x[..., 1]),
        gradient=lambda x, t: speed * np.stack(
            [f(x[..., 1]), x[..., 0] * f_d(x[..., 1])], axis=-1),
        point_gradient=lambda x, t: [
            speed * f(x[1], math.sin),
            speed * (x[0] * f_d(x[1], math.cos))],
        name="reeb",
    )

    times = []
    for th0 in starts:
        def arrive(x):
            return x[1] - (th0 + span)

        # s * f(theta) is conserved, so s stays within max f / min f; theta
        # grows with T, so no escape ball applies
        traj = integrate(H, [1.0, th0], 0.0, 10.0 * T / fmin + 1.0,
                         tol=1e-12, escape_norm=math.inf, stop=arrive)
        if traj.stop is not None:
            times.append(traj.stop)
    found = len(times) == len(starts)
    time_len = min(times) if times else None
    return ScenarioReport(
        scenario="reeb_chord",
        delta_separation=fmin, delta_perturbation=0.0,
        kappa=T, budget=T / fmin, found=found,
        time_length=time_len, increment=None, expected_increment=None,
        details={"model": cfg.reeb_model, "C": fmin,
                 "chord_times": [float(t) for t in times]},
    )


_RUNNERS = {
    "unstable_equilibrium": run_unstable_equilibrium,
    "superconductivity": run_superconductivity,
    "mechanical": run_mechanical,
    "reeb_chord": run_reeb_chord,
}

# the ChordSearchConfig fields a scenario config may set
SEARCH_KEYS = ("n_seeds", "n_phases", "ode_tol")

# The config fields each scenario kind reads.  Pass rule: every chord
# kind accepts n_phases, although find_chord sweeps a single phase when
# G is autonomous, so that one set of search sizes fits every kind.
SCENARIO_KEYS = {
    "unstable_equilibrium": ("k", "R0", "R1", "T", "perturbation")
    + SEARCH_KEYS,
    "superconductivity": ("k", "R0", "R1", "T") + SEARCH_KEYS,
    "mechanical": ("k", "R0", "R1", "T", "beta") + SEARCH_KEYS,
    "reeb_chord": ("T", "reeb_model", "reeb_factor_base", "reeb_factor_amp"),
}


def check_scenario_keys(scenario, keys):
    """Raise ``ConfigError`` naming every key in ``keys`` (besides
    ``scenario``) that the kind does not read, or the unknown kind."""
    if scenario not in SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"choose from {sorted(SCENARIO_KEYS)}")
    unread = [key for key in keys
              if key != "scenario" and key not in SCENARIO_KEYS[scenario]]
    if unread:
        raise ConfigError(
            f"scenario {scenario!r} takes no {', '.join(unread)}; "
            f"it reads {', '.join(SCENARIO_KEYS[scenario])}")


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    return _RUNNERS[cfg.scenario](cfg)


def run_batch(configs):
    """Run scenarios one at a time; report order follows input order."""
    return deterministic_map(run_scenario, list(configs))
