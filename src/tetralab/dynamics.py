"""Trajectory integration, separation and floor-to-ceiling chord search.

The chord search sweeps a deterministic seed grid on the start region
(and start phases for time-periodic Hamiltonians).  All seeds x phases
are integrated together by one vectorised DOP853 ensemble
(``ensemble_sweep``) with event detection on the target region's
enclosing hypersurface; hits are certified by a membership test.  The
earliest hit (else the closest miss) seeds one derivative-free pattern
search that ranks any certified hit above any miss, an earlier hit above
a later one and a closer miss above a farther one.  Each evaluation runs
``integrate`` over the incumbent window: the whole budget until the
search has certified a hit, then only up to the best certified arrival
time t* plus ``INCUMBENT_MARGIN`` of the budget, since a candidate that
has not arrived by then cannot win.  The search stops at the first poll
that does not improve and whose values all lie within ``FLAT_ULPS`` ulps
of the incumbent's (two such polls in a row where the box clips a
probe), since later polls would only chase rounding noise
(``pattern_search``); the same stop serves the separation estimates.
The winner is re-certified by ``integrate`` over the same window, and
once more at a hundredth of the ODE tolerance for its error bar.  The
returned chord is the minimal-time certified chord over the sweep, with
ties broken by seed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import DOP853, MAX_FACTOR, MIN_FACTOR, SAFETY

from .contact import Region
from .phase_core import HamiltonianSpec, sgrad


class EscapeError(RuntimeError):
    """The trajectory left the configured norm ball; carries last state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = float(t)
        self.state = np.asarray(state, dtype=float)


class StiffnessError(RuntimeError):
    """The adaptive integrator failed to advance (step underflow)."""


def deterministic_map(fn, items):
    """``[fn(it) for it in items]``, serially and in input order.

    ``run_batch`` maps through it.  It stays a function of its own because
    ``bench/tracing.py`` wraps ``dynamics.deterministic_map``, and every
    traced benchmark run fails without it.
    """
    return [fn(it) for it in items]


@dataclass(frozen=True)
class Trajectory:
    """A sampled integral curve with dense output.

    ``times``/``states`` are the accepted solver steps (states wrapped to
    the chart); ``dense`` evaluates the unwrapped dense-output
    interpolant.  ``event_times`` lists the detected roots of the caller
    supplied event functional.
    """

    chart: object
    times: np.ndarray
    states: np.ndarray
    event_times: tuple = ()
    dense: Callable = field(default=None, compare=False, repr=False)

    def __call__(self, t):
        return self.chart.wrap(self.dense(t))

    @property
    def t0(self):
        return float(self.times[0])

    @property
    def t1(self):
        return float(self.times[-1])

    def sample(self, ts):
        return self.chart.wrap(self.dense(np.atleast_1d(ts)).T)


def integrate(H: HamiltonianSpec, x0, t0, t1, tol=1e-10,
              escape_norm=100.0, events=None) -> Trajectory:
    """Adaptive dense-output integration of the Hamiltonian flow of H.

    Periodic coordinates are integrated unwrapped and reduced on output;
    the right-hand side wraps before evaluating the gradient so the
    dynamics itself never sees drifted angles.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    chart = H.chart

    def rhs(t, y):
        return sgrad(H, y, t)  # H.grad reduces periodic coordinates

    ev_list = []

    def escape(t, y):
        return escape_norm - float(np.linalg.norm(y))

    escape.terminal = True
    ev_list.append(escape)
    user_events = []
    if events:
        for g in events:
            def wrapped(t, y, g=g):
                return g(chart.wrap(y))

            wrapped.terminal = getattr(g, "terminal", False)
            user_events.append(wrapped)
    ev_list.extend(user_events)

    x0 = np.asarray(chart.wrap(x0), dtype=float)
    sol = solve_ivp(rhs, (t0, t1), x0, method="DOP853", rtol=tol,
                    atol=tol * 1e-2, dense_output=True, events=ev_list)
    if sol.status == -1:
        raise StiffnessError(f"integrator failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[0]) > 0:
        raise EscapeError(
            f"trajectory norm exceeded {escape_norm}",
            sol.t_events[0][0], chart.wrap(sol.y[:, -1]),
        )
    ev_times = tuple(
        float(t) for te in sol.t_events[1:] for t in te
    )
    states = chart.wrap(sol.y.T)
    return Trajectory(
        chart=chart,
        times=np.asarray(sol.t, dtype=float),
        states=states,
        event_times=tuple(sorted(ev_times)),
        dense=sol.sol,
    )


# ---------------------------------------------------------------------------
# Ensemble integration
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_ERR_EXP = -1.0 / (DOP853.error_estimator_order + 1)
# target-distance samples per chord window, shared by the sweep and the
# refinement so that both measure a miss at the same times
MISS_SAMPLES = 64
# once a hit at t* is certified, refinement and certification integrate
# only to t* + INCUMBENT_MARGIN * budget; the margin covers the hit-time
# shift a shorter span causes (at most 5.4e-10 on the scenario fixtures at
# ode_tol 1e-9, over 1000x below the margin) and the 1e-9 by which the
# sweep's hit times agree with integrate's
INCUMBENT_MARGIN = 1e-6
# pattern_search stops after a poll that does not improve and whose every
# value lies within FLAT_ULPS ulps of the incumbent's.  On the wall-witness
# sweep the miss distances of late polls differ by at most 24 ulps, which
# is rounding noise of the integration, not progress: 24 still halves down
# to the step floor there (76 evaluations), 32 and up stop at 12.  Larger
# values trim a few chord evaluations more (default scenarios: 237 at 32,
# 221 at 64, 201 at 1024) for a looser stop.
FLAT_ULPS = 64


def _rms(x):
    """Row-wise RMS norm, as scipy's ``norm`` on each row."""
    return np.sqrt(np.sum(x * x, axis=-1)) / x.shape[-1] ** 0.5


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol):
    """scipy's ``select_initial_step`` for every row at once."""
    span = t_end - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1 = rhs(t0 + h0, y0 + h0[:, None] * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (-_ERR_EXP))
    return np.minimum(np.minimum(100 * h0, h1), span)


def _combine(coeffs, K):
    """sum_j coeffs[j] * K[j], term by term.

    Elementwise products and sums round the same way whatever the array
    length, so a member's trajectory does not depend on which members
    share its batch (a BLAS dot product does not promise that).
    """
    out = np.zeros_like(K[0])
    for c, k in zip(coeffs, K):
        if c:
            out = out + c * k
    return out


def _dense(F, y_old, x):
    """DOP853 continuous extension (7 terms) at unit-step fractions x."""
    y = np.zeros_like(y_old)
    x = x[:, None]
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


@dataclass(frozen=True)
class SweepResult:
    """Per-member outcome of ``ensemble_sweep``.

    ``hit`` is the first certified arrival time after the start phase
    (nan without one); ``distance`` the closest sampled target distance
    (inf for escaped or stiff members); ``escaped``/``stiff`` flag the
    members the integrator lost.
    """

    hit: np.ndarray
    distance: np.ndarray
    escaped: np.ndarray
    stiff: np.ndarray


def ensemble_sweep(G: HamiltonianSpec, X1: Region, starts, phases,
                   time_budget, tol=1e-10, escape_norm=100.0,
                   member_tol=1e-6) -> SweepResult:
    """Integrate every start point from its phase over the budget at once.

    Each member follows scipy's DOP853 exactly as ``integrate`` would
    (initial step, error norm, step factors, step underflow counted as
    stiff) but all members advance together as ``(N, 2n)`` arrays.  After
    every accepted step, sign changes of the target event are bisected on
    the dense interpolant; the first root with ``t - phase > 1e-12``
    whose point lies in X1 ends the member as a hit.  A member whose state
    norm reaches ``escape_norm`` before a hit is lost as escaped.  Target
    distances are sampled at ``linspace(phase, phase + time_budget,
    MISS_SAMPLES)`` until some hit exists; from then on sampling stops and
    members that can no longer arrive before the best hit are dropped
    (their ``hit`` stays nan).  The stepper treats every member alike (see
    ``_combine``), so a member's outcome does not depend on the rest of
    the batch, except for being dropped, as long as G's callbacks do not.
    """
    chart = G.chart
    rtol, atol = tol, tol * 1e-2
    phases = np.asarray(phases, dtype=float)
    n_all = len(phases)
    uniq, ph_row = np.unique(phases, return_inverse=True)
    sample_t = np.array([np.linspace(p, p + time_budget, MISS_SAMPLES)
                         for p in uniq])

    hit = np.full(n_all, np.nan)
    dist = np.full(n_all, np.inf)
    escaped = np.zeros(n_all, dtype=bool)
    stiff = np.zeros(n_all, dtype=bool)

    def rhs(t, y):
        return sgrad(G, y, t)

    def event(y):
        return X1.event_value(chart.wrap(y))

    # per-member state, compacted to the active members after each trial
    idx = np.arange(n_all)
    t0 = phases.copy()
    t_end = phases + time_budget
    t = phases.copy()
    y = chart.wrap(np.asarray(starts, dtype=float))
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_end, rtol, atol)
    g = event(y)
    g_esc = escape_norm - np.linalg.norm(y, axis=-1)
    fresh = np.ones(n_all, dtype=bool)
    next_sample = np.zeros(n_all, dtype=int)
    best = np.inf
    K = np.empty((DOP853.n_stages + 1,) + y.shape)

    while idx.size:
        m, dim = y.shape
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(fresh & (h_abs < min_step), min_step, h_abs)
        failed = h_abs < min_step
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        h_abs = np.abs(h)

        Kv = K[:, :m]
        Kv[0] = f
        for s_, (a, c) in enumerate(zip(DOP853.A[1:], DOP853.C[1:]),
                                    start=1):
            dy = _combine(a[:s_], Kv[:s_]) * h[:, None]
            Kv[s_] = rhs(t + c * h, y + dy)
        y_new = y + h[:, None] * _combine(DOP853.B, Kv[:-1])
        f_new = rhs(t + h, y_new)
        Kv[-1] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5 = np.linalg.norm(_combine(DOP853.E5, Kv) / scale, axis=-1) ** 2
        e3 = np.linalg.norm(_combine(DOP853.E3, Kv) / scale, axis=-1) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0,
                           h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * dim))
            grow = np.where(err == 0, MAX_FACTOR,
                            np.minimum(MAX_FACTOR, SAFETY * err ** _ERR_EXP))
            shrink = np.maximum(MIN_FACTOR, SAFETY * err ** _ERR_EXP)
        accept = (err < 1) & ~failed
        h_abs = h_abs * np.where(accept, np.where(fresh, grow,
                                                  np.minimum(1, grow)),
                                 shrink)
        fresh = accept
        done = failed.copy()
        stiff[idx[failed]] = True

        acc = np.flatnonzero(accept)
        if acc.size:
            ta, ya, h_a = t[acc], y[acc], h[acc]
            yn = y_new[acc]
            t[acc], y[acc], f[acc] = t_new[acc], yn, f_new[acc]
            g_new = event(yn)
            ge_new = escape_norm - np.linalg.norm(yn, axis=-1)
            ga, gea = g[acc], g_esc[acc]
            g[acc], g_esc[acc] = g_new, ge_new
            cross = ((ga <= 0) & (g_new >= 0)) | ((ga >= 0) & (g_new <= 0))
            n_due = np.zeros(acc.size, dtype=int)  # samples up to t_new
            if not best < np.inf:
                rows = ph_row[idx[acc]]
                for r in np.unique(rows):
                    on = rows == r
                    n_due[on] = np.searchsorted(sample_t[r], t_new[acc[on]],
                                                side="right")
            due = n_due > next_sample[acc]
            need = np.flatnonzero(cross | due)
            if need.size:
                # dense output of the step for the members that need it
                Kx = np.empty((len(DOP853.C_EXTRA) + DOP853.n_stages + 1,
                               need.size, dim))
                Kx[:DOP853.n_stages + 1] = Kv[:, acc[need]]
                hn = h_a[need]
                for s_, (a, c) in enumerate(
                        zip(DOP853.A_EXTRA, DOP853.C_EXTRA),
                        start=DOP853.n_stages + 1):
                    dy = _combine(a[:s_], Kx[:s_]) * hn[:, None]
                    Kx[s_] = rhs(ta[need] + c * hn, ya[need] + dy)
                dyn = yn[need] - ya[need]
                hc = hn[:, None]
                F = np.empty((7, need.size, dim))
                F[0] = dyn
                F[1] = hc * Kx[0] - dyn
                F[2] = 2 * dyn - hc * (Kx[DOP853.n_stages] + Kx[0])
                F[3:] = hc * np.array([_combine(d, Kx) for d in DOP853.D])
                pos = np.full(acc.size, -1)
                pos[need] = np.arange(need.size)

                rc = np.flatnonzero(cross)
                if rc.size:
                    j = pos[rc]
                    root = _bisect_event(event, F[:, j], ya[rc], ta[rc],
                                         hn[j], ga[rc])
                    y_root = _dense(F[:, j], ya[rc], (root - ta[rc]) / hn[j])
                    ok = ((root - t0[acc[rc]] > 1e-12)
                          & (np.linalg.norm(y_root, axis=-1) < escape_norm))
                    # one membership query per candidate root keeps the
                    # query count equal to the number of roots tested
                    for r in np.flatnonzero(ok):
                        ok[r] = X1.membership(chart.wrap(y_root[r]),
                                              member_tol)
                    members = acc[rc[ok]]
                    hit[idx[members]] = root[ok] - t0[members]
                    done[members] = True
                    if ok.any():
                        best = min(best, float(np.nanmin(hit)))

                rs = np.flatnonzero(due & ~done[acc])
                if rs.size:
                    first, stop = next_sample[acc[rs]], n_due[rs]
                    # one dense evaluation per sample index keeps memory at
                    # one row per member however long the step
                    for k in range(first.min(), stop.max()):
                        mem = rs[(first <= k) & (k < stop)]
                        j = pos[mem]
                        ts = sample_t[ph_row[idx[acc[mem]]], k]
                        ys = _dense(F[:, j], ya[mem], (ts - ta[mem]) / hn[j])
                        who = idx[acc[mem]]
                        dist[who] = np.minimum(dist[who],
                                               X1.distance(chart.wrap(ys)))
                    next_sample[acc[rs]] = stop

            esc = (((gea <= 0) & (ge_new >= 0)) | ((gea >= 0) & (ge_new <= 0)))
            esc &= ~done[acc]
            escaped[idx[acc[esc]]] = True
            done[acc[esc]] = True
            done[acc[t_new[acc] >= t_end[acc]]] = True
        if best < np.inf:
            done |= t - t0 > best + 1e-12
        if done.any():
            keep = ~done
            idx, t0, t_end, t, y, f = (a[keep] for a in
                                       (idx, t0, t_end, t, y, f))
            h_abs, g, g_esc, fresh, next_sample = (
                a[keep] for a in (h_abs, g, g_esc, fresh, next_sample))
    dist[escaped | stiff] = np.inf
    return SweepResult(hit=hit, distance=dist, escaped=escaped, stiff=stiff)


def _bisect_event(event, F, y_old, t_old, h, g_old):
    """Roots of the event along each member's step, by bisection on the
    dense interpolant to the 4-eps tolerance of scipy's event solver."""
    lo, hi = t_old.copy(), t_old + h
    g_lo = g_old.copy()
    for _ in range(80):
        mid = lo + 0.5 * (hi - lo)
        open_ = (hi - lo) > 4 * _EPS * (1.0 + np.abs(mid))
        if not open_.any():
            break
        g_mid = event(_dense(F, y_old, (mid - t_old) / h))
        left = np.sign(g_mid) != np.sign(g_lo)
        left |= g_mid == 0
        hi = np.where(open_ & left, mid, hi)
        lo = np.where(open_ & ~left, mid, lo)
        g_lo = np.where(open_ & ~left, g_mid, g_lo)
    return np.where(g_old == 0, t_old, lo + 0.5 * (hi - lo))


# ---------------------------------------------------------------------------
# Derivative-free local refinement
# ---------------------------------------------------------------------------

def _flat(fy, fx):
    """Whether ``fy`` lies within FLAT_ULPS ulps of ``fx``.  Tuples
    ``(rank, value)`` are flat only with equal ranks; inf is never flat."""
    if isinstance(fx, tuple):
        (ry, fy), (rx, fx) = fy, fx
        if ry != rx:
            return False
    return abs(fy - fx) <= FLAT_ULPS * _EPS * max(abs(fx), abs(fy))


def pattern_search(f, x0, bounds, max_evals=200):
    """Coordinate pattern search on a box; deterministic poll order.

    Steps start at a tenth of each side and halve after a poll that does
    not improve, unless the poll was *flat*: every value it took lies
    within ``FLAT_ULPS`` ulps of the incumbent's (for ``(rank, value)``
    tuples: the same rank and a flat value).  A flat poll ends the
    search.  On a convex 1-D objective the improvement left after a
    non-improving poll at ``x +- s`` is at most the poll's largest rise,
    so the stop gives up at most ``FLAT_ULPS`` ulps of the value.  Where
    the box clips a probe, the poll lacks that side, and it ends the
    search only if the poll before it was flat too: the probes at ``x +
    2s`` and ``x + s`` then bound the same improvement.  The search also
    ends once the steps fall below 1e-12 or after ``max_evals``
    evaluations.  Values are compared only with ``<`` and ``_flat``, so
    ``f`` may return a float or a ``(rank, float)`` tuple.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    x = np.array([min(max(v, lo), hi)
                  for v, (lo, hi) in zip(np.atleast_1d(x0), bounds)])
    steps = np.array([(hi - lo) * 0.1 for lo, hi in bounds])
    fx = f(x)
    evals = 1
    was_flat = False
    while evals < max_evals and steps.max() > 1e-12:
        improved, flat, clipped = False, True, False
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                y = x.copy()
                lo, hi = bounds[i]
                probe = x[i] + sign * steps[i]
                y[i] = min(max(probe, lo), hi)
                clipped = clipped or y[i] != probe
                if y[i] == x[i]:
                    continue
                fy = f(y)
                evals += 1
                if fy < fx:
                    x, fx = y, fy
                    improved = True
                    break
                flat = flat and _flat(fy, fx)
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
        if not improved:
            if flat and (was_flat or not clipped):
                break
            steps *= 0.5
        was_flat = flat and not improved
    return x, fx, evals


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationReport:
    """Delta(G; Y0, Y1) = min over Y1 x period of G minus max over Y0.

    ``n_evals`` counts the pattern-search evaluations of both
    extremizations (the dense sampling is not counted)."""

    delta: float
    min_value: float
    max_value: float
    argmin: np.ndarray
    argmax: np.ndarray
    argmin_time: float
    argmax_time: float
    n_samples: int
    separating: bool
    n_evals: int


def _extremize_on_region(G, region: Region, n_samples, sign):
    """sign=+1 minimizes G over the region x time, sign=-1 maximizes.
    Returns the extremum, its point and time, and the pattern-search
    evaluation count."""
    times = np.array([0.0])
    if not G.autonomous:
        times = np.linspace(0.0, 1.0, 17)[:-1]
    params = region.sample_params(n_samples)
    pts = np.array([region.param_point(pr, comp) for pr, comp in params])
    # one evaluation over samples x times, in sample-major order so the
    # argmin is the first minimum of a sample-by-sample scan
    vals = sign * G(np.repeat(pts, len(times), axis=0),
                    np.tile(times, len(pts)))
    best = int(np.argmin(vals))
    (pr, comp), t0 = params[best // len(times)], float(times[best % len(times)])
    bounds = list(region.param_bounds)
    x0 = list(pr)
    time_axis = len(times) > 1
    if time_axis:
        bounds.append((0.0, 1.0))
        x0.append(t0)

    def obj(z):
        params = z[:-1] if time_axis else z
        t = z[-1] if time_axis else t0
        return sign * G(region.param_point(params, comp), t)

    evals = 0
    if bounds:
        z, fv, evals = pattern_search(obj, np.array(x0), bounds,
                                      max_evals=120)
        params = z[:-1] if time_axis else z
        t = float(z[-1]) if time_axis else t0
    else:
        fv = float(vals[best])
        params, t = pr, t0
    return sign * fv, region.param_point(params, comp), t, evals


def separation(G: HamiltonianSpec, Y0: Region, Y1: Region,
               n_samples=256) -> SeparationReport:
    """Estimate Delta(G; Y0, Y1) by dense sampling plus local refinement."""
    vmin, xmin, tmin, n_min = _extremize_on_region(G, Y1, n_samples, +1.0)
    vmax, xmax, tmax, n_max = _extremize_on_region(G, Y0, n_samples, -1.0)
    delta = vmin - vmax
    return SeparationReport(
        delta=float(delta),
        min_value=float(vmin),
        max_value=float(vmax),
        argmin=xmin,
        argmax=xmax,
        argmin_time=float(tmin),
        argmax_time=float(tmax),
        n_samples=int(n_samples),
        separating=bool(delta > 0.0),
        n_evals=n_min + n_max,
    )


def chord_budget(kappa, delta_sep, delta_pert=0.0):
    """Time budget kappa / (Delta - delta) of the interlinking bound."""
    gap = delta_sep - delta_pert
    if gap <= 0.0:
        raise ValueError(
            f"separation {delta_sep} does not exceed perturbation "
            f"margin {delta_pert}: no finite chord budget"
        )
    return kappa / gap


# ---------------------------------------------------------------------------
# Chord search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chord:
    """A certified trajectory segment from X0 to X1.

    ``trajectory`` runs over the certification window, which ends at
    ``min(t0 + budget, t1 + margin)`` for the margin of ``find_chord``.
    ``time_error`` is ``|t1 - t1'|``, where ``t1'`` is the arrival time
    certified by a second integration at a hundredth of the ODE tolerance
    (inf when that run certifies no hit).  By tolerance proportionality
    (Hairer-Norsett-Wanner, Solving ODEs I, II.4) it estimates the error
    of ``t1``; it is an estimate, not a rigorous bound.
    """

    trajectory: Trajectory
    start: np.ndarray
    end: np.ndarray
    t0: float
    t1: float
    start_distance: float
    end_distance: float
    time_error: float

    @property
    def time_length(self):
        return self.t1 - self.t0

    def validate(self, X0: Region, X1: Region, time_budget, tol=1e-6):
        ok = (
            X0.distance(self.start) <= tol
            and X1.distance(self.end) <= tol
            and 0.0 < self.time_length <= time_budget + 1e-12
        )
        return bool(ok)


@dataclass(frozen=True)
class ChordSearchResult:
    """Outcome of ``find_chord``.

    ``n_seeds``/``n_phases`` are the swept counts (one phase for an
    autonomous Hamiltonian); ``n_escaped``/``n_stiff`` count the sweep
    members lost to the escape ball or to step underflow;
    ``n_refine_evals`` counts the pattern-search evaluations and
    ``n_refine_failed`` those whose integration raised ``EscapeError`` or
    ``StiffnessError``.
    """

    found: bool
    chord: Optional[Chord]
    best_distance: float
    n_seeds: int
    n_phases: int
    message: str = ""
    n_escaped: int = 0
    n_stiff: int = 0
    n_refine_evals: int = 0
    n_refine_failed: int = 0


@dataclass(frozen=True)
class ChordSearchConfig:
    """Chord-search settings.  The sweep runs serially, as one vectorised
    ensemble."""

    n_seeds: int = 64
    n_phases: int = 16
    tol: float = 1e-6
    ode_tol: float = 1e-10
    escape_norm: float = 100.0


def _chord_trajectory(G, x0, phase, span, X1, ode_tol, escape_norm):
    """``integrate`` over ``[phase, phase + span]``, and whether it
    escaped.

    A trajectory that leaves the escape ball is cut just before it does,
    so that a hit reached before the escape still counts, as in the
    ensemble sweep.
    """
    def run(t1):
        return integrate(G, x0, phase, t1, tol=ode_tol,
                         escape_norm=escape_norm, events=[X1.event_fn])

    try:
        return run(phase + span), False
    except EscapeError as exc:
        t_cut = exc.t - 1e-6 * (exc.t - phase)
        if not t_cut > phase:
            raise
        return run(t_cut), True


def _first_hit(traj, X1, phase, tol):
    """First event root after the start that X1's membership certifies."""
    for tr in traj.event_times:
        if tr - phase > 1e-12 and X1.membership(traj(tr), tol):
            return tr
    return None


def find_chord(G: HamiltonianSpec, X0: Region, X1: Region, time_budget,
               config: ChordSearchConfig = ChordSearchConfig()
               ) -> ChordSearchResult:
    """Minimal-time certified chord from X0 to X1 within the budget.

    Refinement keeps an incumbent t*, the best arrival time that its own
    ``integrate`` runs have certified (inf at first; the sweep's hit time
    does not set it).  Each evaluation integrates to ``phase + min(budget,
    t* + margin)``, with ``margin = INCUMBENT_MARGIN * budget``; once t*
    is finite, a candidate with no hit in that window ranks ``(1, inf)``,
    as it cannot beat a hit.  The pattern search stops at a flat poll
    (see ``pattern_search``).  The winner is re-integrated over
    ``min(budget, its time + margin)`` and certified over ``min(budget,
    hit + margin)``, for the hit that run certifies.
    """
    if time_budget <= 0.0:
        raise ValueError("time_budget must be positive")
    for x in X0.sample_points(32):
        if X1.membership(x, config.tol):
            raise ValueError("start and target regions are not disjoint")

    phases = [0.0]
    if not G.autonomous:
        phases = list(np.linspace(0.0, 1.0, config.n_phases,
                                  endpoint=False))
    seeds = X0.sample_params(config.n_seeds)
    jobs = [(phase, pr, comp) for phase in phases for pr, comp in seeds]
    seed_points = np.array([X0.param_point(pr, comp) for pr, comp in seeds])
    sweep = ensemble_sweep(
        G, X1, np.tile(seed_points, (len(phases), 1)),
        np.repeat(phases, len(seeds)), time_budget, tol=config.ode_tol,
        escape_norm=config.escape_norm, member_tol=config.tol)
    counts = dict(n_seeds=len(seeds), n_phases=len(phases),
                  n_escaped=int(sweep.escaped.sum()),
                  n_stiff=int(sweep.stiff.sum()))

    best_idx, best_time = None, math.inf
    for idx, hit in enumerate(sweep.hit):
        if hit < best_time - 1e-15:
            best_idx, best_time = idx, float(hit)
    best_dist = float(sweep.distance.min())
    if best_idx is None:  # no hit: refine from the closest miss
        best_idx = int(np.argmin(sweep.distance))
    phase, pr, comp = jobs[best_idx]
    margin = INCUMBENT_MARGIN * time_budget
    incumbent, n_failed = math.inf, 0

    def rank(params):
        """(0, arrival time) for a certified hit, else (1, closest sampled
        target distance); tuples order every hit before every miss."""
        nonlocal incumbent, n_failed
        try:
            traj, escaped = _chord_trajectory(
                G, X0.param_point(params, comp), phase,
                min(time_budget, incumbent + margin), X1, config.ode_tol,
                config.escape_norm)
        except (EscapeError, StiffnessError):
            n_failed += 1
            return 1, math.inf
        hit = _first_hit(traj, X1, phase, config.tol)
        if hit is not None:
            incumbent = min(incumbent, hit - phase)
            return 0, hit - phase
        if escaped or incumbent < math.inf:
            return 1, math.inf
        ts = np.linspace(traj.t0, traj.t1, MISS_SAMPLES)
        return 1, float(np.min(X1.distance(traj.sample(ts))))

    n_evals = 0
    if len(X0.param_bounds) > 0:
        z, (missed, value), n_evals = pattern_search(rank, np.array(pr),
                                                     X0.param_bounds)
        if not missed and value <= best_time:
            pr, best_time = z, value
        elif best_time == math.inf:
            best_dist = min(best_dist, value)
    counts.update(n_refine_evals=n_evals, n_refine_failed=n_failed)
    if best_time == math.inf:
        return ChordSearchResult(
            found=False, chord=None, best_distance=best_dist,
            message=(
                "no certified chord at the swept resolution: "
                f"{counts['n_seeds']} seeds x {counts['n_phases']} phases, "
                f"{counts['n_escaped']} escaped, {counts['n_stiff']} stiff; "
                f"{n_evals} refinement evaluations, {n_failed} failed"),
            **counts,
        )
    return _certify(G, X0, X1, np.asarray(pr, float), comp, phase,
                    min(time_budget, best_time + margin), margin, config,
                    best_dist, counts)


def _cut(traj, t_end):
    """``traj`` cut to end at ``t_end`` if it runs past it."""
    if traj.t1 <= t_end:
        return traj
    keep = traj.times < t_end
    return replace(traj, times=np.append(traj.times[keep], t_end),
                   states=np.vstack([traj.states[keep], traj(t_end)]),
                   event_times=tuple(t for t in traj.event_times
                                     if t <= t_end))


def _certify(G, X0, X1, params, comp, phase, span, margin, config,
             best_dist, counts) -> ChordSearchResult:
    """Re-integrate the winning seed over ``[phase, phase + span]`` and
    package the certified chord.

    ``span`` is sized from the search's value, which this run's hit may
    undercut by a few ulps (its last step is clipped to another window).
    The chord's window is sized from the certified hit instead: the
    trajectory is cut at ``phase + min(span, hit - phase + margin)``, and
    the second run, at ``ode_tol / 100`` for ``time_error``, integrates
    over the same window.
    """
    x0 = X0.param_point(params, comp)
    traj, _ = _chord_trajectory(G, x0, phase, span, X1, config.ode_tol,
                                config.escape_norm)
    hit = _first_hit(traj, X1, phase, config.tol)
    if hit is None:
        return ChordSearchResult(
            found=False, chord=None, best_distance=float(best_dist),
            message="candidate failed re-certification", **counts,
        )
    window = min(span, hit - phase + margin)
    try:
        fine, _ = _chord_trajectory(G, x0, phase, window, X1,
                                    config.ode_tol / 100, config.escape_norm)
    except (EscapeError, StiffnessError):
        fine_hit = None
    else:
        fine_hit = _first_hit(fine, X1, phase, config.tol)
    end = traj(hit)
    chord = Chord(
        trajectory=_cut(traj, phase + window),
        start=traj(phase),
        end=end,
        t0=float(phase),
        t1=float(hit),
        start_distance=X0.distance(traj(phase)),
        end_distance=X1.distance(end),
        time_error=math.inf if fine_hit is None else abs(hit - fine_hit),
    )
    return ChordSearchResult(found=True, chord=chord, best_distance=0.0,
                             **counts)
