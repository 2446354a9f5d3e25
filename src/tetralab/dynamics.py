"""Trajectory integration, separation and floor-to-ceiling chord search.

Every flow runs through one DOP853 stepper, whose tableau the package
carries (``dop853``; importing the package loads no scipy):
``ensemble_sweep`` steps rows of points as arrays, and ``integrate`` steps
one point on Python floats, rounding as a row does, so a sweep member and
its ``integrate`` run agree bit for bit, and end alike: at an arrival (a
target root inside the escape ball, ``_arrival``), or escaped at a start
or step end outside the ball.  One point's dense output, its stop roots
and, for an event with a float twin (``point``, as the regions of
``contact.build_tetragon`` carry), its event values are on floats too.
Stage sums skip the tableau's zero weights (one point's all of them, the
rows' only the error estimates' weight on the end slope, where a skip
costs no copy): each starts at +0.0, a running sum of finite terms from
+0.0 is never -0.0, and a stage is finite (a non-finite slope raises
``EvaluationError``), so a zero weight's term, +-0.0, changes nothing.
A sweep trial, its stage sums and step control make only C-level numpy
calls (ufunc ``reduce``, ``nonzero``, ``out=``), as do ``sgrad`` and the
package's batched gradients: a Python-level wrapper (``np.shape``,
``np.where``, ``ndarray.sum``) would cost a frame on every stage.
The chord search sweeps a seed grid on the start region
(and start phases for time-periodic Hamiltonians) in one ensemble,
certifying each step's target roots by one distance call on their stack;
its seed points and its disjointness check take one call each on their
grids.  The earliest hit (ties broken by seed order, else the closest
miss) seeds one derivative-free pattern search (``find_chord``); its first
evaluation repeats the sweep's, and it stops once its polls only chase
rounding noise (``pattern_search``), as the separation estimates do, or
at a cap of ``max(200, 100 d)`` evaluations for d start parameters,
which the result reports (``refine_converged``).
Every run of the search, like a sweep member, stops at its first
certified arrival (``integrate``'s ``stop``), so each candidate is
integrated once and the winning evaluation's run, ending at its arrival,
is the chord; one more run at a hundredth of the ODE tolerance gives its
error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .contact import MEMBER_TOL, Region, _norm
from .dop853 import (A, B, C, D, E3, E5, MAX_FACTOR, MIN_FACTOR, N_STAGES,
                     N_STAGES_EXTENDED, SAFETY)
from .phase_core import HamiltonianSpec, row_sum, sgrad


class EscapeError(RuntimeError):
    """The trajectory left the configured norm ball; carries last state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = float(t)
        self.state = np.asarray(state, dtype=float)


class StiffnessError(RuntimeError):
    """The adaptive integrator failed to advance (step underflow)."""


def _check_run_settings(tol, escape_norm, tol_name="tol"):
    """``ValueError``, naming the argument, unless the ODE tolerance is
    positive and finite and ``escape_norm`` positive (inf: no ball)."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{tol_name} must be positive and finite, got {tol}")
    if not escape_norm > 0.0:
        raise ValueError(f"escape_norm must be positive, got {escape_norm}")


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
    the chart), except that a run ended by its stop event ends at that
    root: ``stop`` is its time (None for a run that reached its end
    time), and the last entry of ``times``.  ``dense`` evaluates the
    unwrapped dense-output interpolant, at one time as a list of floats
    and at times ``(m,)`` as a ``(dim, m)`` array of the same floats.
    """

    chart: object
    times: np.ndarray
    states: np.ndarray
    stop: Optional[float] = None
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


# ---------------------------------------------------------------------------
# DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.5-II.6), scipy's step
# control.  ``ensemble_sweep`` steps rows of points, ``(m, dim)`` arrays;
# ``integrate`` steps one point on lists of floats with the ``_point_*``
# helpers, which round as a row does; dense output is ``_dense`` for rows,
# in column layout (coefficients ``(7, dim, m)``, states ``(dim, m)``),
# and ``_point_dense`` for one point.
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_N_STAGES = N_STAGES + 1  # stages of a step, its end slope included


def _nonzero(c):
    """The ``(stage, weight)`` pairs of the weights c that are not zero,
    in stage order: the terms a stage sum cannot skip."""
    return tuple((j, float(w)) for j, w in enumerate(c) if w)


# (a, its nonzero pairs, c) of each stage after the first: the rest of a
# step, then the extra stages of its continuous extension; and the c of
# each as a column, for a step's stage times taken at once
_STAGES = [(A[s, :s], _nonzero(A[s, :s]), float(C[s]))
           for s in range(1, N_STAGES)]
_EXTRA = [(A[s, :s], _nonzero(A[s, :s]), float(C[s]))
          for s in range(_N_STAGES, N_STAGES_EXTENDED)]
_STAGE_C, _EXTRA_C = C[1:N_STAGES, None], C[_N_STAGES:, None]
# the error weights E5, E3 without the step's end slope, whose weight is
# zero in both; one point's weights B, E5, E3 and D as nonzero pairs
_E5_ROWS, _E3_ROWS = E5[:N_STAGES], E3[:N_STAGES]
_B, _E5, _E3 = _nonzero(B), _nonzero(E5), _nonzero(E3)
_D = [_nonzero(row) for row in D]


def _stage_sum(c, K):
    """sum_j c[j] * K[j] over the stages K of rows, ``(s, m, dim)``, for
    the weights c, ``(s,)``.  The sum starts at +0.0 (numpy's
    ``add.reduce``) and adds its terms in stage order (numpy keeps it
    given two numbers per stage), so that, unlike with BLAS, a row does
    not depend on which rows share a batch.

    A zero weight's term is exactly +-0.0, since K is finite (a
    non-finite slope raises ``EvaluationError``), and a running sum from
    +0.0 is never -0.0 (in round-to-nearest x + y is -0.0 only for two
    -0.0), so adding such a term changes nothing: a caller may pass only
    the stages where c is nonzero."""
    flat = K.reshape(len(c), -1)
    return np.add.reduce(c[:, None] * flat, axis=0).reshape(K.shape[1:])


def _point_sum(w, K):
    """``_stage_sum`` of one point's stages K (lists of floats) for the
    nonzero pairs w (``_nonzero``), from 0.0 as numpy's sum (so -0.0
    terms sum to 0.0), skipping the zero weights."""
    out = []
    for i in range(len(K[0])):
        acc = 0.0
        for j, c in w:
            acc += c * K[j][i]
        out.append(acc)
    return out


def _point_norm(v):
    """|v| as numpy's ``norm(axis=-1)`` takes it of a row (``row_sum``)."""
    return math.sqrt(row_sum([x * x for x in v]))


def _root8(x, sqrt=np.sqrt):
    """x ** (1/8) by square roots: unlike pow, alike on floats and arrays."""
    return sqrt(sqrt(sqrt(x)))


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol):
    """scipy's ``select_initial_step`` for every row."""
    span, root_n = t_end - t0, y0.shape[-1] ** 0.5
    scale = atol + np.abs(y0) * rtol
    d0 = np.linalg.norm(y0 / scale, axis=-1) / root_n
    d1 = np.linalg.norm(f0 / scale, axis=-1) / root_n
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                                 0.01 * d0 / d1), span)
        f1 = rhs(t0 + h0, y0 + h0[:, None] * f0)
        d2 = np.linalg.norm((f1 - f0) / scale, axis=-1) / root_n / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      _root8(0.01 / np.maximum(d1, d2)))
    return np.minimum(np.minimum(100 * h0, h1), span)


def _point_initial_step(rhs, t0, y0, f0, t_end, rtol, atol):
    """``_initial_step`` for one point, a list of floats."""
    span, root_n = t_end - t0, len(y0) ** 0.5
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _point_norm([v / s for v, s in zip(y0, scale)]) / root_n
    d1 = _point_norm([v / s for v, s in zip(f0, scale)]) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = rhs(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
    d2 = _point_norm([(a - b) / s for a, b, s in zip(f1, f0, scale)]
                     ) / root_n / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else _root8(0.01 / max(d1, d2), math.sqrt))
    return min(100 * h0, h1, span)


def _next_step(t, h_abs, fresh, t_end):
    """``(t_new, h, failed)`` of each row's next trial from t, ending by
    t_end.  A step's first trial (``fresh``) is raised to 10 ulps of t; a
    retrial below that is a step underflow (``failed``)."""
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    # h_abs >= 0, so a retrial's max with 0.0 keeps it
    h_abs = np.maximum(h_abs, min_step * fresh)
    t_new = np.minimum(t + h_abs, t_end)
    return t_new, t_new - t, h_abs < min_step


def _trial(rhs, t, y, f, h, K, rtol, atol):
    """One DOP853 trial step of size h from (t, y), f = rhs(t, y), for
    every row: the new states, their slopes and error norms (HNW II.5;
    scipy's ``rk_step`` and ``_estimate_error_norm``).  Fills the stages
    K, ``(13, m, dim)``.  The error estimates skip the end slope, whose
    weight is zero in both.  Gathering the stages where a sum's weights
    are nonzero would cost a copy of them, and for B, E5 and E3 at once
    2.5 times a sum's temporary memory on the sweep's thousand-row
    trials, for under 1 % of a trial."""
    hc = h[:, None]
    ts = t + _STAGE_C * h  # row s - 1: stage s's times
    K[0] = f
    for s, (a, _, _) in enumerate(_STAGES, start=1):
        K[s] = rhs(ts[s - 1], y + _stage_sum(a, K[:s]) * hc)
    y_new = y + hc * _stage_sum(B, K[:-1])
    f_new = rhs(t + h, y_new)
    K[-1] = f_new
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    r5 = _norm(_stage_sum(_E5_ROWS, K[:-1]) / scale)
    r3 = _norm(_stage_sum(_E3_ROWS, K[:-1]) / scale)
    e5, e3 = r5 * r5, r3 * r3
    # 0.0 where both estimates vanish
    err = np.divide(np.abs(h) * e5, np.sqrt((e5 + 0.01 * e3) * y.shape[-1]),
                    out=np.zeros(len(h)), where=(e5 != 0) | (e3 != 0))
    return y_new, f_new, err


def _point_trial(rhs, t, y, f, h, K, rtol, atol):
    """``_trial`` for one point on lists of floats, rounding as a row of
    ``_trial`` does; the RHS takes and returns lists.  Fills K[:13]."""
    K[0] = f
    for s, (_, a, c) in enumerate(_STAGES, start=1):
        K[s] = rhs(t + c * h, [v + d * h for v, d in zip(y, _point_sum(a, K))])
    y_new = [v + h * d for v, d in zip(y, _point_sum(_B, K))]
    f_new = K[N_STAGES] = rhs(t + h, y_new)
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
    r5, r3 = (_point_norm([v / s for v, s in zip(_point_sum(e, K), scale)])
              for e in (_E5, _E3))
    e5, e3 = r5 * r5, r3 * r3
    if e5 == 0 and e3 == 0:
        return y_new, f_new, 0.0
    return y_new, f_new, abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _step_factor(err, fresh):
    """Factor on each row's |h| after a trial with error norm err: an
    accepted trial (err < 1) grows by at most MAX_FACTOR, and not after a
    rejection in the same step (``fresh`` false); a rejected one
    shrinks."""
    # err = 0 divides by 1e-300, not 0, and so gets MAX_FACTOR as inf
    # would; any other err has err ** (1/8) > 1e-41
    p = SAFETY / np.maximum(_root8(err), 1e-300)
    factor = np.minimum(MAX_FACTOR, p)
    np.minimum(factor, 1, out=factor, where=~fresh)
    np.fmax(MIN_FACTOR, p, out=factor, where=~(err < 1))
    return factor


def _point_step_factor(err, fresh):
    """``_step_factor`` for one point (a nan error shrinks, as by fmax)."""
    p = SAFETY / _root8(err, math.sqrt) if err else math.inf
    if err < 1:
        return min(MAX_FACTOR, p) if fresh else min(1, MAX_FACTOR, p)
    return max(MIN_FACTOR, p)


def _dense_coeffs(rhs, t, h, y, y_new, K):
    """Coefficients of the continuous extension of each row's step of size
    h from (t, y) to y_new, in column layout: ``(7, dim, m)``, a row's
    coefficients down the last axis.  K, ``(16, m, dim)``, holds the
    steps' 13 stages and receives the 3 extra ones."""
    hc = h[:, None]
    ts = t + _EXTRA_C * h
    for s, (a, _, _) in enumerate(_EXTRA, start=_N_STAGES):
        K[s] = rhs(ts[s - _N_STAGES], y + _stage_sum(a, K[:s]) * hc)
    dy = y_new - y
    F = np.empty((7,) + dy.shape[::-1])
    F[0], F[1] = dy.T, (hc * K[0] - dy).T
    F[2] = (2 * dy - hc * (K[N_STAGES] + K[0])).T
    for i, d in enumerate(D):
        F[3 + i] = (hc * _stage_sum(d, K)).T
    return F


def _point_dense_coeffs(rhs, t, h, y, y_new, K):
    """``_dense_coeffs`` for one point on lists of floats, as 7 lists of
    dim floats; K holds the step's 13 stages and receives 3 more."""
    for s, (_, a, c) in enumerate(_EXTRA, start=_N_STAGES):
        K[s] = rhs(t + c * h, [v + d * h for v, d in zip(y, _point_sum(a, K))])
    dy = [b - a for a, b in zip(y, y_new)]
    return [dy, [h * k - d for k, d in zip(K[0], dy)],
            [2 * d - h * (a + b) for d, a, b in zip(dy, K[N_STAGES], K[0])],
            *([h * v for v in _point_sum(row, K)] for row in _D)]


def _dense(F, y_old, x):
    """The continuous extension of steps at unit-step fractions, in column
    layout: coefficients F, ``(7, dim, N)``, and start states y_old,
    ``(dim, N)``, at fractions x, ``(N,)``, give the states ``(dim, N)``.
    The sweep's event roots and miss samples read it; one point reads
    ``_point_dense``, its float twin."""
    y, u = np.zeros(F.shape[1:]), 1 - x
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else u
    return y + y_old


def _point_dense(F, y_old, x):
    """``_dense`` of one point's coefficients F, 7 lists of floats, at the
    fraction x, a float: the same adds and multiplies in the same order
    (from 0.0, F[6] first), so the same list of floats."""
    u = 1 - x
    return [(((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u + f2) * x
              + f1) * u + f0) * x + y
            for f0, f1, f2, f3, f4, f5, f6, y in zip(*F, y_old)]


def _event_root(value, lo, hi, g_lo, g_hi):
    """A root in each bracket [lo, hi] of an event whose end values g_lo,
    g_hi differ in sign or vanish; ``value(t, i)`` evaluates the event of
    brackets i at times t.

    Illinois regula falsi per bracket, to the 4-eps tolerance of scipy's
    event solver; a secant point outside its bracket bisects instead, so
    a jump is found as well as a zero.  The root is an end where the event
    vanishes, else the end of the final bracket with the smaller |value|.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.array(g_lo, dtype=float), np.array(g_hi, dtype=float)
    hi = np.where(fa == 0, lo, hi)
    lo = np.where(fb == 0, hi, lo)
    side = np.zeros(lo.shape)  # end moved last: -1 lo, 1 hi
    for _ in range(100):
        i = np.flatnonzero(hi - lo >= 4 * _EPS * (1.0 + np.abs(lo)))
        if not i.size:
            break
        a, b, ya, yb = lo[i], hi[i], fa[i], fb[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - yb * (b - a) / (yb - ya)
        c = np.where((a < c) & (c < b), c, a + 0.5 * (b - a))
        fc = value(c, i)
        left = np.sign(fc) != np.sign(ya)  # the root is in [a, c]
        # Illinois: an end kept twice in a row has its value halved
        fa[i] = np.where(left, np.where(side[i] == 1, 0.5 * ya, ya), fc)
        fb[i] = np.where(left, fc, np.where(side[i] == -1, 0.5 * yb, yb))
        lo[i] = np.where(left & (fc != 0), a, c)
        hi[i] = np.where(left, c, b)
        side[i] = np.where(left, 1, -1)
    return np.where(np.abs(fb) < np.abs(fa), hi, lo)


def _sign(v):
    """np.sign on a float: -1, 0, 1, or nan for nan."""
    return (v > 0) - (v < 0) if v == v else math.nan


def _point_root(value, lo, hi, fa, fb):
    """``_event_root`` for one bracket on floats, ``value(t)`` evaluating
    the event at t as a float: the same iterations and the same root."""
    lo, hi, fa, fb = float(lo), float(hi), float(fa), float(fb)
    if fa == 0:
        hi = lo
    if fb == 0:
        lo = hi
    side = 0  # end moved last: -1 lo, 1 hi
    for _ in range(100):
        if not hi - lo >= 4 * _EPS * (1.0 + abs(lo)):
            break
        # a secant through equal values leaves the bracket: bisect
        c = hi - fb * (hi - lo) / (fb - fa) if fb != fa else math.nan
        if not lo < c < hi:
            c = lo + 0.5 * (hi - lo)
        fc = value(c)
        if _sign(fc) != _sign(fa):  # the root is in [lo, c]
            fa, fb = (0.5 * fa if side == 1 else fa), fc
            lo, hi, side = (lo if fc != 0 else c), c, 1
        else:
            fa, fb = fc, (0.5 * fb if side == -1 else fb)
            lo, side = c, -1
    return hi if abs(fb) < abs(fa) else lo


def integrate(H: HamiltonianSpec, x0, t0, t1, tol=1e-10,
              escape_norm=100.0, stop=None) -> Trajectory:
    """Adaptive dense-output integration of the Hamiltonian flow of H.

    DOP853 at rtol ``tol`` and atol ``tol / 100``, stepping the point on
    floats as ``ensemble_sweep`` steps a row (``tol`` positive and
    finite, ``escape_norm`` positive or inf, else ``ValueError``), and
    ending where a sweep member ends.  ``stop`` is one event on the
    wrapped state, evaluated by its float twin ``point`` where it has one
    (see ``contact.Region``).  A step whose ends it brackets gets one
    root, found on the dense output; that root ends the run, as the
    trajectory's ``stop`` and last time, when its point lies inside the
    ``escape_norm`` ball and the event's optional rule ``arrived(t,
    state)``, on the root's time and wrapped point (an array, as
    ``Region.membership`` takes), holds.  A start on or outside the ball
    raises ``EscapeError`` at t0, and so does a step that ends outside it
    without stopping, at that step end; a step underflow raises
    ``StiffnessError``.  A step's dense coefficients are built when
    first read, as float lists; the dense output at an array of times
    reads them time by time (``_point_dense``).  Periodic
    coordinates are integrated unwrapped and reduced on output; the
    right-hand side wraps before evaluating the gradient so the dynamics
    itself never sees drifted angles.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    _check_run_settings(tol, escape_norm)
    chart, rtol, atol = H.chart, tol, tol * 1e-2

    def rhs(t, y):
        return sgrad(H, y, t)  # H.grad reduces periodic coordinates

    t, t1 = float(t0), float(t1)
    y = chart.wrap(x0).tolist()
    if stop is not None:
        point = getattr(stop, "point", None)
        arrived = getattr(stop, "arrived", None)
        event = ((lambda y: point(chart.wrap_point(y))) if point
                 else lambda y: float(stop(chart.wrap(y))))
        g = event(y)
    f = rhs(t, y)
    h_abs = _point_initial_step(rhs, t, y, f, t1, rtol, atol)
    times, states = [t], [y]
    steps = []  # [t, h, y, y_new, K, dense coefficients or None]

    def coeffs(k):
        step = steps[k]
        if step[5] is None:
            step[5] = _point_dense_coeffs(rhs, *step[:5])
        return step[5]

    def at(k, tq):  # dense output of step k at the time tq, a float
        t, h, y0 = steps[k][:3]
        return _point_dense(coeffs(k), y0, (tq - t) / h)

    end = None  # the stop root
    while True:
        # a start or step end on or outside the ball escapes, as a sweep
        # row does (a stop root lies inside it)
        if _point_norm(y) >= escape_norm:
            raise EscapeError(f"trajectory norm exceeded {escape_norm}", t,
                              chart.wrap(y))
        if end is not None or t >= t1:
            break
        K, err, fresh = [None] * N_STAGES_EXTENDED, 1.0, True
        if H.feature_width < math.inf:  # move at most the feature width
            h_abs = min(h_abs, H.feature_width / max(_point_norm(f), _EPS))
        while not err < 1:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            if fresh:
                h_abs = max(h_abs, min_step)
            elif h_abs < min_step:
                raise StiffnessError(
                    f"integrator failed: step size underflow at t={t}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            y_new, f_new, err = _point_trial(rhs, t, y, f, h, K, rtol, atol)
            h_abs, fresh = abs(h) * _point_step_factor(err, fresh), False
        k = len(steps)
        steps.append([t, h, y, y_new, K, None])
        t, y, f = t_new, y_new, f_new
        if stop is not None:
            g_old, g = g, event(y)
            if g_old <= 0 <= g or g <= 0 <= g_old:
                root = _point_root(lambda tc: event(at(k, tc)), steps[k][0],
                                   t, g_old, g)
                y_root = at(k, root)
                if _point_norm(y_root) < escape_norm and (
                        arrived is None
                        or arrived(root, chart.wrap(y_root))):
                    t, y, end = root, y_root, root
        times.append(t)
        states.append(y)
    ts = np.array(times)

    def dense(tq):
        """As scipy's ``OdeSolution``: a step boundary reads the earlier.
        One time gives a list of floats, times ``(m,)`` a ``(dim, m)``
        array of the same floats, time by time."""
        if np.ndim(tq):
            seg = np.clip(ts.searchsorted(tq) - 1, 0, len(steps) - 1)
            return np.reshape([at(k, v) for k, v in zip(
                seg.tolist(), np.asarray(tq, dtype=float).tolist())],
                (-1, len(y))).T
        k = int(ts.searchsorted(tq)) - 1
        return at(min(max(k, 0), len(steps) - 1), float(tq))

    return Trajectory(chart=chart, times=ts,
                      states=chart.wrap(np.array(states)), stop=end,
                      dense=dense)


# ---------------------------------------------------------------------------
# Ensemble integration
# ---------------------------------------------------------------------------

# target-distance samples per chord window, shared by the sweep and the
# refinement so that both measure a miss at the same times
MISS_SAMPLES = 64
# a target root is an arrival only more than this long after the start
# phase, so that a start on the target does not arrive at once
ARRIVAL_OFFSET = 1e-12
# once a hit at t* is certified, refinement and certification integrate
# only to t* + INCUMBENT_MARGIN * budget; the margin covers the hit-time
# shift a shorter span causes (at most 5.4e-10 on the scenario fixtures at
# ode_tol 1e-9, over 1000x below the margin)
INCUMBENT_MARGIN = 1e-6
# pattern_search takes a value within FLAT_ULPS ulps of the incumbent's
# as flat: nearby miss distances differ by a few tens of ulps of rounding
# noise of the integration, which is not progress
FLAT_ULPS = 64


@dataclass(frozen=True)
class SweepResult:
    """Per-member outcome of ``ensemble_sweep``.

    ``hit`` is the first certified arrival time after the start phase
    (nan without one); ``distance`` the closest sampled target distance
    (inf for escaped or stiff members); ``escaped``/``stiff`` flag the
    members the integrator lost before the sweep dropped them (exact
    when no member hits).
    """

    hit: np.ndarray
    distance: np.ndarray
    escaped: np.ndarray
    stiff: np.ndarray


def ensemble_sweep(G: HamiltonianSpec, X1: Region, starts, phases,
                   time_budget, tol=1e-10, escape_norm=100.0
                   ) -> SweepResult:
    """Integrate every start point from its phase over the budget at once.

    Each member takes the DOP853 steps of ``integrate`` (step underflow
    counts as stiff; ``tol`` and ``escape_norm`` are checked as there),
    all advancing together as ``(N, 2n)`` arrays.  After
    every accepted step, sign changes of the target event are solved on
    the dense interpolant by ``_event_root``; the first root with ``t -
    phase > ARRIVAL_OFFSET`` whose point lies inside the escape ball and
    in X1 ends the member as a hit.  A step certifies all its roots by one
    ``Region.distance`` call on their stack (within ``MEMBER_TOL``, as
    ``membership`` tests one point); the best hit is the earliest
    certified root so far, and a member whose root comes more than 1e-12
    after it is dropped uncertified.  A member whose state norm reaches
    ``escape_norm`` at a step end before a hit (or at its start) is lost
    as escaped.  Until some hit exists, target distances are sampled at
    ``linspace(phase, phase + time_budget, MISS_SAMPLES)``, in passes of whole members of at most ``n_all +
    MISS_SAMPLES - 1`` rows for ``n_all`` starts; after, members that can
    no longer arrive before the best hit are dropped (``hit`` stays nan,
    and a member dropped before it escapes is not flagged escaped).
    A step's dense output is in column layout (``_dense_coeffs``); a
    pass repeats each member's coefficients and start state along the
    last axis, one column per sample, evaluates them by ``_dense`` and
    hands ``Region.distance`` the C-ordered rows, as the roots do.
    A member's outcome is that of its ``integrate`` run with ``stop=
    _arrival(X1, phase)`` bit for bit (escaped exactly when that run
    raises ``EscapeError``), and does not depend on the rest of the batch,
    except for being dropped, as long as G's callbacks round a point as a
    row and rows alike in any batch (``_stage_sum`` adds in stage order,
    unlike BLAS).
    """
    _check_run_settings(tol, escape_norm)
    chart = G.chart
    rtol, atol = tol, tol * 1e-2
    phases = np.asarray(phases, dtype=float)
    n_all = len(phases)
    uniq, ph_row = np.unique(phases, return_inverse=True)
    sample_t = np.array([np.linspace(p, p + time_budget, MISS_SAMPLES)
                         for p in uniq])

    hit = np.full(n_all, np.nan)
    dist = np.full(n_all, np.inf)
    stiff = np.zeros(n_all, dtype=bool)

    def rhs(t, y):
        return sgrad(G, y, t)

    def event(y):
        return X1.event_value(chart.wrap(y))

    def dense_rows(F, y_old, x):
        # ``_dense`` as C-ordered rows ``(N, dim)``: numpy sums the last
        # axis of an F-ordered stack in another order from 8 terms on
        return _dense(F, y_old, x).T.copy()

    # per-member state, compacted to the active members after each trial
    y = chart.wrap(np.asarray(starts, dtype=float))
    escaped = _norm(y) >= escape_norm  # at the start
    idx = (~escaped).nonzero()[0]
    if not idx.size:
        return SweepResult(hit, dist, escaped, stiff)
    y, t0 = y[idx], phases[idx]
    t_end = t0 + time_budget
    t = t0.copy()
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_end, rtol, atol)
    g = event(y)
    fresh = np.ones(idx.size, dtype=bool)
    next_sample = np.zeros(idx.size, dtype=int)
    best = np.inf

    while idx.size:
        if G.feature_width < math.inf:  # as in integrate
            h_abs = np.minimum(h_abs, G.feature_width / np.maximum(
                _norm(f), _EPS))
        t_new, h, failed = _next_step(t, h_abs, fresh, t_end)
        K = np.empty((_N_STAGES,) + y.shape)
        y_new, f_new, err = _trial(rhs, t, y, f, h, K, rtol, atol)
        h_abs = np.abs(h) * _step_factor(err, fresh)
        fresh = accept = (err < 1) & ~failed
        done = failed.copy()
        stiff[idx[failed]] = True

        acc = accept.nonzero()[0]
        if acc.size:
            ta, ya, h_a = t[acc], y[acc], h[acc]
            yn = y_new[acc]
            t[acc], y[acc], f[acc] = t_new[acc], yn, f_new[acc]
            g_new = event(yn)
            ga, g[acc] = g[acc], g_new
            cross = ((ga <= 0) & (g_new >= 0)) | ((ga >= 0) & (g_new <= 0))
            n_due = np.zeros(acc.size, dtype=int)  # samples up to t_new
            if not best < np.inf:
                rows = ph_row[idx[acc]]
                for r in np.unique(rows):
                    on = rows == r
                    n_due[on] = sample_t[r].searchsorted(t_new[acc[on]],
                                                         side="right")
            due = n_due > next_sample[acc]
            need = (cross | due).nonzero()[0]
            if need.size:
                # dense output of the step for the members that need it, in
                # column layout: member need[i] reads F[..., i] and Y[:, i]
                Kx = np.empty((N_STAGES_EXTENDED, need.size, y.shape[1]))
                Kx[:_N_STAGES] = K[:, acc[need]]
                hn = h_a[need]
                F = _dense_coeffs(rhs, ta[need], hn, ya[need], yn[need], Kx)
                Y = ya[need].T
                pos = np.full(acc.size, -1)
                pos[need] = np.arange(need.size)

                rc = cross.nonzero()[0]
                if rc.size:
                    j = pos[rc]
                    root = _event_root(
                        lambda tc, i: event(dense_rows(
                            F[:, :, j[i]], Y[:, j[i]],
                            (tc - ta[rc[i]]) / hn[j[i]])),
                        ta[rc], t_new[acc[rc]], ga[rc], g_new[rc])
                    y_root = dense_rows(F[:, :, j], Y[:, j],
                                        (root - ta[rc]) / hn[j])
                    local = root - t0[acc[rc]]
                    ok = ((local > ARRIVAL_OFFSET)
                          & (_norm(y_root) < escape_norm))
                    # certify the step's roots by one distance call; a root
                    # later than the best hit cannot win, and its member is
                    # dropped uncertified
                    member = ok & (X1.distance(chart.wrap(y_root))
                                   <= MEMBER_TOL)
                    if np.logical_or.reduce(member):
                        best = min(best,
                                   float(np.minimum.reduce(local[member])))
                    late = ok & (local > best + 1e-12)
                    ok = member & ~late
                    members = acc[rc[ok]]
                    hit[idx[members]] = local[ok]
                    done[members] = True
                    done[acc[rc[late]]] = True

                rs = (due & ~done[acc]).nonzero()[0]
                if rs.size:
                    first, stop = next_sample[acc[rs]], n_due[rs]
                    n = stop - first
                    end = n.cumsum()
                    start = end - n  # first row of each member
                    j, row = pos[rs], ph_row[idx[acc[rs]]]
                    # one row per due sample, member by member, in passes
                    # of whole members: a pass closes once it holds n_all
                    # rows, so it stays below n_all + MISS_SAMPLES rows
                    # however long the step.  A member's coefficients, start
                    # state and step repeat along the last axis, one column
                    # per sample.
                    lo = 0
                    while lo < rs.size:
                        hi = min(rs.size, 1 + int(
                            end.searchsorted(start[lo] + n_all)))
                        part = slice(lo, hi)
                        jp, cnt = j[part], n[part]
                        k = (np.arange(start[lo], end[hi - 1])
                             - (start[part] - first[part]).repeat(cnt))
                        x = ((sample_t[row[part].repeat(cnt), k]
                              - ta[rs[part]].repeat(cnt))
                             / hn[jp].repeat(cnt))
                        ys = dense_rows(F[:, :, jp].repeat(cnt, axis=-1),
                                        Y[:, jp].repeat(cnt, axis=-1), x)
                        d = np.minimum.reduceat(X1.distance(chart.wrap(ys)),
                                                start[part] - start[lo])
                        who = idx[acc[rs[part]]]
                        dist[who] = np.minimum(dist[who], d)
                        lo = hi
                    next_sample[acc[rs]] = stop

            # a member that did not arrive escapes at a step end outside
            # the ball
            esc = (_norm(yn) >= escape_norm) & ~done[acc]
            escaped[idx[acc[esc]]] = True
            done[acc[esc]] = True
            done[acc[t_new[acc] >= t_end[acc]]] = True
        if best < np.inf:
            done |= t - t0 > best + 1e-12
        if np.logical_or.reduce(done):
            keep = ~done
            idx, t0, t_end, t, y, f = (idx[keep], t0[keep], t_end[keep],
                                       t[keep], y[keep], f[keep])
            h_abs, g, fresh, next_sample = (h_abs[keep], g[keep], fresh[keep],
                                            next_sample[keep])
    dist[escaped | stiff] = np.inf
    return SweepResult(hit=hit, distance=dist, escaped=escaped, stiff=stiff)

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
    return abs(fy - fx) <= FLAT_ULPS * _EPS * max(abs(fx), abs(fy)) < math.inf


def _vertex(f0, fm, fp, s):
    """Offset of the vertex of the parabola through ``(-s, fm)``, ``(0,
    f0)`` and ``(s, fp)``, or None where ``pattern_search``'s search step
    skips the coordinate: a probe None (not taken, or clipped) or flat, a
    rank other than 0, or a curvature that is not positive and finite.
    At most ``s / 2`` in size when both probes lie at or above ``f0``."""
    if fm is None or fp is None or _flat(fm, f0) or _flat(fp, f0):
        return None
    if isinstance(f0, tuple):
        if f0[0] != 0 or fm[0] != 0 or fp[0] != 0:
            return None
        f0, fm, fp = f0[1], fm[1], fp[1]
    c = fm - 2.0 * f0 + fp
    if not 0.0 < c < math.inf:
        return None
    return s * (fm - fp) / (2.0 * c)


def pattern_search(f, x0, bounds, max_evals=200):
    """Coordinate pattern search on a box; deterministic poll order.

    Steps start at a hundredth of each side.  A step doubles, up to its
    side, after a move that repeats its coordinate's move in the poll
    before (same direction), so that a start far from the optimum strides
    out to it.  Steps halve after a poll that does not improve, unless it
    settles every coordinate, which ends the search.  A probe at ``x +-
    s`` is flat if the box did not clip it and its value lies within
    ``FLAT_ULPS`` ulps of the incumbent's (for ``(rank, value)`` tuples:
    the same rank and a flat value).  A coordinate is settled when both
    its probes are flat, or one is flat here and in the poll before (at
    ``x +- 2s``) and the other, if taken, has the incumbent's rank.  On a
    convex 1-D objective, whose probes lie at or above the incumbent, the
    secants through flat values then leave at most ``FLAT_ULPS`` ulps of
    improvement.  The search also ends once the steps fall below 1e-12 or
    after ``max_evals`` evaluations.  ``f`` may return a float or a
    ``(rank, float)`` tuple: values are compared by ``<`` and ``_flat``.
    Returns ``(x, f(x), evaluations, converged)``, ``converged`` false
    when the evaluation cap ended the search, true when it settled or its
    steps reached the floor (Kolda-Lewis-Torczon, SIAM Review 45, 2003,
    on stopping a pattern search).

    A poll that neither improves nor settles is followed by a search
    step, which may try any finite set of points before the steps halve
    without weakening the poll's guarantees (Kolda-Lewis-Torczon; on
    models of the poll's values, Custodio-Vicente, SIAM J. Optim. 18,
    2007).  It reuses the poll's values: in index order, each
    coordinate i whose probes at ``x +- s_i`` were both taken, neither
    clipped by the box nor flat, and both of the incumbent's rank (for
    tuples, rank 0: a miss's distance is a minimum over samples, so it is
    kinked, and misses never take the step) has its probe at the vertex
    ``x + delta e_i`` of the parabola through the three values (see
    ``_vertex``), if its curvature is positive and finite.  The first
    vertex that improves ends the step: the search moves there, sets
    ``s_i = min(s_i / 2, max(|delta|, 1e-13))`` and counts the poll as
    improving, so the steps do not halve.  A vertex probe counts against
    ``max_evals``.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    x = np.array([min(max(v, lo), hi)
                  for v, (lo, hi) in zip(np.atleast_1d(x0), bounds)])
    steps = np.array([(hi - lo) * 0.01 for lo, hi in bounds])
    fx = f(x)
    evals = 1
    kept = set()  # the flat probes (i, sign) of the last poll, if it kept x
    last = np.zeros(len(x))  # each coordinate's move in the last poll
    while steps.max() > 1e-12:
        if evals >= max_evals:
            return x, fx, evals, False
        improved, flat, odd = False, set(), set()
        probes = {}  # (i, sign) -> the value of a probe the box did not clip
        moved = np.zeros(len(x))
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                y = x.copy()
                lo, hi = bounds[i]
                probe = x[i] + sign * steps[i]
                y[i] = min(max(probe, lo), hi)
                if y[i] == x[i]:
                    continue
                fy = f(y)
                evals += 1
                if fy < fx:
                    x, fx = y, fy
                    improved, moved[i] = True, sign
                    if last[i] == sign:
                        steps[i] = min(2 * steps[i], hi - lo)
                    break
                if y[i] == probe:
                    probes[i, sign] = fy
                if y[i] == probe and _flat(fy, fx):
                    flat.add((i, sign))
                elif isinstance(fx, tuple) and fy[0] != fx[0]:
                    odd.add((i, sign))
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
        last = moved
        if not improved:
            if all(any((i, s) in flat and ((i, -s) in flat or (i, s) in kept
                                           and (i, -s) not in odd)
                       for s in (1.0, -1.0)) for i in np.flatnonzero(steps)):
                break
            for i in range(len(x)):
                delta = _vertex(fx, probes.get((i, -1.0)),
                                probes.get((i, 1.0)), steps[i])
                if delta is None or evals >= max_evals:
                    continue
                y = x.copy()
                y[i] += delta
                if y[i] == x[i]:
                    continue
                fy = f(y)
                evals += 1
                if fy < fx:
                    x, fx, improved = y, fy, True
                    steps[i] = min(0.5 * steps[i], max(abs(delta), 1e-13))
                    break
            if not improved:
                steps *= 0.5
        kept = set() if improved else flat
    return x, fx, evals, True


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
    separating: bool
    n_evals: int


def _extremize_on_region(G, region: Region, n_samples, sign):
    """sign=+1 minimizes G over the region x time, sign=-1 maximizes.
    Returns the extremum, its point and the pattern-search evaluation
    count."""
    times = np.array([0.0])
    if not G.autonomous:
        times = np.linspace(0.0, 1.0, 17)[:-1]
    params = region.sample_params(n_samples)
    pts = region.param_points(params)
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

    z, fv, evals, _ = pattern_search(obj, np.array(x0), bounds,
                                     max_evals=120)
    params = z[:-1] if time_axis else z
    return sign * fv, region.param_point(params, comp), evals


def separation(G: HamiltonianSpec, Y0: Region, Y1: Region,
               n_samples=256) -> SeparationReport:
    """Estimate Delta(G; Y0, Y1) by dense sampling plus local refinement."""
    vmin, xmin, n_min = _extremize_on_region(G, Y1, n_samples, +1.0)
    vmax, xmax, n_max = _extremize_on_region(G, Y0, n_samples, -1.0)
    delta = vmin - vmax
    return SeparationReport(
        delta=float(delta),
        min_value=float(vmin),
        max_value=float(vmax),
        argmin=xmin,
        argmax=xmax,
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

    ``trajectory`` is the winning refinement run, which ends at its first
    certified arrival: the chord runs from its first state, at ``t0``, to
    its last, at t1 = ``stop``.  ``time_error`` is
    ``|t1 - t1'| + 4 eps (1 + |t1|)``, with ``t1'`` the arrival time
    certified by a run at a hundredth of the ODE tolerance (inf if none)
    and the event root's bracket: an estimate of the error of ``t1`` by
    tolerance proportionality (Hairer-Norsett-Wanner, Solving ODEs I,
    II.4), not a rigorous bound.
    """

    trajectory: Trajectory
    time_error: float

    @property
    def time_length(self):
        return self.trajectory.stop - self.trajectory.t0


@dataclass(frozen=True)
class ChordSearchResult:
    """Outcome of ``find_chord``.

    ``n_seeds``/``n_phases`` are the swept counts (one phase for an
    autonomous Hamiltonian); ``n_escaped``/``n_stiff`` count the sweep
    members lost to the escape ball or to step underflow before the sweep
    dropped them (exact for a result with no chord, see ``ensemble_sweep``);
    ``n_refine_evals`` counts the pattern-search evaluations and
    ``n_refine_failed`` those whose integration raised ``EscapeError`` (a
    run that left the escape ball before arriving) or ``StiffnessError``.
    Both count evaluations, not integrations: a start polled again is
    answered from its one integration, and counts as failed again if that
    integration failed.  ``refine_converged`` is false when the search
    stopped at its evaluation cap, ``max(200, 100 d)`` for d refined
    start parameters, before it settled (``pattern_search``); a chord
    found so says it in ``message``, as its time may then lie further
    from the minimum than its ``time_error``.
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
    refine_converged: bool = True


@dataclass(frozen=True)
class ChordSearchConfig:
    """Chord-search settings.  The sweep runs serially, as one vectorised
    ensemble, and certifies hits with the regions' membership band
    ``contact.MEMBER_TOL``.  ``n_seeds`` and ``n_phases`` must be at
    least 1, ``ode_tol`` positive and finite, and ``escape_norm`` positive,
    inf turning the escape ball off (``ValueError``).

    These defaults are the only ones the chord search has: a scenario,
    and so ``tetralab scenario run``, passes on only the search keys its
    config sets."""

    n_seeds: int = 64
    n_phases: int = 16
    ode_tol: float = 1e-9
    escape_norm: float = 100.0

    def __post_init__(self):
        for name in ("n_seeds", "n_phases"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        _check_run_settings(self.ode_tol, self.escape_norm, "ode_tol")


def _arrival(X1: Region, phase):
    """X1's event as the stop event of a run from ``phase``, with the
    sweep's arrival rule: a root more than ``ARRIVAL_OFFSET`` after the
    start phase whose point is in X1."""
    def event(c):
        return X1.event_fn(c)

    event.point = getattr(X1.event_fn, "point", None)
    event.arrived = (lambda t, y: t - phase > ARRIVAL_OFFSET
                     and X1.membership(y))
    return event


def find_chord(G: HamiltonianSpec, X0: Region, X1: Region, time_budget,
               config: ChordSearchConfig = ChordSearchConfig()
               ) -> ChordSearchResult:
    """Minimal-time certified chord from X0 to X1 within the budget.

    Refinement starts at the sweep's earliest hit (else closest miss),
    whose run it repeats bit for bit, and keeps an incumbent t*, the best
    arrival time its ``integrate`` runs have certified (inf at first).
    Each evaluation integrates once, to ``phase + min(budget, t* +
    margin)`` with ``margin = INCUMBENT_MARGIN * budget``, and stops at
    its first certified arrival, as a sweep member does (``_arrival``); a
    run that leaves the escape ball before arriving raises, and counts as
    failed.  Once t* is finite, a candidate with no hit in that window
    ranks ``(1, inf)``, as it cannot beat a hit.  Each start is integrated
    at most once in a call: a stored miss is returned as it is while t* is
    inf (the window is then the same) and as ``(1, inf)`` after; a stored
    hit at time t is returned as ``(0, t)`` while ``t <= t* + margin`` and
    as ``(1, inf)`` after.  The run that set the final t* is the chord: it
    ends at its arrival, whose time is t* exactly.
    """
    if not 0.0 < time_budget < math.inf:
        raise ValueError(
            f"time_budget must be positive and finite, got {time_budget}")
    # membership of the 32 sample points, by one distance call
    if np.any(X1.distance(X0.sample_points(32)) <= MEMBER_TOL):
        raise ValueError("start and target regions are not disjoint")

    phases = [0.0]
    if not G.autonomous:
        phases = list(np.linspace(0.0, 1.0, config.n_phases,
                                  endpoint=False))
    seeds = X0.sample_params(config.n_seeds)
    jobs = [(phase, pr, comp) for phase in phases for pr, comp in seeds]
    seed_points = X0.param_points(seeds)
    sweep = ensemble_sweep(
        G, X1, np.tile(seed_points, (len(phases), 1)),
        np.repeat(phases, len(seeds)), time_budget, tol=config.ode_tol,
        escape_norm=config.escape_norm)
    counts = dict(n_seeds=len(seeds), n_phases=len(phases),
                  n_escaped=int(sweep.escaped.sum()),
                  n_stiff=int(sweep.stiff.sum()))

    # the earliest hit, ties to seed order, else the closest miss
    best_idx, best_time = int(np.argmin(sweep.distance)), math.inf
    for idx, hit in enumerate(sweep.hit):
        if hit < best_time - 1e-15:
            best_idx, best_time = idx, float(hit)
    phase, pr, comp = jobs[best_idx]
    margin = INCUMBENT_MARGIN * time_budget
    incumbent, n_failed = math.inf, 0
    winner = None  # the run that set t*
    seen = {}  # start parameters -> their rank, None for a failed run

    def rank(params):
        """(0, arrival time) for a certified hit, else (1, closest sampled
        target distance); tuples order every hit before every miss."""
        nonlocal n_failed
        key = tuple(params.tolist())
        fresh = key not in seen
        if fresh:
            seen[key] = integrate_rank(params)
        value = seen[key]
        if value is None:
            n_failed += 1
            return 1, math.inf
        # a stored value stands while the current window would give it
        # again: a miss until the first hit, a hit while it can still win
        missed, v = value
        if not fresh and (incumbent < math.inf if missed
                          else v > incumbent + margin):
            return 1, math.inf
        return value

    def integrate_rank(params):
        """``rank`` of a start not evaluated before, None if its
        integration fails; a certified hit lowers the incumbent."""
        nonlocal incumbent, winner
        span = min(time_budget, incumbent + margin)
        try:
            traj = integrate(G, X0.param_point(params, comp), phase,
                             phase + span, tol=config.ode_tol,
                             escape_norm=config.escape_norm,
                             stop=_arrival(X1, phase))
        except (EscapeError, StiffnessError):
            return None
        if traj.stop is not None:
            if traj.stop - phase < incumbent:
                incumbent, winner = traj.stop - phase, traj
            return 0, traj.stop - phase
        if incumbent < math.inf:
            return 1, math.inf
        ts = np.linspace(traj.t0, traj.t1, MISS_SAMPLES)
        return 1, float(np.min(X1.distance(traj.sample(ts))))

    # a poll costs up to 2 d evaluations for d start parameters
    _, (missed, value), n_evals, converged = pattern_search(
        rank, np.array(pr), X0.param_bounds,
        max_evals=max(200, 100 * len(X0.param_bounds)))
    counts.update(n_refine_evals=n_evals, n_refine_failed=n_failed,
                  refine_converged=converged)
    if missed:
        return ChordSearchResult(
            found=False, chord=None,
            best_distance=min(float(sweep.distance.min()), value),
            message=(
                "no certified chord at the swept resolution: "
                f"{counts['n_seeds']} seeds x {counts['n_phases']} phases, "
                f"{counts['n_escaped']} escaped, {counts['n_stiff']} stiff; "
                f"{n_evals} refinement evaluations, {n_failed} failed"),
            **counts,
        )
    return _certify(G, X1, winner, min(time_budget, incumbent + margin),
                    config, counts)


def _certify(G, X1, traj, window, config, counts) -> ChordSearchResult:
    """Package the refinement's winning run ``traj``, which stopped at its
    first certified arrival, as the chord; a run from its start over
    ``window`` (the search's last window) at ``ode_tol / 100``, stopping
    the same way, gives ``time_error``.
    """
    phase, hit = traj.t0, traj.stop
    try:
        fine_hit = integrate(G, traj.states[0], phase, phase + window,
                             tol=config.ode_tol / 100,
                             escape_norm=config.escape_norm,
                             stop=_arrival(X1, phase)).stop
    except (EscapeError, StiffnessError):
        fine_hit = None
    chord = Chord(trajectory=traj, time_error=math.inf if fine_hit is None
                  else abs(hit - fine_hit) + 4 * _EPS * (1 + abs(hit)))
    message = "" if counts["refine_converged"] else (
        f"refinement stopped at its cap of {counts['n_refine_evals']} "
        "evaluations before it settled: the chord time may lie further "
        "from the minimum than its time_error")
    return ChordSearchResult(found=True, chord=chord, best_distance=0.0,
                             message=message, **counts)
