"""Integration, separation estimates and chord search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tetralab import dynamics
from tetralab.contact import (CircleModel, Region, SphereModel, TorusModel,
                              build_tetragon)
from tetralab.dynamics import (Chord, ChordSearchConfig, EscapeError,
                               StiffnessError, chord_budget, deterministic_map,
                               ensemble_sweep, find_chord, integrate,
                               pattern_search, separation)
from tetralab.pb4 import wall_witness
from tetralab.phase_core import HamiltonianSpec, PhaseChart, sgrad
from tetralab.scenarios import (PerturbationSpec, ScenarioConfig,
                                add_hamiltonians, channel_potential,
                                mechanical_hamiltonian, run_scenario,
                                unstable_hamiltonian, wall_perturbation)

from conftest import constant_hamiltonian, polynomial_hamiltonian

PLANE = PhaseChart(dim_pairs=1)
EPS = np.finfo(float).eps


def harmonic():
    return polynomial_hamiltonian(PLANE, (0.5 * np.eye(2), [0.0, 0.0]))


def assert_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_chord(chord, X0, X1, budget):
    """The chord's run goes from a member of X0 to a member of X1 in a
    positive time within the budget."""
    states = chord.trajectory.states
    assert X0.membership(states[0]) and X1.membership(states[-1])
    assert 0.0 < chord.time_length <= budget + 1e-12


class TestIntegrate:
    def test_exponential_growth_on_diagonal(self):
        H = unstable_hamiltonian(1)
        traj = integrate(H, [0.5, 0.5], 0.0, 1.0, tol=1e-12)
        assert np.allclose(traj(1.0), [0.5 * math.e, 0.5 * math.e],
                           atol=1e-8)

    def test_zero_hamiltonian_is_constant(self):
        traj = integrate(constant_hamiltonian(PLANE), [1.0, 2.0],
                         0.0, 5.0)
        assert np.allclose(traj(5.0), [1.0, 2.0], atol=1e-12)

    def test_pure_potential_linear_momentum_drift(self):
        H = channel_potential(1)
        x0 = np.array([1.0, 0.125])
        traj = integrate(H, x0, 0.0, 2.0, tol=1e-12)
        rate = 2 * math.pi * math.sin(2 * math.pi * 0.125)
        for t in [0.5, 1.0, 2.0]:
            y = traj(t)
            assert y[0] == pytest.approx(1.0 + rate * t, abs=1e-10)
            assert y[1] == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("t0", [0.0, 0.3])
    def test_time_dependent_closed_form(self, t0):
        """H = p^2/2 + sin(2 pi t) q, started at absolute time t0."""
        w = 2 * math.pi
        H = HamiltonianSpec(
            chart=PLANE,
            value=lambda x, t: 0.5 * x[0] ** 2 + math.sin(w * t) * x[1],
            gradient=lambda x, t: np.array([x[0], math.sin(w * t)]),
            autonomous=False,
        )
        p0, q0 = 0.5, 0.25
        traj = integrate(H, [p0, q0], t0, t0 + 1.0, tol=1e-12)
        for t in np.linspace(t0, t0 + 1.0, 11):
            p = p0 + (math.cos(w * t) - math.cos(w * t0)) / w
            q = (q0 + (p0 - math.cos(w * t0) / w) * (t - t0)
                 + (math.sin(w * t) - math.sin(w * t0)) / w ** 2)
            assert np.allclose(traj(t), [p, q], rtol=0.0, atol=1e-9)

    def test_time_window_validation(self):
        with pytest.raises(ValueError):
            integrate(harmonic(), [1.0, 0.0], 1.0, 0.5)

    def test_escape_raises_with_state(self):
        """The escape is the first step end outside the ball, with its
        state: the run without a ball takes the same steps."""
        H = unstable_hamiltonian(1)
        with pytest.raises(EscapeError) as exc:
            integrate(H, [2.0, 2.0], 0.0, 10.0, escape_norm=10.0)
        free = integrate(H, [2.0, 2.0], 0.0, 10.0, escape_norm=math.inf)
        k = free.times.tolist().index(exc.value.t)
        norms = np.linalg.norm(free.states, axis=-1)
        assert exc.value.t < 10.0
        assert norms[k] >= 10.0 and (norms[:k] < 10.0).all()
        assert np.array_equal(exc.value.state, free.states[k])

    @pytest.mark.parametrize("x0, radius", [([2.0, 2.0], 1.0),
                                            ([1.0, 0.0], 1.0)])
    def test_start_on_or_outside_the_ball_escapes_at_t0(self, x0, radius):
        """The ball is not only left by a sign change: a start on or
        outside it has escaped before the first step."""
        with pytest.raises(EscapeError) as exc:
            integrate(unstable_hamiltonian(1), x0, 0.0, 3.0,
                      escape_norm=radius)
        assert exc.value.t == 0.0
        assert np.array_equal(exc.value.state, x0)

    def test_escape_norm_may_be_a_numpy_float(self):
        H = unstable_hamiltonian(1)
        caught = []
        for radius in (10.0, np.float64(10.0)):
            with pytest.raises(EscapeError) as exc:
                integrate(H, [2.0, 2.0], 0.0, 10.0, escape_norm=radius)
            caught.append(exc.value)
        assert caught[1].t == caught[0].t
        assert str(caught[1]) == str(caught[0])

    def test_event_roots_of_circular_orbit(self):
        """q(t) = sin t crosses zero at multiples of pi: the stop event q,
        whose rule passes the root at the start, stops the run at pi."""
        def crossing(c):
            return c[1]

        crossing.arrived = lambda t, state: t > 1e-6
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 7.0, tol=1e-12,
                         stop=crossing)
        assert traj.stop == pytest.approx(math.pi, abs=1e-9)

    def test_energy_conservation_bounded_orbit(self):
        H = harmonic()
        traj = integrate(H, [1.0, 0.0], 0.0, 10.0, tol=1e-12)
        e0 = H(traj(0.0))
        drift = max(abs(H(traj(t)) - e0)
                    for t in np.linspace(0.0, 10.0, 101))
        assert drift <= 1e-8

    def test_periodic_coordinates_stay_reduced(self):
        H = channel_potential(1)
        traj = integrate(H, [0.0, 0.1], 0.0, 1.0)
        # momentum pushes u nowhere here but states must be wrapped
        assert np.all(traj.states[:, 1] >= 0.0)
        assert np.all(traj.states[:, 1] < 1.0)

    def test_trajectory_sample(self):
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0)
        samples = traj.sample([0.0, 0.5, 1.0])
        assert samples.shape == (3, 2)
        assert np.allclose(samples[0], [1.0, 0.0])

    def test_times_monotone(self):
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 3.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_flow_map_is_symplectic(self):
        """det of the finite-difference time-1 flow Jacobian is 1."""
        H = unstable_hamiltonian(1)
        x0 = np.array([0.3, 0.4])
        h = 1e-5

        def flow(x):
            return integrate(H, x, 0.0, 1.0, tol=1e-12)(1.0)

        jac = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            jac[:, i] = (flow(x0 + e) - flow(x0 - e)) / (2 * h)
        assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-5)


    def test_stop_event_ends_at_its_root(self):
        """q = sin t: the stop event q = 0.5 with no rule ends the curve
        at its root pi/6, the run's last time and state."""
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 7.0, tol=1e-12,
                         stop=lambda c: c[1] - 0.5)
        assert traj.stop == traj.t1 == traj.times[-1]
        assert traj.stop == pytest.approx(math.pi / 6, abs=1e-12)
        assert np.array_equal(traj.states[-1], traj(traj.t1))

    def test_arrival_rule_skips_roots_it_rejects(self):
        """q = sin t from t = 0.5: the stop event q with the rule t > 4 is
        asked at the root at pi, lets it pass, and ends the run at 2 pi,
        its stop."""
        asked = []

        def crossing(c):
            return c[1]

        def arrived(t, state):
            asked.append(t)
            return t > 4

        crossing.arrived = arrived
        traj = integrate(harmonic(), [math.cos(0.5), math.sin(0.5)], 0.5,
                         9.0, tol=1e-12, stop=crossing)
        assert traj.stop == traj.t1 == traj.times[-1]
        assert traj.stop == pytest.approx(2 * math.pi, abs=1e-10)
        assert np.allclose(asked, [math.pi, 2 * math.pi], atol=1e-10)
        assert asked[-1] == traj.stop

    def test_a_run_to_its_end_has_no_stop(self):
        """A stop event whose every root the rule rejects leaves the run
        as it is without one."""
        def level(c):
            return c[1] - 0.5

        level.arrived = lambda t, state: False
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0, stop=level)
        free = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0)
        assert traj.stop is None and traj.t1 == 1.0
        assert np.array_equal(traj.times, free.times)
        assert np.array_equal(traj.states, free.states)

    def test_one_point_runs_without_array_dense_output(self, monkeypatch):
        """One point's dense output is evaluated on floats: with the array
        ``_dense`` raising, ``integrate`` stops at the ceiling's event root
        (by the region's float twin), and the trajectory answers at one
        time."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        x0 = tet.floor.param_point([math.pi / 8])
        assert tet.ceiling.event_fn.point is not None

        def array_dense(*args):
            raise AssertionError("array dense output for one point")

        monkeypatch.setattr(dynamics, "_dense", array_dense)
        traj = integrate(unstable_hamiltonian(1), x0, 0.0, 2.0,
                         stop=tet.ceiling.event_fn)
        assert 0.0 < traj.stop == traj.t1 < 2.0
        assert tet.ceiling.membership(traj(traj.stop))
        assert np.array_equal(traj(traj.stop), traj.states[-1])

    def test_event_zero_at_start_reports_start(self):
        """A stop event with no rule that vanishes at the start stops the
        run there."""
        traj = integrate(harmonic(), [1.0, 0.0], 0.25, 1.0,
                         stop=lambda c: c[1])
        assert traj.stop == traj.t1 == 0.25
        assert np.array_equal(traj.states[-1], traj.states[0])

    def test_no_step_jumps_the_mechanical_shell(self):
        """Where the flow is locally a translation the error estimate is
        rounding noise, so without a cap a step can jump the shell's
        roll: 14 of these 15 starts changed G by 0.5 or more.  Capped at
        the spec's feature width, no step does."""
        H = mechanical_hamiltonian(1, beta=0.5)
        ts = np.linspace(0.0, 10.0, 101)
        for p0 in (0.3, 0.4, 0.5):
            for q0 in np.linspace(1.0, 1.4, 5):
                G = H(integrate(H, [p0, q0], 0.0, 10.0, tol=1e-9).sample(ts))
                assert np.max(np.abs(G - G[0])) <= 1e-6

    def test_singular_time_dependence_is_stiff(self):
        """H = p / (1 - t): q' = 1 / (1 - t) blows up at t = 1."""
        H = HamiltonianSpec(
            chart=PLANE, value=lambda x, t: x[0] / (1.0 - t),
            gradient=lambda x, t: np.array([1.0 / (1.0 - t), 0.0]),
            autonomous=False)
        with pytest.raises(StiffnessError):
            integrate(H, [0.0, 0.0], 0.0, 2.0)


class TestTableau:
    def test_matches_scipy_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients, rk

        from tetralab import dop853

        for name in ("A", "B", "C", "E3", "E5", "D"):
            assert_bits(getattr(dop853, name),
                        getattr(dop853_coefficients, name))
        assert dop853.N_STAGES == dop853_coefficients.N_STAGES
        assert (dop853.N_STAGES_EXTENDED
                == dop853_coefficients.N_STAGES_EXTENDED)
        assert (dop853.ERROR_ESTIMATOR_ORDER
                == rk.DOP853.error_estimator_order)
        for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
            assert getattr(dop853, name) == getattr(rk, name)
            assert type(getattr(dop853, name)) is type(getattr(rk, name))


class TestStepper:
    """The DOP853 helpers of ``integrate`` and the sweep."""

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 16), m=st.integers(1, 70),
           dim=st.sampled_from([2, 4, 6]), seed=st.integers(0, 2 ** 32 - 1))
    def test_stage_sum_rows_are_batch_independent(self, s, m, dim, seed):
        """Phase-space rows: numpy sums a single column pairwise."""
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(s) * (rng.random(s) < 0.8)
        K = rng.standard_normal((s, m, dim)) * 10.0 ** rng.integers(
            -6, 7, (s, 1, 1))
        rows = dynamics._stage_sum(c, K)
        for j in range(m):
            term = c[0] * K[0, j]
            for cj, kj in zip(c[1:], K[1:, j]):
                term = term + cj * kj
            assert np.array_equal(rows[j], term)
            assert np.array_equal(rows[j],
                                  dynamics._stage_sum(c, K[:, j:j + 1])[0])

    def test_event_root_finds_a_jump(self):
        """The circle's wall event jumps from 0.5 to -0.5 at u = 0.5; the
        root lies within scipy's 4-eps tolerance, 4 eps (1 + |u|)."""
        model = CircleModel()

        def value(t, i=None):
            return model.wall_event(np.stack([np.ones_like(t), t], -1), 0.0)

        lo, hi = np.array([0.3, 0.45, 0.1]), np.array([0.7, 0.9, 0.5000001])
        root = dynamics._event_root(value, lo, hi, value(lo), value(hi))
        assert np.all(np.abs(root - 0.5) <= 4 * EPS * 1.5)
        # one point's routine takes the same iterations on floats
        point = [dynamics._point_root(lambda t: float(value(np.array(t))),
                                      a, b, value(a), value(b))
                 for a, b in zip(lo, hi)]
        assert np.array_equal(point, root)


# (H, x0, t0, t1, p at the event) for the stepper's match with scipy
SCIPY_CASES = {
    "unstable": (unstable_hamiltonian(1), [0.3, 0.4], 0.0, 1.0, 0.6),
    "channel_periodic": (channel_potential(1), [0.7, 1.3], 0.0, 2.0, 5.0),
    "mechanical": (mechanical_hamiltonian(1), [0.4, 1.2], 0.0,
                   math.pi / 4, 0.0),
    "perturbed": (add_hamiltonians(unstable_hamiltonian(1),
                                   wall_perturbation(0.25)),
                  [0.05, 0.1], 0.2, 2.2, 0.3),
}


# integrate and scipy agree to this multiple of the ODE tolerance
SCIPY_TOL = 100


class TestMatchesScipy:
    """``integrate`` follows scipy's DOP853 to within ``SCIPY_TOL`` times
    the ODE tolerance.  Its step rule is scipy's, but it rounds as the
    sweep's rows do (stages added in stage order, not by BLAS; the step
    factor's root taken by square roots), and a spec with a feature width
    caps its steps.  Where the error estimate is rounding noise (a flow
    that is locally a translation) the steps then differ, and the two
    solutions agree only to the tolerance: the mechanical case takes 30
    steps against scipy's 27 and differs by 7e-10, the others by at most
    2e-14.  scipy's right-hand side is a one-row stack, so it evaluates
    through ``H.grad`` while ``integrate``'s one-point calls take the
    specs' float path: the comparison checks that path too."""

    @pytest.mark.parametrize("case", sorted(SCIPY_CASES))
    def test_steps_states_dense_output_and_event(self, case):
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq

        H, x0, t0, t1, level = SCIPY_CASES[case]
        tol = 1e-10
        traj = integrate(H, x0, t0, t1, tol=tol)
        ref = solve_ivp(lambda t, y: sgrad(H, y[None], t)[0], (t0, t1),
                        H.chart.wrap(np.asarray(x0, dtype=float)),
                        method="DOP853", rtol=tol, atol=tol / 100,
                        dense_output=True)
        assert len(ref.t) > 3
        bound = SCIPY_TOL * tol
        assert (traj.times[0], traj.times[-1]) == (ref.t[0], ref.t[-1])
        assert np.allclose(traj.states, H.chart.wrap(ref.sol(traj.times).T),
                           rtol=bound, atol=bound)
        ts = np.linspace(t0, t1, 64)
        assert np.allclose(traj.dense(ts), ref.sol(ts), rtol=bound,
                           atol=bound)
        assert np.allclose(traj.dense(ts[5]), ref.sol(ts[5]), rtol=bound,
                           atol=bound)
        # the one root in the window, on scipy's dense output
        ref_root = brentq(lambda t: ref.sol(t)[0] - level, t0, t1,
                          xtol=1e-15)
        root = integrate(H, x0, t0, t1, tol=tol,
                         stop=lambda c: c[0] - level).stop
        assert abs(root - ref_root) <= bound


class TestDeterministicMap:
    def test_preserves_order(self):
        items = list(range(40))
        assert deterministic_map(lambda i: i * i, items) == \
            [i * i for i in items]


class TestPatternSearch:
    def test_quadratic_minimum(self):
        x, fx, _, _ = pattern_search(
            lambda z: (z[0] - 0.3) ** 2 + (z[1] + 0.2) ** 2,
            [0.0, 0.0], [(-1.0, 1.0), (-1.0, 1.0)], max_evals=400,
        )
        assert np.allclose(x, [0.3, -0.2], atol=1e-5)

    def test_respects_bounds(self):
        x, _, _, _ = pattern_search(lambda z: -z[0], [0.5], [(0.0, 1.0)],
                                    max_evals=200)
        assert 0.0 <= x[0] <= 1.0
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_flat_poll_stops(self, dim):
        """A constant objective with up to 32 ulps of deterministic noise
        above its start value stops after the first poll."""
        def noisy(z):  # 13 and 26 ulps at the first poll's probes
            k = int(1e3 * np.dot(np.abs(z), np.arange(1, dim + 1)))
            return 1.0 + EPS * (13 * k % 33)

        x, fx, evals, converged = pattern_search(noisy, np.zeros(dim),
                                                 [(-1.0, 1.0)] * dim)
        assert evals <= 1 + 2 * dim and converged
        assert fx == 1.0 and not x.any()

    def test_a_fixed_axis_does_not_block_the_stop(self):
        """An axis whose bounds coincide is never polled, and a flat poll
        of the other one still ends the search."""
        x, fx, evals, _ = pattern_search(lambda z: 1.0, [0.5, 0.3],
                                         [(0.0, 1.0), (0.3, 0.3)])
        assert (x.tolist(), fx, evals) == ([0.5, 0.3], 1.0, 3)

    def test_one_sided_plateau_settles(self):
        """A probe flat at s and at 2s settles its coordinate beside a
        rise: on f = 1 + max(0, 0.5 - z) from 0.5 the second poll ends
        the search, where halving until the rise goes flat would take
        the steps down to the 1e-12 floor."""
        x, fx, evals, _ = pattern_search(
            lambda z: 1.0 + max(0.0, 0.5 - z[0]), [0.5], [(0.0, 1.0)])
        assert (x[0], fx, evals) == (0.5, 1.0, 5)

    @pytest.mark.parametrize("left", [(1, math.inf), (0, 0.5)])
    def test_poll_with_a_miss_keeps_halving(self, left):
        """A neighbour ranked ``(1, inf)`` next to a hit is never flat, even
        beside a flat one: the steps halve down to the 1e-12 floor."""
        def rank(z):
            if z[0] == 0.5:
                return 0, 0.5
            return left if z[0] < 0.5 else (1, math.inf)

        x, fx, evals, converged = pattern_search(rank, [0.5], [(0.0, 1.0)])
        polls, step = 0, 0.01
        while step > 1e-12:
            polls, step = polls + 1, step * 0.5
        assert (x[0], fx) == (0.5, (0, 0.5))
        assert evals == 1 + 2 * polls and converged  # by the step floor

    @pytest.mark.parametrize("right, expected", [
        ((1, math.inf), None), ((1, 0.5), 5)])
    def test_a_failed_neighbour_of_a_miss_is_not_flat(self, right, expected):
        """Before any hit, a neighbour ranked ``(1, inf)`` (its integration
        failed or escaped) is not flat beside a finite miss, so the first
        poll settles nothing.  With both neighbours failed the steps halve
        down to the 1e-12 floor; with a flat miss on the other side the
        second poll settles the coordinate as a one-sided plateau."""
        def rank(z):
            if z[0] == 0.5:
                return 1, 0.5
            return (1, math.inf) if z[0] < 0.5 else right

        x, fx, evals, _ = pattern_search(rank, [0.5], [(0.0, 1.0)])
        polls, step = 0, 0.01
        while step > 1e-12:
            polls, step = polls + 1, step * 0.5
        assert (x[0], fx) == (0.5, (1, 0.5))
        assert evals == (expected or 1 + 2 * polls)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.floats(0.05, 0.95), c=st.floats(0.1, 1.0),
           x0=st.floats(0.0, 1.0))
    @example(a=0.0625, c=0.8, x0=0.8997)  # a start across the box
    def test_flat_stop_costs_at_most_ulps(self, a, c, x0):
        """On a convex objective the flat stop gives up only ulps."""
        _, fx, _, _ = pattern_search(lambda z: c + (z[0] - a) ** 2, [x0],
                                     [(0.0, 1.0)])
        assert c <= fx <= c + 256 * EPS * c

    def test_repeated_moves_stride_out(self):
        """Steps double along a repeated move: from one end of the box the
        search reaches the other at its 8th evaluation (0.01, 0.02, ...,
        0.64, then 1), not after 100 steps of a hundredth."""
        probes = []

        def rise(z):
            probes.append(z[0])
            return -z[0]

        x, _, _, _ = pattern_search(rise, [0.0], [(0.0, 1.0)])
        assert x[0] == 1.0
        assert probes.index(1.0) == 8

    def test_the_cap_is_reported(self):
        """A search the evaluation cap ends says so; the same search
        given room settles."""
        def bowl(z):
            return (z[0] - 0.3) ** 2 + (z[1] + 0.2) ** 2

        *_, evals, converged = pattern_search(
            bowl, [0.0, 0.0], [(-1.0, 1.0)] * 2, max_evals=20)
        assert (evals, converged) == (20, False)
        *_, evals, converged = pattern_search(
            bowl, [0.0, 0.0], [(-1.0, 1.0)] * 2, max_evals=10_000)
        assert evals < 10_000 and converged


class TestSeparation:
    def test_unstable_on_sphere_walls(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        rep = separation(unstable_hamiltonian(1), tet.low_wall,
                         tet.high_wall)
        assert rep.delta == pytest.approx(1.0, abs=1e-9)
        assert rep.min_value == pytest.approx(0.5, abs=1e-9)
        assert rep.max_value == pytest.approx(-0.5, abs=1e-9)
        assert rep.separating

    def test_counts_both_pattern_searches(self, monkeypatch):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        counts = []

        def counting(*args, **kwargs):
            out = pattern_search(*args, **kwargs)
            counts.append(out[2])
            return out

        monkeypatch.setattr(dynamics, "pattern_search", counting)
        rep = separation(unstable_hamiltonian(1), tet.low_wall,
                         tet.high_wall)
        assert len(counts) == 2
        assert rep.n_evals == sum(counts) > 0

    def test_constant_does_not_separate(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        rep = separation(constant_hamiltonian(PLANE, 2.0), tet.low_wall,
                         tet.high_wall)
        assert rep.delta == pytest.approx(0.0, abs=1e-12)
        assert not rep.separating

    def test_channel_on_circle_walls(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        rep = separation(channel_potential(1), tet.low_wall,
                         tet.high_wall)
        # cos(2 pi u): 1 on the u = 0 wall, 0 on the u = 1/4 wall
        assert rep.delta == pytest.approx(1.0, abs=1e-9)

    def test_extrema_locations_reported(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        rep = separation(unstable_hamiltonian(1), tet.low_wall,
                         tet.high_wall)
        assert tet.high_wall.distance(rep.argmin) <= 1e-6
        assert tet.low_wall.distance(rep.argmax) <= 1e-6


class TestChordBudget:
    def test_value(self):
        assert chord_budget(0.25, 1.0) == pytest.approx(0.25)
        assert chord_budget(0.25, 1.0, 0.5) == pytest.approx(0.5)

    def test_no_budget_when_margin_consumed(self):
        with pytest.raises(ValueError):
            chord_budget(0.25, 0.3, 0.3)
        with pytest.raises(ValueError):
            chord_budget(0.25, 0.2, 0.3)


class TestChordSearchConfig:
    @pytest.mark.parametrize("name, value", [
        ("n_seeds", 0), ("n_seeds", -5), ("n_phases", 0),
        ("ode_tol", 0.0), ("ode_tol", -1e-9), ("ode_tol", math.nan),
        ("ode_tol", math.inf), ("escape_norm", math.nan),
        ("escape_norm", -1.0), ("escape_norm", 0.0)])
    def test_out_of_range_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            ChordSearchConfig(**{name: value})

    def test_infinite_escape_norm_turns_the_ball_off(self):
        assert ChordSearchConfig(escape_norm=math.inf).escape_norm == math.inf


_BAD_SETTINGS = [("tol", 0.0), ("tol", -1e-9), ("tol", math.nan),
                 ("tol", math.inf), ("escape_norm", math.nan),
                 ("escape_norm", 0.0), ("escape_norm", -1.0)]


class TestRunSettings:
    """``integrate`` and ``ensemble_sweep`` check their settings by the
    rules of ``ChordSearchConfig``: a zero tolerance divided by zero, a
    negative one stepped without error control, a nan one blamed the
    gradient, and a nan escape ball never escaped."""

    @pytest.mark.parametrize("name, value", _BAD_SETTINGS)
    def test_integrate_names_a_bad_setting(self, name, value):
        with pytest.raises(ValueError, match=name):
            integrate(unstable_hamiltonian(1), [0.5, 0.1], 0.0, 5.0,
                      **{name: value})

    @pytest.mark.parametrize("name, value", _BAD_SETTINGS)
    def test_ensemble_sweep_names_a_bad_setting(self, name, value):
        H, X0, X1, budget, _, _ = SWEEP_CASES["unstable"]
        with pytest.raises(ValueError, match=name):
            ensemble_sweep(H, X1, X0.sample_points(4), [0.0] * 4, budget,
                           **{name: value})


class TestFindChord:
    def test_channel_chord_has_analytic_time(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        H = channel_potential(1)
        res = find_chord(H, tet.floor, tet.ceiling, 0.25)
        assert res.found
        assert res.chord.time_length == pytest.approx(1.0 / (2 * math.pi),
                                                      abs=1e-6)
        assert_chord(res.chord, tet.floor, tet.ceiling, 0.25)

    def test_chord_endpoints_on_regions(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        res = find_chord(channel_potential(1), tet.floor, tet.ceiling,
                         0.25)
        states = res.chord.trajectory.states
        assert tet.floor.distance(states[0]) <= 1e-6
        assert tet.ceiling.distance(states[-1]) <= 1e-6

    def test_not_found_reports_gap_distance(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        res = find_chord(constant_hamiltonian(PLANE), tet.floor,
                         tet.ceiling, 1.0)
        assert not res.found
        assert res.chord is None
        assert res.best_distance == pytest.approx(math.sqrt(2) - 1,
                                                  abs=1e-6)

    def test_budget_must_be_positive(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        with pytest.raises(ValueError):
            find_chord(channel_potential(1), tet.floor, tet.ceiling, 0.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_budget_must_be_finite(self, budget):
        """A NaN budget is not blamed on the Hamiltonian, and an infinite
        one finds no chord."""
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        with pytest.raises(ValueError, match="time_budget"):
            find_chord(channel_potential(1), tet.floor, tet.ceiling, budget)

    def test_regions_must_be_disjoint(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        with pytest.raises(ValueError):
            find_chord(channel_potential(1), tet.floor, tet.floor, 0.25)

    def test_larger_budget_does_not_lose_the_chord(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        H = channel_potential(1)
        a = find_chord(H, tet.floor, tet.ceiling, 0.25)
        b = find_chord(H, tet.floor, tet.ceiling, 0.5)
        assert a.found and b.found
        assert b.chord.time_length <= a.chord.time_length + 1e-9

    def test_found_chord_reports_swept_counts(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        res = find_chord(channel_potential(1), tet.floor, tet.ceiling,
                         0.25, ChordSearchConfig(n_seeds=64, n_phases=16))
        assert res.found
        assert res.n_phases == 1  # autonomous: one phase swept
        assert res.n_seeds == 64

    def test_escapes_are_counted(self):
        """|x(t)|^2 = u0^2 e^{2t} + v0^2 e^{-2t} under the unstable flow,
        convex in t, so a seed leaves the ball of radius 1.2 within the
        budget exactly when its end-of-budget norm does."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        budget, radius = 0.3, 1.2
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         budget, ChordSearchConfig(n_seeds=32,
                                                   escape_norm=radius))
        p, q = np.array(tet.floor.sample_points(32)).T
        peak = ((p + q) ** 2 / 2 * math.exp(2 * budget)
                + (p - q) ** 2 / 2 * math.exp(-2 * budget))
        assert np.min(np.abs(peak - radius ** 2)) > 1e-3
        expected = int(np.sum(peak > radius ** 2))
        assert 0 < expected < 32
        assert not res.found
        assert res.n_escaped == expected
        assert res.n_stiff == 0
        assert f"32 seeds x 1 phases, {expected} escaped, 0 stiff" \
            in res.message


    def test_starts_outside_the_ball_escape(self):
        """Every floor seed has norm 1: with a ball of radius 0.5 each one
        has escaped at its start, in the sweep and in refinement."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         0.5, ChordSearchConfig(n_seeds=8, escape_norm=0.5))
        assert not res.found
        assert (res.n_escaped, res.n_stiff) == (8, 0)
        assert res.n_refine_failed == res.n_refine_evals > 0
        assert res.best_distance == math.inf

    def test_escape_after_arrival_keeps_the_chord(self):
        """The chord ends at the ceiling (radius sqrt 2); leaving the ball
        of radius 1.6 later in the budget does not void it."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         math.pi / 4, ChordSearchConfig(escape_norm=1.6))
        assert res.found
        assert res.chord.time_length == pytest.approx(0.5 * math.log(2),
                                                      abs=1e-4)
        assert_chord(res.chord, tet.floor, tet.ceiling, math.pi / 4)

    def test_an_escape_just_past_the_arrival_keeps_the_chord(self):
        """A ball of radius sqrt 2 (1 + 1e-7), just outside the ceiling:
        every run stops at its arrival, before it could escape, so the
        search is the default ball's, bit for bit."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        H, budget = unstable_hamiltonian(1), math.pi / 4
        ref = find_chord(H, tet.floor, tet.ceiling, budget)
        res = find_chord(H, tet.floor, tet.ceiling, budget, ChordSearchConfig(
            escape_norm=math.sqrt(2) * (1 + 1e-7)))
        assert ref.found and res.found
        assert (res.chord.trajectory.stop, res.chord.time_error,
                res.n_refine_evals) == (ref.chord.trajectory.stop,
                                        ref.chord.time_error,
                                        ref.n_refine_evals)
        assert res.n_refine_failed == 0

    def test_escaped_refinement_runs_are_failures(self, monkeypatch):
        """On ``test_escapes_are_counted``'s fixture no run arrives, so an
        evaluation ranks (1, inf) exactly when its run failed: each such
        run left the ball, and each such evaluation is counted as failed
        and named in the message."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        values, failures = [], []
        real_search, real_integrate = pattern_search, dynamics.integrate

        def search(f, *args, **kwargs):
            def recorded(z):
                values.append(f(z))
                return values[-1]
            return real_search(recorded, *args, **kwargs)

        def spy(*args, **kwargs):
            try:
                return real_integrate(*args, **kwargs)
            except (EscapeError, StiffnessError) as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(dynamics, "pattern_search", search)
        monkeypatch.setattr(dynamics, "integrate", spy)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         0.3, ChordSearchConfig(n_seeds=32, escape_norm=1.2))
        assert not res.found
        assert failures and all(isinstance(e, EscapeError) for e in failures)
        n_failed = sum(v == (1, math.inf) for v in values)
        assert res.n_refine_failed == n_failed > 0
        assert res.n_refine_evals == len(values)
        assert (f"{len(values)} refinement evaluations, {n_failed} failed"
                in res.message)

    def test_refinement_finds_chord_the_sweep_missed(self):
        """Two seeds are the floor arc's endpoints, which reach the
        ceiling at 0.658 > 0.5; refining the closer miss finds the
        minimal chord ln(2)/2 from the arc's middle."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        H, budget = unstable_hamiltonian(1), 0.5
        seeds = [tet.floor.param_point(pr, comp)
                 for pr, comp in tet.floor.sample_params(2)]
        sweep = ensemble_sweep(H, tet.ceiling, seeds, [0.0, 0.0], budget)
        assert np.isnan(sweep.hit).all()
        res = find_chord(H, tet.floor, tet.ceiling, budget,
                         ChordSearchConfig(n_seeds=2))
        assert res.found
        assert res.chord.time_length == pytest.approx(0.5 * math.log(2),
                                                      abs=1e-6)
        assert_chord(res.chord, tet.floor, tet.ceiling, budget)


class TestSharpFixture:
    """G = Delta (T - u) / T on the circle tetragon moves s at Delta / T
    and keeps u, so every floor-to-ceiling chord takes kappa / Delta;
    adding F = delta u / T slows it to kappa / (Delta - delta), which is
    the interlinking budget of G + F.  The search returns these times
    within ``time_error``, which counts the event root's own bracket: the
    unperturbed chord lies 1.7e-16 below kappa / Delta, while the gap
    between the two tolerances' runs is 5.6e-17."""

    @pytest.mark.parametrize("delta", [0.0, 0.25])
    def test_chord_time_is_the_budget(self, delta):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        T, Delta = tet.T, 1.0
        rate = (Delta - delta) / T  # ds/dt

        def gradient(x, t):
            zero = np.zeros(np.shape(x)[:-1])
            return np.stack([zero, zero - rate], axis=-1)

        H = HamiltonianSpec(
            chart=tet.chart, gradient=gradient,
            value=lambda x, t: (Delta * (T - x[..., 1])
                                + delta * x[..., 1]) / T,
            point_gradient=lambda x, t: [0.0, -rate])
        sep = separation(H, tet.low_wall, tet.high_wall)
        assert sep.delta == pytest.approx(Delta - delta, abs=1e-12)
        exact = chord_budget(tet.kappa, Delta, delta)
        res = find_chord(H, tet.floor, tet.ceiling, 1.001 * exact)
        assert res.found
        chord = res.chord
        assert abs(chord.time_length - exact) <= chord.time_error


def _record_integrate(monkeypatch):
    """Make ``dynamics.integrate`` append ``(x0, t0, t1, trajectory)`` to
    the returned list on every call that returns."""
    calls, real = [], dynamics.integrate

    def spy(H, x0, t0, t1, **kwargs):
        traj = real(H, x0, t0, t1, **kwargs)
        calls.append((tuple(np.asarray(x0, float).tolist()), t0, t1, traj))
        return traj

    monkeypatch.setattr(dynamics, "integrate", spy)
    return calls


class TestIncumbentWindow:
    def test_integrations_stop_at_the_incumbent(self, monkeypatch):
        """After refinement certifies a hit at t*, every integration
        (refinement and the error-bar run) ends by phase + t* + margin,
        and the chord is still the minimal one."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        budget = math.pi / 4
        calls = _record_integrate(monkeypatch)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         budget, ChordSearchConfig(ode_tol=1e-9))
        assert res.found
        assert res.chord.time_length == pytest.approx(0.5 * math.log(2),
                                                      abs=1e-9)
        starts = [x0 for x0, *_ in calls[:-1]]
        assert len(set(starts)) == len(starts)
        assert len(calls) <= res.n_refine_evals + 1
        assert res.n_refine_failed == 0
        margin = dynamics.INCUMBENT_MARGIN * budget
        best, windowed = math.inf, 0
        for _, t0, t1, traj in calls:
            if best < math.inf:
                assert t1 <= t0 + (best + margin)
                windowed += 1
            if traj.stop is not None:
                best = min(best, traj.stop - t0)
        assert windowed >= len(calls) - 1
        assert res.chord.trajectory.t1 == res.chord.trajectory.stop

    def test_no_start_is_integrated_twice(self, monkeypatch):
        """Pattern search polls the start it just left; refinement answers
        such a poll from its first integration, so every start in the
        search is integrated once.  The winner's refinement run is the
        chord, so the only run after the search is the error-bar run from
        the winner's start."""
        H, X0, X1, budget, _, n = SWEEP_CASES["unstable"]
        calls = _record_integrate(monkeypatch)
        res = find_chord(H, X0, X1, budget, ChordSearchConfig(n_seeds=n))
        assert res.found
        starts = [x0 for x0, *_ in calls[:-1]]
        assert len(set(starts)) == len(starts)
        assert len(starts) < res.n_refine_evals
        winner = starts.index(calls[-1][0])
        assert calls[winner][3] is res.chord.trajectory
        assert calls[-1][2] >= res.chord.trajectory.stop

    def test_no_hit_refines_over_the_full_budget(self, monkeypatch):
        """With no hit anywhere there is no incumbent: every refinement
        window is the whole budget and misses keep their distance."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        calls = _record_integrate(monkeypatch)
        res = find_chord(constant_hamiltonian(PLANE), tet.floor,
                         tet.ceiling, 1.0)
        assert not res.found
        assert res.best_distance == pytest.approx(math.sqrt(2) - 1,
                                                  abs=1e-6)
        assert len(calls) == res.n_refine_evals > 0
        assert all(t1 - t0 == 1.0 for _, t0, t1, _ in calls)
        assert res.n_refine_failed == 0
        assert f"{res.n_refine_evals} refinement evaluations, 0 failed" \
            in res.message

    def test_refinement_failures_are_counted(self, monkeypatch):
        """An integration that raises is counted as a failed evaluation
        and named in the no-chord message; the sweep's distance stays."""
        def stiff(*args, **kwargs):
            raise StiffnessError("step underflow")

        monkeypatch.setattr(dynamics, "integrate", stiff)
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        res = find_chord(constant_hamiltonian(PLANE), tet.floor,
                         tet.ceiling, 1.0)
        assert not res.found
        n = res.n_refine_evals
        assert n > 0 and res.n_refine_failed == n
        assert f"{n} refinement evaluations, {n} failed" in res.message
        assert res.best_distance == pytest.approx(math.sqrt(2) - 1,
                                                  abs=1e-6)

    @pytest.mark.parametrize("case", ["unstable", "perturbed", "channel_k2",
                                      "mechanical", "sphere_k4",
                                      "wall_witness", "constant"])
    def test_winner_passes_certification(self, case, monkeypatch):
        """Refinement's first evaluation, at the sweep's best start, ranks
        it as the sweep did, bit for bit; a found chord's time is the
        incumbent the search returns, exactly, and carries a small error
        estimate.  The chord's trajectory is the winning run, which ends
        at its arrival."""
        H, X0, X1, budget, phases, n = SWEEP_CASES[case]
        sweeps, searches = [], []
        real_sweep, real_search = dynamics.ensemble_sweep, pattern_search

        def sweep(*args, **kwargs):
            sweeps.append(real_sweep(*args, **kwargs))
            return sweeps[-1]

        def search(f, *args, **kwargs):
            values = []

            def recorded(z):
                values.append(f(z))
                return values[-1]

            out = real_search(recorded, *args, **kwargs)
            searches.append((values[0], out[1]))
            return out

        monkeypatch.setattr(dynamics, "ensemble_sweep", sweep)
        monkeypatch.setattr(dynamics, "pattern_search", search)
        res = find_chord(H, X0, X1, budget, ChordSearchConfig(
            n_seeds=n, n_phases=len(phases)))
        (swept,), ((first, (missed, value)),) = sweeps, searches
        if np.isnan(swept.hit).all():
            assert first == (1, swept.distance.min())
        else:  # the earliest hit, up to a 1e-15 tie
            assert first[0] == 0 and first[1] in swept.hit.tolist()
            assert first[1] <= np.nanmin(swept.hit) + 1e-15
        assert res.found == (not missed)
        if res.found:
            assert res.chord.time_length == value
            traj = res.chord.trajectory
            assert traj.t1 == traj.stop
            assert np.array_equal(traj.states[-1], traj(traj.stop))
            assert_chord(res.chord, X0, X1, budget)
            assert 0.0 <= res.chord.time_error < 1e-8
        else:
            assert res.best_distance == value


class TestRefinementStop:
    """The flat-poll stop ends refinement once it only chases rounding
    noise, and moves neither the miss distance nor the chord time."""

    def test_witness_sweep(self, witness_run):
        _, search, _ = witness_run.value
        assert search.n_refine_evals <= 16
        assert search.best_distance == 0.010337266106554277

    def test_unstable_chord(self, unstable_run):
        rep = unstable_run.value
        assert rep.n_refine_evals <= 32
        assert rep.n_refine_failed == 0
        assert rep.refine_converged is True
        assert rep.time_length == pytest.approx(0.5 * math.log(2),
                                                abs=1e-9)

    @pytest.mark.parametrize("run, most", [
        ("unstable_run", 30), ("mechanical_run", 40), ("channel_run_k1", 22)])
    def test_default_scenarios_settle_in_few_evaluations(self, request, run,
                                                         most):
        """The parabola-vertex search step settles the default scenarios'
        refinements in 24, 32 and 22 evaluations (55, 61 and 22 without
        it)."""
        rep = request.getfixturevalue(run).value
        assert rep.refine_converged and rep.n_refine_evals <= most

    def test_channel_k2_separations_settle(self, monkeypatch):
        """Both separation searches of the channel k = 2 scenario settle,
        in at most 60 evaluations together: without the search step the
        low-wall maximum crawled along a flat ridge to its cap of 120."""
        real_extremize = dynamics._extremize_on_region
        searches, inside = [], []

        def extremize(*args):
            inside.append(True)
            try:
                return real_extremize(*args)
            finally:
                inside.pop()

        def search(*args, **kwargs):
            out = pattern_search(*args, **kwargs)
            if inside:
                searches.append(out[2:])
            return out

        monkeypatch.setattr(dynamics, "_extremize_on_region", extremize)
        monkeypatch.setattr(dynamics, "pattern_search", search)
        run_scenario(ScenarioConfig(scenario="superconductivity", k=2))
        assert len(searches) == 2
        assert all(converged for _, converged in searches)
        assert sum(evals for evals, _ in searches) <= 60


class TestRefinementCap:
    """The refinement's evaluation cap grows with the number of refined
    start parameters, and a search it ends says so."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unstable_chord_settles_in_each_dimension(self, k):
        """On the k-dimensional unstable fixture (256 seeds, R0 = 1, R1 =
        2, the scenarios' escape ball) the search settles, and its chord
        lies within 2 time_error of ln(R1/R0) / 2.  With a cap of 200 the
        k = 4 search stopped at it 1.58e-10 above, 188 time_error."""
        tet = build_tetragon(SphereModel(k), 1.0, 2.0, math.pi / 4)
        res = find_chord(unstable_hamiltonian(k), tet.floor, tet.ceiling,
                         math.pi / 4, ChordSearchConfig(
                             n_seeds=256,
                             escape_norm=10.0 * (math.sqrt(2.0) + 1.0)))
        assert res.found and res.refine_converged and res.message == ""
        chord = res.chord
        assert abs(chord.time_length - 0.5 * math.log(2.0)) \
            <= 2 * chord.time_error

    def test_a_capped_chord_says_so(self, monkeypatch):
        """A search stopped at its cap still gives the winning run as the
        chord, flagged in ``refine_converged`` and in its message."""
        real_search = pattern_search

        def capped(f, x0, bounds, max_evals):
            assert max_evals == 200  # max(200, 100 d) at d = 1
            return real_search(f, x0, bounds, max_evals=3)

        monkeypatch.setattr(dynamics, "pattern_search", capped)
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         math.pi / 4)
        assert res.found and not res.refine_converged
        assert res.n_refine_evals == 3
        assert "stopped at its cap of 3 evaluations" in res.message


def _sweep_cases():
    sphere = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
    sphere4 = build_tetragon(SphereModel(4), 1.0, 2.0, math.pi / 4)
    circle = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
    torus = build_tetragon(TorusModel(2), 1.0, 2.0, 0.25)
    perturbed = add_hamiltonians(unstable_hamiltonian(1),
                                 wall_perturbation(0.25))
    witness = wall_witness(1.0, 2.0, delta2=0.01).hamiltonian()
    return {
        # (H, start, target, budget, phases, seeds: a count for
        # sample_points, or indices into sample_params(64))
        "unstable": (unstable_hamiltonian(1), sphere.floor, sphere.ceiling,
                     math.pi / 4, [0.0], 16),
        "perturbed": (perturbed, sphere.floor, sphere.ceiling, 0.5,
                      [0.0, 0.5], 6),
        # seeds 1, 2, 33 and 34 of sample_params(64) start in the wall
        # tube's roll (q ~ +-0.05, +-0.10), where the wall term is nonzero,
        # and step on after seed 8, on the diagonal, hits
        "perturbed_tube": (perturbed, sphere.floor, sphere.ceiling, 0.5,
                           [0.0, 0.5], [1, 2, 8, 33, 34]),
        "channel_k2": (channel_potential(2), torus.floor, torus.ceiling,
                       0.3, [0.0], 16),
        "mechanical": (mechanical_hamiltonian(1), sphere.floor,
                       sphere.ceiling, math.pi / 4, [0.0], 16),
        # a dimension-8 chart, whose norms and events numpy adds pairwise
        "sphere_k4": (unstable_hamiltonian(4), sphere4.floor,
                      sphere4.ceiling, math.pi / 4, [0.0], 16),
        "wall_witness": (witness, circle.high_wall, circle.low_wall,
                         0.25 / 1.01 - 0.01, [0.0], 21),
        "constant": (constant_hamiltonian(PLANE), sphere.floor,
                     sphere.ceiling, 1.0, [0.0], 8),
    }


SWEEP_CASES = _sweep_cases()


def _seed_points(X0, seeds):
    """A case's seed points, ``(n, dim)``."""
    if isinstance(seeds, int):
        return np.array(X0.sample_points(seeds))
    params = X0.sample_params(64)
    return X0.param_points([params[i] for i in seeds])


def _per_seed(H, X1, x0, phase, budget):
    """One member the way a per-seed ``integrate`` sees it: its hit time
    after the phase, else its closest sampled target distance."""
    traj = integrate(H, x0, phase, phase + budget, tol=1e-10,
                     stop=dynamics._arrival(X1, phase))
    if traj.stop is not None:
        return traj.stop - phase, None
    ts = np.linspace(traj.t0, traj.t1, 64)
    return None, min(X1.distance(traj(t)) for t in ts)


class TestEnsembleSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_matches_per_seed_integrate(self, case):
        """Each member swept alone has the hit time or miss distance of its
        per-seed ``integrate`` run, bit for bit; in the full batch,
        members keep exactly their own outcome unless dropped for arriving
        after the best hit, and the best hit is the same."""
        H, X0, X1, budget, phases, n = SWEEP_CASES[case]
        seeds = _seed_points(X0, n)
        starts = np.tile(seeds, (len(phases), 1))
        ph = np.repeat(phases, len(seeds))
        batch = ensemble_sweep(H, X1, starts, ph, budget)
        assert not batch.escaped.any() and not batch.stiff.any()
        alone = []
        for x0, phase in zip(starts, ph):
            one = ensemble_sweep(H, X1, x0[None], [phase], budget)
            hit, dist = one.hit[0], one.distance[0]
            ref_hit, ref_dist = _per_seed(H, X1, x0, phase, budget)
            assert (ref_hit is None) == bool(np.isnan(hit))
            if ref_hit is None:
                assert dist == ref_dist
            else:
                assert hit == ref_hit
            alone.append((hit, dist))
        hits, dists = np.array(alone).T
        kept = ~np.isnan(batch.hit)
        assert np.array_equal(batch.hit[kept], hits[kept])
        if np.isnan(hits).all():
            assert np.array_equal(batch.distance, dists)
        else:
            assert np.nanargmin(batch.hit) == np.nanargmin(hits)

    def test_escapes_and_hits_match_integrate(self):
        """Starts of the unstable flow at norms 0.8 to 1.5 and a ball of
        radius 1.6: within the budget some reach the ceiling, some leave
        the ball and some do neither.  Each member swept alone is escaped
        exactly when its ``integrate`` run, stopped at its arrival, raises
        ``EscapeError``; the error's time is the first of that run's step
        ends outside the ball, with that end's state, and hits match bit
        for bit."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        H, X1, budget, radius = (unstable_hamiltonian(1), tet.ceiling,
                                 math.pi / 4, 1.6)
        rng = np.random.default_rng(0)
        angle = rng.uniform(0.0, 2 * math.pi, 32)
        starts = rng.uniform(0.8, 1.5, 32)[:, None] * np.stack(
            [np.cos(angle), np.sin(angle)], axis=-1)
        arrive = dynamics._arrival(X1, 0.0)
        outcomes = []
        for x0 in starts:
            one = ensemble_sweep(H, X1, x0[None], [0.0], budget,
                                 escape_norm=radius)
            try:
                traj = integrate(H, x0, 0.0, budget, tol=1e-10,
                                 escape_norm=radius, stop=arrive)
            except EscapeError as exc:
                assert one.escaped[0] and np.isnan(one.hit[0])
                # the same steps, with no ball
                free = integrate(H, x0, 0.0, budget, tol=1e-10,
                                 escape_norm=math.inf, stop=arrive)
                k = free.times.tolist().index(exc.t)
                norms = np.linalg.norm(free.states, axis=-1)
                assert norms[k] >= radius and (norms[:k] < radius).all()
                assert np.array_equal(exc.state, free.states[k])
                outcomes.append("escaped")
                continue
            assert not one.escaped[0]
            if traj.stop is None:
                assert np.isnan(one.hit[0])
                outcomes.append("missed")
            else:
                assert one.hit[0] == traj.stop
                outcomes.append("hit")
        assert set(outcomes) == {"escaped", "missed", "hit"}

    def test_escapes_count_only_members_not_yet_dropped(self):
        """Starts of the unstable flow at norms 0.8 to 1.8 and a ball of
        radius 1.6: once a member hits, the members that can no longer
        beat it are dropped, some before they would escape.  Swept
        together 6 members are escaped, one by one 8, and each escaped
        together also escapes alone.  Swept together, the members that
        never hit alone give no chord, and then the count is exact."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        H, X1, budget, radius = (unstable_hamiltonian(1), tet.ceiling,
                                 math.pi / 4, 1.6)
        rng = np.random.default_rng(0)
        angle = rng.uniform(0.0, 2 * math.pi, 32)
        starts = rng.uniform(0.8, 1.8, 32)[:, None] * np.stack(
            [np.cos(angle), np.sin(angle)], axis=-1)

        def sweep(points):
            return ensemble_sweep(H, X1, points, np.zeros(len(points)),
                                  budget, escape_norm=radius)

        together = sweep(starts)
        alone = [sweep(x0[None]) for x0 in starts]
        escaped = np.array([one.escaped[0] for one in alone])
        assert np.isfinite(together.hit).any()
        assert together.escaped.sum() == 6 and escaped.sum() == 8
        assert not (together.escaped & ~escaped).any()
        never = np.array([np.isnan(one.hit[0]) for one in alone])
        no_chord = sweep(starts[never])
        assert np.isnan(no_chord.hit).all()
        assert np.array_equal(no_chord.escaped, escaped[never])

    @pytest.mark.parametrize("case, n", [("perturbed", 16), ("unstable", 16)])
    def test_certifies_a_step_by_one_distance_call(self, monkeypatch, case,
                                                   n):
        """Each step with crossings certifies its roots by one
        ``Region.distance`` call on their stack, right after solving
        them, and the sweep asks no ``membership``.  (With the perturbed
        fixture's 6 seeds every root has a step of its own; 16 seeds put
        several in one.)  Each hit is the member's own alone, and the
        earliest hit is unchanged."""
        H, X0, X1, budget, phases, _ = SWEEP_CASES[case]
        starts = np.tile(np.array(X0.sample_points(n)), (len(phases), 1))
        ph = np.repeat(phases, n)
        calls = []  # ("root", roots) and ("distance", rows), in order
        real_root, real_distance = dynamics._event_root, Region.distance

        def count_roots(*args):
            out = real_root(*args)
            calls.append(("root", len(out)))
            return out

        def count_rows(self, coords):
            calls.append(("distance", len(np.atleast_2d(coords))))
            return real_distance(self, coords)

        def no_membership(self, coords):
            raise AssertionError("the sweep asked membership")

        monkeypatch.setattr(dynamics, "_event_root", count_roots)
        monkeypatch.setattr(Region, "distance", count_rows)
        monkeypatch.setattr(Region, "membership", no_membership)
        batch = ensemble_sweep(H, X1, starts, ph, budget)
        monkeypatch.undo()
        steps = [i for i, (what, _) in enumerate(calls) if what == "root"]
        assert max(calls[i][1] for i in steps) > 1
        for i in steps:
            assert calls[i + 1] == ("distance", calls[i][1])
        alone = np.array([ensemble_sweep(H, X1, x0[None], [p], budget).hit[0]
                          for x0, p in zip(starts, ph)])
        kept = ~np.isnan(batch.hit)
        assert kept.any()
        assert np.array_equal(batch.hit[kept], alone[kept])
        assert np.nanargmin(batch.hit) == np.nanargmin(alone)

    @pytest.mark.parametrize("case", ["wall_witness", "constant"])
    def test_miss_samples_come_in_bounded_passes(self, monkeypatch, case):
        """With no hit every member is sampled at each of its
        MISS_SAMPLES times exactly once, in distance calls of at most
        n_all + MISS_SAMPLES - 1 rows."""
        H, X0, X1, budget, phases, n = SWEEP_CASES[case]
        starts = np.tile(np.array(X0.sample_points(n)), (len(phases), 1))
        rows, real = [], Region.distance

        def spy(self, coords):
            rows.append(len(np.atleast_2d(coords)))
            return real(self, coords)

        monkeypatch.setattr(Region, "distance", spy)
        batch = ensemble_sweep(H, X1, starts, np.repeat(phases, n), budget)
        assert np.isnan(batch.hit).all()
        assert max(rows) <= len(starts) + dynamics.MISS_SAMPLES - 1
        assert sum(rows) == len(starts) * dynamics.MISS_SAMPLES

    def test_ragged_miss_samples_match_per_seed_integrate(self, monkeypatch):
        """With no hit, members of two phases on the torus k=8 chart, whose
        ceiling distance adds 8 terms pairwise, take several steps each, so
        a step holds a different number of samples per member.  Every
        member is sampled at its MISS_SAMPLES times exactly once, at its
        ``integrate`` run's states, each with that state's distance, and
        its miss distance is that run's, all bit for bit."""
        tet = build_tetragon(TorusModel(8), 1.0, 2.0, 0.25)
        H, X1, budget = channel_potential(8), tet.ceiling, 0.2
        rng = np.random.default_rng(0)
        p = rng.standard_normal((12, 8))
        seeds = np.hstack([p / np.linalg.norm(p, axis=1)[:, None],
                           rng.random((12, 8))])
        starts, ph = np.tile(seeds, (2, 1)), np.repeat([0.0, 0.37], 12)
        seen, real = [], Region.distance

        def spy(self, coords):
            out = real(self, coords)
            seen.extend(zip(map(bytes, np.atleast_2d(coords)),
                            map(bytes, np.atleast_1d(out))))
            return out

        monkeypatch.setattr(Region, "distance", spy)
        batch = ensemble_sweep(H, X1, starts, ph, budget)
        monkeypatch.undo()
        assert np.isnan(batch.hit).all()
        expected = []
        for x0, phase, dist in zip(starts, ph, batch.distance):
            traj = integrate(H, x0, phase, phase + budget, tol=1e-10,
                             stop=dynamics._arrival(X1, phase))
            assert len(traj.times) > 2 and traj.stop is None
            assert dist == _per_seed(H, X1, x0, phase, budget)[1]
            for t in np.linspace(traj.t0, traj.t1, dynamics.MISS_SAMPLES):
                x = traj(t)
                expected.append((bytes(x), bytes(np.atleast_1d(
                    X1.distance(x)))))
        assert sorted(seen) == sorted(expected)


class TestRhsLookup:
    def test_every_gradient_goes_through_the_module_sgrad(self,
                                                         monkeypatch):
        """A tracer counts right-hand sides by replacing ``dynamics.sgrad``
        (``bench/tracing.py``).  In the perturbed scenario at quick size,
        the batched sweep and the one-point integrations both call it
        there, and every gradient the run evaluates comes through it, so
        an integrator bound to the RHS directly cannot leave that count
        silently at zero.  Evaluations are counted at the specs'
        ``gradient`` and ``point_gradient`` callbacks, outermost calls
        only: a sum's callback calls its terms'."""
        ndims, calls, depth = [], {"gradient": 0, "point_gradient": 0}, [0]
        real_sgrad, real_init = dynamics.sgrad, HamiltonianSpec.__init__

        def counting_sgrad(H, x, t=0.0):
            ndims.append(np.ndim(x))
            return real_sgrad(H, x, t)

        def counted(what, fn):
            def call(x, t):
                calls[what] += depth[0] == 0
                depth[0] += 1
                try:
                    return fn(x, t)
                finally:
                    depth[0] -= 1
            return call

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            for what in calls:
                if getattr(self, what) is not None:
                    object.__setattr__(self, what,
                                       counted(what, getattr(self, what)))

        monkeypatch.setattr(dynamics, "sgrad", counting_sgrad)
        monkeypatch.setattr(HamiltonianSpec, "__init__", counting_init)
        report = run_scenario(ScenarioConfig(
            scenario="unstable_equilibrium",
            perturbation=PerturbationSpec(), n_seeds=8, n_phases=4))
        assert report.found
        assert ndims.count(2) > 0 and ndims.count(1) > 0
        assert calls == {"gradient": ndims.count(2),
                         "point_gradient": ndims.count(1)}
