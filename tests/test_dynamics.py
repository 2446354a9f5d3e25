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
        H = unstable_hamiltonian(1)
        with pytest.raises(EscapeError) as exc:
            integrate(H, [2.0, 2.0], 0.0, 10.0, escape_norm=10.0)
        assert exc.value.t < 10.0
        assert np.linalg.norm(exc.value.state) == pytest.approx(10.0,
                                                                rel=1e-6)

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
        # q(t) = sin t crosses zero at multiples of pi
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 7.0, tol=1e-12,
                         events=[lambda c: c[1]])
        roots = np.array([t for t in traj.event_times if t > 1e-6])
        assert np.allclose(roots, [math.pi, 2 * math.pi], atol=1e-9)

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


    def test_terminal_event_ends_at_its_root(self):
        """q = sin t: the terminal event q = 0.5 ends the curve at pi/6,
        after the root of q = 0.3 and before that of q = 0.6."""
        def stop(c):
            return c[1] - 0.5

        stop.terminal = True
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 7.0, tol=1e-12,
                         events=[lambda c: c[1] - 0.3, stop,
                                 lambda c: c[1] - 0.6])
        assert traj.event_times[-1] == traj.t1
        assert np.allclose(traj.event_times, [math.asin(0.3), math.pi / 6],
                           atol=1e-12)
        assert np.array_equal(traj.states[-1], traj(traj.t1))

    def test_event_zero_at_start_reports_start(self):
        traj = integrate(harmonic(), [1.0, 0.0], 0.25, 1.0,
                         events=[lambda c: c[1]])
        assert traj.event_times[0] == 0.25

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


class TestMatchesScipy:
    """``integrate`` takes the steps of scipy's DOP853 and rounds alike."""

    @pytest.mark.parametrize("case", sorted(SCIPY_CASES))
    def test_steps_states_dense_output_and_event(self, case):
        from scipy.integrate import solve_ivp

        H, x0, t0, t1, level = SCIPY_CASES[case]
        tol = 1e-10
        traj = integrate(H, x0, t0, t1, tol=tol,
                         events=[lambda c: c[0] - level])
        ref = solve_ivp(lambda t, y: sgrad(H, y, t), (t0, t1),
                        H.chart.wrap(np.asarray(x0, dtype=float)),
                        method="DOP853", rtol=tol, atol=tol / 100,
                        dense_output=True,
                        events=[lambda t, y: y[0] - level])
        assert len(ref.t) > 3
        assert_bits(traj.times, ref.t)
        assert_bits(traj.states, H.chart.wrap(ref.y.T))
        ts = np.linspace(t0, t1, 64)
        assert_bits(traj.dense(ts), ref.sol(ts))
        assert_bits(traj.dense(ts[5]), ref.sol(ts[5]))
        (root,), (ref_root,) = traj.event_times, ref.t_events[0]
        assert abs(root - ref_root) <= 4 * EPS * (1 + abs(ref_root))


class TestDeterministicMap:
    def test_preserves_order(self):
        items = list(range(40))
        assert deterministic_map(lambda i: i * i, items) == \
            [i * i for i in items]


class TestPatternSearch:
    def test_quadratic_minimum(self):
        x, fx, _ = pattern_search(
            lambda z: (z[0] - 0.3) ** 2 + (z[1] + 0.2) ** 2,
            [0.0, 0.0], [(-1.0, 1.0), (-1.0, 1.0)], max_evals=400,
        )
        assert np.allclose(x, [0.3, -0.2], atol=1e-5)

    def test_respects_bounds(self):
        x, _, _ = pattern_search(lambda z: -z[0], [0.5], [(0.0, 1.0)],
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

        x, fx, evals = pattern_search(noisy, np.zeros(dim),
                                      [(-1.0, 1.0)] * dim)
        assert evals <= 1 + 2 * dim
        assert fx == 1.0 and not x.any()

    @pytest.mark.parametrize("left", [(1, math.inf), (0, 0.5)])
    def test_poll_with_a_miss_keeps_halving(self, left):
        """A neighbour ranked ``(1, inf)`` next to a hit is never flat, even
        beside a flat one: the steps halve down to the 1e-12 floor."""
        def rank(z):
            if z[0] == 0.5:
                return 0, 0.5
            return left if z[0] < 0.5 else (1, math.inf)

        x, fx, evals = pattern_search(rank, [0.5], [(0.0, 1.0)])
        polls, step = 0, 0.01
        while step > 1e-12:
            polls, step = polls + 1, step * 0.5
        assert (x[0], fx) == (0.5, (0, 0.5))
        assert evals == 1 + 2 * polls

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.floats(0.05, 0.95), c=st.floats(0.1, 1.0),
           x0=st.floats(0.0, 1.0))
    @example(a=0.0625, c=0.8, x0=0.8997)  # a start across the box
    def test_flat_stop_costs_at_most_ulps(self, a, c, x0):
        """On a convex objective the flat stop gives up only ulps."""
        _, fx, _ = pattern_search(lambda z: c + (z[0] - a) ** 2, [x0],
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

        x, _, _ = pattern_search(rise, [0.0], [(0.0, 1.0)])
        assert x[0] == 1.0
        assert probes.index(1.0) == 8


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
        ("ode_tol", math.inf)])
    def test_out_of_range_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            ChordSearchConfig(**{name: value})


class TestFindChord:
    def test_channel_chord_has_analytic_time(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        H = channel_potential(1)
        res = find_chord(H, tet.floor, tet.ceiling, 0.25)
        assert res.found
        assert res.chord.time_length == pytest.approx(1.0 / (2 * math.pi),
                                                      abs=1e-6)
        assert res.chord.validate(tet.floor, tet.ceiling, 0.25)

    def test_chord_endpoints_on_regions(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        res = find_chord(channel_potential(1), tet.floor, tet.ceiling,
                         0.25)
        assert res.chord.start_distance <= 1e-6
        assert res.chord.end_distance <= 1e-6

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

    def test_validate_rejects_budget_violation(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        res = find_chord(channel_potential(1), tet.floor, tet.ceiling,
                         0.25)
        assert not res.chord.validate(tet.floor, tet.ceiling, 0.1)

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


    def test_escape_after_arrival_keeps_the_chord(self):
        """The chord ends at the ceiling (radius sqrt 2); leaving the ball
        of radius 1.6 later in the budget does not void it."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         math.pi / 4, ChordSearchConfig(escape_norm=1.6))
        assert res.found
        assert res.chord.time_length == pytest.approx(0.5 * math.log(2),
                                                      abs=1e-4)
        assert res.chord.validate(tet.floor, tet.ceiling, math.pi / 4)

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
        assert res.chord.validate(tet.floor, tet.ceiling, budget)


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


def _certified_hit(traj, X1, phase):
    return next((tr for tr in traj.event_times
                 if tr - phase > 1e-12 and X1.membership(traj(tr))), None)


class TestIncumbentWindow:
    def test_integrations_stop_at_the_incumbent(self, monkeypatch):
        """After refinement certifies a hit at t*, every integration
        (refinement and both certification runs) ends by phase + t* +
        margin, and the chord is still the minimal one."""
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        budget = math.pi / 4
        calls = _record_integrate(monkeypatch)
        res = find_chord(unstable_hamiltonian(1), tet.floor, tet.ceiling,
                         budget, ChordSearchConfig(ode_tol=1e-9))
        assert res.found
        assert res.chord.time_length == pytest.approx(0.5 * math.log(2),
                                                      abs=1e-9)
        starts = [x0 for x0, *_ in calls[:-2]]
        assert len(set(starts)) == len(starts)
        assert len(calls) <= res.n_refine_evals + 2
        assert res.n_refine_failed == 0
        margin = dynamics.INCUMBENT_MARGIN * budget
        best, windowed = math.inf, 0
        for _, t0, t1, traj in calls:
            if best < math.inf:
                assert t1 <= t0 + (best + margin)
                windowed += 1
            hit = _certified_hit(traj, tet.ceiling, t0)
            if hit is not None:
                best = min(best, hit - t0)
        assert windowed >= len(calls) - 1
        assert res.chord.trajectory.t1 <= res.chord.t1 + margin

    def test_no_start_is_integrated_twice(self, monkeypatch):
        """Pattern search polls the start it just left; refinement answers
        such a poll from its first integration, so every start in the
        search is integrated once (the last two runs certify the
        winner)."""
        H, X0, X1, budget, _, n = SWEEP_CASES["unstable"]
        calls = _record_integrate(monkeypatch)
        res = find_chord(H, X0, X1, budget, ChordSearchConfig(n_seeds=n))
        assert res.found
        starts = [x0 for x0, *_ in calls[:-2]]
        assert len(set(starts)) == len(starts)
        assert len(starts) < res.n_refine_evals
        winner = calls[-2][0]
        assert calls[-1][0] == winner and winner in starts

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
                                      "mechanical", "wall_witness",
                                      "constant"])
    def test_winner_passes_certification(self, case):
        """No fixture loses its winner in the windowed re-certification,
        and every found chord carries a small error estimate."""
        H, X0, X1, budget, phases, n = SWEEP_CASES[case]
        res = find_chord(H, X0, X1, budget, ChordSearchConfig(
            n_seeds=n, n_phases=len(phases)))
        assert res.message != "candidate failed re-certification"
        if res.found:
            assert res.chord.validate(X0, X1, budget)
            assert 0.0 <= res.chord.time_error < 1e-8


class TestRefinementStop:
    """The flat-poll stop ends refinement once it only chases rounding
    noise, and moves neither the miss distance nor the chord time."""

    def test_witness_sweep(self, witness_run):
        _, search, _ = witness_run.value
        assert search.n_refine_evals <= 16
        assert search.best_distance == 0.010337266106554277

    def test_unstable_chord(self, unstable_run):
        rep = unstable_run.value
        assert rep.n_refine_evals <= 72
        assert rep.n_refine_failed == 0
        assert rep.time_length == pytest.approx(0.5 * math.log(2),
                                                abs=1e-9)


def _sweep_cases():
    sphere = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
    circle = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
    torus = build_tetragon(TorusModel(2), 1.0, 2.0, 0.25)
    perturbed = add_hamiltonians(unstable_hamiltonian(1),
                                 wall_perturbation(0.25))
    witness = wall_witness(1.0, 2.0, delta2=0.01).hamiltonian()
    return {
        # (H, start, target, budget, phases, seeds)
        "unstable": (unstable_hamiltonian(1), sphere.floor, sphere.ceiling,
                     math.pi / 4, [0.0], 16),
        "perturbed": (perturbed, sphere.floor, sphere.ceiling, 0.5,
                      [0.0, 0.5], 6),
        "channel_k2": (channel_potential(2), torus.floor, torus.ceiling,
                       0.3, [0.0], 16),
        "mechanical": (mechanical_hamiltonian(1), sphere.floor,
                       sphere.ceiling, math.pi / 4, [0.0], 16),
        "wall_witness": (witness, circle.high_wall, circle.low_wall,
                         0.25 / 1.01 - 0.01, [0.0], 21),
        "constant": (constant_hamiltonian(PLANE), sphere.floor,
                     sphere.ceiling, 1.0, [0.0], 8),
    }


SWEEP_CASES = _sweep_cases()


def _per_seed(H, X1, x0, phase, budget):
    """One member the way a per-seed ``integrate`` sees it."""
    traj = integrate(H, x0, phase, phase + budget, tol=1e-10,
                     events=[X1.event_fn])
    hit = next((tr - phase for tr in traj.event_times
                if tr - phase > 1e-12 and X1.membership(traj(tr))), None)
    ts = np.linspace(traj.t0, traj.t1, 64)
    return hit, min(X1.distance(traj(t)) for t in ts)


class TestEnsembleSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_matches_per_seed_integrate(self, case):
        """Each member swept alone follows per-seed ``integrate``; in the
        full batch, members keep exactly their own outcome unless dropped
        for arriving after the best hit, and the best hit is the same."""
        H, X0, X1, budget, phases, n = SWEEP_CASES[case]
        seeds = np.array(X0.sample_points(n))
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
                assert dist == pytest.approx(ref_dist, abs=1e-6)
            else:
                assert hit == pytest.approx(ref_hit, abs=1e-9)
            alone.append((hit, dist))
        hits, dists = np.array(alone).T
        kept = ~np.isnan(batch.hit)
        assert np.array_equal(batch.hit[kept], hits[kept])
        if np.isnan(hits).all():
            assert np.array_equal(batch.distance, dists)
        else:
            assert np.nanargmin(batch.hit) == np.nanargmin(hits)

    @pytest.mark.parametrize("case, n", [("perturbed", 16), ("unstable", 16)])
    def test_roots_after_the_best_hit_are_not_queried(self, monkeypatch,
                                                      case, n):
        """Roots are certified in order of arrival, so a root that arrives
        after the best hit in its step costs no membership query.  (With
        the perturbed fixture's 6 seeds every root has a step of its own;
        16 seeds put several in one.)  The earliest hit is unchanged."""
        H, X0, X1, budget, phases, _ = SWEEP_CASES[case]
        starts = np.tile(np.array(X0.sample_points(n)), (len(phases), 1))
        ph = np.repeat(phases, n)
        roots, queries = [], []
        real_root, real_member = dynamics._event_root, Region.membership

        def count_roots(*args):
            out = real_root(*args)
            roots.extend(out)
            return out

        def count_queries(self, coords):
            queries.append(coords)
            return real_member(self, coords)

        monkeypatch.setattr(dynamics, "_event_root", count_roots)
        monkeypatch.setattr(Region, "membership", count_queries)
        batch = ensemble_sweep(H, X1, starts, ph, budget)
        monkeypatch.undo()
        assert 0 < len(queries) < len(roots)
        alone = np.array([ensemble_sweep(H, X1, x0[None], [p], budget).hit[0]
                          for x0, p in zip(starts, ph)])
        kept = ~np.isnan(batch.hit)
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


class TestRhsLookup:
    def test_every_gradient_goes_through_the_module_sgrad(self,
                                                         monkeypatch):
        """A tracer counts right-hand sides by replacing ``dynamics.sgrad``
        (``bench/tracing.py``).  In the perturbed scenario at quick size,
        the batched sweep and the one-point integrations both call it
        there, and every gradient the run evaluates comes through it, so
        an integrator bound to the RHS directly cannot leave that count
        silently at zero."""
        ndims, grads = [], [0]
        real_sgrad, real_grad = dynamics.sgrad, HamiltonianSpec.grad

        def counting_sgrad(H, x, t=0.0):
            ndims.append(np.ndim(x))
            return real_sgrad(H, x, t)

        def counting_grad(self, x, t=0.0):
            grads[0] += 1
            return real_grad(self, x, t)

        monkeypatch.setattr(dynamics, "sgrad", counting_sgrad)
        monkeypatch.setattr(HamiltonianSpec, "grad", counting_grad)
        report = run_scenario(ScenarioConfig(
            scenario="unstable_equilibrium",
            perturbation=PerturbationSpec(), n_seeds=8, n_phases=4))
        assert report.found
        assert ndims.count(2) > 0 and ndims.count(1) > 0
        assert len(ndims) == grads[0]
