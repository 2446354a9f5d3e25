"""Integration, separation estimates and chord search."""

import math

import numpy as np
import pytest

from tetralab.contact import (CircleModel, SphereModel, TorusModel,
                              build_tetragon)
from tetralab.dynamics import (Chord, ChordSearchConfig, EscapeError,
                               chord_budget, deterministic_map,
                               ensemble_sweep, find_chord, integrate,
                               pattern_search, separation)
from tetralab.pb4 import wall_witness
from tetralab.phase_core import (HamiltonianSpec, PhaseChart,
                                 constant_hamiltonian)
from tetralab.scenarios import (add_hamiltonians, channel_potential,
                                mechanical_hamiltonian, unstable_hamiltonian,
                                wall_perturbation)

from conftest import polynomial_hamiltonian

PLANE = PhaseChart(dim_pairs=1)


def harmonic():
    return polynomial_hamiltonian(PLANE, (0.5 * np.eye(2), [0.0, 0.0]))


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

    def test_trajectory_sample_and_csv(self, tmp_path):
        traj = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0)
        samples = traj.sample([0.0, 0.5, 1.0])
        assert samples.shape == (3, 2)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,p1,q1"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(data[0], [0.0, 1.0, 0.0])

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


class TestSeparation:
    def test_unstable_on_sphere_walls(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        rep = separation(unstable_hamiltonian(1), tet.low_wall,
                         tet.high_wall)
        assert rep.delta == pytest.approx(1.0, abs=1e-9)
        assert rep.min_value == pytest.approx(0.5, abs=1e-9)
        assert rep.max_value == pytest.approx(-0.5, abs=1e-9)
        assert rep.separating

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
