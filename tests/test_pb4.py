"""Grid bracket estimator, feasibility machinery and wall witness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tetralab.dynamics import find_chord, integrate, separation
from tetralab.contact import CircleModel, build_tetragon
from tetralab.pb4 import (GridWindow, InfeasibleError, Pb4Problem,
                          discrete_bracket, estimate_pb4_plus,
                          feasible_pair_value, interpolant_pair,
                          project_fields, prototype_hamiltonian_pair,
                          prototype_problem, relabeled,
                          shrink_prototype_masks, wall_witness)
from tetralab.phase_core import poisson_bracket

from conftest import check_gradient


def plane_problem(n=32):
    """Non-periodic window with four corner-adjacent band masks."""
    w = GridWindow(s_lo=0.0, s_hi=1.0, u_lo=0.0, u_hi=1.0,
                   n_s=n, n_u=n, periodic_u=False)
    m = np.zeros((n, n), dtype=bool)
    masks = {
        "X0": m.copy(), "X1": m.copy(), "Y0": m.copy(), "Y1": m.copy(),
    }
    inner = slice(2, n - 2)  # keep masks clear of the zero frame
    masks["X0"][2:5, inner] = True      # low-s band
    masks["X1"][n - 5:n - 2, inner] = True  # high-s band
    masks["Y0"][inner, 2:5] = True
    masks["Y1"][inner, n - 5:n - 2] = True
    return Pb4Problem(window=w, masks=masks)


class TestGridWindow:
    def test_node_spacing(self):
        w = GridWindow(0.5, 2.5, 0.0, 1.0, 128, 128)
        assert w.h_s == pytest.approx(2.0 / 127)
        assert w.h_u == pytest.approx(1.0 / 128)  # periodic: no endpoint
        assert w.s_nodes()[0] == 0.5
        assert w.s_nodes()[-1] == pytest.approx(2.5)
        assert w.u_nodes()[-1] == pytest.approx(1.0 - 1.0 / 128)

    def test_non_periodic_spacing(self):
        w = GridWindow(0.0, 1.0, 0.0, 1.0, 11, 11, periodic_u=False)
        assert w.h_u == pytest.approx(0.1)


def null_mode_pair(n):
    """F = 1 on the rows of the ceiling row's parity, projected, with G
    the interpolant: centred differences see no bracket at any node."""
    problem = prototype_problem(n)
    ceiling_row = int(np.flatnonzero(problem.masks["X1"].any(axis=1))[0])
    F = np.zeros((n, n))
    F[np.arange(n) % 2 == ceiling_row % 2, :] = 1.0
    _, G = interpolant_pair(problem)
    return problem, project_fields(problem, F, G)


coefficient = st.floats(min_value=-3.0, max_value=3.0)


class TestOperators:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(coefficient, min_size=6, max_size=6))
    @example([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])  # F = s, G = u: -1
    @example([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])  # F = u, G = s: +1
    def test_bracket_orientation(self, c):
        """F = a0 + a_s s + a_u u, G = b0 + b_s s + b_u u: every triangle
        carries the continuum bracket a_u b_s - a_s b_u."""
        a0, a_s, a_u, b0, b_s, b_u = c
        problem = plane_problem(16)
        w = problem.window
        S, U = np.meshgrid(w.s_nodes(), w.u_nodes(), indexing="ij")
        b = discrete_bracket(problem, a0 + a_s * S + a_u * U,
                             b0 + b_s * S + b_u * U)
        assert b.shape == (2, 15, 15)
        assert np.abs(b - (a_u * b_s - a_s * b_u)).max() <= 1e-12

    def test_cylinder_window_wraps_u(self):
        """On a cylinder the seam is a cell like any other: rotating both
        fields in u rotates the triangle brackets with them."""
        problem = prototype_problem(16)
        rng = np.random.default_rng(4)
        F, G = rng.standard_normal((2, 16, 16))
        b = discrete_bracket(problem, F, G)
        assert b.shape == (2, 15, 16)
        rolled = discrete_bracket(problem, np.roll(F, 5, axis=1),
                                  np.roll(G, 5, axis=1))
        assert np.array_equal(rolled, np.roll(b, 5, axis=2))

    def test_matches_analytic_bracket_on_cylinder_chart(self):
        """Discrete bracket of sampled smooth fields converges to the
        continuum {F, G} on the (s, u) chart."""
        F, G = prototype_hamiltonian_pair()
        problem = prototype_problem(256)
        w = problem.window
        Fg = np.array([[F.value(np.array([s, u]), 0.0)
                        for u in w.u_nodes()] for s in w.s_nodes()])
        Gg = np.array([[G.value(np.array([s, u]), 0.0)
                        for u in w.u_nodes()] for s in w.s_nodes()])
        b = discrete_bracket(problem, Fg, Gg)
        x = np.array([1.5, 0.1])
        a = (x[0] - w.s_lo) / w.h_s
        c = (x[1] - w.u_lo) / w.h_u
        i, j = int(a), int(c)
        upper = int((a - i) + (c - j) > 1.0)
        assert b[upper, i, j] == pytest.approx(poisson_bracket(F, G, x),
                                               rel=1e-2)


class TestFeasibility:
    def test_problem_requires_all_masks(self):
        problem = plane_problem()
        bad = dict(problem.masks)
        del bad["Y1"]
        with pytest.raises(ValueError):
            Pb4Problem(window=problem.window, masks=bad)

    def test_zero_fields_violate_x1(self):
        problem = plane_problem()
        z = np.zeros((32, 32))
        with pytest.raises(InfeasibleError, match="X1"):
            feasible_pair_value(problem, z, z)

    def test_frame_violation_is_named(self):
        problem = plane_problem()
        F, G = interpolant_pair(problem)
        F2 = F.copy()
        F2[0, 5] = 0.5
        with pytest.raises(InfeasibleError, match="frame"):
            feasible_pair_value(problem, F2, G)

    def test_interpolant_is_feasible(self):
        problem = plane_problem()
        F, G = interpolant_pair(problem)
        val = feasible_pair_value(problem, F, G)
        assert np.isfinite(val) and val > 0.0

    def test_projection_restores_feasibility(self):
        problem = plane_problem()
        rng = np.random.default_rng(5)
        F = rng.standard_normal((32, 32))
        G = rng.standard_normal((32, 32))
        F2, G2 = project_fields(problem, F, G)
        feasible_pair_value(problem, F2, G2)  # must not raise

    @pytest.mark.parametrize("n", [32, 128])
    def test_null_mode_pair_cannot_undercut_interpolant(self, n):
        """The odd-even pair hides its bracket from centred differences
        at every node; the triangle bracket still sees it."""
        problem, (F, G) = null_mode_pair(n)
        val = feasible_pair_value(problem, F, G)
        assert val >= feasible_pair_value(problem,
                                          *interpolant_pair(problem))
        if n == 128:
            assert val == 254.0

    def test_projection_is_idempotent(self):
        problem = plane_problem()
        rng = np.random.default_rng(6)
        F, G = project_fields(problem, rng.standard_normal((32, 32)),
                              rng.standard_normal((32, 32)))
        F2, G2 = project_fields(problem, F, G)
        assert np.array_equal(F, F2)
        assert np.array_equal(G, G2)

    def test_overlapping_thickened_masks_rejected(self):
        problem = plane_problem()
        masks = {k: np.asarray(v).copy()
                 for k, v in problem.masks.items()}
        masks["X1"][:] = masks["X0"]
        with pytest.raises(ValueError):
            Pb4Problem(window=problem.window, masks=masks)


class TestPrototype:
    def test_masks_touch_the_four_sides(self):
        problem = prototype_problem(64)
        for name in ("X0", "X1", "Y0", "Y1"):
            assert problem.masks[name].any()

    def test_interpolant_near_exact_value(self):
        problem = prototype_problem(128)
        F, G = interpolant_pair(problem)
        val = feasible_pair_value(problem, F, G)
        assert 3.92 <= val <= 4.40

    def test_estimate_is_validated_feasible_value(self, pb4_runs):
        r128, _ = pb4_runs.value
        problem = prototype_problem(128)
        assert feasible_pair_value(problem, r128.F, r128.G) == \
            r128.estimate

    def test_estimate_within_band(self, pb4_runs):
        r128, r256 = pb4_runs.value
        assert 3.92 <= r128.estimate <= 4.40
        assert abs(r256.estimate - r128.estimate) < 0.1

    def test_relabeling_invariance(self, pb4_runs, pb4_property_runs):
        r128, _ = pb4_runs.value
        assert pb4_property_runs["relabeled"].estimate == r128.estimate

    def test_shrinking_masks_cannot_increase(self, pb4_runs,
                                             pb4_property_runs):
        r128, _ = pb4_runs.value
        assert pb4_property_runs["shrunk"].estimate <= r128.estimate

    def test_thickening_masks_cannot_decrease(self, pb4_runs,
                                              pb4_property_runs):
        r128, _ = pb4_runs.value
        assert pb4_property_runs["thickened"].estimate >= r128.estimate

    def test_report_trace_is_the_validated_value(self, pb4_runs):
        r128, _ = pb4_runs.value
        assert r128.trace == (
            (("start", 0), ("value", r128.estimate), ("iterations", 0)),
        )

    def test_shrink_refuses_to_empty_masks(self):
        problem = prototype_problem(16)
        with pytest.raises(ValueError):
            shrink_prototype_masks(problem, cells=20)

    def test_relabeling_has_order_four(self):
        problem = prototype_problem(32)
        twice = relabeled(relabeled(problem))
        # applying it twice swaps the roles within each pair
        assert np.array_equal(twice.masks["X0"], problem.masks["X1"])
        assert np.array_equal(twice.masks["Y0"], problem.masks["Y1"])
        back = relabeled(relabeled(twice))
        for name in ("X0", "X1", "Y0", "Y1"):
            assert np.array_equal(back.masks[name], problem.masks[name])


class TestPrototypeHamiltonians:
    def test_gradients_match_finite_differences(self):
        F, G = prototype_hamiltonian_pair()
        pts = [np.array([1.5, 0.1]), np.array([1.2, 0.2]),
               np.array([0.7, 0.7]), np.array([2.3, 0.05])]
        check_gradient(F, pts)
        check_gradient(G, pts)

    def test_bracket_is_reciprocal_area_inside(self):
        F, G = prototype_hamiltonian_pair(T=0.25)
        assert poisson_bracket(F, G, [1.5, 0.1]) == pytest.approx(4.0)

    def test_mean_value_along_chord(self):
        """max {F, G} along any floor-to-ceiling chord of G is at least
        the reciprocal of the chord's time-length."""
        F, G = prototype_hamiltonian_pair(T=0.25)
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        res = find_chord(G, tet.floor, tet.ceiling, 0.5)
        assert res.found
        tau = res.chord.time_length
        ts = np.linspace(res.chord.t0, res.chord.t1, 101)
        best = max(poisson_bracket(F, G, res.chord.trajectory(t))
                   for t in ts)
        assert best >= 1.0 / tau - 1e-6


class TestWallWitness:
    def test_boundary_values(self):
        ww = wall_witness(1.0, 2.0)
        assert ww.profile(1.0) == 0.0
        assert ww.profile(1.0 + ww.delta1) == 0.0
        assert abs(ww.profile(2.0) - 1.0) <= 1e-12
        assert ww.profile(2.0 + ww.delta1) == pytest.approx(0.0,
                                                            abs=1e-12)
        assert ww.profile(3.0) == 0.0

    def test_slope_matches_finite_differences(self):
        ww = wall_witness(1.0, 2.0)
        h = 1e-7
        for s in np.linspace(0.9, 2.1, 400):
            fd = (ww.profile(s + h) - ww.profile(s - h)) / (2 * h)
            assert ww.slope(s) == pytest.approx(fd, abs=1e-5)

    def test_monotone_with_bounded_slope(self):
        ww = wall_witness(1.0, 2.0, delta2=0.01)
        grid = np.linspace(1.0, 2.0, 5001)
        slopes = [ww.slope(s) for s in grid]
        assert min(slopes) >= 0.0
        assert max(slopes) <= 1.0 / (2.0 - 1.0) + 0.01
        assert ww.max_slope <= 1.0 / (2.0 - 1.0) + 0.01
        assert max(slopes) == pytest.approx(ww.max_slope, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            wall_witness(2.0, 1.0)
        with pytest.raises(ValueError):
            wall_witness(1.0, 2.0, delta1=0.0)
        with pytest.raises(ValueError):
            wall_witness(1.0, 2.0, delta1=0.9, delta2=0.01)

    def test_flow_advances_u_at_profile_slope(self):
        ww = wall_witness(1.0, 2.0)
        H = ww.hamiltonian()
        s0 = 1.5
        traj = integrate(H, [s0, 0.0], 0.0, 0.1, tol=1e-12)
        y = traj(0.1)
        assert y[0] == pytest.approx(s0, abs=1e-12)
        assert y[1] == pytest.approx(0.1 * ww.slope(s0), abs=1e-10)

    def test_one_separates_floor_from_ceiling(self, witness_run):
        _, _, sep = witness_run.value
        assert sep.delta == pytest.approx(1.0, abs=1e-9)

    def test_no_fast_wall_to_wall_chord(self, witness_run):
        _, search, _ = witness_run.value
        assert not search.found
        assert search.n_seeds == 1001
