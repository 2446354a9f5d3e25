"""Contact models, Reeb flows, tetragon regions and smoothing."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tetralab.contact import (CircleModel, ParameterError,
                              RoundedRectangleLoop, SphereModel, TorusModel,
                              build_tetragon, make_model, smooth_tetragon,
                              unit_sphere_point, unit_sphere_tangent)
from tetralab.phase_core import omega_matrix

from conftest import surface_point

ALL_MODELS = [CircleModel(), TorusModel(2), SphereModel(1), SphereModel(2)]


def model_id(m):
    return f"{m.kind}{m.k}"


def tetragon_samples(model, n=20):
    """Seeded (s, t, angles, component) over L x [1, 2] x [0, T]."""
    rng = np.random.default_rng(5)
    T = math.pi / 4 if model.kind == "sphere" else 0.25
    for _ in range(n):
        yield (float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, T)),
               [float(rng.uniform(lo, hi)) for lo, hi in model.angle_bounds],
               int(rng.integers(model.n_components)))


class TestSphereParametrization:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unit_norm(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            ang = rng.uniform(0.0, math.pi, k - 1)
            x = unit_sphere_point(ang, k)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_k2_covers_circle(self):
        x = unit_sphere_point([math.pi / 3], 2)
        assert np.allclose(x, [0.5, math.sqrt(3) / 2])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tangent_matches_finite_differences(self, k):
        rng = np.random.default_rng(10 + k)
        h = 1e-6
        for _ in range(10):
            ang = rng.uniform(0.1, math.pi - 0.1, k - 1)
            for j in range(k - 1):
                ap, am = ang.copy(), ang.copy()
                ap[j] += h
                am[j] -= h
                fd = (unit_sphere_point(ap, k)
                      - unit_sphere_point(am, k)) / (2 * h)
                an = unit_sphere_tangent(ang, k, j)
                assert np.allclose(an, fd, atol=1e-8)

    def test_k1_special_case(self):
        assert np.array_equal(unit_sphere_point([], 1), [1.0])
        assert np.array_equal(unit_sphere_tangent([], 1, 0), [0.0])


class TestReebFlows:
    def test_sphere_quarter_turn(self):
        m = SphereModel(1)
        z = m.reeb_flow(np.array([1.0, 0.0]), math.pi / 4)
        assert np.allclose(z, [0.0, 1.0], atol=1e-12)

    def test_circle_translation(self):
        m = CircleModel()
        assert m.reeb_flow([0.9], 0.3)[0] == pytest.approx(0.2)

    def test_torus_geodesic(self):
        m = TorusModel(2)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = m.reeb_flow(x, 0.3)
        assert np.allclose(y, [1.0, 0.0, 0.3, 0.0])

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_group_law(self, model):
        rng = np.random.default_rng(7)
        for _ in range(5):
            if model.kind == "sphere":
                x = rng.standard_normal(2 * model.k)
                x /= np.linalg.norm(x)
            elif model.kind == "torus":
                p = rng.standard_normal(model.k)
                x = np.concatenate([p / np.linalg.norm(p),
                                    rng.uniform(0, 1, model.k)])
            else:
                x = rng.uniform(0, 1, 1)
            s, t = float(rng.uniform(0, 0.2)), float(rng.uniform(0, 0.2))
            a = model.reeb_flow(model.reeb_flow(x, s), t)
            b = model.reeb_flow(x, s + t)
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_flow_preserves_constraint(self, model):
        """The Reeb flow stays on Sigma: |p| = 1 on the torus, |z| = 1
        on the sphere; the circle's Sigma is all of its chart."""
        x = model.legendrian_point([0.3] * model.n_angles)
        y = model.reeb_flow(x, 0.17)
        sigma = {"torus": y[:model.k], "sphere": y}.get(model.kind)
        if sigma is not None:
            assert abs(np.linalg.norm(sigma) - 1.0) <= 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_contact_form_normalizations(self, model):
        """omega = d(s lambda0) on the symplectization, so lambda0(Reeb)
        = 1 reads omega(d/ds Phi, d/dt Phi) = 1, the area density behind
        kappa = (R1 - R0) T, and lambda0 = 0 on L reads omega(d/da Phi,
        d/ds Phi) = omega(d/da Phi, d/dt Phi) = 0 along each angle a."""
        omega = omega_matrix(model.chart.dim_pairs)
        for s, t, angles, comp in tetragon_samples(model):
            *d_angles, d_s, d_t = model.phi_tangents(s, t, angles, comp)
            assert d_s @ omega @ d_t == pytest.approx(1.0, abs=1e-14)
            for d_a in d_angles:
                assert abs(d_a @ omega @ d_s) <= 1e-14
                assert abs(d_a @ omega @ d_t) <= 1e-14

    @pytest.mark.parametrize("model", ALL_MODELS + [TorusModel(3)],
                             ids=model_id)
    def test_phi_tangents_match_differences(self, model):
        """Each closed-form tangent is the central difference of phi in
        (angles..., s, t), periodic coordinates compared mod 1."""
        h, k = 1e-6, model.chart.dim_pairs
        for s, t, angles, comp in tetragon_samples(model):
            args = np.array([*angles, s, t])
            for i, d in enumerate(model.phi_tangents(s, t, angles, comp)):
                lo, hi = args.copy(), args.copy()
                lo[i] -= h
                hi[i] += h
                diff = model.phi(hi[-2], hi[-1], hi[:-2], comp) \
                    - model.phi(lo[-2], lo[-1], lo[:-2], comp)
                for j, periodic in enumerate(model.chart.periodic):
                    if periodic:
                        diff[k + j] -= round(diff[k + j])
                assert np.allclose(diff / (2 * h), d, rtol=0, atol=1e-8)


# wall_distance works on wrapped coordinates, whose round-off (about
# 1e-16) lies far below this.  Reeb times are drawn at least this far from
# 0 and from the circle's first return t = 1 (its strict bound), so a wall
# distance above a tenth of it tells a miss from round-off.
RESOLVED = 1e-12

C2_MODELS = [CircleModel(), TorusModel(2), TorusModel(3), SphereModel(1),
             SphereModel(2)]


@st.composite
def reeb_times(draw):
    """A model, a Reeb time T within its (C2) bound and t in (0, T]."""
    model = draw(st.sampled_from(C2_MODELS))
    top = model.max_reeb_time
    if not model.max_reeb_time_inclusive:
        top -= RESOLVED
    T = draw(st.floats(RESOLVED, top))
    return model, T, draw(st.floats(RESOLVED, T))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=reeb_times(), s=st.floats(1.0, 2.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       comp=st.integers(0, 1))
# each model's first return, where psi_t(L) meets L again: past every
# bound, so check_reeb_time must reject them
@example(case=(CircleModel(), 1.0, 1.0), s=1.5, fracs=[0.0, 0.0], comp=0)
@example(case=(TorusModel(2), 1.0, 1.0), s=1.5, fracs=[0.0, 0.0], comp=0)
@example(case=(TorusModel(3), 1.0, 1.0), s=1.5, fracs=[0.0, 0.0], comp=0)
@example(case=(SphereModel(1), math.pi / 2, math.pi / 2), s=1.5,
         fracs=[0.0, 0.0], comp=0)
@example(case=(SphereModel(2), math.pi / 2, math.pi / 2), s=1.5,
         fracs=[0.3, 0.0], comp=0)
def test_reeb_time_bound_gives_c2(case, s, fracs, comp):
    """Every T that check_reeb_time accepts satisfies (C2): for t in
    (0, T] the wall at Reeb time t misses the wall at time 0, so
    psi_t(L) misses L."""
    model, T, t = case
    try:
        model.check_reeb_time(T)
    except ParameterError:
        assume(False)
    angles = [lo + f * (hi - lo)
              for (lo, hi), f in zip(model.angle_bounds, fracs)]
    c = model.phi(s, t, angles, comp % model.n_components)
    assert model.wall_distance(c, 0.0, 1.0, 2.0) > RESOLVED / 10


class TestMakeModel:
    def test_kinds(self):
        assert make_model("circle").kind == "circle"
        assert make_model("torus", 2).k == 2
        assert make_model("sphere", 2).kind == "sphere"

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_model("klein")

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_circle_has_k1(self, k):
        with pytest.raises(ParameterError, match="k = 1"):
            make_model("circle", k)

    def test_default_reeb_time_satisfies_c2(self):
        for model in ALL_MODELS:
            model.check_reeb_time(model.default_reeb_time)

    def test_nan_reeb_time_rejected(self):
        for model in ALL_MODELS:
            with pytest.raises(ParameterError, match="Reeb time T=nan"):
                model.check_reeb_time(math.nan)

    def test_torus_needs_k2(self):
        with pytest.raises(ParameterError):
            TorusModel(1)

    def test_sphere_k1_two_components(self):
        m = SphereModel(1)
        assert m.n_components == 2
        assert np.allclose(m.legendrian_point((), 0), [1.0, 0.0])
        assert np.allclose(m.legendrian_point((), 1), [-1.0, 0.0])


class TestTetragonConstruction:
    def test_radii_ordering(self):
        with pytest.raises(ParameterError):
            build_tetragon(CircleModel(), 2.0, 1.0, 0.25)
        with pytest.raises(ParameterError):
            build_tetragon(CircleModel(), 0.0, 1.0, 0.25)

    def test_reeb_time_bounds(self):
        with pytest.raises(ParameterError):
            build_tetragon(CircleModel(), 1.0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            build_tetragon(TorusModel(2), 1.0, 2.0, 0.5)
        with pytest.raises(ParameterError):
            build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4 + 1e-6)
        # the sphere bound is inclusive
        build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        # (C2) holds for every T inside the bound, however close to it
        for model in ALL_MODELS:
            build_tetragon(model, 1.0, 2.0, 1e-12)
        build_tetragon(CircleModel(), 1.0, 2.0, 1.0 - 1e-12)

    def test_kappa(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        assert tet.kappa == pytest.approx(0.25)
        assert tet.describe()["kappa"] == pytest.approx(0.25)

    def test_region_names(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, 0.25)
        assert set(tet.regions()) == {"floor", "ceiling", "low_wall",
                                      "high_wall"}

    def test_sphere_wall_membership_examples(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        # high wall is {(p, 0): 1 <= |p| <= sqrt(2)}
        assert tet.high_wall.membership([1.2, 0.0])
        assert tet.high_wall.membership([-1.3, 0.0])
        assert not tet.high_wall.membership([1.2, 0.3])
        # low wall is the quarter-turn image {(0, q)}
        assert tet.low_wall.membership([0.0, 1.2])
        assert not tet.low_wall.membership([1.2, 0.0])

    def test_circle_regions_are_rectangle_sides(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        assert tet.floor.membership([1.0, 0.1])
        assert tet.ceiling.membership([2.0, 0.25])
        assert tet.high_wall.membership([1.5, 0.0])
        assert tet.low_wall.membership([1.5, 0.25])
        assert not tet.floor.membership([1.0, 0.5])

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_samples_are_members(self, model):
        T = 0.25 if model.kind != "sphere" else math.pi / 4
        tet = build_tetragon(model, 1.0, 2.0, T)
        for region in tet.regions().values():
            for x in region.sample_points(24):
                assert region.distance(x) <= 1e-6, (
                    f"{model.kind} {region.name}: {region.distance(x)}"
                )
                assert abs(region.event_value(x)) <= 1e-9

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_distance_positive_off_region(self, model):
        T = 0.25 if model.kind != "sphere" else math.pi / 4
        tet = build_tetragon(model, 1.0, 2.0, T)
        x = tet.floor.param_point([0.0] + [0.3] * model.n_angles)
        assert tet.ceiling.distance(x) > 0.3

    def test_sphere_floor_distance_brute_force(self):
        """Closed-form arc distance against a dense parameter sweep."""
        T = math.pi / 4
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, T)
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, T, 4001)
        pts = np.array(
            [tet.floor.param_point([t], c) for c in (0, 1) for t in ts]
        )
        for _ in range(40):
            z = rng.uniform(-2.0, 2.0, 2)
            brute = np.min(np.linalg.norm(pts - z, axis=1))
            assert tet.floor.distance(z) == pytest.approx(brute, abs=5e-4)

    def test_sphere_wall_distance_brute_force(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        rng = np.random.default_rng(12)
        ss = np.linspace(1.0, 2.0, 4001)
        pts = np.array(
            [tet.low_wall.param_point([s], c) for c in (0, 1) for s in ss]
        )
        for _ in range(40):
            z = rng.uniform(-2.0, 2.0, 2)
            brute = np.min(np.linalg.norm(pts - z, axis=1))
            assert tet.low_wall.distance(z) == pytest.approx(brute,
                                                             abs=5e-4)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_floor_flows_to_low_wall_foot(self, model):
        """Flowing a floor point by the remaining Reeb time lands on the
        low wall's inner edge."""
        T = 0.2 if model.kind != "sphere" else math.pi / 5
        tet = build_tetragon(model, 1.0, 2.0, T)
        t = 0.3 * T
        x = model.reeb_flow(model.legendrian_point(
            [0.5] * model.n_angles), t)
        y = model.embed(model.reeb_flow(x, T - t), tet.R0)
        assert tet.low_wall.distance(y) <= 1e-9

    def test_event_sign_change_across_ceiling(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, 0.25)
        assert tet.ceiling.event_value([1.0, 0.0]) < 0.0
        assert tet.ceiling.event_value([1.6, 0.0]) > 0.0


class TestSmoothing:
    def test_eps_range(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        with pytest.raises(ParameterError):
            smooth_tetragon(tet, 0.2)  # >= min(R1-R0, T)/2
        with pytest.raises(ParameterError):
            smooth_tetragon(tet, 0.0)

    def test_area_formula(self):
        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        sm = smooth_tetragon(tet, 0.05)
        assert sm.area == pytest.approx(
            1.0 * 0.25 - (4 - math.pi) * 0.05 ** 2
        )

    def test_loop_velocity_has_constant_speed(self):
        loop = RoundedRectangleLoop(1.0, 2.0, 0.0, 0.25, 0.05)
        total = sum(loop._segments())
        for sigma in np.linspace(0.0, 1.0, 197):
            _, vel = loop.point_and_velocity(sigma)
            assert np.linalg.norm(vel) == pytest.approx(total, rel=1e-9)

    def test_loop_is_closed_and_continuous(self):
        loop = RoundedRectangleLoop(1.0, 2.0, 0.0, 0.25, 0.05)
        for sigma in np.linspace(0.0, 1.0, 50):
            a, _ = loop.point_and_velocity(sigma)
            b, _ = loop.point_and_velocity(sigma + 1e-9)
            assert np.linalg.norm(a - b) <= 1e-6
        a, _ = loop.point_and_velocity(0.0)
        b, _ = loop.point_and_velocity(1.0 - 1e-12)
        assert np.linalg.norm(a - b) <= 1e-6

    def test_loop_stays_inside_rectangle(self):
        loop = RoundedRectangleLoop(1.0, 2.0, 0.0, 0.25, 0.05)
        for sigma in np.linspace(0.0, 1.0, 500):
            (s, t), _ = loop.point_and_velocity(sigma)
            assert 1.0 - 1e-12 <= s <= 2.0 + 1e-12
            assert -1e-12 <= t <= 0.25 + 1e-12

    def test_enclosed_area_by_line_integral(self):
        """The loop's area matches the integral of s du around it."""
        loop = RoundedRectangleLoop(1.0, 2.0, 0.0, 0.25, 0.05)
        sigmas = np.linspace(0.0, 1.0, 50001)
        vals = np.empty_like(sigmas)
        for i, sigma in enumerate(sigmas):
            (s, _), (_, du) = loop.point_and_velocity(sigma)
            vals[i] = s * du
        integral = np.trapezoid(vals, sigmas)
        assert integral == pytest.approx(loop.area, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
    def test_lagrangian_residual(self, model):
        T = 0.25 if model.kind != "sphere" else math.pi / 4
        tet = build_tetragon(model, 1.0, 2.0, T)
        sm = smooth_tetragon(tet, 0.05)
        assert sm.lagrangian_residual(300) <= 1e-8

    def test_surface_point_starts_on_high_wall(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        sm = smooth_tetragon(tet, 0.05)
        # sigma = 0 is the start of the bottom edge (Reeb time 0)
        z = surface_point(sm, [], 0, 0.0)
        assert tet.high_wall.distance(z) <= 1e-9
