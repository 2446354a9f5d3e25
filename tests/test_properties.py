"""Randomized property checks (hypothesis-driven)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tetralab.contact import (CircleModel, RoundedRectangleLoop, SphereModel,
                              TorusModel, _interval_excess, _wrap_half,
                              build_tetragon)
from tetralab.dynamics import pattern_search
from tetralab.pb4 import prototype_hamiltonian_pair, wall_witness
from tetralab.profiles import Plateau, PlateauStack
from tetralab.phase_core import PhaseChart, poisson_bracket
from tetralab.scenarios import (add_hamiltonians, channel_potential,
                                mechanical_hamiltonian, unstable_hamiltonian,
                                wall_perturbation)

from conftest import (check_gradient, constant_hamiltonian,
                      polynomial_hamiltonian)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@SETTINGS
@given(st.lists(finite, min_size=4, max_size=4))
def test_wrap_is_idempotent(coords):
    chart = PhaseChart(dim_pairs=2, periodic=(True, False))
    once = chart.wrap(coords)
    assert np.array_equal(chart.wrap(once), once)
    assert 0.0 <= once[2] < 1.0


@SETTINGS
@given(finite)
def test_wrap_half_range_and_shift_invariance(x):
    w = float(_wrap_half(x))
    assert -0.5 <= w < 0.5
    assert float(_wrap_half(x + 1.0)) == pytest_approx(w)


def pytest_approx(v, tol=1e-6):
    # local helper keeping hypothesis bodies assertion-only
    import pytest

    return pytest.approx(v, abs=tol)


@SETTINGS
@given(finite, st.floats(min_value=-10, max_value=10),
       st.floats(min_value=0.0, max_value=10))
def test_interval_excess_is_a_distance(x, lo, width):
    hi = lo + width
    d = _interval_excess(x, lo, hi)
    assert d >= 0.0
    if lo <= x <= hi:
        assert d == 0.0
    else:
        assert d == min(abs(x - lo), abs(x - hi))


@SETTINGS
@given(st.lists(small, min_size=4, max_size=4),
       st.integers(min_value=0, max_value=2 ** 31))
def test_bracket_antisymmetry_and_linearity(x, seed):
    chart = PhaseChart(dim_pairs=2)
    rng = np.random.default_rng(seed)
    F = polynomial_hamiltonian(
        chart, (rng.standard_normal((4, 4)), rng.standard_normal(4))
    )
    G = polynomial_hamiltonian(
        chart, (rng.standard_normal((4, 4)), rng.standard_normal(4))
    )
    H = polynomial_hamiltonian(
        chart, (rng.standard_normal((4, 4)), rng.standard_normal(4))
    )
    x = np.array(x)
    assert poisson_bracket(F, G, x) == -poisson_bracket(G, F, x)
    # linearity in the first slot: {F+H, G} = {F, G} + {H, G}
    FH = type(F)(
        chart=chart,
        value=lambda z, t: F(z, t) + H(z, t),
        gradient=lambda z, t: F.grad(z, t) + H.grad(z, t),
    )
    lhs = poisson_bracket(FH, G, x)
    rhs = poisson_bracket(F, G, x) + poisson_bracket(H, G, x)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@SETTINGS
@given(st.floats(min_value=0.005, max_value=0.12),
       st.floats(min_value=0.0, max_value=1.0))
def test_loop_point_stays_in_rectangle(eps, sigma):
    loop = RoundedRectangleLoop(1.0, 2.0, 0.0, 0.25, eps)
    (s, t), vel = loop.point_and_velocity(sigma)
    assert 1.0 - 1e-9 <= s <= 2.0 + 1e-9
    assert -1e-9 <= t <= 0.25 + 1e-9
    assert np.linalg.norm(vel) > 0.0
    assert loop.area > 0.0


@SETTINGS
@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=-0.9, max_value=0.9))
def test_pattern_search_never_leaves_box(a, b):
    x, fx, _ = pattern_search(
        lambda z: (z[0] - a) ** 2 + (z[1] - b) ** 2,
        [0.0, 0.0], [(-1.0, 1.0), (-1.0, 1.0)], max_evals=300,
    )
    assert -1.0 <= x[0] <= 1.0 and -1.0 <= x[1] <= 1.0
    assert fx <= (a ** 2 + b ** 2) + 1e-12


# ---------------------------------------------------------------------------
# Batch contract: a stack of points gives the row-by-row results
# ---------------------------------------------------------------------------

coord = st.floats(min_value=-2.5, max_value=2.5, allow_nan=False)
seam = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -1e-17, -5e-324,
                        1.0 - 1e-16, -1.0 - 1e-16, 0.5])


def _library():
    F, G = prototype_hamiltonian_pair()
    return {
        "unstable_k1": unstable_hamiltonian(1),
        "unstable_k2": unstable_hamiltonian(2),
        "channel_k1": channel_potential(1),
        "channel_k2": channel_potential(2),
        "mechanical_k1": mechanical_hamiltonian(1),
        "mechanical_k2_timed": mechanical_hamiltonian(2, time_amp=0.3),
        "wall_perturbation": wall_perturbation(0.25),
        "wall_perturbation_static": wall_perturbation(
            0.25, time_periodic=False),
        "perturbed": add_hamiltonians(unstable_hamiltonian(1),
                                      wall_perturbation(0.25)),
        "constant": constant_hamiltonian(PhaseChart(dim_pairs=2), 1.5),
        "wall_witness": wall_witness(1.0, 2.0).hamiltonian(),
        "prototype_F": F,
        "prototype_G": G,
    }


LIBRARY = _library()


def _tetragons():
    return {
        "circle": build_tetragon(CircleModel(), 1.0, 2.0, 0.25),
        "torus2": build_tetragon(TorusModel(2), 1.0, 2.0, 0.25),
        "sphere1": build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4),
        "sphere2": build_tetragon(SphereModel(2), 1.0, 2.0, math.pi / 4),
    }


TETRAGONS = _tetragons()
REGIONS = [(model, name) for model in sorted(TETRAGONS)
           for name in ("floor", "ceiling", "low_wall", "high_wall")]


def assert_rows_close(batch, rows):
    rows = np.asarray(rows, dtype=float)
    assert batch.shape == rows.shape
    assert np.all(np.abs(batch - rows) <= 1e-14 * (1.0 + np.abs(rows)))


def assert_rows_equal(batch, rows):
    rows = np.asarray(rows, dtype=float)
    assert batch.shape == rows.shape
    assert np.array_equal(batch, rows)


def _stack(data, dim):
    m = data.draw(st.integers(min_value=1, max_value=6))
    return data.draw(arrays(float, (m, dim),
                            elements=st.one_of(coord, seam)))


@pytest.mark.parametrize("name", sorted(LIBRARY))
@SETTINGS
@given(data=st.data())
def test_batched_hamiltonian_matches_rows(name, data):
    H = LIBRARY[name]
    X = _stack(data, H.chart.dim)
    ts = data.draw(arrays(float, (len(X),),
                          elements=st.floats(min_value=0.0, max_value=1.0)))
    assert_rows_equal(H(X, ts), [H(x, t) for x, t in zip(X, ts)])
    assert_rows_equal(H.grad(X, ts), [H.grad(x, t) for x, t in zip(X, ts)])
    assert_rows_equal(H(X, 0.25), [H(x, 0.25) for x in X])


@SETTINGS
@given(arrays(float, (6, 4), elements=st.one_of(finite, seam)))
def test_batched_wrap_matches_rows(X):
    chart = PhaseChart(dim_pairs=2, periodic=(True, False))
    W = chart.wrap(X)
    assert np.array_equal(W, np.array([chart.wrap(x) for x in X]))
    assert np.all((W[:, 2] >= 0.0) & (W[:, 2] < 1.0))
    assert np.array_equal(W[:, [0, 1, 3]], X[:, [0, 1, 3]])


def test_wrap_seam_rounds_to_zero():
    chart = PhaseChart(dim_pairs=1, periodic=(True,))
    assert chart.wrap([0.0, -1e-17])[1] == 0.0
    assert np.array_equal(chart.wrap([[0.0, -1e-17], [0.0, 1.0]])[:, 1],
                          [0.0, 0.0])


@pytest.mark.parametrize("model,name", REGIONS)
@SETTINGS
@given(data=st.data())
def test_batched_region_matches_rows(model, name, data):
    region = TETRAGONS[model].regions()[name]
    X = _stack(data, region.chart.dim)
    assert_rows_close(region.distance(X), [region.distance(x) for x in X])
    assert_rows_close(region.event_value(X),
                      [region.event_value(x) for x in X])
    assert np.array_equal(region.membership(X),
                          [region.membership(x) for x in X])


# ---------------------------------------------------------------------------
# Region parametrization: param_point is Phi(x, s, t) = embed(psi_t(x), s)
# ---------------------------------------------------------------------------

def _phi_layout(tet, name, a):
    """(s, t) of a region point whose first parameter is a: the floor and
    ceiling sweep t at s = R0, R1; the walls sweep s at t = T, 0."""
    return {"floor": (tet.R0, a), "ceiling": (tet.R1, a),
            "low_wall": (a, tet.T), "high_wall": (a, 0.0)}[name]


@pytest.mark.parametrize("model,name", REGIONS)
@SETTINGS
@given(data=st.data())
def test_param_point_is_phi_on_chart(model, name, data):
    tet = TETRAGONS[model]
    region = tet.regions()[name]
    params = np.array([data.draw(st.floats(min_value=lo, max_value=hi))
                       for lo, hi in region.param_bounds])
    comp = data.draw(st.integers(0, region.n_components - 1))
    x = region.param_point(params, comp)
    wrapped = region.chart.wrap(x)
    assert np.array_equal(wrapped.view(np.uint64), x.view(np.uint64))
    assert region.distance(x) <= 1e-9
    assert abs(region.event_value(x)) <= 1e-9
    m = tet.model
    s, t = _phi_layout(tet, name, params[0])
    composed = m.embed(m.reeb_flow(m.legendrian_point(params[1:], comp), t),
                       s)
    assert np.all(np.abs(x - region.chart.wrap(composed)) <= 1e-15)


# ---------------------------------------------------------------------------
# Stacked plateau kernel and the wall-perturbation gradient
# ---------------------------------------------------------------------------

plateaus = st.builds(
    lambda lo, width, roll: Plateau(lo=lo, hi=lo + width, roll=roll),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=1e-3, max_value=1.0))


def _plateau_argument(pl):
    """A point at a roll end, or at most 1.5 rolls from one: inside the
    rolls, on the flat top and beyond both ends."""
    ends = st.sampled_from([pl.lo - pl.roll, pl.lo, pl.hi, pl.hi + pl.roll])
    return st.one_of(ends, st.builds(
        lambda e, f: e + f * pl.roll, ends,
        st.floats(min_value=-1.5, max_value=1.5)))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@SETTINGS
@given(data=st.data())
def test_plateau_stack_is_bitwise_plateau(data):
    pls = data.draw(st.lists(plateaus, min_size=1, max_size=4))
    n = data.draw(st.integers(min_value=1, max_value=5))
    Y = np.array([[data.draw(_plateau_argument(pl)) for _ in range(n)]
                  for pl in pls])
    stack = PlateauStack(pls)
    value, slope = stack.values_and_slopes(Y)
    column_value, column_slope = stack.values_and_slopes(Y[:, 0])
    for i, pl in enumerate(pls):
        assert np.array_equal(_bits(value[i]), _bits(pl.value(Y[i])))
        assert np.array_equal(_bits(slope[i]), _bits(pl.deriv(Y[i])))
        y = float(Y[i, 0])
        assert _bits(column_value[i]) == _bits(pl.value(y))
        assert _bits(column_slope[i]) == _bits(pl.deriv(y))


PERTURBATIONS = [wall_perturbation(0.25),
                 wall_perturbation(0.25, time_periodic=False)]
# inside the near-wall tube |q| < 0.15 or the anti-diagonal band
# |p + q| < 0.2, the two narrow bumps every gradient term carries
near_wall = st.builds(
    lambda p, q: np.array([p, q]),
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-0.1499, max_value=0.1499))
near_anti = st.builds(
    lambda p, s: np.array([p, s - p]),
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-0.1999, max_value=0.1999))
in_bump = st.one_of(near_wall, near_anti)
# off both, with a margin for the rounding of p = (p + q) - q
off_bumps = st.builds(
    lambda q, s: np.array([s - q, q]),
    st.one_of(st.floats(min_value=0.1501, max_value=2.5),
              st.floats(min_value=-2.5, max_value=-0.1501)),
    st.one_of(st.floats(min_value=0.2001, max_value=4.0),
              st.floats(min_value=-4.0, max_value=-0.2001)))
phase = st.floats(min_value=0.0, max_value=1.0)


@pytest.mark.parametrize("F", PERTURBATIONS, ids=["periodic", "static"])
@SETTINGS
@given(data=st.data())
def test_perturbation_gradient_batch_equals_points(F, data):
    X = np.array(data.draw(st.lists(in_bump, min_size=1, max_size=6)))
    ts = np.array([data.draw(phase) for _ in X])
    assert_rows_equal(F.grad(X, ts), [F.grad(x, t) for x, t in zip(X, ts)])


@pytest.mark.parametrize("F", PERTURBATIONS, ids=["periodic", "static"])
@SETTINGS
@given(data=st.data())
def test_perturbation_gradient_zero_off_bumps(F, data):
    X = np.array(data.draw(st.lists(off_bumps, min_size=1, max_size=6)))
    t = data.draw(phase)
    assert not np.any(F.grad(X, t))
    assert all(not np.any(F.grad(x, t)) for x in X)


@pytest.mark.parametrize("F", PERTURBATIONS, ids=["periodic", "static"])
@SETTINGS
@given(x=in_bump, t=phase)
def test_perturbation_gradient_matches_central_differences(F, x, t):
    check_gradient(F, [x], t=t)
