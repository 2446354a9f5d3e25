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
from tetralab.phase_core import (PhaseChart, constant_hamiltonian,
                                 poisson_bracket)
from tetralab.scenarios import (add_hamiltonians, channel_potential,
                                mechanical_hamiltonian, unstable_hamiltonian,
                                wall_perturbation)

from conftest import polynomial_hamiltonian

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
    assert_rows_close(H(X, ts), [H(x, t) for x, t in zip(X, ts)])
    assert_rows_close(H.grad(X, ts), [H.grad(x, t) for x, t in zip(X, ts)])
    assert_rows_close(H(X, 0.25), [H(x, 0.25) for x in X])


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
