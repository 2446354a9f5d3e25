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
from tetralab.phase_core import (EvaluationError, HamiltonianSpec,
                                 PhaseChart, poisson_bracket)
from tetralab.scenarios import (add_hamiltonians, channel_potential,
                                mechanical_hamiltonian, unstable_hamiltonian,
                                wall_perturbation)

from conftest import (check_gradient, constant_hamiltonian,
                      four_plateau_gradient, polynomial_hamiltonian)

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


# ---------------------------------------------------------------------------
# Term-wise perturbation gradient against the four-plateau reference
# ---------------------------------------------------------------------------

REFERENCES = [four_plateau_gradient(0.25),
              four_plateau_gradient(0.25, time_periodic=False)]
# the perturbation's two narrow bumps, built as wall_perturbation builds
# them: near-wall tube in q*q, anti-diagonal band in w2 = (p + q)^2 / 2
NEARQ = Plateau(lo=0.0, hi=(0.15 / 3.0) ** 2,
                roll=0.15 ** 2 - (0.15 / 3.0) ** 2)
NEAR_ANTI = Plateau(lo=0.0, hi=0.005, roll=0.015)


def _falling(bump, y):
    return (y - bump.hi) / bump.roll


def _straddle(arg, x):
    """The two inputs one ulp apart where the increasing ``arg`` crosses
    1: the last with arg < 1 and the first with arg >= 1."""
    while arg(x) >= 1.0:
        x = np.nextafter(x, -np.inf)
    while arg(x) < 1.0:
        x = np.nextafter(x, np.inf)
    return np.nextafter(x, -np.inf), x


# seam rows: q on the tube's seam, where (q*q - hi)/roll is exactly 1
# (q = 0.15) or just below it; (p, Q_BAND) on the band's seam, with
# Q_BAND off the tube and rho inside the far ring
Q_BELOW, Q_ONE = _straddle(lambda q: _falling(NEARQ, q * q), 0.15)
Q_BAND = 0.96875
P_BELOW, P_ABOVE = _straddle(
    lambda p: _falling(NEAR_ANTI, 0.5 * ((p + Q_BAND) * (p + Q_BAND))),
    0.2 - Q_BAND)

tube_q = st.floats(min_value=-0.1499, max_value=0.1499)
band_s = st.floats(min_value=-0.1999, max_value=0.1999)
off_q = st.one_of(st.floats(min_value=0.1501, max_value=2.5),
                  st.floats(min_value=-2.5, max_value=-0.1501))
off_s = st.one_of(st.floats(min_value=0.2001, max_value=4.0),
                  st.floats(min_value=-4.0, max_value=-0.2001))


def _rows(qs, ss):
    return st.builds(lambda q, s: np.array([s - q, q]), qs, ss)


sign = st.sampled_from([1.0, -1.0])
tube_seam = st.builds(
    lambda p, q, a, b: np.array([a * p, b * q]),
    st.floats(min_value=0.9, max_value=1.4), st.sampled_from([Q_BELOW, Q_ONE]),
    sign, sign)
band_seam = st.builds(lambda p, a: a * np.array([p, Q_BAND]),
                      st.sampled_from([P_BELOW, P_ABOVE]), sign)
any_row = st.one_of(_rows(tube_q, off_s), _rows(off_q, band_s),
                    _rows(tube_q, band_s), _rows(off_q, off_s),
                    tube_seam, band_seam)


def test_seam_rows_straddle_the_falling_edge():
    """The seam rows sit where the tests skipping a term decide, and a
    row just below the edge has a gradient that a term skipped there
    would lose."""
    assert Q_ONE == 0.15 and _falling(NEARQ, Q_ONE * Q_ONE) == 1.0
    assert _falling(NEARQ, Q_BELOW * Q_BELOW) < 1.0
    s_below, s_above = P_BELOW + Q_BAND, P_ABOVE + Q_BAND
    assert _falling(NEAR_ANTI, 0.5 * (s_below * s_below)) < 1.0 \
        <= _falling(NEAR_ANTI, 0.5 * (s_above * s_above))
    for reference in REFERENCES:
        for x in ([1.2, Q_BELOW], [P_BELOW, Q_BAND]):
            assert np.any(reference(np.array(x), 0.3))
        for x in ([1.2, Q_ONE], [P_ABOVE, Q_BAND]):
            assert not np.any(reference(np.array(x), 0.3))


@pytest.mark.parametrize("F, reference", zip(PERTURBATIONS, REFERENCES),
                         ids=["periodic", "static"])
@SETTINGS
@given(data=st.data())
def test_termwise_gradient_equals_four_plateau_reference(F, reference,
                                                          data):
    """Batches mixing tube-only, band-only, both, neither and seam rows
    give the reference's values, as a batch and row by row."""
    X = np.array(data.draw(st.lists(any_row, min_size=1, max_size=8)))
    ts = np.array([data.draw(phase) for _ in X])
    assert np.array_equal(F.grad(X, ts), reference(X, ts))
    for x, t in zip(X, ts):
        assert np.array_equal(F.grad(x, t), reference(x, t))


# ---------------------------------------------------------------------------
# RHS contract: inputs untouched, results owned, one finiteness check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(LIBRARY))
@SETTINGS
@given(data=st.data())
def test_evaluation_leaves_its_input_unchanged(name, data):
    H = LIBRARY[name]
    X = _stack(data, H.chart.dim)
    ts = data.draw(arrays(float, (len(X),),
                          elements=st.floats(min_value=0.0, max_value=1.0)))
    before = X.tobytes()
    H(X, ts)
    H.grad(X, ts)
    for x, t in zip(X, ts):
        H(x, t)
        H.grad(x, t)
    assert X.tobytes() == before


def test_results_do_not_alias_the_callers_array():
    """On a flat chart the callbacks see the caller's array; a callback
    returning it (or a view of it) still gives the caller a result of
    its own."""
    H = HamiltonianSpec(chart=PhaseChart(dim_pairs=1),
                        value=lambda x, t: x[..., 0],
                        gradient=lambda x, t: x)
    for x in (np.array([0.5, -1.5]), np.array([[0.5, -1.5], [2.0, 3.0]])):
        before = x.copy()
        H.grad(x)[...] = 7.0
        assert np.array_equal(x, before)
    X = np.array([[0.5, -1.5], [2.0, 3.0]])
    H(X)[...] = 7.0
    assert np.array_equal(X, [[0.5, -1.5], [2.0, 3.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("periodic", [False, True], ids=["flat", "periodic"])
def test_nonfinite_row_is_named(bad, periodic):
    chart = PhaseChart(dim_pairs=1, periodic=(periodic,))
    H = HamiltonianSpec(chart=chart, value=lambda x, t: x.sum(axis=-1),
                        gradient=lambda x, t: 2.0 * x, name="probe")
    X = np.array([[i + 0.5, 0.125 * i] for i in range(5)])
    X[3, 0] = bad
    for call, what in ((H.grad, "gradient"), (H, "value")):
        for arg in (X, X[3]):
            with pytest.raises(EvaluationError,
                               match=f"non-finite {what} of probe") as err:
                call(arg)
            assert np.array_equal(err.value.point, X[3], equal_nan=True)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_sum_of_finite_values_is_no_error():
    """The one-reduction check may overflow on finite values; the row
    check behind it then finds nothing to report."""
    H = HamiltonianSpec(chart=PhaseChart(dim_pairs=1),
                        value=lambda x, t: 1e308 * np.ones(np.shape(x)[:-1]),
                        gradient=lambda x, t: 1e308 * np.ones(np.shape(x)))
    X = np.zeros((3, 2))
    assert np.all(H.grad(X) == 1e308)
    assert np.all(H(X) == 1e308)
