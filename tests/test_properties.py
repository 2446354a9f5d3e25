"""Randomized property checks (hypothesis-driven)."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tetralab.contact import (CircleModel, RoundedRectangleLoop, SphereModel,
                              TorusModel, _interval_excess, _wrap_half,
                              build_tetragon)
from tetralab import dynamics, phase_core
from tetralab.dop853 import B, D, E3, E5
from tetralab.dynamics import pattern_search
from tetralab.pb4 import prototype_hamiltonian_pair, wall_witness
from tetralab.profiles import Plateau, PlateauStack
from tetralab.phase_core import (EvaluationError, HamiltonianSpec,
                                 PhaseChart, poisson_bracket, sgrad)
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
    x, fx, _, _ = pattern_search(
        lambda z: (z[0] - a) ** 2 + (z[1] - b) ** 2,
        [0.0, 0.0], [(-1.0, 1.0), (-1.0, 1.0)], max_evals=300,
    )
    assert -1.0 <= x[0] <= 1.0 and -1.0 <= x[1] <= 1.0
    assert fx <= (a ** 2 + b ** 2) + 1e-12


@SETTINGS
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 31))
def test_pattern_search_settles_on_convex_quadratics(dim, seed):
    """On c + (z - a)^T H (z - a) with its minimum a inside a box, H
    rotated with eigenvalues in [0.5, 2], the search settles within 4
    FLAT_ULPS ulps of c from any start in the box, and probes only
    inside the box (the search step's parabola vertices too)."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    H = rot @ np.diag(rng.uniform(0.5, 2.0, dim)) @ rot.T
    lo = rng.uniform(-2.0, 0.0, dim)
    hi = lo + rng.uniform(0.5, 2.0, dim)
    a = lo + rng.uniform(0.05, 0.95, dim) * (hi - lo)
    c = rng.uniform(0.1, 1.0)
    probes = []

    def f(z):
        probes.append(z.copy())
        r = z - a
        return c + float(r @ H @ r)

    _, fx, _, converged = pattern_search(
        f, lo + rng.uniform(0.0, 1.0, dim) * (hi - lo), list(zip(lo, hi)),
        max_evals=10_000)
    assert converged
    assert c <= fx <= c + 4 * dynamics.FLAT_ULPS * np.finfo(float).eps * c
    probes = np.array(probes)
    assert ((lo <= probes) & (probes <= hi)).all()


@pytest.mark.parametrize("rank, evals", [(1, 127), (0, 119)])
def test_misses_take_no_search_step(rank, evals):
    """A miss's distance is kinked, so ``(1, value)`` ranks never take the
    parabola-vertex search step: on a smooth bowl ranked as misses the
    search makes the 127 evaluations it made before the step existed,
    where the same bowl ranked as hits takes the step and 119."""
    def bowl(z):
        return rank, 0.5 + (z[0] - 0.3) ** 2 + 2.0 * (z[1] + 0.2) ** 2

    _, fx, n, converged = pattern_search(bowl, [0.9, 0.4], [(-1.0, 1.0)] * 2)
    assert (fx, n, converged) == ((rank, 0.5), evals, True)


# ---------------------------------------------------------------------------
# Batch contract: a stack of points gives the row-by-row results
# ---------------------------------------------------------------------------

coord = st.floats(min_value=-2.5, max_value=2.5, allow_nan=False)
seam = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -1e-17, -5e-324,
                        1.0 - 1e-16, -1.0 - 1e-16, 0.5])

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


def assert_rows_equal(batch, rows):
    rows = np.asarray(rows, dtype=float)
    assert batch.shape == rows.shape
    assert np.array_equal(batch, rows)


def _stack(data, dim):
    m = data.draw(st.integers(min_value=1, max_value=6))
    return data.draw(arrays(float, (m, dim),
                            elements=st.one_of(coord, seam)))


# stacks of up to six 16-vectors and six times, cut to a spec's dimension
stacks = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: arrays(float, (m, 16), elements=st.one_of(coord, seam)))
# dimension 8 and up, where numpy adds a row pairwise (``row_sum``)
WIDE = {"mechanical_k8": mechanical_hamiltonian(8),
        "unstable_k4": unstable_hamiltonian(4)}


def _shell_rows():
    """Six rows whose last 8 coordinates have |q|^2 on the mechanical
    shell's rolls (0.8 or 2.2), where its gradient reads the sum of the
    8 squares."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, (6, 16))
    q = X[:, 8:]
    q *= np.sqrt(rng.choice([0.8, 2.2], 6) / (q * q).sum(axis=-1))[:, None]
    return X
times = arrays(float, (6,), elements=st.floats(min_value=0.0, max_value=1.0))


@pytest.mark.parametrize("name", sorted(LIBRARY) + ["mechanical_k8"])
@SETTINGS
@given(X=stacks, ts=times)
@example(X=np.tile([[0.0, -1e-17, -1e-17, -1e-17]], 4), ts=np.full(6, 0.3))
@example(X=np.tile([[1.2, Q_BELOW, 1.2, Q_BELOW],
                    [1.2, Q_ONE, 1.2, Q_ONE],
                    [P_BELOW, Q_BAND, P_BELOW, Q_BAND],
                    [P_ABOVE, Q_BAND, P_ABOVE, Q_BAND]], 4),
         ts=np.full(6, 0.3))
@example(X=_shell_rows(), ts=np.full(6, 0.3))
def test_batched_hamiltonian_matches_rows(name, X, ts):
    """A stack gives the rows' results.  The one-point ``sgrad`` takes
    the float path of a spec with ``point_gradient`` (``constant`` has
    none), so the batch checks that path row by row; the examples are
    the wrap seam, the perturbation's tube and band seams, and the
    mechanical k=8 shell's rolls, where a row adds 8 squares pairwise."""
    H = {**LIBRARY, **WIDE}[name]
    X, ts = X[:, :H.chart.dim], ts[:len(X)]
    assert_rows_equal(H(X, ts), [H(x, t) for x, t in zip(X, ts)])
    assert_rows_equal(H.grad(X, ts), [H.grad(x, t) for x, t in zip(X, ts)])
    assert_rows_equal(H(X, 0.25), [H(x, 0.25) for x in X])
    assert_rows_equal(sgrad(H, X, ts), [sgrad(H, x, t) for x, t in zip(X, ts)])


def assert_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", sorted(LIBRARY) + ["unstable_k4"])
@SETTINGS
@given(data=st.data())
def test_point_stepper_rounds_as_a_row(name, data):
    """``integrate``'s one-point DOP853 helpers, on lists of floats, give
    the results of a one-row ensemble bit for bit: the norm, the initial
    step, a trial's state, slope and error norm, the step factor and the
    dense coefficients.  So a sweep member and its ``integrate`` run take
    the same steps, on the dimension-8 chart of ``unstable_k4`` too,
    whose norms numpy adds pairwise."""
    H = {**LIBRARY, **WIDE}[name]
    y = data.draw(arrays(float, (H.chart.dim,), elements=coord))
    t, fresh = data.draw(st.floats(0.0, 1.0)), data.draw(st.booleans())
    h = data.draw(st.floats(1e-6, 0.5))
    rtol, atol = 1e-9, 1e-11
    ts, hs, row = np.array([t]), np.array([h]), y[None]

    def rhs(t, x):
        return sgrad(H, x, t)

    f, f_row = rhs(t, y.tolist()), rhs(ts, row)
    assert_bits([dynamics._point_norm(y.tolist())],
                np.linalg.norm(row, axis=-1))
    assert_bits([dynamics._point_initial_step(rhs, t, y.tolist(), f, t + 1,
                                              rtol, atol)],
                dynamics._initial_step(rhs, ts, row, f_row, ts + 1, rtol,
                                       atol))
    K, K_row = [None] * 16, np.empty((16, 1, H.chart.dim))
    point = dynamics._point_trial(rhs, t, y.tolist(), f, h, K, rtol, atol)
    rows = dynamics._trial(rhs, ts, row, f_row, hs, K_row[:13], rtol, atol)
    for a, b in zip(point, rows):
        assert_bits(a, np.asarray(b)[0])
    assert_bits([dynamics._point_step_factor(point[2], fresh)],
                dynamics._step_factor(rows[2], np.array([fresh])))
    assert_bits(dynamics._point_dense_coeffs(rhs, t, h, y.tolist(), point[0],
                                             K),
                dynamics._dense_coeffs(rhs, ts, hs, row, rows[0],
                                       K_row)[:, :, 0])


signed = st.one_of(st.sampled_from([0.0, -0.0]), coord)
# weights and stages of 1 to 13 stages, one point of dimension 2 to 6
stage_terms = st.integers(1, 13).flatmap(lambda s: st.tuples(
    arrays(float, (s,), elements=signed),
    st.integers(2, 6).flatmap(
        lambda dim: arrays(float, (s, dim), elements=signed))))


@SETTINGS
@given(terms=stage_terms)
@example(terms=(np.array([0.5, 0.25]), np.array([[-0.0, 1.0], [-0.0, 2.0]])))
def test_point_sum_is_stage_sum_with_signed_zeros(terms):
    """One point's stage sum is its row's bit for bit, the sign of zero
    included: both add onto 0.0, so -0.0 terms sum to 0.0, and the point
    skips the zero weights the row adds."""
    c, K = terms
    assert_bits(dynamics._point_sum(dynamics._nonzero(c), K.tolist()),
                dynamics._stage_sum(c, K[:, None])[0])


# finite stage values: signed zeros, subnormals, and magnitudes up to
# 1e300, which no tableau weight (at most 527) takes past the float range
stage_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
    st.floats(-1e300, 1e300))


def _full_sum(c, K):
    """sum_j c[j] * K[j] over every weight, zeros included, from +0.0 in
    stage order: the sum the zero-weight skip must reproduce."""
    acc = np.zeros(K.shape[1:])
    for cj, kj in zip(c, K):
        acc = acc + cj * kj
    return acc


def _tableau_sums():
    """(full weights, the nonzero pairs one point sums) of every stage
    sum of a DOP853 step and its dense output: the stages after the
    first, the extra stages, then B, E5, E3 and the rows of D."""
    rows = ([a for a, _, _ in dynamics._STAGES + dynamics._EXTRA]
            + [B, E5, E3, *D])
    points = ([w for _, w, _ in dynamics._STAGES + dynamics._EXTRA]
              + [dynamics._B, dynamics._E5, dynamics._E3, *dynamics._D])
    return list(zip(rows, points))


@SETTINGS
@given(data=st.data())
def test_stage_sums_skip_zero_weights_exactly(data):
    """Every stage sum that skips the tableau's zero weights (one point's,
    and the rows' error estimates, without the end slope) equals the sum
    over all weights from +0.0 bit for bit, on finite stages with signed
    zeros and subnormals; so does the rows' sum over all weights.  Each
    stack is also checked with a first column whose every term is -0.0,
    where a sum that started at its first term would keep -0.0."""
    m, dim = data.draw(st.integers(1, 3)), data.draw(st.sampled_from([2, 4]))
    K = data.draw(arrays(float, (16, m, dim), elements=stage_value))
    for i, (c, w) in enumerate(_tableau_sums()):
        zeros = K.copy()  # c[j] * -copysign(0, c[j]) is -0.0
        zeros[:len(c), 0, 0] = -np.copysign(0.0, c)
        for stack in (K, zeros):
            ref = _full_sum(c, stack[:len(c)])
            assert_bits([dynamics._point_sum(w, stack[:, r].tolist())
                         for r in range(m)], ref)
            assert_bits(dynamics._stage_sum(c, stack[:len(c)]), ref)
            if i in (15, 16):  # E5, E3
                rows = (dynamics._E5_ROWS, dynamics._E3_ROWS)[i - 15]
                assert_bits(dynamics._stage_sum(rows, stack[:12]), ref)


@SETTINGS
@given(n=st.integers(1, 300), m=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=8, m=1, seed=0)
@example(n=129, m=3, seed=1)
@example(n=300, m=64, seed=2)
def test_row_sum_adds_a_row_as_numpy_does(n, m, seed):
    """``phase_core.row_sum`` of each row is ``np.sum(rows, axis=-1)``
    bit for bit, across numpy's pairwise blocks (8 and 128 terms), on
    mixed magnitudes, signed zeros (whole rows of -0.0 too) and
    subnormals, whatever the number of rows."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 9, (m, n))
    rows[rng.random((m, n)) < 0.1] = -0.0
    rows[rng.random((m, n)) < 0.05] = 0.0
    rows[rng.random(m) < 0.3] *= 1e-310  # subnormal and tiny terms
    rows[rng.random(m) < 0.1] = -0.0
    sums = [phase_core.row_sum(row) for row in rows.tolist()]
    assert all(type(v) is float for v in sums)
    assert_bits(sums, np.sum(rows, axis=-1))


@SETTINGS
@given(arrays(float, (16,), elements=st.floats(min_value=-20.0,
                                                 max_value=20.0)))
def test_math_trig_rounds_as_numpy(A):
    """The channel's, the Reeb chord's and the time factors' float
    gradients call math's sin and cos where their array gradients call
    numpy's, so the two must round alike."""
    assert np.array_equal(np.sin(A), [math.sin(a) for a in A])
    assert np.array_equal(np.cos(A), [math.cos(a) for a in A])


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


def _gather_wrap(chart, coords):
    """``PhaseChart.wrap`` as a gather and scatter of the periodic
    columns, the formula the in-place reduction replaced."""
    out = np.array(coords, dtype=float)
    cols = chart._periodic_cols
    if cols:
        w = out[..., cols] % 1.0
        w[w == 1.0] = 0.0
        out[..., cols] = w
    return out


@SETTINGS
@given(X=arrays(float, (5, 6), elements=st.one_of(finite, seam)),
       periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()))
@example(X=np.tile([-0.0, 1.0, -1e-17, -0.0, 1.0, -1e-17], (5, 1)),
         periodic=(True, True, True))
def test_wrap_in_place_is_the_gather(X, periodic):
    """Reducing each periodic column in place gives the gather's bits on
    C- and F-ordered stacks and on one point, at the 1.0 seam and at
    -0.0, and leaves the input untouched."""
    chart = PhaseChart(dim_pairs=3, periodic=periodic)
    for coords in (X, np.asfortranarray(X), X[1], X[2].tolist()):
        before = np.array(coords, dtype=float)
        assert_bits(chart.wrap(coords), _gather_wrap(chart, coords))
        assert_bits(coords, before)


@pytest.mark.parametrize("model,name", REGIONS)
@SETTINGS
@given(X=stacks)
# on the torus2 ceiling a scalar ``** 2`` rounded this point alone 1 ulp
# above its row
@example(X=np.array([[-0.2040184148762073, -1.0679532896984685,
                      -2.0106441972950084, -0.1065622114514838]]))
def test_batched_region_matches_rows(model, name, X):
    """A stack gives each row's distance and event value bit for bit, so
    a sweep row and an ``integrate`` point see the same values."""
    region = TETRAGONS[model].regions()[name]
    X = X[:, :region.chart.dim]
    assert_bits(region.distance(X), [region.distance(x) for x in X])
    assert_bits(region.event_value(X), [region.event_value(x) for x in X])
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
# One point on floats, many points in one call
# ---------------------------------------------------------------------------

# regions whose event functional has no float twin, and why
NO_EVENT_TWIN = {
    # the wall event's polar angle takes np.arctan2, which differs from
    # math.atan2 in the last bit on some arguments
    ("sphere1", "low_wall"), ("sphere1", "high_wall"),
    ("sphere2", "low_wall"), ("sphere2", "high_wall"),
}
fractions = st.one_of(st.sampled_from([0.0, 1.0, -0.0, 0.5]),
                      st.floats(min_value=-0.5, max_value=1.5))


@SETTINGS
@given(data=st.data(), x=fractions)
def test_point_dense_is_dense_on_floats(data, x):
    """``integrate``'s one-point dense output on floats gives ``_dense``'s
    value, a one-column stack, bit for bit, at the step ends and at -0.0
    too."""
    dim = data.draw(st.sampled_from([2, 4, 6]))
    F = data.draw(arrays(float, (7, dim), elements=coord))
    y_old = data.draw(arrays(float, (dim,), elements=st.one_of(coord, seam)))
    point = dynamics._point_dense(F.tolist(), y_old.tolist(), x)
    assert all(type(v) is float for v in point)
    assert_bits(point, dynamics._dense(F[:, :, None], y_old[:, None],
                                       np.array([x]))[:, 0])


# charts of dimension 8 and 16, whose twins sum pairwise (``row_sum``)
WIDE_TETRAGONS = {"sphere4": build_tetragon(SphereModel(4), 1.0, 2.0,
                                            math.pi / 4),
                  "torus8": build_tetragon(TorusModel(8), 1.0, 2.0, 0.25)}
WIDE_REGIONS = [("sphere4", "floor"), ("sphere4", "ceiling"),
                ("torus8", "ceiling"), ("torus8", "low_wall"),
                ("torus8", "high_wall")]


@pytest.mark.parametrize("model,name", REGIONS + WIDE_REGIONS)
@SETTINGS
@given(X=stacks)
def test_event_twin_is_event_value_on_floats(model, name, X):
    """Each region's float event twin gives ``event_value`` bit for bit
    on a wrapped point, on the sphere k=4 and torus k=8 charts too; the
    regions without one are listed, with their reason, in
    ``NO_EVENT_TWIN``."""
    region = {**TETRAGONS, **WIDE_TETRAGONS}[model].regions()[name]
    twin = getattr(region.event_fn, "point", None)
    assert (twin is None) == ((model, name) in NO_EVENT_TWIN)
    if twin is None:
        return
    for x in region.chart.wrap(X[:, :region.chart.dim]):
        value = twin(x.tolist())
        assert type(value) is float
        assert_bits([value], [region.event_value(x)])


PARAM_REGIONS = REGIONS + [("torus3", name) for name in
                           ("floor", "ceiling", "low_wall", "high_wall")]
TORUS3 = build_tetragon(TorusModel(3), 1.0, 2.0, 0.25)


@pytest.mark.parametrize("model,name", PARAM_REGIONS)
@SETTINGS
@given(data=st.data())
def test_param_points_are_stacked_param_point(model, name, data):
    """``param_points`` evaluates a grid in one call per component, each
    row bit for bit its own ``param_point``: every region of both sphere
    k=1 components, and of the torus k=3 with two angles."""
    tet = TORUS3 if model == "torus3" else TETRAGONS[model]
    region = tet.regions()[name]
    m = data.draw(st.integers(min_value=1, max_value=8))
    params = [(np.array([data.draw(st.floats(min_value=lo, max_value=hi))
                         for lo, hi in region.param_bounds]),
               data.draw(st.integers(0, region.n_components - 1)))
              for _ in range(m)]
    assert_bits(region.param_points(params),
                [region.param_point(pr, comp) for pr, comp in params])
    grid = region.sample_params(24)
    assert_bits(region.param_points(grid),
                [region.param_point(pr, comp) for pr, comp in grid])


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
                        gradient=lambda x, t: 2.0 * x,
                        point_gradient=lambda x, t: [2.0 * v for v in x],
                        name="probe")
    X = np.array([[i + 0.5, 0.125 * i] for i in range(5)])
    X[3, 0] = bad
    # one point through sgrad takes the float path, then H.grad's check
    for call, what in ((H.grad, "gradient"), (H, "value"),
                       (functools.partial(sgrad, H), "gradient")):
        for arg in (X, X[3]):
            with pytest.raises(EvaluationError,
                               match=f"non-finite {what} of probe") as err:
                call(arg)
            assert np.array_equal(err.value.point, X[3], equal_nan=True)


def test_overflowing_sum_of_finite_values_is_no_error():
    """Finite values whose sum passes 1e308 are no error, and the
    finiteness test warns of no overflow."""
    H = HamiltonianSpec(chart=PhaseChart(dim_pairs=1),
                        value=lambda x, t: 1e308 * np.ones(np.shape(x)[:-1]),
                        gradient=lambda x, t: 1e308 * np.ones(np.shape(x)))
    X = np.zeros((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(H.grad(X) == 1e308)
        assert np.all(H(X) == 1e308)
