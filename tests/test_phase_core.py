"""Symplectic calculus: brackets, vector fields, identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tetralab.phase_core import (EvaluationError, HamiltonianSpec,
                                 PhaseChart, omega_matrix, poisson_bracket,
                                 sgrad, volume_factor)
from tetralab.scenarios import unstable_hamiltonian

from conftest import (check_gradient, constant_hamiltonian, fd_bracket_spec,
                      fd_gradient, polynomial_hamiltonian)


PLANE = PhaseChart(dim_pairs=1)
PLANE2 = PhaseChart(dim_pairs=2)


def coord_spec(chart, index, name=""):
    e = np.zeros(chart.dim)
    e[index] = 1.0
    return HamiltonianSpec(
        chart=chart,
        value=lambda x, t, i=index: float(x[i]),
        gradient=lambda x, t, e=e: e,
        name=name,
    )


class TestChart:
    def test_wrap_reduces_periodic_q(self):
        chart = PhaseChart(dim_pairs=1, periodic=(True,))
        assert chart.wrap([2.0, 1.75])[1] == pytest.approx(0.75)
        assert chart.wrap([2.0, -0.25])[1] == pytest.approx(0.75)

    def test_wrap_leaves_p_alone(self):
        chart = PhaseChart(dim_pairs=1, periodic=(True,))
        assert chart.wrap([2.5, 0.0])[0] == 2.5

    def test_default_labels(self):
        assert PLANE2.labels == ("p1", "p2", "q1", "q2")

    def test_bad_periodic_mask(self):
        with pytest.raises(ValueError):
            PhaseChart(dim_pairs=2, periodic=(True,))

    def test_dim_pairs_positive(self):
        with pytest.raises(ValueError):
            PhaseChart(dim_pairs=0)


class TestSgrad:
    def test_quadratic_saddle(self):
        # H = (p^2 - q^2)/2: sgrad = (q, p)
        H = polynomial_hamiltonian(PLANE, (np.diag([0.5, -0.5]), [0, 0]))
        assert np.allclose(sgrad(H, [1.0, 1.0]), [1.0, 1.0])
        assert np.allclose(sgrad(H, [2.0, -3.0]), [-3.0, 2.0])

    def test_zero_hamiltonian(self):
        assert np.allclose(sgrad(constant_hamiltonian(PLANE), [3.0, 4.0]),
                           [0.0, 0.0])

    def test_pure_potential_pushes_momentum(self):
        chart = PhaseChart(dim_pairs=1, periodic=(True,))
        H = HamiltonianSpec(
            chart=chart,
            value=lambda x, t: math.cos(2 * math.pi * x[1]),
            gradient=lambda x, t: np.array(
                [0.0, -2 * math.pi * math.sin(2 * math.pi * x[1])]
            ),
        )
        v = sgrad(H, [1.0, 0.25])
        assert v[0] == pytest.approx(2 * math.pi)  # pdot = -dH/dq
        assert v[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("point", [True, False],
                             ids=["point_gradient", "gradient_only"])
    def test_list_in_list_out_and_stacks_as_arrays(self, point):
        """A point as a list of floats gets a list; a nested list is a
        stack, as its array is, and gets an array back."""
        H = unstable_hamiltonian(1)
        if not point:
            H = replace(H, point_gradient=None)
        X = [[0.5, -1.0], [2.0, 0.25], [-0.75, 3.0]]
        want = sgrad(H, np.array(X))
        assert isinstance(want, np.ndarray) and want.shape == (3, 2)
        stack = sgrad(H, X)
        assert isinstance(stack, np.ndarray)
        assert np.array_equal(stack, want)
        for x, row in zip(X, want):
            got = sgrad(H, x)
            assert type(got) is list and got == row.tolist()
            for other in (np.array(x), tuple(x)):
                out = sgrad(H, other)
                assert isinstance(out, np.ndarray)
                assert np.array_equal(out, row)

    def test_nonfinite_gradient_raises(self):
        H = HamiltonianSpec(
            chart=PLANE,
            value=lambda x, t: 0.0,
            gradient=lambda x, t: np.array([np.nan, 0.0]),
        )
        with pytest.raises(EvaluationError):
            sgrad(H, [0.0, 0.0])

    def test_nonfinite_value_raises(self):
        H = HamiltonianSpec(
            chart=PLANE,
            value=lambda x, t: float("inf"),
            gradient=lambda x, t: np.zeros(2),
        )
        with pytest.raises(EvaluationError):
            H([0.0, 0.0])


class TestPoissonBracket:
    def test_canonical_pair(self):
        p = coord_spec(PLANE, 0)
        q = coord_spec(PLANE, 1)
        assert poisson_bracket(p, q, [0.3, 0.7]) == -1.0
        assert poisson_bracket(q, p, [0.3, 0.7]) == 1.0

    def test_momentum_square_against_position(self):
        F = polynomial_hamiltonian(PLANE, (np.diag([1.0, 0.0]), [0, 0]))
        q = coord_spec(PLANE, 1)
        assert poisson_bracket(F, q, [3.0, 0.0]) == pytest.approx(-6.0)

    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(1)
        F = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        for _ in range(5):
            x = rng.standard_normal(4)
            assert poisson_bracket(F, F, x) == 0.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            F = polynomial_hamiltonian(
                PLANE2,
                (rng.standard_normal((4, 4)), rng.standard_normal(4)),
            )
            G = polynomial_hamiltonian(
                PLANE2,
                (rng.standard_normal((4, 4)), rng.standard_normal(4)),
            )
            x = rng.standard_normal(4)
            assert poisson_bracket(F, G, x) == -poisson_bracket(G, F, x)

    def test_bracket_is_derivative_along_flow(self):
        # {F, G} equals d/dt F(phi_G^t(x)) at t = 0
        from tetralab.dynamics import integrate

        rng = np.random.default_rng(3)
        F = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        G = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        x = rng.standard_normal(4)
        traj = integrate(G, x, 0.0, 1e-3, tol=1e-12)
        h = 5e-4
        deriv = (F(traj(h)) - F(traj(0.0))) / h
        assert deriv == pytest.approx(poisson_bracket(F, G, x), abs=1e-2)

    def test_leibniz_rule(self):
        rng = np.random.default_rng(4)
        F = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        G = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        H = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        FG = HamiltonianSpec(
            chart=PLANE2,
            value=lambda x, t: F(x, t) * G(x, t),
            gradient=lambda x, t: F(x, t) * G.grad(x, t)
            + G(x, t) * F.grad(x, t),
        )
        for _ in range(10):
            x = rng.standard_normal(4)
            lhs = poisson_bracket(FG, H, x)
            rhs = F(x) * poisson_bracket(G, H, x) \
                + G(x) * poisson_bracket(F, H, x)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_jacobi_identity(self):
        rng = np.random.default_rng(5)
        specs = [
            polynomial_hamiltonian(
                PLANE2,
                (rng.standard_normal((4, 4)), rng.standard_normal(4)),
            )
            for _ in range(3)
        ]
        F, G, H = specs
        GH = fd_bracket_spec(G, H)
        HF = fd_bracket_spec(H, F)
        FG = fd_bracket_spec(F, G)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 4)
            total = (
                poisson_bracket(F, GH, x)
                + poisson_bracket(G, HF, x)
                + poisson_bracket(H, FG, x)
            )
            assert abs(total) <= 1e-5

    def test_fd_gradient_oracle_agrees(self):
        rng = np.random.default_rng(6)
        F = polynomial_hamiltonian(
            PLANE2, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        check_gradient(F, rng.standard_normal((5, 4)))


class TestVolumeFactor:
    def test_tau_zero_is_identity(self):
        p = coord_spec(PLANE, 0)
        q = coord_spec(PLANE, 1)
        vf = volume_factor(p, q, 0.0, [1.0, 1.0])
        assert vf.det_ratio == pytest.approx(1.0, abs=1e-12)
        assert vf.analytic == 1.0
        assert not vf.degenerate

    def test_canonical_pair_closed_form(self):
        p = coord_spec(PLANE, 0)
        q = coord_spec(PLANE, 1)
        vf = volume_factor(p, q, 0.5, [0.0, 0.0])
        # {p, q} = -1, so the factor is 1 + tau
        assert vf.analytic == pytest.approx(1.5)
        assert vf.det_ratio == pytest.approx(1.5, abs=1e-10)

    def test_degenerate_flag(self):
        p = coord_spec(PLANE, 0)
        q = coord_spec(PLANE, 1)
        assert volume_factor(p, q, -1.0, [0.0, 0.0]).degenerate
        assert not volume_factor(p, q, -0.5, [0.0, 0.0]).degenerate

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_random_quadratics(self, n):
        chart = PhaseChart(dim_pairs=n)
        rng = np.random.default_rng(10 + n)
        for _ in range(100):
            F = polynomial_hamiltonian(
                chart,
                (rng.standard_normal((2 * n, 2 * n)),
                 rng.standard_normal(2 * n)),
            )
            G = polynomial_hamiltonian(
                chart,
                (rng.standard_normal((2 * n, 2 * n)),
                 rng.standard_normal(2 * n)),
            )
            x = rng.standard_normal(2 * n)
            tau = float(rng.uniform(-0.3, 0.3))
            vf = volume_factor(F, G, tau, x)
            assert abs(vf.det_ratio - vf.analytic) <= 1e-8

    def test_omega_matrix_blocks(self):
        o = omega_matrix(2)
        assert np.array_equal(o[:2, 2:], np.eye(2))
        assert np.array_equal(o[2:, :2], -np.eye(2))
        assert np.array_equal(o, -o.T)
