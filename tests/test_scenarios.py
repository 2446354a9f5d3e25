"""Scenario runners, perturbation calibration and config validation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from tetralab import scenarios
from tetralab.contact import ParameterError, SphereModel, build_tetragon
from tetralab.dynamics import ChordSearchConfig, find_chord, separation
from tetralab.scenarios import (ConfigError, PerturbationSpec, Plateau,
                                ScenarioConfig, ScenarioReport,
                                add_hamiltonians,
                                calibrate_perturbation, channel_potential,
                                mechanical_hamiltonian, run_batch,
                                run_reeb_chord, run_scenario,
                                unstable_hamiltonian, wall_perturbation)

from conftest import check_gradient, constant_hamiltonian, scenario_payload


class TestHamiltonianGradients:
    def test_unstable(self):
        rng = np.random.default_rng(1)
        for k in (1, 2):
            check_gradient(unstable_hamiltonian(k),
                           rng.standard_normal((5, 2 * k)))

    def test_channel(self):
        rng = np.random.default_rng(2)
        for k in (1, 2):
            check_gradient(channel_potential(k),
                           rng.uniform(0, 1, (5, 2 * k)))

    def test_mechanical_including_time_dependence(self):
        H = mechanical_hamiltonian(1, beta=0.5, time_amp=0.3)
        rng = np.random.default_rng(3)
        for t in (0.0, 0.3):
            check_gradient(H, rng.uniform(-1.6, 1.6, (6, 2)), t=t)

    def test_wall_perturbation(self):
        F = wall_perturbation(0.3)
        rng = np.random.default_rng(4)
        for t in (0.0, 0.2):
            check_gradient(F, rng.uniform(-1.6, 1.6, (8, 2)), t=t)

    def test_plateau_profile(self):
        pl = Plateau(lo=1.0, hi=2.0, roll=0.25)
        assert pl.value(1.5) == 1.0
        assert pl.value(0.74) == 0.0
        assert pl.value(2.26) == 0.0
        h = 1e-7
        for y in np.linspace(0.5, 2.5, 300):
            fd = (pl.value(y + h) - pl.value(y - h)) / (2 * h)
            assert pl.deriv(y) == pytest.approx(fd, abs=1e-5)


class TestConfigValidation:
    def test_k_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="unstable_equilibrium", k=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="unstable_equilibrium", k=3)

    def test_radii(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="mechanical", R0=2.0, R1=1.0)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(scenario="nonsense"))

    def test_channel_needs_small_reeb_time(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(scenario="superconductivity",
                                        T=0.5))

    def test_perturbation_only_planar(self):
        cfg = ScenarioConfig(scenario="unstable_equilibrium", k=2,
                             perturbation=PerturbationSpec())
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_perturbation_target_below_separation(self):
        cfg = ScenarioConfig(
            scenario="unstable_equilibrium",
            perturbation=PerturbationSpec(delta_target=1.5),
        )
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    @pytest.mark.parametrize("target", [-0.1, math.nan, math.inf])
    def test_perturbation_target_is_a_finite_size(self, target):
        """The target is a |Delta|: a negative, NaN or infinite one is
        refused by name before any calibration."""
        with pytest.raises(ConfigError, match="delta_target"):
            PerturbationSpec(delta_target=target)

    def test_zero_perturbation_target_accepted(self):
        assert PerturbationSpec(delta_target=0.0).delta_target == 0.0

    @pytest.mark.parametrize("scenario", ["superconductivity",
                                          "mechanical", "reeb_chord"])
    def test_perturbation_only_on_unstable_equilibrium(self, scenario):
        """No other runner reads a perturbation; it must not pass
        silently unapplied."""
        with pytest.raises(ConfigError, match="takes no perturbation"):
            ScenarioConfig(scenario=scenario,
                           perturbation=PerturbationSpec(0.2))

    def test_reeb_factor_must_stay_positive(self):
        cfg = ScenarioConfig(scenario="reeb_chord",
                             reeb_factor_base=0.3, reeb_factor_amp=0.5)
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_reeb_unknown_model(self):
        cfg = ScenarioConfig(scenario="reeb_chord", reeb_model="plane")
        with pytest.raises(ConfigError):
            run_scenario(cfg)


# the unread keys of a reeb_chord config that once ran and exited 0
UNREAD_REEB = {"n_seeds": 0, "ode_tol": -1, "beta": 7, "R0": 5, "R1": 6}


class RecordingConfig:
    """Proxy of a config that records the fields a runner reads."""

    def __init__(self, cfg):
        self.cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


class TestScenarioKeys:
    @pytest.mark.parametrize("kind", sorted(scenarios.SCENARIO_KEYS))
    def test_runner_reads_exactly_its_keys(self, kind):
        keys = scenarios.SCENARIO_KEYS[kind]
        sizes = {"n_seeds": 4, "n_phases": 2} if "n_seeds" in keys else {}
        proxy = RecordingConfig(ScenarioConfig(scenario=kind, **sizes))
        scenarios._RUNNERS[kind](proxy)
        assert proxy.read == set(keys)

    def test_unread_keys_named_together(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(scenario="reeb_chord", **UNREAD_REEB)
        for key in UNREAD_REEB:
            assert key in str(err.value)

    def test_unread_key_at_its_default_passes(self):
        """Only a value that differs from the default reaches a run."""
        ScenarioConfig(scenario="reeb_chord", beta=0.5, R0=1.0)

    def test_search_defaults_come_from_chord_search_config(self,
                                                          monkeypatch):
        seen = []

        def record(G, X0, X1, budget, config):
            seen.append(config)
            raise RuntimeError("recorded")

        monkeypatch.setattr(scenarios, "find_chord", record)
        with pytest.raises(RuntimeError, match="recorded"):
            run_scenario(ScenarioConfig(scenario="superconductivity"))
        default = ChordSearchConfig()
        assert [(c.n_seeds, c.n_phases, c.ode_tol) for c in seen] == \
            [(default.n_seeds, default.n_phases, default.ode_tol)]


class TestUnstableEquilibrium:
    def test_report_values(self, unstable_run):
        rep = unstable_run.value
        assert rep.passed
        assert rep.found
        assert rep.time_length == pytest.approx(0.5 * math.log(2),
                                                abs=1e-4)
        assert rep.increment == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
        assert rep.delta_separation == pytest.approx(1.0, abs=1e-6)
        assert rep.budget == pytest.approx(math.pi / 4, abs=1e-6)

    def test_dispatch_matches_direct_call(self, unstable_run):
        rep = run_scenario(ScenarioConfig(scenario="unstable_equilibrium"))
        assert scenario_payload(rep) == scenario_payload(
            unstable_run.value)


class TestPerturbedUnstable:
    def test_calibrated_delta(self, perturbed_run):
        rep = perturbed_run.value
        assert rep.passed
        assert abs(rep.delta_perturbation - 0.25) <= 0.01
        assert rep.details["away_factor"] == 10.0
        # one separation sizes the amplitude, one measures the result
        assert 1 <= rep.describe()["calibration_steps"] <= 52
        assert rep.describe()["n_separation_evals"] > 0

    def test_budget_shrinks_but_chord_survives(self, perturbed_run,
                                               unstable_run):
        rep = perturbed_run.value
        assert rep.budget > unstable_run.value.budget
        assert rep.time_length <= math.pi / 3 + 1e-6

    def test_perturbation_amplitude_monotone(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        deltas = []
        for a in (0.1, 0.2, 0.4):
            F = wall_perturbation(a)
            deltas.append(abs(separation(F, tet.low_wall, tet.high_wall,
                                         n_samples=64).delta))
        assert deltas[0] < deltas[1] < deltas[2]

    def test_separation_is_linear_in_amplitude(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        ratios = [separation(wall_perturbation(a), tet.low_wall,
                             tet.high_wall, n_samples=64).delta / a
                  for a in (0.1, 0.25, 1.0)]
        assert max(ratios) - min(ratios) <= 1e-15

    def test_calibration_rejects_a_null_perturbation(self, monkeypatch):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        monkeypatch.setattr(scenarios, "separation",
                            lambda *args, **kw: SimpleNamespace(delta=0.0))
        with pytest.raises(ConfigError):
            calibrate_perturbation(tet, PerturbationSpec())

    def test_calibration_hits_target(self):
        tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
        F, measured, amp, steps = calibrate_perturbation(
            tet, PerturbationSpec(delta_target=0.25))
        assert abs(measured - 0.25) <= 0.01
        assert amp > 0.0
        assert 1 <= steps <= 52


class TestSuperconductivity:
    def test_planar_chord_time(self, channel_run_k1):
        rep = channel_run_k1.value
        assert rep.passed
        assert rep.time_length == pytest.approx(1.0 / (2 * math.pi),
                                                abs=1e-6)
        assert rep.increment == pytest.approx(1.0, abs=1e-6)
        assert rep.budget == pytest.approx(0.25, abs=1e-9)

    def test_torus_budget_pass(self, channel_run_k2):
        rep = channel_run_k2.value
        assert rep.passed
        assert rep.found
        assert rep.time_length <= rep.budget + 1e-6

    def test_constant_shift_invariance(self):
        """Adding a constant to the potential changes neither the wall
        separation nor the chord."""
        from tetralab.contact import CircleModel

        tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
        H = channel_potential(1)
        H5 = add_hamiltonians(H, constant_hamiltonian(H.chart, 5.0))
        s1 = separation(H, tet.low_wall, tet.high_wall)
        s2 = separation(H5, tet.low_wall, tet.high_wall)
        assert s1.delta == pytest.approx(s2.delta, abs=1e-12)
        a = find_chord(H, tet.floor, tet.ceiling, 0.25)
        b = find_chord(H5, tet.floor, tet.ceiling, 0.25)
        assert a.chord.time_length == pytest.approx(b.chord.time_length,
                                                    abs=1e-9)


class TestMechanical:
    def test_feature_width_is_the_narrowest_roll(self):
        """The shell's outer roll, |q|^2 from hi to hi + roll, is its
        narrowest in |q|; a sum keeps the narrower width of its terms."""
        H = mechanical_hamiltonian(1, beta=0.5)
        hi, roll = 2.0 + 0.1, 0.25
        assert 0.0 < H.feature_width <= math.sqrt(hi + roll) - math.sqrt(hi)
        assert H.feature_width < math.sqrt(0.9) - math.sqrt(0.9 - roll)
        U = unstable_hamiltonian(1)
        assert U.feature_width == math.inf
        assert add_hamiltonians(U, H).feature_width == H.feature_width
        assert add_hamiltonians(U, U).feature_width == math.inf

    def test_report_values(self, mechanical_run):
        rep = mechanical_run.value
        assert rep.passed
        assert rep.delta_separation == pytest.approx(1.0, abs=1e-3)
        assert rep.time_length <= math.pi / 4 + 1e-6


class TestReebChord:
    def test_modulated_factor(self, reeb_run):
        rep = reeb_run.value
        assert rep.passed
        assert rep.details["C"] == pytest.approx(1.2, abs=1e-9)
        assert rep.time_length <= (math.pi / 4) / 1.2 + 1e-6

    def test_constant_factor_closed_form(self, reeb_constant_run):
        rep = reeb_constant_run.value
        assert rep.passed
        assert abs(rep.time_length - (math.pi / 4) / 1.5) <= 1e-8

    @pytest.mark.parametrize("model, T", [
        ("sphere", 0.0), ("sphere", -0.5), ("sphere", 2.0),
        ("circle", 1.0), ("circle", 3.0)])
    def test_reeb_time_outside_c2_rejected(self, model, T):
        with pytest.raises(ParameterError):
            run_reeb_chord(ScenarioConfig(scenario="reeb_chord",
                                          reeb_model=model, T=T))

    def test_circle_model_matches_quadrature(self):
        rep = run_reeb_chord(ScenarioConfig(scenario="reeb_chord",
                                            reeb_model="circle"))
        expected, _ = quad(
            lambda u: 1.0 / (1.5 + 0.3 * math.sin(2 * math.pi * u)),
            0.0, 0.25,
        )
        assert rep.time_length == pytest.approx(expected, abs=1e-8)


class TestBatch:
    def test_batch_order(self):
        cfgs = [
            ScenarioConfig(scenario="reeb_chord"),
            ScenarioConfig(scenario="reeb_chord", reeb_model="circle"),
        ]
        batch = run_batch(cfgs)
        assert [scenario_payload(r) for r in batch] == \
            [scenario_payload(run_scenario(c)) for c in cfgs]


_REPORT = dict(scenario="unstable_equilibrium", delta_separation=1.0,
               delta_perturbation=0.0, kappa=0.25, budget=0.25, found=True,
               time_length=0.2, increment=1.0, expected_increment=1.0)


class TestPassRule:
    @pytest.mark.parametrize("changes, passed", [
        ({}, True),
        ({"found": False, "time_length": None, "increment": None}, False),
        ({"time_length": 0.25 + 2e-6}, False),
        ({"time_length": 0.25 + 5e-7}, True),
        ({"increment": 1.0 + 2e-6}, False),
        ({"increment": 1.0 - 5e-7}, True),
        ({"increment": 3.0, "expected_increment": None}, True),
        ({"increment": None, "expected_increment": None}, True),
    ])
    def test_passed_and_described(self, changes, passed):
        rep = ScenarioReport(**{**_REPORT, **changes})
        assert rep.passed is passed
        assert rep.describe()["passed"] is passed
