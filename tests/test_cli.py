"""Command line interface: configs, overrides, reports, exit codes."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from tetralab import cli
from tetralab.cli import emit_report, main
from tetralab.dynamics import ChordSearchConfig, find_chord
from tetralab.scenarios import PerturbationSpec, ScenarioConfig


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestScenarioCommand:
    def test_unstable_run_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "unstable_equilibrium"})
        out = tmp_path / "out"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["command"] == "scenario"
        assert rep["report"]["passed"] is True
        assert rep["report"]["time_length"] == pytest.approx(
            0.5 * math.log(2), abs=1e-4
        )
        assert 0 < rep["report"]["n_refine_evals"] <= 72
        assert rep["report"]["n_refine_failed"] == 0
        assert 0 < rep["report"]["n_separation_evals"] <= 240
        assert (out / "timing.json").exists()

    def test_override_changes_config(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "reeb_chord"})
        out = tmp_path / "out"
        code = main(["scenario", "run", cfg, "--out", str(out),
                     "--set", "reeb_factor_amp=0.0"])
        assert code == 0
        rep = read_report(out)
        assert rep["config"]["reeb_factor_amp"] == 0.0
        assert rep["report"]["n_refine_evals"] is None
        assert rep["report"]["n_separation_evals"] is None
        assert rep["report"]["time_length"] == pytest.approx(
            (math.pi / 4) / 1.5, abs=1e-8
        )

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "reeb_chord",
                                      "bogus": 1})
        assert main(["scenario", "run", cfg]) == 1

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "unstable_equilibrium",
                                      "n_seeds": "many"})
        assert main(["scenario", "run", cfg]) == 1
        assert "n_seeds must be int" in capsys.readouterr().err

    def test_unread_keys_rejected(self, tmp_path, capsys):
        """A key the kind does not read fails the run, even at its
        default value; the message names every such key."""
        unread = {"n_seeds": 0, "ode_tol": -1, "beta": 7, "R0": 5, "R1": 6}
        for payload in (unread, {"beta": 0.5}):
            cfg = write_config(tmp_path, {"scenario": "reeb_chord",
                                          **payload})
            assert main(["scenario", "run", cfg, "--out",
                         str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert all(key in err for key in payload)
        assert main(["validate", "config", cfg]) == 1

    def test_missing_scenario_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"k": 1})
        assert main(["scenario", "run", cfg]) == 1
        assert "unknown scenario None" in capsys.readouterr().err

    def test_reeb_time_outside_c2_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "reeb_chord", "T": 0.0})
        assert main(["scenario", "run", cfg]) == 1

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["scenario", "run", str(path)]) == 1

    def test_config_error_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "nonsense"})
        assert main(["scenario", "run", cfg]) == 1

    @pytest.mark.parametrize("key, value", [
        ("ode_tol", 0), ("ode_tol", -1e-9), ("n_seeds", 0), ("n_seeds", -5),
        ("n_phases", 0)])
    def test_chord_search_number_rejected(self, tmp_path, capsys, key,
                                          value):
        cfg = write_config(tmp_path, {"scenario": "unstable_equilibrium",
                                      key: value})
        assert main(["scenario", "run", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    def test_report_bytes_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "reeb_chord"})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["scenario", "run", cfg, "--out",
                         str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestPb4Command:
    def test_estimate_with_band_and_csvs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 48, "expected_low": 3.5, "expected_high": 5.0,
        })
        out = tmp_path / "out"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert 3.5 <= rep["report"]["estimate"] <= 5.0
        for name in ("F.csv", "G.csv", "plot.csv"):
            assert (out / name).exists()
        grid = np.loadtxt(out / "F.csv", delimiter=",", skiprows=1)
        assert grid.shape == (48, 48)

    def test_band_violation_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 48, "expected_low": 100.0})
        out = tmp_path / "out"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 2

    def test_two_grid_difference_reported(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 48, "two_grid": True})
        out = tmp_path / "out"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert "two_grid_difference" in rep["report"]
        assert rep["report"]["two_grid_difference"] >= 0.0

    def test_optimizer_seed_is_accepted_and_ignored(self, tmp_path):
        fields = []
        for name, payload in (("plain", {"n": 32}),
                              ("seeded", {"n": 32,
                                          "optimizer": {"seed": 7}})):
            out = tmp_path / name
            cfg = write_config(tmp_path, payload, name=f"{name}.json")
            assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 0
            fields.append((out / "F.csv").read_bytes())
        assert fields[0] == fields[1]

    def test_removed_optimizer_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"optimizer": {"n_starts": 2}})
        assert main(["pb4", "estimate", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "optimizer.n_starts" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, 1])
    def test_grid_below_two_nodes_rejected(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, {"n": n})
        assert main(["pb4", "estimate", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "n_s, n_u >= 2" in capsys.readouterr().err


class TestChordCommand:
    def test_channel_chord_with_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": "circle", "k": 1, "hamiltonian": "channel",
            "T": 0.25,
        })
        out = tmp_path / "out"
        assert main(["chord", "find", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["report"]["found"] is True
        assert rep["report"]["time_length"] == pytest.approx(
            1.0 / (2 * math.pi), abs=1e-6
        )
        assert 0.0 <= rep["report"]["time_error"] < 1e-9
        assert rep["report"]["n_refine_evals"] > 0
        assert rep["report"]["n_refine_failed"] == 0
        assert 0 < rep["report"]["n_separation_evals"] <= 240
        traj = np.loadtxt(out / "trajectory.csv", delimiter=",",
                          skiprows=1)
        assert traj.shape[1] == 3  # t, s, u
        plot = np.loadtxt(out / "plot.csv", delimiter=",", skiprows=1)
        assert plot.shape[1] == 2

    def test_tiny_budget_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": "circle", "k": 1, "hamiltonian": "channel",
            "T": 0.25, "time_budget": 0.01, "n_seeds": 8,
        })
        out = tmp_path / "out"
        assert main(["chord", "find", cfg, "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["report"]["found"] is False
        assert rep["report"]["best_distance"] > 0.0
        assert rep["report"]["time_error"] is None
        assert rep["report"]["n_refine_evals"] > 0
        assert rep["report"]["n_refine_failed"] == 0

    def test_unknown_hamiltonian_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"hamiltonian": "magic"})
        assert main(["chord", "find", cfg, "--out",
                     str(tmp_path / "o")]) == 1

    def test_beta_only_with_mechanical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hamiltonian": "unstable",
                                      "beta": 7})
        assert main(["chord", "find", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "beta" in capsys.readouterr().err

    def test_circle_with_k_above_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "circle", "k": 2,
                                      "hamiltonian": "channel"})
        assert main(["chord", "find", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "k = 1" in capsys.readouterr().err

    def test_search_defaults_come_from_chord_search_config(
            self, tmp_path, monkeypatch):
        seen = []

        def record(*args):
            seen.append(args[-1])
            return find_chord(*args)

        monkeypatch.setattr(cli, "find_chord", record)
        cfg = write_config(tmp_path, {"model": "circle",
                                      "hamiltonian": "channel"})
        out = tmp_path / "out"
        assert main(["chord", "find", cfg, "--out", str(out)]) == 0
        default = ChordSearchConfig()
        assert [(c.n_seeds, c.n_phases, c.ode_tol) for c in seen] == \
            [(default.n_seeds, default.n_phases, default.ode_tol)]
        assert read_report(out)["tolerances"]["ode"] == default.ode_tol


class TestEmitReport:
    def test_csv_text_is_pinned(self, tmp_path):
        rows = np.array([[0.1, -0.0, 5e-324, math.nan, math.inf],
                         [1.0, 2.5, -3.0, 1e300, 0.0]])
        emit_report({}, tmp_path, csv_files={"x.csv": ("a,b,c,d,e", rows)})
        assert (tmp_path / "x.csv").read_bytes() == (
            b"a,b,c,d,e\n"
            b"0.10000000000000001,-0,4.9406564584124654e-324,nan,inf\n"
            b"1,2.5,-3,1.0000000000000001e+300,0\n")


class TestTetragonCommand:
    def test_build_and_smooth(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": "sphere", "k": 1, "T": 0.25, "eps": 0.05,
        })
        out = tmp_path / "out"
        assert main(["tetragon", "build", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["report"]["kappa"] == pytest.approx(0.25)
        sm = rep["report"]["smoothed"]
        assert sm["area"] == pytest.approx(
            0.25 - (4 - math.pi) * 0.05 ** 2
        )
        assert sm["lagrangian_residual"] <= 1e-8

    def test_torus_default_reeb_time(self, tmp_path):
        """Without T, both tetragon commands build a valid torus
        tetragon (T = 0.25 < 1/2)."""
        cfg = write_config(tmp_path, {"model": "torus", "k": 2})
        out = tmp_path / "tet"
        assert main(["tetragon", "build", cfg, "--out", str(out)]) == 0
        assert read_report(out)["report"]["kappa"] == pytest.approx(0.25)
        cfg = write_config(tmp_path, {"model": "torus", "k": 2,
                                      "hamiltonian": "channel"},
                           name="chord.json")
        out = tmp_path / "chord"
        assert main(["chord", "find", cfg, "--out", str(out)]) == 0
        assert read_report(out)["report"]["time_length"] == pytest.approx(
            1.0 / (2 * math.pi), abs=1e-6)

    def test_invalid_reeb_time_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"model": "circle", "T": 1.5})
        assert main(["tetragon", "build", cfg, "--out",
                     str(tmp_path / "o")]) == 1

    def test_circle_with_k_above_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "circle", "k": 3})
        assert main(["tetragon", "build", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "k = 1" in capsys.readouterr().err


class TestSchemas:
    def test_scenario_schema_matches_config_fields(self):
        assert set(cli._SCENARIO_SCHEMA) == \
            {f.name for f in fields(ScenarioConfig)}

    def test_perturbation_schema_matches_spec_fields(self):
        assert set(cli._PERTURBATION_SCHEMA) == \
            {f.name for f in fields(PerturbationSpec)}

    def test_chord_search_keys_are_config_fields(self):
        """The chord keys that set neither the tetragon nor the
        Hamiltonian nor the budget go to ``ChordSearchConfig``; a field
        deleted there cannot stay an accepted key."""
        search_keys = set(cli._CHORD_SCHEMA) - set(cli._TETRAGON_SCHEMA) \
            - {"hamiltonian", "beta", "time_budget"}
        assert search_keys == {"n_seeds", "n_phases", "ode_tol"}
        assert search_keys <= {f.name for f in fields(ChordSearchConfig)}


class TestValidateCommand:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "reeb_chord"})
        assert main(["validate", "config", cfg]) == 0
        assert "valid" in capsys.readouterr().out

    def test_schema_selection(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 64})
        assert main(["validate", "config", cfg, "--command", "pb4"]) == 0
        assert main(["validate", "config", cfg,
                     "--command", "scenario"]) == 1

    def test_nested_override_and_dotted_path(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "unstable_equilibrium"})
        code = main(["validate", "config", cfg, "--set",
                     "perturbation.delta_target=0.2"])
        assert code == 0

    @pytest.mark.parametrize("payload, message", [
        ({"hamiltonian": "unstable", "beta": 7},
         "error: hamiltonian 'unstable' does not read beta; "
         "only 'mechanical' does"),
        ({"hamiltonian": "nope"},
         "error: unknown hamiltonian 'nope'; "
         "choose from ['channel', 'mechanical', 'unstable']"),
    ], ids=["beta_without_mechanical", "unknown_hamiltonian"])
    def test_chord_config_that_find_rejects_is_invalid(
            self, tmp_path, capsys, payload, message):
        """``validate config --command chord`` and ``chord find`` run
        the same check: both exit 1 with the same message, and ``chord
        find`` writes no report."""
        cfg = write_config(tmp_path, payload)
        assert main(["validate", "config", cfg, "--command", "chord"]) == 1
        assert capsys.readouterr().err.strip() == message
        out = tmp_path / "o"
        assert main(["chord", "find", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (out / "report.json").exists()
