"""Command line interface: configs, overrides, reports, exit codes."""

import hashlib
import io
import json
import math
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tetralab import cli, scenarios
from tetralab.cli import emit_report, main
from tetralab.dynamics import ChordSearchConfig, find_chord
from tetralab.pb4 import BLOCK_CELLS, estimate_pb4_plus, prototype_problem
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
        assert rep["report"]["refine_converged"] is True
        assert 0 < rep["report"]["n_separation_evals"] <= 240
        assert (out / "timing.json").exists()

    def test_channel_chord_with_artifacts(self, tmp_path):
        """A found chord writes its search counts and 200 samples of it
        from floor (s = 1) to ceiling (s = 2): (t, s, u) and (t, |p|)."""
        cfg = write_config(tmp_path, {"scenario": "superconductivity"})
        out = tmp_path / "out"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["report"]["time_length"] == pytest.approx(
            1.0 / (2 * math.pi), abs=1e-6)
        assert 0.0 <= rep["report"]["time_error"] < 1e-9
        assert rep["report"]["n_refine_evals"] > 0
        assert rep["report"]["n_refine_failed"] == 0
        assert 0 < rep["report"]["n_separation_evals"] <= 240
        assert rep["search"] == {"best_distance": 0.0, "n_seeds": 64,
                                 "n_phases": 1, "n_escaped": 0,
                                 "n_stiff": 0}
        assert (out / "trajectory.csv").read_text().startswith("t,s,u\n")
        traj = np.loadtxt(out / "trajectory.csv", delimiter=",",
                          skiprows=1)
        assert traj.shape == (200, 3)
        plot = np.loadtxt(out / "plot.csv", delimiter=",", skiprows=1)
        assert plot.shape == (200, 2)
        assert plot[[0, -1], 1] == pytest.approx([1.0, 2.0], abs=1e-6)

    def test_no_chord_exits_2_with_search_counts(self, tmp_path,
                                                 monkeypatch):
        """A budget too small for any chord: exit 2, and the search
        block says what the sweep lost; no CSV is written."""
        monkeypatch.setattr(scenarios, "chord_budget", lambda *args: 0.01)
        cfg = write_config(tmp_path, {"scenario": "superconductivity",
                                      "n_seeds": 8})
        out = tmp_path / "out"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["report"]["found"] is False
        assert rep["report"]["budget"] == 0.01
        assert rep["report"]["time_error"] is None
        assert rep["report"]["n_refine_evals"] > 0
        assert rep["report"]["n_refine_failed"] == 0
        assert rep["search"].pop("best_distance") > 0.0
        assert rep["search"] == {"n_seeds": 8, "n_phases": 1,
                                 "n_escaped": 0, "n_stiff": 0}
        assert sorted(p.name for p in out.iterdir()) == \
            ["report.json", "timing.json"]

    def test_search_defaults_come_from_chord_search_config(
            self, tmp_path, monkeypatch):
        seen = []

        def record(*args):
            seen.append(args[-1])
            return find_chord(*args)

        monkeypatch.setattr(scenarios, "find_chord", record)
        cfg = write_config(tmp_path, {"scenario": "superconductivity"})
        assert main(["scenario", "run", cfg, "--out",
                     str(tmp_path / "out")]) == 0
        default = ChordSearchConfig()
        assert [(c.n_seeds, c.n_phases, c.ode_tol) for c in seen] == \
            [(default.n_seeds, default.n_phases, default.ode_tol)]

    @pytest.mark.parametrize("payload, message", [
        ({"scenario": "reeb_chord", "reeb_factor_base": math.nan},
         "reeb_factor_base must be finite, got nan"),
        ({"scenario": "reeb_chord", "reeb_factor_amp": math.inf},
         "reeb_factor_amp must be finite, got inf"),
        ({"scenario": "mechanical", "beta": math.nan},
         "beta must be finite, got nan"),
        ({"scenario": "superconductivity", "R1": math.inf},
         "need 0 < R0 < R1 < inf, got R0=1.0, R1=inf"),
        ({"scenario": "unstable_equilibrium", "k": 4, "n_seeds": 256},
         "k > 2 is not supported: the target sets have codimension too "
         "high for reliable desk-scale search"),
    ], ids=["reeb_factor_base", "reeb_factor_amp", "beta", "R1", "k4"])
    def test_refused_value_named(self, tmp_path, capsys, payload, message):
        """A non-finite number, or k above 2 (the k rule has this one
        door), exits 1 with the key named and writes nothing."""
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_override_changes_config(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "reeb_chord"})
        out = tmp_path / "out"
        code = main(["scenario", "run", cfg, "--out", str(out),
                     "--set", "reeb_factor_amp=0.0"])
        assert code == 0
        rep = read_report(out)
        assert rep["config"]["reeb_factor_amp"] == 0.0
        assert rep["report"]["n_refine_evals"] is None
        assert rep["report"]["refine_converged"] is None
        assert rep["report"]["n_separation_evals"] is None
        assert rep["search"] is None
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

    @pytest.mark.parametrize("root", [[1, 2], "k", 3, None])
    @pytest.mark.parametrize("command", [["scenario", "run"],
                                         ["validate", "config"]])
    def test_config_root_must_be_an_object(self, tmp_path, capsys, root,
                                           command):
        """A root that is no JSON object is refused before ``--set``
        indexes into it: exit 1 with the section named, nothing
        written."""
        cfg = write_config(tmp_path, root, name="list.json")
        out = tmp_path / "o"
        assert main(command + [cfg, "--set", "k=2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: config section <root> must be an object")
        assert not out.exists()

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

    @pytest.mark.parametrize("target", [-0.1, math.nan])
    def test_bad_perturbation_target_rejected(self, tmp_path, capsys,
                                              target):
        cfg = write_config(tmp_path, {"scenario": "unstable_equilibrium",
                                      "perturbation": {"delta_target":
                                                       target}})
        out = tmp_path / "o"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 1
        assert "error: delta_target" in capsys.readouterr().err
        assert not (out / "report.json").exists()

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

    @pytest.mark.parametrize("geometry, message", [
        ({"R0": 2.0, "R1": 1.0}, "need 0 < R0 < R1"),
        ({"T": math.nan}, "Reeb time T=nan"),
        ({"T": -0.1}, "Reeb time T=-0.1"),
    ])
    def test_bad_geometry_rejected(self, tmp_path, capsys, geometry,
                                   message):
        cfg = write_config(tmp_path, {"n": 32, **geometry})
        out = tmp_path / "o"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("band, message", [
        ({"expected_low": math.nan},
         "config key expected_low must not be NaN"),
        ({"expected_high": math.nan},
         "config key expected_high must not be NaN"),
        ({"expected_low": 4.4, "expected_high": 3.9},
         "expected_low 4.4 exceeds expected_high 3.9")],
        ids=["nan_low", "nan_high", "inverted"])
    def test_nan_or_inverted_band_rejected(self, tmp_path, capsys, band,
                                           message):
        """A NaN bound would pass every estimate and an inverted band
        none: both exit 1 and write nothing."""
        cfg = write_config(tmp_path, {"n": 16, **band})
        out = tmp_path / "o"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_infinite_bounds_are_no_bound(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 16, "expected_low": -math.inf,
                                      "expected_high": math.inf})
        assert main(["pb4", "estimate", cfg, "--out",
                     str(tmp_path / "o")]) == 0

    def test_csvs_are_savetxt_of_the_fields(self, tmp_path):
        """At n = 300 (several row blocks, most rows of G repeating the
        row above) F.csv, G.csv and plot.csv are ``np.savetxt``'s text of
        the estimate's fields."""
        cfg = write_config(tmp_path, {"n": 300, "two_grid": True})
        out = tmp_path / "out"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 0
        problem = prototype_problem(300)
        report = estimate_pb4_plus(problem)
        assert (report.G[1:] == report.G[:-1]).all(axis=1).sum() > 200
        plot = np.column_stack([problem.window.s_nodes(),
                                report.F.max(axis=1)])
        for name, header, rows in (("F.csv", "s\\u grid", report.F),
                                   ("G.csv", "s\\u grid", report.G),
                                   ("plot.csv", "s,F_max_over_u", plot)):
            assert (out / name).read_bytes() == \
                savetxt_text(header, rows).encode(), name

    def test_thickened_estimate_bytes_are_pinned(self, tmp_path):
        """A thickened two-grid estimate, its masks grown once per
        problem, writes these bytes (sha256 of each file)."""
        cfg = write_config(tmp_path, {"n": 100, "R0": 0.7, "R1": 1.9,
                                      "T": 0.6, "thicken_radius": 2,
                                      "two_grid": True})
        out = tmp_path / "out"
        assert main(["pb4", "estimate", cfg, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes())
                   .hexdigest() for name in PINNED_THICKENED}
        assert digests == PINNED_THICKENED


PINNED_THICKENED = {
    "report.json": "a186cffd16a1edf8d10fb1354f04164e"
                   "2e9fe59d6b9816aab172b55e15a4c50b",
    "F.csv": "71ccb475a13fee7db29e488046d0a14a"
             "c7197d1c378ee2c7919c568d5d855bbc",
    "G.csv": "6f19896db07ddf9265f4d04e54ccc95a"
             "05c25046e50828a39e2c26d518b6b32c",
    "plot.csv": "6d45359dd025e5824b3b59c199966112"
                "c6bdcd3a9e097b7142ca0e835772b0fd",
}


# values a CSV writer could merge or misspell: both zeros, NaN, both
# infinities, the smallest subnormal, a huge value, and plain repeats
CSV_POOL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1,
            -3.0, 1.0]


def savetxt_text(header, rows):
    fh = io.StringIO()
    np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header,
               comments="")
    return fh.getvalue()


class TestEmitReport:
    def test_csv_text_is_pinned(self, tmp_path):
        rows = np.array([[0.1, -0.0, 5e-324, math.nan, math.inf],
                         [1.0, 2.5, -3.0, 1e300, 0.0],
                         [0.0, -0.0, -math.inf, 0.1, 0.0]])
        emit_report({}, tmp_path, csv_files={"x.csv": ("a,b,c,d,e", rows)})
        assert (tmp_path / "x.csv").read_bytes() == (
            b"a,b,c,d,e\n"
            b"0.10000000000000001,-0,4.9406564584124654e-324,nan,inf\n"
            b"1,2.5,-3,1.0000000000000001e+300,0\n"
            b"0,-0,-inf,0.10000000000000001,0\n")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=arrays(np.float64,
                       st.tuples(st.integers(1, 40), st.integers(1, 8)),
                       elements=st.one_of(st.sampled_from(CSV_POOL),
                                          st.floats())),
           header=st.sampled_from(["a,b", "s\\u grid", ""]))
    @example(rows=np.array([[0.0, -0.0], [-0.0, 0.0]]), header="a,b")
    def test_csv_matches_savetxt(self, rows, header):
        """The writer's text is ``np.savetxt``'s, on any shape and mix of
        values."""
        fh = io.StringIO()
        cli.write_csv(fh, header, rows)
        assert fh.getvalue() == savetxt_text(header, rows)

    @pytest.mark.parametrize("width", [1000, 7, 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2 blocks + 1", "no rows"])
    def test_csv_blocks_match_savetxt(self, width, extra):
        """Row blocks of about ``BLOCK_CELLS`` values leave the text
        ``np.savetxt``'s at no rows and at block - 1, block, block + 1
        and 2 block + 1 rows, with signed zeros, nan, inf and one value
        in every block; and so do runs of repeated rows (inside a block,
        and from a block's first row on), rows equal in value but not in
        bits, and one row repeated."""
        block = BLOCK_CELLS // width
        n = ({"2 blocks + 1": 2 * block + 1, "no rows": 0}[extra]
             if isinstance(extra, str) else block + extra)
        rng = np.random.default_rng(width)
        rows = np.where(rng.random((n, width)) < 0.5,
                        rng.choice(CSV_POOL, (n, width)),
                        rng.standard_normal((n, width)))
        rows[:, 1:2] = 0.1  # formatted once per block
        runs = rows.copy()
        for r in (2, 3, 4, 7, block, block + 1, block + 2):
            if r < n:
                runs[r] = runs[r - 1]
        signed = np.zeros((n, width))
        signed[1::2, 0] = -0.0
        payloads = np.full((n, width), math.nan)
        payloads[1::2, 0] = np.int64(0x7FF8000000000001).view(np.float64)
        tables = {"rows": rows, "runs": runs, "signed zeros": signed,
                  "nan payloads": payloads,
                  "one row": np.repeat(rows[:1], n, axis=0)}
        for name, table in tables.items():
            fh = io.StringIO()
            cli.write_csv(fh, "s\\u grid", table)
            # a bool, so that a failure names the table without a diff
            same = fh.getvalue() == savetxt_text("s\\u grid", table)
            assert same, name

    def test_csv_memory_is_the_field_plus_blocks(self):
        """A 512 x 512 field of distinct values is written a block at a
        time: under the field's bytes plus 2 MiB (the whole text at once
        took 43 MiB)."""
        field = np.random.default_rng(1).standard_normal((512, 512))
        with open(os.devnull, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                cli.write_csv(fh, "s\\u grid", field)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < field.nbytes + 2 * 2**20

    def test_one_dimensional_rows_are_one_line(self):
        fh = io.StringIO()
        cli.write_csv(fh, "a,b", np.array([1.0, -0.0]))
        assert fh.getvalue() == savetxt_text("a,b", np.array([[1.0, -0.0]]))

    def test_timing_gets_csv_seconds(self, tmp_path):
        emit_report({"x": 1}, tmp_path, timing={"wall_clock_seconds": 2.0},
                    csv_files={"x.csv": ("a", np.zeros((2, 1)))})
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert sorted(timing) == ["csv_seconds", "wall_clock_seconds"]
        assert timing["csv_seconds"] >= 0.0
        assert read_report(tmp_path) == {"x": 1}


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
        """Without T, ``tetragon build`` and ``scenario run`` build a
        valid torus tetragon (T = 0.25 < 1/2)."""
        cfg = write_config(tmp_path, {"model": "torus", "k": 2})
        out = tmp_path / "tet"
        assert main(["tetragon", "build", cfg, "--out", str(out)]) == 0
        assert read_report(out)["report"]["kappa"] == pytest.approx(0.25)
        cfg = write_config(tmp_path, {"scenario": "superconductivity",
                                      "k": 2}, name="chord.json")
        out = tmp_path / "chord"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 0
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
        ({"scenario": "reeb_chord", "beta": 7},
         "error: scenario 'reeb_chord' takes no beta; "
         "it reads T, reeb_model, reeb_factor_base, reeb_factor_amp"),
        ({"scenario": "nope"},
         "error: unknown scenario 'nope'; choose from ['mechanical', "
         "'reeb_chord', 'superconductivity', 'unstable_equilibrium']"),
    ], ids=["unread_beta", "unknown_scenario"])
    def test_scenario_config_that_run_rejects_is_invalid(
            self, tmp_path, capsys, payload, message):
        """``validate config`` and ``scenario run`` run the same check:
        both exit 1 with the same message, and ``scenario run`` writes no
        report."""
        cfg = write_config(tmp_path, payload)
        assert main(["validate", "config", cfg]) == 1
        assert capsys.readouterr().err.strip() == message
        out = tmp_path / "o"
        assert main(["scenario", "run", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (out / "report.json").exists()
