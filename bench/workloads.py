"""The four benchmark workloads: inputs drawn from a seed, the operation,
its serialized report and the correctness checks on its output.

Seed 0 reproduces the acceptance-fixture parameters exactly.  Other seeds
draw geometry (and the pb4 optimizer seed) from narrow ranges on which
every closed form in ``reference`` still holds and no operation fails;
the ranges are narrow so that the work per operation, and so ``op_s``,
barely depends on the seed.  The program sees only the generated inputs.

Operations look tetralab functions up as module attributes at call time,
so the traced run's wrappers (see ``tracing``) see every call.
"""

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import reference as ref
import speed
from tetralab import cli, contact, dynamics, pb4, scenarios

SPHERE_T = math.pi / 4
PB4_BAND = (3.92, 4.40)


def _draw(seed, fixture, ranges):
    """Fixture values for seed 0, otherwise uniform draws from ``ranges``."""
    if seed == 0:
        return dict(fixture)
    rng = np.random.default_rng(seed)
    return {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in ranges.items()}


def _close(a, b, tol):
    return a is not None and abs(a - b) <= tol


class Workload:
    """One benchmark workload; subclasses fill in the hooks below."""

    name = ""
    has_probe = False
    # reference computation with the operation's profile (see ``speed``)
    reference = staticmethod(speed.ode)

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.quick = quick
        self.workdir = Path(workdir)
        self.speed = speed.Reference(self.reference)

    def setup(self):
        """Build the program inputs (what a caller pays before the first
        operation, besides the import)."""

    def operation(self):
        raise NotImplementedError

    def serialize(self, result):
        """Bytes that must be identical every time the operation repeats."""
        raise NotImplementedError

    def check(self, result):
        """Names of the correctness checks ``result`` fails."""
        raise NotImplementedError

    def probe(self):
        """Second, untimed operation; True when it succeeds."""
        return True

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _report_bytes(report):
    return json.dumps(report.describe(), sort_keys=True).encode()


# ---------------------------------------------------------------------------

class PerturbedChord(Workload):
    """Criterion-2 fixture: unstable equilibrium plus a calibrated
    wall-localized perturbation with delta = 0.25."""

    name = "perturbed_chord"
    DELTA = 0.25

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.params = _draw(seed, {"R0": 1.0, "R1": 2.0},
                            {"R0": (0.99, 1.01), "R1": (1.98, 2.02)})

    def setup(self):
        sizes = {"n_seeds": 8, "n_phases": 4} if self.quick else {}
        self.config = scenarios.ScenarioConfig(
            scenario="unstable_equilibrium",
            perturbation=scenarios.PerturbationSpec(delta_target=self.DELTA),
            **self.params, **sizes)

    def operation(self):
        return scenarios.run_unstable_equilibrium(self.config)

    def serialize(self, rep):
        return _report_bytes(rep)

    def check(self, rep):
        R0, R1 = self.params["R0"], self.params["R1"]
        t = rep.time_length
        limit = ref.budget(R0, R1, SPHERE_T, ref.unstable_separation(R0),
                           rep.delta_perturbation)
        return [name for name, ok in [
            ("chord found", rep.found),
            ("time = ln(R1/R0)/2 within 1e-4",
             _close(t, ref.unstable_chord_time(R0, R1), 1e-4)),
            ("increment = sqrt(R1) - sqrt(R0) within 1e-6",
             _close(rep.increment, ref.unstable_increment(R0, R1), 1e-6)),
            ("measured delta within 0.01 of target",
             _close(rep.delta_perturbation, self.DELTA, 0.01)),
            ("time <= (R1-R0)T/(R0-delta)",
             t is not None and t <= limit + 1e-6),
        ] if not ok]


# ---------------------------------------------------------------------------

class WitnessSweep(Workload):
    """Criterion-6 sweep: no high-to-low wall chord of the wall-witness
    ramp within the shortened budget, and floor/ceiling separation 1."""

    name = "witness_sweep"
    DELTA2 = 0.01

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.params = _draw(seed, {"R0": 1.0, "R1": 2.0, "T": 0.25},
                            {"R0": (0.99, 1.01), "R1": (1.98, 2.02),
                             "T": (0.2475, 0.2525)})
        self.n_seeds = 101 if quick else 1001

    def setup(self):
        p = self.params
        self.witness = pb4.wall_witness(p["R0"], p["R1"], delta2=self.DELTA2)
        self.H = self.witness.hamiltonian()
        self.tet = contact.build_tetragon(contact.CircleModel(), p["R0"],
                                          p["R1"], p["T"])
        self.budget = ref.witness_budget(p["R0"], p["R1"], p["T"],
                                         self.DELTA2)

    def operation(self):
        search = dynamics.find_chord(
            self.H, self.tet.high_wall, self.tet.low_wall, self.budget,
            dynamics.ChordSearchConfig(n_seeds=self.n_seeds))
        sep = dynamics.separation(self.H, self.tet.floor, self.tet.ceiling)
        return search, sep

    def serialize(self, result):
        search, sep = result
        return json.dumps({
            "found": search.found, "best_distance": search.best_distance,
            "n_seeds": search.n_seeds, "n_phases": search.n_phases,
            "message": search.message, "delta": sep.delta,
            "min_value": sep.min_value, "max_value": sep.max_value,
        }, sort_keys=True).encode()

    def check(self, result):
        search, sep = result
        p, ww = self.params, self.witness
        shortest = ref.witness_min_crossing_time(
            ww.profile, ww.R0, ww.R1, ww.delta1, p["T"])
        return [name for name, ok in [
            ("no chord found", not search.found),
            (f"n_seeds == {self.n_seeds}", search.n_seeds == self.n_seeds),
            ("best_distance > 0", search.best_distance > 0.0),
            ("separation 1 within 1e-9", _close(sep.delta, 1.0, 1e-9)),
            ("shortest wall-to-wall time T/max u' exceeds the budget",
             shortest > self.budget),
        ] if not ok]


# ---------------------------------------------------------------------------

class ScenarioSuite(Workload):
    """``run_batch`` over the five default scenarios: unstable, channel
    k=1, channel k=2 on the torus, mechanical and Reeb.

    The mechanical scenario keeps the fixture geometry on every seed: a
    1 % change of R0, R1 or beta moves its pattern-search path, and with
    it the work of the whole batch, by 5-30 %.
    """

    MECHANICAL = {"R0": 1.0, "R1": 2.0, "beta": 0.5}

    name = "scenario_suite"

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.params = _draw(
            seed, {"R0": 1.0, "R1": 2.0, "base": 1.5, "amp": 0.3},
            {"R0": (0.99, 1.01), "R1": (1.98, 2.02), "base": (1.45, 1.55),
             "amp": (0.25, 0.35)})

    def setup(self):
        p = self.params
        sizes = {"n_seeds": 16, "n_phases": 4} if self.quick else {}
        geo = {"R0": p["R0"], "R1": p["R1"], **sizes}
        SC = scenarios.ScenarioConfig
        self.configs = [
            SC(scenario="unstable_equilibrium", **geo),
            SC(scenario="superconductivity", k=1, **geo),
            SC(scenario="superconductivity", k=2, **geo),
            SC(scenario="mechanical", **self.MECHANICAL, **sizes),
            SC(scenario="reeb_chord", reeb_factor_base=p["base"],
               reeb_factor_amp=p["amp"]),
        ]

    def operation(self):
        return scenarios.run_batch(self.configs)

    def serialize(self, reports):
        return json.dumps([r.describe() for r in reports],
                          sort_keys=True).encode()

    def check(self, reports):
        p, m = self.params, self.MECHANICAL
        R0, R1 = p["R0"], p["R1"]
        uns, ch1, ch2, mech, reeb = reports
        mech_sep = ref.mechanical_separation(m["R0"], m["beta"])
        quad_times = ref.reeb_sphere_times(SPHERE_T, p["base"], p["amp"])
        chord_times = reeb.details.get("chord_times", [])

        def within_budget(r):
            return r.found and r.time_length <= r.budget + 1e-6

        return [name for name, ok in [
            ("unstable: time = ln(R1/R0)/2 within 1e-4",
             _close(uns.time_length, ref.unstable_chord_time(R0, R1), 1e-4)),
            ("unstable: increment = sqrt(R1) - sqrt(R0) within 1e-6",
             _close(uns.increment, ref.unstable_increment(R0, R1), 1e-6)),
            ("channel k=1: time = (R1-R0)/(2 pi) within 1e-6",
             _close(ch1.time_length, ref.channel_time(R0, R1), 1e-6)),
            ("channel k=1: increment R1-R0 within 1e-6",
             _close(ch1.increment, R1 - R0, 1e-6)),
            ("channel k=2: within budget", within_budget(ch2)),
            ("channel k=2: increment R1-R0 within 1e-6",
             _close(ch2.increment, R1 - R0, 1e-6)),
            ("mechanical: separation R0/2 + beta within 1e-3",
             _close(mech.delta_separation, mech_sep, 1e-3)),
            ("mechanical: time <= (R1-R0)T/Delta",
             mech.found and mech.time_length
             <= ref.budget(m["R0"], m["R1"], SPHERE_T, mech_sep) + 1e-6),
            ("reeb: chord times match quadrature within 1e-8",
             len(chord_times) == 2 and all(
                 abs(a - b) <= 1e-8 for a, b in zip(chord_times, quad_times))),
        ] if not ok]


# ---------------------------------------------------------------------------

class Pb4TwoGrid(Workload):
    """``tetralab pb4 estimate`` with the README config, called in-process,
    plus the null-mode probe of ``feasible_pair_value``."""

    name = "pb4_two_grid"
    has_probe = True
    reference = staticmethod(speed.grid)

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.opt_seed = 0 if seed == 0 else int(
            np.random.default_rng(seed).integers(1, 1_000_000))
        self.n = 32 if quick else 128

    def setup(self):
        self.config = {"n": self.n, "two_grid": True,
                       "expected_low": PB4_BAND[0],
                       "expected_high": PB4_BAND[1],
                       "optimizer": {"seed": self.opt_seed}}
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "pb4.json"
        self.config_path.write_text(json.dumps(self.config))
        self.out = self.workdir / "out"

    def operation(self):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["pb4", "estimate", str(self.config_path),
                               "--out", str(self.out)])
        return status, {name: (self.out / name).read_bytes()
                        for name in ("report.json", "F.csv", "G.csv")}

    def serialize(self, result):
        status, files = result
        return str(status).encode() + b"".join(files.values())

    def check(self, result):
        status, files = result
        rep = json.loads(files["report.json"])["report"]
        F, G = (np.loadtxt(io.BytesIO(files[n]), delimiter=",", skiprows=1)
                for n in ("F.csv", "G.csv"))
        _, _, hs, hu = ref.prototype_grid(self.n)
        lo, hi = PB4_BAND
        p1 = ref.p1_bracket(F, G, hs, hu)
        bad = ref.mask_violations(F, G, ref.prototype_masks(self.n))
        return [name for name, ok in [
            ("exit code 0", status == 0),
            ("estimate in [3.92, 4.40]", lo <= rep["estimate"] <= hi),
            ("two-grid difference < 0.1",
             rep["two_grid_difference"] < 0.1),
            ("F.csv/G.csv satisfy masks and zero frame: "
             + ", ".join(bad), not bad),
            ("P1 bracket of F.csv/G.csv in [3.92, 4.40]", lo <= p1 <= hi),
        ] if not ok]

    def probe(self):
        """F = 1 on the rows of the ceiling row's parity, projected, with
        G the interpolant: its P1 bracket is 254 at n = 128, so a
        validated value below the band is not an upper estimate."""
        F, G = null_mode_pair(self.n)
        problem = pb4.prototype_problem(self.n)
        return pb4.feasible_pair_value(problem, F, G) >= PB4_BAND[0]


def null_mode_pair(n):
    problem = pb4.prototype_problem(n)
    ceiling_row = int(np.flatnonzero(problem.masks["X1"].any(axis=1))[0])
    F = np.zeros((n, n))
    F[np.arange(n) % 2 == ceiling_row % 2, :] = 1.0
    _, G = pb4.interpolant_pair(problem)
    return pb4.project_fields(problem, F, G)


WORKLOADS = {cls.name: cls for cls in
             (PerturbedChord, WitnessSweep, ScenarioSuite, Pb4TwoGrid)}
