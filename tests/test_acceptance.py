"""End-to-end acceptance suite.

Each test prints a single machine-readable pass/fail line for its
criterion.  The heavy computations come from session fixtures (computed
once, wall-clock timed); the determinism criterion re-runs each pipeline
and compares serialized outputs byte-for-byte across a repeat run in
this process and a run in a fresh interpreter with another hash seed.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tetralab.contact import (CircleModel, SphereModel, TorusModel,
                              build_tetragon, smooth_tetragon)
from tetralab.dynamics import (ChordSearchConfig, find_chord, integrate,
                               separation)
from tetralab.pb4 import (estimate_pb4_plus, feasible_pair_value,
                          prototype_hamiltonian_pair, prototype_problem,
                          wall_witness)
from tetralab.phase_core import PhaseChart, poisson_bracket, volume_factor
from tetralab.scenarios import (PerturbationSpec, ScenarioConfig,
                                add_hamiltonians, mechanical_hamiltonian,
                                run_scenario, unstable_hamiltonian,
                                wall_perturbation)

from conftest import (fd_bracket_spec, gaussian_hamiltonian,
                      polynomial_hamiltonian, scenario_payload)


@pytest.fixture
def report_line(capsys):
    def emit(number, description, checks):
        failed = [name for name, ok in checks if not ok]
        status = "PASS" if not failed else "FAIL"
        detail = "" if not failed else " [" + ", ".join(failed) + "]"
        with capsys.disabled():
            print(f"[{status}] criterion {number}: {description}{detail}")
        assert not failed, f"criterion {number} failed: {failed}"

    return emit


def test_criterion_1_unstable_equilibrium(unstable_run, report_line):
    rep = unstable_run.value
    checks = [
        ("chord found", rep.found),
        ("time within 1e-4 of half ln 2",
         rep.time_length is not None
         and abs(rep.time_length - 0.5 * math.log(2)) <= 1e-4),
        ("time at most pi/4",
         rep.time_length is not None
         and rep.time_length <= math.pi / 4 + 1e-9),
        ("norm increment sqrt(2)-1 within 1e-6",
         rep.increment is not None
         and abs(rep.increment - (math.sqrt(2) - 1)) <= 1e-6),
        ("runtime under 1 s", unstable_run.elapsed < 1.0),
    ]
    report_line(1, "unstable equilibrium chord", checks)


def test_criterion_2_perturbed_walls(perturbed_run, report_line):
    rep = perturbed_run.value
    checks = [
        ("chord found", rep.found),
        ("measured perturbation 0.25 within 0.01",
         abs(rep.delta_perturbation - 0.25) <= 0.01),
        ("time at most pi/3",
         rep.time_length is not None
         and rep.time_length <= math.pi / 3 + 1e-6),
        ("far bump 10x wall amplitude",
         rep.details.get("away_factor") == 10.0),
        ("runtime under 30 s", perturbed_run.elapsed < 30.0),
    ]
    report_line(2, "wall-perturbed unstable equilibrium", checks)


def test_criterion_3_momentum_channel(channel_run_k1, channel_run_k2,
                                      report_line):
    r1 = channel_run_k1.value
    r2 = channel_run_k2.value
    checks = [
        ("planar chord found", r1.found),
        ("planar time 1/(2 pi) within 1e-6",
         r1.time_length is not None
         and abs(r1.time_length - 1.0 / (2 * math.pi)) <= 1e-6),
        ("planar time within budget 0.25",
         r1.time_length is not None and r1.time_length <= 0.25 + 1e-9),
        ("momentum increment 1 within 1e-6",
         r1.increment is not None and abs(r1.increment - 1.0) <= 1e-6),
        ("planar runtime under 1 s", channel_run_k1.elapsed < 1.0),
        ("torus k=2 budget pass", r2.passed),
        ("torus runtime under 60 s", channel_run_k2.elapsed < 60.0),
    ]
    report_line(3, "momentum channel chords (k=1, k=2)", checks)


def test_criterion_4_mechanical(mechanical_run, report_line):
    rep = mechanical_run.value
    checks = [
        ("chord found", rep.found),
        ("separation 1 within 1e-3",
         abs(rep.delta_separation - 1.0) <= 1e-3),
        ("time at most pi/4",
         rep.time_length is not None
         and rep.time_length <= math.pi / 4 + 1e-6),
        ("runtime under 10 s", mechanical_run.elapsed < 10.0),
    ]
    report_line(4, "mechanical Hamiltonian chord", checks)


def test_criterion_5_bracket_invariant(pb4_runs, report_line):
    r128, r256 = pb4_runs.value
    problem = prototype_problem(128)
    validated = feasible_pair_value(problem, r128.F, r128.G)
    checks = [
        ("estimate in [3.92, 4.40]", 3.92 <= r128.estimate <= 4.40),
        ("estimate is a validated feasible value",
         validated == r128.estimate),
        ("two-grid difference under 0.1",
         abs(r256.estimate - r128.estimate) < 0.1),
        ("runtime under 60 s", pb4_runs.elapsed < 60.0),
    ]
    report_line(5, "bracket-invariant estimate on the prototype", checks)


def test_criterion_6_wall_witness(witness_run, report_line):
    ww, search, sep = witness_run.value
    checks = [
        ("no wall-to-wall chord within the shortened budget",
         not search.found),
        ("exhaustive sweep at resolution 1e-3",
         search.n_seeds == 1001),
        ("profile reaches 1 at the outer radius",
         abs(ww.profile(ww.R1) - 1.0) <= 1e-12),
        ("slope bound 1/(R1-R0) + delta2 holds",
         ww.max_slope <= 1.0 / (ww.R1 - ww.R0) + ww.delta2),
        ("1-separates floor from ceiling",
         abs(sep.delta - 1.0) <= 1e-9),
        ("runtime under 5 s", witness_run.elapsed < 5.0),
    ]
    report_line(6, "wall witness non-existence and separation", checks)


def test_criterion_7_reeb_chords(reeb_run, reeb_constant_run,
                                 report_line):
    rep = reeb_run.value
    const = reeb_constant_run.value
    T = math.pi / 4
    checks = [
        ("modulated chord found", rep.found),
        ("modulated time at most T/1.2",
         rep.time_length is not None
         and rep.time_length <= T / 1.2 + 1e-6),
        ("swept minimum of the factor is 1.2",
         abs(rep.details["C"] - 1.2) <= 1e-9),
        ("constant factor matches T/c to 1e-8",
         const.time_length is not None
         and abs(const.time_length - T / 1.5) <= 1e-8),
        ("runtime under 5 s",
         reeb_run.elapsed + reeb_constant_run.elapsed < 5.0),
    ]
    report_line(7, "rescaled Reeb-flow chords", checks)


# ---------------------------------------------------------------------------
# Criterion 8: invariant property suites
# ---------------------------------------------------------------------------

def _check_bracket_identities():
    chart = PhaseChart(dim_pairs=2)
    rng = np.random.default_rng(80)
    specs = [
        polynomial_hamiltonian(
            chart, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        for _ in range(3)
    ]
    F, G, H = specs
    GH, HF, FG = (fd_bracket_spec(G, H), fd_bracket_spec(H, F),
                  fd_bracket_spec(F, G))
    anti_ok, jacobi_ok = True, True
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 4)
        anti_ok &= poisson_bracket(F, G, x) == -poisson_bracket(G, F, x)
        total = (poisson_bracket(F, GH, x) + poisson_bracket(G, HF, x)
                 + poisson_bracket(H, FG, x))
        jacobi_ok &= abs(total) <= 1e-5
    return anti_ok, jacobi_ok


def _check_volume_identity():
    chart = PhaseChart(dim_pairs=2)
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(1000):
        F = polynomial_hamiltonian(
            chart, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        G = polynomial_hamiltonian(
            chart, (rng.standard_normal((4, 4)), rng.standard_normal(4))
        )
        x = rng.standard_normal(4)
        vf = volume_factor(F, G, float(rng.uniform(-0.3, 0.3)), x)
        worst = max(worst, abs(vf.det_ratio - vf.analytic))
    return worst


def _check_energy_drift():
    worst = 0.0
    for H, x0 in [
        (polynomial_hamiltonian(PhaseChart(dim_pairs=1),
                                (0.5 * np.eye(2), [0.0, 0.0])),
         [1.0, 0.0]),
        (mechanical_hamiltonian(1, beta=0.5), [0.4, 1.2]),
    ]:
        traj = integrate(H, x0, 0.0, 10.0, tol=1e-12)
        e0 = H(traj(0.0))
        worst = max(
            worst,
            max(abs(H(traj(t)) - e0)
                for t in np.linspace(0.0, 10.0, 101)),
        )
    return worst


def _check_lagrangian_residuals():
    worst = 0.0
    for model in (CircleModel(), TorusModel(2), SphereModel(1),
                  SphereModel(2)):
        T = 0.25 if model.kind != "sphere" else math.pi / 4
        tet = build_tetragon(model, 1.0, 2.0, T)
        worst = max(worst,
                    smooth_tetragon(tet, 0.05).lagrangian_residual(250))
    return worst


def _check_mean_value():
    F, G = prototype_hamiltonian_pair(T=0.25)
    tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
    res = find_chord(G, tet.floor, tet.ceiling, 0.5)
    if not res.found:
        return False
    tau = res.chord.time_length
    ts = np.linspace(res.chord.t0, res.chord.t1, 101)
    best = max(poisson_bracket(F, G, res.chord.trajectory(t))
               for t in ts)
    return best >= 1.0 / tau - 1e-6


def _check_robustness_inequality():
    """Delta(G+F) >= Delta(G) - |Delta(F)| for 50 random bump fields.

    The inequality holds exactly for true extrema; the sampled version
    is compared both on a shared fixed grid (exact) and through the
    refining estimator (up to refinement error)."""
    chart = PhaseChart(dim_pairs=1)
    G = unstable_hamiltonian(1)
    tet = build_tetragon(SphereModel(1), 1.0, 2.0, math.pi / 4)
    Y0, Y1 = tet.low_wall, tet.high_wall
    grid = Y0.sample_points(64), Y1.sample_points(64)
    rng = np.random.default_rng(82)
    delta_G = separation(G, Y0, Y1, n_samples=64).delta
    ok = True
    for _ in range(50):
        F = gaussian_hamiltonian(
            chart,
            centers=rng.uniform(-1.5, 1.5, (3, 2)),
            widths=rng.uniform(0.2, 0.6, 3),
            amps=rng.uniform(-0.5, 0.5, 3),
        )
        GF = add_hamiltonians(G, F)
        # exact finite-sample version on a shared grid
        lo = min(GF(x) for x in grid[1]) - max(GF(x) for x in grid[0])
        gl = min(G(x) for x in grid[1]) - max(G(x) for x in grid[0])
        fl = min(F(x) for x in grid[1]) - max(F(x) for x in grid[0])
        ok &= lo >= gl + fl - 1e-12
        # refined estimator version, up to refinement error
        d_gf = separation(GF, Y0, Y1, n_samples=64).delta
        d_f = separation(F, Y0, Y1, n_samples=64).delta
        ok &= d_gf >= delta_G - abs(d_f) - 1e-6
    return ok


def test_criterion_8_property_suites(pb4_runs, pb4_property_runs,
                                     report_line):
    anti_ok, jacobi_ok = _check_bracket_identities()
    r128 = pb4_runs.value[0]
    checks = [
        ("bracket antisymmetry exact", anti_ok),
        ("Jacobi identity within 1e-5", jacobi_ok),
        ("volume identity within 1e-8 at 1000 points",
         _check_volume_identity() <= 1e-8),
        ("energy drift within 1e-8 over [0, 10]",
         _check_energy_drift() <= 1e-8),
        ("Lagrangian residual within 1e-8 for all models",
         _check_lagrangian_residuals() <= 1e-8),
        ("estimator invariant under relabeling",
         pb4_property_runs["relabeled"].estimate == r128.estimate),
        ("estimator monotone under mask shrinking",
         pb4_property_runs["shrunk"].estimate <= r128.estimate),
        ("estimator monotone under mask thickening",
         pb4_property_runs["thickened"].estimate >= r128.estimate),
        ("mean-value bound along the prototype chord",
         _check_mean_value()),
        ("robustness inequality on 50 perturbations",
         _check_robustness_inequality()),
    ]
    report_line(8, "invariant property suites", checks)


# ---------------------------------------------------------------------------
# Criterion 9: determinism
# ---------------------------------------------------------------------------

def _scenario_runner(**kwargs):
    def run():
        return scenario_payload(run_scenario(ScenarioConfig(**kwargs)))

    return run


def _pb4_runner():
    blobs = []
    for n in (128, 256):
        rep = estimate_pb4_plus(prototype_problem(n))
        blobs.append((rep.estimate, rep.F.tobytes(), rep.G.tobytes()))
    return blobs


def _witness_runner():
    ww = wall_witness(1.0, 2.0, delta2=0.01)
    tet = build_tetragon(CircleModel(), 1.0, 2.0, 0.25)
    res = find_chord(ww.hamiltonian(), tet.high_wall, tet.low_wall,
                     0.25 / 1.01 - 0.01, ChordSearchConfig(n_seeds=1001))
    sep = separation(ww.hamiltonian(), tet.floor, tet.ceiling)
    return (res.found, res.best_distance, sep.delta, ww.max_slope)


DETERMINISM_RUNNERS = [
    ("unstable equilibrium",
     _scenario_runner(scenario="unstable_equilibrium")),
    ("perturbed walls",
     _scenario_runner(scenario="unstable_equilibrium",
                      perturbation=PerturbationSpec())),
    ("channel k=1", _scenario_runner(scenario="superconductivity", k=1)),
    ("channel k=2", _scenario_runner(scenario="superconductivity", k=2)),
    ("mechanical", _scenario_runner(scenario="mechanical")),
    ("reeb chords", _scenario_runner(scenario="reeb_chord")),
    ("bracket estimate", _pb4_runner),
    ("wall witness", _witness_runner),
]


def payload_digest(payload):
    """sha256 of the payload's repr (exact for floats and bytes)."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# prints {runner name: payload digest} as one JSON line
_FRESH_RUN = (
    "import json, test_acceptance as t; print(json.dumps("
    "{name: t.payload_digest(run()) for name, run in t.DETERMINISM_RUNNERS}))"
)


def test_criterion_9_determinism(report_line):
    # A fresh interpreter with a fixed, non-default hash seed catches
    # dependence on string-hash order or on process-global state, which no
    # in-process repeat can.  It starts first so that it runs alongside
    # the in-process runs.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED="2718",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                           str(here)]))
    fresh = subprocess.Popen([sys.executable, "-c", _FRESH_RUN], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    repeats, digests = {}, {}
    try:
        for name, run in DETERMINISM_RUNNERS:
            first = run()
            repeats[name] = run() == first
            digests[name] = payload_digest(first)
        out, err = fresh.communicate(timeout=600)
    finally:
        fresh.kill()
    assert fresh.returncode == 0, err
    fresh_digests = json.loads(out.splitlines()[-1])
    checks = []
    for name, _ in DETERMINISM_RUNNERS:
        checks.append((f"{name}: repeat run identical", repeats[name]))
        checks.append((f"{name}: fresh interpreter identical",
                       fresh_digests.get(name) == digests[name]))
    report_line(9, "byte-identical reproducibility", checks)
