"""Configuration-driven command line runner with reproducible reports.

One JSON config file describes one command.  Unknown keys are rejected,
and so is a scenario key its kind does not read (``SCENARIO_KEYS``);
CLI ``--set`` flags override leaf keys via dotted paths.  Reports are
written as JSON with stable key order; wall-clock statistics go to a
separate timing file so the scientific report is byte-reproducible.

Exit codes: 0 = pass, 2 = scientific failure (bound violated or target
not found), 1 = usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .contact import (_DEFAULT_R0, _DEFAULT_R1, MEMBER_TOL, build_tetragon,
                      make_model, smooth_tetragon)
from .dynamics import ChordSearchConfig, chord_budget, find_chord, separation
# feasible_pair_value is unused here but patched by bench/tracing.py
from .pb4 import (estimate_pb4_plus, feasible_pair_value,  # noqa: F401
                  prototype_problem)
from .scenarios import (_DEFAULT_BETA, INCREMENT_TOL, SEARCH_KEYS,
                        ConfigError, PerturbationSpec, ScenarioConfig,
                        channel_potential, check_scenario_keys,
                        mechanical_hamiltonian, run_scenario,
                        unstable_hamiltonian)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------

_PERTURBATION_SCHEMA = {"delta_target": float}

_SCENARIO_SCHEMA = {
    "scenario": str, "k": int, "R0": float, "R1": float, "T": float,
    "beta": float, "reeb_model": str,
    "reeb_factor_base": float, "reeb_factor_amp": float,
    "perturbation": _PERTURBATION_SCHEMA,
    "n_seeds": int, "n_phases": int, "ode_tol": float,
}

# The pb4 estimate uses no randomness; optimizer.seed is accepted and
# ignored because existing configs (the benchmark's pb4.json) set it.
_OPTIMIZER_SCHEMA = {"seed": int}

_PB4_SCHEMA = {
    "n": int, "R0": float, "R1": float, "T": float,
    "thicken_radius": int, "two_grid": bool,
    "expected_low": float, "expected_high": float,
    "optimizer": _OPTIMIZER_SCHEMA,
}

_CHORD_SCHEMA = {
    "model": str, "k": int, "R0": float, "R1": float, "T": float,
    "hamiltonian": str, "beta": float, "time_budget": float,
    "n_seeds": int, "n_phases": int, "ode_tol": float,
}

_TETRAGON_SCHEMA = {
    "model": str, "k": int, "R0": float, "R1": float, "T": float,
    "eps": float,
}


def _check_keys(cfg, schema, path=""):
    if not isinstance(cfg, dict):
        raise UsageError(f"config section {path or '<root>'} must be "
                         "an object")
    for key, val in cfg.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise UsageError(f"unknown config key: {here}")
        want = schema[key]
        if isinstance(want, dict):
            _check_keys(val, want, here)
        elif want is float:
            if not isinstance(val, (int, float)) \
                    or isinstance(val, bool):
                raise UsageError(f"config key {here} must be a number")
        elif not isinstance(val, want) or (want is int
                                           and isinstance(val, bool)):
            raise UsageError(
                f"config key {here} must be {want.__name__}"
            )


def _apply_overrides(cfg, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"override {item!r} is not KEY=VALUE")
        dotted, raw = item.split("=", 1)
        target = cfg
        parts = dotted.split(".")
        for p in parts[:-1]:
            target = target.setdefault(p, {})
            if not isinstance(target, dict):
                raise UsageError(f"override path {dotted} crosses a leaf")
        target[parts[-1]] = json.loads(raw) if _is_json(raw) else raw
    return cfg


def _is_json(raw):
    try:
        json.loads(raw)
        return True
    except json.JSONDecodeError:
        return False


def load_config(path, overrides, schema):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"config {path}: parse error at line {exc.lineno}: {exc.msg}"
        )
    cfg = _apply_overrides(cfg, overrides)
    _check_keys(cfg, schema)
    # beyond the schema, only what the scenario kind or Hamiltonian reads
    if schema is _SCENARIO_SCHEMA:
        check_scenario_keys(cfg.get("scenario"), cfg)
    elif schema is _CHORD_SCHEMA:
        _check_chord_hamiltonian(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    return obj


def emit_report(report_payload, out_dir, timing=None, csv_files=None):
    """Write report.json (byte-reproducible), timing.json and CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = _to_jsonable(report_payload)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if timing is not None:
        with open(out / "timing.json", "w", encoding="utf-8") as fh:
            json.dump(_to_jsonable(timing), fh, sort_keys=True, indent=2)
            fh.write("\n")
    for name, (header, rows) in (csv_files or {}).items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header,
                       comments="")
    return out / "report.json"


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_scenario(cfg):
    pert = cfg.get("perturbation")
    kwargs = {k: v for k, v in cfg.items() if k != "perturbation"}
    sc = ScenarioConfig(
        perturbation=PerturbationSpec(**pert) if pert else None,
        **kwargs,
    )
    report = run_scenario(sc)
    payload = {
        "command": "scenario",
        "artifact_version": __version__,
        "config": _to_jsonable(cfg),
        "report": report.describe(),
        "tolerances": {"time": 1e-6, "increment": INCREMENT_TOL},
    }
    return payload, {}, 0 if report.passed else 2


def _cmd_pb4(cfg):
    # the keys the config leaves out keep prototype_problem's defaults
    geometry = {key: cfg[key] for key in ("R0", "R1", "T", "thicken_radius")
                if key in cfg}
    n = cfg.get("n", 128)
    coarse = prototype_problem(n, **geometry)
    report = estimate_pb4_plus(coarse)
    payload = {
        "command": "pb4",
        "artifact_version": __version__,
        "config": _to_jsonable(cfg),
        "report": report.describe(),
        "tolerances": {"feasibility": 1e-12},
    }
    if cfg.get("two_grid"):
        report2 = estimate_pb4_plus(prototype_problem(2 * n, **geometry))
        payload["report"]["two_grid_estimate"] = report2.estimate
        payload["report"]["two_grid_difference"] = abs(
            report2.estimate - report.estimate
        )
    s_nodes = coarse.window.s_nodes()
    csvs = {
        "F.csv": ("s\\u grid", report.F),
        "G.csv": ("s\\u grid", report.G),
        "plot.csv": ("s,F_max_over_u",
                     np.column_stack([s_nodes, report.F.max(axis=1)])),
    }
    status = 0
    lo = cfg.get("expected_low")
    hi = cfg.get("expected_high")
    if lo is not None and report.estimate < lo:
        status = 2
    if hi is not None and report.estimate > hi:
        status = 2
    return payload, csvs, status


# chord find's Hamiltonians on the tetragon's k, R0 and R1; only the
# mechanical one reads beta
_CHORD_HAMILTONIANS = {
    "unstable": lambda tet, cfg: unstable_hamiltonian(tet.model.k),
    "channel": lambda tet, cfg: channel_potential(tet.model.k),
    "mechanical": lambda tet, cfg: mechanical_hamiltonian(
        tet.model.k, cfg.get("beta", _DEFAULT_BETA), tet.R0, tet.R1),
}


def _check_chord_hamiltonian(cfg):
    """A known ``hamiltonian``, and ``beta`` only with the mechanical one."""
    name = cfg.get("hamiltonian", "unstable")
    if name not in _CHORD_HAMILTONIANS:
        raise UsageError(f"unknown hamiltonian {name!r}; "
                         f"choose from {sorted(_CHORD_HAMILTONIANS)}")
    if "beta" in cfg and name != "mechanical":
        raise UsageError(f"hamiltonian {name!r} does not read beta; "
                         "only 'mechanical' does")


def _hamiltonian_for(cfg, tet):
    """The config's Hamiltonian (checked by ``load_config``)."""
    return _CHORD_HAMILTONIANS[cfg.get("hamiltonian", "unstable")](tet, cfg)


def _tetragon_for(cfg):
    """The config's tetragon; T defaults to the model's
    ``default_reeb_time``, as in the scenarios."""
    model = make_model(cfg.get("model", "sphere"), cfg.get("k", 1))
    T = cfg.get("T", model.default_reeb_time)
    return build_tetragon(model, cfg.get("R0", _DEFAULT_R0),
                          cfg.get("R1", _DEFAULT_R1), T)


def _cmd_chord(cfg):
    tet = _tetragon_for(cfg)
    H = _hamiltonian_for(cfg, tet)
    budget = cfg.get("time_budget")
    sep = separation(H, tet.low_wall, tet.high_wall)
    if budget is None:
        budget = chord_budget(tet.kappa, sep.delta)
    search = ChordSearchConfig(
        **{key: cfg[key] for key in SEARCH_KEYS if key in cfg})
    result = find_chord(H, tet.floor, tet.ceiling, budget, search)
    payload = {
        "command": "chord",
        "artifact_version": __version__,
        "config": _to_jsonable(cfg),
        "report": {
            "found": result.found,
            "budget": budget,
            "delta": sep.delta,
            "time_length": result.chord.time_length
            if result.found else None,
            "time_error": result.chord.time_error if result.found else None,
            "best_distance": result.best_distance,
            "n_seeds": result.n_seeds,
            "n_phases": result.n_phases,
            "n_escaped": result.n_escaped,
            "n_stiff": result.n_stiff,
            "n_refine_evals": result.n_refine_evals,
            "n_refine_failed": result.n_refine_failed,
            "n_separation_evals": sep.n_evals,
        },
        "tolerances": {"membership": MEMBER_TOL, "ode": search.ode_tol},
    }
    csvs = {}
    if result.found:
        traj = result.chord.trajectory
        ts = np.linspace(result.chord.t0, result.chord.t1, 200)
        states = traj.sample(ts)
        k = H.chart.dim_pairs
        csvs["trajectory.csv"] = (
            "t," + ",".join(H.chart.labels),
            np.column_stack([ts, states]),
        )
        csvs["plot.csv"] = (
            "t,p_norm",
            np.column_stack([ts, np.linalg.norm(states[:, :k], axis=1)]),
        )
    return payload, csvs, 0 if result.found else 2


def _cmd_tetragon(cfg):
    tet = _tetragon_for(cfg)
    report = tet.describe()
    if "eps" in cfg:
        sm = smooth_tetragon(tet, cfg["eps"])
        report["smoothed"] = {
            "eps": sm.eps,
            "area": sm.area,
            "lagrangian_residual": sm.lagrangian_residual(200),
        }
    payload = {
        "command": "tetragon",
        "artifact_version": __version__,
        "config": _to_jsonable(cfg),
        "report": report,
        "tolerances": {"constraint": 1e-10},
    }
    return payload, {}, 0


_COMMANDS = {
    ("scenario", "run"): (_SCENARIO_SCHEMA, _cmd_scenario),
    ("pb4", "estimate"): (_PB4_SCHEMA, _cmd_pb4),
    ("chord", "find"): (_CHORD_SCHEMA, _cmd_chord),
    ("tetragon", "build"): (_TETRAGON_SCHEMA, _cmd_tetragon),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tetralab",
        description="Lagrangian tetragon laboratory: chord searches, "
                    "separation bounds and bracket-invariant estimation",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for group, action in list(_COMMANDS) + [("validate", "config")]:
        if group not in groups:
            gp = sub.add_parser(group)
            groups[group] = gp.add_subparsers(dest="action", required=True)
        ap = groups[group].add_parser(action)
        ap.add_argument("config", help="JSON config file")
        ap.add_argument("--set", action="append", dest="overrides",
                        metavar="KEY=VALUE",
                        help="override a config key via dotted path")
        ap.add_argument("--out", default=None, help="output directory")
        if group == "validate":
            ap.add_argument("--command", default="scenario",
                            choices=[g for g, _ in _COMMANDS],
                            help="schema to validate against")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get("TETRALAB_OUT", ".")
    try:
        if args.group == "validate":
            schema = {g: sch for (g, _), (sch, _)
                      in _COMMANDS.items()}[args.command]
            load_config(args.config, args.overrides, schema)
            print(f"config valid for command {args.command!r}")
            return 0
        schema, runner = _COMMANDS[(args.group, args.action)]
        cfg = load_config(args.config, args.overrides, schema)
        start = time.monotonic()
        payload, csvs, status = runner(cfg)
        elapsed = time.monotonic() - start
        path = emit_report(
            payload, out_dir,
            timing={"wall_clock_seconds": elapsed},
            csv_files={
                name: (hdr, np.atleast_2d(rows))
                for name, (hdr, rows) in csvs.items()
            },
        )
        print(f"report written to {path} (exit {status})")
        return status
    except (UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
