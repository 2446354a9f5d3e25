"""Configuration-driven command line runner with reproducible reports.

Commands: ``scenario run`` (the chord search; a found chord also writes
``trajectory.csv`` and ``plot.csv``), ``pb4 estimate``, ``tetragon build``
and ``validate config``.  One JSON config file describes one command.
Unknown keys are rejected, and so is a scenario key its kind does not
read (``SCENARIO_KEYS``); CLI ``--set`` flags override leaf keys via
dotted paths.  Reports are
written as JSON with stable key order; wall-clock statistics go to a
separate timing file so the scientific report is byte-reproducible.

Exit codes: 0 = pass, 2 = scientific failure (bound violated or target
not found), 1 = usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .contact import (_DEFAULT_R0, _DEFAULT_R1, build_tetragon, make_model,
                      smooth_tetragon)
# separation is unused here but patched by bench/tracing.py
from .dynamics import separation  # noqa: F401
# feasible_pair_value is unused here but patched by bench/tracing.py
from .pb4 import (BLOCK_CELLS, FEASIBILITY_TOL,  # noqa: F401
                  estimate_pb4_plus, feasible_pair_value, prototype_problem)
from .scenarios import (INCREMENT_TOL, TIME_TOL, ConfigError, PerturbationSpec,
                        ScenarioConfig, check_scenario_keys, run_scenario)


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

_TETRAGON_SCHEMA = {
    "model": str, "k": int, "R0": float, "R1": float, "T": float,
    "eps": float,
}


def _check_keys(cfg, schema, path=""):
    if not isinstance(cfg, dict):  # load_config checks the root
        raise UsageError(f"config section {path} must be an object")
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
    if not isinstance(cfg, dict):  # before an override indexes into it
        raise UsageError("config section <root> must be an object")
    cfg = _apply_overrides(cfg, overrides)
    _check_keys(cfg, schema)
    # beyond the schema, only what the scenario kind reads
    if schema is _SCENARIO_SCHEMA:
        check_scenario_keys(cfg.get("scenario"), cfg)
    elif schema is _PB4_SCHEMA:
        _check_pb4_band(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _json_default(obj):
    """``json.dump``'s fallback for an array or a numpy scalar (a float64
    is a float and never gets here): its ``tolist()``."""
    return obj.tolist()


def write_csv(fh, header, rows):
    """Write ``rows`` (a 1-D array is one row) under ``header``: the
    bytes of NumPy's text writer with ``fmt="%.17g"``, ``delimiter=","``
    and ``comments=""``, written a block of about ``pb4.BLOCK_CELLS``
    values (whole rows, at least one) at a time.  A row whose float64
    bits equal the row above it in its block is written as that row's
    line; the new rows' distinct bit patterns are formatted once each.
    Keying on the bits, not the value, keeps ``-0`` apart from ``0``
    and gives every NaN a key of its own."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if header:
        fh.write(header + "\n")
    step = max(1, BLOCK_CELLS // max(1, rows.shape[1]))
    for block in (rows[i:i + step] for i in range(0, len(rows), step)):
        bits = block.view(np.int64)
        new = np.ones(len(bits), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        fresh = bits[new]
        keys, inverse = np.unique(fresh, return_inverse=True)
        text = ("%.17g," * keys.size) % tuple(keys.view(np.float64).tolist())
        cells = np.array(text.split(",")[:-1], dtype=object)
        lines = [",".join(row) + "\n"
                 for row in cells[inverse.reshape(fresh.shape)].tolist()]
        fh.write("".join(map(lines.__getitem__,
                             (np.cumsum(new) - 1).tolist())))


def emit_report(report_payload, out_dir, timing=None, csv_files=None):
    """Write report.json (byte-reproducible), the CSVs, then timing.json.

    Each CSV is ``header`` and then one line per row of ``%.17g`` values
    (an exact round trip, with ``-0``, ``nan`` and ``inf`` spelled as
    written), written in row blocks, each distinct value of a block's
    new rows formatted once and a row repeating the one above written
    as its line (``write_csv``).
    ``timing.json`` gets ``csv_seconds``, the time spent writing them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_payload, fh, sort_keys=True, indent=2,
                  default=_json_default)
        fh.write("\n")
    start = time.monotonic()
    for name, (header, rows) in (csv_files or {}).items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(fh, header, rows)
    if timing is not None:
        timing = {**timing, "csv_seconds": time.monotonic() - start}
        with open(out / "timing.json", "w", encoding="utf-8") as fh:
            json.dump(timing, fh, sort_keys=True, indent=2,
                      default=_json_default)
            fh.write("\n")
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
    result = report.search  # None for Reeb chords, which run no search
    payload = {
        "command": "scenario",
        "artifact_version": __version__,
        "config": cfg,
        "report": report.describe(),
        "search": None if result is None else {
            key: getattr(result, key) for key in
            ("best_distance", "n_seeds", "n_phases", "n_escaped", "n_stiff")},
        "tolerances": {"time": TIME_TOL, "increment": INCREMENT_TOL},
    }
    csvs = {}
    if result is not None and result.found:
        traj = result.chord.trajectory
        ts = np.linspace(traj.t0, traj.t1, 200)
        states = traj.sample(ts)
        k = traj.chart.dim_pairs
        csvs["trajectory.csv"] = (
            "t," + ",".join(traj.chart.labels),
            np.column_stack([ts, states]),
        )
        csvs["plot.csv"] = (
            "t,p_norm",
            np.column_stack([ts, np.linalg.norm(states[:, :k], axis=1)]),
        )
    return payload, csvs, 0 if report.passed else 2


def _cmd_pb4(cfg):
    # the keys the config leaves out keep prototype_problem's defaults
    geometry = {key: cfg[key] for key in ("R0", "R1", "T", "thicken_radius")
                if key in cfg}
    n = cfg.get("n", 128)
    coarse = prototype_problem(n, **geometry)
    # the fine grid first, keeping its value only, frees its fields
    fine = (estimate_pb4_plus(prototype_problem(2 * n, **geometry)).estimate
            if cfg.get("two_grid") else None)
    report = estimate_pb4_plus(coarse)
    payload = {
        "command": "pb4",
        "artifact_version": __version__,
        "config": cfg,
        "report": report.describe(),
        "tolerances": {"feasibility": FEASIBILITY_TOL},
    }
    if fine is not None:
        payload["report"]["two_grid_estimate"] = fine
        payload["report"]["two_grid_difference"] = abs(fine - report.estimate)
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


def _check_pb4_band(cfg):
    """An expected band whose bounds are numbers (``±Infinity`` means no
    bound) with ``expected_low <= expected_high``: a NaN bound would
    pass every estimate, and an inverted band none."""
    lo = cfg.get("expected_low", -math.inf)
    hi = cfg.get("expected_high", math.inf)
    for key, bound in (("expected_low", lo), ("expected_high", hi)):
        if math.isnan(bound):
            raise UsageError(f"config key {key} must not be NaN")
    if lo > hi:
        raise UsageError(f"expected_low {lo} exceeds expected_high {hi}")


def _tetragon_for(cfg):
    """The config's tetragon; T defaults to the model's
    ``default_reeb_time``, as in the scenarios."""
    model = make_model(cfg.get("model", "sphere"), cfg.get("k", 1))
    T = cfg.get("T", model.default_reeb_time)
    return build_tetragon(model, cfg.get("R0", _DEFAULT_R0),
                          cfg.get("R1", _DEFAULT_R1), T)


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
        "config": cfg,
        "report": report,
        "tolerances": {},
    }
    return payload, {}, 0


_COMMANDS = {
    ("scenario", "run"): (_SCENARIO_SCHEMA, _cmd_scenario),
    ("pb4", "estimate"): (_PB4_SCHEMA, _cmd_pb4),
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
            csv_files=csvs,
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
