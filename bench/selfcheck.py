"""Quick self-check: every correctness check and the traced path, at small
sizes, plus the reference computations against known values.

    python3 bench/run.py --self-check

Exits 0 when everything holds; prints one line per item to stderr.
"""

import sys

import numpy as np

import reference as ref
import tracing
import workloads
from tetralab import pb4

# counts each workload's traced round must make at small sizes
EXPECTED_NONZERO = {
    "perturbed_chord": ("phase_core.rhs_calls", "dynamics.integrate_calls",
                        "dynamics.refine_evals", "scenarios.calibrate_steps",
                        "contact.membership_calls"),
    "witness_sweep": ("phase_core.rhs_calls", "contact.distance_calls",
                      "dynamics.separation_calls"),
    "scenario_suite": ("phase_core.rhs_calls", "dynamics.refine_evals",
                       "dynamics.separation_calls"),
    "pb4_two_grid": ("pb4.validate_calls", "pb4.iterations",
                     "cli.output_bytes"),
}


def _reference_items():
    items = []
    for n in (32, 128):
        ours = ref.prototype_masks(n)
        theirs = pb4.prototype_problem(n).masks
        items.append((f"reference masks equal the program's at n={n}",
                      all(np.array_equal(ours[k], theirs[k]) for k in ours)))
    problem = pb4.prototype_problem(128)
    _, _, hs, hu = ref.prototype_grid(128)
    F, G = pb4.interpolant_pair(problem)
    items.append(("P1 bracket of the n=128 interpolant is 4.031746",
                  abs(ref.p1_bracket(F, G, hs, hu) - 4.031746) < 1e-6))
    F, G = workloads.null_mode_pair(128)
    items.append(("null-mode pair: P1 bracket 254",
                  abs(ref.p1_bracket(F, G, hs, hu) - 254.0) < 1e-9))
    bad = ref.mask_violations(F, G, ref.prototype_masks(128))
    items.append(("null-mode pair is feasible (validated value "
                  f"{pb4.feasible_pair_value(problem, F, G)}) {bad or ''}",
                  not bad))
    items.append(("Reeb quadrature at a constant factor c equals T/c",
                  np.allclose(ref.reeb_sphere_times(0.5, 1.5, 0.0),
                              [0.5 / 1.5] * 2, atol=1e-13)))
    return items


def _workload_items(cls, seed, out):
    wl = cls(seed, True, out / f"selfcheck-{cls.name}-{seed}")
    items = []
    try:
        wl.setup()
        plain = wl.operation()
        bad = wl.check(plain)
        items.append((f"{cls.name} seed {seed}: checks pass "
                      f"{'(' + '; '.join(bad) + ')' if bad else ''}",
                      not bad))
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced = wl.operation()
            wl.probe()
        items.append((f"{cls.name} seed {seed}: traced report identical",
                      wl.serialize(traced) == wl.serialize(plain)))
        layers = tracing.layer_metrics(tracer)
        zero = [k for k in EXPECTED_NONZERO[cls.name] if not layers[k][0]]
        items.append((f"{cls.name} seed {seed}: traced counts nonzero "
                      f"{zero or ''}", not zero))
        if wl.has_probe:
            items.append((f"{cls.name}: null-mode probe still fails",
                          not wl.probe()))
    finally:
        wl.cleanup()
    return items


def main(out):
    items = _reference_items()
    for cls in workloads.WORKLOADS.values():
        for seed in (0, 1):
            items.extend(_workload_items(cls, seed, out))
    for name, ok in items:
        print(f"[{'ok' if ok else 'FAIL'}] {name}", file=sys.stderr)
    failed = sum(not ok for _, ok in items)
    print(f"self-check: {len(items) - failed}/{len(items)} passed",
          file=sys.stderr)
    return 1 if failed else 0
