"""tetralab benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S
    python3 bench/run.py --self-check

Run from the root of a source checkout; tetralab is imported from its
``src/``.  A run repeats whole rounds of the workload's operations (for
``pb4_two_grid`` a round is the estimate plus the null-mode probe) until
``--seconds`` have passed, checks every output, and prints as its last
stdout line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median operation
wall time), ``setup_s`` (median, over fresh interpreters, of the time from
process start to the end of building the inputs) and ``peak_rss_mb``.
Both times are scaled to a nominal machine speed measured in the same run
(see ``speed``); stderr shows the wall times and the scale factor.
``--trace 1`` alternates untraced rounds with rounds under the tracing
wrappers and reports the per-layer metrics of the first traced round plus
``trace.overhead_s``; its spans go to ``.bench_out/trace-*.npz``.
``--workload all`` runs every workload in a process of its own and prints
one summary line each.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="every check and the traced path at small sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    return args


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed, operation times (untraced and
    traced), check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_times = []
        self.traced_times = []
        self.first_blob = None
        self.problems = []


def stopwatch(fn):
    """``fn()`` and its wall time."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_round(wl, tally, times):
    """One round: the timed operation (its time goes to ``times``), its
    checks, then the probe."""
    tally.attempted += 1
    try:
        wl.speed.sample()
        result, wall = stopwatch(wl.operation)
        wl.speed.sample()
    except Exception:  # a failed operation is counted, the run goes on
        tally.failed += 1
        log(f"{wl.name}: operation failed\n{traceback.format_exc()}")
    else:
        times.append(wall)
        blob = wl.serialize(result)
        if tally.first_blob is None:
            tally.first_blob = blob
        elif blob != tally.first_blob:
            tally.problems.append("report differs from the first repeat")
        tally.problems.extend(wl.check(result))
        log(f"{wl.name}: operation {wall:.3f} s wall")
    if wl.has_probe:
        tally.attempted += 1
        try:
            ok = wl.probe()
        except Exception:
            ok = False
            log(f"{wl.name}: probe raised\n{traceback.format_exc()}")
        if not ok:
            tally.failed += 1


def run_for(wl, tally, seconds):
    start = time.perf_counter()
    while True:
        run_round(wl, tally, tally.op_times)
        if time.perf_counter() - start >= seconds:
            return


def run_traced(wl, tally, seconds, tracing):
    """Untraced and traced rounds in turn until ``seconds`` have passed.

    Neighbouring rounds see the same machine speed, so the difference of
    the two sides' median times is the tracing overhead.  The per-layer
    metrics come from the first traced round alone, so that its counts
    repeat exactly from run to run; its tracer is returned.
    """
    first = None
    start = time.perf_counter()
    while True:
        run_round(wl, tally, tally.op_times)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            run_round(wl, tally, tally.traced_times)
        if first is None:
            first = tracer
        if time.perf_counter() - start >= seconds:
            return first


def setup_samples(args, reference):
    """Time from spawning a fresh interpreter to the end of its set-up,
    SETUP_REPEATS times, each between two samples of ``reference``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        reference.sample()
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT)
        out.append(float(proc.stdout.split()[-1]) - t0)
        reference.sample()
        log(f"{args.workload}: setup {out[-1]:.3f} s wall")
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def benchmark(args, workloads):
    cls = workloads.WORKLOADS[args.workload]
    # importing is interpreter-bound: set-up is scaled by the ODE reference
    setup_speed = workloads.speed.Reference(workloads.speed.ode)
    setups = [] if args.trace else setup_samples(args, setup_speed)
    wl = cls(args.seed, False, OUT / f"{args.workload}-{os.getpid()}")
    try:
        wl.setup()
        tally = Tally()
        if args.trace:
            import tracing
            tracer = run_traced(wl, tally, args.seconds, tracing)
        else:
            run_for(wl, tally, args.seconds)
        if not (tally.op_times and (tally.traced_times or not args.trace)):
            log(f"{wl.name}: no operation succeeded")
            return 1
        factor = wl.speed.factor()
        log(f"{wl.name}: speed factor {factor:.4f}")
        op_s = statistics.median(tally.op_times) * factor
        if args.trace:
            tracer.save(str(OUT / f"trace-{args.workload}-seed{args.seed}"))
            layers = tracing.layer_metrics(tracer)
            overhead = statistics.median(tally.traced_times) * factor - op_s
            layers["trace.overhead_s"] = (overhead, "s")
            metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"op_s": metric(op_s, "s"),
                       "setup_s": metric(statistics.median(setups)
                                         * setup_speed.factor(), "s"),
                       "peak_rss_mb": metric(rss_mb, "MB")}
    finally:
        wl.cleanup()
    for problem in dict.fromkeys(tally.problems):
        log(f"{wl.name}: check failed: {problem}")
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(args, names):
    """Every workload in its own process, one summary line each."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        if proc.returncode:
            log(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{name}: correct {res['correct']}, attempted "
              f"{res['attempted']}, failed {res['failed']}; {shown}")
    return status


def setup_only(args, workloads):
    wl = workloads.WORKLOADS[args.workload](
        args.seed, False, OUT / f"setup-{os.getpid()}")
    try:
        wl.setup()
        print(time.monotonic(), flush=True)
    finally:
        wl.cleanup()
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tetralab" / "__init__.py").is_file():
        log(f"error: no tetralab sources under {SRC}; run from a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.self_check:
        import selfcheck
        return selfcheck.main(OUT)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}")
        return 2
    if args.setup_only:
        return setup_only(args, workloads)
    return benchmark(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
