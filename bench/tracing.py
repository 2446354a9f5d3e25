"""Spans and counts at tetralab's layer boundaries, recorded from outside.

``instrument`` replaces public entry points with wrappers for the length
of a ``with`` block, at the names under which their callers look them up
(``dynamics.integrate`` as ``find_chord`` sees it, ``separation`` as
``scenarios`` sees it, ...).  Each wrapper records one span (name, start,
end, parent span) in flat arrays kept in memory; ``Tracer.save`` writes
them out when the run ends and ``layer_metrics`` reduces them to the
benchmark's per-layer metrics.  The program itself is not changed.
"""

import functools
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from tetralab import cli, contact, dynamics, pb4, scenarios

FAILURES = (dynamics.EscapeError, dynamics.StiffnessError)


class Tracer:
    """In-memory span store; span i has parent ``parent[i]`` (-1 at top)."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()

    def current(self):
        """Name of the innermost open span, or ''."""
        return self.names[self.name_of[self.stack[-1]]] if self.stack else ""

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span per call.  ``name`` is a string or a
        function of the enclosing span's name and the call's arguments;
        ``after(result, args, kwargs)`` may add counts once the call
        returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = (name if isinstance(name, str)
                     else name(tracer.current(), args))
            sid = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except FAILURES:
                tracer.counts[label + ".failed"] += 1
                raise
            finally:
                tracer.close(sid)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        name_of, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_of=name_of,
                            parent=parent, start=start, end=end)


def _under(parent_name, child):
    """Span name depending on the caller: ``child`` inside find_chord."""
    def name(current, args):
        return child if current == "dynamics.find_chord" else parent_name
    return name


@contextmanager
def instrument(tracer):
    """Patch tetralab's entry points with ``tracer`` wrappers; restore on
    exit."""
    counts = tracer.counts

    def count_hit(result, args, kwargs):
        counts["contact.membership_hits"] += bool(result)

    def count_starts(report, args, kwargs):
        values = [dict(t)["value"] for t in report.trace]
        counts["pb4.iterations"] += sum(dict(t)["iterations"]
                                        for t in report.trace)
        counts["pb4.starts"] += len(values)
        counts["pb4.start_wins"] += sum(v < values[0] for v in values[1:])

    def count_bytes(path, args, kwargs):
        # only the files this call wrote: the directory may hold older ones
        out = path.parent
        names = ["report.json", *(kwargs.get("csv_files") or {})]
        if kwargs.get("timing") is not None:
            names.append("timing.json")
        counts["cli.output_bytes"] += sum(
            (out / name).stat().st_size for name in names)

    def estimate_name(current, args):
        return f"pb4.estimate_{args[0].window.n_s}"

    targets = [
        # (owner, attribute, span name or namer, after-hook)
        ((dynamics,), "sgrad", "phase_core.sgrad", None),
        ((dynamics,), "integrate", "dynamics.integrate", None),
        ((dynamics, scenarios), "find_chord", "dynamics.find_chord", None),
        ((dynamics,), "deterministic_map",
         _under("dynamics.deterministic_map", "dynamics.sweep"), None),
        ((dynamics,), "pattern_search",
         _under("dynamics.pattern_search", "dynamics.refine"), None),
        ((dynamics,), "_certify", "dynamics.certify", None),
        ((dynamics, scenarios, cli), "separation", "dynamics.separation",
         None),
        ((contact.Region,), "distance", "contact.distance", None),
        ((contact.Region,), "membership", "contact.membership", count_hit),
        ((scenarios,), "calibrate_perturbation", "scenarios.calibrate", None),
        ((pb4, cli), "feasible_pair_value", "pb4.validate", None),
        ((pb4,), "project_fields", "pb4.project", None),
        ((pb4, cli), "estimate_pb4_plus", estimate_name, count_starts),
        ((cli,), "emit_report", "cli.emit", count_bytes),
    ]
    saved = []
    try:
        for owners, attr, name, after in targets:
            fn = getattr(owners[0], attr)
            wrapped = tracer.wrap(fn, name, after)
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer):
    """Per-layer counts and busy times from the recorded spans."""
    name_of, parent, start, end = tracer.arrays()
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name, within=None):
        sel = name_of == ids.get(name, -1)
        return sel if within is None else sel & within

    def under(*ancestors):
        """Spans with an ancestor of one of these names; parents open
        before their children, so one forward pass settles it."""
        anc = {ids[a] for a in ancestors if a in ids}
        par, nid = parent.tolist(), name_of.tolist()
        out = [False] * len(par)
        for i, p in enumerate(par):
            out[i] = p >= 0 and (out[p] or nid[p] in anc)
        return np.array(out, dtype=bool)

    def calls(name, within=None):
        return int(np.count_nonzero(spans(name, within)))

    def busy(name, within=None):
        return float(dur[spans(name, within)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    # estimate spans are named by grid size; the two grids of a two-grid
    # run (128 and 256 in full runs) report as the 128 and 256 metrics
    grids = sorted((n for n in tracer.names if n.startswith("pb4.estimate_")),
                   key=lambda n: int(n.rsplit("_", 1)[1]))
    coarse, fine = (grids + ["", ""])[:2]
    in_refine = under("dynamics.refine")
    in_calibrate = under("scenarios.calibrate")
    in_estimate = under(*grids)
    estimate_s = busy(coarse) + busy(fine)
    return {
        "phase_core.rhs_calls": (calls("phase_core.sgrad"), "count"),
        "phase_core.rhs_s": (busy("phase_core.sgrad"), "s"),
        "dynamics.integrate_calls": (calls("dynamics.integrate"), "count"),
        "dynamics.integrate_s": (busy("dynamics.integrate"), "s"),
        "dynamics.integrate_failed": (c["dynamics.integrate.failed"],
                                      "count"),
        "dynamics.find_chord_s": (busy("dynamics.find_chord"), "s"),
        "dynamics.sweep_s": (busy("dynamics.sweep"), "s"),
        "dynamics.refine_s": (busy("dynamics.refine"), "s"),
        "dynamics.refine_evals": (calls("dynamics.integrate", in_refine),
                                  "count"),
        "dynamics.certify_s": (busy("dynamics.certify"), "s"),
        "dynamics.separation_calls": (calls("dynamics.separation"), "count"),
        "dynamics.separation_s": (busy("dynamics.separation"), "s"),
        "contact.distance_calls": (calls("contact.distance"), "count"),
        "contact.distance_s": (busy("contact.distance"), "s"),
        "contact.membership_calls": (calls("contact.membership"), "count"),
        "contact.membership_hit_ratio": (
            ratio(c["contact.membership_hits"], calls("contact.membership")),
            "ratio"),
        "scenarios.calibrate_s": (busy("scenarios.calibrate"), "s"),
        "scenarios.calibrate_steps": (
            calls("dynamics.separation", in_calibrate), "count"),
        "pb4.estimate_128_s": (busy(coarse), "s"),
        "pb4.estimate_256_s": (busy(fine), "s"),
        "pb4.validate_calls": (calls("pb4.validate"), "count"),
        "pb4.validate_s": (busy("pb4.validate"), "s"),
        "pb4.project_s": (busy("pb4.project"), "s"),
        "pb4.descent_s": (estimate_s - busy("pb4.validate", in_estimate)
                          - busy("pb4.project", in_estimate), "s"),
        "pb4.iterations": (c["pb4.iterations"], "count"),
        "pb4.start_win_ratio": (ratio(c["pb4.start_wins"], c["pb4.starts"]),
                                "ratio"),
        "cli.emit_s": (busy("cli.emit"), "s"),
        "cli.output_bytes": (c["cli.output_bytes"], "B"),
    }
