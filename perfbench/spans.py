"""Span recording at vortexblob's module boundaries, from outside the package.

The traced run replaces the names each module imports from the layer below
(``vortexblob.integrators.rhs``, ``vortexblob.conservative.c_tau``, ...) with
wrappers that record one span per call, and puts the originals back when it
ends.  Spans stay in memory and are written once, after the run.

A span is ``[name, start, end, parent, op, a, b, c]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the identifier of the benchmark
operation it belongs to, and ``a``, ``b``, ``c`` counts read from the call's
arguments (elements, pairs, branch counts; see ``TARGETS``).
"""

from __future__ import annotations

import csv
import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from vortexblob.conservative import DEFAULT_CTAU
from vortexblob.expint import CUTOFF

COUNT_SPAN = "trace.count"


def _size(x, *args, **kwargs):
    return (int(np.size(x)), 0, 0)


def _vortices(system, *args, **kwargs):
    return (int(system.size), 0, 0)


def _field_points(system, state, z, *args, **kwargs):
    return (int(np.atleast_2d(z).shape[0]), int(system.size), 0)


def _c_tau_branches(m, xi_k, xi_k1, params=None):
    eps = (params or DEFAULT_CTAU).epsilon_switch
    xi_k, xi_k1 = np.broadcast_arrays(np.asarray(xi_k, float), np.asarray(xi_k1, float))
    taylor = np.abs(xi_k1 / xi_k - 1.0) <= eps
    far = (xi_k > CUTOFF) & (xi_k1 > CUTOFF)
    return (int(xi_k.size), int(taylor.sum()), int(far.sum()))


# (module, attribute, span name, counter).  Every module-level name through
# which one layer calls another in the benchmark's workloads.
TARGETS = (
    ("vortexblob.model", "exp_integral_e1", "expint.e1", _size),
    ("vortexblob.conservative", "exp_integral_e1", "expint.e1", _size),
    ("vortexblob.conservative", "c_tau", "conservative.c_tau", _c_tau_branches),
    ("vortexblob.conservative", "dmm_rhs", "conservative.dmm_rhs", _vortices),
    ("vortexblob.integrators", "dmm_step", "conservative.dmm_step", _vortices),
    ("vortexblob.integrators", "rhs", "model.rhs", _vortices),
    ("vortexblob.integrators", "conserved", "model.conserved", _vortices),
    ("vortexblob.reference", "velocity_field", "model.velocity_field", _field_points),
    ("vortexblob.cli", "init_grid", "model.init_grid", None),
    # rk4_step is also reached by dmm_step's lazy import of the integrators module.
    ("vortexblob.integrators", "rk4_step", "integrators.rk4_step", _vortices),
    ("vortexblob.integrators", "rm2_step", "integrators.rm2_step", _vortices),
    ("vortexblob.integrators", "rm4_step", "integrators.rm4_step", _vortices),
    ("vortexblob.integrators", "imm_step", "integrators.imm_step", _vortices),
    ("vortexblob.integrators", "integrate", "integrators.integrate", _vortices),
    ("vortexblob.cli", "integrate", "integrators.integrate", _vortices),
    ("vortexblob.cli", "spatial_error", "reference.spatial_error", _vortices),
    ("vortexblob.cli", "fit_order", "reference.fit_order", None),
    ("vortexblob.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span log for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = ""

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counts = (0, 0, 0)
            if counter is not None:
                # Counting is timed as a child span, so it is not charged to
                # the caller's self time.
                t0 = perf_counter()
                counts = counter(*args, **kwargs)
                spans.append([COUNT_SPAN, t0, perf_counter(), parent, self.op, 0, 0, 0])
            rec = [name, 0.0, 0.0, parent, self.op, *counts]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def span(self, name, op):
        """Root span of one benchmark operation; nested calls share its ``op``."""
        self.op = op
        rec = [name, 0.0, 0.0, -1, op, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["name", "start", "end", "parent", "op", "a", "b", "c"])
            out.writerows(self.spans)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    The run is single-threaded, so children never overlap.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans):
    """Per-name totals: calls, self time, and the three count fields."""
    stats = {}
    for s, own in zip(spans, self_times(spans)):
        t = stats.setdefault(s[0], {"calls": 0, "self_s": 0.0, "a": 0, "b": 0, "c": 0})
        t["calls"] += 1
        t["self_s"] += own
        t["a"] += s[5]
        t["b"] += s[6]
        t["c"] += s[7]
    return stats


def children_per_parent(spans, child, parent):
    """Number of ``child`` spans directly under each ``parent`` span."""
    counts = {idx: 0 for idx, s in enumerate(spans) if s[0] == parent}
    for s in spans:
        if s[0] == child and s[3] in counts:
            counts[s[3]] += 1
    return list(counts.values())


def _under(spans, name, parents):
    """Indices of ``name`` spans whose direct parent is one of ``parents``."""
    return [i for i, s in enumerate(spans) if s[0] == name and s[3] >= 0 and spans[s[3]][0] in parents]


def sum_under(spans, name, parents, field):
    """Sum of count field ``field`` (5, 6 or 7) over ``name`` spans under ``parents``."""
    return sum(spans[i][field] for i in _under(spans, name, parents))


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, workload, overhead_ratio):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    stats = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "a": 0, "b": 0, "c": 0}

    def stat(name, key):
        return stats.get(name, empty)[key]

    own = self_times(spans)
    predictor = _under(spans, "integrators.rk4_step", {"conservative.dmm_step", "integrators.imm_step"})
    c_tau_pairs = stat("conservative.c_tau", "a")
    picard = children_per_parent(spans, "conservative.dmm_rhs", "conservative.dmm_step")
    imm_iters = children_per_parent(spans, "model.rhs", "integrators.imm_step")
    pair_evals = sum(
        s[5] * s[5] if s[0] in ("model.rhs", "model.conserved") else s[5] * s[6]
        for s in spans
        if s[0] in ("model.rhs", "model.conserved", "model.velocity_field")
    )
    return {
        "expint.e1_calls": (stat("expint.e1", "calls"), "count"),
        "expint.e1_elems": (stat("expint.e1", "a"), "count"),
        "expint.e1_self_s": (stat("expint.e1", "self_s"), "s"),
        "conservative.dmm_step_calls": (stat("conservative.dmm_step", "calls"), "count"),
        "conservative.dmm_rhs_calls": (stat("conservative.dmm_rhs", "calls"), "count"),
        "conservative.dmm_rhs_self_s": (stat("conservative.dmm_rhs", "self_s"), "s"),
        "conservative.c_tau_pairs": (c_tau_pairs, "count"),
        "conservative.c_tau_self_s": (stat("conservative.c_tau", "self_s"), "s"),
        "conservative.picard_iters_mean": (_mean(picard), "count"),
        "conservative.picard_iters_max": (max(picard, default=0), "count"),
        "conservative.taylor_share": (stat("conservative.c_tau", "b") / max(c_tau_pairs, 1), "ratio"),
        "conservative.far_share": (stat("conservative.c_tau", "c") / max(c_tau_pairs, 1), "ratio"),
        "model.rhs_calls": (stat("model.rhs", "calls"), "count"),
        "model.rhs_self_s": (stat("model.rhs", "self_s"), "s"),
        "model.conserved_calls": (stat("model.conserved", "calls"), "count"),
        "model.conserved_self_s": (stat("model.conserved", "self_s"), "s"),
        "model.velocity_field_self_s": (stat("model.velocity_field", "self_s"), "s"),
        "model.pair_evals": (pair_evals, "count"),
        "integrators.predictor_self_s": (sum(own[i] for i in predictor), "s"),
        "integrators.predictor_total_s": (sum(spans[i][2] - spans[i][1] for i in predictor), "s"),
        "integrators.imm_iters_mean": (_mean(imm_iters), "count"),
        "integrators.driver_self_s": (stat("integrators.integrate", "self_s"), "s"),
        "reference.spatial_error_self_s": (stat("reference.spatial_error", "self_s"), "s"),
        "reference.quad_points": (sum_under(spans, "model.velocity_field", {"reference.spatial_error"}, 5), "count"),
        "cli.main_self_s": (stat("cli.main", "self_s"), "s"),
        "cli.bytes_written": (getattr(workload, "bytes_written", 0), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
