"""The benchmark's workloads and the correctness check of every operation.

Every workload is a closed loop with one caller: it runs rounds, and each
operation (one trajectory or one sweep) completes before the next starts.
A round is one result a user would ask for; ``result`` marks the operations
whose wall time makes up that result.
"""

from __future__ import annotations

import csv
import json
import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

METHODS = ("rm2", "rm4", "imm", "dmm")

# Acceptance criterion 1's bound on invariant drift over a trajectory.
DRIFT_BOUND = 1e-11
# Relative tolerance on the sweep's errors.csv and slopes.csv against the
# values recorded from the first benchmarked commit.  A change of solver or
# summation order moves the final positions by about the solver tolerance
# (1e-12), which moves the errors by far less than this.
SWEEP_REL_TOL = 1e-4
EXPECTED_SWEEP = Path(__file__).with_name("expected_sweep.json")
# Calls at whose entry the speed clock may split an operation that runs for
# seconds (grid20's trajectories, the sweep) into segments; see calibrate.py.
# chaos3 has none: its operations are short and its calls are cheap.
LONG_OP_HOOKS = (
    ("vortexblob.cli", "init_grid"),
    ("vortexblob.cli", "integrate"),
    ("vortexblob.cli", "spatial_error"),
    ("vortexblob.reference", "velocity_field"),
    ("vortexblob.integrators", "rhs"),
    ("vortexblob.integrators", "conserved"),
    ("vortexblob.integrators", "rk4_step"),
    ("vortexblob.integrators", "dmm_step"),
    ("vortexblob.conservative", "dmm_rhs"),
)


@dataclass
class Op:
    """One completed operation: what ran, how long it took, whether it failed.

    ``seconds`` is wall time; ``scaled`` is the same time scaled to the
    reference machine speed (see calibrate.py), or wall time when no speed
    clock ran.
    """

    op: str
    kind: str
    steps: int
    seconds: float
    scaled: float
    result: bool
    error: str | None = None


class WallClock:
    """Plain wall time, for runs without speed calibration (the traced run)."""

    def start(self):
        self._t = perf_counter()

    def stop(self):
        wall = perf_counter() - self._t
        return wall, wall


def _drift_error(method, record):
    """Why a trajectory's invariant drift fails its bound, or None.

    dmm keeps all four invariants to solver tolerance; imm keeps the
    quadratic ones (Px, Py, L); every Runge-Kutta method keeps the linear
    ones (Px, Py).
    """
    kept = {"dmm": 4, "imm": 3}.get(method, 2)
    drift = record.max_drift()[:kept]
    if not np.all(drift <= DRIFT_BOUND):
        return f"{method} drift {drift.max():.3e} above {DRIFT_BOUND:g}"
    return None


def trajectory(vb, tracer, clock, op, system, state, tau, n_steps, method, stride, result=True):
    """One `integrate` call, timed and checked."""
    span = tracer.span("bench.op", op) if tracer else nullcontext()
    clock.start()
    try:
        with span:
            record, final = vb.integrators.integrate(system, state, tau, n_steps, method, sample_stride=stride)
    except vb.VortexBlobError as exc:
        return Op(op, method, n_steps, *clock.stop(), result, f"{type(exc).__name__}: {exc}")
    times = clock.stop()
    error = _drift_error(method, record)
    if error is None and not np.isclose(final.t, state.t + n_steps * tau, rtol=1e-12, atol=0.0):
        error = f"{method} ended at t={final.t!r}"
    return Op(op, method, n_steps, *times, result, error)


class Chaos3:
    """M = 3 random blobs (m = 2, h = delta = 1, tau = 1), a new system per round.

    Strengths and positions are drawn uniformly on [-1, 1] from the seed, as
    points of a scrambled Sobol sequence in 9 dimensions.  Picard iterations
    per step vary by about 30% between systems; the low-discrepancy draw
    keeps the mean over one run's systems about 2.5 times steadier across
    seeds than independent draws do.  Cost here is per-call Python and numpy
    overhead, not pair throughput.
    """

    name = "chaos3"
    clock_kernel = ("small",)
    clock_hooks = ()
    tau = 1.0
    stride = 100

    def __init__(self, vb, seed, small):
        self.vb = vb
        self.seed = seed
        self.steps = 5 if small else 20
        # Imported here, not at the top: drawing inputs is the benchmark's
        # work and is kept out of the set-up time the program is charged.
        from scipy.stats import qmc

        self.sampler = qmc.Sobol(d=9, scramble=True, seed=seed)
        self.points = self._draw()

    def _draw(self):
        # Sobol points keep their balance in blocks of a power of two.
        return 2.0 * self.sampler.random(64) - 1.0

    def system(self, i):
        while len(self.points) <= i:
            self.points = np.concatenate([self.points, self._draw()])
        v = self.points[i]
        return self.vb.BlobSystem(m=2, h=1.0, delta=1.0, kappa=v[:3]), self.vb.State(x=v[3:6], y=v[6:])

    def setup(self):
        self.system(0)

    def round(self, i, tracer, clock):
        system, state = self.system(i)
        return [
            trajectory(self.vb, tracer, clock, f"{self.name}/{self.seed}/{i}/{method}", system, state,
                       self.tau, self.steps, method, self.stride)
            for method in METHODS
        ]


class Grid20:
    """`init_grid(20, p=3, q=0.75, m=4, prune_zero=True)`: M = 316 at tau = 1.

    The pair-throughput regime.  The grid is fixed, so the seed changes
    nothing; each round repeats the same four trajectories.
    """

    name = "grid20"
    clock_kernel = ("small", "cached")
    clock_hooks = LONG_OP_HOOKS
    tau = 1.0
    stride = 4
    # Steps per trajectory, sized so that each method takes a second or two.
    STEPS = {"rm2": 64, "rm4": 32, "imm": 8, "dmm": 3}
    SMALL_STEPS = {"rm2": 4, "rm4": 4, "imm": 2, "dmm": 1}

    def __init__(self, vb, small):
        self.vb = vb
        self.cells = 8 if small else 20
        self.steps = self.SMALL_STEPS if small else self.STEPS

    def setup(self):
        self.system, self.state = self.vb.model.init_grid(self.cells, p=3, q=0.75, m=4, prune_zero=True)

    def round(self, i, tracer, clock):
        return [
            trajectory(self.vb, tracer, clock, f"{self.name}/{i}/{method}", self.system, self.state,
                       self.tau, self.steps[method], method, self.stride)
            for method in METHODS
        ]


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _close(a, b):
    return abs(a - b) <= SWEEP_REL_TOL * abs(b)


def check_sweep_tables(out, expected):
    """Why the spatial-order tables are wrong, or None."""
    errors = _read_csv(out / "errors.csv")
    slopes = _read_csv(out / "slopes.csv")
    if errors[0] != ["m", "h", "error"] or slopes[0] != ["m", "slope", "r_squared"]:
        return "unexpected table headers"
    by_order = {}
    for m, h, err in errors[1:]:
        by_order.setdefault(m, []).append((float(h), float(err)))
    for m, points in by_order.items():
        points.sort(reverse=True)
        if not all(a[1] > b[1] for a, b in zip(points, points[1:])):
            return f"m={m}: errors do not strictly decrease with h: {points}"
    got = {"errors": [[float(v) for v in row] for row in errors[1:]],
           "slopes": [[float(v) for v in row] for row in slopes[1:]]}
    for table in ("errors", "slopes"):
        want = expected[table]
        if len(got[table]) != len(want) or not all(
            len(g) == len(w) and all(_close(a, b) for a, b in zip(g, w))
            for g, w in zip(got[table], want)
        ):
            return f"{table}.csv differs from the recorded values: {got[table]} vs {want}"
    return None


class Sweep:
    """`vortexblob spatial-order` with the CLI defaults, then five passes of
    four steps of each method on the sweep's 32-cell m = 4 grid (M = 812,
    tau = 0.001).

    The sweep is the time-to-result.  The short trajectories give steps/s
    per method where Picard converges in two iterations and most c_tau pairs
    take the Taylor branch; five interleaved passes keep one slow second
    from setting a method's figure.  The seed changes nothing.
    """

    name = "sweep"
    clock_kernel = ("small", "cached", "stream")
    clock_hooks = LONG_OP_HOOKS
    tau = 0.001
    steps = 4
    SMALL_GRIDS = ["4", "8", "16"]

    def __init__(self, vb, small, out_root):
        self.vb = vb
        self.out_root = out_root
        self.argv = ["spatial-order"] + (["--grids", *self.SMALL_GRIDS] if small else [])
        self.passes = 1 if small else 5
        self.cells = 8 if small else 32
        self.expected = json.loads(EXPECTED_SWEEP.read_text())["small" if small else "full"]
        self.bytes_written = 0

    def setup(self):
        self.system, self.state = self.vb.model.init_grid(self.cells, p=3, q=0.75, m=4, prune_zero=True)

    def _sweep(self, i, tracer, clock):
        op = f"{self.name}/{i}/spatial-order"
        out = self.out_root / f"sweep-{i}"
        shutil.rmtree(out, ignore_errors=True)
        span = tracer.span("bench.op", op) if tracer else nullcontext()
        clock.start()
        try:
            with span:
                code = self.vb.cli.main([*self.argv, "--out", str(out)])
        except self.vb.VortexBlobError as exc:
            return Op(op, "sweep", 0, *clock.stop(), True, f"{type(exc).__name__}: {exc}")
        times = clock.stop()
        error = f"exit code {code}" if code != 0 else check_sweep_tables(out, self.expected)
        self.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out, ignore_errors=True)
        return Op(op, "sweep", 0, *times, True, error)

    def round(self, i, tracer, clock):
        ops = [self._sweep(i, tracer, clock)]
        for rep in range(self.passes):
            for method in METHODS:
                ops.append(trajectory(self.vb, tracer, clock, f"{self.name}/{i}/{rep}/{method}", self.system,
                                      self.state, self.tau, self.steps, method, self.steps, result=False))
        return ops


def make(name, vb, seed, small, out_root):
    """The workload called `name`; only chaos3 draws its inputs from the seed."""
    if name == "chaos3":
        return Chaos3(vb, seed, small)
    if name == "grid20":
        return Grid20(vb, small)
    return Sweep(vb, small, out_root)
