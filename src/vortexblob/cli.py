"""Batch experiment driver.

Subcommands::

    simulate        one trajectory, drift table + manifest
    conservation    all four methods (rm2, rm4, imm, dmm) on one problem
    temporal-order  tau-halving sweep on the 4-vortex ring
    spatial-order   h-halving sweep against the exact velocity field
    timing          per-method wall time and drift on random systems
    e1-table        E1 accuracy audit against the independent oracle

Each subcommand takes only the flags it reads (``vortexblob <cmd>
--help``); any other flag is a usage error.  All tables are
comma-separated text with a header row; floats are written in scientific
notation with 17 significant digits so they round-trip losslessly.  Each
run also writes a JSON manifest holding the subcommand's parsed flags
plus the run's own results and its wall time in seconds.  Exit codes:
0 success, 2 usage error, 3 solver failure (naming the failing step,
"solver failure: step k:"), 4 degeneracy (a coincident pair,
"degeneracy error:") or domain error (a non-finite invariant or an
explicit step's overflowing pair distance, "domain error:").
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    PairDegeneracyError,
    SolverFailureError,
)
from .expint import CUTOFF, e1_reference, exp_integral_e1
from .integrators import METHODS, SolverConfig, advance, integrate
from .model import SUPPORTED_ORDERS, BlobSystem, State, init_grid
from .reference import (
    fit_order,
    four_vortex_exact,
    four_vortex_ring,
    spatial_error,
    temporal_error,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_DEGENERATE = 4


def _fmt(value):
    """17 significant digits, scientific; lossless for doubles."""
    return f"{float(value):.16e}"


def _write_atomic(path, writer):
    """Write a file atomically: temp file in the same directory, then rename."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path, header, rows):
    def writer(handle):
        out = csv.writer(handle)
        out.writerow(header)
        for row in rows:
            out.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])

    _write_atomic(path, writer)


def _write_manifest(args, **results):
    """manifest.json in args.out: the parsed flags, the run's own results and
    wall_time, the seconds since main started the subcommand."""
    config = {key: value for key, value in vars(args).items() if key not in ("func", "started")}
    config.update(results, wall_time=time.perf_counter() - args.started)
    _write_atomic(os.path.join(args.out, "manifest.json"),
                  lambda handle: json.dump(config, handle, indent=2, sort_keys=True))


def _solver_from_args(args):
    return SolverConfig(tol=args.tol, max_iters=args.max_iters)


def _random_system(seed, m, n_vortices):
    """Strengths and positions drawn uniformly on [-1, 1] by the generator of seed; h = delta = 1."""
    if seed < 0 or n_vortices < 1:
        raise ConfigurationError(f"--seed must be >= 0, got {seed}" if seed < 0 else "need at least 1 random vortex")
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(-1.0, 1.0, n_vortices)
    state = State(x=rng.uniform(-1.0, 1.0, n_vortices), y=rng.uniform(-1.0, 1.0, n_vortices))
    return BlobSystem(m=m, h=1.0, delta=1.0, kappa=kappa), state


def _problem_from_args(args):
    if args.random_vortices is not None:
        return _random_system(args.seed, args.m, args.random_vortices)
    return init_grid(args.cells, p=args.p, q=args.q, m=args.m, prune_zero=True)


DRIFT_HEADER = ["time", "drift_px", "drift_py", "drift_ell", "drift_ham"]


def _drift_run(args, system, state, method, filename):
    """One trajectory of method, its drift table written to filename in args.out."""
    record, _ = integrate(system, state, args.tau, args.steps, method, solver=_solver_from_args(args),
                          sample_stride=max(1, args.steps // 200))
    rows = [[t, *drift] for t, drift in zip(record.times, record.drift().T)]
    _write_table(os.path.join(args.out, filename), DRIFT_HEADER, rows)
    return record


def cmd_simulate(args):
    system, state = _problem_from_args(args)
    record = _drift_run(args, system, state, args.method, "drift.csv")
    _write_manifest(args, M=system.size)
    print(f"simulate: method={args.method} M={system.size} steps={args.steps} "
          f"max_drift={[_fmt(v) for v in record.max_drift()]}")
    return EXIT_OK


def cmd_conservation(args):
    system, state = _problem_from_args(args)
    summary = []
    for method in ("rm2", "rm4", "imm", "dmm"):
        record = _drift_run(args, system, state, method, f"drift-{method}.csv")
        summary.append([method, *record.max_drift(), record.wall_time])
        print(f"conservation: {method} max_drift={[_fmt(v) for v in record.max_drift()]}")
    _write_table(
        os.path.join(args.out, "summary.csv"),
        ["method", "max_drift_px", "max_drift_py", "max_drift_ell", "max_drift_ham", "wall_time"],
        summary,
    )
    _write_manifest(args, M=system.size)
    return EXIT_OK


def _write_order_tables(args, x_name, points_of, **results):
    """errors.csv of points_of(m) = [(x, error), ...] for each order m, slopes.csv
    of the orders with at least three points (none, and an earlier run's is
    deleted, when no order has them), and the manifest with results."""
    rows = []
    slopes = []
    for m in args.orders:
        points = points_of(m)
        rows.extend([str(m), x, err] for x, err in points)
        if len(points) >= 3:
            fit = fit_order(points)
            slopes.append([str(m), fit.slope, fit.r_squared])
            print(f"{args.command}: m={m} slope={fit.slope:.4f}")
    _write_table(os.path.join(args.out, "errors.csv"), ["m", x_name, "error"], rows)
    slopes_path = os.path.join(args.out, "slopes.csv")
    if slopes:
        _write_table(slopes_path, ["m", "slope", "r_squared"], slopes)
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(slopes_path)
    _write_manifest(args, **results)
    return EXIT_OK


def _step_count(flag, tau, t_final):
    """round(t_final / tau); a step size or end time of zero or less, or not finite, or a ratio past the floats gives no step count."""
    for name, value in ((flag, tau), ("--t-final", t_final)):
        if not 0.0 < value < math.inf:
            raise ConfigurationError(f"{name} must be positive and finite")
    if t_final / tau == math.inf:
        raise ConfigurationError(f"--t-final {t_final:g} over {flag} {tau:g} is more steps than a float holds")
    return round(t_final / tau)


def cmd_temporal_order(args):
    steps = [_step_count("--taus", tau, args.t_final) for tau in args.taus]
    if 0 in steps:
        tau = args.taus[steps.index(0)]
        raise ConfigurationError(f"--taus {tau:g} takes no step to --t-final {args.t_final:g}: "
                                 "each step size must be below twice --t-final")
    solver = _solver_from_args(args)

    def points_of(m):
        system, state = four_vortex_ring(m)
        points = []
        for tau, n_steps in zip(args.taus, steps):
            final = advance(system, state, tau, n_steps, args.method, solver=solver)
            points.append((tau, temporal_error(final, four_vortex_exact(n_steps * tau, m))))
        return points

    return _write_order_tables(args, "tau", points_of)


def cmd_spatial_order(args):
    n_steps = max(1, _step_count("--tau", args.tau, args.t_final))
    solver = _solver_from_args(args)
    # without --p, m = 6 takes a profile smooth enough to expose its full order
    p_of = {m: args.p if args.p is not None else 15 if m == 6 else 3 for m in args.orders}

    def points_of(m):
        p = p_of[m]
        points = []
        for cells in args.grids:
            system, state = init_grid(cells, p=p, q=args.q, m=m, prune_zero=True)
            final = advance(system, state, args.tau, n_steps, args.method, solver=solver)
            err = spatial_error(system, final, p=p)
            points.append((system.h, err))
            print(f"spatial-order: m={m} cells={cells} h={system.h:.4f} error={err:.6e}")
        return points

    return _write_order_tables(args, "h", points_of, p=p_of)


def cmd_timing(args):
    if args.n_seeds < 1:
        raise ConfigurationError("--n-seeds must be >= 1")
    solver = _solver_from_args(args)
    rows = []
    for seed in range(args.seed, args.seed + args.n_seeds):
        system, state = _random_system(seed, args.m, args.random_vortices)
        base_time = None
        for method in args.methods:
            steps = args.steps
            record, _ = integrate(system, state, args.tau, steps, method, solver=solver,
                                  sample_stride=max(1, steps // 100))
            if args.match_time and base_time is None:
                base_time = record.wall_time
            elif args.match_time and steps and record.wall_time > 0:
                # rescale the step count so wall time roughly matches the
                # first method's, then rerun
                steps = max(1, int(steps * base_time / record.wall_time))
                record, _ = integrate(system, state, args.tau, steps, method, solver=solver,
                                      sample_stride=max(1, steps // 100))
            drift = record.max_drift()
            rows.append([str(seed), method, str(steps), record.wall_time, *drift])
            print(f"timing: seed={seed} {method} steps={steps} "
                  f"wall={record.wall_time:.3f}s ham_drift={drift[3]:.3e}")
    _write_table(
        os.path.join(args.out, "timing.csv"),
        ["seed", "method", "steps", "wall_time",
         "max_drift_px", "max_drift_py", "max_drift_ell", "max_drift_ham"],
        rows,
    )
    _write_manifest(args)
    return EXIT_OK


def cmd_e1_table(args):
    if args.count < 0:
        raise ConfigurationError("--count must be >= 0")
    if args.count and not (0.0 < args.x_min <= args.x_max < math.inf):
        raise ConfigurationError("need 0 < --x-min <= --x-max < inf")
    rows = []
    worst = 0.0
    if args.count:
        xs = np.exp(np.linspace(np.log(args.x_min), np.log(args.x_max), args.count))
        for x, val in zip(xs, exp_integral_e1(xs)):
            if x > CUTOFF:
                ref = 0.0
                rel = 0.0 if val == 0.0 else np.inf
            else:
                ref = e1_reference(x)
                rel = abs(val - ref) / abs(ref)
            worst = max(worst, rel)
            rows.append([x, val, ref, rel])
    _write_table(os.path.join(args.out, "e1.csv"), ["x", "value", "reference", "rel_error"], rows)
    _write_manifest(args, max_rel_error=worst)
    print(f"e1-table: {args.count} points, max relative error {worst:.3e}")
    return EXIT_OK


# The flags that several subcommands take; a subcommand may replace a
# default with set_defaults.
_SHARED_FLAGS = {
    "--cells": dict(type=int, default=10, help="grid cells per side (vortex count = cells^2 before pruning)"),
    "--m": dict(type=int, choices=SUPPORTED_ORDERS, default=4, help="blob order"),
    "--q": dict(type=float, default=0.75, help="blob-width exponent, delta = h^q"),
    "--p": dict(type=int, default=3, help="vorticity profile exponent"),
    "--random-vortices": dict(type=int, default=None,
                              help="use N random vortices (strengths/positions uniform on "
                                   "[-1,1], h = delta = 1) instead of the grid"),
    "--seed": dict(type=int, default=0, help="seed for randomized modes"),
    "--tau": dict(type=float, default=1.0, help="time-step size"),
    "--steps": dict(type=int, default=1000, help="number of steps"),
    "--method": dict(choices=METHODS, default="dmm"),
    "--orders": dict(type=int, nargs="+", choices=SUPPORTED_ORDERS, default=list(SUPPORTED_ORDERS)),
    "--tol": dict(type=float, default=1e-12, help="fixed-point tolerance (relative to position scale)"),
    "--max-iters": dict(type=int, default=200, help="fixed-point iteration cap"),
    "--out": dict(default=".", help="output directory"),
}
_PROBLEM = ("--cells", "--m", "--q", "--p", "--random-vortices", "--seed", "--tau", "--steps")
_SOLVER = ("--tol", "--max-iters")


def _add_flags(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vortexblob",
        description="Vortex-blob experiment driver: trajectories, conservation, "
                    "convergence, timing, and E1 audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory and write its drift table")
    _add_flags(p_sim, *_PROBLEM, "--method", *_SOLVER, "--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_con = sub.add_parser("conservation", help="compare rm2/rm4/imm/dmm drifts on one problem")
    _add_flags(p_con, *_PROBLEM, *_SOLVER, "--out")
    p_con.set_defaults(func=cmd_conservation)

    p_tmp = sub.add_parser("temporal-order", help="tau-halving sweep on the 4-vortex ring")
    p_tmp.add_argument("--taus", type=float, nargs="+", default=[0.5, 0.25, 0.125, 0.0625])
    p_tmp.add_argument("--t-final", type=float, default=10.0)
    _add_flags(p_tmp, "--orders", "--method", *_SOLVER, "--out")
    p_tmp.set_defaults(func=cmd_temporal_order)

    p_spa = sub.add_parser("spatial-order", help="h-halving velocity-field convergence sweep")
    p_spa.add_argument("--grids", type=int, nargs="+", default=[8, 16, 32, 64])
    p_spa.add_argument("--t-final", type=float, default=0.001)
    p_spa.add_argument("--p", type=int, help="vorticity profile exponent of every order (default 3, and 15 for m = 6)")
    _add_flags(p_spa, "--orders", "--q", "--tau", "--method", *_SOLVER, "--out")
    p_spa.set_defaults(tau=0.001, func=cmd_spatial_order)

    p_tim = sub.add_parser("timing", help="wall time and drift per method on random systems")
    p_tim.add_argument("--random-vortices", type=int, default=3)
    p_tim.add_argument("--n-seeds", type=int, default=5)
    p_tim.add_argument("--methods", nargs="+", choices=METHODS, default=["rm2", "rm4", "dmm"])
    p_tim.add_argument("--match-time", action="store_true",
                       help="rescale later methods' step counts to roughly match the "
                            "first method's wall time")
    _add_flags(p_tim, "--seed", "--m", "--tau", "--steps", *_SOLVER, "--out")
    p_tim.set_defaults(func=cmd_timing)

    p_e1 = sub.add_parser("e1-table", help="E1 accuracy table against the independent oracle")
    p_e1.add_argument("--x-min", type=float, default=1e-12)
    p_e1.add_argument("--x-max", type=float, default=34.0)
    p_e1.add_argument("--count", type=int, default=1000)
    _add_flags(p_e1, "--out")
    p_e1.set_defaults(func=cmd_e1_table)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverFailureError as exc:
        where = f"step {exc.step_index}: " if hasattr(exc, "step_index") else ""
        print(f"solver failure: {where}{exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (PairDegeneracyError, DomainError) as exc:
        kind = "degeneracy" if isinstance(exc, PairDegeneracyError) else "domain"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    raise SystemExit(main())
