"""vortexblob benchmark: end-to-end and per-layer cost of the blob integrators.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chaos3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

It imports ``vortexblob`` from the checkout's ``src/`` (never an installed
copy), runs one workload single-threaded, checks every output, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference machine speed by a calibration kernel timed between the measured
segments (calibrate.py), so that a shared host's drifting speed cancels out;
the wall-time figures go to a ``# wall`` line.  ``--trace 1`` times each layer
on fixed inputs, runs the workload once untraced and once with spans at every
module boundary, and reports the per-layer metrics.  The line before the
result records provenance.  ``--smoke`` runs every workload in both modes
at toy sizes and checks the result schema against BENCHMARK.json.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# Pin thread pools before numpy is imported, here and in child processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.dont_write_bytecode = True

import calibrate  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
SETUP_KERNEL_SAMPLES = 5


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_vortexblob():
    """Import the checkout's own vortexblob package, with its cli module."""
    if not (SRC / "vortexblob" / "__init__.py").is_file():
        raise BenchError(f"no vortexblob sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vortexblob
    import vortexblob.cli

    if Path(vortexblob.__file__).resolve().parent != (SRC / "vortexblob").resolve():
        raise BenchError(f"imported {vortexblob.__file__}, not the checkout's copy")
    return vortexblob


def provenance(vb, args):
    """Where the measured code came from and what it ran on."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True).stdout.strip())
        except OSError:
            pass
    return {
        "vortexblob_file": vb.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(args):
    """Median time from starting a fresh interpreter to the first timed call.

    Each probe imports vortexblob, numpy and scipy and builds the workload's
    systems and states, then reports ready; the clock stops when that line
    arrives.  The probe also reports the time it spent drawing inputs, which
    is the benchmark's work, not the program's, and that is subtracted.
    Like the timed calls, each probe is scaled to the reference speed, by
    the median of SETUP_KERNEL_SAMPLES kernel samples (all parts) taken just
    before it starts and as many just after it exits (see calibrate.py).
    """
    clock = calibrate.SpeedClock(tuple(calibrate.PARTS))

    def kernel_median():
        return statistics.median(clock.sample() for _ in range(SETUP_KERNEL_SAMPLES))

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        argv.append("--small")
    times = []
    for _ in range(2 if args.small else SETUP_PROBES):
        before = kernel_median()
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline().split()
            elapsed = perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or len(line) != 2 or line[0] != "ready":
            raise BenchError(f"setup probe failed with exit code {child.returncode}")
        times.append(clock.scale(elapsed - float(line[1]), before, kernel_median()))
    return statistics.median(times)


def warm_up(vb):
    """Run every method once on a small fixed system, so lazy set-up is done."""
    system = vb.BlobSystem(m=2, h=1.0, delta=1.0, kappa=[0.5, -0.3, 0.8])
    state = vb.State(x=[-0.5, 0.2, 0.6], y=[0.1, -0.7, 0.4])
    for method in workloads.METHODS:
        vb.integrators.integrate(system, state, 1.0, 3, method)


def run_rounds(workload, clock, seconds=None, rounds=None, tracer=None):
    """Run exactly `rounds` rounds, or rounds for about `seconds`.

    A timed run starts another round only while a round of the mean length
    so far still ends within `seconds`, and always runs at least one, so a
    run never measures much longer than asked.
    """
    ops = []
    t0 = perf_counter()
    i = 0
    while (i < rounds) if rounds is not None else (i == 0 or (perf_counter() - t0) * (i + 1) / i <= seconds):
        ops.extend(workload.round(i, tracer, clock))
        i += 1
    return ops, i


def timings(ops, seconds):
    """result_s and the four steps/s, from each op's time `seconds(op)`."""
    # A mean, not a median: chaos3's rounds differ in their inputs, and the
    # mean over a run's balanced set of systems varies less across seeds.
    rounds = {op.op.rsplit("/", 1)[0] for op in ops if op.result}
    metrics = {"result_s": (sum(seconds(op) for op in ops if op.result) / len(rounds), "s")}
    for method in workloads.METHODS:
        mine = [op for op in ops if op.kind == method]
        metrics[f"{method}_steps_per_s"] = (sum(op.steps for op in mine) / sum(seconds(op) for op in mine), "1/s")
    return metrics


def end_to_end(ops, setup_s, clock):
    """The end-to-end metrics, from times scaled to the reference speed.

    The wall-time figures and the kernel times behind the scaling go to a
    comment line, so a reader can see how fast the machine ran.
    """
    wall = {name: value for name, (value, _) in timings(ops, lambda op: op.seconds).items()}
    kernel = statistics.quantiles(clock.kernel_s, n=4)
    print("# wall " + json.dumps({**wall, "kernel_ms_quartiles": [1e3 * q for q in kernel],
                                   "kernel_samples": len(clock.kernel_s)}))
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(timings(ops, lambda op: op.scaled))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def run_trace(vb, workload, args):
    """Micro timings, then the same rounds untraced and traced."""
    import micro
    import spans

    metrics, e1_error = micro.run(vb, args.small)
    clock = workloads.WallClock()
    plain, n_rounds = run_rounds(workload, clock, seconds=args.seconds / 2)
    tracer = spans.Tracer()
    with tracer.installed():
        traced, _ = run_rounds(workload, clock, rounds=n_rounds, tracer=tracer)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    overhead = sum(op.seconds for op in traced) / sum(op.seconds for op in plain)
    metrics.update(spans.layer_metrics(tracer.spans, workload, overhead))
    return plain + traced, metrics, e1_error


def run(args):
    """Run one workload; return the result object, or None for a setup probe."""
    vb = import_vortexblob()
    t0 = perf_counter()
    workload = workloads.make(args.workload, vb, args.seed, args.small, OUT)
    if args.setup_probe:
        inputs_s = perf_counter() - t0
        workload.setup()
        print(f"ready {inputs_s!r}", flush=True)
        return None
    setup_s = None if args.trace else setup_seconds(args)
    workload.setup()
    warm_up(vb)
    OUT.mkdir(exist_ok=True)
    check_error = None
    if args.trace:
        ops, metrics, check_error = run_trace(vb, workload, args)
    else:
        clock = calibrate.SpeedClock(workload.clock_kernel)
        with clock.hooked(workload.clock_hooks):
            ops, _ = run_rounds(workload, clock, seconds=args.seconds)
        metrics = end_to_end(ops, setup_s, clock)
    failed = [op for op in ops if op.error]
    for op in failed[:10]:
        print(f"FAILED {op.op}: {op.error}", file=sys.stderr)
    if check_error:
        print(f"FAILED E1 check: {check_error}", file=sys.stderr)
    print(f"# failed_ratio {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    print("# provenance " + json.dumps(provenance(vb, args), sort_keys=True))
    return {
        "correct": not failed and check_error is None,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def check_schema(result, spec, trace):
    """Why a result does not match BENCHMARK.json, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return "attempted/failed are not counts"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))} or units"
    bad = [n for n, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
    return f"non-numeric values: {bad}" if bad else None


def smoke(args):
    """Every workload in both modes at toy sizes; schema and correctness only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace), "--small"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            problem = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}" if proc.returncode else None
            if problem is None:
                result = json.loads(lines[-1])
                problem = check_schema(result, spec, trace)
                if problem is None and not result["correct"]:
                    problem = f"incorrect output: {proc.stderr.strip()[-500:]}"
            ok = ok and problem is None
            print(f"smoke {name} trace={trace}: {problem or 'ok'}")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("chaos3", "grid20", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload in both modes at toy sizes and check the schema")
    parser.add_argument("--small", action="store_true", help="toy input sizes (used by --smoke)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.smoke:
            return smoke(args)
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
