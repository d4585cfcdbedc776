"""Micro timings of single layers on fixed inputs (not drawn from --seed).

Each figure is the median over ``repeats`` batches of back-to-back calls.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# E1 is accurate to 5e-15 relative on (0, 34] and exactly zero above
# (the package's accuracy contract, checked by acceptance criterion 5).
E1_REL_TOL = 5e-15
E1_CHECK_POINTS = 200


def _per_call(fn, calls, repeats):
    """Median seconds per call of fn() over `repeats` batches of `calls` calls."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def e1_inputs(n, rng):
    """Log-uniform points on [1e-6, 100]: the series (x <= 1), Chebyshev
    (1 < x <= 34) and zero (x > 34) regimes of E1."""
    return np.exp(rng.uniform(np.log(1e-6), np.log(100.0), n))


def check_e1(vb, xs, rng):
    """Error message if E1 disagrees with the independent oracle on a subsample."""
    sample = rng.choice(xs, E1_CHECK_POINTS, replace=False)
    values = vb.expint.exp_integral_e1(sample)
    for x, value in zip(sample, values):
        if x > vb.expint.CUTOFF:
            if value != 0.0:
                return f"E1({x!r}) = {value!r}, expected exactly 0 above the cutoff"
            continue
        ref = vb.expint.e1_reference(x)
        if abs(value - ref) > E1_REL_TOL * abs(ref):
            return f"E1({x!r}) = {value!r}, reference {ref!r}"
    return None


def c_tau_inputs(n, rng, closed):
    """Pair arguments (xi_k, xi_k1) that all take one branch of c_tau."""
    xi_k = np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n))
    if closed:
        s = rng.uniform(1e-3, 0.5, n) * rng.choice((-1.0, 1.0), n)
    else:
        s = rng.uniform(-1e-4, 1e-4, n)
    return xi_k, xi_k * (1.0 + s)


def run(vb, small=False):
    """Micro metrics as {name: (value, unit)}, plus an error message if the E1 check fails."""
    repeats = 3 if small else 7
    rng = np.random.default_rng(20211101)
    e1 = vb.expint.exp_integral_e1
    c_tau = vb.conservative.c_tau
    metrics = {}

    x3 = np.array([0.3, 2.5, 7.0])
    metrics["expint.e1_ns_per_elem.n3"] = (_per_call(lambda: e1(x3), 50 if small else 400, repeats) / 3 * 1e9, "ns")

    n = 100_000
    xs = e1_inputs(n, rng)
    metrics["expint.e1_ns_per_elem.n1e5"] = (_per_call(lambda: e1(xs), 2 if small else 10, repeats) / n * 1e9, "ns")
    error = check_e1(vb, xs, rng)

    for branch in ("closed", "taylor"):
        xi_k, xi_k1 = c_tau_inputs(n, rng, branch == "closed")
        per_call = _per_call(lambda: c_tau(4, xi_k, xi_k1), 2 if small else 10, repeats)
        metrics[f"conservative.c_tau_ns_per_pair.{branch}"] = (per_call / n * 1e9, "ns")

    system, state = vb.model.init_grid(20, p=3, q=0.75, m=4, prune_zero=True)
    pairs = system.size**2
    per_call = _per_call(lambda: vb.model.rhs(system, state), 2 if small else 20, repeats)
    metrics["model.rhs_ns_per_pair"] = (per_call / pairs * 1e9, "ns")
    per_call = _per_call(lambda: vb.model.conserved(system, state), 2 if small else 20, repeats)
    metrics["model.conserved_ms"] = (per_call * 1e3, "ms")
    return metrics, error
