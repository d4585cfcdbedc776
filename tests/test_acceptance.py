"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budget is minutes,
dominated by the conservation run (1), the spatial sweep (3), and the
long random-system comparison (9).
"""

import time

import numpy as np

from vortexblob import (
    BlobSystem,
    SolverConfig,
    State,
    advance,
    c_tau_closed,
    c_tau_taylor,
    conserved,
    discrete_multiplier_residuals,
    dmm_step,
    e1_reference,
    exp_integral_e1,
    fit_order,
    four_vortex_exact,
    four_vortex_ring,
    init_grid,
    integrate,
    spatial_error,
    temporal_error,
)
from vortexblob.expint import CUTOFF


def report(criterion, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_conservation():
    """Grid M = 100, m = 4, q = 0.75, tau = 1.0, 1000 steps, all methods."""
    start = time.monotonic()
    system, state = init_grid(10, p=3, q=0.75, m=4, prune_zero=False)
    assert system.size == 100
    drifts = {}
    for method in ("dmm", "imm", "rm2", "rm4"):
        record, _ = integrate(system, state, 1.0, 1000, method, sample_stride=10)
        drifts[method] = record.max_drift()
    elapsed = time.monotonic() - start
    ok = (
        drifts["dmm"].max() <= 1e-11
        and max(drifts["imm"][0], drifts["imm"][1], drifts["imm"][2]) <= 1e-11
        and drifts["imm"][3] < 1e-4
        and drifts["rm2"][2] >= 1e-6
        and drifts["rm4"][2] >= 1e-6
        and elapsed <= 120.0
    )
    report(1, ok,
           f"dmm max {drifts['dmm'].max():.2e} (<=1e-11), "
           f"imm P/L {max(drifts['imm'][:3]):.2e} (<=1e-11) H {drifts['imm'][3]:.2e} (<1e-4), "
           f"rm2 L {drifts['rm2'][2]:.2e} rm4 L {drifts['rm4'][2]:.2e} (>=1e-6), "
           f"{elapsed:.0f}s (<=120s)")


def test_criterion_2_temporal_order():
    """4-vortex ring, T = 10, tau halving: DMM slope in [1.9, 2.1] per m."""
    slopes = {}
    for m in (2, 4, 6):
        system, state = four_vortex_ring(m)
        points = []
        for tau in (0.5, 0.25, 0.125, 0.0625):
            n = int(round(10.0 / tau))
            final = advance(system, state, tau, n, "dmm")
            points.append((tau, temporal_error(final, four_vortex_exact(10.0, m))))
        slopes[m] = fit_order(points).slope
    ok = all(1.9 <= s <= 2.1 for s in slopes.values())
    report(2, ok, "slopes " + ", ".join(f"m={m}: {s:.3f}" for m, s in slopes.items())
           + " (need [1.9, 2.1])")


def test_criterion_3_spatial_order():
    """h-halving at the short-time setting; order = finest-pair error ratio."""
    start = time.monotonic()
    windows = {2: (1.35, 1.65), 4: (2.8, 3.2), 6: (4.2, 4.7)}
    families = {2: (8, 16, 32, 64), 4: (16, 32, 64, 128), 6: (16, 32, 64, 128)}
    orders = {}
    for m in (2, 4, 6):
        p = 15 if m == 6 else 3
        errors = []
        for cells in families[m]:
            system, state = init_grid(cells, p=p, q=0.75, m=m, prune_zero=True)
            final = advance(system, state, 0.001, 1, "dmm")
            errors.append(spatial_error(system, final, p=p))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        orders[m] = float(np.log2(errors[-2] / errors[-1]))
    elapsed = time.monotonic() - start
    ok = all(windows[m][0] <= orders[m] <= windows[m][1] for m in orders) and elapsed <= 600.0
    report(3, ok, "orders " + ", ".join(
        f"m={m}: {o:.3f} (need {windows[m]})" for m, o in orders.items())
        + f", {elapsed:.0f}s (<=600s)")


def test_criterion_4_conserved_quantity_convergence():
    """|L^h,N + pi/40| under h-halving: DMM converges, RM2 at tau=1 plateaus."""
    start = time.monotonic()
    ell_exact = -np.pi / 40.0
    dmm_errors = []
    for cells in (8, 16, 32):
        system, state = init_grid(cells, p=3, q=0.75, m=4, prune_zero=True)
        final = advance(system, state, 1.0, 10, "dmm")
        dmm_errors.append((system.h, abs(conserved(system, final).ell - ell_exact)))
    dmm_monotone = all(a[1] > b[1] for a, b in zip(dmm_errors, dmm_errors[1:]))
    dmm_slope = fit_order(dmm_errors).slope
    rm2_errors = []
    for cells in (8, 16, 32, 64):
        system, state = init_grid(cells, p=3, q=0.75, m=4, prune_zero=True)
        final = advance(system, state, 1.0, 10, "rm2")
        rm2_errors.append(abs(conserved(system, final).ell - ell_exact))
    plateau_ratio = min(rm2_errors[-1] / rm2_errors[-2], rm2_errors[-2] / rm2_errors[-1])
    elapsed = time.monotonic() - start
    ok = dmm_monotone and dmm_slope >= 2.0 and plateau_ratio > 0.8 and elapsed <= 300.0
    report(4, ok,
           f"dmm monotone={dmm_monotone} slope={dmm_slope:.2f} (>=2.0), "
           f"rm2 finest-two ratio {plateau_ratio:.3f} (>0.8), {elapsed:.0f}s (<=300s)")


def test_criterion_5_e1_accuracy():
    """1e5 log-uniform points on [1e-12, 34] vs the oracle; zero above 34."""
    rng = np.random.default_rng(12345)
    xs = np.exp(rng.uniform(np.log(1e-12), np.log(CUTOFF), 100000))
    xs = np.minimum(xs, CUTOFF)
    values = exp_integral_e1(xs)
    refs = np.array([e1_reference(x) for x in xs])
    max_rel = float((np.abs(values - refs) / np.abs(refs)).max())
    above = exp_integral_e1(np.array([34.0000001, 100.0, 1e8]))
    ok = max_rel <= 5e-15 and np.all(above == 0.0)
    report(5, ok, f"max rel error {max_rel:.2e} (<=5e-15), "
           f"above cutoff all zero: {bool(np.all(above == 0.0))}")


def test_criterion_6_discrete_multiplier_identities():
    """100 random M = 5 state pairs, including Taylor-branch pairs."""
    rng = np.random.default_rng(777)
    worst1 = worst2 = 0.0
    for trial in range(100):
        m = (2, 4, 6)[trial % 3]
        system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=rng.uniform(-1, 1, 5))
        x, y = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        prev = State(x=x, y=y)
        if trial % 2 == 0:
            spread = 0.1  # generic pairs, closed-form branch dominates
        else:
            spread = 1e-6  # |z - 1| near 1e-6 for most pairs, inside the Taylor band
        cand = State(x=x + spread * rng.uniform(-1, 1, 5),
                     y=y + spread * rng.uniform(-1, 1, 5))
        res1, res2 = discrete_multiplier_residuals(system, prev, cand, 0.25)
        scale = max(1.0, float(np.abs(conserved(system, prev).as_array()).max()) / 0.25)
        worst1 = max(worst1, res1 / scale)
        worst2 = max(worst2, res2)
    ok = worst1 <= 1e-11 and worst2 <= 1e-11
    report(6, ok, f"worst res1/scale {worst1:.2e}, worst res2 {worst2:.2e} (<=1e-11)")


def test_criterion_7_taylor_crossover():
    """|closed - taylor| slope 3.0 +/- 0.2 on [1e-3, 1e-1]; deviation below 1e-4."""
    slopes = {}
    deviates = {}
    for m in (2, 4, 6):
        spans = np.logspace(-3, -1, 9)
        diffs = np.array([abs(c_tau_closed(m, 1.0, 1.0 + s) - c_tau_taylor(m, 1.0, 1.0 + s))
                          for s in spans])
        slopes[m] = float(np.polyfit(np.log(spans), np.log(diffs), 1)[0])
        # below the switch point the closed form's cancellation noise must
        # exceed the continuation of the cubic decay law
        cubic_at = lambda s: diffs[0] * (s / spans[0]) ** 3
        small = np.array([1e-5, 1e-6])
        noise = np.array([abs(c_tau_closed(m, 1.0, 1.0 + s) - c_tau_taylor(m, 1.0, 1.0 + s))
                          for s in small])
        deviates[m] = bool(np.all(noise > cubic_at(small)))
    ok = all(abs(slopes[m] - 3.0) <= 0.2 for m in slopes) and all(deviates.values())
    report(7, ok, "slopes " + ", ".join(f"m={m}: {s:.2f}" for m, s in slopes.items())
           + f" (3.0+/-0.2), closed form deviates below 1e-4: {deviates}")


def test_criterion_8_symmetry():
    """Forward-then-backward step returns the start within 10x tolerance."""
    rng = np.random.default_rng(4242)
    solver = SolverConfig(tol=1e-12, max_iters=300)
    worst = 0.0
    for _ in range(100):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=rng.uniform(-1, 1, 4))
        state = State(x=rng.uniform(-1, 1, 4), y=rng.uniform(-1, 1, 4))
        fwd = dmm_step(system, state, 0.2, solver=solver).next
        back = dmm_step(system, fwd, -0.2, solver=solver).next
        gap = max(np.abs(back.x - state.x).max(), np.abs(back.y - state.y).max())
        worst = max(worst, gap)
    ok = worst <= 10 * solver.tol
    report(8, ok, f"worst return gap {worst:.2e} (<= {10 * solver.tol:.0e})")


def test_criterion_9_timing_drift_comparison():
    """10^4 steps, M = 3 random, 5 seeds: DMM H-drift far below RM2/RM4."""
    beats_rm2 = beats_rm4 = 0
    details = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=rng.uniform(-1, 1, 3))
        state = State(x=rng.uniform(-1, 1, 3), y=rng.uniform(-1, 1, 3))
        ham = {}
        for method in ("rm2", "rm4", "dmm"):
            record, _ = integrate(system, state, 1.0, 10000, method, sample_stride=100)
            ham[method] = record.max_drift()[3]
        if ham["rm2"] >= 1e4 * ham["dmm"]:
            beats_rm2 += 1
        if ham["rm4"] > ham["dmm"]:
            beats_rm4 += 1
        details.append(f"seed {seed}: rm2 {ham['rm2']:.1e} rm4 {ham['rm4']:.1e} "
                       f"dmm {ham['dmm']:.1e}")
    ok = beats_rm2 == 5 and beats_rm4 >= 4
    report(9, ok, f">=1e4 x below rm2 in {beats_rm2}/5 (need 5), "
           f"below rm4 in {beats_rm4}/5 (need >=4); " + "; ".join(details))
