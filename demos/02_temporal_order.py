"""Second-order temporal accuracy of the conservative scheme.

Four equal vortices on a circle rotate rigidly at a known rate, so the
exact trajectory is available in closed form.  Halving the step size
repeatedly shows the position error shrinking at order 2 for every
blob order m.
"""

from vortexblob import (
    advance,
    fit_order,
    four_vortex_exact,
    four_vortex_ring,
    temporal_error,
)

T = 10.0
for m in (2, 4, 6):
    system, state = four_vortex_ring(m)
    points = []
    for tau in (0.5, 0.25, 0.125, 0.0625):
        n = int(round(T / tau))
        final = advance(system, state, tau, n, "dmm")
        points.append((tau, temporal_error(final, four_vortex_exact(T, m))))
    fit = fit_order(points)
    errs = "  ".join(f"{e:.3e}" for _, e in points)
    print(f"m = {m}: errors [{errs}]  fitted order = {fit.slope:.3f}")
