"""Spatial convergence of the blob-smoothed velocity field.

The initial vorticity (1 - r^2)^p on the unit disk induces a steady
rotational flow with a closed-form velocity.  Refining the vortex grid
(h-halving, delta = h^0.75) drives the L2 velocity error to zero at
order ~ 0.75 m; successive error ratios approach that rate from below.
Finer grids than shown here get closer to the asymptotic order.
"""

import numpy as np

from vortexblob import advance, init_grid, spatial_error

for m, p in ((2, 3), (4, 3), (6, 15)):
    errors = []
    for cells in (8, 16, 32):
        system, state = init_grid(cells, p=p, q=0.75, m=m, prune_zero=True)
        final = advance(system, state, 0.001, 1, "dmm")
        errors.append((system.h, spatial_error(system, final, p=p)))
    ratios = [np.log2(errors[i][1] / errors[i + 1][1]) for i in range(len(errors) - 1)]
    shown = "  ".join(f"h={h:.3f}: {e:.3e}" for h, e in errors)
    print(f"m = {m} (p = {p}): {shown}  observed orders {[f'{r:.2f}' for r in ratios]}"
          f"  (theory {0.75 * m:.2f})")
