"""The divided-difference cutoff factor and its Taylor fallback.

The conservative scheme replaces the cutoff factor C(r^2)/r^2 by a
divided difference of the pair potential between time levels.  As the
squared-separation ratio z approaches 1 the closed form suffers
catastrophic cancellation, so a truncated Taylor expansion in (z - 1)
takes over below |z - 1| = 2e-4 at xi = 1 (below |xi_k1 - xi_k| = 2e-4
from xi_k = 2e-4 to 2, and below |z - 1| = 1e-4 from xi_k = 2 on).  This
prints the two branches' difference across the crossover: cubic decay
while both are accurate, then noise as the closed form loses digits.
"""

from vortexblob import c_tau_closed, c_tau_taylor, cutoff

xi = 1.0
print(f"xi = {xi}: C(xi) = {cutoff(2, xi, 1.0):.15f} (the z -> 1 limit)")
print(f"{'z-1':>8} {'|closed - taylor| (m=2)':>24} {'(m=4)':>10} {'(m=6)':>10}")
for dz in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
    diffs = [abs(c_tau_closed(m, xi, xi * (1 + dz)) - c_tau_taylor(m, xi, 1 + dz))
             for m in (2, 4, 6)]
    print(f"{dz:8.0e} {diffs[0]:24.3e} {diffs[1]:10.3e} {diffs[2]:10.3e}")
print("decay is ~cubic down to 1e-3, then the closed form's cancellation "
      "noise dominates -- hence the branch switch at 2e-4 for xi = 1")
