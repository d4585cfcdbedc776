"""Exponential integral E1 to near machine precision on (0, 34].

Three regimes:

* ``x <= 1``        -- ``scipy.special.exp1``,
* ``1 < x <= 34``   -- frozen Chebyshev fit of ``x * exp(x) * E1(x)``
                       in t = 2 log(x) / log(34) - 1, summed in powers
                       of t by Horner's rule,
* ``x > 34``        -- exactly zero (|E1| is below double resolution there).

Per element on 1e5-element arrays, single-threaded, exp1 takes 70 ns
below 1, where a 30-term series loop took 190 ns (and 130 us for a call
on 1 element); but on (1, 34] it takes 390 ns against the table's 20 ns,
and above 34 it takes 130 ns against 2 ns for the zero.  Of the pairs of
the 316-, 812- and 3228-vortex grids, 2.3%, 1.4% and 0.6% lie below 1 and
59%, 35% and 14% on (1, 34], so the table and the zero stay.  On a
3-element call the table takes 50 us, nearly all of it the 48 numpy calls
of Horner's 24 steps; Clenshaw's recurrence on the Chebyshev series took
85 us there and 57 ns per element on 1e5 elements.
``e1_reference`` provides an independent series / continued-fraction
evaluation used by the test suite to validate ``exp_integral_e1``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606

# Upper end of the exp1 regime; the Chebyshev fit covers (1, CUTOFF].
SERIES_MAX = 1.0

# Hard cutoff: |E1(x)| < 1e-16 for x > 34, below double-precision resolution
# of the Hamiltonian terms it feeds into.
CUTOFF = 34.0

# Chebyshev coefficients of g(s) = x exp(x) E1(x), s = log(x) mapped from
# [log 1, log 34] to [-1, 1].  Fit at degree 24 against 50-digit reference
# values; max relative error of the reconstructed E1 is ~1.1e-15 on [1, 34].
_CHEB_COEF = np.array([
    0.8250316846775174,
    0.186841720291644,
    -0.04218305263747732,
    0.0013056462027073688,
    0.0014441748276732018,
    -0.00024229253953038976,
    -2.8381539969091218e-05,
    1.2387928046428155e-05,
    -8.65095083163092e-08,
    -4.623930091539147e-07,
    3.9309722017393044e-08,
    1.442150341011813e-08,
    -2.377253026012172e-09,
    -3.897791630093465e-10,
    1.0699255168063355e-10,
    9.002770813854522e-12,
    -4.2269907589245865e-12,
    -1.6004728743115558e-13,
    1.5556746695069563e-13,
    1.0641130599229964e-15,
    -5.503388315552761e-15,
    1.511606205815775e-16,
    2.0309314488941978e-16,
    -9.011479350385905e-17,
    1.2647262427574748e-18,
])
_LOG_HI = np.log(CUTOFF)
# The same fit in powers of t, for Horner's rule.  The magnitudes of these
# coefficients sum to 1.18, so the power sum is as accurate as the Chebyshev
# one: about 1e-15 relative to mpmath either way.
_POW_COEF = np.polynomial.chebyshev.cheb2poly(_CHEB_COEF)


def _horner(x, coef):
    """coef[0] + coef[1] x + ... by Horner's rule, in place after the first step.

    No x * 0 term, so a one-term polynomial gives the bare coefficient.
    The package's one polynomial evaluator.
    """
    if len(coef) == 1:
        return coef[0]
    out = coef[-1] * x + coef[-2]
    for c in coef[-3::-1]:
        out *= x
        out += c
    return out


def _cheb(x):
    """The fit on (1, 34], in powers of t (vectorized)."""
    t = 2.0 * np.log(x) / _LOG_HI - 1.0
    return np.exp(-x) / x * _horner(t, _POW_COEF)


def exp_integral_e1(x):
    """E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    Accepts scalars or arrays.  Relative error <= 5e-15 on (0, 34];
    returns exactly 0 for x > 34.  Raises ``DomainError`` for x <= 0.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):  # a NaN fails both
        raise DomainError("E1 requires strictly positive finite arguments")
    out = np.zeros(arr.shape)
    small = arr <= SERIES_MAX
    mid = ~small & (arr <= CUTOFF)
    if small.any():
        out[small] = exp1(arr[small])
    if mid.any():
        out[mid] = _cheb(arr[mid])
    # x > 34 stays exactly zero
    return float(out) if out.ndim == 0 else out


def e1_reference(x):
    """Independent E1 oracle: series for x <= 1, continued fraction above.

    Scalar only; meant for test-side validation, not the stepping hot path.
    """
    x = float(x)
    if not (x > 0.0) or not np.isfinite(x):
        raise DomainError("E1 requires strictly positive finite arguments")
    if x <= 1.0:
        total = 0.0
        term = 1.0
        l = 0
        while True:
            l += 1
            term *= -x / l
            contrib = term / l
            total += contrib
            if abs(contrib) < 1e-18 * (abs(total) + 1e-300):
                break
        return -EULER_GAMMA - np.log(x) - total
    # Bottom-up evaluation of the continued fraction
    # E1(x) = exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...)))).
    # Fixed depth, evaluated tail-first; stable and accurate to ~4e-16
    # for x >= 1 (convergence is slowest near x = 1).
    depth = 300 if x < 4.0 else 100
    f = 0.0
    for n in range(depth, 0, -1):
        f = n * n / (x + 2 * n + 1 - f)
    return np.exp(-x) / (x + 1.0 - f)
