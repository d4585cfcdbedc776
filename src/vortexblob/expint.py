"""Exponential integral E1 to near machine precision on (0, 34].

Three regimes:

* ``x <= 1``        -- the power series -gamma - log(x) + Ein(x) (DLMF
                       6.6.4), 20 coefficients summed by Horner's rule,
* ``1 < x <= 34``   -- frozen Chebyshev fit of ``x * exp(x) * E1(x)``
                       in t = 2 log(x) / log(34) - 1, summed in powers
                       of t by Horner's rule,
* ``x > 34``        -- exactly zero (|E1| is below double resolution there).

Against 40-digit mpmath the series is within 6.7e-16 on 1e5 log-uniform
points of [1e-12, 1], and the table within 2e-15 on (1, 34].
Per element on 1e5-element arrays, single-threaded on a 2-CPU Intel Xeon,
the series takes 13 ns, the table 21 ns and the zero 2 ns.  Of the pairs
of the 316-, 812- and 3228-vortex grids, 2.3%, 1.4% and 0.6% lie below 1
and 59%, 35% and 14% on (1, 34].  On arrays of more than
``_E1_FLOATS_MAX`` = 32 elements, both sums go through ``_horner`` in
numpy.  A smaller array, or a scalar, skips the regime masks altogether:
``_e1_floats`` takes one log and one exp call on it and does the rest
element by element in Python floats, in ``_horner``'s order of
operations, so with the same bits; an element gets the same bits from a
call on any size.  A whole E1 call (min of 15 x 1000 timings,
interleaved with the numpy path on the same host) takes 3.7, 5.1 and
8.5 us on 1, 3 and 8 elements below 1, and 3.8, 5.8 and 10.3 us on the
table, where the numpy path took 11.6, 12.5 and 16.1 us and 14.5, 15.8
and 19.6 us; a scalar takes 3.9 us against 11.9.  Clenshaw's recurrence
on the Chebyshev series took 85 us on 3 elements, when numpy Horner took
50 us.  ``e1_reference`` provides an independent series /
continued-fraction evaluation used by the test suite; below 1 it sums
the same series, so the tests check that regime against mpmath.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606

# Upper end of the series regime; the Chebyshev fit covers (1, CUTOFF].
SERIES_MAX = 1.0

# E1(x) = -gamma - log x + Ein(x), Ein(x) = sum (-1)^(n+1) x^n / (n n!) (DLMF
# 6.6.4) to n = 19; on x <= 1 the first dropped term is 1 / (20 20!) ~ 2e-20.
_EIN_COEF = (-EULER_GAMMA, *((-1) ** (n + 1) / (n * math.factorial(n)) for n in range(1, 20)))

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
_LOG_HI = float(np.log(CUTOFF))
# The same fit in powers of t, for Horner's rule, as Python floats for
# _e1_floats, which sums in them.  The magnitudes of these coefficients sum
# to 1.18, so the power sum is as accurate as the Chebyshev one: about
# 1e-15 relative to mpmath either way.
_POW_COEF = tuple(np.polynomial.chebyshev.cheb2poly(_CHEB_COEF).tolist())

# Both of E1's polynomials, highest degree first, for _e1_floats.
_EIN_DESC = _EIN_COEF[::-1]
_POW_DESC = _POW_COEF[::-1]
# Arrays of up to this many elements take _e1_floats.  Single-threaded on a
# shared 2-CPU Intel Xeon (min of 15 interleaved timings), it was the cheaper
# path on every regime up to 32 elements: 9.3-10.0 against 22-36 us on 3,
# and 43, 54 and 46 against 51, 67 and 66 us on 32 below 1, on the table and
# mixed; above 34 alone the two paths meet there (13 us).  By 40 elements
# numpy took the series and the table.
_E1_FLOATS_MAX = 32


def _horner(x, coef):
    """coef[0] + coef[1] x + ... by Horner's rule, in place after the first step.

    No x * 0 term, so a one-term polynomial gives the bare coefficient.
    The package's one polynomial evaluator on arrays; a numpy scalar or a
    0-d array gives a numpy scalar.
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


def _e1_floats(arr):
    """exp_integral_e1 on a few elements: one log and one exp call, the rest in Python floats.

    Each element takes the numpy path's operations in its order, each
    multiply, add and divide correctly rounded in both, and the same log
    and exp, so it gets the same bits.  Every element is checked on its
    own, since min and max of a list pass a NaN by where it sits.
    """
    vals = arr.ravel().tolist()
    for v in vals:
        if not 0.0 < v < math.inf:  # a NaN fails too
            raise DomainError("E1 requires strictly positive finite arguments")
    out = []
    for v, log_v, exp_v in zip(vals, np.log(arr).ravel().tolist(), np.exp(-arr).ravel().tolist()):
        acc = 0.0  # 0 x + coef[-1] is exact, so the steps after it are _horner's
        if v <= SERIES_MAX:
            for c in _EIN_DESC:
                acc = acc * v + c
            out.append(acc - log_v)
        elif v <= CUTOFF:
            t = 2.0 * log_v / _LOG_HI - 1.0
            for c in _POW_DESC:
                acc = acc * t + c
            out.append(exp_v / v * acc)
        else:
            out.append(0.0)
    return out[0] if arr.ndim == 0 else np.array(out).reshape(arr.shape)


def exp_integral_e1(x):
    """E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    Accepts scalars or arrays.  Relative error <= 5e-15 on (0, 34];
    returns exactly 0 for x > 34.  Raises ``DomainError`` for x <= 0.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size <= _E1_FLOATS_MAX:
        return _e1_floats(arr)
    if not (arr.min() > 0.0 and arr.max() < np.inf):  # a NaN fails both
        raise DomainError("E1 requires strictly positive finite arguments")
    out = np.zeros(arr.shape)
    small = arr <= SERIES_MAX
    mid = ~small & (arr <= CUTOFF)
    if small.any():
        xs = arr[small]
        out[small] = _horner(xs, _EIN_COEF) - np.log(xs)
    if mid.any():
        out[mid] = _cheb(arr[mid])
    # x > 34 stays exactly zero
    return out


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
