"""Exponential integral E1: accuracy against the independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexblob import expint
from vortexblob.conservative import _TAYLOR_POLYNOMIALS
from vortexblob.errors import DomainError
from vortexblob.expint import (
    _EIN_COEF,
    _POW_COEF,
    CUTOFF,
    SERIES_MAX,
    _horner,
    e1_reference,
    exp_integral_e1,
)
from vortexblob.model import _CUTOFF_S, ORDER_POLYNOMIALS

# Reference values computed with the series / continued-fraction oracle
# (agrees with 50-digit arbitrary-precision evaluation to ~4e-16).
KNOWN_VALUES = {
    1e-12: 27.053805451028012,
    0.5: 0.5597735947761609,
    1.0: 0.21938393439552029,
    2.0: 0.04890051070806112,
    10.0: 4.156968929685325e-06,
    30.0: 3.0215520106888124e-15,
}


@pytest.mark.parametrize("x,expected", sorted(KNOWN_VALUES.items()))
def test_known_values(x, expected):
    assert exp_integral_e1(x) == pytest.approx(expected, rel=5e-15)


def test_matches_oracle_on_dense_grid():
    xs = np.minimum(np.exp(np.linspace(np.log(1e-12), np.log(CUTOFF), 20000)), CUTOFF)
    vals = exp_integral_e1(xs)
    refs = np.array([e1_reference(x) for x in xs])
    rel = np.abs(vals - refs) / np.abs(refs)
    assert rel.max() <= 5e-15


def test_exactly_zero_above_cutoff():
    assert exp_integral_e1(CUTOFF + 1e-9) == 0.0
    assert exp_integral_e1(1000.0) == 0.0
    out = exp_integral_e1(np.array([35.0, 50.0, 1e6]))
    assert np.all(out == 0.0)


def test_continuous_across_regime_boundaries():
    # SERIES_MAX is the seam between the Ein series and the Chebyshev table
    for boundary in (SERIES_MAX, CUTOFF):
        below = exp_integral_e1(boundary * (1.0 - 1e-12))
        above = exp_integral_e1(boundary * (1.0 + 1e-12))
        if above != 0.0:  # above the hard cutoff both sides are ~0 anyway
            assert below == pytest.approx(above, rel=1e-10)


def test_rejects_nonpositive_and_nonfinite():
    # every element is checked, wherever a NaN sits: min and max of a list
    # skip a NaN that follows a number
    for bad in (0.0, -1.0, np.nan, np.inf, [1.0, -2.0], [1.0, np.nan], [np.nan, 1.0], [1.0, np.inf], [2.0, 0.0]):
        with pytest.raises(DomainError):
            exp_integral_e1(np.array(bad))
        with pytest.raises(DomainError):
            exp_integral_e1(np.resize(np.array(bad), 40))  # the numpy path


def test_scalar_and_array_agree():
    xs = np.array([1e-6, 0.3, 1.0, 5.0, 33.9])
    vec = exp_integral_e1(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert exp_integral_e1(float(x)) == v


@pytest.mark.parametrize("lo, hi, bound", [(1e-12, SERIES_MAX, 1e-15), (SERIES_MAX, CUTOFF, 2e-15),
                                          (1e-12, 3 * CUTOFF, 2e-15)],
                         ids=["series", "table", "mixed"])
def test_each_regime_is_size_independent_and_accurate(lo, hi, bound):
    # 1e5 log-uniform points on (lo, hi]: every element gets the same bits
    # from a call on any size from 1 to 2 _E1_FLOATS_MAX + 1, across the
    # switch from E1's float path to its numpy path, or on all of them, and
    # each is within bound of mpmath (e1_reference sums the same series
    # below 1).  The mixed arrays hold all three regimes, the zeros above
    # CUTOFF among them.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    xs = np.exp(rng.uniform(np.log(lo), np.log(hi), 100_000))
    xs = xs[(xs > lo) & (xs <= hi)]
    vals = exp_integral_e1(xs)
    assert all(exp_integral_e1(float(x)) == v for x, v in zip(xs[:3000], vals[:3000]))
    for size in range(1, 2 * expint._E1_FLOATS_MAX + 2):
        parts = np.concatenate([exp_integral_e1(xs[k:k + size]) for k in range(0, 3000, size)])
        assert np.array_equal(parts, vals[:len(parts)]), size
    zero = xs > CUTOFF
    assert np.all(vals[zero] == 0.0)
    with mpmath.workdps(40):
        refs = np.array([float(mpmath.e1(mpmath.mpf(float(x)))) for x in xs[~zero]])
    assert np.abs(vals[~zero] / refs - 1.0).max() <= bound


def test_small_arrays_keep_shape_and_scalars_stay_floats():
    # arrays of up to _E1_FLOATS_MAX elements and scalars take the float path
    x = np.array([[0.5, 2.0, 40.0], [1e-9, 34.0, 1e300]])
    assert x.size <= expint._E1_FLOATS_MAX
    out = exp_integral_e1(x)
    assert type(out) is np.ndarray and out.shape == x.shape
    assert np.array_equal(out.ravel(), exp_integral_e1(np.resize(x, 40))[:x.size])  # the numpy path's bits
    assert out[0, 2] == out[1, 2] == 0.0 and out[1, 1] > 0.0  # 34 is the table's last point
    assert np.all(exp_integral_e1(np.array([CUTOFF * (1.0 + 1e-15), 35.0, 1e6])) == 0.0)
    assert exp_integral_e1(np.ones((0, 2))).shape == (0, 2)
    for scalar in (np.array(0.5), 0.5, np.float64(5.0), 40):
        got = exp_integral_e1(scalar)
        assert type(got) is float and got == exp_integral_e1(np.array([float(scalar)]))[0]


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-27.5, max_value=3.526))
def test_oracle_agreement_property(log_x):
    x = float(np.exp(log_x))  # log-uniform over ~[1e-12, 34]
    ref = e1_reference(x)
    assert abs(exp_integral_e1(x) - ref) <= 5e-15 * abs(ref)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e-10, max_value=33.0),
    st.floats(min_value=1.0001, max_value=1.03),
)
def test_strictly_decreasing(x, factor):
    assert exp_integral_e1(x) > exp_integral_e1(x * factor) > 0.0


def _horner_tables():
    """Every coefficient table the package evaluates with _horner that has a
    Horner step: E1's two, each order's Q, P, R and cutoff S, and the Taylor B_n."""
    tables = {"e1": _POW_COEF, "ein": _EIN_COEF}
    for m, poly in ORDER_POLYNOMIALS.items():
        tables.update({f"q{m}": poly.q, f"p{m}": poly.p, f"r{m}": poly.r, f"s{m}": _CUTOFF_S[m]})
        tables.update({f"b{n}_{m}": b for n, (_, b) in enumerate(_TAYLOR_POLYNOMIALS[m])})
    return {name: coef for name, coef in tables.items() if len(coef) > 1}


HORNER_TABLES = _horner_tables()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", sorted(HORNER_TABLES))
def test_scalars_and_0d_stay_numpy_scalars(name):
    # a numpy scalar and a 0-d array give numpy scalars with the bits of the
    # same points in an array; the table's first term alone gives its bare
    # coefficient, with no x * 0 step
    coef = HORNER_TABLES[name]
    want = _horner(np.array([2.5, 11.0]), coef)
    for k, x in enumerate((np.float64(2.5), np.array(11.0))):
        got = _horner(x, coef)
        assert type(got) is np.float64 and _bits(got) == _bits(want[k])
    assert _horner(np.array([2.5, 11.0]), coef[:1]) is coef[0]
