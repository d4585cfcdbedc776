"""Exponential integral E1: accuracy against the independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexblob.errors import DomainError
from vortexblob.expint import CUTOFF, SERIES_MAX, e1_reference, exp_integral_e1

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
    # SERIES_MAX is the seam between scipy's exp1 and the Chebyshev table
    for boundary in (SERIES_MAX, CUTOFF):
        below = exp_integral_e1(boundary * (1.0 - 1e-12))
        above = exp_integral_e1(boundary * (1.0 + 1e-12))
        if above != 0.0:  # above the hard cutoff both sides are ~0 anyway
            assert below == pytest.approx(above, rel=1e-10)


def test_rejects_nonpositive_and_nonfinite():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            exp_integral_e1(bad)
    with pytest.raises(DomainError):
        exp_integral_e1(np.array([1.0, -2.0]))


def test_scalar_and_array_agree():
    xs = np.array([1e-6, 0.3, 1.0, 5.0, 33.9])
    vec = exp_integral_e1(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert exp_integral_e1(float(x)) == v


def test_table_regime_is_size_independent_and_accurate():
    # 1e5 log-uniform points on (1, 34]: every element gets the same bits
    # from a call on 1, 3 or all of them, and each is within 2e-15 of mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    xs = np.exp(rng.uniform(np.log(SERIES_MAX), np.log(CUTOFF), 100_000))
    xs = xs[xs > SERIES_MAX]
    vals = exp_integral_e1(xs)
    assert all(exp_integral_e1(float(x)) == v for x, v in zip(xs[:3000], vals[:3000]))
    triples = np.concatenate([exp_integral_e1(xs[k:k + 3]) for k in range(0, 3000, 3)])
    assert np.array_equal(triples, vals[:3000])
    with mpmath.workdps(40):
        refs = np.array([float(mpmath.e1(mpmath.mpf(float(x)))) for x in xs])
    assert np.abs(vals / refs - 1.0).max() <= 2e-15


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
