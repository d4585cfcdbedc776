"""Exact references, quadrature, error metrics, and order fitting."""

import math

import numpy as np
import pytest

from vortexblob.errors import ConfigurationError
from vortexblob.model import conserved, init_grid
from vortexblob.reference import (
    _disk_rule,
    exact_conserved_integrals,
    exact_velocity,
    fit_order,
    four_vortex_exact,
    four_vortex_ring,
    ring_angular_velocity,
    spatial_error,
    temporal_error,
)


class TestExactVelocity:
    def test_circular_speed_spot_values(self):
        # total circulation pi/4 gives speed 1/(8 r) outside the disk
        assert exact_velocity(np.array([1.0, 0.0]), 3) == pytest.approx([0.0, 0.125])
        assert exact_velocity(np.array([2.0, 0.0]), 3) == pytest.approx([0.0, 0.0625])
        assert exact_velocity(np.array([0.0, 1.0]), 3) == pytest.approx([-0.125, 0.0])

    def test_solid_body_limit_at_origin(self):
        # near r = 0 the flow rotates rigidly at rate (p+1)/(2(p+1)) = 1/2
        v = exact_velocity(np.array([1e-6, 0.0]), 3)
        assert v[1] == pytest.approx(0.5e-6, rel=1e-8)
        v0 = exact_velocity(np.array([0.0, 0.0]), 3)
        assert v0 == pytest.approx([0.0, 0.0])

    def test_continuous_across_disk_boundary(self):
        inner = exact_velocity(np.array([1.0 - 1e-10, 0.0]), 5)
        outer = exact_velocity(np.array([1.0 + 1e-10, 0.0]), 5)
        assert inner[1] == pytest.approx(outer[1], rel=1e-8)

    def test_matches_circulation_integral(self):
        # speed at radius r equals (circulation inside r) / (2 pi r)
        p = 4
        r = 0.6
        # Gauss-Legendre on [0, r], exact for the degree-9 integrand
        x, w = np.polynomial.legendre.leggauss(8)
        s = 0.5 * r * (x + 1.0)
        circ = 0.5 * r * (w * 2 * np.pi * s * (1 - s**2) ** p).sum()
        speed = exact_velocity(np.array([r, 0.0]), p)[1]
        assert speed == pytest.approx(circ / (2 * np.pi * r), rel=1e-12)

    @pytest.mark.parametrize("p", [3, 4, 15])
    def test_matches_mpmath_inside_disk(self, p):
        # (1 - (1 - r^2)^(p+1)) / (2 (p+1) r^2) times r at 40 digits, for r^2
        # geometric on [1e-16, 1] and just above 1e-8
        mpmath = pytest.importorskip("mpmath")
        r2 = np.concatenate([[1e-16, 1.0000001e-8, 1.0], np.geomspace(1e-16, 1.0, 500)])
        r = np.sqrt(r2)
        speed = exact_velocity(np.column_stack([r, np.zeros_like(r)]), p)[:, 1]
        with mpmath.workdps(40):
            exact = [float(x * (1 - (1 - x * x) ** (p + 1)) / (2 * (p + 1) * x * x)) for x in map(mpmath.mpf, r)]
        assert speed == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_velocity(np.array([0.5, 0.5]), p=0)


class TestRing:
    def test_square_geometry(self):
        state = four_vortex_exact(0.0, 4)
        r2 = state.x**2 + state.y**2
        assert r2 == pytest.approx(np.full(4, 0.5))
        d2 = sorted(
            (state.x[i] - state.x[j]) ** 2 + (state.y[i] - state.y[j]) ** 2
            for i in range(4) for j in range(i + 1, 4)
        )
        assert d2 == pytest.approx([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])

    def test_rotation_preserves_geometry(self):
        early = four_vortex_exact(0.0, 2)
        late = four_vortex_exact(7.3, 2)
        assert late.x**2 + late.y**2 == pytest.approx(early.x**2 + early.y**2)

    def test_angular_velocity_values(self):
        # alpha = [C(1) + C(2)/2] / (8 pi) with delta = 1
        expected = {
            2: (1 - np.e**-1 + 0.5 * (1 - np.e**-2)) / (8 * np.pi),
            4: (1.0 + 0.5 * (1 + np.e**-2)) / (8 * np.pi),
        }
        for m, val in expected.items():
            assert ring_angular_velocity(m) == pytest.approx(val, rel=1e-14)
        assert ring_angular_velocity(6) > ring_angular_velocity(4) > ring_angular_velocity(2)

    def test_exact_solution_satisfies_ode(self):
        # finite-difference velocity of the exact rotation matches the rhs
        from vortexblob.model import rhs

        system, _ = four_vortex_ring(6)
        t, eps = 1.7, 1e-6
        plus, minus = four_vortex_exact(t + eps, 6), four_vortex_exact(t - eps, 6)
        fx, fy = rhs(system, four_vortex_exact(t, 6))
        assert (plus.x - minus.x) / (2 * eps) == pytest.approx(fx, abs=1e-9)
        assert (plus.y - minus.y) / (2 * eps) == pytest.approx(fy, abs=1e-9)


class TestQuadrature:
    def test_radial_monomials_exact(self):
        # the integrand r^k times the Jacobian r reaches degree 15, the radial rule's limit
        pts, w = _disk_rule()
        r = np.hypot(pts[:, 0], pts[:, 1])
        for k in range(15):
            assert (w * r**k).sum() == pytest.approx(2.0 * np.pi / (k + 2), abs=1e-14)

    def test_disk_area_and_moments(self):
        pts, w = _disk_rule()
        assert w.sum() == pytest.approx(np.pi, abs=1e-13)
        r2 = (pts**2).sum(axis=1)
        assert (w * r2).sum() == pytest.approx(np.pi / 2.0, abs=1e-13)
        assert (w * pts[:, 0]).sum() == pytest.approx(0.0, abs=1e-14)

    def test_angular_harmonics_integrate_to_zero(self):
        pts, w = _disk_rule()
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        for k in (1, 2, 5, 12):
            assert (w * np.cos(k * theta)).sum() == pytest.approx(0.0, abs=1e-12)


class TestExactIntegrals:
    def test_closed_forms(self):
        gamma, px, py, ell, _ = exact_conserved_integrals(3)
        assert gamma == pytest.approx(np.pi / 4.0, rel=1e-14)
        assert px == 0.0 and py == 0.0
        assert ell == pytest.approx(-np.pi / 40.0, rel=1e-14)

    def test_interaction_energy_against_independent_quadrature(self):
        # the radial integral before the closed form, by mpmath's adaptive
        # quadrature at 30 digits
        mpmath = pytest.importorskip("mpmath")
        for p in (1, 2, 3, 15):
            inner = lambda r: (1 - (1 - r**2) ** (p + 1)) / (2 * (p + 1))
            integrand = lambda r: r * (1 - r**2) ** p * mpmath.log(r**2) * 2 * inner(r)
            with mpmath.workdps(30):
                expected = float(-mpmath.pi / 2 * mpmath.quad(integrand, [0, 1]))
            assert exact_conserved_integrals(p)[4] == pytest.approx(expected, rel=1e-15), p

    @pytest.mark.parametrize("p", [0, 2.5])
    def test_exponent_must_be_a_positive_integer(self, p):
        with pytest.raises(ConfigurationError):
            exact_conserved_integrals(p)

    def test_discrete_grid_converges_to_integrals(self):
        gamma, _, _, ell, ham = exact_conserved_integrals(3)
        errs = []
        for cells in (20, 40, 80):
            system, state = init_grid(cells, m=2, q=0.75, prune_zero=True)
            c = conserved(system, state)
            errs.append((abs(c.gamma - gamma), abs(c.ell - ell), abs(c.ham - ham)))
        for k in range(3):
            assert errs[0][k] > errs[1][k] > errs[2][k]
        assert errs[-1][2] < 5e-4


class TestMetricsAndFit:
    def test_temporal_error_is_euclidean(self):
        a = four_vortex_exact(0.0, 2)
        b = four_vortex_exact(0.0, 2)
        assert temporal_error(a, b) == 0.0
        shifted = type(a)(x=a.x + 3e-3, y=a.y - 4e-3, t=a.t)
        assert temporal_error(shifted, a) == pytest.approx(2 * 5e-3)

    def test_temporal_error_shape_mismatch(self):
        a = four_vortex_exact(0.0, 2)
        from vortexblob.model import State

        b = State(x=np.zeros(3), y=np.zeros(3))
        with pytest.raises(ConfigurationError):
            temporal_error(a, b)

    def test_spatial_error_zero_for_exact_field(self):
        # the metric itself: identical fields give zero
        system, state = init_grid(16, prune_zero=True)
        err = spatial_error(system, state)
        same = spatial_error(system, state)
        assert err == same  # deterministic
        assert err > 0.0

    def test_fit_order_recovers_synthetic_slope(self):
        points = [(h, 2.7 * h**3.5) for h in (0.4, 0.2, 0.1, 0.05)]
        fit = fit_order(points)
        assert fit.slope == pytest.approx(3.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [(0.3, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.3, math.inf)])
    def test_fit_order_rejects_non_finite_input(self, bad):
        # NaN and inf raise ConfigurationError, not slope nan, LinAlgError or a RuntimeWarning
        with pytest.raises(ConfigurationError, match="positive finite"):
            fit_order([(0.1, 1.0), (0.2, 2.0), bad])

    def test_fit_order_input_validation(self):
        with pytest.raises(ConfigurationError):
            fit_order([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(ConfigurationError):
            fit_order([(0.1, 1.0), (0.2, 2.0), (-0.3, 1.0)])
        with pytest.raises(ConfigurationError):  # one scale: no slope, where polyfit would give one
            fit_order([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
