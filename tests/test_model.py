"""Blob kernels, dynamics, conserved quantities, and grid setup."""

import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexblob.model
from vortexblob.conservative import dmm_rhs
from vortexblob.errors import ConfigurationError, DomainError, PairDegeneracyError, SolverFailureError
from vortexblob.integrators import integrate
from vortexblob.model import (
    ORDER_POLYNOMIALS,
    SUPPORTED_ORDERS,
    BlobSystem,
    State,
    blob_vorticity,
    conserved,
    cutoff,
    cutoff_over_r2,
    init_grid,
    initial_vorticity,
    multiplier_matrix,
    p_polynomial,
    pair_differences,
    pair_potential,
    q_polynomial,
    rhs,
    triangle_blocks,
    velocity_field,
)


def random_system(rng, n, m=2, delta=1.0):
    return (
        BlobSystem(m=m, h=1.0, delta=delta, kappa=rng.uniform(-1.0, 1.0, n)),
        State(x=rng.uniform(-1.0, 1.0, n), y=rng.uniform(-1.0, 1.0, n)),
    )


class TestKernels:
    def test_q_polynomial_values(self):
        # Q(0) = 1 for every order; spot values at r = 1 and r = 2
        for m in (2, 4, 6):
            assert q_polynomial(m, 0.0) == 1.0
        assert q_polynomial(2, 1.0) == 1.0
        assert q_polynomial(4, 1.0) == 0.0
        assert q_polynomial(6, 1.0) == -0.5
        assert q_polynomial(6, 2.0) == -1.0

    def test_p_polynomial_values(self):
        assert p_polynomial(2, 0.7) == pytest.approx(1.0 / np.pi)
        assert p_polynomial(4, 1.0) == pytest.approx(1.0 / np.pi)
        assert p_polynomial(6, 1.0) == pytest.approx(0.5 / np.pi)

    def test_vorticity_shape_normalized(self):
        # each blob carries unit circulation: 2 pi int_0^inf P(s) e^-s ds/2 = 1
        s = np.linspace(0.0, 60.0, 400001)
        for m in (2, 4, 6):
            integrand = p_polynomial(m, s) * np.exp(-s)
            total = np.pi * np.trapezoid(integrand, s)
            assert total == pytest.approx(1.0, abs=5e-8)

    def test_cutoff_limits(self):
        for m in (2, 4, 6):
            assert cutoff(m, 0.0, 1.0) == 0.0
            assert cutoff(m, 1e4, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert cutoff(2, 1.0, 1.0) == pytest.approx(1.0 - np.exp(-1.0))
        assert cutoff(4, 1.0, 1.0) == pytest.approx(1.0)

    def test_cutoff_over_r2_matches_direct_form(self):
        r2 = np.array([1.5e-3, 0.1, 1.0, 9.0])
        for m in (2, 4, 6):
            direct = cutoff(m, r2, 1.3) / r2
            assert cutoff_over_r2(m, r2, 1.3) == pytest.approx(direct, rel=1e-14)

    def test_cutoff_over_r2_matches_mpmath(self):
        # (1 - Q(xi) e^(-xi))/xi at 40 digits, delta = 1 so r2 = xi
        mpmath = pytest.importorskip("mpmath")
        xi = np.geomspace(1e-12, 100.0, 400)
        with mpmath.workdps(40):
            for m in (2, 4, 6):
                q = ORDER_POLYNOMIALS[m].q
                exact = []
                for x in map(mpmath.mpf, xi):
                    big_q = sum(mpmath.mpf(float(c)) * x**k for k, c in enumerate(q))
                    exact.append(float((1 - big_q * mpmath.exp(-x)) / x))
                assert cutoff_over_r2(m, xi, 1.0) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_cutoff_over_r2_finite_at_zero(self):
        # C(r2)/r2 -> -a_1/delta^2 where a_1 is the linear Taylor
        # coefficient of Q(xi) e^(-xi): 1, 2, 3 for m = 2, 4, 6.
        for m, limit in ((2, 1.0), (4, 2.0), (6, 3.0)):
            assert cutoff_over_r2(m, 0.0, 1.0) == pytest.approx(limit)
            assert cutoff_over_r2(m, 0.0, 2.0) == pytest.approx(limit / 4.0)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_cutoff_over_r2_is_1_over_r2_past_xi_708(self, m):
        # past xi = 708 the S exp(-xi) tail is below half an ulp and is not formed;
        # a block reaching there masks it entry by entry, with the plain call's bits below
        r2 = np.array([0.0, 1.0, 700.0, 708.5, 709.0, 745.5, 800.0, 1e5, 1e300])
        got = cutoff_over_r2(m, r2, 1.0)
        assert np.array_equal(got[4:], 1.0 / r2[4:])
        assert [cutoff_over_r2(m, v, 1.0) for v in r2] == got.tolist()
        assert got[1:4] == pytest.approx(cutoff(m, r2[1:4], 1.0) / r2[1:4], rel=1e-14)

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (0,)])
    def test_array_input_gives_array_of_its_shape(self, m, shape):
        # Q and P of m = 2 are constants, which the Horner evaluator returns bare
        r2 = np.linspace(0.5, 3.0, int(np.prod(shape))).reshape(shape)
        for out in (q_polynomial(m, r2), p_polynomial(m, r2), cutoff(m, r2, 1.3),
                    cutoff_over_r2(m, r2, 1.3), pair_potential(m, r2, 1.3)):
            assert isinstance(out, np.ndarray) and out.shape == shape

    def test_unsupported_order_rejected(self):
        with pytest.raises(ConfigurationError):
            cutoff(3, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            q_polynomial(8, 1.0)


class TestDynamics:
    def test_single_vortex_is_stationary(self):
        system = BlobSystem(m=4, h=1.0, delta=1.0, kappa=np.array([2.0]))
        state = State(x=np.array([0.3]), y=np.array([-0.7]))
        fx, fy = rhs(system, state)
        assert fx[0] == 0.0 and fy[0] == 0.0

    def test_pair_orbits_perpendicular_to_separation(self):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=np.array([1.0, 1.0]))
        state = State(x=np.array([-0.5, 0.5]), y=np.array([0.0, 0.0]))
        fx, fy = rhs(system, state)
        # equal strengths on the x-axis: velocities are purely vertical,
        # opposite, and equal in magnitude
        assert fx == pytest.approx([0.0, 0.0])
        assert fy[0] == pytest.approx(-fy[1])
        assert fy[1] > 0.0

    def test_velocity_field_consistent_with_rhs(self):
        rng = np.random.default_rng(7)
        system, state = random_system(rng, 6, m=4)
        fx, fy = rhs(system, state)
        # evaluating the induced field at vortex i, excluding i's own
        # (vanishing) self-term, reproduces the ODE right-hand side
        for i in range(6):
            others = np.ones(6, dtype=bool)
            others[i] = False
            sub = BlobSystem(m=4, h=1.0, delta=system.delta, kappa=system.kappa[others])
            sub_state = State(x=state.x[others], y=state.y[others])
            vel = velocity_field(sub, sub_state, np.array([state.x[i], state.y[i]]))
            assert vel[0] == pytest.approx(fx[i], abs=1e-15)
            assert vel[1] == pytest.approx(fy[i], abs=1e-15)
        # at the vortices themselves the zero distances take the weight's
        # finite limit, and their vanishing differences drop the self-terms
        vel = velocity_field(system, state, np.stack([state.x, state.y], axis=1))
        np.testing.assert_allclose(vel.T, np.array((fx, fy)), rtol=0.0, atol=1e-15)

    def test_coincident_strength_pair_raises(self):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=np.array([1.0, 1.0]))
        state = State(x=np.array([0.1, 0.1]), y=np.array([0.2, 0.2]))
        with pytest.raises(PairDegeneracyError) as exc:
            rhs(system, state)
        assert {exc.value.i, exc.value.j} == {0, 1}

    def test_coincident_zero_strength_pair_allowed(self):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=np.array([1.0, 0.0]))
        state = State(x=np.array([0.1, 0.1]), y=np.array([0.2, 0.2]))
        fx, fy = rhs(system, state)
        assert np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.sampled_from([2, 4, 6]),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_multiplier_annihilates_rhs(self, n, m, seed):
        rng = np.random.default_rng(seed)
        system, state = random_system(rng, n, m=m)
        lam = multiplier_matrix(system, state)
        f = np.concatenate(rhs(system, state))
        scale = max(1.0, np.abs(f).max())
        assert np.abs(lam @ f).max() <= 1e-13 * scale

    def test_rhs_is_hamiltonian_gradient(self):
        # kappa_i xdot_i = dH/dy_i and kappa_i ydot_i = -dH/dx_i; the
        # multiplier's H row is that gradient, (dH/dx, dH/dy)
        rng = np.random.default_rng(3)
        system, state = random_system(rng, 5, m=6)
        fx, fy = rhs(system, state)
        h_row = multiplier_matrix(system, state)[3]
        eps = 1e-6
        for i in range(5):
            for axis in ("x", "y"):
                xs, ys = state.x.copy(), state.y.copy()
                if axis == "x":
                    xs[i] += eps
                    plus = conserved(system, State(x=xs, y=ys)).ham
                    xs[i] -= 2 * eps
                    minus = conserved(system, State(x=xs, y=ys)).ham
                    grad = (plus - minus) / (2 * eps)
                    assert grad == pytest.approx(-system.kappa[i] * fy[i], abs=2e-9)
                    assert grad == pytest.approx(h_row[i], abs=2e-9)
                else:
                    ys[i] += eps
                    plus = conserved(system, State(x=xs, y=ys)).ham
                    ys[i] -= 2 * eps
                    minus = conserved(system, State(x=xs, y=ys)).ham
                    grad = (plus - minus) / (2 * eps)
                    assert grad == pytest.approx(system.kappa[i] * fx[i], abs=2e-9)
                    assert grad == pytest.approx(h_row[5 + i], abs=2e-9)


class TestConserved:
    def test_two_vortex_closed_form(self):
        kappa = np.array([1.5, -0.5])
        x = np.array([0.0, 1.0])
        y = np.array([2.0, 0.0])
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=kappa)
        c = conserved(system, State(x=x, y=y))
        assert c.gamma == pytest.approx(1.0)
        assert c.px == pytest.approx((kappa * y).sum())
        assert c.py == pytest.approx(-(kappa * x).sum())
        assert c.ell == pytest.approx(-0.5 * (kappa * (x**2 + y**2)).sum())
        r2 = 5.0
        expected_h = -(kappa[0] * kappa[1]) * pair_potential(2, r2, 1.0) / (4 * np.pi)
        assert c.ham == pytest.approx(float(expected_h))

    def test_conserved_blocked_matches_small_direct(self):
        # block-accumulated Hamiltonian must equal a plain double loop
        rng = np.random.default_rng(11)
        system, state = random_system(rng, 12, m=4, delta=0.8)
        direct = 0.0
        for i in range(12):
            for j in range(i + 1, 12):
                r2 = (state.x[i] - state.x[j]) ** 2 + (state.y[i] - state.y[j]) ** 2
                direct -= system.kappa[i] * system.kappa[j] * float(
                    pair_potential(4, r2, 0.8)
                ) / (4 * np.pi)
        assert conserved(system, state).ham == pytest.approx(direct, rel=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflow_is_domain_error(self):
        # the strengths' products (1e400) overflow: a DomainError, not ham = nan
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1e200, -1e200, 1e200])
        with pytest.raises(DomainError):
            conserved(system, State(x=[0.0, 0.5, -0.3], y=[0.1, -0.2, 0.4]))
        # an overflowed r2 raises the same error, where the pair triangle forms it
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1.0, 1.0])
        with pytest.raises(DomainError):
            conserved(system, State(x=[-1e200, 1e200], y=[0.0, 0.0]))

    def test_overflow_is_domain_error_with_no_warning_first(self):
        # no filterwarnings mark: the suite's error::RuntimeWarning filter turns
        # any overflow warning into the error raised
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1.0, 1.0, 1.0])
        with pytest.raises(DomainError):  # x^2 sums past the floats in the angular impulse
            conserved(system, State(x=[0.0, 1e154, -1e154], y=[0.0, 0.0, 0.0]))
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1e200, -1e200, 1e200])
        with pytest.raises(DomainError, match="not finite"):  # the strengths' products overflow
            conserved(system, State(x=[0.0, 0.5, -0.3], y=[0.1, -0.2, 0.4]))

    def test_pair_potential_order_terms(self):
        xi = 0.9
        base = pair_potential(2, xi, 1.0)
        assert pair_potential(4, xi, 1.0) == pytest.approx(base - np.exp(-xi))
        assert pair_potential(6, xi, 1.0) == pytest.approx(
            base + (-1.5 + 0.5 * xi) * np.exp(-xi)
        )


class TestRowBlocks:
    """One-entry tiles (one row per block, one pair per chunk) against the default tile."""

    @staticmethod
    def system_and_states():
        # vortex 2 has zero strength and sits on vortex 3: an extra zero of
        # r2 that must neither raise nor contribute
        rng = np.random.default_rng(17)
        kappa = rng.uniform(-1.0, 1.0, 7)
        kappa[2] = 0.0
        x, y = rng.uniform(-1.0, 1.0, 7), rng.uniform(-1.0, 1.0, 7)
        cx, cy = x + 0.05 * rng.uniform(-1.0, 1.0, 7), y + 0.05 * rng.uniform(-1.0, 1.0, 7)
        x[2], y[2], cx[2], cy[2] = x[3], y[3], cx[3], cy[3]
        prev, cand = State(x=x, y=y), State(x=cx, y=cy)
        system = BlobSystem(m=6, h=1.0, delta=0.7, kappa=kappa)
        return system, prev, cand, rng.uniform(-1.5, 1.5, (9, 2))

    @staticmethod
    def outputs(system, prev, cand, pts):
        return (
            np.concatenate(rhs(system, prev)),
            np.concatenate(dmm_rhs(system, prev, cand)),
            velocity_field(system, prev, pts),
            blob_vorticity(system, prev, pts),
        )

    def test_one_row_blocks_match_one_block(self, monkeypatch):
        system, prev, cand, pts = self.system_and_states()
        whole = self.outputs(system, prev, cand, pts)
        ham = conserved(system, prev).ham
        monkeypatch.setattr(vortexblob.model, "_TILE", 1)
        got = self.outputs(system, prev, cand, pts)
        for k in (0, 2, 3):  # rhs, velocity_field, blob_vorticity
            assert np.array_equal(got[k], whole[k])
        # dmm_rhs: chunk boundaries of the pair triangle set the scatter's summation order
        assert got[1] == pytest.approx(whole[1], rel=1e-14, abs=0.0)
        assert conserved(system, prev).ham == pytest.approx(ham, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("tile", [None, 1])
    def test_hamiltonian_matches_double_loop(self, tile, monkeypatch):
        # the pair-triangle sum against every strength-bearing pair once
        system, prev, _, _ = self.system_and_states()
        if tile is not None:
            monkeypatch.setattr(vortexblob.model, "_TILE", tile)
        kappa, n = system.kappa, system.size
        direct = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if kappa[i] != 0.0 and kappa[j] != 0.0:
                    r2 = (prev.x[i] - prev.x[j]) ** 2 + (prev.y[i] - prev.y[j]) ** 2
                    direct -= kappa[i] * kappa[j] * float(pair_potential(system.m, r2, system.delta)) / (4 * np.pi)
        assert conserved(system, prev).ham == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_coincident_pair_raises_with_global_indices(self, monkeypatch):
        monkeypatch.setattr(vortexblob.model, "_TILE", 1)
        system, prev, cand, _ = self.system_and_states()
        x, y = prev.x.copy(), prev.y.copy()
        x[5], y[5] = x[4], y[4]
        bad = State(x=x, y=y)
        calls = (
            lambda: rhs(system, bad),
            lambda: dmm_rhs(system, cand, bad),
            lambda: dmm_rhs(system, bad, cand),
            lambda: conserved(system, bad),
        )
        for call in calls:
            with pytest.raises(PairDegeneracyError) as exc:
                call()
            assert {exc.value.i, exc.value.j} == {4, 5}


class TestBand:
    """rhs over the band of the vortex-vortex matrix: chunks of 64 rows against the columns from their first vortex on."""

    @staticmethod
    def direct(system, state):
        # every ordered pair (i, j), summed exactly per vortex
        n = system.size
        s = system.kappa / (2.0 * np.pi)
        u, v = np.zeros(n), np.zeros(n)
        for i in range(n):
            dx, dy = state.x[i] - state.x, state.y[i] - state.y
            w = cutoff_over_r2(system.m, dx * dx + dy * dy, system.delta) * s
            u[i] = -math.fsum(w[j] * dy[j] for j in range(n))
            v[i] = math.fsum(w[j] * dx[j] for j in range(n))
        return np.concatenate((u, v))

    @staticmethod
    def assert_close(got, want, rel=1e-14):
        assert np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)

    @pytest.mark.parametrize("tile", [None, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129, 300])
    def test_rhs_matches_double_loop(self, n, tile, monkeypatch):
        # 64, 65 and 129 vortices put one and two chunk edges at the default tile
        if tile is not None:
            monkeypatch.setattr(vortexblob.model, "_TILE", tile)
        system, state = random_system(np.random.default_rng(n), n, m=SUPPORTED_ORDERS[n % 3], delta=0.3)
        self.assert_close(np.concatenate(rhs(system, state)), self.direct(system, state))

    @pytest.mark.parametrize("tile", [1, 1_000, 4_000])
    @pytest.mark.parametrize("n", [65, 130, 300])
    def test_rhs_does_not_depend_on_the_tile(self, n, tile, monkeypatch):
        # blocks of 1, 15 / 7 / 3 and 61 / 30 / 13 rows split the 64-row chunks
        system, state = random_system(np.random.default_rng(n), n, m=4, delta=0.3)
        whole = np.concatenate(rhs(system, state))
        monkeypatch.setattr(vortexblob.model, "_TILE", tile)
        assert np.array_equal(np.concatenate(rhs(system, state)), whole)

    @staticmethod
    def coincident(pairs, zero=()):
        # 130 vortices, two band chunks: rows 0-63 and 64-129
        system, state = random_system(np.random.default_rng(5), 130, m=4, delta=0.3)
        kappa, x, y = system.kappa.copy(), state.x.copy(), state.y.copy()
        kappa[list(zero)] = 0.0
        for i, j in pairs:
            x[j], y[j] = x[i], y[i]
        return BlobSystem(m=4, h=1.0, delta=0.3, kappa=kappa), State(x=x, y=y)

    def test_zero_strength_coincident_pairs_are_finite(self):
        # (10, 20) inside the first chunk's square, (30, 100) across the two chunks
        system, state = self.coincident([(10, 20), (30, 100)], zero=(20, 30))
        got = np.concatenate(rhs(system, state))
        assert np.isfinite(got).all()
        self.assert_close(got, self.direct(system, state))

    @pytest.mark.parametrize("pair", [(5, 40), (5, 100), (70, 129)])
    def test_coincident_strength_pair_raises(self, pair):
        system, state = self.coincident([pair])
        with pytest.raises(PairDegeneracyError) as exc:
            rhs(system, state)
        assert {exc.value.i, exc.value.j} == set(pair)

    def test_impulse_rates_vanish(self):
        # d/dt sum kappa y = sum kappa v and the like: zero, the band's antisymmetric sums to roundoff
        system, state = random_system(np.random.default_rng(11), 300, m=6, delta=0.3)
        u, v = rhs(system, state)
        k = system.kappa
        assert abs(k @ u) <= 1e-14 * (np.abs(k) @ np.abs(u))
        assert abs(k @ v) <= 1e-14 * (np.abs(k) @ np.abs(v))

    def test_overflowing_r2_raises_domain_error(self):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1.0, -1.0, 0.5])
        with pytest.raises(DomainError, match="overflow"):
            rhs(system, State(x=[0.0, 1e200, -1e200], y=[0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("field", [velocity_field, blob_vorticity])
    def test_overflowing_point_r2_raises_domain_error(self, field, m):
        # the points traversal checks as the band does: no NaN or 0 with a RuntimeWarning
        system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=[1.0, -1.0, 0.5])
        state = State(x=[0.0, 0.5, -0.5], y=[0.0, 0.0, 0.5])
        with pytest.raises(DomainError, match="squared distance of point 1 and vortex 0 overflows"):
            field(system, state, [[0.1, 0.2], [1e200, 0.0]])

    def test_overflowing_triangle_r2_raises_domain_error(self):
        # the triangle checks as the band does, and names the first pair that overflows
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1.0, -1.0, 0.5])
        x, y = np.array([0.0, 1e154, -1e154]), np.zeros(3)  # only 1 and 2 are 2e154 apart
        i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
        assert np.isfinite(pair_differences(system, np.array((x, y)), i[:2], j[:2])[1]).all()
        with pytest.raises(DomainError, match="squared distance of vortices 1 and 2 overflows"):
            pair_differences(system, np.array((x, y)), i, j)
        with pytest.raises(DomainError, match="overflows"):
            dmm_rhs(system, State(x=x, y=y), State(x=x, y=y))

    def test_overflowing_triangle_difference_names_its_pair(self):
        # x_0 - x_2 overflows in the subtraction, which the triangle writes over its gathered rows
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1.0, 0.0, 0.5])
        xy = np.array([[1e308, 1e308, -1e308], [0.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="squared distance of vortices 0 and 2 overflows"):
            pair_differences(system, xy, np.array([0, 0, 1]), np.array([1, 2, 2]))

    @pytest.mark.parametrize("tile", [None, 100])
    def test_overflowing_r2_names_its_pair(self, tile, monkeypatch):
        # only vortices 66 and 68 are 2e154 apart: in the second chunk, and in a
        # one-row block of it at tile 100
        if tile is not None:
            monkeypatch.setattr(vortexblob.model, "_TILE", tile)
        system, state = random_system(np.random.default_rng(3), 70, m=4)
        x = state.x.copy()
        x[66], x[68] = 1e154, -1e154
        with pytest.raises(DomainError, match="squared distance of vortices 66 and 68 overflows"):
            rhs(system, State(x=x, y=state.y))

    @pytest.mark.parametrize("field", [velocity_field, blob_vorticity])
    def test_overflowing_point_r2_names_its_pair(self, field, monkeypatch):
        # blocks of 2 points: only point 5, in the third block, is 2e154 from vortex 2
        monkeypatch.setattr(vortexblob.model, "_TILE", 6)
        system = BlobSystem(m=4, h=1.0, delta=1.0, kappa=[1.0, -1.0, 0.5])
        state = State(x=[0.0, 0.5, -1e154], y=[0.0, 0.0, 0.0])
        points = [[0.1 * k, 0.2] for k in range(5)] + [[1e154, 0.0]]
        with pytest.raises(DomainError, match="squared distance of point 5 and vortex 2 overflows"):
            field(system, state, points)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_rhs_across_xi_708_matches_double_loop(self, m):
        # two clusters 30 apart at delta = 1: the pairs across them lie past xi = 708
        system, state = random_system(np.random.default_rng(m), 8, m=m)
        state = State(x=state.x + np.repeat([0.0, 30.0], 4), y=state.y)
        self.assert_close(np.concatenate(rhs(system, state)), self.direct(system, state))

    def test_overflowing_imm_iterate_stops_at_once(self):
        # the Euler step is finite; the second iterate's midpoint overflows r2 in rhs
        rng = np.random.default_rng(0)
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, 3))
        state = State(x=rng.uniform(-1.0, 1.0, 3), y=rng.uniform(-1.0, 1.0, 3))
        with pytest.raises(SolverFailureError) as exc:
            integrate(system, state, 1e200, 3, "imm")
        assert exc.value.iterations == 2 and exc.value.step_index == 1
        assert isinstance(exc.value.__cause__, DomainError)


class TestTriangleBlocks:
    @pytest.mark.parametrize("tile", [1, 2, 7, None])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 400])
    def test_chunks_cover_the_triangle_in_whole_rows(self, n, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(vortexblob.model, "_TILE", tile)
        limit = vortexblob.model._TILE
        for start in sorted({0, 1, n // 2, max(n - 1, 0)}):
            chunks = list(triangle_blocks(n, start))
            pairs = [(a, b) for i, j in chunks for a, b in zip(i.tolist(), j.tolist())]
            # every pair i < j of the rows from start on, once each, in row-major order
            assert pairs == [(a, b) for a in range(start, n) for b in range(a + 1, n)]
            for i, j in chunks:
                rows = np.unique(i)
                # whole rows: each row's pairs run from column i + 1 to n - 1
                assert i.size == sum(n - 1 - r for r in rows)
                assert rows.size == 1 or i.size <= limit  # over the tile only as one row
                assert np.array_equal(i, np.sort(i)) and np.all(j > i)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap step tunes glibc's malloc")
def test_pair_sums_do_not_page_fault():
    # in a fresh interpreter the tile temporaries of rhs and conserved once came
    # from a heap that glibc trimmed after every block: about 5500 and 5800 minor
    # faults per 5 calls at M = 316, where a heap that stays grown takes none
    child = """
import resource
from vortexblob.model import conserved, init_grid, rhs
system, state = init_grid(20, m=4, prune_zero=True)
rhs(system, state)
conserved(system, state)
for f in (rhs, conserved):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        f(system, state)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = os.path.dirname(os.path.dirname(vortexblob.model.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = dict(zip(("rhs", "conserved"), map(int, done.stdout.split())))
    assert max(faults.values()) < 500, faults


class TestGrid:
    def test_grid_geometry(self):
        system, state = init_grid(4)
        assert system.size == 16
        assert system.h == pytest.approx(0.5)
        assert system.delta == pytest.approx(0.5**0.75)
        assert state.x.min() == pytest.approx(-0.75)
        assert state.x.max() == pytest.approx(0.75)

    def test_circulation_converges_to_quarter_pi(self):
        # sum kappa_i -> integral of (1-r^2)^3 over the unit disk = pi/4
        errs = []
        for cells in (20, 40, 80):
            system, _ = init_grid(cells, p=3)
            errs.append(abs(system.kappa.sum() - np.pi / 4))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 2e-8

    def test_prune_drops_only_zero_strengths(self):
        full_sys, full_state = init_grid(10, prune_zero=False)
        pruned_sys, pruned_state = init_grid(10, prune_zero=True)
        assert pruned_sys.size == int((full_sys.kappa != 0).sum())
        assert pruned_sys.kappa.sum() == pytest.approx(full_sys.kappa.sum())
        fx_full, fy_full = rhs(full_sys, full_state)
        fx_pru, _ = rhs(pruned_sys, pruned_state)
        keep = full_sys.kappa != 0
        assert fx_full[keep] == pytest.approx(fx_pru, abs=1e-15)

    def test_initial_vorticity_support(self):
        r = np.array([0.0, 0.5, 1.0, 1.5])
        w = initial_vorticity(r, p=3)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.75**3)
        assert w[2] == 0.0 and w[3] == 0.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            init_grid(0)
        with pytest.raises(ConfigurationError):  # once a 3 x 3 grid with its last column on x = 1
            init_grid(2.5)
        assert init_grid(np.int64(3))[0].size == 9
        with pytest.raises(ConfigurationError):
            initial_vorticity(np.array([0.5]), p=0)
        with pytest.raises(ConfigurationError):
            BlobSystem(m=4, h=-1.0, delta=1.0, kappa=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            State(x=np.array([1.0]), y=np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            BlobSystem(m=4, h=1.0, delta=1.0, kappa=np.ones((2, 2)))

    @pytest.mark.parametrize("h, delta", [(1.0, np.inf), (1.0, 1e-200), (1.0, 1e160), (np.inf, 1.0)])
    def test_widths_no_pair_sum_can_use_are_rejected(self, h, delta):
        # h or delta infinite, or delta * delta, which every xi = r2/delta^2 divides by, inf or 0
        with pytest.raises(ConfigurationError, match="must be positive and finite"):
            BlobSystem(m=4, h=h, delta=delta, kappa=[1.0, -1.0, 0.5])

    def test_state_holds_one_position_array(self):
        # x and y are the rows of xy; from_xy holds its array as it is
        state = State(x=[0.5, -1.0], y=[2.0, 0.25], t=0.5)
        assert state.xy.tolist() == [[0.5, -1.0], [2.0, 0.25]] and state.t == 0.5
        assert all(np.shares_memory(a, state.xy) for a in (state.x, state.y))
        xy = np.array([[0.0, 1.0], [2.0, 3.0]])
        held = State.from_xy(xy, 1.0)
        assert held.xy is xy and held.t == 1.0
        for bad in (np.zeros((3, 2)), np.zeros(4), np.array([[0.0, np.nan], [1.0, 2.0]])):
            with pytest.raises(ConfigurationError):
                State.from_xy(bad)
        with pytest.raises(ConfigurationError):
            State(x=[0.0, np.inf], y=[0.0, 1.0])


class TestVorticityField:
    def test_blob_vorticity_peak_value(self):
        # one unit-strength blob: zeta(0) = P(0)/(pi-normalization) / delta^2
        system = BlobSystem(m=2, h=1.0, delta=0.5, kappa=np.array([1.0]))
        state = State(x=np.array([0.0]), y=np.array([0.0]))
        assert blob_vorticity(system, state, np.array([0.0, 0.0])) == pytest.approx(
            1.0 / np.pi / 0.25
        )

    def test_blob_vorticity_integrates_to_circulation(self):
        rng = np.random.default_rng(5)
        system, state = random_system(rng, 4, m=4, delta=0.3)
        # tensor-grid quadrature over a box comfortably containing the blobs
        grid = np.linspace(-6.0, 6.0, 601)
        step = grid[1] - grid[0]
        gx, gy = np.meshgrid(grid, grid)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        total = blob_vorticity(system, state, pts).sum() * step**2
        assert total == pytest.approx(system.kappa.sum(), abs=1e-6)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_from_the_vortices_zeta_is_0_and_the_cutoff_1(self, m):
        # past xi = 708 the P and Q exp(-xi) terms are 0, where Q and P of m = 6
        # overflow from xi ~ 1e154 on: no inf * 0 = NaN and no RuntimeWarning
        system, state = init_grid(4, m=m, prune_zero=True)
        assert blob_vorticity(system, state, [1e150, 0.0]) == 0.0
        assert np.array_equal(blob_vorticity(system, state, [[1e150, 0.0], [0.0, 1e3]]), [0.0, 0.0])
        assert cutoff(m, 1e300, 1.0) == 1.0
        assert np.array_equal(cutoff(m, np.array([1e300, 800.0, 0.0]), 1.0), [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("field", [velocity_field, blob_vorticity])
    def test_points_must_be_pairs(self, field):
        # an (N, 3) array or a 3-vector must not lose its last column silently
        system = BlobSystem(m=2, h=1.0, delta=0.5, kappa=np.array([1.0]))
        state = State(x=np.array([0.0]), y=np.array([0.0]))
        for z in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 0.5):
            with pytest.raises(ConfigurationError):
                field(system, state, z)
        assert np.shape(field(system, state, np.zeros((0, 2))))[0] == 0

    @pytest.mark.parametrize("field", [velocity_field, blob_vorticity])
    @pytest.mark.parametrize("point", [[np.inf, 0.0], [np.nan, 0.0]])
    def test_points_must_be_finite(self, field, point):
        # as State's positions: no NaN field, and no RuntimeWarning first
        system = BlobSystem(m=2, h=1.0, delta=0.5, kappa=np.array([1.0]))
        state = State(x=np.array([0.0]), y=np.array([0.0]))
        for z in (point, [[0.0, 1.0], point]):
            with pytest.raises(ConfigurationError, match="must be finite"):
                field(system, state, z)
