"""Conservative one-step scheme: divided-difference factor and step solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexblob.conservative
import vortexblob.model
from vortexblob.conservative import (
    DEFAULT_CTAU,
    CTauParams,
    c_tau,
    c_tau_closed,
    c_tau_taylor,
    discrete_multiplier_residuals,
    dmm_residual,
    dmm_rhs,
)
from vortexblob.errors import DomainError, PairDegeneracyError, SolverFailureError
from vortexblob.expint import exp_integral_e1
from vortexblob.integrators import DEFAULT_SOLVER, SolverConfig, _fixed_point, dmm_step, integrate, rm2_step
from vortexblob.model import ORDER_POLYNOMIALS, BlobSystem, State, conserved, cutoff, pair_potential, rhs


def random_pair(rng, n, m=2, delta=1.0, spread=0.05):
    """Random system plus two nearby states (a plausible step pair)."""
    system = BlobSystem(m=m, h=1.0, delta=delta, kappa=rng.uniform(-1.0, 1.0, n))
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    prev = State(x=x, y=y)
    cand = State(x=x + spread * rng.uniform(-1.0, 1.0, n),
                 y=y + spread * rng.uniform(-1.0, 1.0, n))
    return system, prev, cand


def mpmath_c_tau(mpmath, m, xi_k, xi_k1):
    """c_tau at 40 digits as (V(b) - V(a)) / (b/a - 1), V the pair potential in xi."""
    with mpmath.workdps(40):
        r = [mpmath.mpf(float(c)) for c in ORDER_POLYNOMIALS[m].r[::-1]]
        want = []
        for a, b in zip(map(mpmath.mpf, xi_k), map(mpmath.mpf, xi_k1)):
            v = [mpmath.log(x) + mpmath.e1(x) + mpmath.polyval(r, x) * mpmath.exp(-x) for x in (a, b)]
            want.append(float((v[1] - v[0]) / ((b - a) / a)))
    return np.array(want)


class TestCTau:
    def test_reduces_to_cutoff_at_equal_levels(self):
        # divided difference collapses to C(xi)/1 when the levels agree
        for m in (2, 4, 6):
            for xi in (0.05, 0.7, 1.0, 4.0, 20.0):
                assert c_tau(m, xi, xi) == pytest.approx(
                    cutoff(m, xi, 1.0), rel=1e-13, abs=1e-15
                )

    def test_closed_and_taylor_agree_in_overlap(self):
        # around |z-1| ~ 1e-4 both branches are accurate; they must agree
        for m in (2, 4, 6):
            for xi in (0.3, 1.0, 5.0):
                for dz in (3e-4, 1e-3, 3e-3):
                    closed = c_tau_closed(m, xi, xi * (1.0 + dz))
                    taylor = c_tau_taylor(m, xi, 1.0 + dz)
                    # closed-form cancellation error and Taylor truncation
                    # are both below 1e-8 in this window
                    assert closed == pytest.approx(taylor, rel=1e-8)

    def test_taylor_truncation_slope_is_cubic(self):
        # |closed - taylor| ~ |z-1|^3 on the closed form's accurate range
        for m in (2, 4, 6):
            spans = np.array([1e-3, 1e-2, 1e-1])
            diffs = np.array([
                abs(c_tau_closed(m, 1.0, 1.0 + s) - c_tau_taylor(m, 1.0, 1.0 + s))
                for s in spans
            ])
            slope = np.polyfit(np.log(spans), np.log(diffs), 1)[0]
            assert slope == pytest.approx(3.0, abs=0.2)

    def test_branch_switch_is_continuous(self, monkeypatch):
        # force each branch at the same argument by moving the switch point; at
        # xi_k = 2 the band is 1, so the switch sits at |z - 1| = eps
        z1 = 1.0 + 1e-4
        for m in (2, 4, 6):
            monkeypatch.setattr(vortexblob.conservative, "DEFAULT_CTAU", CTauParams(epsilon_switch=2e-4))
            taylor = c_tau(m, 2.0, 2.0 * z1)
            monkeypatch.setattr(vortexblob.conservative, "DEFAULT_CTAU", CTauParams(epsilon_switch=0.5e-4))
            closed = c_tau(m, 2.0, 2.0 * z1)
            assert taylor == pytest.approx(closed, rel=1e-10)

    def test_shrinking_step_contracts_toward_cutoff(self):
        # as the levels merge the factor approaches C(xi) smoothly
        for m in (2, 4, 6):
            gaps = [abs(c_tau(m, 2.0, 2.0 * (1.0 + s)) - cutoff(m, 2.0, 1.0))
                    for s in (1e-2, 1e-4, 1e-6)]
            assert gaps[0] > gaps[1] > gaps[2]

    def test_negative_separation_rejected(self):
        # the same contract as E1 on the same input: no fake pair indices
        with pytest.raises(DomainError):
            c_tau(2, 0.0, 1.0)
        with pytest.raises(DomainError):
            c_tau(4, 1.0, -0.5)

    @pytest.mark.parametrize("xi_k, xi_k1", [(1e-300, 1e300), (np.inf, 1.0), (np.inf, np.inf)])
    def test_overflowing_or_infinite_xi_rejected(self, xi_k, xi_k1):
        # s = xi_k1/xi_k - 1 past the floats, or a level that is no separation:
        # DomainError, with no RuntimeWarning first (warnings are errors here)
        with pytest.raises(DomainError):
            c_tau(2, xi_k, xi_k1)
        with pytest.raises(DomainError):
            c_tau(4, np.array([1.0, xi_k]), np.array([1.0, xi_k1]))

    def test_vectorized_matches_scalar(self):
        # one array takes both branches: Taylor pairs, closed-form pairs, pairs
        # with xi_k1 == xi_k exactly and close pairs below xi_k = 1e-4.  Each pair
        # must get the bits it gets alone, and the closed form must not see the
        # Taylor pairs' z = 1 (0 / 0 would warn, and warnings are errors here)
        xi_k = np.array([0.5, 1.0, 2.0, 2.0, 5.0, 0.7, 40.0, 3e-5, 5e-6, 8e-5, 1.5, 30.0, 35.0])
        xi_k1 = np.array([0.6, 1.0 + 1e-6, 1.9, 2.0, 3.0, 0.7, 40.0, 4.5e-5, 2.5e-5, 8e-5, 1.5 * (1.0 - 3e-5), 36.0, 33.0])
        eps = DEFAULT_CTAU.epsilon_switch
        near = np.abs(xi_k1 / xi_k - 1.0) * np.clip(xi_k, eps, 2.0) / 2.0 <= eps
        assert 3 <= near.sum() <= xi_k.size - 3
        for m in (2, 4, 6):
            out = c_tau(m, xi_k, xi_k1)
            assert np.all(np.isfinite(out))
            assert np.array_equal(out, [c_tau(m, float(a), float(b)) for a, b in zip(xi_k, xi_k1)])
            # and broadcast to 2-d, every xi_k against every xi_k1, keeping the shape
            grid = c_tau(m, xi_k[:, None], xi_k1)
            assert np.array_equal(grid, [[c_tau(m, float(a), float(b)) for b in xi_k1] for a in xi_k])

    def test_matches_mpmath_on_close_pairs(self):
        # below xi_k = 2 the closed form's log z cancels against W(xi_k1) - W(xi_k)
        # and loses about eps |log xi_k| / (xi_k |z - 1|): the switch must hand those
        # pairs to the Taylor form.  |z - 1| and xi_k log-uniform on [1e-7, 0.1] x [1e-4, 40]
        # within 2e-11.  Below xi_k = 1e-4 c_0 = 1 - Q exp(-xi_k) itself loses eps / xi_k,
        # and the Taylor form loses about eps (z - 1)^2 / xi_k, so for |z - 1| > 1 the
        # closed form must be taken: xi_k on [1e-7, 1e-4], z or 1/z - 1 on [1e-7, 1e3],
        # within 2e-14 / (xi_k max(1, |z - 1|))
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        for m in (2, 4, 6):
            def relative_error(xi_k, xi_k1):
                return np.abs(c_tau(m, xi_k, xi_k1) / mpmath_c_tau(mpmath, m, xi_k, xi_k1) - 1.0)

            xi_k = 10.0 ** rng.uniform(-4.0, np.log10(40.0), 300)
            xi_k1 = xi_k * (1.0 + 10.0 ** rng.uniform(-7.0, -1.0, 300) * rng.choice([-1.0, 1.0], 300))
            assert relative_error(xi_k, xi_k1).max() <= 2e-11

            s = 10.0 ** rng.uniform(-7.0, 3.0, 300)
            s = np.append(np.where(rng.random(300) < 0.5, s, -s / (1.0 + s)), 100.0)  # z or 1/z
            xi_k = np.append(10.0 ** rng.uniform(-7.0, -4.0, 300), 1e-6)
            bound = 2e-14 / (xi_k * np.maximum(1.0, np.abs(s)))
            assert np.all(relative_error(xi_k, xi_k * (1.0 + s)) <= bound)

        # the edge of the band, where |log xi_k| is large: xi_k log-uniform on
        # [1e-4, 1e-2] and |xi_k1 - xi_k| on [1e-4, 4e-4], across the switch at
        # 2 eps, within 1.5e-11 (a switch at |xi_k1 - xi_k| = eps left the closed
        # form up to 2.6e-11 off here)
        for m in (2, 4, 6):
            xi_k = 10.0 ** rng.uniform(-4.0, -2.0, 1000)
            xi_k1 = xi_k + 10.0 ** rng.uniform(-4.0, np.log10(4e-4), 1000)
            swap = rng.random(1000) < 0.5
            xi_k[swap], xi_k1[swap] = xi_k1[swap], xi_k[swap]
            want = mpmath_c_tau(mpmath, m, xi_k, xi_k1)
            assert np.abs(c_tau(m, xi_k, xi_k1) / want - 1.0).max() <= 1.5e-11

    def test_matches_mpmath_just_above_the_switch(self):
        # |z - 1| xi_k = 1.18e-4, just over a switch at |xi_k1 - xi_k| = eps: there
        # log z and E1(xi_k1) - E1(xi_k) each carry |log xi_k|-sized rounding, and
        # the closed form was 2.45e-11 from mpmath; the band takes it to 2 eps
        mpmath = pytest.importorskip("mpmath")
        xi_k, xi_k1 = 1.8164626212140554e-4, 2.9959538858357633e-4
        assert abs(c_tau(2, xi_k, xi_k1) / mpmath_c_tau(mpmath, 2, [xi_k], [xi_k1])[0] - 1.0) <= 2e-11

    @pytest.mark.parametrize("m, xi_k, xi_k1", [(4, 1000.0, 100.0), (6, 800.0, 50.0), (6, 760.0, 1.0), (4, 100.0, 1000.0),
                                                (2, 1.0, 1e-20), (4, 50.0, 1e-16)])
    def test_large_drop_in_xi_stays_finite(self, m, xi_k, xi_k1):
        # e^-xi_k underflows while e^(xi_k - xi_k1) overflows: the closed form must
        # never multiply the two (RuntimeWarnings are errors in this suite); and
        # where s = xi_k1/xi_k - 1 rounds to -1 log1p(s) must not be taken
        mpmath = pytest.importorskip("mpmath")
        assert c_tau(m, xi_k, xi_k1) == pytest.approx(mpmath_c_tau(mpmath, m, [xi_k], [xi_k1])[0], rel=1e-14)

    def test_far_form_at_huge_xi(self):
        # far pairs take log1p(s)/s: the Taylor form's xi_k^4 once overflowed against
        # exp(-xi_k) = 0 here and gave NaN
        xi_k, xi_k1 = 1e78, 1e78 * (1.0 + 1e-5)
        s = (xi_k1 - xi_k) / xi_k
        got = c_tau(6, xi_k, xi_k1)
        assert np.isfinite(got)
        assert got == np.log1p(s) / s

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_form_matches_mpmath(self, m):
        # with both levels above xi_far the dropped part is below 2^-53 of log1p(s)/s
        # (_far_threshold): xi_k log-uniform up to 700, s = +-10^U(-12, -0.3), xi_k1 > xi_far
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(40 + m)
        xi_far = vortexblob.conservative._XI_FAR[m]
        s = 10.0 ** rng.uniform(-12.0, -0.3, 300) * rng.choice([-1.0, 1.0], 300)
        lo = xi_far * (1.0 + 1e-9) / np.minimum(1.0, 1.0 + s)
        xi_k = lo * (700.0 / lo) ** rng.random(300)
        xi_k1 = xi_k * (1.0 + s)
        assert np.all(xi_k1 > xi_far)
        got = c_tau(m, xi_k, xi_k1)
        assert np.abs(got / mpmath_c_tau(mpmath, m, xi_k, xi_k1) - 1.0).max() <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_pair_whose_distance_collapses_matches_mpmath(self, m):
        # z = xi_k1/xi_k log-uniform on [1e-290, 0.5], so s = z - 1 from -0.5 to
        # -1 in floats, xi_k1 above xi_far: log1p(s) once read 1 + s from s, and
        # c_tau(2, 1e300, 41) was log(0)/-1 = inf with a divide-by-zero warning
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(80 + m)
        xi_far = vortexblob.conservative._XI_FAR[m]
        xi_k1 = xi_far * (1.0 + 1e-9) * (700.0 / xi_far) ** rng.random(300)
        xi_k = xi_k1 * 10.0 ** rng.uniform(np.log10(2.0), 290.0, 300)
        xi_k, xi_k1 = np.append(xi_k, 1e300), np.append(xi_k1, 41.0)
        got = c_tau(m, xi_k, xi_k1)
        assert np.abs(got / mpmath_c_tau(mpmath, m, xi_k, xi_k1) - 1.0).max() <= 1e-15
        assert c_tau(m, 1e300, 41.0) == pytest.approx(math.log(4.1e-299) / -1.0, rel=1e-15)

    @pytest.mark.parametrize("m, want", [(2, 461.09423426371067), (4, 462.09423426371067), (6, 462.59423426371067)])
    def test_underflowing_ratio_matches_mpmath(self, m, want):
        # z = xi_k1/xi_k = 1e-400 rounds to 0: log z was log(0), inf with a
        # divide-by-zero warning, where log xi_k1 - log xi_k is due
        mpmath = pytest.importorskip("mpmath")
        got = c_tau(m, 1e200, 1e-200)
        assert abs(got / mpmath_c_tau(mpmath, m, [1e200], [1e-200])[0] - 1.0) <= 1e-15
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_pair_falling_to_threshold_takes_full_form(self, m, monkeypatch):
        # a far pair whose xi_k1 falls to xi_far or just under goes back to the full
        # c_tau, within the 2e-11 that the close-pair test allows the closed form
        mpmath = pytest.importorskip("mpmath")
        xi_far = vortexblob.conservative._XI_FAR[m]
        xi_k = np.array([np.nextafter(xi_far, np.inf), xi_far * (1.0 + 1e-6), xi_far * 1.01, 60.0, 300.0, 700.0])
        xi_k1 = xi_far * (1.0 - np.array([0.0, 1e-12, 1e-6, 1e-3, 1e-2, 1e-1]))
        full, seen = vortexblob.conservative._c_tau, []

        def spy(m, xi_k, e_k, w_k, band, xi_k1):
            seen.extend(xi_k1)
            return full(m, xi_k, e_k, w_k, band, xi_k1)

        monkeypatch.setattr(vortexblob.conservative, "_c_tau", spy)
        got = c_tau(m, xi_k, xi_k1)
        assert sorted(seen) == sorted(xi_k1)
        assert np.abs(got / mpmath_c_tau(mpmath, m, xi_k, xi_k1) - 1.0).max() <= 2e-11

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_closed_form_is_divided_difference_of_pair_potential(self, m):
        # per pair, c_tau_closed (b/a - 1) = V(b) - V(a) for the pair potential V whose
        # sum is H, within two roundings of its largest terms: a log-uniform on
        # [1e-4, 40], |b/a - 1| log-uniform on [1e-3, 0.5], both signs
        rng = np.random.default_rng(60 + m)
        a = 10.0 ** rng.uniform(-4.0, np.log10(40.0), 2000)
        b = a * (1.0 + 10.0 ** rng.uniform(-3.0, np.log10(0.5), 2000) * rng.choice([-1.0, 1.0], 2000))
        step = c_tau_closed(m, a, b) * (b / a - 1.0)
        drop = pair_potential(m, b, 1.0) - pair_potential(m, a, 1.0)
        scale = 1.0 + np.abs(np.log(a)) + np.abs(np.log(b)) + exp_integral_e1(a) + exp_integral_e1(b)
        assert np.all(np.abs(step - drop) <= 2.0 * np.finfo(float).eps * scale)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CTauParams(epsilon_switch=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)


class TestDiscreteRhs:
    def test_collapses_to_continuous_rhs(self):
        rng = np.random.default_rng(2)
        system, prev, _ = random_pair(rng, 6, m=6)
        fx, fy = dmm_rhs(system, prev, prev)
        gx, gy = rhs(system, prev)
        assert fx == pytest.approx(gx, rel=1e-13, abs=1e-16)
        assert fy == pytest.approx(gy, rel=1e-13, abs=1e-16)

    def test_residual_zero_iff_update_holds(self):
        rng = np.random.default_rng(4)
        system, prev, _ = random_pair(rng, 5, m=4)
        out = dmm_step(system, prev, 0.1)
        rx, ry = dmm_residual(system, prev, out.next, 0.1)
        assert np.abs(rx).max() <= 1e-11
        assert np.abs(ry).max() <= 1e-11

    def test_degenerate_pair_raises_with_indices(self):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=np.array([1.0, -1.0, 0.5]))
        prev = State(x=np.array([0.0, 0.0, 1.0]), y=np.array([0.0, 0.0, 0.0]))
        cand = State(x=np.array([0.1, 0.2, 1.0]), y=np.array([0.0, 0.0, 0.1]))
        with pytest.raises(PairDegeneracyError) as exc:
            dmm_rhs(system, prev, cand)
        assert {exc.value.i, exc.value.j} == {0, 1}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 4, 6]))
    def test_multiplier_identities_on_random_pairs(self, seed, m):
        # the discrete multiplier annihilates the discrete rhs and maps the
        # divided state difference onto the divided difference of the
        # conserved quantities -- for arbitrary pairs, not just solutions
        rng = np.random.default_rng(seed)
        system, prev, cand = random_pair(rng, 5, m=m, spread=0.1)
        res1, res2 = discrete_multiplier_residuals(system, prev, cand, 0.25)
        scale = max(1.0, np.abs(conserved(system, prev).as_array()).max() / 0.25)
        assert res1 <= 1e-11 * scale
        assert res2 <= 1e-11


def dense_f_tau(system, prev, cand):
    """f_tau as the plain M x M sum: c_tau / r2_k * kappa_j / 2 pi times the midpoint differences."""
    n = system.size
    fx, fy = np.zeros(n), np.zeros(n)
    d2 = system.delta**2
    for i in range(n):
        for j in range(n):
            dxk, dyk = prev.x[i] - prev.x[j], prev.y[i] - prev.y[j]
            dx1, dy1 = cand.x[i] - cand.x[j], cand.y[i] - cand.y[j]
            r2k, r21 = dxk**2 + dyk**2, dx1**2 + dy1**2
            if r2k == 0.0 or r21 == 0.0:
                continue
            w = c_tau(system.m, r2k / d2, r21 / d2) / r2k * system.kappa[j] / (2.0 * np.pi)
            fx[i] -= w * 0.5 * (dy1 + dyk)
            fy[i] += w * 0.5 * (dx1 + dxk)
    return fx, fy


class TestDenseReference:
    @staticmethod
    def states(m, n):
        """Vortices 0, 2, 4, ... move rigidly (Taylor pairs among them), the others
        also move apart (closed-form pairs); for n >= 3, zero-strength vortex 1
        sits on vortex 2 at both levels."""
        rng = np.random.default_rng(100 * m + n)
        kappa = rng.uniform(-1.0, 1.0, n)
        x, y = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        cx, cy = x + 0.03, y - 0.02
        cx[1::2] += 0.05 * rng.uniform(-1.0, 1.0, n // 2)
        cy[1::2] += 0.05 * rng.uniform(-1.0, 1.0, n // 2)
        if n >= 3:
            kappa[1] = 0.0
            x[1], y[1], cx[1], cy[1] = x[2], y[2], cx[2], cy[2]
        return BlobSystem(m=m, h=1.0, delta=0.6, kappa=kappa), State(x=x, y=y), State(x=cx, y=cy)

    @staticmethod
    def far_states(m, n):
        """delta = 0.1 puts most pairs past xi_far (PrevLevel's far part).  For n >= 3,
        zero-strength vortex 1 is far from vortex 2 at prev and on it at cand; for n = 7,
        pair (3, 4) falls across xi_far between the levels and pair (5, 6) rises across it."""
        delta = 0.1
        rng = np.random.default_rng(200 * m + n)
        kappa = rng.uniform(-1.0, 1.0, n)
        x, y = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        cx = x + 0.03 + 0.05 * rng.uniform(-1.0, 1.0, n)
        cy = y - 0.02 + 0.05 * rng.uniform(-1.0, 1.0, n)
        if n >= 3:
            kappa[1] = 0.0
            x[1], y[1], cx[1], cy[1] = x[2] + 1.5, y[2], cx[2], cy[2]
        if n >= 7:
            out, inside = delta * np.sqrt(vortexblob.conservative._XI_FAR[m] * np.array([1.1, 0.9]))
            x[4], y[4], cx[4], cy[4] = x[3] + out, y[3], cx[3] + inside, cy[3]
            x[6], y[6], cx[6], cy[6] = x[5] + inside, y[5], cx[5] + out, cy[5]
        return BlobSystem(m=m, h=1.0, delta=delta, kappa=kappa), State(x=x, y=y), State(x=cx, y=cy)

    @staticmethod
    def check_against_dense(system, prev, cand, held_pairs, monkeypatch):
        want = np.concatenate(dense_f_tau(system, prev, cand))
        if held_pairs is not None:  # 2-pair tiles: at n = 7 the first row held, the rest rebuilt
            monkeypatch.setattr(vortexblob.model, "_TILE", 2)
            monkeypatch.setattr(vortexblob.conservative, "_HELD_PAIRS", held_pairs)

        seen = []

        def e1_positive(x):
            assert np.all(np.asarray(x) > 0.0)
            seen.append(np.size(x))
            return exp_integral_e1(x)

        monkeypatch.setattr(vortexblob.model, "exp_integral_e1", e1_positive)
        got = np.concatenate(dmm_rhs(system, prev, cand))
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)
        # E1 is evaluated, through model's W, whenever a pair lies within xi_far at either level
        xi_k, xi_k1 = TestDenseReference.xi_levels(system, prev, cand)
        assert bool(seen) == bool(np.any(np.minimum(xi_k, xi_k1) <= vortexblob.conservative._XI_FAR[system.m]))

    @staticmethod
    def xi_levels(system, prev, cand):
        """xi at both levels of every pair i < j but the zero-strength vortex 1's pair with vortex 2."""
        i, j = np.triu_indices(system.size, 1)
        keep = (i != 1) | (j != 2)
        i, j = i[keep], j[keep]
        return [((s.x[i] - s.x[j]) ** 2 + (s.y[i] - s.y[j]) ** 2) / system.delta**2 for s in (prev, cand)]

    @pytest.mark.parametrize("held_pairs", [None, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_dmm_rhs_matches_dense_sum(self, m, n, held_pairs, monkeypatch):
        system, prev, cand = self.states(m, n)
        self.check_against_dense(system, prev, cand, held_pairs, monkeypatch)
        if n == 7:  # both branches of c_tau are taken
            xi_k, xi_k1 = self.xi_levels(system, prev, cand)
            eps = DEFAULT_CTAU.epsilon_switch
            near = np.abs(xi_k1 / xi_k - 1.0) * np.clip(xi_k, eps, 2.0) / 2.0 <= eps
            assert near.any() and not near.all()

    @pytest.mark.parametrize("held_pairs", [None, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_dmm_rhs_matches_dense_sum(self, m, n, held_pairs, monkeypatch):
        # the near/far split, its row segments (one-pair parts at 2-pair tiles) and
        # a coincident pair dropped inside a far part
        system, prev, cand = self.far_states(m, n)
        self.check_against_dense(system, prev, cand, held_pairs, monkeypatch)
        if n == 7:
            xi_k, xi_k1 = self.xi_levels(system, prev, cand)
            xi_far = vortexblob.conservative._XI_FAR[m]
            assert np.mean(xi_k > xi_far) >= 0.3
            assert np.any((xi_k > xi_far) & (xi_k1 <= xi_far)) and np.any((xi_k <= xi_far) & (xi_k1 > xi_far))
        if n >= 3:
            assert (prev.x[1] - prev.x[2]) ** 2 / system.delta**2 > vortexblob.conservative._XI_FAR[m]
            assert cand.x[1] == cand.x[2] and cand.y[1] == cand.y[2]

    @pytest.mark.parametrize("held_pairs", [None, 8])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_near_pair_meeting_at_cand_matches_dense_sum(self, m, held_pairs, monkeypatch):
        # a coincident pair weighted in place inside a near part: zero-strength
        # vortex 3 lies within xi_far of vortex 4 at prev (xi_k = 1) and on it at cand
        system, prev, cand = self.states(m, 7)
        kappa, (x, y), (cx, cy) = system.kappa.copy(), prev.xy.copy(), cand.xy.copy()
        kappa[3] = 0.0
        x[3], y[3], cx[3], cy[3] = x[4] + system.delta, y[4], cx[4], cy[4]
        system = BlobSystem(m=m, h=system.h, delta=system.delta, kappa=kappa)
        self.check_against_dense(system, State(x=x, y=y), State(x=cx, y=cy), held_pairs, monkeypatch)

    def test_step_is_fixed_point_of_one_call_form(self):
        # the stepping path and dmm_rhs run one code: bitwise the same step
        rng = np.random.default_rng(23)
        for m in (2, 4, 6):
            system, prev, _ = random_pair(rng, 7, m=m)
            out = dmm_step(system, prev, 0.3)
            ref = _fixed_point(prev, 0.3, DEFAULT_SOLVER, lambda u: dmm_rhs(system, prev, State.from_xy(u)),
                               rm2_step(system, prev, 0.3).xy)
            assert np.array_equal(out.next.x, ref.next.x)
            assert np.array_equal(out.next.y, ref.next.y)
            assert out.iterations == ref.iterations


class TestStep:
    def test_step_preserves_all_invariants(self):
        rng = np.random.default_rng(9)
        system, prev, _ = random_pair(rng, 6, m=4)
        before = conserved(system, prev).as_array()
        out = dmm_step(system, prev, 0.2)
        after = conserved(system, out.next).as_array()
        assert np.abs(after - before).max() <= 1e-12

    def test_forward_backward_returns_start(self):
        rng = np.random.default_rng(13)
        system, prev, _ = random_pair(rng, 4, m=2)
        solver = SolverConfig(tol=1e-14, max_iters=300)
        fwd = dmm_step(system, prev, 0.3, solver=solver).next
        back = dmm_step(system, fwd, -0.3, solver=solver).next
        assert np.abs(back.x - prev.x).max() <= 10 * solver.tol
        assert np.abs(back.y - prev.y).max() <= 10 * solver.tol

    def test_reports_iterations_and_residual(self):
        rng = np.random.default_rng(21)
        system, prev, _ = random_pair(rng, 3, m=2)
        out = dmm_step(system, prev, 0.1)
        assert 1 <= out.iterations <= 200
        assert out.residual <= 1e-12
        assert out.next.t == pytest.approx(prev.t + 0.1)

    def test_close_pair_system_converges(self):
        # at step 4 pair (0, 2) has xi_k = 2.9e-4 and z - 1 = 1.15e-4: the closed
        # form's rounding there once stalled Picard at a 2e-12 residual
        system = BlobSystem(m=2, h=1.0, delta=1.0,
                            kappa=[-0.09674914553761482, -0.6767122056335211, -0.7254224177449942])
        state = State(x=[-0.6775147281587124, -0.8031741697341204, -0.6674101743847132],
                      y=[-0.4598076641559601, -0.28559474274516106, -0.47365347295999527])
        record, _ = integrate(system, state, 1.0, 20, "dmm")
        assert record.max_drift().max() <= 1e-11

    def test_overflowing_ratio_is_solver_failure(self):
        # the cand level puts vortices 0 and 1, 0.1 apart before, 1e154 apart:
        # their r2 is finite but z = r2_k1/r2_k is not
        system = BlobSystem(m=4, h=1.0, delta=1.0, kappa=[1.0, 1.0, 1.0])
        prev, cand = State(x=[0.0, 0.1, 0.5], y=[0.0, 0.0, 0.0]), State(x=[0.0, 1e154, 0.5], y=[0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="ratio z of the squared distances overflows"):
            dmm_rhs(system, prev, cand)
        with pytest.raises(SolverFailureError, match="iterate 1 is outside the field's domain"):
            dmm_step(system, prev, 1.0, guess=cand.xy)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_pair_past_the_floats_falling_back_is_finite(self, m):
        # at delta = 0.5 the prev xi_k = 1e308/0.25 passes the floats, and the cand
        # xi_k1 = 4 sends the pair back: its xi_k once overflowed with a warning,
        # then met E1(inf).  Due: the closed form with z = r2_k1/r2_k, W(xi_k) = 0
        mpmath = pytest.importorskip("mpmath")
        system = BlobSystem(m=m, h=1.0, delta=0.5, kappa=[1.0, 1.0])
        got = dmm_rhs(system, State(x=[0.0, 1e154], y=[0.0, 0.0]), State(x=[0.0, 1.0], y=[0.0, 0.0]))
        with mpmath.workdps(40):
            r = [mpmath.mpf(c) for c in ORDER_POLYNOMIALS[m].r[::-1]]
            z, xi_k1 = mpmath.mpf(1) / mpmath.mpf(1e308), mpmath.mpf(4)
            c = (mpmath.log(z) + mpmath.e1(xi_k1) + mpmath.polyval(r, xi_k1) * mpmath.exp(-xi_k1)) / (z - 1)
            v = float(c / mpmath.mpf(1e308) * (mpmath.mpf(1e154) + 1) / (4 * mpmath.pi))  # c / r2_k, midpoint |d|
        np.testing.assert_allclose(got, [[0.0, 0.0], [-v, v]], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_far_pair_collapsing_past_the_floats_is_finite(self, m):
        # at delta = 1e-10 a pair 1e154 apart comes to 1e-8, both levels far:
        # z = 1e-16/1e308 rounds to 0, and log(z)/s read log(0) with a warning
        system = BlobSystem(m=m, h=1.0, delta=1e-10, kappa=[1.0, 1.0])
        got = dmm_rhs(system, State(x=[0.0, 1e154], y=[0.0, 0.0]), State(x=[0.0, 1e-8], y=[0.0, 0.0]))
        c = math.log(1e308) - math.log(1e-16)  # log z / s, s = -1 to rounding
        v = c / 1e308 * (1e154 + 1e-8) / (4.0 * np.pi)
        np.testing.assert_allclose(got, [[0.0, 0.0], [-v, v]], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_near_pair_collapsing_past_the_floats_is_finite(self, m):
        # a near pair 5 apart whose cand r2 = 4.9e-323 makes z = xi_k1/xi_k round
        # to 0: the closed form's log z once read log(0) with a warning.  log z and
        # W(xi_k1), each about 747, cancel to 3.8, so c_tau is within 2e-14
        mpmath = pytest.importorskip("mpmath")
        system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=[1.0, 1.0])
        got = dmm_rhs(system, State(x=[0.0, 5.0], y=[0.0, 0.0]), State(x=[0.0, 7e-162], y=[0.0, 0.0]))
        c = c_tau(m, 25.0, 7e-162**2)
        assert c == pytest.approx(mpmath_c_tau(mpmath, m, [25.0], [7e-162**2])[0], rel=2e-14)
        v = c / 25.0 * (5.0 + 7e-162) / (4.0 * np.pi)
        np.testing.assert_allclose(got, [[0.0, 0.0], [-v, v]], rtol=1e-14, atol=0.0)

    def test_solver_failure_carries_diagnostics(self):
        rng = np.random.default_rng(17)
        system, prev, _ = random_pair(rng, 4, m=2)
        strict = SolverConfig(tol=1e-30, max_iters=3)
        with pytest.raises(SolverFailureError) as exc:
            dmm_step(system, prev, 0.1, solver=strict)
        assert exc.value.iterations == 3
        assert exc.value.residual > 0.0
        assert exc.value.last_state is not None


def separated_system(seed, m, n, min_sep=0.2):
    """Random system whose vortices are at least min_sep apart."""
    rng = np.random.default_rng(seed)
    while True:
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, n)
        gaps = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :]) + np.eye(n)
        if gaps.min() >= min_sep:
            break
    system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, n))
    return system, State(x=x, y=y)


class TestLongHorizon:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([2, 4, 6]),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.05, max_value=0.5),
        st.integers(min_value=1, max_value=20),
    )
    def test_drift_linear_in_steps_and_step_reversible(self, seed, m, n, tau, n_steps):
        # drift may grow by at most the solver tolerance per step, and a
        # step undone by the negated step returns to the start
        system, state = separated_system(seed, m, n)
        solver = SolverConfig(tol=1e-12, max_iters=300)
        record, _ = integrate(system, state, tau, n_steps, "dmm", solver=solver)
        assert record.max_drift().max() <= n_steps * solver.tol
        fwd = dmm_step(system, state, tau, solver=solver).next
        back = dmm_step(system, fwd, -tau, solver=solver).next
        assert np.abs(back.x - state.x).max() <= 10 * solver.tol
        assert np.abs(back.y - state.y).max() <= 10 * solver.tol
