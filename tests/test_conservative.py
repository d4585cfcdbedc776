"""Conservative one-step scheme: divided-difference factor and step solver."""

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
from vortexblob.integrators import DEFAULT_SOLVER, SolverConfig, _fixed_point, dmm_step, integrate, rk4_step
from vortexblob.model import BlobSystem, State, conserved, cutoff, rhs


def random_pair(rng, n, m=2, delta=1.0, spread=0.05):
    """Random system plus two nearby states (a plausible step pair)."""
    system = BlobSystem(m=m, h=1.0, delta=delta, kappa=rng.uniform(-1.0, 1.0, n))
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    prev = State(x=x, y=y)
    cand = State(x=x + spread * rng.uniform(-1.0, 1.0, n),
                 y=y + spread * rng.uniform(-1.0, 1.0, n))
    return system, prev, cand


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
        # force each branch at the same argument by moving the switch point
        z1 = 1.0 + 1e-4
        for m in (2, 4, 6):
            monkeypatch.setattr(vortexblob.conservative, "DEFAULT_CTAU", CTauParams(epsilon_switch=2e-4))
            taylor = c_tau(m, 1.0, z1)
            monkeypatch.setattr(vortexblob.conservative, "DEFAULT_CTAU", CTauParams(epsilon_switch=0.5e-4))
            closed = c_tau(m, 1.0, z1)
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

    def test_vectorized_matches_scalar(self):
        xi_k = np.array([0.5, 1.0, 2.0, 2.0])
        xi_k1 = np.array([0.6, 1.0 + 1e-6, 1.9, 2.0])
        out = c_tau(4, xi_k, xi_k1)
        for a, b, v in zip(xi_k, xi_k1, out):
            assert c_tau(4, float(a), float(b)) == v

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

    @pytest.mark.parametrize("block_elems", [None, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_dmm_rhs_matches_dense_sum(self, m, n, block_elems, monkeypatch):
        system, prev, cand = self.states(m, n)
        want = np.concatenate(dense_f_tau(system, prev, cand))
        if block_elems is not None:  # 2-pair chunks: at n = 7 the first row held, the rest rebuilt
            monkeypatch.setattr(vortexblob.model, "_BLOCK_ELEMS", block_elems)

        def e1_positive(x):
            assert np.all(np.asarray(x) > 0.0)
            return exp_integral_e1(x)

        monkeypatch.setattr(vortexblob.conservative, "exp_integral_e1", e1_positive)
        got = np.concatenate(dmm_rhs(system, prev, cand))
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)
        if n == 7:  # both branches of c_tau are taken
            i, j = np.triu_indices(n, 1)
            keep = (i != 1) | (j != 2)  # not the coincident pair
            i, j = i[keep], j[keep]
            z = ((cand.x[i] - cand.x[j]) ** 2 + (cand.y[i] - cand.y[j]) ** 2) / (
                (prev.x[i] - prev.x[j]) ** 2 + (prev.y[i] - prev.y[j]) ** 2)
            near = np.abs(z - 1.0) <= DEFAULT_CTAU.epsilon_switch
            assert near.any() and not near.all()

    def test_step_is_fixed_point_of_one_call_form(self):
        # the stepping path and dmm_rhs run one code: bitwise the same step
        rng = np.random.default_rng(23)
        for m in (2, 4, 6):
            system, prev, _ = random_pair(rng, 7, m=m)
            out = dmm_step(system, prev, 0.3)
            ref = _fixed_point(prev, 0.3, DEFAULT_SOLVER, rk4_step(system, prev, 0.3),
                               lambda x, y: dmm_rhs(system, prev, State(x=x, y=y)))
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
