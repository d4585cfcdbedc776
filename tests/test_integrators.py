"""Baseline integrators and the trajectory driver."""

import numpy as np
import pytest

import vortexblob.integrators
from vortexblob.errors import ConfigurationError, DomainError, PairDegeneracyError, SolverFailureError
from vortexblob.integrators import (
    METHODS,
    SolverConfig,
    dmm_step,
    imm_step,
    integrate,
    rk4_step,
    rm2_step,
    rm4_step,
)
from vortexblob.model import BlobSystem, State, conserved, rhs
from vortexblob.reference import (
    fit_order,
    four_vortex_exact,
    four_vortex_ring,
    temporal_error,
)


def ring_error(step_fn, m, tau, t_final):
    system, state = four_vortex_ring(m)
    n = int(round(t_final / tau))
    for _ in range(n):
        state = step_fn(system, state, tau)
    return temporal_error(state, four_vortex_exact(n * tau, m))


class TestExplicitOrders:
    @pytest.mark.parametrize("step_fn,expected", [
        (rm2_step, 2.0),
        (rk4_step, 4.0),
        (rm4_step, 4.0),
    ])
    def test_convergence_order_on_ring(self, step_fn, expected):
        taus = [0.4, 0.2, 0.1, 0.05]
        points = [(tau, ring_error(step_fn, 2, tau, 4.0)) for tau in taus]
        fit = fit_order(points)
        assert fit.slope == pytest.approx(expected, abs=0.15)

    def test_rm4_more_accurate_than_rk4(self):
        # the minimum-truncation-error tableau should beat classical RK4
        # at equal step size on a smooth problem
        assert ring_error(rm4_step, 2, 0.2, 4.0) < ring_error(rk4_step, 2, 0.2, 4.0)


class TestImplicitMidpoint:
    def test_preserves_quadratic_invariants_only(self):
        rng = np.random.default_rng(31)
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=rng.uniform(-1, 1, 5))
        state = State(x=rng.uniform(-1, 1, 5), y=rng.uniform(-1, 1, 5))
        before = conserved(system, state).as_array()
        for _ in range(20):
            state = imm_step(system, state, 0.5).next
        after = conserved(system, state).as_array()
        drift = np.abs(after - before)
        assert drift[0] <= 1e-12  # Px
        assert drift[1] <= 1e-12  # Py
        assert drift[2] <= 1e-12  # L
        assert drift[3] > 1e-12   # H drifts at truncation level

    def test_solver_failure_raises(self):
        system, state = four_vortex_ring(2)
        with pytest.raises(SolverFailureError):
            imm_step(system, state, 0.5, solver=SolverConfig(tol=1e-30, max_iters=2))


class TestDriver:
    def test_unknown_method_rejected(self):
        system, state = four_vortex_ring(2)
        with pytest.raises(ConfigurationError):
            integrate(system, state, 0.1, 10, "euler")
        with pytest.raises(ConfigurationError):
            integrate(system, state, 0.1, -1, "rk4")
        for stride in (0, -1):
            with pytest.raises(ConfigurationError):
                integrate(system, state, 0.1, 3, "rk4", sample_stride=stride)

    def test_zero_steps_records_initial_sample_only(self):
        system, state = four_vortex_ring(4)
        record, final = integrate(system, state, 0.1, 0, "dmm")
        assert len(record.times) == 1
        assert record.max_drift() == pytest.approx([0.0, 0.0, 0.0, 0.0])
        assert final is state

    def test_sampling_stride_and_final_sample(self):
        system, state = four_vortex_ring(2)
        record, _ = integrate(system, state, 0.1, 10, "rk4", sample_stride=3)
        # samples at steps 0, 3, 6, 9 and the forced final step 10
        assert len(record.times) == 5
        assert record.times[-1] == pytest.approx(1.0)

    def test_methods_share_record_schema(self):
        system, state = four_vortex_ring(2)
        for method in METHODS:
            record, final = integrate(system, state, 0.25, 4, method)
            assert len(record.times) == 5
            assert final.t == pytest.approx(1.0)
            if method in ("imm", "dmm"):
                assert len(record.iterations) == 4

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_system_runs(self, method):
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[])
        record, final = integrate(system, State(x=[], y=[]), 0.1, 2, method)
        assert final.t == pytest.approx(0.2)
        assert final.x.size == 0 and len(record.times) == 3

    def test_solver_failure_tagged_with_step(self):
        system, state = four_vortex_ring(2)
        with pytest.raises(SolverFailureError) as exc:
            integrate(system, state, 0.5, 5, "dmm",
                      solver=SolverConfig(tol=1e-30, max_iters=2))
        assert exc.value.step_index == 1

    def test_any_step_error_tagged_with_step(self, monkeypatch):
        # rk4 evaluates the rhs four times per step; fail inside step 3
        system, state = four_vortex_ring(2)
        calls = []
        real_rhs = vortexblob.integrators.rhs

        def failing_rhs(system, state):
            calls.append(1)
            if len(calls) > 8:
                raise PairDegeneracyError(0, 1)
            return real_rhs(system, state)

        monkeypatch.setattr(vortexblob.integrators, "rhs", failing_rhs)
        with pytest.raises(PairDegeneracyError) as exc:
            integrate(system, state, 0.1, 5, "rk4")
        assert exc.value.step_index == 3

        # the sample after step 2 (the initial state is sample 1) fails
        real_conserved = vortexblob.integrators.conserved
        samples = []

        def failing_conserved(system, state):
            samples.append(1)
            if len(samples) > 2:
                raise DomainError("sample failed")
            return real_conserved(system, state)

        monkeypatch.setattr(vortexblob.integrators, "rhs", real_rhs)
        monkeypatch.setattr(vortexblob.integrators, "conserved", failing_conserved)
        with pytest.raises(DomainError) as exc:
            integrate(system, state, 0.1, 5, "rk4")
        assert exc.value.step_index == 2

    @staticmethod
    def blow_up_problem():
        # velocities near 1e149 carried over tau = 1e200: positions overflow,
        # while the strengths' products (1e300) keep the invariants finite
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1e150, -1e150, 1e150])
        return system, State(x=[0.0, 0.5, -0.3], y=[0.1, -0.2, 0.4])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", METHODS)
    def test_blow_up_is_solver_failure(self, method):
        with pytest.raises(SolverFailureError) as exc:
            integrate(*self.blow_up_problem(), 1e200, 3, method)
        assert exc.value.step_index == 1
        if method in ("imm", "dmm"):  # Picard starts at the finite start state: the first iterate overflows
            assert exc.value.iterations == 1

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_first_iterate_is_euler_step(self, m):
        rng = np.random.default_rng(m)
        system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, 5))
        state = State(x=rng.uniform(-1.0, 1.0, 5), y=rng.uniform(-1.0, 1.0, 5))
        fx, fy = rhs(system, state)
        euler_x, euler_y = state.x + 0.3 * fx, state.y + 0.3 * fy
        one_iterate = SolverConfig(max_iters=1)
        with pytest.raises(SolverFailureError) as imm:
            imm_step(system, state, 0.3, solver=one_iterate)
        assert np.array_equal(imm.value.last_state.x, euler_x)
        assert np.array_equal(imm.value.last_state.y, euler_y)
        # dmm's f_tau(state, state) is rhs summed over the pair triangle instead
        with pytest.raises(SolverFailureError) as dmm:
            dmm_step(system, state, 0.3, solver=one_iterate)
        assert np.abs(dmm.value.last_state.x - euler_x).max() <= 1e-15
        assert np.abs(dmm.value.last_state.y - euler_y).max() <= 1e-15

    def test_dmm_driver_conserves_ring_invariants(self):
        system, state = four_vortex_ring(6)
        record, _ = integrate(system, state, 0.5, 40, "dmm")
        assert record.max_drift().max() <= 1e-12
