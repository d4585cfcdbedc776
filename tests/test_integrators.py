"""Baseline integrators and the trajectory driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexblob.integrators
from vortexblob.conservative import PrevLevel
from vortexblob.errors import ConfigurationError, DomainError, PairDegeneracyError, SolverFailureError
from vortexblob.integrators import (
    DEFAULT_SOLVER,
    METHODS,
    SolverConfig,
    advance,
    dmm_step,
    imm_step,
    integrate,
    rk4_step,
    rm2_step,
    rm4_step,
)
from vortexblob.model import BlobSystem, State, conserved, init_grid, rhs
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

    def test_non_integer_counts_rejected(self):
        # a fractional stride would sample steps 3, 6, ... silently, and a fractional
        # n_steps or max_iters would reach range() as a bare TypeError
        system, state = four_vortex_ring(2)
        with pytest.raises(ConfigurationError):
            integrate(system, state, 0.1, 2.5, "rk4")
        with pytest.raises(ConfigurationError):
            integrate(system, state, 0.1, 6, "rk4", sample_stride=1.5)
        with pytest.raises(ConfigurationError):
            SolverConfig(max_iters=1.5)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_tol_rejected(self, tol):
        # tol = inf would stop every implicit step at its first iterate, the explicit Euler step
        with pytest.raises(ConfigurationError):
            SolverConfig(tol=tol)

    def test_numpy_integer_counts_accepted(self):
        system, state = four_vortex_ring(2)
        solver = SolverConfig(max_iters=np.int64(50))
        record, _ = integrate(system, state, 0.1, np.int32(4), "dmm", solver=solver, sample_stride=np.int64(2))
        assert len(record.times) == 3

    @pytest.mark.parametrize("method", METHODS)
    def test_state_size_must_match_system(self, method):
        system, state = four_vortex_ring(2)
        for n in (state.x.size - 1, state.x.size + 1):
            x = np.resize(state.x, n)
            with pytest.raises(ConfigurationError):
                integrate(system, State(x=x, y=np.resize(state.y, n)), 0.1, 1, method)

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

    def test_overflowing_dmm_iterate_is_solver_failure(self):
        # the Euler step is finite, but the second iterate's r2 overflows inside
        # f_tau, where the pair triangle forms it: an error, not a warning
        rng = np.random.default_rng(0)
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, 3))
        state = State(x=rng.uniform(-1.0, 1.0, 3), y=rng.uniform(-1.0, 1.0, 3))
        with pytest.raises(SolverFailureError) as exc:
            integrate(system, state, 1e200, 3, "dmm")
        assert exc.value.iterations == 2 and exc.value.step_index == 1
        assert isinstance(exc.value.__cause__, DomainError)
        assert "iterate 2 is outside the field's domain: the squared distance of vortices" in str(exc.value)
        assert np.isfinite(exc.value.last_state.x).all()

    def test_iterations_recorded_for_every_step(self):
        system, state = four_vortex_ring(2)
        record, _ = integrate(system, state, 0.25, 7, "dmm", sample_stride=3)
        assert len(record.times) == 4 and len(record.iterations) == 7

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
        # dmm's Euler iterate takes rhs too, not f_tau(state, state) over the pair triangle
        with pytest.raises(SolverFailureError) as dmm:
            dmm_step(system, state, 0.3, solver=one_iterate)
        assert np.array_equal(dmm.value.last_state.x, euler_x)
        assert np.array_equal(dmm.value.last_state.y, euler_y)

    def test_dmm_driver_conserves_ring_invariants(self):
        system, state = four_vortex_ring(6)
        record, _ = integrate(system, state, 0.5, 40, "dmm")
        assert record.max_drift().max() <= 1e-12


def plain_picard(system, state, tau, field_at, solver=DEFAULT_SOLVER):
    """u = state.xy + tau * field_at(u) by unmixed Picard from the Euler step: (x, y), iterates, update ratios."""
    u0 = u = state.xy
    updates = []
    for iteration in range(1, solver.max_iters + 1):
        g = u0 + tau * (rhs(system, state) if iteration == 1 else field_at(u))
        updates.append(float(np.abs(g - u).max()))
        u = g
        if updates[-1] <= solver.threshold(state):
            return u, iteration, [b / a for a, b in zip(updates, updates[1:])]
    raise AssertionError("plain Picard did not converge")


class TestAndersonMixing:
    def test_slow_grid_step_mixes_to_the_same_point(self):
        # Picard contracts by 0.15-0.21 an iterate here, so the driver mixes
        system, state = init_grid(10, m=4, prune_zero=True)
        (x, y), plain_iters, ratios = plain_picard(system, state, 1.0, PrevLevel(system, state).field)
        assert max(ratios) > vortexblob.integrators._RHO_MIX
        out = dmm_step(system, state, 1.0)
        assert (plain_iters, out.iterations) == (17, 13)
        tol = 10 * DEFAULT_SOLVER.threshold(state)
        assert np.abs(out.next.x - x).max() <= tol and np.abs(out.next.y - y).max() <= tol
        drift = conserved(system, out.next).as_array() - conserved(system, state).as_array()
        assert np.abs(drift).max() <= 1e-12

    @pytest.mark.parametrize("method", ["imm", "dmm"])
    def test_fast_contraction_is_plain_picard(self, method):
        # tau = 0.2 on M = 3: every update is under 0.03 times the one before, so nothing mixes
        rng = np.random.default_rng(0)
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, 3))
        state = State(x=rng.uniform(-1.0, 1.0, 3), y=rng.uniform(-1.0, 1.0, 3))
        if method == "imm":
            field_at = lambda u: rhs(system, 0.5 * (state.xy + u))  # noqa: E731
            out = imm_step(system, state, 0.2)
        else:
            field_at = PrevLevel(system, state).field
            out = dmm_step(system, state, 0.2)
        (x, y), plain_iters, ratios = plain_picard(system, state, 0.2, field_at)
        assert max(ratios) < vortexblob.integrators._RHO_MIX
        assert out.iterations == plain_iters
        assert np.array_equal(out.next.x, x) and np.array_equal(out.next.y, y)

    def test_singular_gram_falls_back_to_picard(self, monkeypatch):
        # A linear field in dyadic numbers, exact in floating point: the first
        # mixed iterate stagnates at the one before, so the next dF column is
        # zero, collinear with the first, and the Gram matrix is singular.
        a = np.array([[0.5, -0.25], [-0.75, 0.5]])
        state = State(x=[0.5], y=[0.5])
        singular = []
        solve = np.linalg.solve

        def recording_solve(gram, b):
            try:
                return solve(gram, b)
            except np.linalg.LinAlgError:
                singular.append(gram.copy())
                raise

        monkeypatch.setattr(np.linalg, "solve", recording_solve)

        def field_at(u):
            x, y = u
            return np.array((a[0, 0] * x + a[0, 1] * y, a[1, 0] * x + a[1, 1] * y))

        out = vortexblob.integrators._fixed_point(state, 1.0, DEFAULT_SOLVER, field_at(state.xy), field_at)
        assert [g.tolist() for g in singular] == [[[2.0**-9, 0.0], [0.0, 0.0]]]
        # the fixed point of x = x0 + a x is (2, -2); Picard alone takes 375 iterates
        assert (out.next.x.tolist(), out.next.y.tolist(), out.iterations) == ([2.0], [-2.0], 6)


def random_system(m, n, seed):
    rng = np.random.default_rng(seed)
    system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, n))
    return system, State(x=rng.uniform(-1.0, 1.0, n), y=rng.uniform(-1.0, 1.0, n))


class TestAdvance:
    @pytest.mark.parametrize("n_steps", [0, 3])
    @pytest.mark.parametrize("method", METHODS)
    def test_final_state_of_integrate(self, method, n_steps, monkeypatch):
        system, state = random_system(4, 6, 5)
        _, want = integrate(system, state, 0.3, n_steps, method)
        calls = []
        monkeypatch.setattr(vortexblob.integrators, "conserved", lambda *args: calls.append(args))
        got = advance(system, state, 0.3, n_steps, method)
        assert calls == []  # no samples
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y) and got.t == want.t
        if n_steps == 0:
            assert got is state

    @pytest.mark.parametrize("method", METHODS)
    def test_configuration_errors_of_integrate(self, method):
        system, state = four_vortex_ring(2)
        short = State(x=state.x[:-1], y=state.y[:-1])
        for args in ((state, 1, "euler"), (state, -1, method), (state, 2.5, method), (short, 1, method)):
            with pytest.raises(ConfigurationError) as want:
                integrate(system, args[0], 0.1, *args[1:])
            with pytest.raises(ConfigurationError) as got:
                advance(system, args[0], 0.1, *args[1:])
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_tau_rejected_before_any_step(self, method, tau, monkeypatch):
        system, state = four_vortex_ring(2)
        calls = []
        for name in ("rk4_step", "rm2_step", "rm4_step", "imm_step", "dmm_step", "conserved"):
            monkeypatch.setattr(vortexblob.integrators, name, lambda *args, **kwargs: calls.append(args))
        for run in (advance, integrate):
            with pytest.raises(ConfigurationError, match="tau must be finite"):
                run(system, state, tau, 3, method)
        assert calls == []

    @pytest.mark.parametrize("tau", [0.0, -0.3])
    def test_zero_and_negative_tau_are_steps(self, tau):
        system, state = random_system(4, 6, 5)
        assert advance(system, state, tau, 2, "dmm").t == integrate(system, state, tau, 2, "dmm")[1].t == 2 * tau

    def test_solver_failure_tagged_with_step(self, monkeypatch):
        # the third step runs out of iterates
        system, state = random_system(2, 4, 7)
        calls = []
        real_dmm_step = vortexblob.integrators.dmm_step

        def failing_dmm_step(system, state, tau, solver, guess):
            calls.append(1)
            return real_dmm_step(system, state, tau, SolverConfig(max_iters=1) if len(calls) == 3 else solver, guess)

        monkeypatch.setattr(vortexblob.integrators, "dmm_step", failing_dmm_step)
        failures = []
        for run in (advance, integrate):
            calls.clear()
            with pytest.raises(SolverFailureError) as exc:
                run(system, state, 0.3, 5, "dmm")
            failures.append(exc.value)
        got, want = failures
        assert got.step_index == want.step_index == 3
        assert (got.iterations, got.residual) == (want.iterations, want.residual)
        assert np.array_equal(got.last_state.x, want.last_state.x)


def euler_start_loop(system, state, tau, n_steps, method):
    """n_steps of the implicit step without a guess: (final state, total iterates)."""
    step = getattr(vortexblob.integrators, f"{method}_step")
    iterations = 0
    for _ in range(n_steps):
        out = step(system, state, tau)
        state, iterations = out.next, iterations + out.iterations
    return state, iterations


class TestWarmStart:
    @pytest.mark.parametrize("method", ["imm", "dmm"])
    def test_first_two_steps_start_from_euler(self, method):
        system, state = random_system(4, 6, 3)
        want, _ = euler_start_loop(system, state, 0.3, 2, method)
        for got in (advance(system, state, 0.3, 2, method), integrate(system, state, 0.3, 2, method)[1]):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)

    @pytest.mark.parametrize("method", ["imm", "dmm"])
    def test_guess_extrapolates_the_accepted_positions(self, method, monkeypatch):
        system, state = random_system(2, 4, 8)
        real_step = getattr(vortexblob.integrators, f"{method}_step")
        accepted, guesses = [np.array((state.x, state.y))], []

        def spy(system, state, tau, solver, guess):
            guesses.append(guess)
            out = real_step(system, state, tau, solver, guess)
            accepted.append(np.array((out.next.x, out.next.y)))
            return out

        monkeypatch.setattr(vortexblob.integrators, f"{method}_step", spy)
        advance(system, state, 0.5, 7, method)
        assert guesses[0] is None and guesses[1] is None
        for k in range(2, 7):  # the guess of step k + 1 from x_k, x_{k-1}, ..., x_{k-d}
            d = min(k, vortexblob.integrators._DEGREE)
            want = sum((-1) ** j * math.comb(d + 1, j + 1) * accepted[k - j] for j in range(d + 1))
            np.testing.assert_allclose(guesses[k], want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("d", range(2, vortexblob.integrators._DEGREE + 1))
    def test_extrapolation_is_exact_on_polynomials_of_its_degree(self, d):
        t = 7.0 - np.arange(d + 1)  # newest first, the next point at t = 8
        for p in range(d + 1):
            assert vortexblob.integrators._EXTRAPOLATION[d] @ t**p == 8.0**p

    @pytest.mark.parametrize("method", ["imm", "dmm"])
    def test_final_states_match_the_euler_start(self, method):
        # M = 3 systems at tau = 1, as the timing experiment runs them, and the ring
        cases = [(random_system(2, 3, seed), 1.0) for seed in range(16)]
        cases += [(four_vortex_ring(m), 0.25) for m in (2, 4, 6)]
        for (system, state), tau in cases:
            want, euler_iterations = euler_start_loop(system, state, tau, 20, method)
            record, got = integrate(system, state, tau, 20, method)
            assert np.abs(got.x - want.x).max() <= 1e-10 and np.abs(got.y - want.y).max() <= 1e-10
            assert sum(record.iterations) <= euler_iterations

    @pytest.mark.parametrize("method", ["imm", "dmm"])
    def test_converged_guess_takes_one_iterate(self, method):
        system, state = random_system(4, 5, 2)
        step = getattr(vortexblob.integrators, f"{method}_step")
        out = step(system, state, 0.5)
        again = step(system, state, 0.5, guess=np.array((out.next.x, out.next.y)))
        assert again.iterations == 1 and again.residual <= DEFAULT_SOLVER.threshold(state)
        assert np.abs(again.next.x - out.next.x).max() <= DEFAULT_SOLVER.threshold(state)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_extrapolation_falls_back_to_euler(self, monkeypatch):
        # accepted positions of +-1e308 are finite, but 3 x_2 - 3 x_1 + x_0 overflows
        system = BlobSystem(m=2, h=1.0, delta=1.0, kappa=[1.0, -1.0])
        guesses = []

        def scripted_step(system, state, tau, solver, guess):
            guesses.append(guess)
            sign = -1.0 if len(guesses) % 2 else 1.0
            return vortexblob.integrators.StepOutcome(
                next=State(x=[sign * 1e308, 0.0], y=[0.0, 1.0], t=state.t + tau), iterations=1, residual=0.0)

        monkeypatch.setattr(vortexblob.integrators, "dmm_step", scripted_step)
        advance(system, State(x=[1e308, 0.0], y=[0.0, 1.0]), 1.0, 6, "dmm")
        assert guesses == [None] * 6


@pytest.mark.parametrize("method", METHODS)
def test_a_step_validates_only_the_state_it_returns(method, monkeypatch):
    # the stages and iterates reach rhs as checked (2, M) arrays: no State
    # of theirs runs the validation of outside input
    system, state = random_system(2, 3, 1)
    validated = []
    validate = State.__post_init__

    def spy(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(State, "__post_init__", spy)
    out = getattr(vortexblob.integrators, f"{method}_step")(system, state, 0.5)
    returned = out if isinstance(out, State) else out.next
    if method in ("imm", "dmm"):
        assert out.iterations > 2
    assert len(validated) == 1 and validated[0] is returned


@st.composite
def separated_runs(draw, min_sep=0.2):
    """(system, state, tau): 2-8 vortices at least min_sep apart in [-1, 1]^2, m in {2, 4, 6}, tau in +-[0.01, 1].

    At these separations Picard converges at every tau drawn: 18 iterates a
    step at most over 400 draws.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.sampled_from([2, 4, 6]))
    tau = draw(st.floats(min_value=0.01, max_value=1.0)) * draw(st.sampled_from([1.0, -1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    while True:
        x, y = rng.uniform(-1.0, 1.0, (2, n))
        if (np.hypot(x[:, None] - x, y[:, None] - y) + np.eye(n)).min() >= min_sep:
            break
    return BlobSystem(m=m, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, n)), State(x=x, y=y), tau


class TestProperties:
    """The integrators' properties on drawn systems: 4 steps each, so the implicit
    methods also take the extrapolated guess of steps 3 and 4."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(separated_runs())
    def test_every_method_keeps_the_linear_impulses(self, run):
        # sum_i kappa_i f_i = 0 at any positions, for rhs and f_tau alike, so Px and
        # Py move by rounding only, converged or not: at most 1.06 eps times
        # sum |kappa| max(1, |x|, |y|) over 400 draws of 4 steps
        system, state, tau = run
        scale = np.abs(system.kappa).sum() * max(1.0, np.abs(state.xy).max())
        before = conserved(system, state)
        for method in METHODS:
            after = conserved(system, advance(system, state, tau, 4, method))
            assert abs(after.px - before.px) <= 16 * np.finfo(float).eps * scale
            assert abs(after.py - before.py) <= 16 * np.finfo(float).eps * scale

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(separated_runs())
    def test_dmm_drift_per_step_within_solver_tolerance(self, run):
        # every step stops at its threshold, tol max(1, |x|, |y|) >= tol; the
        # largest per-step drift of any invariant over 400 draws was 0.10 tol
        system, state, tau = run
        record, _ = integrate(system, state, tau, 4, "dmm")
        psi = np.array([c.as_array() for c in record.conserved])
        assert np.abs(np.diff(psi, axis=0)).max() <= DEFAULT_SOLVER.tol

    @pytest.mark.parametrize("guess", [False, True])
    @pytest.mark.parametrize("step", [imm_step, dmm_step])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(run=separated_runs())
    def test_implicit_step_forward_and_back_returns(self, step, guess, run):
        # both schemes are symmetric; with guess each step starts from the level it
        # leaves, a tau away from its answer.  Largest return error over 400
        # draws: 0.24 times the threshold
        system, state, tau = run
        fwd = step(system, state, tau, guess=state.xy if guess else None).next
        back = step(system, fwd, -tau, guess=fwd.xy if guess else None).next
        assert np.abs(back.xy - state.xy).max() <= 10 * DEFAULT_SOLVER.threshold(state)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(separated_runs())
    def test_advance_is_integrate_bit_for_bit(self, run):
        system, state, tau = run
        for method in METHODS:
            _, want = integrate(system, state, tau, 4, method)
            got = advance(system, state, tau, 4, method)
            assert np.array_equal(got.xy, want.xy) and got.t == want.t
