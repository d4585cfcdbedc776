"""One-step integrators and the trajectory driver.

Explicit methods: classical RK4 and Ralston's minimal-truncation-error
2nd and 4th order methods, all run by one stepper from their Butcher
tableaux.  Implicit methods: the implicit midpoint method and the
conservative scheme, whose discrete vector field f_tau is evaluated from
a :class:`vortexblob.conservative.PrevLevel` built once per step; one
Picard driver solves both from the start state, its first iterate the
explicit Euler step.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import conservative
from .errors import ConfigurationError, SolverFailureError, VortexBlobError
from .model import State, conserved, rhs


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls.

    ``tol`` is relative to the position scale max(1, |x|, |y|) of the
    step's starting state; the pure roundoff floor of the iteration sits
    a few hundred eps above zero at unit scale, so tolerances much below
    1e-13 are generally unreachable.
    """

    tol: float = 1e-12
    max_iters: int = 200

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigurationError("tol must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")

    def threshold(self, state):
        """Absolute convergence threshold for a step starting at state."""
        scale = max(1.0, float(np.abs(state.x).max(initial=0.0)), float(np.abs(state.y).max(initial=0.0)))
        return self.tol * scale


@dataclass(frozen=True)
class StepOutcome:
    """Converged step plus solver diagnostics."""

    next: State
    iterations: int
    residual: float


DEFAULT_SOLVER = SolverConfig()


def _row(scale, coefficients):
    """Tableau row scale * coefficients as (scale, ((j, c), ...)), zeros dropped."""
    return scale, tuple((j, c) for j, c in enumerate(coefficients) if c != 0.0)


# Explicit Runge-Kutta tableaux as (stage rows a_2.., weights b).  A common
# factor such as RK4's 1/6 goes in the scale, so it costs one multiplication.
_RK4 = (
    (_row(0.5, (1.0,)), _row(0.5, (0.0, 1.0)), _row(1.0, (0.0, 0.0, 1.0))),
    _row(1.0 / 6.0, (1.0, 2.0, 2.0, 1.0)),
)

_RM2 = ((_row(2.0 / 3.0, (1.0,)),), _row(1.0, (0.25, 0.75)))

# Ralston's 4th-order minimum-error tableau: nodes c2 = 2/5,
# c3 = (14 - 3*sqrt(5))/16, c4 = 1; remaining coefficients solve the
# eight order-4 conditions exactly (frozen to double precision here).
_RM4 = (
    (
        _row(0.4, (1.0,)),
        _row(1.0, (0.29697760924775360007, 0.15875964497103583185)),
        _row(1.0, (0.21810038822592046760, -3.0509651486929308054, 3.8328647604670103378)),
    ),
    _row(1.0, (0.17476028226269037125, -0.55148066287873294055, 1.2055355993965235350, 0.17118478121951903426)),
)


def _combine(u, h, terms, ks):
    """u + h * sum(c * ks[j] for j, c in terms), with h = scale * tau."""
    if len(terms) == 1:
        (j, c), = terms
        return u + (h * c) * ks[j]
    return u + h * functools.reduce(np.add, (ks[j] if c == 1.0 else c * ks[j] for j, c in terms))


def _positions(v, t=0.0):
    """State at positions stacked as (2, M); a non-finite one is a blow-up of the step."""
    if not np.isfinite(v).all():
        raise SolverFailureError(0, np.inf, message="step produced non-finite positions")
    return State(x=v[0], y=v[1], t=t)


def _explicit_rk_step(tableau, system, state, tau):
    """One step of an explicit Runge-Kutta method; positions stacked as (2, M)."""
    stages, (scale, terms) = tableau
    u = np.array((state.x, state.y))
    ks = [np.array(rhs(system, state))]
    for stage_scale, stage_terms in stages:
        ks.append(np.array(rhs(system, _positions(_combine(u, stage_scale * tau, stage_terms, ks)))))
    return _positions(_combine(u, scale * tau, terms, ks), state.t + tau)


def rk4_step(system, state, tau):
    """Classical 4-stage Runge-Kutta step."""
    return _explicit_rk_step(_RK4, system, state, tau)


def rm2_step(system, state, tau):
    """Ralston's 2nd-order step (stages at 0 and 2/3, weights 1/4 and 3/4)."""
    return _explicit_rk_step(_RM2, system, state, tau)


def rm4_step(system, state, tau):
    """Ralston's 4th-order minimum-error step."""
    return _explicit_rk_step(_RM4, system, state, tau)


def _fixed_point(state, tau, solver, field_at):
    """Solve x = state + tau * field_at(x, y) by Picard iteration from x = state.

    Converged when the max-norm update is <= solver.threshold(state).
    """
    u = u0 = np.array((state.x, state.y))
    threshold = solver.threshold(state)
    residual = np.inf
    for iteration in range(1, solver.max_iters + 1):
        un = u0 + tau * np.array(field_at(u[0], u[1]))
        residual = float(np.abs(un - u).max(initial=0.0))
        if not math.isfinite(residual):  # u is finite, so the new iterate is not
            raise SolverFailureError(iteration, residual, message=f"iterate {iteration} is not finite")
        u = un
        if residual <= threshold:
            return StepOutcome(next=State(x=u[0], y=u[1], t=state.t + tau), iterations=iteration, residual=residual)
    raise SolverFailureError(solver.max_iters, residual, last_state=State(x=u[0], y=u[1], t=state.t + tau))


def imm_step(system, state, tau, solver=DEFAULT_SOLVER):
    """Implicit midpoint step solved by Picard iteration from the start state.

    Preserves the quadratic invariants (linear and angular impulse) to
    solver tolerance; the Hamiltonian is only approximately conserved.
    """
    return _fixed_point(
        state, tau, solver, lambda x, y: rhs(system, State(x=0.5 * (state.x + x), y=0.5 * (state.y + y)))
    )


def dmm_step(system, state, tau, solver=DEFAULT_SOLVER):
    """One conservative step by Picard iteration from the start state.

    The prev level's pair terms are built once; each iteration evaluates f_tau
    at the cand level only.  Raises SolverFailureError if the max-norm position
    update does not drop to solver.threshold(state), tol times the position
    scale max(1, |x|, |y|), within solver.max_iters iterations.
    """
    return _fixed_point(state, tau, solver, conservative.PrevLevel(system, state).field)


# Method name -> (step function name in this module, whether it takes the solver).
_STEP_FUNCTIONS = {
    "rk4": ("rk4_step", False),
    "rm2": ("rm2_step", False),
    "rm4": ("rm4_step", False),
    "imm": ("imm_step", True),
    "dmm": ("dmm_step", True),
}
METHODS = tuple(_STEP_FUNCTIONS)


@dataclass
class RunRecord:
    """Sample times, the conserved quantities at each sample, and solver diagnostics.

    ``iterations`` holds the Picard iteration count of each sampled step
    of an implicit method; ``wall_time`` is the stepping time in seconds.
    """

    times: list = field(default_factory=list)
    conserved: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    wall_time: float = 0.0

    def drift(self):
        """Per-quantity time series of |psi_k - psi_0| (4 x n_samples)."""
        if not self.conserved:
            raise ValueError("record holds no conserved-set samples")
        arr = np.array([c.as_array() for c in self.conserved])
        return np.abs(arr - arr[0]).T

    def max_drift(self):
        return self.drift().max(axis=1)


def integrate(system, state, tau, n_steps, method, solver=DEFAULT_SOLVER, sample_stride=1):
    """Run n_steps of the chosen method, sampling every sample_stride steps.

    Returns (RunRecord, final state).  The initial state and the last step
    are always sampled.  The implicit methods (imm, dmm) use solver.
    Errors of a step or of its sample propagate with the failing step
    index noted.
    """
    if method not in _STEP_FUNCTIONS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    if n_steps < 0:
        raise ConfigurationError("n_steps must be >= 0")
    if not sample_stride >= 1:
        raise ConfigurationError("sample_stride must be >= 1")

    record = RunRecord()

    def sample(st, iters):
        record.times.append(st.t)
        record.conserved.append(conserved(system, st))
        if iters is not None:
            record.iterations.append(iters)

    sample(state, None)
    start = time.perf_counter()
    step_name, takes_solver = _STEP_FUNCTIONS[method]
    step = globals()[step_name]  # by name at call time, so a replaced module attribute is used
    kwargs = {"solver": solver} if takes_solver else {}
    for k in range(1, n_steps + 1):
        try:
            out = step(system, state, tau, **kwargs)
            state, iters = (out.next, out.iterations) if isinstance(out, StepOutcome) else (out, None)
            if k % sample_stride == 0 or k == n_steps:
                sample(state, iters)
        except VortexBlobError as exc:
            exc.step_index = k
            raise
    record.wall_time = time.perf_counter() - start
    return record, state
