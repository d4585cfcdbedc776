"""One-step integrators and the trajectory drivers.

Explicit methods: classical RK4 and Ralston's minimal-truncation-error
2nd and 4th order methods, all run by one stepper from their Butcher
tableaux.  Implicit methods: the implicit midpoint method and the
conservative scheme, whose discrete vector field f_tau is evaluated from
a :class:`vortexblob.conservative.PrevLevel` built once per step; one
fixed-point driver solves both.  A step's first iterate is G(guess) of a
guess it is given, or without one of the positions of Ralston's RM2 step
from the start state, two ``rhs`` calls (for dmm, rhs(u) is f_tau(u, u)
to rounding at less cost).  Against the explicit Euler step, the start
before it, that cuts a fresh step at tau = 0.001 on the 208-, 812- and
3228-vortex grids from 4 iterates to 2, and steps 1 and 2 on the
316-vortex grid at tau = 1 from 14 to 12 (dmm) and 15 to 13 (imm).  The
driver runs Picard while Picard contracts fast and switches to Anderson
mixing once an update shrinks by less than _RHO_MIX: on the 316-vortex
grid at tau = 1 that cuts a fresh dmm step from 17 iterates to 12 and an
imm step from 16 to 13, while M = 3 systems at tau = 1 and the
grids at tau = 0.001 almost never mix and run plain Picard.

Two trajectory drivers share one stepping loop: ``advance`` returns the
final state of a run, and ``integrate`` also samples the conserved
quantities along it, a ``conserved()`` call each, into a ``RunRecord``.
From the third step of a run on, the loop hands each implicit step the
polynomial extrapolation through the last accepted positions (degree 2,
then up to _DEGREE) as its guess; it costs no field evaluation.  Against
the Euler start it cut dmm iterates a step from 8.8 to 6.3 on M = 3
systems at tau = 1, and steps 3 and 4 at M = 812, tau = 0.001 from 4
iterates to 2 and 1.  50-step dmm runs of 50 such systems at m = 2 take
6.05 iterates a step, against 6.76 with the RM2 start at every step.
Every step still stops at the same residual bound, so dmm keeps the
invariants to solver tolerance.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import conservative
from .errors import ConfigurationError, DomainError, SolverFailureError, VortexBlobError
from .model import State, conserved, rhs


def _check_count(name, value, least):
    """Raise ConfigurationError unless value is an integer (numpy ones too) >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


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
        if not 0.0 < self.tol < math.inf:
            raise ConfigurationError("tol must be positive and finite")
        _check_count("max_iters", self.max_iters, 1)

    def threshold(self, state):
        """Absolute convergence threshold for a step starting at state."""
        return self.tol * max(1.0, float(np.abs(state.xy).max(initial=0.0)))


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


def _positions(v):
    """v, a (2, M) array of positions, once it is finite; a non-finite one is a blow-up of the step."""
    if not np.isfinite(v).all():
        raise SolverFailureError(0, np.inf, message="step produced non-finite positions")
    return v


def _explicit_rk_step(tableau, system, u, tau):
    """The checked (2, M) positions of one explicit Runge-Kutta step from the positions u; each stage reaches rhs as a checked (2, M) array."""
    stages, (scale, terms) = tableau
    ks = [rhs(system, u)]
    for stage_scale, stage_terms in stages:
        ks.append(rhs(system, _positions(_combine(u, stage_scale * tau, stage_terms, ks))))
    return _positions(_combine(u, scale * tau, terms, ks))


def rk4_step(system, state, tau):
    """Classical 4-stage Runge-Kutta step."""
    return State.from_xy(_explicit_rk_step(_RK4, system, state.xy, tau), state.t + tau)


def rm2_step(system, state, tau):
    """Ralston's 2nd-order step (stages at 0 and 2/3, weights 1/4 and 3/4)."""
    return State.from_xy(_explicit_rk_step(_RM2, system, state.xy, tau), state.t + tau)


def rm4_step(system, state, tau):
    """Ralston's 4th-order minimum-error step."""
    return State.from_xy(_explicit_rk_step(_RM4, system, state.xy, tau), state.t + tau)


# Anderson mixing of the Picard map (type II, Walker & Ni, SIAM J. Numer.
# Anal. 49:1715, 2011).  Depth 5: on the grid20 dmm step (M = 316, tau = 1)
# depths 1/2/3/5 took 17/16/15/14 iterates against Picard's 20.
_DEPTH = 5
# Mixing starts once an update is more than this times the one before.
# Picard contracts by 0.18-0.28 an iterate on grid20, where mixing pays.  On
# M = 3 systems at tau = 1 (ratios 0.01-0.08 for most steps) a mixing step
# costs about as much as the iterates it saves: mixing from the second
# iterate on cut their iterates from 8.9 to 6.9 a step, but cost imm 6-14%
# and dmm 6% of their steps/s.
_RHO_MIX = 0.15


class _Mixer:
    """The last _DEPTH differences of f = G(u) - u and of G(u), newest first.

    Near convergence the Gram matrix is ill-conditioned, and the order of
    the history shows in the iterate counts: on 120 random M = 3 systems at
    each of m = 4 and 6, 20 steps at tau = 1, oldest first took up to 0.5%
    more iterates.
    """

    def __init__(self):
        self.df = collections.deque(maxlen=_DEPTH)
        self.dg = collections.deque(maxlen=_DEPTH)

    def next_iterate(self, f, g, f_prev, g_prev):
        """g - dG gamma, gamma the least-squares fit of dF gamma to f; g where that fails.

        gamma solves the normal equations, whose Gram matrix dF dF^T is
        formed whole on each call.  A singular Gram matrix or a non-finite
        mixed iterate also empties the history, so that later iterates mix
        from new differences only: a singular one stays singular while its
        columns are held (on the stagnating linear map of the tests, 21
        iterates against 6).
        """
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below as a non-finite u
            self.df.appendleft((f - f_prev).ravel())
            self.dg.appendleft((g - g_prev).ravel())
            df, dg = np.array(self.df), np.array(self.dg)
            try:
                u = g - (np.linalg.solve(df @ df.T, df @ f.ravel()) @ dg).reshape(g.shape)
            except np.linalg.LinAlgError:
                u = None
        if u is not None and np.isfinite(u).all():
            return u
        self.df.clear()
        self.dg.clear()
        return g


# Degree of the polynomial through the last accepted positions of a
# trajectory that gives an implicit step its guess (starting approximations,
# Hairer, Lubich & Wanner, Geometric Numerical Integration, VIII.6.1).
# Degree d takes d + 1 positions, so the third step takes degree 2, the
# fourth degree 3 and so on up to _DEGREE; the first two take the RM2 start
# (_start).  Degree 1 is left out: its error, tau^2 |x''|, is twice the
# explicit Euler step's, which was the start before RM2's.  The figures
# below were measured against the Euler start: dmm iterates a step on 150
# random M = 3 systems, 50 steps at tau = 1 and m = 2, 4, 6: 8.7 / 9.4 / 9.5
# from the Euler step, and with a
# cap of degree 2 / 3 / 4 7.4 / 8.2 / 8.4, 6.7 / 7.7 / 8.0 and 6.1 / 7.3 / 7.6,
# with no failure and no higher maximum.  On the 316-vortex grid at tau = 1
# imm steps 3-8 took 15 iterates from the Euler step, 13-14 with degree 2 and
# 13 with 3 or 4, and dmm step 3 took 13 against 14 with each.
_DEGREE = 4
# x_{k+1} = sum_j c_j x_{k-j} through x_k, ..., x_{k-d}: c_j = (-1)^j C(d + 1, j + 1).
_EXTRAPOLATION = {
    d: np.array([(-1) ** j * math.comb(d + 1, j + 1) for j in range(d + 1)], dtype=float)
    for d in range(2, _DEGREE + 1)
}


class _History:
    """The last _DEGREE + 1 accepted positions of a trajectory, newest first, in one (_DEGREE + 1, 2, M) buffer."""

    def __init__(self, state):
        self.rows = np.empty((_DEGREE + 1, *state.xy.shape))
        self.flat = self.rows.reshape(_DEGREE + 1, -1)
        self.count = 0
        self.push(state)

    def push(self, state):
        self.rows[1:] = self.rows[:-1]
        self.rows[0] = state.xy
        self.count += 1

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite extrapolation is the RM2 start
    def guess(self):
        """The extrapolated next positions as a (2, M) array, or None for the RM2 start:
        before the third step, or where the extrapolation is not finite.

        One sum tests the entries: it is finite where they all are, unless it
        overflows, which leaves such a step to the RM2 start as well.
        """
        d = min(self.count - 1, _DEGREE)
        if d < 2:
            return None
        u = np.dot(_EXTRAPOLATION[d], self.flat[:d + 1])
        return u.reshape(2, -1) if math.isfinite(u.sum()) else None


def _fixed_point(state, tau, solver, field_at, guess):
    """Solve u = state.xy + tau * field_at(u) by iteration from guess, a finite (2, M) array of positions.

    The iterates u, which no State wraps, and the field's values are (2, M)
    arrays.  The first iterate is G(guess), G(u) = state.xy +
    tau * field_at(u), as every later one is G of the one before or a
    mixing of such.  Converged when the max-norm update |G(u) - u| is at
    most solver.threshold(state), returning G(u); the iteration count
    includes the first iterate.  The next iterate is G(u) (Picard) until an
    update is more than _RHO_MIX times the one before; from there on in the
    step it is Anderson-mixed over the last _DEPTH differences, a plain
    history whose Gram matrix each mixed iterate forms whole (see _Mixer),
    falling back to G(u) and an emptied history where the mixing fails.  Raises
    SolverFailureError when an iterate is not finite, when field_at raises
    DomainError at an iterate (an overflow of the pair terms), or after
    solver.max_iters iterates.
    """
    u0, u = state.xy, guess
    threshold = solver.threshold(state)
    residual = np.inf
    mixer = f_prev = g_prev = None
    for iteration in range(1, solver.max_iters + 1):
        try:
            velocity = field_at(u)
        except DomainError as exc:
            raise SolverFailureError(
                iteration, residual, last_state=State.from_xy(u, state.t + tau),
                message=f"iterate {iteration} is outside the field's domain: {exc}",
            ) from exc
        g = u0 + tau * velocity
        f = g - u
        previous, residual = residual, float(np.abs(f).max(initial=0.0))
        if not math.isfinite(residual):  # u is finite, so the new iterate is not
            raise SolverFailureError(iteration, residual, message=f"iterate {iteration} is not finite")
        if residual <= threshold:
            return StepOutcome(next=State.from_xy(g, state.t + tau), iterations=iteration, residual=residual)
        if mixer is None and residual > _RHO_MIX * previous:
            mixer = _Mixer()
        u = g if mixer is None else mixer.next_iterate(f, g, f_prev, g_prev)
        f_prev, g_prev = f, g
    raise SolverFailureError(solver.max_iters, residual, last_state=State.from_xy(u, state.t + tau))


def _start(system, state, tau, guess):
    """guess, or without one the positions of Ralston's RM2 step from state: the guess whose G is a step's first iterate.

    Within O(tau^3) of the answer, where the explicit Euler step is within
    O(tau^2), for one rhs call more: that saves an f_tau (Hairer, Lubich &
    Wanner, Geometric Numerical Integration, VIII.6.1).  A stage outside
    the field's domain, or non-finite positions, fail iterate 1, with the
    step's start as last_state.
    """
    if guess is not None:
        return guess
    try:
        return _explicit_rk_step(_RM2, system, state.xy, tau)
    except DomainError as exc:
        raise SolverFailureError(1, np.inf, last_state=state,
                                 message=f"the RM2 start of iterate 1 is outside the field's domain: {exc}") from exc
    except SolverFailureError as exc:
        raise SolverFailureError(1, np.inf, last_state=state, message="the RM2 start of iterate 1 is not finite") from exc


def imm_step(system, state, tau, solver=DEFAULT_SOLVER, guess=None):
    """Implicit midpoint step solved by fixed-point iteration.

    The first iterate is G(guess), with guess (a finite (2, M) array of
    positions) or without one the positions of Ralston's RM2 step, two rhs
    calls; see _fixed_point.  Preserves the quadratic invariants (linear
    and angular impulse) to solver tolerance; the Hamiltonian is only
    approximately conserved.
    """
    guess = _start(system, state, tau, guess)
    return _fixed_point(state, tau, solver, lambda u: rhs(system, 0.5 * (state.xy + u)), guess)


def dmm_step(system, state, tau, solver=DEFAULT_SOLVER, guess=None):
    """One conservative step by fixed-point iteration from a guess.

    The first iterate is G(guess), one f_tau, with guess a finite (2, M)
    array of positions, or without one the positions of Ralston's RM2
    step: two rhs calls, rhs(u) being f_tau(u, u) to rounding at 0.55-0.8
    times the cost of f_tau over the held pair triangle (M = 3 to 3228),
    run before the prev level's pair terms are built once.  Each iterate
    evaluates f_tau at the cand level only.  The iteration count includes
    the first iterate.  Raises SolverFailureError if the max-norm position
    update does not drop to solver.threshold(state), tol times the position
    scale max(1, |x|, |y|), within solver.max_iters iterations.
    """
    guess = _start(system, state, tau, guess)
    return _fixed_point(state, tau, solver, conservative.PrevLevel(system, state).field, guess)


# Method name -> (step function name in this module, whether it is implicit:
# takes the solver and a guess).
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

    ``iterations`` holds the solver's iteration count of every step of an
    implicit method, sampled or not, counting the step's first iterate: G of
    the RM2 step's positions at steps 1 and 2, and from step 3 on G(guess) of
    the extrapolated guess, or of the RM2 positions where that is not
    finite; ``wall_time`` is the stepping time in seconds.
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


def _check_run(system, state, tau, n_steps, method):
    """Raise ConfigurationError for an unknown method, a non-finite tau, a bad
    step count or a state not of system.size; tau = 0 and tau < 0 are steps too."""
    if method not in _STEP_FUNCTIONS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    if not math.isfinite(tau):
        raise ConfigurationError(f"tau must be finite, got {tau!r}")
    _check_count("n_steps", n_steps, 0)
    if state.xy.shape[1] != system.size:
        raise ConfigurationError(f"state holds {state.xy.shape[1]} vortices, the system {system.size}")


def _run(system, state, tau, n_steps, method, solver, after_step=None):
    """The one stepping loop of integrate and advance: n_steps of method from state; returns the final state.

    An implicit step takes its guess from the _History of the positions
    accepted so far, and the RM2 start where that gives None.
    after_step(k, state, outcome), if given, runs after step k with the new
    state and the step's StepOutcome (None for an explicit method).  An
    error of a step or of after_step propagates with step_index k noted.
    """
    step_name, implicit = _STEP_FUNCTIONS[method]
    step = globals()[step_name]  # by name at call time, so a replaced module attribute is used
    history = _History(state) if implicit else None
    for k in range(1, n_steps + 1):
        try:
            if history is None:
                state, outcome = step(system, state, tau), None
            else:
                outcome = step(system, state, tau, solver=solver, guess=history.guess())
                state = outcome.next
                history.push(state)
            if after_step is not None:
                after_step(k, state, outcome)
        except VortexBlobError as exc:
            exc.step_index = k
            raise
    return state


def advance(system, state, tau, n_steps, method, solver=DEFAULT_SOLVER):
    """Run n_steps of the chosen method and return the final state, taking no samples.

    The same steps as integrate, bit for bit, for runs that read only the
    final state; it validates its arguments as integrate does, and an error
    of a step propagates with the failing step index noted.
    """
    _check_run(system, state, tau, n_steps, method)
    return _run(system, state, tau, n_steps, method, solver)


def integrate(system, state, tau, n_steps, method, solver=DEFAULT_SOLVER, sample_stride=1):
    """Run n_steps of the chosen method, sampling every sample_stride steps.

    Returns (RunRecord, final state).  The initial state and the last step
    are always sampled, each sample a conserved() call; advance runs the
    same steps without them.  The implicit methods (imm, dmm) use solver.
    Errors of a step or of its sample propagate with the failing step
    index noted.  A non-finite tau or a state not of system.size raises
    ConfigurationError.
    """
    _check_run(system, state, tau, n_steps, method)
    _check_count("sample_stride", sample_stride, 1)
    record = RunRecord()

    def sample(st):
        record.times.append(st.t)
        record.conserved.append(conserved(system, st))

    def after_step(k, st, outcome):
        if outcome is not None:
            record.iterations.append(outcome.iterations)
        if k % sample_stride == 0 or k == n_steps:
            sample(st)

    sample(state)
    start = time.perf_counter()
    state = _run(system, state, tau, n_steps, method, solver, after_step)
    record.wall_time = time.perf_counter() - start
    return record, state
