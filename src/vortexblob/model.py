"""Planar vortex-blob system: kernels, dynamics, and conserved quantities.

A system of M vortices with strengths ``kappa_i = omega_i * h**2`` induces
the velocity field

    v(z) = sum_j kappa_j * K(z - z_j) * C(|z - z_j|^2)

where K is the point-vortex kernel and ``C(r2) = 1 - Q(r2/delta^2) *
exp(-r2/delta^2)`` is the smoothing cutoff of order m in {2, 4, 6}.
The flow conserves the linear impulses, the angular impulse, and a
Hamiltonian built from log and exponential-integral terms.

Every O(M^2) sum of the package runs over one of two traversals here,
both of which check for coincident strength-bearing vortices and touch at
most ``_TILE`` pair entries at a time, so each temporary stays cache-sized:
the row blocks of points x vortices, ``pair_blocks``, for the fields
(``rhs``, ``velocity_field``, ``blob_vorticity``); and the chunked
vortex-pair triangle i < j, ``triangle_blocks`` with ``pair_differences``,
for every sum over pairs (the Hamiltonian in ``conserved`` and the
conservative scheme's f_tau), each of which leaves out the zero-distance
pairs of a zero-strength vortex by ``drop_coincident``.  The multiplier of the conservation laws is
built from a vector field by ``multiplier``.  Every per-order polynomial
is evaluated by :func:`vortexblob.expint._horner`, the package's one
Horner, which E1's table also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, PairDegeneracyError
from .expint import _horner, exp_integral_e1


class OrderPolynomials(NamedTuple):
    """Coefficients, in increasing degree and as Python floats, of one blob order's polynomials."""

    q: tuple  # cutoff C(xi) = 1 - Q(xi) exp(-xi); unit constant term
    p: tuple  # matched vorticity shape zeta = P(xi) exp(-xi) / delta^2
    r: tuple  # pair potential V = log r2 + E1(xi) + R(xi) exp(-xi)


# The one table of per-order data; everything order-dependent is derived
# from it.  Q = 1 - xi (R' - R) ties the potential to the cutoff.  R_2 = 0
# has no coefficients.
ORDER_POLYNOMIALS = {
    2: OrderPolynomials(q=(1.0,), p=(1.0 / math.pi,), r=()),
    4: OrderPolynomials(q=(1.0, -1.0), p=(2.0 / math.pi, -1.0 / math.pi), r=(-1.0,)),
    6: OrderPolynomials(q=(1.0, -2.0, 0.5), p=(3.0 / math.pi, -3.0 / math.pi, 0.5 / math.pi), r=(-1.5, 0.5)),
}
SUPPORTED_ORDERS = tuple(ORDER_POLYNOMIALS)
# S(xi) = (1 - Q(xi))/xi of cutoff_over_r2, per order.
_CUTOFF_S = {m: tuple(-c for c in poly.q[1:]) for m, poly in ORDER_POLYNOMIALS.items()}


def _check_order(m):
    if m not in SUPPORTED_ORDERS:
        raise ConfigurationError(f"unsupported method order m={m}; expected one of {SUPPORTED_ORDERS}")


def q_polynomial(m, r):
    """Q polynomial of order m evaluated at r >= 0, shaped like r."""
    _check_order(m)
    return _horner(np.asarray(r, dtype=float), ORDER_POLYNOMIALS[m].q) + np.zeros(np.shape(r))


def p_polynomial(m, r):
    """Vorticity-shape polynomial P of order m evaluated at r >= 0, shaped like r."""
    _check_order(m)
    return _horner(np.asarray(r, dtype=float), ORDER_POLYNOMIALS[m].p) + np.zeros(np.shape(r))


def cutoff(m, r2, delta):
    """Smoothing cutoff C(r2) = 1 - Q(r2/delta^2) exp(-r2/delta^2).

    Vanishes at r2 = 0 and tends to 1 as r2/delta^2 grows.
    """
    _check_order(m)
    xi = np.asarray(r2, dtype=float) / delta**2
    return 1.0 - q_polynomial(m, xi) * np.exp(-xi)


def cutoff_over_r2(m, r2, delta):
    """C(r2)/r2, finite and smooth through r2 = 0 (vectorized).

    With xi = r2/delta^2 and S(xi) = (1 - Q(xi))/xi, a polynomial,
    C(xi)/xi = (1 - exp(-xi))/xi + S(xi) exp(-xi); both terms are
    evaluated without cancellation, and the first tends to 1 at xi = 0.
    """
    _check_order(m)
    xi = np.asarray(r2, dtype=float) / delta**2
    minus_xi = -xi
    out = np.divide(-np.expm1(minus_xi), xi, out=np.ones_like(xi), where=xi > 0)
    s = _CUTOFF_S[m]
    if s:
        out += _horner(xi, s) * np.exp(minus_xi)
    out /= delta**2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BlobSystem:
    """Static problem data for one vortex-blob system."""

    m: int
    h: float
    delta: float
    kappa: np.ndarray

    def __post_init__(self):
        _check_order(self.m)
        if not self.h > 0 or not self.delta > 0:
            raise ConfigurationError("h and delta must be positive")
        kappa = np.asarray(self.kappa, dtype=float)
        if kappa.ndim != 1 or not np.all(np.isfinite(kappa)):
            raise ConfigurationError("vortex strengths must be a finite 1-d array")
        object.__setattr__(self, "kappa", kappa)

    @property
    def size(self):
        return self.kappa.size


@dataclass(frozen=True)
class State:
    """Vortex positions at one instant."""

    x: np.ndarray
    y: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ConfigurationError("x and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigurationError("positions must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class ConservedSet:
    """The four first integrals plus the (trivially constant) circulation."""

    gamma: float
    px: float
    py: float
    ell: float
    ham: float

    def as_array(self):
        return np.array([self.px, self.py, self.ell, self.ham])


# Pair entries per row block or triangle chunk: 512 KiB per float64
# temporary, so a block's arrays stay in the L2 cache instead of streaming
# through memory.  Single-threaded on a Xeon with 2 MiB of L2 per core, row
# traversals were fastest at 16k-64k entries and triangle chunks at about
# 64k pairs (smaller chunks pay Python per-chunk overhead).
_TILE = 65_536


def pair_blocks(system, state, points=None):
    """The one pair traversal: yield (rows, dx, dy, r2) over row blocks.

    dx, dy are the differences of the points (px, py) from the vortices and
    r2 their squared distances, (block, M) arrays.  Without points, the
    points are the vortices themselves: r2 is then 0 on the diagonal, and a
    strength-bearing pair at zero distance raises PairDegeneracyError.
    """
    px, py = (state.x, state.y) if points is None else points
    step = max(1, _TILE // max(1, system.size))  # rows of at most _TILE entries, or one row if it holds more
    for start in range(0, px.size, step):
        sl = slice(start, min(start + step, px.size))
        dx = px[sl, None] - state.x[None, :]
        dy = py[sl, None] - state.y[None, :]
        r2 = dx * dx + dy * dy
        if points is None and np.count_nonzero(r2 == 0.0) > r2.shape[0]:  # a zero off the diagonal
            live = system.kappa != 0.0
            bad = (r2 == 0.0) & live[sl, None] & live[None, :]
            bad[np.arange(r2.shape[0]), np.arange(sl.start, sl.stop)] = False
            if bad.any():
                bi, j = np.argwhere(bad)[0]
                raise PairDegeneracyError(sl.start + bi, j)
        yield sl, dx, dy, r2


def triangle_blocks(n, start=0):
    """The pair triangle i < j of n points, rows from start on: yield (i, j) index arrays.

    A chunk covers whole rows and at most _TILE pairs, or one row if that
    row alone holds more.
    """
    while start < n - 1:
        counts = np.arange(n - 1 - start, 0, -1)  # pairs in rows start, ..., n - 2
        ends = np.cumsum(counts)
        if ends[-1] > _TILE:
            rows = max(1, int(np.searchsorted(ends, _TILE, side="right")))
            counts, ends = counts[:rows], ends[:rows]
        i = np.repeat(np.arange(start, start + counts.size), counts)
        j = np.arange(i.size) + np.repeat(n - ends, counts)  # each row ends at column n - 1
        yield i, j
        start += counts.size


def pair_differences(system, x, y, i, j):
    """dx, dy, r2 and keep of the vortex pairs (i, j) at positions (x, y), the triangle's counterpart of pair_blocks.

    keep is None when no pair is at zero distance, else the mask r2 > 0 of
    the pairs that drop_coincident keeps.  A strength-bearing pair at zero
    distance raises PairDegeneracyError.
    """
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    r2 = dx * dx + dy * dy
    if r2.all():
        return dx, dy, r2, None
    live = system.kappa != 0.0
    bad = np.flatnonzero((r2 == 0.0) & live[i] & live[j])
    if bad.size:
        raise PairDegeneracyError(i[bad[0]], j[bad[0]])
    return dx, dy, r2, r2 > 0.0


def drop_coincident(keep, *arrays):
    """The arrays less their entries at zero distance, the pairs every pair sum leaves out.

    keep comes from pair_differences, which admits zero distance only
    between vortices of which one has no strength, so such a pair carries no
    energy and no weight.
    """
    if keep is None:
        return arrays
    return tuple(a[keep] for a in arrays)


def _velocities(system, state, points=None):
    """Velocities (u, v) at the points (px, py), or at the vortices themselves without points.

    u_i = -sum_j w_ij s_j dy_ij and v_i = sum_j w_ij s_j dx_ij over each row
    block, with pair weight w = C(r2)/r2 and s = kappa / (2 pi).
    """
    n = system.size if points is None else points[0].size
    u, v = np.empty(n), np.empty(n)
    scale = system.kappa / (2.0 * np.pi)
    for sl, dx, dy, r2 in pair_blocks(system, state, points):
        w = cutoff_over_r2(system.m, r2, system.delta) * scale[None, :]
        u[sl], v[sl] = -(w * dy).sum(axis=1), (w * dx).sum(axis=1)
    return u, v


def rhs(system, state):
    """Right-hand side of the vortex-blob ODEs.

    Returns (xdot, ydot).  The factor C(r^2)/r^2 is finite through r = 0,
    so the velocities are finite and smooth for close (zero-strength)
    pairs; the self-term vanishes because dx = dy = 0 on the diagonal.
    """
    return _velocities(system, state)


def _points(z):
    """(single, (px, py)) for one point (2,) or an array of points (N, 2); other shapes raise ConfigurationError."""
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != 2:
        raise ConfigurationError(f"evaluation points must have shape (2,) or (N, 2), got {z.shape}")
    return z.ndim == 1, tuple(z.reshape(-1, 2).T)


def velocity_field(system, state, z):
    """Smoothed velocity field at evaluation points z.

    z may be a single point (2,) or an array of points (N, 2); the result
    has the same leading shape.
    """
    single, points = _points(z)
    out = np.column_stack(_velocities(system, state, points))
    return out[0] if single else out


def blob_vorticity(system, state, z):
    """Smoothed vorticity field at evaluation points z."""
    single, points = _points(z)
    out = np.empty(points[0].size)
    for sl, _, _, r2 in pair_blocks(system, state, points):
        xi = r2 / system.delta**2
        zeta = p_polynomial(system.m, xi) * np.exp(-xi) / system.delta**2
        out[sl] = (zeta * system.kappa[None, :]).sum(axis=1)
    return float(out[0]) if single else out


def potential_tail(m, xi):
    """W(xi) = E1(xi) + R(xi) exp(-xi), the pair potential less its log: V = log r2 + W(r2/delta^2)."""
    w = exp_integral_e1(xi)
    r = ORDER_POLYNOMIALS[m].r
    if r:
        w = w + _horner(xi, r) * np.exp(-xi)
    return w


def pair_potential(m, r2, delta):
    """Interaction potential V(r2) = log |r2| + W(xi), xi = r2/delta^2, W the potential_tail."""
    _check_order(m)
    r2 = np.asarray(r2, dtype=float)
    return np.log(np.abs(r2)) + potential_tail(m, r2 / delta**2)


def conserved(system, state):
    """Circulation, linear impulses, angular impulse, and Hamiltonian.

    Raises DomainError if any of them is not finite (an overflow of the
    strengths' products or of the positions).
    """
    kappa = system.kappa
    gamma = kappa.sum()
    px = float((kappa * state.y).sum())
    py = float(-(kappa * state.x).sum())
    ell = float(-0.5 * (kappa * (state.x**2 + state.y**2)).sum())
    ham = 0.0
    for i, j in triangle_blocks(system.size):
        _, _, r2, keep = pair_differences(system, state.x, state.y, i, j)
        i, j, r2 = drop_coincident(keep, i, j, r2)
        v = pair_potential(system.m, r2, system.delta)
        ham -= float((kappa[i] * kappa[j] * v).sum()) / (4.0 * np.pi)
    values = (float(gamma), px, py, ell, ham)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"conserved quantities are not finite: {values}")
    return ConservedSet(*values)


def multiplier(kappa, x, y, u, v):
    """Conservation-law multiplier: 4 x 2M matrix with rows (Px, Py, L, H).

    Built at positions (x, y) from the vector field (u, v) there: the H row
    is (-kappa v, kappa u), the field turned by the strengths, so every row
    annihilates (u, v).  The continuous multiplier uses the ODE field at the
    state, the discrete one f_tau at the midpoint of the two levels.
    """
    zero = np.zeros_like(kappa)
    return np.block([[zero, kappa], [-kappa, zero], [-kappa * x, -kappa * y], [-kappa * v, kappa * u]])


def multiplier_matrix(system, state):
    """Continuous multiplier at a state; assembled only in verification paths."""
    return multiplier(system.kappa, state.x, state.y, *rhs(system, state))


def initial_vorticity(r, p=3):
    """Compactly supported radial profile (1 - r^2)^p on the unit disk."""
    if p < 1:
        raise ConfigurationError("vorticity exponent p must be >= 1")
    r = np.asarray(r, dtype=float)
    return np.where(r <= 1.0, (1.0 - np.minimum(r, 1.0) ** 2) ** p, 0.0)


def init_grid(cells_per_side, p=3, q=0.75, m=4, prune_zero=False):
    """Uniform grid of vortices on [-1, 1]^2.

    One vortex at the center of each of cells_per_side^2 square cells,
    with strength initial_vorticity(|z_i|, p) * h^2 and delta = h^q.
    With prune_zero, zero-strength vortices are dropped (they are advected
    passively and contribute nothing to dynamics or conserved quantities).
    """
    if cells_per_side < 1:
        raise ConfigurationError("cells_per_side must be >= 1")
    h = 2.0 / cells_per_side
    centers = -1.0 + h * (np.arange(cells_per_side) + 0.5)
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    x = gx.ravel()
    y = gy.ravel()
    kappa = initial_vorticity(np.hypot(x, y), p) * h**2
    if prune_zero:
        keep = kappa != 0.0
        x, y, kappa = x[keep], y[keep], kappa[keep]
    system = BlobSystem(m=m, h=h, delta=h**q, kappa=kappa)
    return system, State(x=x, y=y, t=0.0)
