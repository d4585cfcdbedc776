"""Planar vortex-blob system: kernels, dynamics, and conserved quantities.

A system of M vortices with strengths ``kappa_i = omega_i * h**2`` induces
the velocity field

    v(z) = sum_j kappa_j * K(z - z_j) * C(|z - z_j|^2)

where K is the point-vortex kernel and ``C(r2) = 1 - Q(r2/delta^2) *
exp(-r2/delta^2)`` is the smoothing cutoff of order m in {2, 4, 6}.
The flow conserves the linear impulses, the angular impulse, and a
Hamiltonian built from log and exponential-integral terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PairDegeneracyError
from .expint import exp_integral_e1


class OrderPolynomials(NamedTuple):
    """Coefficients, in increasing degree, of one blob order's polynomials."""

    q: np.ndarray  # cutoff C(xi) = 1 - Q(xi) exp(-xi); unit constant term
    p: np.ndarray  # matched vorticity shape zeta = P(xi) exp(-xi) / delta^2
    r: np.ndarray  # pair potential V = log r2 + E1(xi) + R(xi) exp(-xi)


# The one table of per-order data; everything order-dependent is derived
# from it.  Q = 1 - xi (R' - R) ties the potential to the cutoff.  R_2 = 0
# has no coefficients.
ORDER_POLYNOMIALS = {
    2: OrderPolynomials(q=np.array([1.0]), p=np.array([1.0]) / np.pi, r=np.array([])),
    4: OrderPolynomials(q=np.array([1.0, -1.0]), p=np.array([2.0, -1.0]) / np.pi, r=np.array([-1.0])),
    6: OrderPolynomials(q=np.array([1.0, -2.0, 0.5]), p=np.array([3.0, -3.0, 0.5]) / np.pi, r=np.array([-1.5, 0.5])),
}
SUPPORTED_ORDERS = tuple(ORDER_POLYNOMIALS)

# Below this value of xi = r^2/delta^2 the ratio C(r^2)/r^2 is evaluated by
# its Maclaurin series: the direct form divides two vanishing quantities.
SMALL_XI = 1e-3
_SERIES_TERMS = 8


def _check_order(m):
    if m not in SUPPORTED_ORDERS:
        raise ConfigurationError(f"unsupported method order m={m}; expected one of {SUPPORTED_ORDERS}")


def q_polynomial(m, r):
    """Q polynomial of order m evaluated at r >= 0."""
    _check_order(m)
    return np.polynomial.polynomial.polyval(np.asarray(r, dtype=float), ORDER_POLYNOMIALS[m].q)


def p_polynomial(m, r):
    """Vorticity-shape polynomial P of order m evaluated at r >= 0."""
    _check_order(m)
    return np.polynomial.polynomial.polyval(np.asarray(r, dtype=float), ORDER_POLYNOMIALS[m].p)


def cutoff(m, r2, delta):
    """Smoothing cutoff C(r2) = 1 - Q(r2/delta^2) exp(-r2/delta^2).

    Vanishes at r2 = 0 and tends to 1 as r2/delta^2 grows.
    """
    _check_order(m)
    xi = np.asarray(r2, dtype=float) / delta**2
    return 1.0 - q_polynomial(m, xi) * np.exp(-xi)


def _cutoff_ratio_series_coef(m, terms=_SERIES_TERMS):
    """Maclaurin coefficients of C(xi)/xi in xi.

    With Q(xi) e^(-xi) = sum a_n xi^n, a_0 = 1 and C(xi) = -sum_{n>=1}
    a_n xi^n, so C(xi)/xi = -sum_{n>=1} a_n xi^(n-1).
    """
    q = ORDER_POLYNOMIALS[m].q
    n = terms + 1
    expc = np.array([(-1.0) ** k / float(math.factorial(k)) for k in range(n)])
    prod = np.convolve(q, expc)[:n]
    return -prod[1:]


_RATIO_COEF = {m: _cutoff_ratio_series_coef(m) for m in SUPPORTED_ORDERS}


def cutoff_over_r2(m, r2, delta):
    """C(r2)/r2, finite and smooth through r2 = 0 (vectorized).

    Uses the Maclaurin series of C(xi)/xi for xi = r2/delta^2 < SMALL_XI,
    otherwise direct evaluation.
    """
    _check_order(m)
    xi = np.asarray(r2, dtype=float) / delta**2
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    out = np.empty_like(xi)
    small = xi < SMALL_XI
    if np.any(small):
        out[small] = np.polynomial.polynomial.polyval(xi[small], _RATIO_COEF[m])
    big = ~small
    if np.any(big):
        xb = xi[big]
        out[big] = (1.0 - q_polynomial(m, xb) * np.exp(-xb)) / xb
    out /= delta**2
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class BlobSystem:
    """Static problem data for one vortex-blob system."""

    m: int
    h: float
    delta: float
    kappa: np.ndarray
    q: float | None = None

    def __post_init__(self):
        _check_order(self.m)
        if not self.h > 0 or not self.delta > 0:
            raise ConfigurationError("h and delta must be positive")
        kappa = np.asarray(self.kappa, dtype=float)
        if not np.all(np.isfinite(kappa)):
            raise ConfigurationError("vortex strengths must be finite")
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


# Pairwise loops run over row blocks so peak memory stays bounded for
# large M; each block touches at most _BLOCK_ELEMS matrix entries.
_BLOCK_ELEMS = 4_000_000


def row_blocks(n_rows, n_cols):
    """Slices over rows keeping block * n_cols below the element budget."""
    step = max(1, _BLOCK_ELEMS // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _pairwise(state):
    """Pairwise differences and squared distances, (M, M) arrays.

    Full matrices; verification-path only.  The stepping paths use the
    blocked accumulators below.
    """
    dx = state.x[:, None] - state.x[None, :]
    dy = state.y[:, None] - state.y[None, :]
    return dx, dy, dx * dx + dy * dy


def _raise_degenerate(live_rows, r2, sl):
    """live_rows: (block, M) mask of strength-bearing pairs off diagonal."""
    bad = (r2 == 0.0) & live_rows
    if np.any(bad):
        bi, j = np.argwhere(bad)[0]
        raise PairDegeneracyError(sl.start + bi, j)


def _live_mask(system, sl):
    """Off-diagonal strength-bearing pair mask for one row block."""
    nz = system.kappa != 0.0
    live = np.outer(nz[sl], nz)
    rows = np.arange(sl.start, sl.stop)
    live[np.arange(rows.size), rows] = False
    return live


def rhs(system, state):
    """Right-hand side of the vortex-blob ODEs.

    Returns (xdot, ydot).  The factor C(r^2)/r^2 is evaluated by its
    series branch near r = 0, so the velocities are finite and smooth
    for close (zero-strength) pairs.
    """
    M = system.size
    xdot = np.zeros(M)
    ydot = np.zeros(M)
    scale = system.kappa / (2.0 * np.pi)
    for sl in row_blocks(M, M):
        dx = state.x[sl, None] - state.x[None, :]
        dy = state.y[sl, None] - state.y[None, :]
        r2 = dx * dx + dy * dy
        _raise_degenerate(_live_mask(system, sl), r2, sl)
        g = cutoff_over_r2(system.m, r2, system.delta)
        rows = np.arange(sl.start, sl.stop)
        g[np.arange(rows.size), rows] = 0.0
        w = g * scale[None, :]
        xdot[sl] = -(w * dy).sum(axis=1)
        ydot[sl] = (w * dx).sum(axis=1)
    return xdot, ydot


def velocity_field(system, state, z):
    """Smoothed velocity field at evaluation points z.

    z may be a single point (2,) or an array of points (N, 2); the result
    has the same leading shape.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    n = pts.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    scale = system.kappa / (2.0 * np.pi)
    for sl in row_blocks(n, system.size):
        dx = pts[sl, 0][:, None] - state.x[None, :]
        dy = pts[sl, 1][:, None] - state.y[None, :]
        r2 = dx * dx + dy * dy
        g = cutoff_over_r2(system.m, r2, system.delta)
        w = g * scale[None, :]
        u[sl] = -(w * dy).sum(axis=1)
        v[sl] = (w * dx).sum(axis=1)
    out = np.column_stack([u, v])
    return out[0] if single else out


def blob_vorticity(system, state, z):
    """Smoothed vorticity field at evaluation points z."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    n = pts.shape[0]
    out = np.zeros(n)
    for sl in row_blocks(n, system.size):
        dx = pts[sl, 0][:, None] - state.x[None, :]
        dy = pts[sl, 1][:, None] - state.y[None, :]
        xi = (dx * dx + dy * dy) / system.delta**2
        zeta = p_polynomial(system.m, xi) * np.exp(-xi) / system.delta**2
        out[sl] = (zeta * system.kappa[None, :]).sum(axis=1)
    return float(out[0]) if single else out


def pair_potential(m, r2, delta):
    """Interaction potential V(r2) = log |r2| + E1(xi) + R(xi) exp(-xi)."""
    _check_order(m)
    r2 = np.asarray(r2, dtype=float)
    xi = r2 / delta**2
    v = np.log(np.abs(r2)) + exp_integral_e1(xi)
    r = ORDER_POLYNOMIALS[m].r
    if r.size:
        v = v + np.polynomial.polynomial.polyval(xi, r) * np.exp(-xi)
    return v


def conserved(system, state):
    """Circulation, linear impulses, angular impulse, and Hamiltonian."""
    kappa = system.kappa
    gamma = kappa.sum()
    px = float((kappa * state.y).sum())
    py = float(-(kappa * state.x).sum())
    ell = float(-0.5 * (kappa * (state.x**2 + state.y**2)).sum())
    M = system.size
    ham = 0.0
    for sl in row_blocks(M, M):
        dx = state.x[sl, None] - state.x[None, :]
        dy = state.y[sl, None] - state.y[None, :]
        r2 = dx * dx + dy * dy
        live = _live_mask(system, sl)
        _raise_degenerate(live, r2, sl)
        # count each pair once: keep columns strictly above the row index
        upper = live & (np.arange(M)[None, :] > np.arange(sl.start, sl.stop)[:, None])
        if np.any(upper):
            bi, j = np.nonzero(upper)
            pair_k = kappa[sl.start + bi] * kappa[j]
            v = pair_potential(system.m, r2[bi, j], system.delta)
            ham -= float((pair_k * v).sum()) / (4.0 * np.pi)
    return ConservedSet(gamma=float(gamma), px=px, py=py, ell=ell, ham=ham)


def multiplier_matrix(system, state):
    """Conservation-law multiplier: 4 x 2M matrix with rows (Px, Py, L, H).

    The product with the ODE right-hand side vanishes identically; assembled
    only in verification paths, never while stepping.
    """
    M = system.size
    kappa = system.kappa
    dx, dy, r2 = _pairwise(state)
    g = cutoff_over_r2(system.m, r2, system.delta)
    np.fill_diagonal(g, 0.0)
    lam = np.zeros((4, 2 * M))
    lam[0, M:] = kappa
    lam[1, :M] = -kappa
    lam[2, :M] = -kappa * state.x
    lam[2, M:] = -kappa * state.y
    hx = -(kappa[:, None] * kappa[None, :] * dx * g).sum(axis=1) / (2.0 * np.pi)
    hy = -(kappa[:, None] * kappa[None, :] * dy * g).sum(axis=1) / (2.0 * np.pi)
    lam[3, :M] = hx
    lam[3, M:] = hy
    return lam


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
    system = BlobSystem(m=m, h=h, delta=h**q, kappa=kappa, q=q)
    return system, State(x=x, y=y, t=0.0)
