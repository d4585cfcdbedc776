"""Discrete vector field of the conservative one-step scheme.

The update is the implicit midpoint-like discretization

    (x^{k+1} - x^k)/tau = f_tau(x^{k+1}, x^k)

where f_tau replaces the continuous cutoff factor C(r^2)/r^2 by a divided
difference of the pair potential between the two time levels, so the
linear impulses, angular impulse, and Hamiltonian of the system are
preserved exactly (up to solver tolerance) on each step.  This module
builds f_tau (``dmm_rhs``), its residual, and the discrete multiplier
identities behind the conservation; :func:`vortexblob.integrators.dmm_step`
solves the update.

The divided-difference factor ``c_tau`` is singular-looking when the two
pair separations agree; a truncated Taylor expansion in (z - 1), with
z the squared-separation ratio, is substituted when |z - 1| is below a
small switch threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError, PairDegeneracyError
from .expint import exp_integral_e1
from .model import ORDER_POLYNOMIALS, _check_order, _live_mask, _raise_degenerate, conserved, row_blocks


@dataclass(frozen=True)
class CTauParams:
    """Switch parameter for the divided-difference cutoff factor."""

    epsilon_switch: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.epsilon_switch < 1.0:
            raise ConfigurationError("epsilon_switch must lie in (0, 1)")


DEFAULT_CTAU = CTauParams()


def _taylor_polynomials(q):
    """Pairs (a_n, B_n), n = 0, 1, 2, with c_n(xi) = a_n + B_n(xi) exp(-xi).

    c_n = xi^(n+1) V^(n+1)(xi) for the pair potential V, so the divided
    difference is sum_n c_n (z-1)^n / (n+1)!.  c_0 = C = 1 - Q exp(-xi),
    and c_{n+1} = xi c_n' - (n+1) c_n.
    """
    a, b = 1.0, -q
    out = []
    for n in range(3):
        out.append((a, tuple(float(c) for c in b)))
        a, b = -(n + 1) * a, npoly.polysub(npoly.polymulx(npoly.polysub(npoly.polyder(b), b)), (n + 1) * b)
    return out


_TAYLOR_POLYNOMIALS = {m: _taylor_polynomials(poly.q) for m, poly in ORDER_POLYNOMIALS.items()}


def _horner(x, coef):
    """coef[0] + coef[1] x + ...; unlike numpy's polyval, no x * 0 term or array conversion."""
    out = coef[-1]
    for c in coef[-2::-1]:
        out = out * x + c
    return out


def _divided_difference(coef, a, b):
    """(p(b) - p(a)) / (b - a) for a polynomial p of degree >= 1, division free."""
    pb = d = coef[-1]
    for c in coef[-2:0:-1]:
        pb = c + b * pb
        d = pb + a * d
    return d


def c_tau_taylor(m, xi_k, z):
    """Taylor expansion of the divided-difference factor in s = z - 1.

    Truncated after the s^2 term: c_0 + c_1 s/2 + c_2 s^2/6.
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    s = np.asarray(z, dtype=float) - 1.0
    e = np.exp(-xi_k)
    c0, c1, c2 = (a + _horner(xi_k, b) * e for a, b in _TAYLOR_POLYNOMIALS[m])
    del e  # one array fewer alive in the sum below, which sets the peak on large blocks
    return c0 + c1 * s / 2.0 + c2 * s**2 / 6.0


def c_tau_closed(m, xi_k, xi_k1):
    """Closed-form divided-difference factor (log, E1, exponential terms).

    With z = xi_k1/xi_k and R the order's potential remainder,
    [log z + E1(xi_k1) - E1(xi_k) + R(xi_k) (e^-xi_k1 - e^-xi_k)]/(z - 1)
    + xi_k R[xi_k, xi_k1] e^-xi_k1.  Not protected against the z -> 1
    cancellation; see c_tau for the branch-switched version.
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    xi_k1 = np.asarray(xi_k1, dtype=float)
    z = xi_k1 / xi_k
    num = np.log(np.abs(z)) + exp_integral_e1(xi_k1) - exp_integral_e1(xi_k)
    r = ORDER_POLYNOMIALS[m].r
    if r.size:
        num = num + np.exp(-xi_k) * (np.exp(-(xi_k1 - xi_k)) - 1.0) * _horner(xi_k, r)
    out = num / (z - 1.0)
    if r.size > 1:
        out = out + xi_k * _divided_difference(r, xi_k, xi_k1) * np.exp(-xi_k1)
    return out


def c_tau(m, xi_k, xi_k1, params=DEFAULT_CTAU):
    """Divided-difference cutoff factor between two time levels (vectorized).

    Requires xi = (r/delta)^2 > 0 at both levels.  Uses the closed form
    when |xi_k1/xi_k - 1| exceeds the switch threshold, the truncated
    Taylor expansion otherwise.
    """
    xi_k = np.asarray(xi_k, dtype=float)
    xi_k1 = np.asarray(xi_k1, dtype=float)
    if np.any(xi_k <= 0.0) or np.any(xi_k1 <= 0.0):
        raise PairDegeneracyError(-1, -1, "coincident vortices at one of the time levels")
    scalar = xi_k.ndim == 0 and xi_k1.ndim == 0
    xi_k, xi_k1 = np.atleast_1d(xi_k), np.atleast_1d(xi_k1)
    xi_k, xi_k1 = np.broadcast_arrays(xi_k, xi_k1)
    z = xi_k1 / xi_k
    out = np.empty_like(z)
    near = np.abs(z - 1.0) <= params.epsilon_switch
    if np.any(near):
        out[near] = c_tau_taylor(m, xi_k[near], z[near])
    far = ~near
    if np.any(far):
        out[far] = c_tau_closed(m, xi_k[far], xi_k1[far])
    return float(out[0]) if scalar else out


def _pair_factor_blocks(system, prev, cand, params):
    """Yield (rows, bx, by, weight) over row blocks to bound peak memory.

    bx, by are midpoint pair differences; weight = c_tau / r2^k with zeros
    on the diagonal and on coincident zero-strength pairs.
    """
    M = system.size
    d2 = system.delta**2
    for sl in row_blocks(M, M):
        dxk = prev.x[sl, None] - prev.x[None, :]
        dyk = prev.y[sl, None] - prev.y[None, :]
        r2k = dxk * dxk + dyk * dyk
        dx1 = cand.x[sl, None] - cand.x[None, :]
        dy1 = cand.y[sl, None] - cand.y[None, :]
        r21 = dx1 * dx1 + dy1 * dy1
        live = _live_mask(system, sl)
        _raise_degenerate(live, r2k, sl)
        _raise_degenerate(live, r21, sl)
        off = (r2k > 0.0) & (r21 > 0.0)
        rows = np.arange(sl.start, sl.stop)
        off[np.arange(rows.size), rows] = False
        weight = np.zeros_like(r2k)
        weight[off] = c_tau(system.m, r2k[off] / d2, r21[off] / d2, params) / r2k[off]
        yield sl, 0.5 * (dx1 + dxk), 0.5 * (dy1 + dyk), weight


def _pair_factor(system, prev, cand, params):
    """Full (M, M) midpoint differences and weights; verification paths only."""
    M = system.size
    bx = np.empty((M, M))
    by = np.empty((M, M))
    weight = np.empty((M, M))
    for sl, bbx, bby, bw in _pair_factor_blocks(system, prev, cand, params):
        bx[sl], by[sl], weight[sl] = bbx, bby, bw
    return bx, by, weight


def dmm_rhs(system, prev, cand, params=DEFAULT_CTAU):
    """Discrete right-hand side built from midpoint averages and c_tau.

    Reduces to the continuous rhs when cand == prev.
    """
    M = system.size
    xdot = np.empty(M)
    ydot = np.empty(M)
    scale = system.kappa / (2.0 * np.pi)
    for sl, bx, by, weight in _pair_factor_blocks(system, prev, cand, params):
        w = weight * scale[None, :]
        xdot[sl] = -(w * by).sum(axis=1)
        ydot[sl] = (w * bx).sum(axis=1)
    return xdot, ydot


def dmm_residual(system, prev, cand, tau, params=DEFAULT_CTAU):
    """Residual of the conservative update: (cand - prev)/tau - f_tau."""
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    fx, fy = dmm_rhs(system, prev, cand, params)
    rx = (cand.x - prev.x) / tau - fx
    ry = (cand.y - prev.y) / tau - fy
    return rx, ry


def discrete_multiplier_matrix(system, prev, cand, params=DEFAULT_CTAU):
    """Discrete multiplier: 4 x 2M matrix on a pair of states.

    Assembled only in verification paths.
    """
    M = system.size
    kappa = system.kappa
    bx_i = 0.5 * (cand.x + prev.x)
    by_i = 0.5 * (cand.y + prev.y)
    bx, by, weight = _pair_factor(system, prev, cand, params)
    lam = np.zeros((4, 2 * M))
    lam[0, M:] = kappa
    lam[1, :M] = -kappa
    lam[2, :M] = -kappa * bx_i
    lam[2, M:] = -kappa * by_i
    kk = kappa[:, None] * kappa[None, :]
    lam[3, :M] = -(kk * bx * weight).sum(axis=1) / (2.0 * np.pi)
    lam[3, M:] = -(kk * by * weight).sum(axis=1) / (2.0 * np.pi)
    return lam


def discrete_multiplier_residuals(system, prev, cand, tau, params=DEFAULT_CTAU):
    """Max-norm residuals of the two discrete multiplier identities.

    res1: Lambda_tau (cand - prev)/tau vs the divided difference of the
    conserved quantities; res2: Lambda_tau f_tau.  Both vanish identically
    for arbitrary state pairs, not just scheme solutions.
    """
    lam = discrete_multiplier_matrix(system, prev, cand, params)
    dx = np.concatenate([cand.x - prev.x, cand.y - prev.y]) / tau
    psi_prev = conserved(system, prev).as_array()
    psi_cand = conserved(system, cand).as_array()
    res1 = float(np.abs(lam @ dx - (psi_cand - psi_prev) / tau).max())
    f = np.concatenate(dmm_rhs(system, prev, cand, params))
    res2 = float(np.abs(lam @ f).max())
    return res1, res2
