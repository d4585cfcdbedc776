"""Discrete vector field of the conservative one-step scheme.

The update is the implicit midpoint-like discretization

    (x^{k+1} - x^k)/tau = f_tau(x^{k+1}, x^k)

where f_tau replaces the continuous cutoff factor C(r^2)/r^2 by a divided
difference of the pair potential between the two time levels, so the
linear impulses, angular impulse, and Hamiltonian of the system are
preserved exactly (up to solver tolerance) on each step.  This module
builds f_tau, its residual, and the discrete multiplier identities behind
the conservation; :func:`vortexblob.integrators.dmm_step` solves the
update.  ``PrevLevel`` builds the prev level once per step: over the
chunked pair triangle i < j of :mod:`vortexblob.model`, which checks for
coincident vortices, it holds each pair's differences, xi_k, exp(-xi_k)
and E1(xi_k).  Each Picard iterate then forms only the cand level and
scatters each pair's antisymmetric contribution to both of its vortices.
``dmm_rhs`` is the one-call form (build, evaluate once).  The discrete
multiplier is model's ``multiplier`` built from f_tau.

The divided-difference factor ``c_tau`` is singular-looking when the two
pair separations agree; a truncated Taylor expansion in (z - 1), with
z the squared-separation ratio, is substituted when |z - 1| is at most
the one switch threshold, ``DEFAULT_CTAU.epsilon_switch``, read at each
call.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import model
from .errors import ConfigurationError, DomainError
from .expint import exp_integral_e1
from .model import ORDER_POLYNOMIALS, _check_order, conserved, multiplier, pair_differences, triangle_blocks


@dataclass(frozen=True)
class CTauParams:
    """Switch parameter for the divided-difference cutoff factor.

    c_tau reads the one instance DEFAULT_CTAU at each call.
    """

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


def _taylor_form(m, xi_k, e_k, s):
    """c_tau_taylor from xi_k, e_k = exp(-xi_k) and s = z - 1."""
    c0, c1, c2 = (a + _horner(xi_k, b) * e_k for a, b in _TAYLOR_POLYNOMIALS[m])
    return c0 + c1 * s / 2.0 + c2 * s**2 / 6.0


def _closed_form(m, xi_k, e_k, e1_k, xi_k1, z):
    """c_tau_closed from the prev-level terms e_k = exp(-xi_k), e1_k = E1(xi_k) and z = xi_k1/xi_k."""
    num = np.log(np.abs(z)) + exp_integral_e1(xi_k1) - e1_k
    r = ORDER_POLYNOMIALS[m].r
    if r.size:
        num = num + e_k * (np.exp(-(xi_k1 - xi_k)) - 1.0) * _horner(xi_k, r)
    out = num / (z - 1.0)
    if r.size > 1:
        out = out + xi_k * _divided_difference(r, xi_k, xi_k1) * np.exp(-xi_k1)
    return out


def _c_tau(m, xi_k, e_k, e1_k, xi_k1):
    """c_tau on arrays of pairs from the prev-level terms; e1_k None computes E1(xi_k) where needed.

    Taylor where |z - 1| <= DEFAULT_CTAU.epsilon_switch, the closed form elsewhere.
    """
    z = xi_k1 / xi_k
    near = np.abs(z - 1.0) <= DEFAULT_CTAU.epsilon_switch

    def closed(sel):
        xi = xi_k[sel]
        return _closed_form(m, xi, e_k[sel], exp_integral_e1(xi) if e1_k is None else e1_k[sel], xi_k1[sel], z[sel])

    if near.all():
        return _taylor_form(m, xi_k, e_k, z - 1.0)
    if not near.any():
        return closed(slice(None))
    out = np.empty_like(z)
    out[near] = _taylor_form(m, xi_k[near], e_k[near], z[near] - 1.0)
    out[~near] = closed(~near)
    return out


def c_tau_taylor(m, xi_k, z):
    """Taylor expansion of the divided-difference factor in s = z - 1.

    Truncated after the s^2 term: c_0 + c_1 s/2 + c_2 s^2/6.
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    return _taylor_form(m, xi_k, np.exp(-xi_k), np.asarray(z, dtype=float) - 1.0)


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
    return _closed_form(m, xi_k, np.exp(-xi_k), exp_integral_e1(xi_k), xi_k1, xi_k1 / xi_k)


def c_tau(m, xi_k, xi_k1):
    """Divided-difference cutoff factor between two time levels (vectorized).

    Requires xi = (r/delta)^2 > 0 at both levels, as E1 does, and raises
    DomainError otherwise.  Uses the closed form when |xi_k1/xi_k - 1|
    exceeds DEFAULT_CTAU.epsilon_switch, the truncated Taylor expansion
    otherwise.
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    xi_k1 = np.asarray(xi_k1, dtype=float)
    if np.any(xi_k <= 0.0) or np.any(xi_k1 <= 0.0):
        raise DomainError("c_tau requires positive separations at both time levels")
    scalar = xi_k.ndim == 0 and xi_k1.ndim == 0
    xi_k, xi_k1 = np.broadcast_arrays(np.atleast_1d(xi_k), np.atleast_1d(xi_k1))
    out = _c_tau(m, xi_k, np.exp(-xi_k), None, xi_k1)
    return float(out[0]) if scalar else out


# One chunk of the prev level: pairs i < j at nonzero distance, their
# differences dx, dy, r2 and xi, and e = exp(-xi), e1 = E1(xi).
_PrevPairs = namedtuple("_PrevPairs", "i j dx dy r2 xi e e1")


def _prev_pairs(system, prev, i, j):
    """The prev level of the pairs (i, j), less those at zero distance."""
    dx, dy, r2 = pair_differences(system, prev, i, j)
    if not r2.all():  # coincident zero-strength vortices: no weight
        keep = r2 > 0.0
        i, j, dx, dy, r2 = i[keep], j[keep], dx[keep], dy[keep], r2[keep]
    xi = r2 / system.delta**2
    return _PrevPairs(i, j, dx, dy, r2, xi, np.exp(-xi), exp_integral_e1(xi))


class PrevLevel:
    """The prev level of one conservative step, built once and evaluated per iterate.

    Holds the prev-level differences, xi_k, exp(-xi_k) and E1(xi_k) of the
    pair triangle i < j, chunk by chunk.  At most _BLOCK_ELEMS pairs are
    held (64 bytes each), which bounds the memory at large M; the chunks
    past them are rebuilt on each evaluation.  Each evaluation reads the
    c_tau switch, DEFAULT_CTAU.epsilon_switch, afresh.
    """

    def __init__(self, system, prev):
        self.system, self.prev = system, prev
        self.held, self.rest = [], system.size
        budget = model._BLOCK_ELEMS
        for i, j in triangle_blocks(system.size):
            if i.size > budget:
                self.rest = int(i[0])
                break
            budget -= i.size
            self.held.append(_prev_pairs(system, prev, i, j))

    def _chunks(self):
        yield from self.held
        for i, j in triangle_blocks(self.system.size, self.rest):
            yield _prev_pairs(self.system, self.prev, i, j)

    def field(self, cand):
        """f_tau(prev, cand): midpoint differences weighted by c_tau / r2_k, each pair scattered to i and j."""
        system = self.system
        n = system.size
        scale = system.kappa / (2.0 * np.pi)
        d2 = system.delta**2
        xdot = np.zeros(n)
        ydot = np.zeros(n)
        for p in self._chunks():
            dx, dy, r2 = pair_differences(system, cand, p.i, p.j)
            if not r2.all():  # coincident zero-strength vortices: no weight
                keep = r2 > 0.0
                p = _PrevPairs(*(a[keep] for a in p))
                dx, dy, r2 = dx[keep], dy[keep], r2[keep]
            w = 0.5 * _c_tau(system.m, p.xi, p.e, p.e1, r2 / d2) / p.r2
            wx = w * (dx + p.dx)
            wy = w * (dy + p.dy)
            si, sj = scale[p.i], scale[p.j]
            xdot += np.bincount(p.j, wy * si, n) - np.bincount(p.i, wy * sj, n)
            ydot += np.bincount(p.i, wx * sj, n) - np.bincount(p.j, wx * si, n)
        return xdot, ydot


def dmm_rhs(system, prev, cand):
    """Discrete right-hand side built from midpoint averages and c_tau.

    The pair weight c_tau / r2^k replaces C(r2)/r2 of the continuous rhs,
    to which this reduces when cand == prev.  Pairs at zero distance on
    either level (coincident zero-strength vortices) get no weight.  The
    one-call form of PrevLevel(system, prev).field(cand).
    """
    return PrevLevel(system, prev).field(cand)


def dmm_residual(system, prev, cand, tau):
    """Residual of the conservative update: (cand - prev)/tau - f_tau."""
    if tau == 0.0:
        raise ConfigurationError("tau must be nonzero")
    fx, fy = dmm_rhs(system, prev, cand)
    rx = (cand.x - prev.x) / tau - fx
    ry = (cand.y - prev.y) / tau - fy
    return rx, ry


def discrete_multiplier_residuals(system, prev, cand, tau):
    """Max-norm residuals of the two discrete multiplier identities.

    The discrete multiplier Lambda_tau is built from f_tau at the midpoint
    of the two levels, as the continuous one is built from the ODE field at
    the state.  res1: Lambda_tau (cand - prev)/tau vs the divided difference
    of the conserved quantities; res2: Lambda_tau f_tau.  Both vanish
    identically for arbitrary state pairs, not just scheme solutions.
    """
    f = dmm_rhs(system, prev, cand)
    lam = multiplier(system.kappa, 0.5 * (cand.x + prev.x), 0.5 * (cand.y + prev.y), *f)
    dx = np.concatenate([cand.x - prev.x, cand.y - prev.y]) / tau
    psi_prev = conserved(system, prev).as_array()
    psi_cand = conserved(system, cand).as_array()
    res1 = float(np.abs(lam @ dx - (psi_cand - psi_prev) / tau).max())
    res2 = float(np.abs(lam @ np.concatenate(f)).max())
    return res1, res2
