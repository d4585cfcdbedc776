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
coincident vortices, it splits each chunk by xi_k into a near part, which
holds each pair's differences and r2, exp(-xi_k), W(xi_k) (model's
``potential_tail``, the pair potential less its log) and the c_tau
switch band (64 bytes a pair), and a far part, which holds the
differences and r2 alone (40 bytes a pair).  Each Picard iterate then
forms only the cand level and scatters each pair's antisymmetric
contribution to both of its vortices: to j by ``np.bincount``, to i by
``np.add.reduceat`` over the row segments of the part, which the
triangle keeps sorted by i.
``dmm_rhs`` is the one-call form (build, evaluate once).  The discrete
multiplier is model's ``multiplier`` built from f_tau.

The divided-difference factor ``c_tau`` is that of the pair potential
V = log xi + W(xi) whose sum is the Hamiltonian, in closed form
(log z + W(xi_k1) - W(xi_k))/(z - 1).  It is singular-looking when the two
pair separations agree; there it takes a truncated Taylor expansion in
z - 1, z the squared-separation ratio, by the one switch that ``c_tau``'s
docstring states with its error balance.  Far pairs take log1p(s)/s, by
the bound that ``_far_threshold`` proves.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError, DomainError
from .expint import _horner, exp_integral_e1  # noqa: F401  E1 is unused here, but perfbench/spans.py wraps this name
from .model import (
    ORDER_POLYNOMIALS,
    _check_order,
    conserved,
    drop_coincident,
    multiplier,
    pair_differences,
    potential_tail,
    triangle_blocks,
)


@dataclass(frozen=True)
class CTauParams:
    """Switch parameter for the divided-difference cutoff factor.

    c_tau takes the Taylor form where |z - 1| clip(xi_k, epsilon_switch, 1)
    <= epsilon_switch; it reads the one instance DEFAULT_CTAU at each call.
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
    a, b = 1.0, -np.asarray(q)
    out = []
    for n in range(3):
        out.append((a, tuple(float(c) for c in b)))
        a, b = -(n + 1) * a, npoly.polysub(npoly.polymulx(npoly.polysub(npoly.polyder(b), b)), (n + 1) * b)
    return out


_TAYLOR_POLYNOMIALS = {m: _taylor_polynomials(poly.q) for m, poly in ORDER_POLYNOMIALS.items()}


def _taylor_form(m, xi_k, e_k, s):
    """c_tau_taylor from xi_k, e_k = exp(-xi_k) and s = z - 1."""
    c0, c1, c2 = (a + _horner(xi_k, b) * e_k for a, b in _TAYLOR_POLYNOMIALS[m])
    return c0 + c1 * s / 2.0 + c2 * s**2 / 6.0


def _closed_form(m, w_k, xi_k1, z, s):
    """c_tau_closed from w_k = W(xi_k), z = xi_k1/xi_k and s = z - 1; each level's W forms its own exp(-xi)."""
    return (np.log(np.abs(z)) + potential_tail(m, xi_k1) - w_k) / s


def _c_tau(m, xi_k, e_k, w_k, band, xi_k1, eps):
    """c_tau on arrays of pairs from the prev-level terms e_k = exp(-xi_k), w_k = W(xi_k) and band = clip(xi_k, eps, 1).

    Taylor where |z - 1| band <= eps, the closed form elsewhere; w_k None
    computes W(xi_k) where the closed form is taken.  A chunk that mixes
    the two takes the closed form on every pair, with s = 1 at the Taylor
    pairs so that z = 1 never divides 0 by 0, and then the Taylor form on
    the Taylor pairs alone, picked by index: that costs less than copying
    the closed pairs out by boolean mask.
    """
    z = xi_k1 / xi_k
    s = z - 1.0
    near = np.abs(s) * band <= eps
    if near.all():
        return _taylor_form(m, xi_k, e_k, s)
    if w_k is None:
        w_k = potential_tail(m, xi_k)
    if not near.any():
        return _closed_form(m, w_k, xi_k1, z, s)
    idx = np.flatnonzero(near)
    s_near = s[idx]
    s[idx] = 1.0
    out = _closed_form(m, w_k, xi_k1, z, s)
    out[idx] = _taylor_form(m, xi_k[idx], e_k[idx], s_near)
    return out


def _far_threshold(q):
    """xi_far of the cutoff polynomial Q: the root of |Q(xi)| e^-xi = 2^-53 above Q's roots.

    Past it c_tau is log1p(s)/s, s = xi_k1/xi_k - 1, to rounding.  The
    pair potential is V = log xi + W(xi), W = E1 + R e^-xi, with
    V' = C(xi)/xi = (1 - Q(xi) e^-xi)/xi, so by the mean value theorem
    c_tau = xi_k (V(xi_k1) - V(xi_k))/(xi_k1 - xi_k) is xi_k times the mean
    of V' over [xi_k, xi_k1]: xi_k times the mean of 1/xi, which is
    log1p(s)/s, plus the dropped part, xi_k times the mean of
    -Q e^-xi / xi.  Both are means over one interval, so the dropped part
    over log1p(s)/s is a 1/xi-weighted mean of -Q e^-xi, at most the largest
    |Q| e^-xi on the interval.  Above Q's largest root,
    d/dxi log(|Q| e^-xi) = Q'/Q - 1 < 0, so that largest value is the one at
    min(xi_k, xi_k1), below 2^-53 once both levels lie above xi_far: about
    36.7, 40.4 and 43.5 for m = 2, 4, 6.  xi_far is the fixed point of
    xi = 53 log 2 + log|Q(xi)|, a contraction there (|Q'/Q| < 0.05).
    """
    xi = 53.0 * np.log(2.0)
    for _ in range(30):
        xi = 53.0 * np.log(2.0) + np.log(abs(_horner(xi, q)))
    return float(xi)


_XI_FAR = {m: _far_threshold(poly.q) for m, poly in ORDER_POLYNOMIALS.items()}


def _far_form(m, r2_k, r2_k1, d2, eps):
    """c_tau of pairs with xi_k = r2_k/d2 above _XI_FAR[m], on arrays.

    log1p(s)/s with s = (r2_k1 - r2_k)/r2_k formed from the difference, so
    that the log and its divisor see one s, and 1 where s == 0.  The pairs
    whose xi_k1 falls to xi_far or below take the full _c_tau (their band
    clip(xi_k, eps, 1) is 1).
    """
    s = (r2_k1 - r2_k) / r2_k
    out = np.divide(np.log1p(s), s, out=np.ones_like(s), where=s != 0.0)
    back = np.flatnonzero(r2_k1 <= _XI_FAR[m] * d2)
    if back.size:
        xi_k = r2_k[back] / d2
        out[back] = _c_tau(m, xi_k, np.exp(-xi_k), None, 1.0, r2_k1[back] / d2, eps)
    return out


def c_tau_taylor(m, xi_k, z):
    """Taylor expansion of the divided-difference factor in s = z - 1.

    Truncated after the s^2 term: c_0 + c_1 s/2 + c_2 s^2/6.
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    return _taylor_form(m, xi_k, np.exp(-xi_k), np.asarray(z, dtype=float) - 1.0)


def c_tau_closed(m, xi_k, xi_k1):
    """Closed-form divided difference of the pair potential V = log xi + W(xi).

    With z = xi_k1/xi_k and W = E1 + R e^-xi model's potential_tail,
    [log z + W(xi_k1) - W(xi_k)]/(z - 1).  Not protected against the
    z -> 1 cancellation; see c_tau for the branch-switched version.
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    xi_k1 = np.asarray(xi_k1, dtype=float)
    z = xi_k1 / xi_k
    return _closed_form(m, potential_tail(m, xi_k), xi_k1, z, z - 1.0)


def c_tau(m, xi_k, xi_k1):
    """Divided-difference cutoff factor between two time levels (vectorized).

    Requires xi = (r/delta)^2 > 0 at both levels, as E1 does, and raises
    DomainError otherwise.  With eps = DEFAULT_CTAU.epsilon_switch, uses
    the truncated Taylor expansion when |xi_k1/xi_k - 1| clip(xi_k, eps, 1)
    is at most eps, the closed form otherwise: below xi_k = 1 the closed
    form's log z cancels against W(xi_k1) - W(xi_k) and loses about
    eps |log xi_k| / (xi_k |z - 1|), while the Taylor terms shrink like
    (xi_k (z - 1))^n.  The Taylor band stops at |z - 1| = 1, where the
    rounding of its coefficients, about eps (z - 1)^2 / xi_k relative,
    catches up with the closed form's.  Pairs with xi_k above the order's
    far threshold take PrevLevel's far form, log1p(s)/s (_far_threshold
    bounds what it drops).
    """
    _check_order(m)
    xi_k = np.asarray(xi_k, dtype=float)
    xi_k1 = np.asarray(xi_k1, dtype=float)
    if np.any(xi_k <= 0.0) or np.any(xi_k1 <= 0.0):
        raise DomainError("c_tau requires positive separations at both time levels")
    scalar = xi_k.ndim == 0 and xi_k1.ndim == 0
    xi_k, xi_k1 = np.broadcast_arrays(np.atleast_1d(xi_k), np.atleast_1d(xi_k1))
    eps = DEFAULT_CTAU.epsilon_switch
    out = np.empty(xi_k.shape)
    far = xi_k > _XI_FAR[m]
    out[far] = _far_form(m, xi_k[far], xi_k1[far], 1.0, eps)
    near = ~far
    a = xi_k[near]
    out[near] = _c_tau(m, a, np.exp(-a), None, np.clip(a, eps, 1.0), xi_k1[near], eps)
    return float(out[0]) if scalar else out


# The two parts of a prev-level chunk: pairs i < j at nonzero distance in
# the triangle's order, so sorted by i, with their differences dx, dy and
# r2.  A near pair (xi = r2/delta^2 at most xi_far) also holds e = exp(-xi),
# w = W(xi), the potential_tail, and the c_tau switch band clip(xi, eps, 1);
# a far pair's c_tau needs r2 alone.
_NearPairs = namedtuple("_NearPairs", "i j dx dy r2 e w band")
_FarPairs = namedtuple("_FarPairs", "i j dx dy r2")
# A part and its row segments: the rows i of its pairs and the index of each
# row's first pair, what np.add.reduceat needs to sum the i-side.
_Part = namedtuple("_Part", "pairs rows starts")


def _prev_parts(system, prev, i, j, eps):
    """The near and far parts of the pairs (i, j) at the prev level, less those at zero distance.

    Both parts are rows of one float64 block (i and j viewed as intp), so
    that the chunk is allocated and freed in one piece; a part without
    pairs is left out.  Each part comes with its row segments, found once.
    """
    dx, dy, r2, keep = pair_differences(system, prev.x, prev.y, i, j)
    pairs = drop_coincident(keep, i, j, dx, dy, r2)
    xi = pairs[4] / system.delta**2
    far = xi > _XI_FAR[system.m]
    near_idx, far_idx = (~far).nonzero()[0], far.nonzero()[0]
    block = np.empty(8 * near_idx.size + 5 * far_idx.size)
    parts, start = [], 0
    for kind, idx in ((_NearPairs, near_idx), (_FarPairs, far_idx)):
        if not idx.size:
            continue
        stop = start + len(kind._fields) * idx.size
        rows = block[start:stop].reshape(-1, idx.size)
        start = stop
        cols = [*rows[:2].view(np.intp), *rows[2:]]
        for col, a in zip(cols, (*pairs, xi)):  # a far pair takes no xi
            col[...] = a[idx]
        if kind is _NearPairs:  # xi sits in e's row until W and the band are formed
            xi_k = cols[5]
            cols[6][...] = potential_tail(system.m, xi_k)
            np.clip(xi_k, eps, 1.0, out=cols[7])
            np.exp(np.negative(xi_k, out=xi_k), out=xi_k)
        p = kind(*cols)
        new_row = np.empty(idx.size, bool)
        new_row[0] = True
        np.not_equal(p.i[1:], p.i[:-1], out=new_row[1:])
        starts = new_row.nonzero()[0]
        parts.append(_Part(p, p.i[starts], starts))
    return parts


# Most prev-level pairs a PrevLevel holds, at 64 bytes (near) or 40 bytes
# (far) each: at most 256 MB.
_HELD_PAIRS = 4_000_000


class PrevLevel:
    """The prev level of one conservative step, built once and evaluated per iterate.

    Splits each tile-sized chunk of the pair triangle i < j by xi_k against
    the order's far threshold (_far_threshold).  A near pair holds its
    prev-level differences and r2, exp(-xi_k), W(xi_k) and the c_tau switch
    band, 64 bytes; xi_k = r2/delta^2 is formed again per iterate.  A far pair
    holds its differences and r2 alone, 40 bytes, and takes _far_form:
    log1p(s)/s, with no exp, E1 or band, unless its xi_k1 falls to the
    threshold.  At most _HELD_PAIRS pairs are held, which bounds the memory
    at large M; the chunks past them are rebuilt on each evaluation.  The
    c_tau switch, DEFAULT_CTAU.epsilon_switch, is read once, when the level
    is built.

    Each part keeps the triangle's order, sorted by i, and holds its row
    segments, found once here: the i-side of the scatter is one
    np.add.reduceat per component (a 64k-pair chunk: 0.25 ns a pair,
    against 3.7 ns for np.bincount over the sorted i, whose adds wait on each
    other), the j-side stays on np.bincount.

    Each chunk is one block, both parts rows of it, so it is allocated and
    freed in one piece.  Freeing a block of a few MB raises glibc's mmap and
    trim thresholds to its size, so the tile-sized temporaries of the
    iterates, the fields and later levels reuse heap pages instead of being
    trimmed and faulted in again.  Held as separate arrays, a level left a
    grid20 dmm step about 20 000 page faults and an rhs call at M = 812
    about 5900, which doubled its time.
    """

    def __init__(self, system, prev):
        self.system, self.prev = system, prev
        self.eps = DEFAULT_CTAU.epsilon_switch
        self.d2 = system.delta**2
        self.scale = system.kappa / (4.0 * np.pi)  # kappa/2pi times the midpoint's 1/2
        self.held, self.rest = [], system.size
        budget = _HELD_PAIRS
        for i, j in triangle_blocks(system.size):
            if i.size > budget:
                self.rest = int(i[0])
                break
            budget -= i.size
            self.held += _prev_parts(system, prev, i, j, self.eps)

    def _parts(self):
        yield from self.held
        for i, j in triangle_blocks(self.system.size, self.rest):
            yield from _prev_parts(self.system, self.prev, i, j, self.eps)

    def _weights(self, p, r2):
        """c_tau / r2_k of the pairs p at the cand r2."""
        if isinstance(p, _FarPairs):
            c = _far_form(self.system.m, p.r2, r2, self.d2, self.eps)
        else:
            c = _c_tau(self.system.m, p.r2 / self.d2, p.e, p.w, p.band, r2 / self.d2, self.eps)
        return c / p.r2

    def field(self, x, y):
        """f_tau(prev, cand) at the cand positions (x, y): midpoint differences weighted by c_tau / r2_k, each pair scattered to i and j."""
        system, scale = self.system, self.scale
        n = system.size
        xdot = np.zeros(n)
        ydot = np.zeros(n)
        for p, rows, starts in self._parts():
            dx, dy, r2, keep = pair_differences(system, x, y, p.i, p.j)
            if keep is None:
                w = self._weights(p, r2)
            else:  # a pair at zero distance gets no weight, and the segments stay whole
                *kept, r2 = drop_coincident(keep, *p, r2)
                w = np.zeros(keep.size)
                w[keep] = self._weights(type(p)(*kept), r2)
            wx = w * (dx + p.dx)
            wy = w * (dy + p.dy)
            si, sj = scale[p.i], scale[p.j]
            xdot += np.bincount(p.j, wy * si, n)
            xdot[rows] -= np.add.reduceat(wy * sj, starts)
            ydot -= np.bincount(p.j, wx * si, n)
            ydot[rows] += np.add.reduceat(wx * sj, starts)
        return xdot, ydot


def dmm_rhs(system, prev, cand):
    """Discrete right-hand side built from midpoint averages and c_tau.

    The pair weight c_tau / r2^k replaces C(r2)/r2 of the continuous rhs,
    to which this reduces when cand == prev.  Pairs at zero distance on
    either level (coincident zero-strength vortices) get no weight.  The
    one-call form of PrevLevel(system, prev).field(cand).
    """
    return PrevLevel(system, prev).field(cand.x, cand.y)


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
