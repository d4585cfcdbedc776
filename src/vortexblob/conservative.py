"""Discrete vector field of the conservative one-step scheme.

The update is the implicit midpoint-like discretization

    (x^{k+1} - x^k)/tau = f_tau(x^{k+1}, x^k)

where f_tau replaces the continuous cutoff factor C(r^2)/r^2 by a divided
difference of the pair potential between the two time levels, so the
linear impulses, angular impulse, and Hamiltonian of the system are
preserved exactly (up to solver tolerance) on each step.  This module
builds f_tau, its residual, and the discrete multiplier identities behind
the conservation; :func:`vortexblob.integrators.dmm_step` solves the
update.  ``PrevLevel`` builds the prev level once per step, over the
chunked pair triangle i < j of :mod:`vortexblob.model`, which checks for
coincident vortices, in near and far parts (see its docstring).  Each
Picard iterate then forms only the cand level, ``PrevLevel.field(u)`` at
the (2, M) iterate u, and scatters each pair's antisymmetric contribution
to both of its vortices.  ``dmm_rhs`` is the one-call form (build,
evaluate once).  The discrete multiplier is model's ``multiplier`` built
from f_tau.

The divided-difference factor ``c_tau`` is that of the pair potential
V = log xi + W(xi) whose sum is the Hamiltonian, in closed form
(log z + W(xi_k1) - W(xi_k))/(z - 1).  It is singular-looking when the two
pair separations agree; there it takes a truncated Taylor expansion in
z - 1, z the squared-separation ratio, by the one switch that ``c_tau``'s
docstring states with its error balance.  Far pairs take log1p(s)/s, by
the bound that ``_far_threshold`` proves, or log(z)/s where s < -1/2.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import model
from .errors import ConfigurationError, DomainError
from .expint import _horner, exp_integral_e1  # noqa: F401  E1 is unused here, but perfbench/spans.py wraps this name
from .model import (
    ORDER_POLYNOMIALS,
    _check_order,
    _minus_xi,
    _tiles,
    conserved,
    multiplier,
    pair_differences,
    potential_tail,
    triangle_blocks,
)


@dataclass(frozen=True)
class CTauParams:
    """Switch parameter for the divided-difference cutoff factor.

    c_tau takes the Taylor form where |z - 1| clip(xi_k, epsilon_switch, 2)/2
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


def _closed_form(m, w_k, xi_k1, log_z, s):
    """c_tau_closed from w_k = W(xi_k), log z, z = xi_k1/xi_k, and s = z - 1; each level's W forms its own exp(-xi)."""
    return (log_z + potential_tail(m, xi_k1) - w_k) / s


def _band(xi_k):
    """The c_tau switch band clip(xi_k, eps, 2)/2 of the prev-level xi_k, eps = DEFAULT_CTAU.epsilon_switch; c_tau's docstring gives the rule."""
    return np.clip(xi_k, DEFAULT_CTAU.epsilon_switch, 2.0) / 2.0


@np.errstate(over="raise", under="raise")
def _quotient(a, b, name):
    """a / b and whether it underflows; an overflow raises DomainError, "{name} overflows", caught by errstate as model._differences does."""
    try:
        return a / b, False
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            q = a / b
    if np.isinf(q).any():
        raise DomainError(f"{name} overflows")
    return q, True


def _c_tau(m, xi_k, e_k, w_k, band, xi_k1):
    """c_tau on arrays of pairs from the prev-level terms e_k = exp(-xi_k), w_k = W(xi_k) and band = _band(xi_k).

    Taylor where |z - 1| band <= eps = DEFAULT_CTAU.epsilon_switch, read at
    the call, the closed form elsewhere; w_k None computes W(xi_k) from e_k
    where the closed form is taken.  A chunk that mixes the two takes the
    closed form on every pair, with s = 1 at the Taylor pairs so that z = 1
    never divides 0 by 0, and then the Taylor form on the Taylor pairs
    alone, picked by index: that costs less than copying the closed pairs
    out by boolean mask.  A z that overflows raises DomainError; where z
    underflows, log z is taken as log xi_k1 - log xi_k.
    """
    z, tiny = _quotient(xi_k1, xi_k, "the ratio z of the squared distances")
    s = z - 1.0
    near = np.abs(s) * band <= DEFAULT_CTAU.epsilon_switch
    if near.all():
        return _taylor_form(m, xi_k, e_k, s)
    if w_k is None:
        w_k = potential_tail(m, xi_k, e_k)
    log_z = np.log(xi_k1) - np.log(xi_k) if tiny else np.log(np.abs(z))
    if not near.any():
        return _closed_form(m, w_k, xi_k1, log_z, s)
    idx = np.flatnonzero(near)
    s_near = s[idx]
    s[idx] = 1.0
    out = _closed_form(m, w_k, xi_k1, log_z, s)
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


# Far pairs whose s = z - 1 lies below this take log(z)/s, not log1p(s)/s:
# s holds 1 + s only to about eps/(1 + s) relative, to nothing where s
# rounds to -1 (log1p(-1) = -inf), and to 2 eps from here up.
_S_SHRINK = -0.5


def _far_form(m, r2_k, r2_k1, d2):
    """c_tau of pairs from their squared distances r2_k, r2_k1 and d2 = delta^2, on arrays.

    log1p(s)/s with s = (r2_k1 - r2_k)/r2_k formed from the difference, so
    that the log and its divisor see one s, and 1 where s == 0; an s that
    overflows raises DomainError.  Where s < _S_SHRINK, the squared distance
    more than halves, it is the closed form log(z)/s, which takes
    z = r2_k1/r2_k whole, or log z = log r2_k1 - log r2_k where z
    underflows; only a chunk whose smallest s lies there pays for the mask.
    The pairs with either level's xi = r2/d2 at _XI_FAR[m] or below take
    the full _c_tau instead, or where xi_k passes the floats (d2 < 1) the
    closed form with W(xi_k) = 0 and log z = log r2_k1 - log r2_k.
    """
    s, _ = _quotient(r2_k1 - r2_k, r2_k, "the relative change s of a squared distance")
    back = np.flatnonzero(np.minimum(r2_k, r2_k1) <= _XI_FAR[m] * d2)
    s[back] = 0.0  # replaced below
    shrunk = np.flatnonzero(s < _S_SHRINK) if s.min(initial=0.0) < _S_SHRINK else None
    if shrunk is not None:
        s_shrunk = s[shrunk]
        s[shrunk] = 0.0  # replaced below: so log1p never sees an s rounded to -1
    out = np.divide(np.log1p(s), s, out=np.ones_like(s), where=s != 0.0)
    if shrunk is not None:
        a, b = r2_k[shrunk], r2_k1[shrunk]
        z, tiny = _quotient(b, a, "the ratio z of the squared distances")
        out[shrunk] = (np.log(b) - np.log(a) if tiny else np.log(z)) / s_shrunk
    if back.size:
        minus_xi_k, huge = _minus_xi(r2_k[back], d2)
        if huge is not None:  # xi_k past the floats: a stand-in, replaced below
            minus_xi_k[huge] = -1.0
        xi_k, xi_k1 = -minus_xi_k, r2_k1[back] / d2
        out[back] = _c_tau(m, xi_k, np.exp(minus_xi_k), None, _band(xi_k), xi_k1)
        if huge is not None:
            a, b = r2_k[back[huge]], r2_k1[back[huge]]
            out[back[huge]] = _closed_form(m, 0.0, xi_k1[huge], np.log(b) - np.log(a), b / a - 1.0)
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
    return _closed_form(m, potential_tail(m, xi_k), xi_k1, np.log(np.abs(z)), z - 1.0)


def c_tau(m, xi_k, xi_k1):
    """Divided-difference cutoff factor between two time levels (vectorized).

    Requires xi = (r/delta)^2 positive and finite at both levels, as E1
    does, and xi_k1/xi_k finite; raises DomainError otherwise.  With eps =
    DEFAULT_CTAU.epsilon_switch, uses the truncated Taylor expansion when
    |xi_k1/xi_k - 1| clip(xi_k, eps, 2)/2 is at most eps, the closed form
    otherwise.  Below xi_k = 2 the closed form's log z cancels against
    W(xi_k1) - W(xi_k) and loses about u |log xi_k| / (xi_k |z - 1|), u the
    unit roundoff, while the Taylor terms shrink like (xi_k (z - 1))^n; so
    from xi_k = 2 eps to 2 the Taylor form reaches |xi_k1 - xi_k| = 2 eps.
    Below xi_k = 2 eps it stops at |z - 1| = 2, where the rounding of its
    coefficients, about u (z - 1)^2 / xi_k relative, meets the closed
    form's: there |z - 1|^3 = |log xi_k|.  It is PrevLevel's _far_form at
    delta = 1: log1p(s)/s where both levels lie above the order's far
    threshold (_far_threshold bounds what it drops).
    """
    _check_order(m)
    xi_k, xi_k1 = np.broadcast_arrays(np.asarray(xi_k, dtype=float), np.asarray(xi_k1, dtype=float))
    if not all(((0.0 < xi) & (xi < np.inf)).all() for xi in (xi_k, xi_k1)):
        raise DomainError("c_tau requires positive, finite separations at both time levels")
    out = _far_form(m, xi_k.ravel(), xi_k1.ravel(), 1.0)
    return float(out[0]) if xi_k.ndim == 0 else out.reshape(xi_k.shape)


# The two parts of a prev-level chunk: pairs i < j at nonzero distance in
# the triangle's order, so sorted by i, with their differences d = (-dy, dx)
# and r2.  A near pair (xi = r2/delta^2 at most xi_far) also holds e = exp(-xi),
# w = W(xi), the potential_tail, and the c_tau switch band _band(xi);
# a far pair's c_tau needs r2 alone.  Each part ends with its row segments:
# the rows i of its pairs and the index of each row's first pair, what
# np.add.reduceat needs to sum the i-side.  i is None where the part does
# not keep it, and is formed again from the segments.
_NearPairs = namedtuple("_NearPairs", "i j d r2 e w band rows starts")
_FarPairs = namedtuple("_FarPairs", "i j d r2 rows starts")


def _prev_parts(system, prev, keep_i, chunk):
    """The near and far parts of the pairs chunk = (i, j) at the prev level, less those at zero distance.

    A pair at zero distance has xi = 0, so it can only be near, and the
    near part leaves it out.  A part without pairs is left out.  Without
    keep_i a part holds no i.
    """
    i, j = chunk
    d, r2, zero = pair_differences(system, prev.xy, i, j)
    minus_xi, _ = _minus_xi(r2, system.delta**2)  # -inf where xi overflows: far
    far = minus_xi < -_XI_FAR[system.m]
    near = ~far if zero is None else ~(far | zero)
    parts = []
    for kind, idx in ((_NearPairs, np.flatnonzero(near)), (_FarPairs, np.flatnonzero(far))):
        if not idx.size:
            continue
        rows = i[idx]
        cols = [rows if keep_i else None, j[idx], d.take(idx, axis=1), r2[idx]]
        if kind is _NearPairs:
            minus_xi_k = minus_xi[idx]
            e = np.exp(minus_xi_k)
            xi_k = -minus_xi_k
            cols += [e, potential_tail(system.m, xi_k, e), _band(xi_k)]
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        parts.append(kind(*cols, rows[starts], starts))
    return parts


# Most prev-level pairs a PrevLevel holds, at 56 bytes (near) or 32 bytes
# (far) each, as a triangle of more than one chunk holds them: at most
# 224 MB.
_HELD_PAIRS = 4_000_000


class PrevLevel:
    """The prev level of one conservative step, built once and evaluated per iterate.

    Splits each tile-sized chunk of the pair triangle i < j by xi_k against
    the order's far threshold (_far_threshold), less the pairs at zero
    distance; field weights a pair at zero cand distance in place, its
    prev r2 standing in, and then gives it weight 0.  A near pair holds its
    prev-level differences d, as pair_differences turns them, and r2,
    exp(-xi_k), W(xi_k) (model's potential_tail, the pair potential less its
    log) and the c_tau switch band, 64 bytes; xi_k = r2/delta^2 is formed
    again per iterate.  A far pair holds its differences and r2 alone, 40
    bytes, and takes _far_form: log1p(s)/s, with no exp, E1 or band, unless
    its xi_k1 falls to the threshold.  At most _HELD_PAIRS pairs are held,
    which bounds the memory at large M; the chunks past them are rebuilt on
    each evaluation.

    Each part keeps the triangle's order, sorted by i, and holds its row
    segments, found once here: the i-side of the scatter is one
    np.add.reduceat per component (a 64k-pair chunk: 0.25 ns a pair,
    against 3.7 ns for np.bincount over the sorted i, whose adds wait on each
    other), the j-side stays on np.bincount.  The build and each
    evaluation run over model's _tiles, one triangle chunk a tile: a
    triangle of more than one tile runs its chunks on the tile pool, and
    the caller adds their terms in chunk order, the serial sums bit for
    bit.  A part of such a triangle holds no i, 8 bytes a pair less: each
    evaluation forms it from the row segments by np.repeat.  A one-chunk
    triangle keeps it, where forming it took 29% more per evaluation at
    M = 3.
    """

    def __init__(self, system, prev):
        self.system, self.prev = system, prev
        self.d2 = system.delta**2
        self.scale = system.kappa / (4.0 * np.pi)  # kappa/2pi times the midpoint's 1/2
        self.n = n = system.size
        self.pairs = n * (n - 1) // 2
        self.held, self.rest = [], n
        keep_i = self.pairs <= model._TILE  # one chunk: i costs little to keep, and more to form
        _tiles(lambda chunk: _prev_parts(system, prev, keep_i, chunk), self._within_budget(), self.pairs,
               self.held.append)

    def _within_budget(self):
        """The triangle's chunks up to _HELD_PAIRS pairs in all; rest is set to the first row past them."""
        budget = _HELD_PAIRS
        for chunk in triangle_blocks(self.n):
            if chunk[0].size > budget:
                self.rest = int(chunk[0][0])
                return
            budget -= chunk[0].size
            yield chunk

    def _terms(self, u, item):
        """The field terms at u of item, the held parts of a triangle chunk or a chunk (i, j) whose parts are built here.

        One (rows, j_x, i_x, j_y, i_y) per part: per component, its j-side
        np.bincount over all M vortices and its i-side np.add.reduceat per
        row segment.
        """
        system, n = self.system, self.n
        terms = []
        for p in item if isinstance(item, list) else _prev_parts(system, self.prev, True, item):
            i = p.i if p.i is not None else np.repeat(p.rows, np.diff(p.starts, append=p.j.size))
            d, r2, zero = pair_differences(system, u, i, p.j)
            if zero is not None:  # the prev r2 stands in at zero cand distance
                r2 = np.where(zero, p.r2, r2)
            if isinstance(p, _FarPairs):
                w = _far_form(system.m, p.r2, r2, self.d2)
            else:
                w = _c_tau(system.m, p.r2 / self.d2, p.e, p.w, p.band, _quotient(r2, self.d2, "the cand xi = r2/d2")[0])
            w /= p.r2
            if zero is not None:
                w[zero] = 0.0
            d += p.d  # the midpoint differences, weighted in place: d is this call's own
            d *= w
            si, sj = self.scale[i], self.scale[p.j]
            x, y = d[0], d[1]  # indexed: unpacking an array by iteration costs about 0.6 us
            terms.append((p.rows, np.bincount(p.j, x * si, n), np.add.reduceat(x * sj, p.starts),
                          np.bincount(p.j, y * si, n), np.add.reduceat(y * sj, p.starts)))
        return terms

    def field(self, u):
        """f_tau(prev, cand) at the cand positions u, a (2, M) array: midpoint differences weighted by c_tau / r2_k, each pair scattered to i and j.

        Returns the (2, M) array (xdot, ydot), as rhs does.
        """
        n = self.n
        out = np.zeros((2, n))

        def combine(terms):
            x, y = out[0], out[1]
            for rows, j_x, i_x, j_y, i_y in terms:
                x -= j_x
                x[rows] += i_x
                y -= j_y
                y[rows] += i_y

        items = self.held if self.rest == n else itertools.chain(self.held, triangle_blocks(n, self.rest))
        _tiles(lambda item: self._terms(u, item), items, self.pairs, combine)
        return out


def dmm_rhs(system, prev, cand):
    """Discrete right-hand side built from midpoint averages and c_tau.

    The pair weight c_tau / r2^k replaces C(r2)/r2 of the continuous rhs,
    to which this reduces when cand == prev.  Pairs at zero distance on
    either level (coincident zero-strength vortices) get no weight.  The
    one-call form of PrevLevel(system, prev).field(cand.xy).
    """
    return PrevLevel(system, prev).field(cand.xy)


def dmm_residual(system, prev, cand, tau):
    """Residual of the conservative update, (cand - prev)/tau - f_tau, as a (2, M) array that unpacks as (rx, ry)."""
    if tau == 0.0:
        raise ConfigurationError("tau must be nonzero")
    return (cand.xy - prev.xy) / tau - dmm_rhs(system, prev, cand)


def discrete_multiplier_residuals(system, prev, cand, tau):
    """Max-norm residuals of the two discrete multiplier identities.

    The discrete multiplier Lambda_tau is built from f_tau at the midpoint
    of the two levels, as the continuous one is built from the ODE field at
    the state.  res1: Lambda_tau (cand - prev)/tau vs the divided difference
    of the conserved quantities; res2: Lambda_tau f_tau.  Both vanish
    identically for arbitrary state pairs, not just scheme solutions.
    """
    f = dmm_rhs(system, prev, cand)
    lam = multiplier(system.kappa, 0.5 * (cand.xy + prev.xy), f)
    dx = (cand.xy - prev.xy).ravel() / tau
    psi_prev = conserved(system, prev).as_array()
    psi_cand = conserved(system, cand).as_array()
    res1 = float(np.abs(lam @ dx - (psi_cand - psi_prev) / tau).max())
    res2 = float(np.abs(lam @ f.ravel()).max())
    return res1, res2
