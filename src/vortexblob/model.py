"""Planar vortex-blob system: kernels, dynamics, and conserved quantities.

A system of M vortices with strengths ``kappa_i = omega_i * h**2`` induces
the velocity field

    v(z) = sum_j kappa_j * K(z - z_j) * C(|z - z_j|^2)

where K is the point-vortex kernel and ``C(r2) = 1 - Q(r2/delta^2) *
exp(-r2/delta^2)`` is the smoothing cutoff of order m in {2, 4, 6}.
The flow conserves the linear impulses, the angular impulse, and a
Hamiltonian built from log and exponential-integral terms.

Every O(M^2) sum of the package runs over one of three traversals here,
each of which touches at most ``_TILE`` pair entries at a time, so its
temporaries stay cache-sized.  ``pair_blocks`` without points yields the
band of the vortex-vortex matrix for ``rhs``: chunks of ``_BAND_ROWS``
rows, each against the columns from its first vortex on, so each pair's
cutoff is formed once (twice inside a chunk) and serves both of its
vortices.  ``pair_blocks`` with points yields points x vortices for the
fields ``velocity_field`` and ``blob_vorticity``.  The chunked vortex-pair
triangle i < j, ``triangle_blocks`` with ``pair_differences``, serves every
sum over pairs (the Hamiltonian in ``conserved`` and the conservative
scheme's f_tau), each of which leaves out the zero-distance pairs of a
zero-strength vortex by ``drop_coincident``.  The band and the triangle
raise PairDegeneracyError on coincident strength-bearing vortices, and
DomainError where a squared distance overflows.  The multiplier of the
conservation laws is built from a vector field by ``multiplier``.  Every per-order polynomial is evaluated by
:func:`vortexblob.expint._horner`, the package's one Horner, which E1's
table also uses.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, PairDegeneracyError
from .expint import _horner, exp_integral_e1


class OrderPolynomials(NamedTuple):
    """Coefficients, in increasing degree, of one blob order's polynomials."""

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
# exp(-708) = 3.3e-308 is still a normal double; from about -708.4 down np.exp
# returns subnormals, then 0, on a slow path.
_EXP_NORMAL_MIN = -708.0


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
    evaluated without cancellation, and the first tends to 1 at xi = 0,
    which the entries r2 = 0 take.
    """
    _check_order(m)
    r2 = np.asarray(r2, dtype=float)
    flat = r2.reshape(-1)
    out = _cutoff_over_r2(m, flat, delta, flat == 0.0)
    return float(out[0]) if r2.ndim == 0 else out.reshape(r2.shape)


def _cutoff_over_r2(m, r2, delta, zero):
    """cutoff_over_r2 of a C-contiguous float array r2 whose zero entries are
    at the index zero of its flat form (a slice or a mask), or nowhere where
    zero is None.

    The zero entries take a placeholder xi, so that the first term's
    division needs no mask, and then its limit 1: on a 64 x 316 band block
    of the 316-vortex grid the division took 33 us with the mask where=xi > 0
    and 15 us without.  Past xi = 708 the second term is below half an ulp
    of the first, so a block that reaches there, found by one min, takes it
    as 0 on those entries: the same bits, while np.exp, whose result is
    subnormal or 0 there, costs 15-120 ns an element against about 1 ns
    below.  Blocks that stay below 708 keep the plain call, which costs half
    the masked one.
    """
    minus_xi = r2 / -(delta**2)
    s = _CUTOFF_S[m]
    if s:
        if minus_xi.size and minus_xi.min() < _EXP_NORMAL_MIN:
            e = np.exp(minus_xi, where=minus_xi >= _EXP_NORMAL_MIN, out=np.zeros_like(minus_xi))
        else:
            e = np.exp(minus_xi)
        tail = _horner(-minus_xi, s) * e
    if zero is not None:
        minus_xi.reshape(-1)[zero] = -1.0
    out = np.expm1(minus_xi)
    out /= minus_xi
    if zero is not None:
        out.reshape(-1)[zero] = 1.0
    if s:
        out += tail
    out /= delta**2
    return out


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
    """Vortex positions at one instant.

    Every State validates its positions when it is built: two 1-d float
    arrays of equal length, all finite.  A step builds one, the state it
    returns; its stages and iterates stay (2, M) arrays that the step has
    checked itself, and reach ``rhs`` as they are.
    """

    x: np.ndarray
    y: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ConfigurationError("x and y must be 1-d arrays of equal length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
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
# Rows per chunk of the band: a chunk of B rows also forms the B(B - 1)/2
# pairs of its own square twice, while fewer rows pay more per-block calls.
# It is fixed, not set by _TILE, so that each vortex's sum keeps its order.
# Single-threaded on a shared 2-CPU Xeon, chunks of 32 / 64 / 128 rows took
# 0.84 / 0.80 / 0.90 ms an rhs at M = 316 and 4.8 / 4.9 / 5.2 ms at M = 812.
_BAND_ROWS = 64


@functools.cache
def _grow_heap():
    """Allocate and free one 8 MiB block, once, before the first pair traversal.

    glibc serves a block this large by mmap, and freeing it raises the mmap
    threshold to its size and the trim threshold to twice that; from then on
    every tile temporary (at most 512 KiB) and every part a conservative step
    holds comes from a heap that stays grown, instead of being trimmed and
    page-faulted in again on each call.  Other allocators do not react.
    """
    np.empty(1 << 20)


# Both overflow checks take np.errstate as a decorator: that costs about 1 us
# less a call than the with statement, which builds the context object and
# calls its enter and exit methods, and at M = 3 each iterate forms one block.
@np.errstate(over="raise")
def _differences(p, q):
    """d = p - q and r2, the sum of d * d over the leading axis; an overflow raises FloatingPointError."""
    d = p - q
    dd = d * d
    return d, dd[0] + dd[1]


def pair_blocks(system, state, points=None):
    """The one traversal of pair differences by row blocks: yield (rows, d, r2, zero).

    state is a State or the positions (x, y) as rhs takes them.

    d = (-dy, dx) stacks the differences (dx, dy) of the block's points
    from its vortices turned a quarter turn, the direction of the kernel K,
    and r2 is their squared distances, (2, block, cols) and (block, cols)
    arrays of at most _TILE entries a plane, or one row if it holds more.
    zero indexes the entries r2 = 0 of r2's flat form, as _cutoff_over_r2
    takes it: a slice, a mask, or None where there are none.
    With points (px, py), the points against every vortex.  Without points,
    the band of the vortex-vortex matrix: the rows fall in chunks of
    _BAND_ROWS vortices (all of them if fewer), and a block, rows =
    slice(a, b) of the chunk that starts at vortex c, runs against the
    columns [c, M), so its entries [k, a - c + k] are the diagonal, r2 = 0,
    the flat slice from a - c by steps of M - c + 1.
    A strength-bearing pair at zero distance raises PairDegeneracyError,
    and an r2 that overflows raises DomainError.
    """
    _grow_heap()
    n = system.size
    x, y = (state.x, state.y) if isinstance(state, State) else state
    xy = np.array((-y, x))
    if points is not None:
        pxy = np.array((-points[1], points[0]))
        step = max(1, _TILE // max(1, n))
        for start in range(0, pxy.shape[1], step):
            sl = slice(start, min(start + step, pxy.shape[1]))
            d = pxy[:, sl, None] - xy[:, None, :]
            dd = d * d
            r2 = dd[0] + dd[1]
            yield sl, d, r2, None if np.count_nonzero(r2) == r2.size else (r2 == 0.0).reshape(-1)
        return
    width = min(_BAND_ROWS, n) or 1
    step = max(1, min(_BAND_ROWS, _TILE // max(1, n)))
    for c in range(0, n, width):
        for a in range(c, min(c + width, n), step):
            b = min(a + step, c + width, n)
            try:
                d, r2 = _differences(xy[:, a:b, None], xy[:, None, c:])
            except FloatingPointError:
                raise DomainError(f"the squared distances of vortices {a}-{b - 1} overflow") from None
            zero = slice(a - c, None, n - c + 1)  # the diagonal
            if r2.size - np.count_nonzero(r2) > b - a:  # a zero off the diagonal
                live = system.kappa != 0.0
                bad = (r2 == 0.0) & live[a:b, None] & live[None, c:]
                bad.reshape(-1)[zero] = False
                if bad.any():
                    bi, bj = np.argwhere(bad)[0]
                    raise PairDegeneracyError(a + bi, c + bj)
                zero = (r2 == 0.0).reshape(-1)
            yield slice(a, b), d, r2, zero


def triangle_blocks(n, start=0):
    """The pair triangle i < j of n points, rows from start on: yield (i, j) index arrays.

    A chunk covers whole rows and at most _TILE pairs, or one row if that
    row alone holds more.
    """
    _grow_heap()
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


@np.errstate(over="raise")
def pair_differences(system, x, y, i, j):
    """dx, dy, r2 and keep of the vortex pairs (i, j) at positions (x, y), the triangle's counterpart of pair_blocks.

    keep is None when no pair is at zero distance, else the mask r2 > 0 of
    the pairs that drop_coincident keeps.  A strength-bearing pair at zero
    distance raises PairDegeneracyError, and an r2 that overflows raises
    DomainError naming the first such pair.
    """
    try:
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        r2 = dx * dx + dy * dy
    except FloatingPointError:
        with np.errstate(over="ignore"):
            k = np.flatnonzero(~np.isfinite(np.square(x[i] - x[j]) + np.square(y[i] - y[j])))[0]
        raise DomainError(f"the squared distance of vortices {i[k]} and {j[k]} overflows") from None
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


def rhs(system, state):
    """Right-hand side of the vortex-blob ODEs.

    state is a State, or the positions (x, y) as a (2, M) array or a pair
    of arrays, which a step passes unchecked for its stages and iterates.
    Returns the (2, M) array (xdot, ydot), which unpacks as its two rows:
    sum_j s_j w_ij (-dy_ij, dx_ij), with pair weight w = C(r2)/r2 and
    s = kappa / (2 pi).  Over the band, vortex i takes the pairs of the
    columns from its chunk's first vortex on by its row, summed pairwise;
    the weight is symmetric and dx, dy antisymmetric, so the same entries
    serve the vortices past the chunk by their columns, summed in row
    order and chunk by chunk.  Each vortex's terms so meet in an order
    the block size does not change.  C(r^2)/r^2 is finite through r = 0, so
    the velocities are finite and smooth for close (zero-strength) pairs;
    the self-term vanishes because dx = dy = 0 on the diagonal.
    """
    n = system.size
    s = system.kappa / (2.0 * np.pi)
    vel = np.empty((2, n))
    # sum over j in the chunks before i's of s_j w_ji (-dy_ji, dx_ji)
    cols = np.zeros((2, n)) if n > _BAND_ROWS else None
    for sl, d, r2, zero in pair_blocks(system, state):
        a, b = sl.start, sl.stop
        c = n - r2.shape[1]
        w = _cutoff_over_r2(system.m, r2, system.delta, zero)
        np.add.reduce((w * s[c:]) * d, axis=2, out=vel[:, sl])
        if c:  # the chunks before this one are done
            vel[:, sl] -= cols[:, sl]
        if c + _BAND_ROWS < n:  # the columns past the chunk take these pairs too
            # the chunk's sums so far, then the block's rows, stacked first:
            # numpy sums along a leading axis in order, so each column's sum
            # keeps its order whatever the block size
            terms = np.empty((1 + b - a, 2, n - c - _BAND_ROWS))
            terms[0] = part if a > c else 0.0
            ws = w[:, _BAND_ROWS:] * s[sl, None]
            np.multiply(ws[:, None], d[:, :, _BAND_ROWS:].transpose(1, 0, 2), out=terms[1:])
            part = np.add.reduce(terms)
            if b == c + _BAND_ROWS:
                cols[:, b:] += part
    return vel


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
    out = np.empty((points[0].size, 2))
    scale = system.kappa / (2.0 * np.pi)
    for sl, d, r2, zero in pair_blocks(system, state, points):
        w = _cutoff_over_r2(system.m, r2, system.delta, zero) * scale[None, :]
        out[sl] = np.add.reduce(w * d, axis=2).T
    return out[0] if single else out


def blob_vorticity(system, state, z):
    """Smoothed vorticity field at evaluation points z."""
    single, points = _points(z)
    out = np.empty(points[0].size)
    for sl, _, r2, _ in pair_blocks(system, state, points):
        xi = r2 / system.delta**2
        zeta = p_polynomial(system.m, xi) * np.exp(-xi) / system.delta**2
        out[sl] = (zeta * system.kappa[None, :]).sum(axis=1)
    return float(out[0]) if single else out


def potential_tail(m, xi, e=None):
    """W(xi) = E1(xi) + R(xi) exp(-xi), the pair potential less its log: V = log r2 + W(r2/delta^2).

    e is exp(-xi) where the caller already holds it; it is formed here otherwise.
    """
    w = exp_integral_e1(xi)
    r = ORDER_POLYNOMIALS[m].r
    if r:
        w = w + _horner(xi, r) * (np.exp(-xi) if e is None else e)
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
    if not isinstance(cells_per_side, numbers.Integral) or cells_per_side < 1:
        raise ConfigurationError(f"cells_per_side must be an integer >= 1, got {cells_per_side!r}")
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
