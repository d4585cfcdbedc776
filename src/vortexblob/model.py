"""Planar vortex-blob system: kernels, dynamics, and conserved quantities.

A system of M vortices with strengths ``kappa_i = omega_i * h**2`` induces
the velocity field

    v(z) = sum_j kappa_j * K(z - z_j) * C(|z - z_j|^2)

where K is the point-vortex kernel and ``C(r2) = 1 - Q(r2/delta^2) *
exp(-r2/delta^2)`` is the smoothing cutoff of order m in {2, 4, 6}.
The flow conserves the linear impulses, the angular impulse, and a
Hamiltonian built from log and exponential-integral terms.  A ``State``
holds the positions as one (2, M) array, and every layer takes them so.

Every O(M^2) sum of the package runs over one of three traversals here,
each of which touches at most ``_TILE`` pair entries at a time, so its
temporaries stay cache-sized.  ``rhs`` runs over the band of the
vortex-vortex matrix, ``_band_chunk`` by ``_band_chunk``: chunks of
``_BAND_ROWS`` rows, each against the columns from its first vortex on, so
each pair's cutoff is formed once (twice inside a chunk) and serves both of
its vortices.  ``_point_blocks`` runs points x vortices for the fields
``velocity_field`` and ``blob_vorticity``.  The chunked vortex-pair
triangle i < j, ``triangle_blocks`` with ``pair_differences``, serves every
sum over pairs (the Hamiltonian in ``conserved`` and the conservative
scheme's f_tau), each of which leaves out the zero-distance pairs of a
zero-strength vortex by the mask ``zero`` of ``pair_differences``.  The
three share one kernel of each pair mechanism: ``_differences`` forms
every difference, of positions turned a quarter turn, and r2, and raises
DomainError naming the pair whose r2 overflows; ``_zeros`` raises
PairDegeneracyError on coincident strength-bearing vortices in the band
and the triangle; ``_times_exp`` takes the e^-xi terms as 0 past
xi = 708.  ``_tiles`` is the one dispatch of their tiles: a traversal of
more than ``_TILE`` pair entries in total runs them on the caller's thread
and a pool of ``_WORKERS`` - 1 threads, one per further CPU the process may
run on, and the caller combines the tiles' terms in tile order, so every
result has the same bits for any CPU count; a smaller one runs in the
caller's thread and makes no pool.  The multiplier of the conservation
laws is built from a vector field by ``multiplier``.  Every per-order
polynomial is evaluated by :func:`vortexblob.expint._horner`, the
package's one Horner, which E1's table also uses.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
import os
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


def _times_exp(coef, minus_xi):
    """The polynomial coef at xi times exp(-xi), from the float array minus_xi = -xi, taken as 0 past xi = 708.

    There it is below half an ulp of any term of order 1.  Only a block that
    reaches there, found by one min, pays for the mask, which costs as much
    as the product, and forms there neither the polynomial (at m = 6 it
    overflows from xi ~ 1e154 on) nor np.exp's subnormals (15-120 ns each).
    """
    if minus_xi.min(initial=0.0) >= _EXP_NORMAL_MIN:
        return _horner(-minus_xi, coef) * np.exp(minus_xi)
    far = minus_xi < _EXP_NORMAL_MIN
    minus_xi = np.where(far, 0.0, minus_xi)
    return np.where(far, 0.0, _horner(-minus_xi, coef) * np.exp(minus_xi))


def cutoff(m, r2, delta):
    """Smoothing cutoff C(r2) = 1 - Q(r2/delta^2) exp(-r2/delta^2).

    Vanishes at r2 = 0 and tends to 1 as r2/delta^2 grows; it is 1 past
    r2/delta^2 = 708, where Q exp(-xi) is below half an ulp of 1.
    """
    _check_order(m)
    return 1.0 - _times_exp(ORDER_POLYNOMIALS[m].q, np.asarray(r2, dtype=float) / -(delta**2))


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
    and 15 us without.  The second term is _times_exp's, 0 past xi = 708,
    where it is below half an ulp of the first.
    """
    minus_xi = r2 / -(delta**2)
    s = _CUTOFF_S[m]
    tail = _times_exp(s, minus_xi) if s else None
    if zero is not None:
        minus_xi.reshape(-1)[zero] = -1.0
    out = np.expm1(minus_xi)
    out /= minus_xi
    if zero is not None:
        out.reshape(-1)[zero] = 1.0
    if tail is not None:
        out += tail
    out /= delta**2
    return out


@dataclass(frozen=True)
class BlobSystem:
    """Static problem data for one vortex-blob system; h, delta and the float delta * delta are positive and finite."""

    m: int
    h: float
    delta: float
    kappa: np.ndarray

    def __post_init__(self):
        _check_order(self.m)
        if not all(0.0 < v < math.inf for v in (self.h, self.delta, float(self.delta) * float(self.delta))):
            raise ConfigurationError(f"h, delta, delta**2 must be positive and finite: h={self.h}, delta={self.delta}")
        kappa = np.asarray(self.kappa, dtype=float)
        if kappa.ndim != 1 or not np.all(np.isfinite(kappa)):
            raise ConfigurationError("vortex strengths must be a finite 1-d array")
        object.__setattr__(self, "kappa", kappa)

    @property
    def size(self):
        return self.kappa.size


@dataclass(frozen=True, init=False)
class State:
    """Vortex positions at one instant: the (2, M) float array xy, whose rows are x and y.

    Every State checks that its positions are finite when it is built, by
    State(x=..., y=..., t=...) from two 1-d arrays of equal length or by
    from_xy.  A step builds one, the state it returns; its stages and
    iterates stay (2, M) arrays that the step has checked itself.
    """

    xy: np.ndarray
    t: float = 0.0

    def __init__(self, x, y, t=0.0):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ConfigurationError("x and y must be 1-d arrays of equal length")
        object.__setattr__(self, "xy", np.array((x, y)))
        object.__setattr__(self, "t", t)
        self.__post_init__()

    @classmethod
    def from_xy(cls, xy, t=0.0):
        """The State of the positions xy, a (2, M) float array, held without a copy."""
        state = cls.__new__(cls)
        object.__setattr__(state, "xy", np.asarray(xy, dtype=float))
        object.__setattr__(state, "t", t)
        state.__post_init__()
        return state

    def __post_init__(self):
        if self.xy.ndim != 2 or self.xy.shape[0] != 2:
            raise ConfigurationError(f"positions must have shape (2, M), got {self.xy.shape}")
        if not np.isfinite(self.xy).all():
            raise ConfigurationError("positions must be finite")

    x = property(lambda self: self.xy[0], doc="The first row of xy.")
    y = property(lambda self: self.xy[1], doc="The second row of xy.")


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


# CPUs this process may run on, which taskset limits: a traversal of more
# than _TILE pair entries runs its tiles on this many threads, the caller's
# among them.  Tests set it to check that no result depends on it.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOLS = {}  # thread pools by size, made on first use


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's pool threads
    os.register_at_fork(after_in_child=lambda: _POOLS.clear())


def _current_cpu():
    """The CPU the calling thread last ran on, read from Linux's /proc, or None."""
    try:
        with open("/proc/thread-self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _place(cpus):
    """Pool thread initializer: run the new thread on the next CPU of the iterator cpus, then allow every CPU again.

    A new thread starts on its creator's CPU, and where the kernel does not
    balance load across the CPUs of a cpuset (sched_load_balance = 0, as on
    some container hosts) it never leaves it.  On a 2-CPU Xeon host so set
    up, two threads of numpy ufunc work took 1.0 times (0.76-1.17, 10 runs)
    as long as one thread doing both, and 0.67 times (0.46-0.96) once one of
    them was moved.  Elsewhere the scheduler moves the thread as it would
    any other.
    """
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {next(cpus)})
        os.sched_setaffinity(0, allowed)
    except OSError:  # the CPU left the allowed set meanwhile: the thread stays where it is
        pass


def _pool(size):
    """The pool of size threads, made on first use, each placed on a CPU other than the caller's where it can be."""
    pool = _POOLS.get(size)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor

        place = ()
        if hasattr(os, "sched_setaffinity"):
            allowed = os.sched_getaffinity(0)
            place = (_place, (itertools.cycle(sorted(allowed - {_current_cpu()}) or allowed),))
        pool = _POOLS.setdefault(size, ThreadPoolExecutor(size, "vortexblob-tiles", *place))
    return pool


def _tiles(work, items, entries, combine=None):
    """combine(work(item)) for each item in order, or work(item) alone where combine is None: the one dispatch of a pair traversal.

    A traversal of at most _TILE pair entries in total, or one on a single
    CPU, runs in the caller's thread, and no pool is made.  Otherwise the
    caller's thread and a pool of _WORKERS - 1 threads share the tiles.
    items, which holds no None, is drawn lazily: at most two items per pool
    thread wait or run there, each in a copy of the caller's contextvars
    context, so that its np.errstate holds there, and the caller runs the
    next item itself whenever the first result in order is not in, at most
    4 _WORKERS results ahead.  combine runs in the caller's thread in item
    order, so every sum meets its terms in the serial order.  The first
    item in order whose work raises raises here, and only once no tile of
    the call still runs.
    """
    _grow_heap()
    if entries <= _TILE or _WORKERS < 2:
        for item in items:
            result = work(item)
            if combine is not None:
                combine(result)
        return
    import contextvars
    from concurrent.futures import Future, wait

    size = _WORKERS - 1
    pool = _pool(size)
    items, queue = iter(items), collections.deque()  # queue: the futures of the items drawn, in order
    item = next(items, None)
    try:
        while queue or item is not None:
            if item is not None and len(queue) < 4 * _WORKERS:
                if sum(not f.done() for f in queue) < 2 * size:  # the caller's own are done
                    queue.append(pool.submit(contextvars.copy_context().run, work, item))
                    item = next(items, None)
                    continue
                if not queue[0].done():  # run one here rather than wait
                    own = Future()
                    try:
                        own.set_result(work(item))
                    except Exception as exc:  # it raises in its place in the order; no later item is needed
                        own.set_exception(exc)
                        item = None
                    else:
                        item = next(items, None)
                    queue.append(own)
                    continue
            result = queue.popleft().result()
            if combine is not None:
                combine(result)
    finally:
        for f in queue:
            f.cancel()
        wait(queue)


# np.errstate as a decorator costs about 1 us a call less than the with statement,
# which builds the context object and calls its enter and exit methods, and at
# M = 3 each iterate forms one block.  On a 64k-pair chunk each fresh 2 x 64k
# temporary costs about 10%, so r2 is summed into d * d's first plane.
@np.errstate(over="raise")
def _differences(p, q, pair, names="vortices {} and {}", out=None):
    """d = p - q, into out if given, and r2, the sum of d * d over the leading axis: the one place r2 is formed.

    pair = (i, j) indexes r2's axes, r2[k] the pair (i[k], j[k]) and r2[a, b] the pair (i[a], j[b]); an
    r2 that overflows raises DomainError naming its first such pair by names.
    """
    try:
        d = np.subtract(p, q, out=out)
        dd = d * d
        r2 = dd[0]
        r2 += dd[1]
        return d, r2
    except FloatingPointError:  # numpy writes a ufunc's whole output before it raises, so out holds d
        with np.errstate(over="ignore"):
            r2 = np.square(p - q if out is None else out).sum(axis=0)
    k = np.unravel_index(np.flatnonzero(~np.isfinite(r2))[0], r2.shape)
    raise DomainError(f"the squared distance of {names.format(pair[0][k[0]], pair[1][k[-1]])} overflows")


def _zeros(system, r2, i, j):
    """The mask r2 == 0 of the pairs (i, j), index arrays that broadcast to r2; coincident strength-bearing i != j raise."""
    zero, live = r2 == 0.0, system.kappa != 0.0
    bad = np.flatnonzero(zero & live[i] & live[j] & (i != j))
    if bad.size:
        i, j = np.broadcast_arrays(i, j)
        raise PairDegeneracyError(i.flat[bad[0]], j.flat[bad[0]])
    return zero


def _turned(state):
    """The positions of state, a State or its (2, M) array, turned a quarter turn: (-y, x), the direction of the kernel K."""
    xy = getattr(state, "xy", state)
    return np.array((-xy[1], xy[0]))


def _band_entries(n):
    """Pair entries of the band of n vortices, as _band_chunk forms them."""
    if n <= _BAND_ROWS:
        return n * n
    return sum(min(_BAND_ROWS, n - c) * (n - c) for c in range(0, n, _BAND_ROWS))


def _band_chunk(system, s, xy, vel, c):
    """One chunk of rhs's band, the _BAND_ROWS vortices from c on (all of them if fewer): (c, part).

    xy is _turned's positions and s = kappa/2pi.  The chunk's rows run
    against the columns [c, M) in blocks of at most _TILE entries (or one
    row if it holds more): d = (-dy, dx), the differences of a block's rows
    from its columns turned a quarter turn, the direction of the kernel K,
    and r2 their squared distances, whose entries [k, a - c + k] are the
    diagonal, r2 = 0, the flat slice from a - c by steps of M - c + 1 for
    the block of rows a, ... .  Each row's sum over its columns goes to
    vel; part is the sum of the chunk's rows' terms of each column past
    the chunk, in row order, or None where no column is past it.  A
    strength-bearing pair at zero distance raises PairDegeneracyError, and
    an r2 that overflows raises DomainError naming the pair.
    """
    n = system.size
    end = min(c + _BAND_ROWS, n)
    step = max(1, min(_BAND_ROWS, _TILE // n))
    part = None
    for a in range(c, end, step):
        b = min(a + step, end)
        d, r2 = _differences(xy[:, a:b, None], xy[:, None, c:], (range(a, b), range(c, n)))
        zero = slice(a - c, None, n - c + 1)  # the diagonal
        if r2.size - np.count_nonzero(r2) > b - a:  # a zero off the diagonal
            zero = _zeros(system, r2, np.arange(a, b)[:, None], np.arange(c, n)).reshape(-1)
        w = _cutoff_over_r2(system.m, r2, system.delta, zero)
        np.add.reduce((w * s[c:]) * d, axis=2, out=vel[:, a:b])
        if end < n:  # the columns past the chunk take these pairs too
            # the chunk's sums so far, then the block's rows, stacked first:
            # numpy sums along a leading axis in order, so each column's sum
            # keeps its order whatever the block size
            terms = np.empty((1 + b - a, 2, n - end))
            terms[0] = 0.0 if part is None else part
            ws = w[:, _BAND_ROWS:] * s[a:b, None]
            np.multiply(ws[:, None], d[:, :, _BAND_ROWS:].transpose(1, 0, 2), out=terms[1:])
            part = np.add.reduce(terms)
    return c, part


def _point_blocks(system, state, points, tile):
    """tile(rows, d, r2, zero) on each block of the points, a (2, N) array, against every vortex.

    d and r2 are the turned differences and squared distances of the
    points rows = slice(a, b) from the vortices, as _band_chunk forms them,
    (2, b - a, M) and (b - a, M) arrays of at most _TILE entries a plane,
    or one row if it holds more; zero indexes the entries r2 = 0 of r2's
    flat form, as _cutoff_over_r2 takes it, or is None where there are
    none.  An r2 that overflows raises DomainError naming the point and
    the vortex.
    """
    n, xy = system.size, _turned(state)
    pxy = np.array((-points[1], points[0]))
    size = pxy.shape[1]
    step = max(1, _TILE // max(1, n))

    def block(a):
        rows = slice(a, min(a + step, size))
        d, r2 = _differences(pxy[:, rows, None], xy[:, None, :], (range(a, rows.stop), range(n)),
                             "point {} and vortex {}")
        tile(rows, d, r2, None if np.count_nonzero(r2) == r2.size else (r2 == 0.0).reshape(-1))

    _tiles(block, range(0, size, step), size * n)


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


def pair_differences(system, xy, i, j):
    """d, r2 and zero of the vortex pairs (i, j) at the positions xy, a (2, M) array: the triangle's counterpart of _band_chunk's blocks.

    d = (-dy, dx) and r2 are (2, P) and (P,) arrays, as _band_chunk forms
    them, and zero is None or the mask r2 == 0 of the pairs every pair sum
    leaves out: a zero-strength vortex's pairs there carry no energy and no
    weight.  A strength-bearing pair at zero distance raises
    PairDegeneracyError, and an r2 that overflows DomainError.
    """
    xy = np.array((-xy[1], xy[0]))  # turned as _turned turns them
    p = xy.take(i, axis=1)
    d, r2 = _differences(p, xy.take(j, axis=1), (i, j), out=p)
    return d, r2, None if r2.all() else _zeros(system, r2, i, j)


def rhs(system, state):
    """Right-hand side of the vortex-blob ODEs.

    state is a State, or its positions as a (2, M) array, which a step
    passes unchecked for its stages and iterates.  Returns the (2, M)
    array (xdot, ydot), which unpacks as its two rows:
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
    vel = np.empty((2, n))
    # sum over j in the chunks before i's of s_j w_ji (-dy_ji, dx_ji)
    cols = np.zeros((2, n)) if n > _BAND_ROWS else None

    def combine(chunk):
        c, part = chunk
        if c:  # the chunks before this one are done
            vel[:, c:c + _BAND_ROWS] -= cols[:, c:c + _BAND_ROWS]
        if part is not None:
            cols[:, c + _BAND_ROWS:] += part

    work = functools.partial(_band_chunk, system, system.kappa / (2.0 * np.pi), _turned(state), vel)
    _tiles(work, range(0, n, _BAND_ROWS), _band_entries(n), combine)
    return vel


def _points(z):
    """(single, points as a (2, N) array) for one finite point (2,) or an array of them (N, 2); anything else raises ConfigurationError."""
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != 2 or not np.isfinite(z).all():
        raise ConfigurationError(f"evaluation points must be finite, of shape (2,) or (N, 2), got {z.shape}")
    return z.ndim == 1, z.reshape(-1, 2).T


def velocity_field(system, state, z):
    """Smoothed velocity field at evaluation points z.

    z may be a single point (2,) or an array of points (N, 2); the result
    has the same leading shape.
    """
    single, points = _points(z)
    out = np.empty((points.shape[1], 2))
    scale = system.kappa / (2.0 * np.pi)

    def tile(rows, d, r2, zero):
        w = _cutoff_over_r2(system.m, r2, system.delta, zero) * scale[None, :]
        out[rows] = np.add.reduce(w * d, axis=2).T

    _point_blocks(system, state, points, tile)
    return out[0] if single else out


def blob_vorticity(system, state, z):
    """Smoothed vorticity field at evaluation points z."""
    single, points = _points(z)
    out = np.empty(points.shape[1])

    def tile(rows, d, r2, zero):
        zeta = _times_exp(ORDER_POLYNOMIALS[system.m].p, r2 / -(system.delta**2)) / system.delta**2
        out[rows] = (zeta * system.kappa[None, :]).sum(axis=1)

    _point_blocks(system, state, points, tile)
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


@np.errstate(over="ignore", invalid="ignore")
def conserved(system, state):
    """Circulation, linear impulses, angular impulse, and Hamiltonian.

    Raises DomainError if any of them is not finite (an overflow of the
    strengths' products or of the positions); every sum is formed with
    overflow and invalid values ignored, so that no RuntimeWarning comes
    first.
    """
    kappa, n = system.kappa, system.size

    def tile(chunk):
        i, j = chunk
        _, r2, zero = pair_differences(system, state.xy, i, j)
        if zero is not None:
            i, j, r2 = i[~zero], j[~zero], r2[~zero]
        return float((kappa[i] * kappa[j] * pair_potential(system.m, r2, system.delta)).sum())

    gamma = float(kappa.sum())
    px = float((kappa * state.y).sum())
    py = float(-(kappa * state.x).sum())
    ell = float(-0.5 * (kappa * (state.x**2 + state.y**2)).sum())
    sums = []
    _tiles(tile, triangle_blocks(n), n * (n - 1) // 2, sums.append)
    ham = 0.0
    for h in sums:
        ham -= h / (4.0 * np.pi)
    values = (gamma, px, py, ell, ham)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"conserved quantities are not finite: {values}")
    return ConservedSet(*values)


def multiplier(kappa, xy, f):
    """Conservation-law multiplier: 4 x 2M matrix with rows (Px, Py, L, H).

    Built at the positions xy = (x, y) from the vector field f = (u, v) there,
    both (2, M) arrays: the H row is (-kappa v, kappa u), the field turned by
    the strengths, so every row annihilates f.  The continuous multiplier
    uses the ODE field at the state, the discrete one f_tau at the midpoint
    of the two levels.
    """
    (x, y), (u, v), zero = xy, f, np.zeros_like(kappa)
    return np.block([[zero, kappa], [-kappa, zero], [-kappa * x, -kappa * y], [-kappa * v, kappa * u]])


def multiplier_matrix(system, state):
    """Continuous multiplier at a state; assembled only in verification paths."""
    return multiplier(system.kappa, state.xy, rhs(system, state))


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
