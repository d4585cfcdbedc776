"""Exact reference solutions, error metrics, quadrature, and order fitting."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import BlobSystem, State, cutoff, velocity_field


def exact_velocity(z, p=3):
    """Steady rotational velocity field induced by (1 - r^2)^p vorticity.

    Inside the unit disk v = (-y, x) (1 - (1 - r^2)^(p+1)) / (2 (p+1) r^2);
    outside, the circulation saturates and v = (-y, x) / (2 (p+1) r^2).
    One branch-free amplitude -expm1((p+1) log1p(-r^2)) / r^2, within a few
    ulps: log1p(-r^2) is taken as -inf for r >= 1, and the limit at r = 0 is p+1.
    """
    if p < 1:
        raise ConfigurationError("vorticity exponent p must be >= 1")
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    log_rest = np.log1p(-r2, out=np.full_like(r2, -np.inf), where=r2 < 1.0)
    amp = np.divide(-np.expm1((p + 1) * log_rest), r2, out=np.full_like(r2, p + 1.0), where=r2 > 0.0)
    amp /= 2.0 * (p + 1)
    out = np.column_stack([-y * amp, x * amp])
    return out[0] if single else out


def ring_angular_velocity(m):
    """Rotation rate of the 4-vortex ring configuration (kappa = 1/8, delta = 1)."""
    return (cutoff(m, 1.0, 1.0) + 0.5 * cutoff(m, 2.0, 1.0)) / (8.0 * np.pi)


def four_vortex_exact(t, m):
    """Exact rigid rotation of four equal vortices on the circle R = 1/sqrt(2), delta = 1."""
    R = 1.0 / np.sqrt(2.0)
    alpha = ring_angular_velocity(m)
    angles = alpha * t + np.pi / 2.0 * np.arange(1, 5) - np.pi / 4.0
    return State(x=R * np.cos(angles), y=R * np.sin(angles), t=float(t))


def four_vortex_ring(m):
    """System (h = delta = 1) and t = 0 state for the 4-vortex temporal convergence study."""
    system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=np.full(4, 0.125))
    return system, four_vortex_exact(0.0, m)


def temporal_error(numerical, exact):
    """Euclidean norm of the stacked position differences."""
    if numerical.x.shape != exact.x.shape:
        raise ConfigurationError("states have mismatched vortex counts")
    return float(
        np.sqrt(((numerical.x - exact.x) ** 2).sum() + ((numerical.y - exact.y) ** 2).sum())
    )


_RADIAL_PANELS = 16
_RADIAL_ORDER = 8
_ANGULAR_NODES = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor rule on the disk r <= r_max in polar coordinates.

    Radial: composite Gauss-Legendre, _RADIAL_ORDER = 8 nodes on each of
    _RADIAL_PANELS = 16 panels (exact through degree 15); angular:
    _ANGULAR_NODES = 64 equispaced trapezoid nodes, spectrally accurate for
    periodic integrands.
    """

    r_nodes: np.ndarray
    r_weights: np.ndarray
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    r_max: float

    @classmethod
    def polar(cls, r_max=1.0):
        gx, gw = np.polynomial.legendre.leggauss(_RADIAL_ORDER)
        edges = np.linspace(0.0, r_max, _RADIAL_PANELS + 1)
        mid, half = 0.5 * (edges[:-1, None] + edges[1:, None]), 0.5 * (edges[1:, None] - edges[:-1, None])
        return cls(
            r_nodes=(mid + half * gx).ravel(),
            r_weights=(half * gw).ravel(),
            theta_nodes=2.0 * np.pi * np.arange(_ANGULAR_NODES) / _ANGULAR_NODES,
            theta_weights=np.full(_ANGULAR_NODES, 2.0 * np.pi / _ANGULAR_NODES),
            r_max=float(r_max),
        )

    def points_weights(self):
        """Cartesian evaluation points and area weights (Jacobian r included)."""
        r = self.r_nodes[:, None]
        th = self.theta_nodes[None, :]
        x = (r * np.cos(th)).ravel()
        y = (r * np.sin(th)).ravel()
        w = (self.r_weights[:, None] * self.r_nodes[:, None] * self.theta_weights[None, :]).ravel()
        return np.column_stack([x, y]), w

    def integrate_radial(self, f):
        """Integral of f(r) dr over [0, r_max] (no Jacobian)."""
        return float((self.r_weights * f(self.r_nodes)).sum())


def spatial_error(system, state, p=3):
    """L2 error of the smoothed velocity field against the exact rotation.

    Integrates |v_h - v|^2 over the unit disk with the default polar
    tensor rule, QuadratureRule.polar().
    """
    pts, w = QuadratureRule.polar().points_weights()
    diff = velocity_field(system, state, pts) - exact_velocity(pts, p)
    return float(np.sqrt((w * (diff**2).sum(axis=1)).sum()))


def exact_conserved_integrals(p=3):
    """Conserved integrals of the continuous flow for the (1 - r^2)^p profile.

    Circulation and angular impulse are closed forms, and so is the
    interaction energy H: the circular mean of the log kernel (the mean of
    log|z - z'| over a circle of radius r' is log max(r, r')) and u = r^2
    reduce it to terms int_0^1 (1 - u)^n log u du = -H_(n+1) / (n+1), H_n
    the harmonic numbers.  p must be an integer >= 1.
    """
    if not isinstance(p, numbers.Integral) or p < 1:
        raise ConfigurationError("vorticity exponent p must be an integer >= 1")
    gamma = np.pi / (p + 1)
    ell = -np.pi / (2.0 * (p + 1) * (p + 2))

    # H = -pi / (4 (p+1)) (H_(2p+2) / (2p+2) - H_(p+1) / (p+1)), the difference
    # taken as one correctly rounded sum of its terms
    moments = math.fsum([1.0 / (k * (2 * p + 2)) for k in range(1, 2 * p + 3)]
                        + [-1.0 / (k * (p + 1)) for k in range(1, p + 2)])
    ham = -np.pi / (4.0 * (p + 1)) * moments
    return gamma, 0.0, 0.0, ell, ham


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(scale)."""

    slope: float
    intercept: float
    r_squared: float


def fit_order(points):
    """Fit error = C * scale^slope through >= 3 positive (scale, error) pairs, at two or more scales."""
    pts = [(float(s), float(e)) for s, e in points]
    if len(pts) < 3:
        raise ConfigurationError("order fit needs at least 3 points")
    if not all(0 < s < math.inf and 0 < e < math.inf for s, e in pts):
        raise ConfigurationError("order fit needs positive finite scales and errors")
    if len({s for s, _ in pts}) < 2:
        raise ConfigurationError("order fit needs at least 2 distinct scales")
    logs = np.log([s for s, _ in pts])
    loge = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(logs, loge, 1)
    pred = slope * logs + intercept
    ss_res = float(((loge - pred) ** 2).sum())
    ss_tot = float(((loge - loge.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return OrderFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
