"""Exact reference solutions, error metrics, quadrature, and order fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate as sp_integrate

from .errors import ConfigurationError
from .model import BlobSystem, State, cutoff, initial_vorticity, velocity_field


def exact_velocity(z, p=3):
    """Steady rotational velocity field induced by (1 - r^2)^p vorticity.

    Inside the unit disk v = (-y, x) (1 - (1 - r^2)^(p+1)) / (2 (p+1) r^2);
    outside, the circulation saturates and v = (-y, x) / (2 (p+1) r^2).
    Finite at the origin via the series limit.
    """
    if p < 1:
        raise ConfigurationError("vorticity exponent p must be >= 1")
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    amp = np.empty_like(r2)
    inside = r2 <= 1.0
    # small-r2 series of (1 - (1-r2)^(p+1))/r2 to avoid 0/0
    tiny = r2 < 1e-8
    s = r2[tiny]
    amp[tiny] = (p + 1) - (p + 1) * p / 2.0 * s + (p + 1) * p * (p - 1) / 6.0 * s**2
    mid = inside & ~tiny
    amp[mid] = (1.0 - (1.0 - r2[mid]) ** (p + 1)) / r2[mid]
    amp[~inside] = 1.0 / r2[~inside]
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


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor rule on the disk r <= r_max in polar coordinates.

    Radial: composite Gauss-Legendre (8 nodes per panel, exact through
    degree 15); angular: equispaced trapezoid, spectrally accurate for
    periodic integrands.
    """

    r_nodes: np.ndarray
    r_weights: np.ndarray
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    r_max: float

    @classmethod
    def polar(cls, r_max=1.0, radial_panels=16, radial_order=8, angular_nodes=64):
        gx, gw = np.polynomial.legendre.leggauss(radial_order)
        edges = np.linspace(0.0, r_max, radial_panels + 1)
        r_nodes = []
        r_weights = []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            r_nodes.append(mid + half * gx)
            r_weights.append(half * gw)
        theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
        tw = np.full(angular_nodes, 2.0 * np.pi / angular_nodes)
        return cls(
            r_nodes=np.concatenate(r_nodes),
            r_weights=np.concatenate(r_weights),
            theta_nodes=theta,
            theta_weights=tw,
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


# Quadrature points per velocity_field call in spatial_error.
_SPATIAL_CHUNK = 2048


def spatial_error(system, state, p=3):
    """L2 error of the smoothed velocity field against the exact rotation.

    Integrates |v_h - v|^2 over the unit disk with the default polar
    tensor rule, QuadratureRule.polar().
    """
    pts, w = QuadratureRule.polar().points_weights()
    total = 0.0
    for start in range(0, pts.shape[0], _SPATIAL_CHUNK):
        block = pts[start : start + _SPATIAL_CHUNK]
        diff = velocity_field(system, state, block) - exact_velocity(block, p)
        total += float((w[start : start + _SPATIAL_CHUNK] * (diff**2).sum(axis=1)).sum())
    return float(np.sqrt(total))


def exact_conserved_integrals(p=3):
    """Conserved integrals of the continuous flow for the (1 - r^2)^p profile.

    Circulation and angular impulse are closed forms; the interaction
    energy is reduced to a 1-d radial integral using the circular mean
    of the log kernel (the mean of log|z - z'| over a circle of radius
    r' is log max(r, r')) and evaluated adaptively.
    """
    if p < 1:
        raise ConfigurationError("vorticity exponent p must be >= 1")
    gamma = np.pi / (p + 1)
    ell = -np.pi / (2.0 * (p + 1) * (p + 2))

    def inner(r):
        # int_0^r s (1-s^2)^p ds
        return (1.0 - (1.0 - r**2) ** (p + 1)) / (2.0 * (p + 1))

    # H = -(1/8pi) iint iint w w' log|z-z'|^2; with the circular mean the
    # 4-d integral collapses to  -pi int_0^1 r w(r) log(r^2) inner(r) dr
    def h_integrand(r):
        if r <= 0.0:
            return 0.0
        return r * (1.0 - r**2) ** p * np.log(r**2) * 2.0 * inner(r)

    val, err = sp_integrate.quad(h_integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    ham = -np.pi / 2.0 * val
    return gamma, 0.0, 0.0, ell, ham


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(scale)."""

    slope: float
    intercept: float
    r_squared: float


def fit_order(points):
    """Fit error = C * scale^slope through >= 3 positive (scale, error) pairs."""
    pts = [(float(s), float(e)) for s, e in points]
    if len(pts) < 3:
        raise ConfigurationError("order fit needs at least 3 points")
    if any(s <= 0 or e <= 0 for s, e in pts):
        raise ConfigurationError("order fit needs positive scales and errors")
    logs = np.log([s for s, _ in pts])
    loge = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(logs, loge, 1)
    pred = slope * logs + intercept
    ss_res = float(((loge - pred) ** 2).sum())
    ss_tot = float(((loge - loge.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return OrderFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
