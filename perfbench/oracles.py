"""Reference values computed independently of milstab's estimator code.

Every almost-sure and mean-square exponent of the package is an expectation
over one step factor F = c0 + a1*Y + a2*Y^2, Y ~ N(0, 1):

* plain Milstein: c0 = gamma_dt, a1 = s, a2 = s^2/2, s = sigma*sqrt(dt);
* theta-Milstein (epsilon = 0): c0 = eta_dt, a1 = s/d, a2 = s^2/(2*d),
  d = 1 - lam*theta*dt.

The mean-square exponent is log(E F^2)/(2*dt) with
E F^2 - 1 = (c0 - 1)*(c0 + 1) + 2*c0*a2 + a1^2 + 3*a2^2, and the almost-sure
exponent E log F / dt. Gauss-Hermite nodes here come from numpy's
hermegauss, not from milstab's Golub-Welsch tables.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# hermegauss overflows at a few hundred nodes; 300 agrees with milstab's
# doubling-checked rules to ~1e-10 relative over the benchmark's grids.
_NODES, _WEIGHTS = hermegauss(300)
_WEIGHTS = _WEIGHTS / _WEIGHTS.sum()
_HALF_NODES, _HALF_WEIGHTS = hermegauss(150)
_HALF_WEIGHTS = _HALF_WEIGHTS / _HALF_WEIGHTS.sum()


def plain_factor(lam, epsilon, sigma, dt):
    """(c0 - 1, a1, a2) of the plain Milstein factor; arrays broadcast."""
    s = sigma * np.sqrt(dt)
    return (lam + 0.5 * epsilon * epsilon - 0.5 * sigma * sigma) * dt, s, 0.5 * s * s


def theta_factor(lam, sigma, theta, dt):
    """(c0 - 1, a1, a2) of the scalar theta-Milstein factor; arrays broadcast."""
    d = 1.0 - lam * theta * dt
    s = sigma * np.sqrt(dt)
    return (lam - 0.5 * sigma * sigma) * dt / d, s / d, 0.5 * s * s / d


def ms_exponent(c0m1, a1, a2, dt):
    """log(E F^2) / (2*dt), with E F^2 - 1 formed without cancellation at 1."""
    c0 = 1.0 + c0m1
    base_m1 = c0m1 * (c0 + 1.0) + 2.0 * c0 * a2 + a1 * a1 + 3.0 * a2 * a2
    return np.log1p(base_m1) / (2.0 * dt)


def _points(*values):
    """Broadcast parameters to 1-d float arrays, one entry per parameter point."""
    return [np.atleast_1d(v).astype(float) for v in np.broadcast_arrays(*values)]


def _centred_log(c0m1, a1, a2, y):
    """log F - log c0 at nodes y, one row per parameter point.

    Centred on log c0 so that a tiny noise term does not cancel against it.
    """
    c0 = 1.0 + c0m1[:, None]
    return np.log1p((a1[:, None] * y + a2[:, None] * y * y) / c0)


def as_exponent(c0m1, a1, a2, dt, chunk=4096):
    """E log F / dt by 300-node Gauss-Hermite, vectorised over parameter points."""
    c0m1, a1, a2 = _points(c0m1, a1, a2)
    out = np.empty(len(c0m1))
    for lo in range(0, len(out), chunk):
        sl = slice(lo, lo + chunk)
        out[sl] = np.log1p(c0m1[sl]) + _centred_log(c0m1[sl], a1[sl], a2[sl], _NODES) @ _WEIGHTS
    return out / dt


def as_sample_std(c0m1, a1, a2, dt) -> float:
    """Standard deviation of log F / dt at one parameter point."""
    g = _centred_log(*_points(c0m1, a1, a2), _NODES)[0]
    mean = float(g @ _WEIGHTS)
    return math.sqrt(max(float((g * g) @ _WEIGHTS) - mean * mean, 0.0)) / dt


def quad_resolved(c0m1, a1, a2, dt, rtol=1e-10) -> bool:
    """Whether 150 and 300 nodes agree on E log F / dt to rtol (floor 1).

    Where they do not, the integrand is too close to its log singularity for
    a fixed rule, and milstab refusing the point is the right answer.
    """
    points = _points(c0m1, a1, a2)
    half = float(np.log1p(points[0][0]) + _centred_log(*points, _HALF_NODES)[0] @ _HALF_WEIGHTS)
    return close(half / dt, float(as_exponent(c0m1, a1, a2, dt)[0]), rtol, floor=1.0)


def close(got: float, want: float, rtol: float, floor: float = 0.0) -> bool:
    return abs(got - want) <= rtol * max(abs(want), floor)
