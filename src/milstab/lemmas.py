"""Analytic toolkit: log sandwich bounds, Gaussian moments, xi expectation.

The cubic upper and quadratic-plus-xi lower surrogates pin log(gamma + x)
from both sides on their stated domains. The piecewise correction

    xi_gamma(x) = -x^4 / (4*gamma^4)   for x >= 0,
    xi_gamma(x) = 9*x^3 / gamma^3      for -2*gamma/3 < x < 0,

is what makes the lower bound valid. Its expectation under the composite
Milstein increment decays like |sigma*sqrt(dt)|^3 and controls the gap
between the discrete and continuum almost-sure exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams
from .scheme import _plain_factor
from .stochastics import _legendre_table, gauss_hermite_rule

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Half-width at which the Gauss-Legendre correction interval is clipped.
#: The standard normal mass beyond |y| = 13 is below 1e-36, so the clipped
#: integral agrees with the full one far past every tolerance in use, while
#: keeping the fixed-order rule accurate when the sign-change interval is huge.
_CORRECTION_CLIP = 13.0


class BoundKind(Enum):
    """Which side of the sandwich, with its domain restriction."""

    UPPER = "upper"  # valid for x > -gamma
    LOWER = "lower"  # valid for x > -2*gamma/3


@dataclass(frozen=True)
class LogBoundDomain:
    gamma: float
    kind: BoundKind

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")

    def lower_edge(self) -> float:
        if self.kind is BoundKind.UPPER:
            return -self.gamma
        return -2.0 * self.gamma / 3.0


def _check_gamma(gamma: float) -> None:
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")


def xi_gamma(gamma: float, x: float) -> float:
    """Piecewise correction term of the log lower bound.

    Continuous at 0 with value 0; defined for x > -2*gamma/3.
    """
    _check_gamma(gamma)
    if not x > -2.0 * gamma / 3.0:
        raise ValueError(f"x = {x!r} outside the domain x > -2*gamma/3 = {-2.0 * gamma / 3.0!r}")
    if x >= 0.0:
        return -(x**4) / (4.0 * gamma**4)
    return 9.0 * x**3 / gamma**3


def log_upper_surrogate(gamma: float, x: float) -> float:
    """Cubic upper bound for log(gamma + x), valid for x > -gamma."""
    _check_gamma(gamma)
    if not x > -gamma:
        raise ValueError(f"x = {x!r} outside the domain x > -gamma = {-gamma!r}")
    g2 = gamma * gamma
    return math.log(gamma) + x / gamma - x * x / (2.0 * g2) + x**3 / (3.0 * g2 * gamma)


def log_lower_surrogate(gamma: float, x: float) -> float:
    """Quadratic-plus-xi lower bound for log(gamma + x), valid for x > -2*gamma/3."""
    _check_gamma(gamma)
    return math.log(gamma) + x / gamma - x * x / (2.0 * gamma * gamma) + xi_gamma(gamma, x)


@dataclass(frozen=True)
class SandwichReport:
    """Grid-check result for the log sandwich.

    Margins are signed so that nonnegative means the inequality held:
    upper margin = surrogate - log(gamma + x), lower margin = log(gamma + x)
    minus the lower surrogate. Violations count points below tol.
    """

    worst_upper_margin: float
    worst_lower_margin: float
    upper_violations: int
    lower_violations: int
    n_points: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.upper_violations == 0 and self.lower_violations == 0


def _bound_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # Log-spaced toward the domain edge, where the margins are tightest, plus
    # uniform interior coverage. Points stay strictly inside (lo, hi].
    width = hi - lo
    n_log = n // 2
    edge = lo + width * np.logspace(-12.0, 0.0, n_log)
    interior = np.linspace(lo + width * 1e-12, hi, n - n_log)
    return np.concatenate([edge, interior])


def _margins(gamma: float, x: np.ndarray, kind: BoundKind) -> np.ndarray:
    g2 = gamma * gamma
    quad = np.log(gamma) + x / gamma - x * x / (2.0 * g2)
    true = np.log(gamma + x)
    if kind is BoundKind.UPPER:
        return quad + x**3 / (3.0 * g2 * gamma) - true
    xi = np.where(x >= 0.0, -(x**4) / (4.0 * g2 * g2), 9.0 * x**3 / (g2 * gamma))
    return true - (quad + xi)


def verify_log_sandwich(
    gammas,
    n_points: int = 100_000,
    span: float = 10.0,
    tol: float = -1e-12,
    points=None,
) -> SandwichReport:
    """Check lower <= log(gamma + x) <= upper on dense in-domain grids.

    For each gamma the grid covers (domain edge, span*gamma] with n_points
    points per bound, log-spaced toward the edge. An explicit points array
    overrides the generated grids and must lie inside both domains.
    Violations are reported, not raised.
    """
    worst = {BoundKind.UPPER: math.inf, BoundKind.LOWER: math.inf}
    violations = {BoundKind.UPPER: 0, BoundKind.LOWER: 0}
    total = 0
    for gamma in gammas:
        _check_gamma(gamma)
        for kind in BoundKind:
            edge = LogBoundDomain(gamma=gamma, kind=kind).lower_edge()
            if points is None:
                x = _bound_grid(edge, span * gamma, n_points)
            else:
                x = np.asarray(points, dtype=float)
                if len(x) and x.min() <= edge:
                    raise ValueError(
                        f"explicit points must lie strictly inside x > {edge!r} for {kind.value}"
                    )
            m = _margins(gamma, x, kind)
            worst[kind] = min(worst[kind], float(m.min()))
            violations[kind] += int(np.count_nonzero(m < tol))
            total += len(x)
    return SandwichReport(
        worst_upper_margin=worst[BoundKind.UPPER],
        worst_lower_margin=worst[BoundKind.LOWER],
        upper_violations=violations[BoundKind.UPPER],
        lower_violations=violations[BoundKind.LOWER],
        n_points=total,
        tol=tol,
    )


def gaussian_moment(order: int, dt: float) -> float:
    """Moment E[dB^order] of the Brownian increment dB ~ N(0, dt).

    Zero for odd order; (order-1)!! * dt^(order/2) for even order, the
    double-factorial ladder.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if order % 2 == 1:
        return 0.0
    return float(math.prod(range(1, order, 2))) * dt ** (order // 2)


def composite_increment_moments(sigma: float, dt: float) -> tuple[float, float]:
    """Mean and second moment of sigma*dB + (sigma^2/2)*dB^2.

    Closed forms from the moment ladder: mean (sigma^2/2)*dt and second
    moment sigma^2*dt + (3*sigma^4/4)*dt^2.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    s2 = sigma * sigma
    return 0.5 * s2 * dt, s2 * dt + 0.75 * s2 * s2 * dt * dt


def xi_expectation(p: ModelParams, dt: float, nodes: int = 201) -> float:
    """E[xi_gamma(N)] for the composite increment N = sigma*dB + (sigma^2/2)*dB^2.

    Requires gamma_dt > 3/4, which keeps N inside xi's domain (N >= -1/2 >
    -2*gamma/3). After substituting zeta = dB/sqrt(dt) the expectation splits
    at the sign change of N(y) = s*y + (s^2/2)*y^2, s = sigma*sqrt(dt):

    * the x >= 0 branch value -N^4/(4*gamma^4) is a degree-8 polynomial in y,
      integrated exactly over the whole line by the Gauss-Hermite rule;
    * on the interval between the roots y = 0 and y = -2/s, where N < 0, the
      correction (9*N^3/gamma^3 + N^4/(4*gamma^4)) * phi(y) is added back via
      Gauss-Legendre, with the interval clipped to |y| <= 13.

    The result is <= 0 (both branches of xi are) and decays like
    |s|^3/gamma^3 for small s.
    """
    factor = _plain_factor(p, dt)
    factor.check_domain()
    gamma = factor.c0
    s, a2 = factor.noise_coefficients()
    if s == 0.0:
        return 0.0
    g4 = gamma**4
    rule = gauss_hermite_rule(nodes)
    y = rule.nodes
    n_comp = s * y + a2 * y * y
    full = rule.integrate(-(n_comp**4) / (4.0 * g4))

    lo, hi = min(0.0, -2.0 / s), max(0.0, -2.0 / s)
    lo, hi = max(lo, -_CORRECTION_CLIP), min(hi, _CORRECTION_CLIP)
    if hi <= lo:
        return full
    xg, wg = _legendre_table(int(nodes))
    yy = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
    ww = 0.5 * (hi - lo) * wg
    nn = s * yy + a2 * yy * yy
    phi = np.exp(-0.5 * yy * yy) / _SQRT_2PI
    correction = float(np.sum(ww * (9.0 * nn**3 / gamma**3 + nn**4 / (4.0 * g4)) * phi))
    return full + correction
