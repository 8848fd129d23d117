"""Analytic toolkit: log sandwich bounds, Gaussian moments, xi expectation.

The cubic upper and quadratic-plus-xi lower surrogates pin log(gamma + x)
from both sides on their stated domains. The piecewise correction

    xi_gamma(x) = -x^4 / (4*gamma^4)   for x >= 0,
    xi_gamma(x) = 9*x^3 / gamma^3      for -2*gamma/3 < x < 0,

is what makes the lower bound valid. Its expectation under the composite
Milstein increment N = s*zeta + (s^2/2)*zeta^2, s = sigma*sqrt(dt), controls
the gap between the discrete and continuum almost-sure exponents. xi is a
piecewise polynomial in N, so xi_expectation is a finite sum of complete and
truncated standard normal moments, in closed form with no quadrature and no
numpy; it decays like -(18/sqrt(2*pi)) * |s|^3/gamma^3 for small s.
"""

from __future__ import annotations

import math
from enum import Enum

from . import _np as np
from ._record import Record
from .model import ModelParams
from .scheme import gamma_dt

# perfbench/spans.py patches this name on this module; it goes with its tracer.
from .stochastics import gauss_hermite_rule  # noqa: F401

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class BoundKind(Enum):
    """Which side of the sandwich, with its domain restriction."""

    UPPER = "upper"  # valid for x > -gamma
    LOWER = "lower"  # valid for x > -2*gamma/3


class LogBoundDomain(Record):
    gamma: float
    kind: BoundKind

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")

    def lower_edge(self) -> float:
        if self.kind is BoundKind.UPPER:
            return -self.gamma
        return -2.0 * self.gamma / 3.0

    def check(self, x) -> np.ndarray:
        """x as a float array; ValueError names its first point at or below the edge, or NaN."""
        x = np.asarray(x, dtype=float)
        edge = self.lower_edge()
        outside = ~(x > edge)
        if outside.any():
            raise ValueError(f"x = {float(x[outside][0])!r} outside the domain x > {edge!r}")
        return x


def _like(x: np.ndarray, value):
    """value as a float when x is a scalar, else as the array."""
    return float(value) if x.ndim == 0 else value


def _xi_nonnegative(gamma: float, x):
    return -(x**4) / (4.0 * gamma**4)


def _xi_negative(gamma: float, x):
    return 9.0 * x**3 / gamma**3


def _quadratic(gamma: float, x: np.ndarray) -> np.ndarray:
    return np.log(gamma) + x / gamma - x * x / (2.0 * gamma * gamma)


def xi_gamma(gamma: float, x):
    """Piecewise correction term of the log lower bound, at a float or an array.

    Continuous at 0 with value 0; defined for x > -2*gamma/3.
    """
    x = LogBoundDomain(gamma, BoundKind.LOWER).check(x)
    return _like(x, np.where(x >= 0.0, _xi_nonnegative(gamma, x), _xi_negative(gamma, x)))


def log_upper_surrogate(gamma: float, x):
    """Cubic upper bound for log(gamma + x) on x > -gamma; float or array x."""
    x = LogBoundDomain(gamma, BoundKind.UPPER).check(x)
    g2 = gamma * gamma
    return _like(x, _quadratic(gamma, x) + x**3 / (3.0 * g2 * gamma))


def log_lower_surrogate(gamma: float, x):
    """Quadratic-plus-xi lower bound for log(gamma + x) on x > -2*gamma/3; float or array x."""
    x = LogBoundDomain(gamma, BoundKind.LOWER).check(x)
    return _like(x, _quadratic(gamma, x) + xi_gamma(gamma, x))


class SandwichReport(Record):
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


#: A sandwich grid point whose margin falls below this counts as a violation.
_SANDWICH_TOL = -1e-12


def _bound_grid(gamma: float, kind: BoundKind, n: int) -> np.ndarray:
    # Log-spaced toward the domain edge, where the margins are tightest, plus
    # uniform interior coverage. Points stay strictly inside (lo, hi].
    lo, hi = LogBoundDomain(gamma, kind).lower_edge(), 10.0 * gamma
    width = hi - lo
    n_log = n // 2
    edge = lo + width * np.logspace(-12.0, 0.0, n_log)
    interior = np.linspace(lo + width * 1e-12, hi, n - n_log)
    return np.concatenate([edge, interior])


def _margins(gamma: float, kind: BoundKind, n: int) -> tuple[float, int]:
    """Smallest signed margin of one bound over its grid, and the count below _SANDWICH_TOL."""
    x = _bound_grid(gamma, kind, n)
    if kind is BoundKind.UPPER:
        margin = log_upper_surrogate(gamma, x) - np.log(gamma + x)
    else:
        margin = np.log(gamma + x) - log_lower_surrogate(gamma, x)
    return float(margin.min()), int(np.count_nonzero(margin < _SANDWICH_TOL))


def verify_log_sandwich(gammas, n_points: int = 100_000) -> SandwichReport:
    """Check lower <= log(gamma + x) <= upper on dense in-domain grids.

    For each gamma and bound the grid covers (domain edge, 10*gamma] with
    n_points points, log-spaced toward the edge. Each grid is reduced to its
    worst margin and violation count before the next is built. Violations
    are reported, not raised.
    """
    gammas = list(gammas)
    upper = [_margins(gamma, BoundKind.UPPER, n_points) for gamma in gammas]
    lower = [_margins(gamma, BoundKind.LOWER, n_points) for gamma in gammas]
    return SandwichReport(
        # np.min, as a NaN margin must propagate the way it did over one array
        worst_upper_margin=float(np.min([worst for worst, _ in upper])),
        worst_lower_margin=float(np.min([worst for worst, _ in lower])),
        upper_violations=sum(count for _, count in upper),
        lower_violations=sum(count for _, count in lower),
        n_points=2 * n_points * len(gammas),
        tol=_SANDWICH_TOL,
    )


def gaussian_moment(order: int, dt: float) -> float:
    """Moment E[dB^order] of the Brownian increment dB ~ N(0, dt).

    Zero for odd order; (order-1)!! * dt^(order/2) for even order, the
    double-factorial ladder.
    """
    if not (isinstance(order, int) or isinstance(order, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if order % 2 == 1:
        return 0.0
    return float(math.prod(range(1, order, 2))) * dt ** (order // 2)


def composite_increment_moments(sigma: float, dt: float) -> tuple[float, float]:
    """Mean and second moment of sigma*dB + (sigma^2/2)*dB^2.

    Closed forms from the moment ladder: mean (sigma^2/2)*dt and second
    moment sigma^2*dt + (3*sigma^4/4)*dt^2, formed by _scaled_increment_moments.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    return _scaled_increment_moments(abs(sigma) * math.sqrt(dt), 1.0)


def _scaled_increment_moments(s: float, scale: float) -> tuple[float, float]:
    """Mean and second moment of scale*(sigma*dB + (sigma^2/2)*dB^2), s = |sigma|*sqrt(dt).

    In s the moments are s^2/2 and s^2 + (3/4)*s^4. They are formed as
    (scale*s)*(s/2) and (scale*s)^2*(1 + (3/4)*s^2), so with a scale near
    1/s both stay in range where s^2 itself underflows.
    """
    cs = scale * s
    return cs * (0.5 * s), cs * cs * (1.0 + 0.75 * s * s)


#: E[zeta^k] of a standard normal zeta for k = 0..8.
_NORMAL_MOMENTS = (1.0, *(gaussian_moment(k, 1.0) for k in range(1, 9)))


def _truncated_moments(a: float) -> list[float]:
    """M_k, the integral of y^k * phi(y) over [a, 0] for a < 0, at k = 0..8.

    M_0 = erf(-a/sqrt(2))/2 and M_1 = phi(a) - phi(0); integration by parts
    gives M_k = a^(k-1)*phi(a) + (k-1)*M_(k-2). Where phi(a) underflows to 0
    the boundary term is 0, and a^(k-1), which may overflow, is not formed.
    """
    phi_a = math.exp(-0.5 * a * a) / _SQRT_2PI
    m = [0.5 * math.erf(-a / math.sqrt(2.0)), phi_a - 1.0 / _SQRT_2PI]
    for k in range(2, 9):
        m.append((a ** (k - 1) * phi_a if phi_a else 0.0) + (k - 1) * m[k - 2])
    return m


def _power_integral(b1: float, b2: float, j: int, moments) -> float:
    """Integral of (b1*y + b2*y^2)^j against a measure with y^k moments moments[k].

    The binomial expansion sum_i C(j, i) * b1^i * b2^(j-i) * moments[2j - i].
    """
    return sum(math.comb(j, i) * b1**i * b2 ** (j - i) * moments[2 * j - i] for i in range(j + 1))


def xi_expectation(p: ModelParams, dt: float) -> float:
    """E[xi_gamma(N)], N = sigma*dB + (sigma^2/2)*dB^2 the composite increment, in closed form.

    Requires gamma_dt > 3/4, the sandwich lemma's own condition, which is
    stated here alone: N >= -1/2 for every increment, and xi's domain is
    x > -2*gamma/3 (LogBoundDomain), so N stays inside it exactly when
    gamma_dt > 3/4. The almost-sure estimators need only F > 0
    (_StepFactor.check_domain). With zeta = dB/sqrt(dt) and
    s = |sigma|*sqrt(dt) (E xi is
    even in sigma), N = s*zeta + (s^2/2)*zeta^2 is negative exactly between
    its roots zeta = -2/s and 0, so

        E xi = -E[N^4]/(4*gamma^4)
               + integral over [-2/s, 0] of (9*N^3/gamma^3 + N^4/(4*gamma^4)) * phi.

    Both terms expand binomially in N/gamma = (s/gamma)*zeta +
    (s^2/(2*gamma))*zeta^2: the first over the complete normal moments
    (E[N^4] = 3*s^4 + (45/2)*s^6 + (105/16)*s^8), the second over the
    truncated ones of _truncated_moments. The result is <= 0 (both branches
    of xi are) and equals -(18/sqrt(2*pi)) * s^3/gamma^3 * (1 + O(s)).
    """
    gamma = gamma_dt(p, dt)
    if not (gamma > 0.0 and LogBoundDomain(gamma, BoundKind.LOWER).lower_edge() < -0.5):
        raise ValueError(f"gamma_dt = {gamma!r} must exceed 3/4 for the xi bound: its domain "
                         "x > -2*gamma_dt/3 must hold the composite increment's minimum -1/2")
    s = abs(p.sigma) * math.sqrt(dt)
    if s == 0.0:
        return 0.0
    b1, b2 = s / gamma, 0.5 * s * s / gamma
    inside = _truncated_moments(-2.0 / s)
    quartic = _power_integral(b1, b2, 4, inside) - _power_integral(b1, b2, 4, _NORMAL_MOMENTS)
    return 0.25 * quartic + 9.0 * _power_integral(b1, b2, 3, inside)
