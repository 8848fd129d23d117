"""SDE parameters, continuum Lyapunov exponents, and stability-region geometry.

The underlying model is the 2x2 linear system with drift rate lam, rotational
noise intensity epsilon, and scalar noise intensity sigma. Its modulus grows
like exp(t * (lam + epsilon^2/2 + sigma^2/2)) in root mean square and like
exp(t * (lam + epsilon^2/2 - sigma^2/2)) almost surely, which splits the
parameter space into stable and blow-up regions in each sense. _CONTINUUM is
the one table from a Sense to its continuum exponent: classify looks its sense
up there, and exponents.continuum_target the sense of a method, so a value
that is not a Sense has no exponent and raises the lookup's KeyError.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from ._record import Record

#: Absolute tolerance on the continuum exponent below which a parameter point
#: is reported as Boundary rather than classified. On the boundary curves no
#: stability claim is made for the discrete scheme.
BOUNDARY_TOL = 1e-12


class ModelParams(Record):
    """Drift and noise coefficients of the linear SDE system.

    lam is the drift rate (1/time); epsilon and sigma are the rotational and
    scalar noise intensities (1/sqrt(time)).
    """

    lam: float
    epsilon: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("lam", "epsilon", "sigma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


class InitialDatum(Record):
    """Initial point (x0, y0) of the system; the origin is excluded."""

    x0: float
    y0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError(f"initial datum must be finite, got ({self.x0!r}, {self.y0!r})")
        if self.x0 == 0.0 and self.y0 == 0.0:
            raise ValueError("initial datum (x0, y0) must not be the origin")

    def squared_modulus(self) -> float:
        return self.x0 * self.x0 + self.y0 * self.y0

    def log_modulus(self) -> float:
        """log sqrt(x0^2 + y0^2), by math.hypot where x0^2 + y0^2 over- or
        underflows the normal range, so that every datum has its finite log."""
        squared = self.squared_modulus()
        if sys.float_info.min <= squared <= sys.float_info.max:
            return 0.5 * math.log(squared)
        return math.log(math.hypot(self.x0, self.y0))


class Sense(Enum):
    """Which notion of exponential growth a statement refers to."""

    MEAN_SQUARE = "mean-square"
    ALMOST_SURE = "almost-sure"


class StabilityClass(Enum):
    STABLE = "stable"
    BLOW_UP = "blow-up"
    BOUNDARY = "boundary"


def continuum_ms_exponent(p: ModelParams) -> float:
    """Mean-square Lyapunov exponent of the continuum system.

    Growth rate of [E|Z(t)|^2]^(1/2): lam + epsilon^2/2 + sigma^2/2.
    """
    return p.lam + 0.5 * p.epsilon * p.epsilon + 0.5 * p.sigma * p.sigma


def continuum_as_exponent(p: ModelParams) -> float:
    """Almost-sure Lyapunov exponent of the continuum system.

    Pathwise growth rate of log|Z(t)|/t: lam + epsilon^2/2 - sigma^2/2.
    """
    return p.lam + 0.5 * p.epsilon * p.epsilon - 0.5 * p.sigma * p.sigma


#: The continuum exponent of each sense; a value that is not a Sense has none.
_CONTINUUM = {Sense.MEAN_SQUARE: continuum_ms_exponent, Sense.ALMOST_SURE: continuum_as_exponent}


def classify(p: ModelParams, sense: Sense) -> StabilityClass:
    """Classify a parameter point as stable, blow-up, or boundary in one sense.

    Stable means the continuum exponent of the chosen sense is below
    -BOUNDARY_TOL, blow-up means above +BOUNDARY_TOL, boundary otherwise.
    A sense that is not a Sense member raises the table's KeyError.
    """
    exponent = _CONTINUUM[sense](p)
    if exponent < -BOUNDARY_TOL:
        return StabilityClass.STABLE
    if exponent > BOUNDARY_TOL:
        return StabilityClass.BLOW_UP
    return StabilityClass.BOUNDARY


def as_boundary_epsilon(lam: float, sigma: float) -> tuple[float, ...]:
    """All epsilon on the almost-sure stability boundary at fixed (lam, sigma).

    Solves lam + epsilon^2/2 - sigma^2/2 = 0: plus and minus
    sqrt(sigma^2 - 2*lam) when that discriminant is positive, the single value
    0 when it vanishes, and nothing when it is negative. At lam = 0 the
    boundary is the pair of lines epsilon = -sigma, epsilon = sigma.

    The root is finite for finite lam and sigma. Where sigma^2 or 2*lam
    overflows, the discriminant is formed in units of 2**1200, which keeps
    it in range; a power of two, the scale rounds nothing.
    """
    scale = 1.0 if math.isfinite(sigma * sigma - 2.0 * lam) else 2.0**-600
    s = sigma * scale
    disc = s * s - 2.0 * (lam * scale) * scale
    if disc < 0.0:
        return ()
    if disc == 0.0:
        return (0.0,)
    root = math.sqrt(disc) / scale
    return (-root, root)
