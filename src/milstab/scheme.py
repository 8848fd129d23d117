"""Milstein and theta-Milstein recursions for the modulus, in log space.

Both schemes multiply the modulus each step by one factor

    F = c0 + (sigma*dB + (sigma^2/2)*dB^2) / denom,    dB ~ N(0, dt).

The plain scheme is the Milstein step of the radial equation

    d|Z| = (lam + epsilon^2/2)*|Z| dt + sigma*|Z| dW,

with c0 = gamma_dt and denom = 1, where

    gamma_dt = 1 + (lam + epsilon^2/2 - sigma^2/2)*dt.

At epsilon = 0, |F| is the modulus of the Milstein step of the planar
system. At epsilon != 0 the planar step multiplies Z = X + iY by

    F_pl = 1 + lam*dt + beta*dB + (beta^2/2)*(dB^2 - dt),  beta = sigma + i*epsilon,

and E|F_pl|^2 - E F^2 = epsilon^2*(epsilon^2 - 4*lam + 4*sigma^2)*dt^2/4, so
the two schemes differ at O(dt) in both exponents.

The drift-implicit theta variant (scalar case, epsilon = 0) has c0 = eta_dt
and denom = 1 - lam*theta*dt, with

    eta_dt = (1 + (lam*(1-theta) - sigma^2/2)*dt) / (1 - lam*theta*dt).

_StepFactor holds this factor once for path simulation and for every
exponent estimator; its one evaluation form, of_normals, serves paths,
Monte Carlo blocks, quadrature nodes and the sampling verify suites. It
states the one almost-sure domain of both schemes: F > 0 for every
increment, which keeps log F real. _factor alone chooses the scheme, from
theta (None is plain), for simulate_path and every estimator, and the theta
factor alone checks theta. One function, simulate_path, generates
trajectories of both schemes, as SchemeConfig.theta names. Trajectories are
accumulated as sums of log|factor|; the raw product would overflow within a
few hundred steps for blow-up parameters, so |Z_n| itself is never
materialized. A path is log|Z_n/Z_0|, which no initial datum changes: the
datum is cli's simulate's alone, which adds log|Z_0| to each path it writes.
"""

from __future__ import annotations

import math

from . import _np as np
from ._record import Record
from .model import ModelParams
from .stochastics import RngStream

#: Log contribution recorded for a step whose factor underflows to exactly 0
#: in floating point (a measure-zero event). Near the most negative log a
#: double can carry; the step is flagged rather than aborting the batch.
LOG_CLAMP = -745.0


def _check_dt(dt: float) -> None:
    if not (0.0 < dt < 1.0):
        raise ValueError(f"dt must lie in (0, 1), got {dt!r}")


def _check_steps(n_steps: int) -> None:
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")


class SchemeConfig(Record):
    """Step size, horizon and the scheme; a path starts at log|Z_0/Z_0| = 0.

    theta names the scheme: absent is the plain Milstein scheme, a number the
    drift-implicit theta variant. The step size must satisfy 0 < dt < 1 and
    n_steps must be positive. The theta factor, which simulate_path builds
    before any draw, checks the rest: epsilon = 0, theta in [0, 1] and the
    well-posedness condition 1 - lam*theta*dt > 0.
    """

    dt: float
    n_steps: int
    theta: float | None = None

    def __post_init__(self) -> None:
        _check_dt(self.dt)
        _check_steps(self.n_steps)


class LogModulusPath(Record):
    """A trajectory of log|Z_n/Z_0| on the grid t_n = n*dt.

    log_values has length n_steps + 1 and starts at 0.0.
    flags marks, per step, factors that underflowed to zero and had their log
    contribution clamped; all other entries are finite.
    """

    dt: float
    log_values: np.ndarray
    flags: np.ndarray
    _hidden = ("flags",)

    def __post_init__(self) -> None:
        if self.log_values.ndim != 1 or self.flags.ndim != 1:
            raise ValueError("log_values and flags must be 1-d arrays")
        if len(self.flags) != len(self.log_values) - 1:
            raise ValueError("flags must have one entry per step")

    @property
    def n_steps(self) -> int:
        return len(self.log_values) - 1

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


class _StepFactor(Record):
    """The one-step factor F = c0 + (sigma*dB + (sigma^2/2)*dB^2) / denom.

    c0m1 is c0 - 1 formed from the parameters rather than by subtracting 1
    from c0, so log1p(c0m1) keeps the digits that rounding c0 drops.
    mean_rate is r in E F = 1 + r*dt. The noise part is at least
    -1/(2*denom) for every increment, so F >= c0 - 1/(2*denom), and
    check_domain states the almost-sure domain of both schemes.

    Outside this module every evaluation of F goes through of_normals, in
    the increment dB = sqrt(dt)*z: paths, Monte Carlo blocks, quadrature
    nodes and the sampling verify suites share its bits.
    """

    c0: float
    c0m1: float
    mean_rate: float
    sigma: float
    denom: float
    dt: float

    def at(self, dB, out=None):
        """F at the increment(s) dB, written into the array out if given.

        out may be dB itself, which leaves one temporary for an array dB. The
        operation order is that of c0 + (s*dB + (s*s/2)*dB*dB) / denom, so
        scalars, new arrays and out give the same bits.
        """
        s = self.sigma
        q = (0.5 * s * s) * dB
        q *= dB
        f = s * dB if out is None else np.multiply(s, dB, out=out)
        f += q
        if self.denom != 1.0:
            f /= self.denom
        f += self.c0
        return f

    def of_normals(self, z):
        """F at dB = sqrt(dt)*z, written over the standard normals z and returned.

        The bits are those of at(sqrt(dt)*z).
        """
        z *= math.sqrt(self.dt)
        return self.at(z, out=z)

    def ms_base_m1(self) -> float:
        """E F^2 - 1, formed without cancellation near 1.

        From E F = 1 + r*dt and Var F = (sigma^2*dt + sigma^4*dt^2/2) / denom^2.
        """
        r, s2, d2, dt = self.mean_rate, self.sigma * self.sigma, self.denom * self.denom, self.dt
        return (2.0 * r + s2 / d2) * dt + (r * r + s2 * s2 / (2.0 * d2)) * dt * dt

    def ms_log_base(self) -> float:
        """log E F^2, as log1p(ms_base_m1()) wherever E F^2 - 1 is finite, so
        that a small dt keeps full relative precision.

        Where E F^2 - 1 overflows, E F^2 = (1 + r*dt)^2 + sigma^2*dt/denom^2 +
        sigma^4*dt^2/(2*denom^2) is summed from the logs of its terms, so a
        finite log E F^2 is still returned (lam = 1e200 at dt = 0.5 gives
        919.6...).
        """
        m1 = self.ms_base_m1()
        if m1 <= -1.0:  # E F^2 >= 0 vanishes only for the deterministic F = 0
            raise ValueError(f"squared-modulus base 1 + {m1!r} must be positive")
        if math.isfinite(m1):
            return math.log1p(m1)
        log = lambda x: math.log(abs(x)) if x else -math.inf  # noqa: E731
        s2dt, d2 = 2.0 * log(self.sigma) + math.log(self.dt), 2.0 * log(self.denom)
        mean = 2.0 * log(1.0 + self.mean_rate * self.dt)
        terms = [mean, s2dt - d2, 2.0 * s2dt - math.log(2.0) - d2]
        top = max(terms)
        if not math.isfinite(top):
            return top
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    def check_domain(self) -> None:
        """Refuse F unless c0 - 1/(2*denom) > 0, so that F > 0 for every increment.

        The almost-sure domain of both schemes, where log F is real: for the
        plain factor gamma_dt > 1/2. The sandwich lemma's gamma_dt > 3/4 is
        lemmas.xi_expectation's own condition, not the estimators'.
        """
        lower = self.c0 - 0.5 / self.denom
        if not lower > 0.0:
            raise ValueError(f"the step factor's lower bound c0 - 1/(2*denom) = {lower!r} must "
                             "be positive for the almost-sure exponent estimators")


def gamma_dt(p: ModelParams, dt: float) -> float:
    """Deterministic part of the one-step Milstein factor."""
    return _plain_factor(p, dt).c0


def mu(p: ModelParams) -> float:
    """Second-order drift-moment constant of the squared-modulus recursion.

    mu = lam^2 + lam*epsilon^2 + epsilon^4/4 + sigma^4/2, which equals
    (lam + epsilon^2/2)^2 + sigma^4/2 and is therefore nonnegative.
    """
    lam, eps, sig = p.lam, p.epsilon, p.sigma
    return lam * lam + lam * eps * eps + 0.25 * eps**4 + 0.5 * sig**4


def theta_eta(p: ModelParams, theta: float, dt: float) -> float:
    """Deterministic part eta_dt of the theta-Milstein factor.

    The c0 of _theta_factor, so it refuses what that factor refuses: epsilon
    != 0, theta outside [0, 1], dt outside (0, 1) and 1 - lam*theta*dt <= 0,
    where the implicit step is ill-posed. For theta = 0 eta_dt reduces to
    gamma_dt. It is public as milstab.theta_eta; inside the package the
    estimators and simulate_path read the factor through _factor. cli's simulate
    calls it before it builds a SchemeConfig, so that theta is refused before
    dt, in the order of the theta estimators.
    """
    return _theta_factor(p, theta, dt).c0


def _plain_factor(p: ModelParams, dt: float) -> _StepFactor:
    """The Milstein factor: c0 = gamma_dt, denom = 1."""
    _check_dt(dt)
    c0m1 = (p.lam + 0.5 * p.epsilon * p.epsilon - 0.5 * p.sigma * p.sigma) * dt
    return _StepFactor(
        c0=1.0 + c0m1,
        c0m1=c0m1,
        mean_rate=p.lam + 0.5 * p.epsilon * p.epsilon,
        sigma=p.sigma,
        denom=1.0,
        dt=dt,
    )


def _check_theta_scheme(p: ModelParams, theta: float) -> None:
    """Refuse a theta scheme for epsilon != 0 or theta outside [0, 1], in that order.

    The checks of _theta_factor that need no dt, so exponents.c1 shares them.
    """
    if p.epsilon != 0.0:
        raise ValueError(f"theta scheme requires epsilon = 0, got epsilon = {p.epsilon!r}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")


def _theta_factor(p: ModelParams, theta: float, dt: float) -> _StepFactor:
    """The scalar theta-Milstein factor; with theta = 0 its F is the plain one.

    It checks epsilon and theta (_check_theta_scheme), then dt, then the pole
    1 - lam*theta*dt > 0.
    """
    _check_theta_scheme(p, theta)
    _check_dt(dt)
    denom = 1.0 - p.lam * theta * dt
    if denom <= 0.0:
        raise ValueError(f"implicit step ill-posed: 1 - lam*theta*dt = {denom!r} must be positive")
    return _StepFactor(
        c0=(1.0 + (p.lam * (1.0 - theta) - 0.5 * p.sigma * p.sigma) * dt) / denom,
        c0m1=(p.lam - 0.5 * p.sigma * p.sigma) * dt / denom, mean_rate=p.lam / denom,
        sigma=p.sigma, denom=denom, dt=dt,
    )


def _factor(p: ModelParams, dt: float, theta: float | None = None) -> _StepFactor:
    """The step factor of the scheme theta names: None is plain, a number the theta scheme.

    The one place the scheme is chosen, for paths and for every estimator.
    """
    return _plain_factor(p, dt) if theta is None else _theta_factor(p, theta, dt)


def _noise_factor(sigma: float, dt: float) -> _StepFactor:
    """The composite increment sigma*dB + (sigma^2/2)*dB^2 as a c0 = 0 factor."""
    return _StepFactor(c0=0.0, c0m1=-1.0, mean_rate=0.0, sigma=sigma, denom=1.0, dt=dt)


def milstein_factor(p: ModelParams, dt: float, dB: float) -> float:
    """One-step multiplicative factor gamma_dt + sigma*dB + (sigma^2/2)*dB^2.

    The noise part equals ((sigma*dB + 1)^2 - 1) / 2 >= -1/2, so the factor is
    bounded below by gamma_dt - 1/2 for every increment. In particular it is
    strictly positive whenever gamma_dt > 1/2.
    """
    return _plain_factor(p, dt).at(dB)


def _accumulate(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0.0 and the running sums of log|factors|, exact zeros flagged and clamped.

    factors is overwritten with its clamped logs, so beside it only the
    returned arrays are allocated.
    """
    logs = np.abs(factors, out=factors)
    flags = logs == 0.0
    np.copyto(logs, 1.0, where=flags)
    np.log(logs, out=logs)
    np.copyto(logs, LOG_CLAMP, where=flags)
    log_values = np.empty(len(logs) + 1)
    log_values[0] = 0.0
    np.cumsum(logs, out=log_values[1:])
    return log_values, flags


def simulate_path(p: ModelParams, cfg: SchemeConfig, stream: RngStream) -> LogModulusPath:
    """Generate one trajectory of log|Z_n/Z_0| of the scheme cfg.theta names.

    cfg.theta None is the plain Milstein scheme; a number is the scalar
    theta-Milstein scheme, whose factor refuses epsilon != 0, theta outside
    [0, 1] and a pole before any increment is drawn. With theta = 0 that
    factor coincides bit for bit with the plain one on shared increments.
    Draws n_steps increments dB = sqrt(dt)*zeta from the stream, accumulates
    log|factor| step by step, and flags (without aborting) any step whose
    factor underflows to zero.
    """
    f = _factor(p, cfg.dt, cfg.theta)
    # Parameters so large that F overflows give a non-finite path, which its
    # callers refuse; numpy's state is per thread, so it is set here, where
    # worker threads run too.
    with np.errstate(over="ignore", invalid="ignore"):
        factors = f.of_normals(stream.normals(cfg.n_steps))
        log_values, flags = _accumulate(factors)
    return LogModulusPath(dt=cfg.dt, log_values=log_values, flags=flags)


#: The name of simulate_path for theta configs, kept for existing callers.
simulate_theta_path = simulate_path
