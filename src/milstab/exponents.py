"""Discrete Lyapunov exponents of the Milstein and theta-Milstein schemes.

Every estimator is an expectation over the one-step factor F of
milstab.scheme (plain: c0 = gamma_dt, denom = 1; theta: c0 = eta_dt,
denom = 1 - lam*theta*dt), and each one is written once against that factor.
Each estimator takes theta, None for the plain scheme, and its factor from
scheme._factor (as-slope through its paths), so every method runs either
scheme; the theta-ms and theta-as methods are the mean-square and
quadrature ones with theta required, which their own entry points check.
Every estimate refuses in the one order that check_dt_free states. SENSE
is the one map from a method to the sense of its exponent, and so to its
continuum target (model's table); estimate names each method and refuses
any other value, so no value falls through to an estimator.

Mean-square exponents come in closed form: squaring the scheme gives
E(Z_n^2) = (x0^2 + y0^2) * base^n with base = E F^2, which for the plain
scheme is

    base = 1 + (2*lam + epsilon^2 + sigma^2)*dt + mu*dt^2,

so the exponent of [E|Z_n|^2]^(1/2) is log(base)/(2*dt) exactly, for every n.
Almost-sure exponents are expectations (1/dt)*E log|F|, estimated wherever
F > 0 for every increment (_StepFactor.check_domain), and evaluated either
deterministically or by Monte Carlo over i.i.d. increments, with a per-path
slope estimator retained for trajectory plots. The deterministic route sums
an asymptotic series in the roots of F where that series is exact to
rounding (small noise, sigma^2*dt below about 0.02) and falls back to
Gauss-Hermite quadrature elsewhere. Convergence orders against the continuum
exponents are measured by one dt sweep, sweep_dt: its rows and its log-log
fit are what the sweep-dt command prints.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from enum import Enum

from . import _np as np
from ._record import Record
from .model import _CONTINUUM, ModelParams, Sense, continuum_as_exponent, continuum_ms_exponent
from .scheme import (
    LogModulusPath,
    SchemeConfig,
    _check_dt,
    _check_steps,
    _check_theta_scheme,
    _factor,
    _StepFactor,
    mu,
    simulate_path,
)
from .stochastics import RngStream, gauss_hermite_rule

#: Sample block size for the Monte Carlo estimator. Each block owns the
#: substream (seed, block index) and block statistics combine in block order,
#: so the result is independent of worker count.
MC_BLOCK = 1 << 18

#: Slice of a sample block that a kernel takes through all its passes at once
#: (256 KiB of doubles, so the slice stays in cache between passes).
_MC_CHUNK = 1 << 15

#: Fewest Monte Carlo samples from which a mean and its standard error are reported.
_MIN_SAMPLES = 100


def _check_samples(n_samples: int) -> None:
    """Refuse fewer than _MIN_SAMPLES samples: as-mc's floor and verify's, in one text."""
    if n_samples < _MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {_MIN_SAMPLES}, got {n_samples}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ThreadPoolExecutor(max_workers: int):
    """concurrent.futures.ThreadPoolExecutor, imported when a pool first starts.

    Single-thread calls then never load concurrent.futures (nor the logging
    it imports). _map_indexed reads this module attribute, so a test or a
    tracer can swap the pool class here.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=max_workers)


def _map_indexed(fn, count: int, threads: int):
    """Yield fn(0), ..., fn(count - 1) in index order, over up to `threads` worker threads.

    The pool starts no more workers than there are tasks or usable CPUs; one
    worker runs each call inline when its result is asked for. Callers give
    each index its own substream and reduce the results in index order, so
    the output does not depend on `threads`. A pool runs at most two calls
    per worker ahead of the caller, so a caller that reduces each result
    before asking for the next holds no more than that many, however many
    tasks there are and however slowly it takes them.
    """
    workers = min(threads, count, _usable_cpus())
    if workers < 2:
        yield from map(fn, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = collections.deque()
        for i in range(count):
            ahead.append(pool.submit(fn, i))
            if len(ahead) == 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


#: Node count of the Gauss-Hermite route, which is checked against twice as many.
QUAD_NODES = 201

#: Relative tolerance of the convergence check against twice the nodes.
DOUBLING_RTOL = 1e-10

#: The root series answers only where its smallest term is at most this
#: times dt, so that its truncation error in the exponent is of that order.
_ROOT_SERIES_TOL = 1e-16


class Method(Enum):
    MS_EXACT = "ms-exact"
    AS_QUADRATURE = "as-quad"
    AS_MONTE_CARLO = "as-mc"
    AS_PATH_SLOPE = "as-slope"
    THETA_MS_EXACT = "theta-ms"
    THETA_AS_QUADRATURE = "theta-as"


#: Methods whose estimates carry sampling error.
STOCHASTIC_METHODS = frozenset({Method.AS_MONTE_CARLO, Method.AS_PATH_SLOPE})

#: The sense of each method's exponent, which names the continuum exponent it targets.
SENSE = {Method.MS_EXACT: Sense.MEAN_SQUARE, Method.THETA_MS_EXACT: Sense.MEAN_SQUARE,
         Method.AS_QUADRATURE: Sense.ALMOST_SURE, Method.AS_MONTE_CARLO: Sense.ALMOST_SURE,
         Method.AS_PATH_SLOPE: Sense.ALMOST_SURE, Method.THETA_AS_QUADRATURE: Sense.ALMOST_SURE}


class ExponentEstimate(Record):
    """An exponent value with its method tag and, when stochastic, its error.

    std_error is present exactly for the Monte Carlo and path-slope methods.
    """

    value: float
    method: Method
    dt: float
    std_error: float | None = None
    n_samples: int | None = None

    def __post_init__(self) -> None:
        stochastic = self.method in STOCHASTIC_METHODS
        if stochastic and self.std_error is None:
            raise ValueError(f"std_error is required for method {self.method.value}")
        if not stochastic and self.std_error is not None:
            raise ValueError(f"std_error must be absent for method {self.method.value}")
        if not math.isfinite(self.value):
            raise ValueError(f"{self.method.value} exponent must be finite, got {self.value!r}")
        if self.std_error is not None and not 0.0 <= self.std_error < math.inf:
            raise ValueError(f"std_error must be finite and nonnegative, got {self.std_error!r}")


class ConvergenceFit(Record):
    """Least-squares fit |error| ~ C * dt^p over a dt sweep.

    residual is the maximum absolute residual of the log10-log10 regression.
    """

    constant_C: float
    order_p: float
    residual: float
    dts: tuple[float, ...]
    errors: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dts) != len(self.errors) or len(self.dts) < 3:
            raise ValueError("a fit needs at least 3 (dt, error) pairs of equal length")
        if not all(e > 0.0 for e in self.errors):
            raise ValueError("all errors must be positive for a log-log fit")
        if not self.constant_C > 0.0:
            raise ValueError(f"constant_C must be positive, got {self.constant_C!r}")


class RemainderReport(Record):
    """Truncated remainder series value with its explicit bound."""

    value: float
    bound: float
    terms_used: int
    converged: bool

    def __post_init__(self) -> None:
        if self.converged and not abs(self.value) <= self.bound + 1e-12:
            raise ValueError(
                f"converged remainder |{self.value!r}| exceeds its bound {self.bound!r}"
            )


def _ms(f: _StepFactor, method: Method) -> ExponentEstimate:
    return ExponentEstimate(value=f.ms_log_base() / (2.0 * f.dt), method=method, dt=f.dt)


def ms_exponent_exact(p: ModelParams, dt: float, theta: float | None = None) -> ExponentEstimate:
    """Exact mean-square exponent log(base)/(2*dt) of the scheme theta names.

    Exact in n: the squared-modulus recursion is geometric, so the limsup is
    attained at every step. Errors out when base <= 0 (dt too large for the
    positivity restriction).
    """
    return _ms(_factor(p, dt, theta), Method.MS_EXACT)


#: Truncation rule of the remainder series: stop before a term smaller than
#: this relative threshold, with a hard cap on the number of terms.
SERIES_RTOL = 1e-16
SERIES_CAP = 200


def ms_remainder(p: ModelParams, dt: float) -> RemainderReport:
    """Remainder R^ms(dt) of the mean-square exponent expansion, with bound.

    The series is mu*dt + sum over m >= 2 of ((-1)^(m-1)/m) * B^m * dt^(m-1),
    B = 2*(lam + epsilon^2/2 + sigma^2/2) + mu*dt, summed while terms stay
    above SERIES_RTOL * max(1, |partial|) up to SERIES_CAP terms. It converges
    under the contraction condition q = (2*|a| + mu*dt)*dt < 1 and satisfies

        2*(lam + epsilon^2/2 + sigma^2/2) + R^ms = 2 * ms_exponent_exact,

    which is the consistency identity used as an independent cross-check. The
    explicit bound is (mu + Bbar^2 / (1 - Bbar*dt)) * dt with Bbar = 2*|a| +
    mu*dt.
    """
    _check_dt(dt)
    a = continuum_ms_exponent(p)
    mu_ = mu(p)
    b_abs = 2.0 * abs(a) + mu_ * dt
    q = b_abs * dt
    if q >= 1.0:
        raise ValueError(f"series contraction q = {q!r} must be below 1; the remainder may diverge")
    b = 2.0 * a + mu_ * dt
    terms = [mu_ * dt]
    partial = terms[0]
    term = -0.5 * b * b * dt  # m = 2
    m = 2
    converged = False
    while m <= SERIES_CAP:
        if abs(term) < SERIES_RTOL * max(1.0, abs(partial)):
            converged = True
            break
        terms.append(term)
        partial += term
        term *= -b * dt * m / (m + 1.0)
        m += 1
    value = math.fsum(terms)
    bound = (mu_ + b_abs * b_abs / (1.0 - q)) * dt
    return RemainderReport(value=value, bound=bound, terms_used=len(terms), converged=converged)


def _root_series(f: _StepFactor) -> float | None:
    """E log F from the roots of F, or None where the series is not exact to rounding.

    With s = sigma*sqrt(dt), F = (s^2/(2*denom)) * (zeta - r) * (zeta - conj(r))
    for r = (-1 + i*q)/s, q = sqrt(2*c0*denom - 1), and r*conj(r) =
    2*c0*denom/s^2. Expanding E log|1 - zeta/r| in powers of zeta/r and
    taking E zeta^(2k) = (2k-1)!! gives the asymptotic series

        E log F = log1p(c0m1) - Re sum_{k>=1} ((2k-1)!!/k) u^k,  u = s^2/(1 + i*q)^2.

    (1 + i*q)^2 is formed as -2*g + 2i*sqrt(1 + 2*g) from g = c0*denom - 1 =
    c0m1*denom + (denom - 1), so its small real part does not cancel. The
    series diverges, so its terms are summed while they shrink, and its error
    is of the order of the smallest one. That term must be at most
    tol = _ROOT_SERIES_TOL*dt; otherwise the answer is None and the caller
    uses quadrature. Once sigma^2*dt is below about 0.02 this holds. The
    sum also stops at a term below 1e-6*tol: the shrinking terms after it
    number at most about 1/(2*|u|), and they fall geometrically while
    |u| is small, so together they stay far below tol.
    """
    g = f.c0m1 * f.denom + (f.denom - 1.0)
    if not g > -0.5:  # rounding at the edge of the theta domain
        return None
    s = f.sigma * math.sqrt(f.dt)
    u = s * s / complex(-2.0 * g, 2.0 * math.sqrt(1.0 + 2.0 * g))
    tol = _ROOT_SERIES_TOL * f.dt
    parts = []
    term, k = u, 1
    while abs(term) > 1e-6 * tol:
        parts.append(term.real)
        following = term * u * ((2 * k + 1) * k / (k + 1))
        if not abs(following) < abs(term):  # the smallest term
            if abs(term) > tol:
                return None
            break
        term, k = following, k + 1
    return math.log1p(f.c0m1) - math.fsum(parts)


def _log(x: float) -> float:
    """log x, or np.log's -inf at 0 and NaN below 0, where math.log raises."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


def _quad(f: _StepFactor, method: Method) -> ExponentEstimate:
    """(1/dt) * E log F by the root series, else by Gauss-Hermite with a convergence check.

    F must lie in its almost-sure domain (_StepFactor.check_domain), which
    keeps the log argument positive, before either route is chosen.
    _root_series answers where it is exact to rounding, with no table built.
    Elsewhere F is evaluated at each of QUAD_NODES nodes, standard normal
    points, by _StepFactor.of_normals, the kernel of paths and Monte Carlo,
    and the logs are summed by QuadratureRule.integrate, in pure Python, so
    neither route loads numpy. Doubling the node count must move the value
    by less than DOUBLING_RTOL relative. A node whose F rounds to 0 or below
    gives a non-finite value, which ExponentEstimate refuses.
    """
    f.check_domain()
    value = _root_series(f)
    if value is not None:
        return ExponentEstimate(value=value / f.dt, method=method, dt=f.dt)

    v1, v2 = (
        rule.integrate(_log(f.of_normals(x)) for x in rule.nodes) / f.dt
        for rule in (gauss_hermite_rule(QUAD_NODES), gauss_hermite_rule(2 * QUAD_NODES))
    )
    diff = abs(v2 - v1)
    scale = max(abs(v1), abs(v2))
    if diff > DOUBLING_RTOL * scale and diff > 1e-22:
        raise ValueError(
            f"quadrature non-convergence: doubling {QUAD_NODES} nodes moved the value by "
            f"{diff!r} (relative {diff / scale if scale else math.inf!r})"
        )
    return ExponentEstimate(value=v1, method=method, dt=f.dt)


def as_exponent_quadrature(p: ModelParams, dt: float,
                           theta: float | None = None) -> ExponentEstimate:
    """Almost-sure exponent (1/dt) * E log F of the scheme theta names.

    For the plain scheme F = gamma + sigma*dB + (sigma^2/2)*dB^2. At small
    noise the root series of _root_series gives the value; elsewhere
    substituting zeta = dB/sqrt(dt) turns the expectation into a standard
    normal integral evaluated by Gauss-Hermite quadrature on QUAD_NODES
    nodes, checked against twice as many (_quad), without numpy. Requires
    F > 0 for every increment, for the plain scheme gamma_dt > 1/2
    (_StepFactor.check_domain).
    """
    return _quad(_factor(p, dt, theta), Method.AS_QUADRATURE)


def _slices(x: np.ndarray):
    """Views of the 1-d array x, _MC_CHUNK elements each, in order."""
    return (x[lo : lo + _MC_CHUNK] for lo in range(0, x.size, _MC_CHUNK))


def _moments_in_place(x: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of x, M2 by a second pass about the mean; x is overwritten.

    mean has the bits of np.mean(x) and M2 / (count - 1) those of
    np.var(x, ddof=1): both sums run over the whole array, and the
    deviations are squared in _MC_CHUNK slices. It reduces each Monte Carlo
    block (_mc_block), the path slopes (as_exponent_path_slope) and the
    samples of the moments and closedform verify suites. A non-finite mean
    or an overflowing square gives a non-finite M2, with no numpy warning.
    """
    mean = float(np.sum(x)) / x.size
    with np.errstate(over="ignore", invalid="ignore"):
        for dev in _slices(x):
            dev -= mean
            dev *= dev
    return x.size, mean, float(np.sum(x))


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """(count, mean, M2) of the union of two parts given as (count, mean, M2) triples.

    The pairwise update of Chan, Golub and LeVeque (1979), so M2 does not
    cancel when the spread is tiny next to the mean.
    """
    n, mean, m2 = a
    nb, mean_b, m2_b = b
    total = n + nb
    delta = mean_b - mean
    return total, mean + delta * nb / total, m2 + (m2_b + delta * delta * n * nb / total)


def _std_error(stats: tuple[int, float, float]) -> float:
    """Standard error sqrt(M2/(n - 1))/sqrt(n) of the mean of a (count, mean, M2) triple.

    The one error-bar formula of every sampled mean: as-mc's blocks and
    as-slope's paths both report it.

    The bits of np.std(x, ddof=1)/sqrt(n) for the samples x behind stats.
    """
    n, _, m2 = stats
    return math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def _mc_block(f: _StepFactor, seed: int, block_id: int, count: int) -> tuple[int, float, float]:
    """(count, mean, M2) of log F over one block of count draws.

    The block's normals are drawn at once, then turned into F by
    _StepFactor.of_normals and logged in _MC_CHUNK slices, each slice
    staying in cache through its passes. The caller's check_domain keeps F
    positive, so the log takes F itself, where _accumulate takes |F|.
    """
    logs = RngStream(root_seed=seed, stream_id=block_id).normals(count)
    for z in _slices(logs):
        np.log(f.of_normals(z), out=z)
    return _moments_in_place(logs)


def as_exponent_mc(
    p: ModelParams,
    dt: float,
    n_samples: int,
    seed: int,
    threads: int = 1,
    theta: float | None = None,
) -> ExponentEstimate:
    """Strong-law Monte Carlo estimate of the almost-sure exponent of the scheme theta names.

    Averages log|factor| over n_samples i.i.d. increments and divides by dt;
    the standard error is _std_error's over the samples, divided by dt. At
    sigma = 0 every sample is log1p(c0m1), so the value is as-quad's and the
    error 0. Sampling runs in fixed blocks with per-block substreams.
    Each block reports its count, mean and sum of squared deviations, and the
    blocks combine in block order by the pairwise update of Chan, Golub and
    LeVeque (1979), so the error bar does not cancel when the spread of
    log|factor| is tiny next to its mean, and the value is a pure function of
    (p, dt, n_samples, seed) regardless of threads.
    """
    f = _factor(p, dt, theta)
    check_dt_free(p, Method.AS_MONTE_CARLO, n_samples=n_samples)
    f.check_domain()
    if p.sigma == 0.0:
        return ExponentEstimate(value=math.log1p(f.c0m1) / dt, method=Method.AS_MONTE_CARLO,
                                dt=dt, std_error=0.0, n_samples=n_samples)
    partials = _map_indexed(
        lambda b: _mc_block(f, seed, b, min(MC_BLOCK, n_samples - b * MC_BLOCK)),
        -(-n_samples // MC_BLOCK),
        threads,
    )

    stats = functools.reduce(_merge, partials)  # in block order
    return ExponentEstimate(value=stats[1] / dt, method=Method.AS_MONTE_CARLO, dt=dt,
                            std_error=_std_error(stats) / dt, n_samples=n_samples)


def _simulate_paths(p: ModelParams, dt: float, n_steps: int, theta: float | None, seed: int,
                    n_paths: int, threads: int):
    """Paths 0, ..., n_paths - 1 of the scheme theta names, path i drawn from the stream (seed, i).

    The one path fan-out, shared by simulate and as-slope, and the one builder
    of a SchemeConfig. Before it returns it builds the factor, which refuses
    the theta scheme, then dt, then the pole, and then the config, which
    refuses n_steps; the paths are drawn only as they are asked for, on
    _map_indexed's pool, so they do not depend on threads.
    """
    _factor(p, dt, theta)
    cfg = SchemeConfig(dt=dt, n_steps=n_steps, theta=theta)
    return _map_indexed(
        lambda i: simulate_path(p, cfg, RngStream(root_seed=seed, stream_id=i)), n_paths, threads
    )


def as_exponent_path_slope(paths) -> ExponentEstimate:
    """Mean terminal slope (log|Z_n| - log|Z_0|) / t_n across trajectories.

    The statistic behind trajectory plots and estimate's as-slope method:
    each path contributes its terminal slope, the slopes are reduced by
    _moments_in_place, and the standard error is _std_error's
    sqrt(M2/(n - 1))/sqrt(n) over the n paths. paths is any iterable of
    LogModulusPath, and each path is reduced to its slope as it arrives and
    let go once the next one has, so no more than two paths of a stream are
    held at once. All paths must share dt and length, and there must be at
    least 2.
    """
    slopes = []
    for path in paths:
        if not slopes:
            dt, n = path.dt, path.n_steps
        elif path.dt != dt or path.n_steps != n:
            raise ValueError("mismatched grids: all paths must share dt and n_steps")
        slopes.append(float(path.log_values[-1] - path.log_values[0]) / (n * dt))
    if len(slopes) < 2:
        raise ValueError(f"need at least 2 paths, got {len(slopes)}")
    stats = _moments_in_place(np.array(slopes))
    return ExponentEstimate(value=stats[1], method=Method.AS_PATH_SLOPE, dt=dt,
                            std_error=_std_error(stats), n_samples=stats[0])


def theta_ms_exponent(p: ModelParams, theta: float, dt: float) -> ExponentEstimate:
    """Exact mean-square exponent of the scalar theta-Milstein scheme.

    E(X_n^2) is geometric with ratio M = E F^2, F = eta + (sigma*dB +
    (sigma^2/2)*dB^2)/(1 - lam*theta*dt), and the exponent of
    [E|X_n|^2]^(1/2) is log(M)/(2*dt). M - 1 is formed directly from
    E F = 1 + lam*dt/(1 - lam*theta*dt) and
    Var F = (sigma^2*dt + sigma^4*dt^2/2)/(1 - lam*theta*dt)^2, so the
    small-dt exponent keeps full precision. The factor and the value are
    ms_exponent_exact's at the same theta; theta None is refused.
    """
    check_dt_free(p, Method.THETA_MS_EXACT, theta=theta)
    return _ms(_factor(p, dt, theta), Method.THETA_MS_EXACT)


def theta_as_exponent_quadrature(p: ModelParams, theta: float, dt: float) -> ExponentEstimate:
    """Almost-sure exponent of the scalar theta-Milstein scheme.

    (1/dt) * E log(eta + (sigma*dB + (sigma^2/2)*dB^2)/(1 - lam*theta*dt)),
    by the root series or by quadrature as in as_exponent_quadrature.
    Requires eta > 1/(2*(1 - lam*theta*dt)), which keeps F positive. The
    factor and the value are as_exponent_quadrature's at the same theta; with
    theta = 0 both answer or refuse bit for bit as the plain scheme does at
    epsilon = 0: scheme._factor builds one factor for both. theta None is
    refused.
    """
    check_dt_free(p, Method.THETA_AS_QUADRATURE, theta=theta)
    return _quad(_factor(p, dt, theta), Method.THETA_AS_QUADRATURE)


def fit_loglog(dts, errors) -> ConvergenceFit:
    """Fit |error| ~ C * dt^p by least squares on log10-log10 axes.

    The sums run in math.fsum about the mean log step size. At least two
    distinct step sizes are needed, since one alone fixes no slope. A
    constant C too large for a float, or one that underflows to 0, is
    refused.
    """
    dts = [float(d) for d in dts]
    errors = [float(e) for e in errors]
    if len(dts) != len(errors) or len(dts) < 3:
        raise ValueError("a fit needs at least 3 (dt, error) pairs of equal length")
    if any(e <= 0.0 for e in errors):
        raise ValueError("error below resolution: exact zero cannot enter a log-log fit")
    lx = [math.log10(d) for d in dts]
    ly = [math.log10(e) for e in errors]
    if len(set(lx)) < 2:
        raise ValueError(f"a fit needs at least 2 distinct step sizes, got {sorted(set(dts))}")
    mean_x = math.fsum(lx) / len(lx)
    mean_y = math.fsum(ly) / len(ly)
    dx = [x - mean_x for x in lx]
    slope = math.fsum(d * (y - mean_y) for d, y in zip(dx, ly)) / math.fsum(d * d for d in dx)
    intercept = mean_y - slope * mean_x
    try:
        constant_C = 10.0**intercept
    except OverflowError:
        raise ValueError(
            f"log-log fit constant C = 10**{intercept!r} overflows, so the fit has no finite C"
        ) from None
    if constant_C == 0.0:
        raise ValueError(
            f"log-log fit constant C = 10**{intercept!r} underflows to 0, so the fit has "
            "no positive C"
        )
    return ConvergenceFit(
        constant_C=constant_C,
        order_p=slope,
        residual=max(abs(slope * x + intercept - y) for x, y in zip(lx, ly)),
        dts=tuple(dts),
        errors=tuple(errors),
    )


def c1(p: ModelParams, theta: float | None = None) -> float:
    """First-order constant of the almost-sure exponent: (E log F)/dt = a + c1*dt + O(dt^2).

    a = lam + epsilon^2/2 - sigma^2/2 is the continuum exponent. For the
    plain scheme c1 = 3*sigma^4/8 + sigma^2*a/2 - a^2/2; the theta scheme
    (epsilon = 0) adds lam*theta*(lam - sigma^2). |c1|*dt is the gap C(dt)
    between the discrete and continuum exponents at leading order. Both
    follow from the root series of _root_series to second order in dt.
    """
    a = continuum_as_exponent(p)
    plain = 0.375 * p.sigma**4 + 0.5 * p.sigma * p.sigma * a - 0.5 * a * a
    if theta is None:
        return plain
    _check_theta_scheme(p, theta)
    return plain + p.lam * theta * (p.lam - p.sigma * p.sigma)


def estimate(
    p: ModelParams,
    dt: float,
    method: Method,
    *,
    theta: float | None = None,
    n_samples: int = 10**6,
    seed: int = 0,
    threads: int = 1,
    n_paths: int = 50,
    n_steps: int = 10**4,
) -> ExponentEstimate:
    """Dispatch a single-dt exponent estimate for the given method.

    theta picks the scheme for every method: None is the plain scheme, a
    number the theta scheme, which theta-ms and theta-as require. No
    estimator reads an initial datum: every exponent is a limit of
    (1/(n*dt)) log|Z_n/Z_0|, and as-slope's paths start at log|Z_0/Z_0| = 0.
    A method that is not a Method member is refused.
    """
    if method is Method.MS_EXACT:
        return ms_exponent_exact(p, dt, theta)
    if method is Method.AS_QUADRATURE:
        return as_exponent_quadrature(p, dt, theta)
    if method is Method.AS_MONTE_CARLO:
        return as_exponent_mc(p, dt, n_samples, seed, threads=threads, theta=theta)
    if method is Method.AS_PATH_SLOPE:
        paths = _simulate_paths(p, dt, n_steps, theta, seed, n_paths, threads)
        check_dt_free(p, method, n_paths=n_paths, n_steps=n_steps)  # before any path is drawn
        return as_exponent_path_slope(paths)  # takes each path as it is simulated
    if method is Method.THETA_MS_EXACT:
        return theta_ms_exponent(p, theta, dt)
    if method is Method.THETA_AS_QUADRATURE:
        return theta_as_exponent_quadrature(p, theta, dt)
    raise ValueError(f"unknown method {method!r}")


def check_dt_free(p: ModelParams, method: Method, *, theta: float | None = None,
                  n_samples: int = 10**6, n_paths: int = 50, n_steps: int = 10**4, **_) -> None:
    """Refuse what estimate refuses for method at every dt, in estimate's text and order.

    These are the refusals that read no step size: first the theta scheme's
    epsilon = 0 and theta in [0, 1] for any method given a theta, which
    theta-ms and theta-as require, then as-mc's sample count, as-slope's
    step count and its path count. Every estimate refuses in one order: the
    theta scheme, dt, the pole, these counts, then the almost-sure domain.
    So a dt sweep, which makes these refusals once before any estimate,
    refuses as estimate does at a valid dt.
    """
    if theta is not None:
        _check_theta_scheme(p, theta)
    elif method in (Method.THETA_MS_EXACT, Method.THETA_AS_QUADRATURE):
        raise ValueError(f"method {method.value} requires theta")
    if method is Method.AS_MONTE_CARLO:
        _check_samples(n_samples)
    if method is Method.AS_PATH_SLOPE:
        _check_steps(n_steps)
        if n_paths < 2:
            raise ValueError(f"need at least 2 paths, got {n_paths}")


def continuum_target(p: ModelParams, method: Method) -> float:
    """The continuum exponent of the method's sense (SENSE), which its estimates converge to.

    Raises ValueError where it overflows (sigma^2/2 does for |sigma| above
    about 1.9e154), so no caller reports an infinite target, and the
    table's KeyError for a method that is not a Method member.
    """
    target = _CONTINUUM[SENSE[method]](p)
    if not math.isfinite(target):
        raise ValueError(f"continuum exponent must be finite, got {target!r}")
    return target


def sweep_dt(p: ModelParams, dts, method: Method,
             **estimator_params) -> tuple[list[dict], ConvergenceFit | None]:
    """Rows of |estimate(dt) - continuum exponent| over a dt sweep, and their log-log fit.

    The one sweep, which `milstab sweep-dt` prints. It first makes the
    refusals that read no step size, once (check_dt_free), then computes
    the continuum target; either refusal raises. Each dt then gets a row
    {"dt", "continuum_value", "discrete_value", "abs_error"}; a refused
    estimate leaves the last two None and adds "error", its text. The fit
    is fit_loglog's over the rows with a positive abs_error, or None when
    fewer than 3 remain: an exactly-zero error is below resolution and
    cannot enter the log-log regression.
    """
    check_dt_free(p, method, **estimator_params)
    target = continuum_target(p, method)
    rows = []
    for dt in map(float, dts):
        row = {"dt": dt, "continuum_value": target, "discrete_value": None, "abs_error": None}
        rows.append(row)
        try:
            value = estimate(p, dt, method, **estimator_params).value
        except ValueError as exc:
            row["error"] = str(exc)
            continue
        row.update(discrete_value=value, abs_error=abs(value - target))
    # `or` and `>` keep None, 0.0 and NaN errors out of the fit
    points = [(row["dt"], row["abs_error"]) for row in rows if (row["abs_error"] or 0.0) > 0.0]
    return rows, fit_loglog(*zip(*points)) if len(points) >= 3 else None
