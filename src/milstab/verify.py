"""Self-check suites for the paper's building blocks.

    lemmas      the log sandwich behind the two-sided sharp estimate, and xi
    moments     composite-increment moments by sampling, Gauss-Hermite moments
    closedform  E|Z_n|^2/|Z_0|^2 by sampling against the closed-form recursion base^n

run() checks its inputs before any suite runs, then returns one
{name, passed, detail} record per check, in SUITES order for "all".
Only moments reads n_samples (--samples); its Gauss-Hermite check uses the
rule of the quadrature estimators (exponents.QUAD_NODES nodes). lemmas does
not read it, and closedform always runs 10^5 ten-step paths and does not
read it either: following n_samples (default 10^6) would make every verify
call that runs it ten times slower. Its ratio to |Z_0|^2 does not depend on
the initial datum, so no suite reads one.

The sampling suites draw their samples a slice (_MC_CHUNK draws) at a time
from one stream, reduce each slice to (count, mean, M2) and merge those in
slice order, so their memory does not grow with the sample count: moments
reduces the noise and its square, closedform the squared-modulus ratios of
a slice's paths. A statistic that overflows fails its check, with no numpy
warning. One rule decides closedform: its mean passes within 3 standard
errors of base^n, or within _ULPS_PER_FACTOR ulps per step factor of it.
The second decides where the noise is 0 (sigma = 0) or rounds away against
the factors' deterministic part (tiny sigma): the paths then take one or a
few values, so a z-score measures only rounding.
"""

from __future__ import annotations

import functools
import math
import sys

from . import _np as np
from .exponents import _MC_CHUNK, QUAD_NODES, _check_samples, _merge, _moments_in_place, _std_error
from .lemmas import (
    BoundKind, LogBoundDomain, _scaled_increment_moments, gaussian_moment, verify_log_sandwich,
    xi_gamma,
)
from .lemmas import composite_increment_moments  # noqa: F401  (cli.__getattr__ reads it here)
from .model import ModelParams
from .scheme import _check_dt, _factor, _noise_factor
from .stochastics import RngStream, gauss_hermite_rule


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


#: Rounding that the closed-form check allows its mean per step factor, in
#: units of the double precision epsilon: at sigma = 0 it is all the spread.
_ULPS_PER_FACTOR = 8


def _z_score(stats: tuple[int, float, float], ref: float) -> float:
    """|mean - ref| in standard errors of a (count, mean, M2) triple.

    NaN if either is not finite. Samples that do not vary give 0 when their
    mean equals ref exactly and infinity otherwise.
    """
    mean, se = stats[1], _std_error(stats)
    if not (math.isfinite(mean) and math.isfinite(se)):
        return math.nan
    if se == 0.0:
        return 0.0 if mean == ref else math.inf
    return abs(mean - ref) / se


def _suite_lemmas(**_) -> list[dict]:
    gammas = (0.75, 1.0, 2.0, 10.0)
    report = verify_log_sandwich(gammas, n_points=10**5)
    near_zero = np.array([1e-12, -1e-12])
    worst = max(float(np.abs(xi_gamma(gamma, near_zero)).max()) for gamma in gammas)
    worst_xi = -math.inf
    for gamma in gammas:
        lo = LogBoundDomain(gamma, BoundKind.LOWER).lower_edge() * (1.0 - 1e-9)
        worst_xi = max(worst_xi, float(xi_gamma(gamma, np.linspace(lo, 10.0 * gamma, 2001)).max()))
    return [
        _check(
            "lemmas.sandwich",
            report.passed,
            f"{report.upper_violations + report.lower_violations} violations over "
            f"{report.n_points} points, worst margins {report.worst_upper_margin!r} (upper) "
            f"and {report.worst_lower_margin!r} (lower)",
        ),
        _check(
            "lemmas.xi_continuity",
            worst < 1e-20,
            f"|xi| at x = +-1e-12 stays below 1e-20, worst {worst!r}",
        ),
        _check(
            "lemmas.xi_nonpositive",
            worst_xi <= 0.0,
            f"max of xi over the sampled domain is {worst_xi!r}",
        ),
    ]


def _increment_scale(p: ModelParams, dt: float) -> float:
    """s = |sigma|*sqrt(dt), the moments suite's noise scale, refused if subnormal.

    A subnormal s is refused (ValueError): the noise s*zeta + (s*zeta)^2/2
    then takes only a few subnormal values, so its sampled moments cannot
    match the references, and no finite power of two takes s into [1/2, 1).
    """
    s = abs(p.sigma) * math.sqrt(dt)
    if 0.0 < s < sys.float_info.min:
        raise ValueError(f"the moments suite needs |sigma|*sqrt(dt) to be 0 or at least "
                         f"{sys.float_info.min!r}, got {s!r}: below that its samples round "
                         "to a few subnormal values")
    return s


def _suite_moments(*, p: ModelParams, dt: float, seed: int, n_samples: int, **_) -> list[dict]:
    n = n_samples
    # Where s = |sigma|*sqrt(dt) is below 1/2, the samples and both
    # references are scaled up by the power of two that takes s into [1/2, 1),
    # so the scaled noise is of order 1: where s^2 underflows (sigma 1e-12 at
    # dt 1e-300) neither the references nor the spread of the squares do. The
    # scale is exact and changes no z-score's bits; at sigma = 0 it is 1.
    s = _increment_scale(p, dt)
    scale = 2.0 ** max(0, -math.frexp(s)[1])
    mean_ref, second_ref = _scaled_increment_moments(s, scale)
    noise = _noise_factor(p.sigma, dt)
    stream = RngStream(root_seed=seed, stream_id=0)

    def slice_moments(lo: int):
        x = noise.of_normals(stream.normals(min(_MC_CHUNK, n - lo)))
        x *= scale
        square = _moments_in_place(x * x)  # before x itself is overwritten
        return _moments_in_place(x), square

    # Drawn and reduced one slice at a time, from one stream: the noise and
    # its square, each as (count, mean, M2), merged by _merge in slice order.
    first, second = functools.reduce(lambda acc, part: tuple(map(_merge, acc, part)),
                                     map(slice_moments, range(0, n, _MC_CHUNK)))
    z_scores = [_z_score(first, mean_ref), _z_score(second, second_ref)]
    checks = [
        _check(
            "moments.composite_vs_mc",
            all(z <= 4.0 for z in z_scores),
            f"mean and second moment within 4 standard errors, z = "
            f"{z_scores[0]:.3f} and {z_scores[1]:.3f} over {n} samples",
        )
    ]
    rule = gauss_hermite_rule(QUAD_NODES)
    worst_rel = 0.0
    for order in range(2, 21, 2):
        ref = gaussian_moment(order, 1.0)
        got = rule.integrate(x**order for x in rule.nodes)
        worst_rel = max(worst_rel, abs(got - ref) / ref)
    checks.append(
        _check(
            "moments.hermite_even_moments",
            worst_rel <= 1e-12,
            f"orders 2..20 against closed-form moments, worst relative error {worst_rel!r}",
        )
    )
    return checks


def _suite_closedform(*, p: ModelParams, dt: float, seed: int, **_) -> list[dict]:
    n_steps = 10
    n_paths = 10**5
    factor = _factor(p, dt)
    stream = RngStream(root_seed=seed, stream_id=0)
    rows = _MC_CHUNK // n_steps

    def chunk_moments(lo: int):
        # Path i takes draws i*n_steps to (i+1)*n_steps - 1.
        z = stream.normals(min(rows, n_paths - lo) * n_steps).reshape(-1, n_steps)
        factors = factor.of_normals(z)
        factors *= factors
        return _moments_in_place(np.prod(factors, axis=1))

    # Drawn and reduced a chunk of paths at a time, from one stream: each
    # chunk's squared-modulus ratios as (count, mean, M2), merged in order.
    stats = functools.reduce(_merge, map(chunk_moments, range(0, n_paths, rows)))
    try:
        ref = (1.0 + factor.ms_base_m1()) ** n_steps
    except OverflowError:  # base^n beyond the float range: no finite reference
        ref = math.inf
    z = _z_score(stats, ref)
    rtol = _ULPS_PER_FACTOR * n_steps * sys.float_info.epsilon
    detail = f"E|Z_n|^2/|Z_0|^2 at n = {n_steps} "
    if z <= 3.0 or not abs(stats[1] - ref) <= rtol * abs(ref):
        passed = z <= 3.0
        detail += f"within 3 standard errors of base^n, z = {z:.3f} over {n_paths} paths"
    else:
        # Noise that rounds away against the factors' deterministic part (all
        # of it at sigma = 0) leaves a spread below that rounding, so z cannot
        # decide.
        passed = True
        detail += (
            f"is {stats[1]!r} over {n_paths} paths, against base^n = {ref!r} within "
            f"relative {rtol:.3g}, the rounding allowed at sigma = 0; z = {z:.3f}"
        )
    return [_check("closedform.second_moment", passed, detail)]


SUITES = {"lemmas": _suite_lemmas, "moments": _suite_moments, "closedform": _suite_closedform}


def suites_named(suite: str) -> list:
    """The suites that suite names: one of SUITES, or all of them for "all"."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown verify suite {suite!r}")
    return list(SUITES.values()) if suite == "all" else [SUITES[suite]]


def run(suite: str, p: ModelParams, dt: float, *, seed: int, n_samples: int) -> list[dict]:
    """The check records of one suite of SUITES, or of all of them for "all".

    Every suite takes the same inputs, and they are checked before any suite
    runs or numpy loads, in this order: the suite name, dt, n_samples, then,
    when the moments suite is selected, its noise scale |sigma|*sqrt(dt),
    which must be 0 or a normal float. A statistic that overflows fails its
    check instead of raising a numpy warning.
    """
    suites = suites_named(suite)
    _check_dt(dt)
    _check_samples(n_samples)  # as-mc's floor, in its text
    if _suite_moments in suites:
        _increment_scale(p, dt)
    inputs = dict(p=p, dt=dt, seed=seed, n_samples=n_samples)
    checks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in suites:
            checks.extend(fn(**inputs))
    return checks
