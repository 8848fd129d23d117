import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from milstab import exponents, scheme
from milstab.exponents import (
    _MC_CHUNK,
    DOUBLING_RTOL,
    MC_BLOCK,
    ConvergenceFit,
    ExponentEstimate,
    Method,
    RemainderReport,
    _map_indexed,
    _mc_block,
    _root_series,
    as_exponent_mc,
    as_exponent_path_slope,
    as_exponent_quadrature,
    c1,
    continuum_target,
    estimate,
    fit_loglog,
    ms_exponent_exact,
    ms_remainder,
    sweep_dt,
    theta_as_exponent_quadrature,
    theta_ms_exponent,
)
from milstab.lemmas import xi_expectation
from milstab.model import (
    ModelParams,
    continuum_as_exponent,
    continuum_ms_exponent,
)
from milstab.scheme import (
    LogModulusPath,
    SchemeConfig,
    gamma_dt,
    simulate_path,
)
from milstab.stochastics import RngStream, gauss_hermite_rule

P_REF = ModelParams(lam=8.0, epsilon=2.0, sigma=4.0)
P_STABLE = ModelParams(lam=6.0, epsilon=0.5, sigma=4.0)

params_strategy = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1e-5, max_value=1e-2),
)


class TestMeanSquareExact:
    def test_frozen_values(self):
        assert ms_exponent_exact(P_REF, 1e-3).value == pytest.approx(
            17.793598421964813, rel=1e-14
        )
        assert ms_exponent_exact(P_STABLE, 1e-3).value == pytest.approx(
            14.00964172286456, rel=1e-14
        )

    def test_small_dt_limit(self):
        assert ms_exponent_exact(P_REF, 1e-8).value == pytest.approx(18.0, rel=1e-6)

    def test_independent_log_route(self):
        # plain log of the full base, degraded but independent arithmetic
        dt = 1e-3
        mu = 8.0**2 + 8.0 * 4.0 + 16.0 / 4.0 + 256.0 / 2.0
        base = 1.0 + (16.0 + 4.0 + 16.0) * dt + mu * dt * dt
        assert ms_exponent_exact(P_REF, dt).value == pytest.approx(
            math.log(base) / (2.0 * dt), rel=1e-11
        )

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            ms_exponent_exact(P_REF, 0.0)
        with pytest.raises(ValueError):
            ms_exponent_exact(P_REF, 1.0)

    def test_nonpositive_base_rejected(self):
        # lam*dt = -1 with no noise collapses the squared-modulus base to 0
        p = ModelParams(lam=-2.0, epsilon=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            ms_exponent_exact(p, 0.5)

    def test_estimate_dispatch(self):
        est = estimate(P_REF, 1e-3, Method.MS_EXACT)
        assert est.method is Method.MS_EXACT
        assert est.std_error is None


class TestRemainder:
    def test_consistency_identity_reference(self):
        dt = 1e-3
        rep = ms_remainder(P_REF, dt)
        lhs = 2.0 * continuum_ms_exponent(P_REF) + rep.value
        rhs = 2.0 * ms_exponent_exact(P_REF, dt).value
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
        assert rep.converged
        assert abs(rep.value) <= rep.bound

    @settings(max_examples=150, deadline=None)
    @given(params_strategy)
    def test_consistency_identity_random(self, draw):
        lam, eps, sig, dt = draw
        p = ModelParams(lam=lam, epsilon=eps, sigma=sig)
        a = continuum_ms_exponent(p)
        mu = (lam + 0.5 * eps * eps) ** 2 + 0.5 * sig**4
        assume((2.0 * abs(a) + mu * dt) * dt < 0.5)
        rep = ms_remainder(p, dt)
        lhs = 2.0 * a + rep.value
        rhs = 2.0 * ms_exponent_exact(p, dt).value
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
        assert abs(rep.value) <= rep.bound + 1e-12

    def test_divergent_series_rejected(self):
        with pytest.raises(ValueError):
            ms_remainder(P_REF, 0.9)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            RemainderReport(value=2.0, bound=1.0, terms_used=3, converged=True)
        # unconverged reports may exceed the bound without complaint
        RemainderReport(value=2.0, bound=1.0, terms_used=200, converged=False)


def _at_gamma(gamma):
    """A sigma = 0 point whose gamma_dt at dt = 0.5 is exactly gamma."""
    p = ModelParams(lam=(gamma - 1.0) / 0.5, epsilon=0.0, sigma=0.0)
    assert gamma_dt(p, 0.5) == gamma
    return p


class TestAlmostSureDomain:
    """One domain, F > 0, for every almost-sure estimator: gamma_dt > 1/2 for the plain factor.

    The sandwich lemma's gamma_dt > 3/4 is xi_expectation's alone.
    """

    REFUSAL = (
        "the step factor's lower bound c0 - 1/(2*denom) = 0.0 must be positive for the "
        "almost-sure exponent estimators"
    )

    def test_boundary_refused(self):
        p = _at_gamma(0.5)
        estimators = [
            lambda: as_exponent_quadrature(p, 0.5),
            lambda: as_exponent_mc(p, 0.5, n_samples=1000, seed=0),
            lambda: theta_as_exponent_quadrature(p, 0.0, 0.5),
        ]
        for refused in estimators:
            with pytest.raises(ValueError) as exc:
                refused()
            assert str(exc.value) == self.REFUSAL

    def test_one_ulp_above_accepted(self):
        gamma = math.nextafter(0.5, 1.0)
        p = _at_gamma(gamma)
        value = as_exponent_quadrature(p, 0.5).value
        assert value == math.log(gamma) / 0.5
        assert theta_as_exponent_quadrature(p, 0.0, 0.5).value == value
        assert as_exponent_mc(p, 0.5, n_samples=1000, seed=0).value == value

    def test_xi_keeps_the_lemma_condition(self):
        refusal = (
            "gamma_dt = 0.75 must exceed 3/4 for the xi bound: its domain x > -2*gamma_dt/3 "
            "must hold the composite increment's minimum -1/2"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            xi_expectation(_at_gamma(0.75), 0.5)
        assert xi_expectation(_at_gamma(math.nextafter(0.75, 1.0)), 0.5) == 0.0
        # inside the estimators' domain but below the lemma's
        as_exponent_quadrature(_at_gamma(0.75), 0.5)
        with pytest.raises(ValueError, match="must exceed 3/4 for the xi bound"):
            xi_expectation(_at_gamma(0.6), 0.5)

    # (lam, sigma, dt, value): gamma_dt = 0.6995 and 0.68125, between 1/2 and 3/4
    BAND = [(-300.0, 1.0, 1e-3, -357.6960707479397), (-2.0, 0.5, 0.15, -2.6397224430050565)]

    @pytest.mark.parametrize("lam, sigma, dt, value", BAND)
    def test_band_answered(self, lam, sigma, dt, value):
        p = ModelParams(lam=lam, epsilon=0.0, sigma=sigma)
        assert 0.5 < gamma_dt(p, dt) <= 0.75
        assert as_exponent_quadrature(p, dt).value == value
        assert theta_as_exponent_quadrature(p, 0.0, dt).value == value
        want = _mp_exponent(lam, 0.0, sigma, dt)
        assert abs(value - want) <= 1e-13 * max(abs(want), 1.0)

    def test_monte_carlo_in_the_band(self):
        p = ModelParams(lam=-300.0, epsilon=0.0, sigma=1.0)
        est = as_exponent_mc(p, 1e-3, n_samples=200_000, seed=11)
        assert abs(est.value - as_exponent_quadrature(p, 1e-3).value) <= 3.0 * est.std_error


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=-4.0, max_value=math.log10(0.9)),
)
def test_plain_and_theta_zero_share_one_domain(gamma, sigma, log_dt):
    # at epsilon = 0 the plain factor and the theta = 0 factor are one factor:
    # the same bits, or the same refusal, near gamma_dt = 1/2 and 3/4 too
    dt = 10.0**log_dt
    p = ModelParams(lam=(gamma - 1.0) / dt + 0.5 * sigma * sigma, epsilon=0.0, sigma=sigma)

    def outcome(estimator):
        try:
            return estimator().value.hex()
        except ValueError as exc:
            return str(exc)

    plain = outcome(lambda: as_exponent_quadrature(p, dt))
    assert plain == outcome(lambda: theta_as_exponent_quadrature(p, 0.0, dt))


class TestAlmostSureQuadrature:
    def test_frozen_values(self):
        assert as_exponent_quadrature(P_STABLE, 1e-3).value == pytest.approx(
            -1.7955495083582518, abs=1e-12
        )
        assert as_exponent_quadrature(P_REF, 1e-3).value == pytest.approx(
            2.1094338480844055, abs=1e-12
        )

    def test_adaptive_quadrature_route(self):
        # independent oracle: scipy adaptive quadrature of the same integrand
        dt = 1e-3
        g = gamma_dt(P_REF, dt)
        s = 4.0 * math.sqrt(dt)

        def f(y):
            return (
                math.log(g + s * y + 0.5 * s * s * y * y)
                * math.exp(-0.5 * y * y)
                / math.sqrt(2.0 * math.pi)
            )

        ref, err = quad(f, -13.0, 13.0, limit=200)
        assert err < 1e-12
        assert as_exponent_quadrature(P_REF, dt).value == pytest.approx(ref / dt, rel=1e-10)

    def test_gamma_restriction(self):
        p = ModelParams(lam=-600.0, epsilon=0.0, sigma=1.0)  # gamma_dt = 0.3995
        with pytest.raises(ValueError, match="must be positive for the almost-sure"):
            as_exponent_quadrature(p, 1e-3)

    def test_doubling_guard_fires(self):
        # a huge increment scale defeats 201 nodes and must be reported
        with pytest.raises(ValueError):
            as_exponent_quadrature(P_REF, 0.5)


def _factor(lam, eps, sigma, dt, theta=None):
    return scheme._factor(ModelParams(lam=lam, epsilon=eps, sigma=sigma), dt, theta)


def _almost_sure(lam, eps, sigma, dt, theta=None):
    p = ModelParams(lam=lam, epsilon=eps, sigma=sigma)
    if theta is None:
        return as_exponent_quadrature(p, dt).value
    return theta_as_exponent_quadrature(p, theta, dt).value


def _mp_exponent(lam, eps, sigma, dt, theta=None):
    """(1/dt) * E log F by 40-digit mpmath quadrature on the exact parameters."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam, eps, sigma, dt = (mp.mpf(x) for x in (lam, eps, sigma, dt))
        th = mp.mpf(0 if theta is None else theta)
        denom = 1 - lam * th * dt
        c0 = (1 + (lam * (1 - th) + eps * eps / 2 - sigma * sigma / 2) * dt) / denom
        s = sigma * mp.sqrt(dt)

        def integrand(y):
            f = c0 + (s * y + s * s * y * y / 2) / denom
            return mp.log(f) * mp.exp(-y * y / 2) / mp.sqrt(2 * mp.pi)

        return float(mp.quad(integrand, [-mp.inf, -10, -3, 0, 3, 10, mp.inf]) / dt)


class TestRootSeries:
    """The small-noise series of _quad, and where it hands over to Gauss-Hermite."""

    # (lam, epsilon, sigma, theta, dt, answered by the series)
    ORACLE_POINTS = [
        (8.0, 2.0, 4.0, None, 1e-3, True),
        (8.0, 2.0, 4.0, None, 1e-7, True),
        (6.0, 0.5, 3.5, None, 1e-5, True),
        (8.0, 2.0, 4.0, None, 1e-2, False),
        (1.0, 0.0, 2.0, None, 1e-2, False),
        (8.0, 0.0, 4.0, 0.5, 1e-3, True),
        (8.0, 0.0, 4.0, 0.5, 1e-2, False),
        (30.0, 0.0, 8.0, 0.5, 1e-3, False),
        (8.0, 0.0, 4.0, 1.0, 1e-5, True),
        (-3.0, 0.0, 1.0, 1.0, 1e-4, True),
        (8.0, 0.0, 4.0, 1.0, 1e-2, False),
    ]

    @pytest.mark.parametrize("lam, eps, sigma, theta, dt, series", ORACLE_POINTS)
    def test_against_mpmath(self, lam, eps, sigma, theta, dt, series):
        assert (_root_series(_factor(lam, eps, sigma, dt, theta)) is not None) == series
        got = _almost_sure(lam, eps, sigma, dt, theta)
        assert abs(got - _mp_exponent(lam, eps, sigma, dt, theta)) <= 1e-13

    @pytest.mark.parametrize(
        "lam, eps, sigma, theta, dt",
        [(8.0, 2.0, 4.0, None, 1e-8), (6.0, 0.5, 3.5, None, 1e-5), (8.0, 0.0, 4.0, 1.0, 1e-5)],
    )
    def test_points_quadrature_refuses_are_answered(self, monkeypatch, lam, eps, sigma, theta, dt):
        a = continuum_as_exponent(ModelParams(lam=lam, epsilon=eps, sigma=sigma))
        value = _almost_sure(lam, eps, sigma, dt, theta)
        assert abs(value - a) < 1e-2 * max(abs(a), 1.0)
        monkeypatch.setattr(exponents, "_root_series", lambda f: None)
        with pytest.raises(ValueError, match="quadrature non-convergence"):
            _almost_sure(lam, eps, sigma, dt, theta)

    @pytest.mark.parametrize(
        "theta, dt, bits",
        [
            (None, 1e-1, "0x1.19590e3cdc814p+2"),
            (None, 1e-2, "0x1.7c26a5213d338p+1"),
            (0.5, 1e-2, "0x1.401a877f5d167p-1"),
        ],
    )
    def test_quadrature_regime_keeps_its_bits(self, theta, dt, bits):
        eps = 2.0 if theta is None else 0.0
        assert _root_series(_factor(8.0, eps, 4.0, dt, theta)) is None
        assert _almost_sure(8.0, eps, 4.0, dt, theta).hex() == bits

    # (lam, epsilon, sigma, theta, dt), each with sigma^2*dt above 0.02, so
    # that Gauss-Hermite answers
    GAUSS_HERMITE_POINTS = [
        (8.0, 2.0, 4.0, None, 0.1),
        (-2.0, 0.0, 0.5, None, 0.15),
        (8.0, 2.0, 4.0, None, 1e-2),
        (1.0, 0.0, 2.0, None, 1e-2),
        (6.0, 0.5, 4.0, None, 0.05),
        (-3.0, 1.0, 1.0, None, 0.1),
        (8.0, 0.0, 4.0, 0.5, 1e-2),
        (8.0, 0.0, 4.0, 0.5, 0.05),
        (30.0, 0.0, 8.0, 0.5, 1e-3),
        (8.0, 0.0, 4.0, 1.0, 1e-2),
        (-1.0, 0.0, 2.0, 1.0, 0.02),
        (-2.0, 0.0, 0.5, 0.5, 0.15),
    ]

    @pytest.mark.parametrize("lam, eps, sigma, theta, dt", GAUSS_HERMITE_POINTS)
    def test_gauss_hermite_route_against_mpmath(self, lam, eps, sigma, theta, dt):
        assert _root_series(_factor(lam, eps, sigma, dt, theta)) is None
        want = _mp_exponent(lam, eps, sigma, dt, theta)
        got = _almost_sure(lam, eps, sigma, dt, theta)
        assert abs(got - want) <= DOUBLING_RTOL * abs(want)


def _criterion_3_points():
    """The ten (lam, epsilon, sigma) triples that acceptance criterion 3 draws."""
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 999], dtype=np.uint64)))
    points = []
    while len(points) < 10:
        p = ModelParams(
            lam=rng.uniform(-8.0, 8.0), epsilon=rng.uniform(-4.0, 4.0), sigma=rng.uniform(-5.0, 5.0)
        )
        if gamma_dt(p, 1e-3) > 0.9:
            points.append(p)
    return points


def _gauss_hermite_exponent(f, n):
    """(1/dt) * E log F on the n-point Gauss-Hermite rule, by numpy's log and sum."""
    rule = gauss_hermite_rule(n)
    logs = np.log(f.of_normals(np.array(rule.nodes)))
    return float(np.sum(np.array(rule.weights) * logs)) / f.dt


def test_gauss_hermite_route_at_criterion_3_points(monkeypatch):
    # criterion 3's estimates come from the root series at these points, so
    # the quadrature route is checked here directly at the same points. The
    # agreement is relative with a floor of 1: one exponent is -1.1e-3, and
    # Gauss-Hermite's own error (rounding of c0, over dt) is up to 1e-13.
    points = _criterion_3_points()
    series = [as_exponent_quadrature(p, 1e-3).value for p in points]
    monkeypatch.setattr(exponents, "_root_series", lambda f: None)
    for p, value in zip(points, series):
        q1, q2 = (_gauss_hermite_exponent(scheme._factor(p, 1e-3), n) for n in (201, 402))
        assert abs(q1 - q2) <= 1e-10 * max(abs(q1), abs(q2))
        assert abs(value - q1) <= 1e-12 * max(abs(value), abs(q1), 1.0)


@pytest.mark.parametrize(
    "lam, eps, sigma, theta, dt",
    [*TestRootSeries.GAUSS_HERMITE_POINTS,
     *((p.lam, p.epsilon, p.sigma, None, 1e-3) for p in _criterion_3_points())],
)
def test_the_route_is_numpy_s_sum_of_its_rule(monkeypatch, lam, eps, sigma, theta, dt):
    # the route sums in pure Python (math.log, math.fsum) what numpy sums on
    # the same 201 nodes: the two differ only in the last bits of the logs
    # and of the sum. Relative, with a floor of 1 (one exponent is -1.1e-3).
    monkeypatch.setattr(exponents, "_root_series", lambda f: None)
    want = _gauss_hermite_exponent(_factor(lam, eps, sigma, dt, theta), exponents.QUAD_NODES)
    got = _almost_sure(lam, eps, sigma, dt, theta)
    assert abs(got - want) <= 1e-14 * max(abs(want), 1.0)


def test_a_node_whose_factor_rounds_to_zero_gives_a_refusal():
    # gamma_dt is one ulp above 1/2, so F > 0 for every increment, but F
    # rounds to exactly 0 at the 201-node rule's node z = -6.93...: its log
    # is -inf, as numpy's is, and no math domain error escapes
    p = ModelParams(lam=-1.9583577306549547, epsilon=0.0, sigma=0.28859060741834547)
    f = scheme._factor(p, 0.25)
    assert _root_series(f) is None
    assert 0.0 in [f.of_normals(z) for z in gauss_hermite_rule(exponents.QUAD_NODES).nodes]
    with pytest.raises(ValueError, match=r"^as-quad exponent must be finite, got -inf$"):
        as_exponent_quadrature(p, 0.25)


class TestFirstOrderConstant:
    """(E log F)/dt = a + c1*dt + O(dt^2), read off the exponent at dt = 1e-6."""

    @pytest.mark.parametrize(
        "lam, eps, sigma, theta",
        [
            (8.0, 2.0, 4.0, None),
            (-3.0, 1.0, 0.5, None),
            (8.0, 0.0, 4.0, 0.5),
            (6.0, 0.0, 4.0, 1.0),
        ],
    )
    def test_matches_the_exponent(self, lam, eps, sigma, theta):
        p = ModelParams(lam=lam, epsilon=eps, sigma=sigma)
        dt = 1e-6
        slope = (_almost_sure(lam, eps, sigma, dt, theta) - continuum_as_exponent(p)) / dt
        assert slope == pytest.approx(c1(p, theta), rel=1e-3)

    def test_closed_forms(self):
        assert c1(P_REF) == 110.0
        assert c1(ModelParams(lam=8.0, epsilon=0.0, sigma=4.0), 0.0) == c1(
            ModelParams(lam=8.0, epsilon=0.0, sigma=4.0)
        )

    def test_theta_needs_scalar_case(self):
        with pytest.raises(ValueError, match="epsilon = 0"):
            c1(P_REF, 0.5)
        with pytest.raises(ValueError, match="theta"):
            c1(ModelParams(lam=8.0, epsilon=0.0, sigma=4.0), 1.5)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from([None, 0.0, 0.5, 1.0]),
    st.floats(min_value=-5.0, max_value=math.log10(0.8)),
)
def test_jensen_as_below_ms(lam, eps, sigma, theta, log_dt):
    # E log F <= (1/2) log E F^2 at every in-domain point. As sigma -> 0 the
    # two sides meet and the rounding of c0 alone puts E log F up to about
    # 3.5e-16 above, so the slack is 16 ulps of 1 in E log F units.
    dt = 10.0**log_dt
    if theta is not None:
        eps = 0.0
    p = ModelParams(lam=lam, epsilon=eps, sigma=sigma)
    try:
        if theta is None:
            almost_sure = as_exponent_quadrature(p, dt).value
            mean_square = ms_exponent_exact(p, dt).value
        else:
            almost_sure = theta_as_exponent_quadrature(p, theta, dt).value
            mean_square = theta_ms_exponent(p, theta, dt).value
    except ValueError:  # outside the almost-sure domain, or refused by the doubling check
        assume(False)
    assert (almost_sure - mean_square) * dt <= 16.0 * sys.float_info.epsilon


class TestAlmostSureMonteCarlo:
    def test_deterministic_and_thread_invariant(self):
        kw = dict(n_samples=300_000, seed=11)
        a = as_exponent_mc(P_REF, 1e-3, **kw)
        b = as_exponent_mc(P_REF, 1e-3, **kw)
        c = as_exponent_mc(P_REF, 1e-3, threads=4, **kw)
        assert a.value == b.value == c.value
        assert a.std_error == b.std_error == c.std_error

    def test_agrees_with_quadrature(self):
        est = as_exponent_mc(P_REF, 1e-3, n_samples=200_000, seed=11)
        ref = as_exponent_quadrature(P_REF, 1e-3).value
        assert abs(est.value - ref) <= 4.0 * est.std_error

    def test_zero_noise_shortcut(self):
        p = ModelParams(lam=2.0, epsilon=1.0, sigma=0.0)
        est = as_exponent_mc(p, 1e-3, n_samples=1000, seed=0)
        assert est.value == pytest.approx(math.log(gamma_dt(p, 1e-3)) / 1e-3, rel=1e-14)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("dt", [1e-3, 1e-10])
    def test_zero_noise_keeps_c0m1(self, dt):
        # log(c0) loses c0 - 1 to the rounding of c0: at dt = 1e-10 it gave
        # 10.00000082240371 against the exact 9.999999995
        p = ModelParams(lam=8.0, epsilon=2.0, sigma=0.0)
        est = as_exponent_mc(p, dt, n_samples=1000, seed=0)
        assert est.value == as_exponent_quadrature(p, dt).value
        assert est.std_error == 0.0
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float(mp.log1p(mp.mpf(10.0) * mp.mpf(dt)) / mp.mpf(dt))
        assert est.value == pytest.approx(want, rel=1e-15)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            as_exponent_mc(P_REF, 1e-3, n_samples=50, seed=0)

    def test_estimate_carries_sample_count(self):
        est = as_exponent_mc(P_REF, 1e-3, n_samples=1000, seed=0)
        assert est.n_samples == 1000
        assert est.std_error > 0.0


def _centred_log_std(lam: float, sigma: float, dt: float) -> float:
    """Standard deviation of log F / dt for the plain factor at epsilon = 0.

    Independent oracle: log F - log c0 = log1p((a1*y + a2*y^2)/c0) under
    numpy's Gauss-Hermite rule, so a tiny noise term never cancels against
    log c0.
    """
    y, w = np.polynomial.hermite_e.hermegauss(100)
    w = w / w.sum()
    c0 = 1.0 + (lam - 0.5 * sigma * sigma) * dt
    s = sigma * math.sqrt(dt)
    g = np.log1p((s * y + 0.5 * s * s * y * y) / c0)
    mean = float(g @ w)
    return math.sqrt(float((g - mean) ** 2 @ w)) / dt


class TestMonteCarloErrorBar:
    """The error bar must not cancel when log|F| barely varies about its mean."""

    @pytest.mark.parametrize(
        "lam, sigma", [(8.0, 1e-9), (-100.0, 1e-10), (100.0, 1e-9)]
    )
    def test_small_noise_std_error(self, lam, sigma):
        p = ModelParams(lam=lam, epsilon=0.0, sigma=sigma)
        n = 10**6
        est = as_exponent_mc(p, 1e-3, n_samples=n, seed=3)
        expected = _centred_log_std(lam, sigma, 1e-3) / math.sqrt(n)
        assert est.std_error == pytest.approx(expected, rel=0.1)
        two = as_exponent_mc(p, 1e-3, n_samples=n, seed=3, threads=2)
        assert (two.value, two.std_error) == (est.value, est.std_error)

    def test_block_combination_matches_pooled_samples(self):
        # three blocks, the last one partial; pooled two-pass statistics of
        # the same draws are the reference
        n, seed, dt = 600_000, 5, 1e-3
        est = as_exponent_mc(P_REF, dt, n_samples=n, seed=seed)
        g, s = gamma_dt(P_REF, dt), P_REF.sigma
        logs = []
        for bid, start in enumerate(range(0, n, MC_BLOCK)):
            zeta = RngStream(root_seed=seed, stream_id=bid).normals(min(MC_BLOCK, n - start))
            dB = math.sqrt(dt) * zeta
            logs.append(np.log(g + s * dB + 0.5 * s * s * dB * dB))
        logs = np.concatenate(logs)
        assert est.value == pytest.approx(logs.mean() / dt, rel=1e-12)
        assert est.std_error == pytest.approx(logs.std(ddof=1) / math.sqrt(n) / dt, rel=1e-10)

    @pytest.mark.parametrize(
        "factor",
        [
            scheme._factor(ModelParams(lam=1.0, epsilon=0.5, sigma=3.0), 1e-3),
            scheme._factor(ModelParams(lam=-30.0, epsilon=0.0, sigma=1.7), 1e-2, 0.5),
        ],
        ids=["plain", "denom"],
    )
    def test_in_place_block_matches_two_pass_reference(self, factor):
        # the sliced in-place kernel must equal the written-out factor with
        # numpy temporaries bit for bit, for the plain factor and one with
        # denom != 1, at counts on both sides of a slice edge and a full block
        seed, block_id = 9, 4
        counts = (100_003, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 5, MC_BLOCK)
        for count in counts:
            zeta = RngStream(root_seed=seed, stream_id=block_id).normals(count)
            dB = math.sqrt(factor.dt) * zeta
            s = factor.sigma
            logs = np.log(factor.c0 + (s * dB + 0.5 * s * s * dB * dB) / factor.denom)
            mean = float(np.sum(logs)) / count
            dev = logs - mean
            expected = (count, mean, float(np.sum(dev * dev)))
            assert _mc_block(factor, seed, block_id, count) == expected, count

    def test_block_memory_is_one_block_and_a_slice(self):
        # the whole-block kernel held a factor temporary the size of the block
        f = scheme._factor(P_REF, 1e-3)
        _mc_block(f, 1, 0, 100)  # the first stream of a process loads numpy.random state
        tracemalloc.start()
        try:
            _mc_block(f, 1, 0, MC_BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * MC_BLOCK


class TestWorkerPool:
    """_map_indexed starts min(threads, tasks, usable CPUs) worker threads."""

    @pytest.fixture
    def built(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            @staticmethod
            def submit(fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(exponents, "ThreadPoolExecutor", SerialPool)
        return sizes

    @pytest.mark.parametrize(
        "threads, count, cpus, workers",
        [
            (5000, 3815, 2, 2),  # limited by the CPUs
            (5000, 3, 64, 3),  # limited by the task count
            (4, 3815, 64, 4),  # limited by threads
            (5000, 1, 64, None),  # one task runs inline
            (1, 3815, 64, None),  # one thread runs inline
            (5000, 3815, 1, None),  # one CPU runs inline
        ],
    )
    def test_pool_size(self, built, monkeypatch, threads, count, cpus, workers):
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: cpus)
        assert list(_map_indexed(lambda i: i * i, count, threads)) == [i * i for i in range(count)]
        assert built == ([] if workers is None else [workers])

    def test_runs_at_most_two_calls_per_worker_ahead(self, monkeypatch):
        # a slow caller used to find every call started, and every result held
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
        started = []
        for i, got in enumerate(_map_indexed(lambda j: started.append(j) or j, 50, 2)):
            assert got == i
            time.sleep(0.001)
            assert len(started) <= i + 2 * 2

    def test_one_pool_serves_every_call(self, built, monkeypatch):
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
        for count in (2, 50, 1, 3):
            assert list(_map_indexed(lambda i: -i, count, 2)) == [-i for i in range(count)]
        assert built == [2]
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 3)
        assert list(_map_indexed(lambda i: -i, 3, 3)) == [0, -1, -2]
        assert built == [2, 3]  # a new worker count builds a new pool

    def test_each_calling_thread_keeps_its_own_pool(self, monkeypatch):
        # four callers of two workers each on a 2-CPU host, switching often;
        # once the callers end, their pools are freed and the idle workers end
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
        pools = {}

        def caller(k):
            got = [list(_map_indexed(lambda i: i * k, 20, 2)) for _ in range(3)]
            pool = exponents._pools.pool
            pools[k] = (id(pool), weakref.ref(pool))
            return got

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                results = list(callers.map(caller, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [[[i * k for i in range(20)]] * 3 for k in range(4)]
        assert len({pool_id for pool_id, _ in pools.values()}) == 4
        deadline = time.monotonic() + 10.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
        assert all(ref() is None for _, ref in pools.values())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_starts_its_own_workers(self, monkeypatch):
        # a child inherits its parent's pool but none of its workers; reusing
        # that pool queued the child's calls where no thread took them
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
        assert list(_map_indexed(lambda i: -i, 8, 2)) == [-i for i in range(8)]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if list(_map_indexed(lambda i: -i, 8, 2)) == [-i for i in range(8)] else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the child's threaded call did not return within 30 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.parametrize("stop", ["close", "raise"])
    def test_stopping_early_cancels_the_calls_not_started(self, monkeypatch, stop):
        # a consumer that stops (a failed --out write) used to wait for every
        # call already queued; a call that raises stopped the same way. The
        # calls still running are waited for, so none outlives the generator.
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
        started, ended = [], []

        def call(j):
            started.append(j)
            time.sleep(0.01 if j == 0 else 0.2)  # call 0 ends while 1 and 2 run
            ended.append(j)
            if stop == "raise" and j == 0:
                raise ValueError("refused")
            return j

        calls = _map_indexed(call, 50, 2)
        if stop == "close":
            assert next(calls) == 0
            calls.close()
        else:
            with pytest.raises(ValueError, match="refused"):
                next(calls)
        assert sorted(started) == sorted(ended) == [0, 1, 2]  # call 3 was queued, and no more

    def test_the_tracer_leaves_no_threads(self, monkeypatch):
        # each install and uninstall swaps the pool class, so each call builds a
        # pool; the one it replaces is freed, and its idle workers end
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.spans import Tracer

        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
        kw = dict(n_samples=2 * MC_BLOCK, seed=3, threads=2)
        expected = as_exponent_mc(P_REF, 1e-3, **kw)
        before = threading.active_count()
        for _ in range(5):
            tracer = Tracer()
            tracer.install()
            try:
                assert as_exponent_mc(P_REF, 1e-3, **kw) == expected
            finally:
                tracer.uninstall()
            assert as_exponent_mc(P_REF, 1e-3, **kw) == expected
        deadline = time.monotonic() + 10.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_estimators_use_the_bound(self, built, monkeypatch):
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: 64)
        kw = dict(n_samples=2 * MC_BLOCK + 1, seed=3)
        assert as_exponent_mc(P_REF, 1e-3, threads=5000, **kw) == as_exponent_mc(P_REF, 1e-3, **kw)
        kw = dict(seed=3, n_paths=4, n_steps=100)
        many = estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, threads=5000, **kw)
        assert many == estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, **kw)
        assert built == [3, 4]


class TestPathSlope:
    def _path(self, slope: float, dt: float = 0.1, n: int = 10) -> LogModulusPath:
        values = slope * dt * np.arange(n + 1, dtype=float)
        return LogModulusPath(dt=dt, log_values=values)

    def test_exact_on_linear_paths(self):
        est = as_exponent_path_slope([self._path(1.0), self._path(3.0)])
        assert est.value == pytest.approx(2.0, rel=1e-12)
        assert est.std_error == pytest.approx(1.0, rel=1e-12)
        assert est.n_samples == 2

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            as_exponent_path_slope([self._path(1.0)])

    def test_mismatched_grids(self):
        with pytest.raises(ValueError):
            as_exponent_path_slope([self._path(1.0, dt=0.1), self._path(1.0, dt=0.2)])

    def test_takes_a_stream_and_lets_each_path_go(self):
        slopes = (1.0, 3.0, -2.0, 0.5)
        held = []

        def stream():
            for slope in slopes:
                # only the last path handed out may still be alive when the next is made
                assert all(ref() is None for ref in held[:-1])
                path = self._path(slope)
                held.append(weakref.ref(path))
                yield path
                del path  # this generator's own reference

        est = as_exponent_path_slope(stream())
        assert est == as_exponent_path_slope([self._path(slope) for slope in slopes])
        assert len(held) == len(slopes)

    def test_stream_refusals(self):
        with pytest.raises(ValueError, match="^need at least 2 paths, got 1$"):
            as_exponent_path_slope(path for path in [self._path(1.0)])
        with pytest.raises(ValueError, match="^need at least 2 paths, got 0$"):
            as_exponent_path_slope(iter([]))
        grids = [self._path(1.0), self._path(1.0), self._path(1.0, n=11)]
        with pytest.raises(ValueError, match="^mismatched grids: all paths must share dt"):
            as_exponent_path_slope(path for path in grids)

    @pytest.mark.parametrize("n_paths", [-5, 0, 1])
    def test_estimate_refuses_too_few_paths_before_simulating(self, monkeypatch, n_paths):
        calls = []
        monkeypatch.setattr(exponents, "simulate_path", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^need at least 2 paths, got {n_paths}$"):
            estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, n_paths=n_paths, n_steps=10**7)
        assert calls == []

    def test_estimate_dispatch_runs_paths(self):
        est = estimate(
            P_REF, 1e-3, Method.AS_PATH_SLOPE, seed=42, n_paths=10, n_steps=2000
        )
        assert est.method is Method.AS_PATH_SLOPE
        assert est.n_samples == 10
        # reproduces a manual run over the same streams
        cfg = SchemeConfig(dt=1e-3, n_steps=2000)
        paths = [
            simulate_path(P_REF, cfg, RngStream(root_seed=42, stream_id=i)) for i in range(10)
        ]
        assert est.value == as_exponent_path_slope(paths).value

    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimate_memory_does_not_grow_with_paths(self, threads):
        # Keeping every path's log values until the last was simulated peaked
        # at about 150 of the arrays below for 128 paths. A simulation holds
        # about 6 at its peak, and a pool runs at most 2 paths per worker ahead.
        n_steps = 10_000
        estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, n_paths=2, n_steps=100)  # loads numpy.random
        tracemalloc.start()
        try:
            estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, seed=5, threads=threads, n_paths=128,
                     n_steps=n_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * (n_steps + 1)

    def test_estimate_is_thread_invariant(self):
        kw = dict(seed=11, n_paths=7, n_steps=300)
        one = estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, threads=1, **kw)
        two = estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, threads=2, **kw)
        assert two == one
        assert (two.value, two.std_error) == (one.value, one.std_error)


class TestThetaFamily:
    P0 = ModelParams(lam=6.0, epsilon=0.0, sigma=4.0)

    def test_theta_zero_matches_plain_ms(self):
        for dt in (1e-2, 1e-3, 1e-4, 1e-5):
            a = theta_ms_exponent(self.P0, 0.0, dt).value
            b = ms_exponent_exact(self.P0, dt).value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_theta_zero_quadrature_bitwise(self):
        # dt = 1e-3 is answered by the root series, 1e-2 by Gauss-Hermite
        for dt, series in ((1e-3, True), (1e-2, False)):
            assert (_root_series(scheme._factor(self.P0, dt)) is not None) == series
            a = theta_as_exponent_quadrature(self.P0, 0.0, dt).value
            b = as_exponent_quadrature(self.P0, dt).value
            assert a == b

    def test_limits(self):
        # both theta values converge to lam +- sigma^2/2 as dt shrinks
        for theta in (0.5, 1.0):
            assert theta_ms_exponent(self.P0, theta, 1e-7).value == pytest.approx(
                14.0, rel=1e-5
            )
            assert theta_as_exponent_quadrature(self.P0, theta, 1e-7).value == pytest.approx(
                -2.0, abs=1e-3
            )

    @pytest.mark.parametrize("lam, sigma", [(6.0, 4.0), (-3.0, 1.0)])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_ms_against_second_moment(self, lam, sigma, theta, dt):
        # independent route: E F^2 = c0^2 + 2*c0*a2 + a1^2 + 3*a2^2 for
        # F = c0 + a1*Y + a2*Y^2, Y ~ N(0, 1), with c0 - 1 formed exactly
        d = 1.0 - lam * theta * dt
        c0_m1 = (lam - 0.5 * sigma * sigma) * dt / d
        c0 = 1.0 + c0_m1
        a1 = sigma * math.sqrt(dt) / d
        a2 = 0.5 * sigma * sigma * dt / d
        base_m1 = c0_m1 * (c0 + 1.0) + 2.0 * c0 * a2 + a1 * a1 + 3.0 * a2 * a2
        ref = math.log1p(base_m1) / (2.0 * dt)
        got = theta_ms_exponent(ModelParams(lam=lam, epsilon=0.0, sigma=sigma), theta, dt).value
        assert got == pytest.approx(ref, rel=1e-13)

    def test_epsilon_rejected(self):
        with pytest.raises(ValueError):
            theta_ms_exponent(P_REF, 0.5, 1e-3)
        with pytest.raises(ValueError):
            theta_as_exponent_quadrature(P_REF, 0.5, 1e-3)

    def test_pole_rejected(self):
        p = ModelParams(lam=10.0, epsilon=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            theta_ms_exponent(p, 1.0, 0.1)

    def test_log_argument_floor(self):
        p = ModelParams(lam=-600.0, epsilon=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            theta_as_exponent_quadrature(p, 0.0, 1e-3)

    def test_estimate_requires_theta(self):
        with pytest.raises(ValueError):
            estimate(self.P0, 1e-3, Method.THETA_MS_EXACT)


#: (lam, sigma, dt) of the theta triangle, epsilon = 0; the last point is
#: answered by Gauss-Hermite, the others by the root series.
_THETA_TRIANGLE = [(8.0, 4.0, 1e-2), (8.0, 4.0, 1e-3), (-2.0, 0.5, 0.15), (-1.0, 2.0, 0.02),
                   (3.0, 3.0, 0.05)]


class TestThetaThroughEveryMethod:
    """--theta picks the scheme for every method, through scheme._factor."""

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam, sigma, dt", [(8.0, 4.0, 1e-3), (-1.0, 2.0, 0.02),
                                                (3.0, 3.0, 0.05)])
    def test_plain_methods_answer_the_theta_methods_bits(self, lam, sigma, dt, theta):
        p = ModelParams(lam=lam, epsilon=0.0, sigma=sigma)
        assert ms_exponent_exact(p, dt, theta).value == theta_ms_exponent(p, theta, dt).value
        assert (as_exponent_quadrature(p, dt, theta).value
                == theta_as_exponent_quadrature(p, theta, dt).value)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_sampling_triangle(self, theta):
        # criterion 3's triangle on the theta scheme: Monte Carlo and path
        # slopes within 3 standard errors of the deterministic theta-as
        for i, (lam, sigma, dt) in enumerate(_THETA_TRIANGLE):
            p = ModelParams(lam=lam, epsilon=0.0, sigma=sigma)
            ref = estimate(p, dt, Method.THETA_AS_QUADRATURE, theta=theta).value
            mc = estimate(p, dt, Method.AS_MONTE_CARLO, theta=theta, n_samples=1 << 20,
                          seed=7000 + i)
            slope = estimate(p, dt, Method.AS_PATH_SLOPE, theta=theta, n_paths=64,
                             n_steps=1 << 14, seed=7000 + i)
            for est in (mc, slope):
                assert abs(est.value - ref) <= 3.0 * est.std_error, (theta, lam, sigma, dt, est)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "model, theta, refusal",
        [((8.0, 2.0, 4.0), 0.5, "theta scheme requires epsilon = 0"),
         ((8.0, 0.0, 4.0), 1.5, "theta must lie in [0, 1]")],
        ids=["epsilon", "theta"],
    )
    def test_every_method_checks_theta(self, method, model, theta, refusal):
        p = ModelParams(*model)
        for check in (
            lambda: exponents.check_dt_free(p, method, theta=theta),
            lambda: estimate(p, 1e-3, method, theta=theta, n_samples=1000, n_paths=2, n_steps=10),
        ):
            with pytest.raises(ValueError, match=re.escape(refusal)):
                check()


class TestEstimateContainer:
    def test_std_error_contract(self):
        with pytest.raises(ValueError):
            ExponentEstimate(value=1.0, method=Method.MS_EXACT, dt=1e-3, std_error=0.1)
        with pytest.raises(ValueError):
            ExponentEstimate(value=1.0, method=Method.AS_MONTE_CARLO, dt=1e-3)
        with pytest.raises(ValueError):
            ExponentEstimate(
                value=1.0, method=Method.AS_MONTE_CARLO, dt=1e-3, std_error=-0.5
            )
        with pytest.raises(ValueError, match="^std_error must be finite and nonnegative, got inf$"):
            ExponentEstimate(value=1.0, method=Method.AS_PATH_SLOPE, dt=1e-3, std_error=math.inf)

    def test_method_slugs(self):
        assert {m.value for m in Method} == {
            "ms-exact",
            "as-quad",
            "as-mc",
            "as-slope",
            "theta-ms",
            "theta-as",
        }


class TestFits:
    def test_recovers_power_law(self):
        dts = [1e-2, 1e-3, 1e-4, 1e-5]
        errors = [3.0 * dt**1.5 for dt in dts]
        fit = fit_loglog(dts, errors)
        assert fit.order_p == pytest.approx(1.5, rel=1e-12)
        assert fit.constant_C == pytest.approx(3.0, rel=1e-10)
        assert fit.residual < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog([1e-2, 1e-3], [0.1, 0.01])

    def test_zero_error_below_resolution(self):
        with pytest.raises(ValueError, match="below resolution"):
            fit_loglog([1e-2, 1e-3, 1e-4], [0.1, 0.0, 0.001])

    def test_needs_two_distinct_step_sizes(self):
        with pytest.raises(ValueError, match="at least 2 distinct step sizes"):
            fit_loglog([1e-3, 1e-3, 1e-3], [0.2, 0.3, 0.4])
        fit = fit_loglog([1e-3, 1e-3, 1e-4], [0.2, 0.2, 0.02])
        assert fit.order_p == pytest.approx(1.0, rel=1e-12)

    def test_matches_numpy_polyfit(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dts = 10.0 ** rng.uniform(-6.0, -1.0, size=rng.integers(3, 9))
            errors = 10.0 ** rng.uniform(-12.0, 2.0, size=dts.size)
            fit = fit_loglog(dts, errors)
            lx, ly = np.log10(dts), np.log10(errors)
            slope, intercept = np.polyfit(lx, ly, 1)
            residual = np.max(np.abs(np.polyval([slope, intercept], lx) - ly))
            assert fit.order_p == pytest.approx(slope, rel=1e-12, abs=1e-12)
            assert fit.constant_C == pytest.approx(10.0**intercept, rel=1e-11)
            assert fit.residual == pytest.approx(residual, rel=1e-11, abs=1e-12)

    def test_overflowing_constant_is_refused_by_the_fit(self):
        refusal = (
            "log-log fit constant C = 10**630.4568415483334 overflows, so the fit has no finite C"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            fit_loglog([0.5, 0.4, 0.3], [1e100, 1e-100, 1e-300])

    def test_underflowing_constant_is_refused_by_the_fit(self):
        # the refusal used to be ConvergenceFit's own "constant_C must be positive, got 0.0"
        refusal = (
            "log-log fit constant C = 10**-830.4568415483334 underflows to 0, so the fit has "
            "no positive C"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            fit_loglog([0.5, 0.4, 0.3], [1e-300, 1e-100, 1e100])

    def test_fit_container_invariants(self):
        with pytest.raises(ValueError):
            ConvergenceFit(
                constant_C=1.0,
                order_p=1.0,
                residual=0.0,
                dts=(1e-2, 1e-3),
                errors=(0.1, 0.01),
            )
        with pytest.raises(ValueError):
            ConvergenceFit(
                constant_C=-1.0,
                order_p=1.0,
                residual=0.0,
                dts=(1e-2, 1e-3, 1e-4),
                errors=(0.1, 0.01, 0.001),
            )

    def test_sweep_ms_first_order(self):
        _, fit = sweep_dt(P_REF, [1e-2, 1e-3, 1e-4, 1e-5], Method.MS_EXACT)
        assert 0.9 <= fit.order_p <= 1.1
        assert fit.residual < 0.05

    def test_sweep_needs_three(self):
        # two rows are reported, but they are too few for a fit
        rows, fit = sweep_dt(P_REF, [1e-2, 1e-3], Method.MS_EXACT)
        assert fit is None
        assert [row["dt"] for row in rows] == [1e-2, 1e-3]
        assert all(row["abs_error"] > 0.0 for row in rows)

    def test_sweep_rows(self):
        # a refused estimate stays in its row, and the other rows are fitted
        rows, fit = sweep_dt(P_REF, [1e-2, 2, 1e-3, 1e-4], Method.MS_EXACT)
        values = [ms_exponent_exact(P_REF, dt).value for dt in (1e-2, 1e-3, 1e-4)]
        expected = [
            {"dt": dt, "continuum_value": 18.0, "discrete_value": value,
             "abs_error": abs(value - 18.0)}
            for dt, value in zip((1e-2, 1e-3, 1e-4), values)
        ]
        expected.insert(1, {"dt": 2.0, "continuum_value": 18.0, "discrete_value": None,
                            "abs_error": None, "error": "dt must lie in (0, 1), got 2.0"})
        assert rows == expected
        assert list(rows[0]) == ["dt", "continuum_value", "discrete_value", "abs_error"]
        assert fit == fit_loglog([1e-2, 1e-3, 1e-4], [row["abs_error"] for row in expected
                                                      if row["abs_error"] is not None])

    def test_sweep_row_records_an_overflowing_std_error(self):
        # M2 of these path slopes overflows, though their true spread is finite
        rows, fit = sweep_dt(ModelParams(lam=8.0, epsilon=2.0, sigma=1e150), [1e-310],
                             Method.AS_PATH_SLOPE, n_paths=3, n_steps=10, seed=42)
        assert rows[0]["error"] == "std_error must be finite and nonnegative, got inf"
        assert fit is None

    def test_continuum_target_by_sense(self):
        assert continuum_target(P_REF, Method.MS_EXACT) == 18.0
        assert continuum_target(P_REF, Method.AS_QUADRATURE) == 2.0
        assert continuum_target(P_REF, Method.AS_MONTE_CARLO) == 2.0


class TestNonMembers:
    """Each method fact has one owner with no default branch, so a value that
    is not a Method member reaches no estimator and no continuum target."""

    @pytest.mark.parametrize("method", ["ms-exact", None, 0])
    def test_estimate_refuses(self, method):
        with pytest.raises(ValueError, match=f"^unknown method {re.escape(repr(method))}$"):
            estimate(P_REF, 1e-3, method)

    @pytest.mark.parametrize("method", ["ms-exact", None, 0])
    def test_sweep_and_target_refuse(self, method):
        with pytest.raises(KeyError):
            continuum_target(P_REF, method)
        with pytest.raises(KeyError):
            sweep_dt(P_REF, [1e-2, 1e-3, 1e-4], method)

    def test_every_method_has_a_sense(self):
        assert set(exponents.SENSE) == set(Method)

    @pytest.mark.parametrize("entry, slug", [(theta_ms_exponent, "theta-ms"),
                                             (theta_as_exponent_quadrature, "theta-as")])
    def test_theta_entry_points_require_theta(self, entry, slug):
        with pytest.raises(ValueError, match=f"^method {slug} requires theta$"):
            entry(P_REF, None, 1e-3)
