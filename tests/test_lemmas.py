import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from milstab.lemmas import (
    BoundKind,
    LogBoundDomain,
    _bound_grid,
    composite_increment_moments,
    gaussian_moment,
    log_lower_surrogate,
    log_upper_surrogate,
    verify_log_sandwich,
    xi_expectation,
    xi_gamma,
)
from milstab.model import ModelParams
from milstab.scheme import gamma_dt
from milstab.stochastics import RngStream, gauss_hermite_rule


class TestXiGamma:
    def test_spot_values(self):
        assert xi_gamma(2.0, -1.0) == pytest.approx(-1.125, abs=1e-15)
        assert xi_gamma(2.0, 1.0) == pytest.approx(-1.0 / 64.0, abs=1e-17)
        assert xi_gamma(2.0, 0.0) == 0.0

    def test_continuous_at_zero(self):
        for g in (0.75, 1.0, 2.0, 10.0):
            assert abs(xi_gamma(g, 1e-12)) < 1e-20
            assert abs(xi_gamma(g, -1e-12)) < 1e-20

    def test_domain_edge(self):
        with pytest.raises(ValueError):
            xi_gamma(3.0, -2.0)
        with pytest.raises(ValueError):
            xi_gamma(3.0, -2.5)
        assert xi_gamma(3.0, -2.0 + 1e-9) < 0.0

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            xi_gamma(0.0, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-30.0, max_value=100.0),
    )
    def test_nonpositive_on_domain(self, gamma, x):
        assume(x > -2.0 * gamma / 3.0 * (1.0 - 1e-12))
        assert xi_gamma(gamma, x) <= 0.0


class TestSurrogates:
    def test_upper_spot_value(self):
        want = math.log(2.0) - 0.5 - 0.125 - 1.0 / 24.0
        assert log_upper_surrogate(2.0, -1.0) == pytest.approx(want, abs=1e-15)

    def test_lower_spot_value(self):
        # cubic polynomial part plus xi = -1.125 gives log(2) - 1.75
        want = math.log(2.0) - 1.75
        assert log_lower_surrogate(2.0, -1.0) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(-1.0568528194400546, abs=1e-13)

    def test_upper_domain(self):
        with pytest.raises(ValueError):
            log_upper_surrogate(2.0, -2.0)

    def test_sandwich_at_origin(self):
        # both bounds are tight at x = 0
        for g in (0.75, 1.0, 2.0, 10.0):
            assert log_upper_surrogate(g, 0.0) == pytest.approx(math.log(g), abs=1e-15)
            assert log_lower_surrogate(g, 0.0) == pytest.approx(math.log(g), abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-0.6, max_value=10.0),
    )
    def test_pointwise_sandwich(self, gamma, t):
        # t parametrizes x relative to the lower-bound domain edge
        x = t * gamma
        assume(x > -2.0 * gamma / 3.0 * (1.0 - 1e-9))
        log_value = math.log(gamma + x)
        assert log_upper_surrogate(gamma, x) >= log_value - 1e-12
        assert log_lower_surrogate(gamma, x) <= log_value + 1e-12


class TestArrayCalls:
    #: Points as multiples of gamma, inside both domains, across the sign change.
    T = np.array([-0.6, -0.1, -1e-12, 0.0, 1e-12, 0.25, 1.0, 9.0])
    SURROGATES = [xi_gamma, log_upper_surrogate, log_lower_surrogate]

    @pytest.mark.parametrize("fn", SURROGATES)
    @pytest.mark.parametrize("gamma", [0.75, 2.0, 10.0])
    def test_array_matches_scalar_calls(self, fn, gamma):
        x = gamma * self.T
        got = fn(gamma, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        scalars = [fn(gamma, float(v)) for v in x]
        assert all(type(v) is float for v in scalars)
        assert got.tolist() == scalars
        assert fn(gamma, x.reshape(2, 4)).tolist() == got.reshape(2, 4).tolist()

    def test_sandwich_at_chosen_points(self):
        x = np.array([0.0, 0.5, 1.0])
        log_value = np.log(2.0 + x)
        assert np.all(log_lower_surrogate(2.0, x) <= log_value)
        assert np.all(log_value <= log_upper_surrogate(2.0, x))

    @pytest.mark.parametrize(
        "fn, edge", [(xi_gamma, -2.0), (log_upper_surrogate, -3.0), (log_lower_surrogate, -2.0)]
    )
    @pytest.mark.parametrize("bad", ["edge", "below", "nan"])
    def test_one_point_out_of_domain_raises(self, fn, edge, bad):
        point = {"edge": edge, "below": edge - 0.5, "nan": math.nan}[bad]
        x = np.array([0.0, 1.0, point, 2.0, edge - 1.0])
        # the message names the first offending point, not the array
        with pytest.raises(ValueError, match=rf"^x = {re.escape(repr(point))} outside"):
            fn(3.0, x)

    def test_domains_differ(self):
        # -1.9 lies inside x > -gamma but not inside x > -2*gamma/3 at gamma = 2
        x = np.array([0.0, -1.9])
        assert np.all(np.isfinite(log_upper_surrogate(2.0, x)))
        with pytest.raises(ValueError, match=r"^x = -1\.9 outside"):
            log_lower_surrogate(2.0, x)


class TestVerifySandwich:
    def test_reference_gammas_clean(self):
        report = verify_log_sandwich((0.75, 1.0, 2.0, 10.0), n_points=5000)
        assert report.passed
        assert report.tol == -1e-12
        assert report.upper_violations == 0 and report.lower_violations == 0
        assert report.n_points == 4 * 2 * 5000
        assert report.worst_upper_margin >= -1e-12
        assert report.worst_lower_margin >= -1e-12

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError, match="gamma must be positive"):
            verify_log_sandwich((1.0, 0.0), n_points=10)

    def test_matches_one_pass_over_all_grids(self):
        # reducing grid by grid gives the report of one pass over every margin
        gammas, n = (0.75, 1.0, 2.0, 10.0), 5000
        upper, lower = [], []
        for gamma in gammas:
            x = _bound_grid(gamma, BoundKind.UPPER, n)
            upper.append(log_upper_surrogate(gamma, x) - np.log(gamma + x))
            x = _bound_grid(gamma, BoundKind.LOWER, n)
            lower.append(np.log(gamma + x) - log_lower_surrogate(gamma, x))
        upper, lower = np.concatenate(upper), np.concatenate(lower)
        report = verify_log_sandwich(gammas, n_points=n)
        assert (report.worst_upper_margin, report.worst_lower_margin) == (upper.min(), lower.min())
        assert report.upper_violations == np.count_nonzero(upper < report.tol)
        assert report.lower_violations == np.count_nonzero(lower < report.tol)
        assert report.n_points == upper.size + lower.size

    def test_memory_does_not_grow_with_gammas(self):
        verify_log_sandwich((1.0,), n_points=10)  # one-time allocations out of the way
        peaks = []
        for gammas in ((1.0,), (0.75, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)):
            tracemalloc.start()
            try:
                verify_log_sandwich(gammas, n_points=20_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_domain_edges(self):
        assert LogBoundDomain(gamma=3.0, kind=BoundKind.UPPER).lower_edge() == -3.0
        assert LogBoundDomain(gamma=3.0, kind=BoundKind.LOWER).lower_edge() == -2.0


class TestGaussianMoment:
    def test_low_orders(self):
        dt = 1e-3
        assert gaussian_moment(2, dt) == pytest.approx(dt, rel=1e-15)
        assert gaussian_moment(4, dt) == pytest.approx(3.0 * dt * dt, rel=1e-15)
        assert gaussian_moment(6, dt) == pytest.approx(15.0 * dt**3, rel=1e-15)
        for odd in (1, 3, 5, 7):
            assert gaussian_moment(odd, dt) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_moment(0, 1e-3)
        with pytest.raises(ValueError):
            gaussian_moment(2, 0.0)
        with pytest.raises(ValueError):
            gaussian_moment(2.5, 1e-3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=1e-6, max_value=1.0))
    def test_double_factorial_form(self, k, dt):
        order = 2 * k
        want = math.prod(range(1, order, 2)) * dt**k
        assert gaussian_moment(order, dt) == pytest.approx(want, rel=1e-13)


class TestCompositeMoments:
    def test_closed_form(self):
        mean, second = composite_increment_moments(2.0, 1e-3)
        assert mean == pytest.approx(2e-3, rel=1e-15)
        assert second == pytest.approx(4e-3 + 0.75 * 16.0 * 1e-6, rel=1e-15)

    def test_monte_carlo_agreement(self):
        # independent route: sample the composite increment directly
        sigma, dt, n = 2.0, 1e-2, 200_000
        mean_ref, second_ref = composite_increment_moments(sigma, dt)
        dB = math.sqrt(dt) * RngStream(root_seed=7, stream_id=0).normals(n)
        c = sigma * dB + 0.5 * sigma * sigma * dB * dB
        for data, ref in ((c, mean_ref), (c * c, second_ref)):
            se = float(data.std(ddof=1)) / math.sqrt(n)
            assert abs(float(data.mean()) - ref) <= 4.0 * se

    def test_quadrature_agreement(self):
        # third route: integrate the composite increment against the rule
        sigma, dt = 3.0, 1e-3
        mean_ref, second_ref = composite_increment_moments(sigma, dt)
        rule = gauss_hermite_rule(61)
        s = sigma * math.sqrt(dt)
        nodes = np.array(rule.nodes)
        c = s * nodes + 0.5 * s * s * nodes**2
        assert rule.integrate(c) == pytest.approx(mean_ref, rel=1e-12)
        assert rule.integrate(c * c) == pytest.approx(second_ref, rel=1e-12)


class TestLogIntegralDoubling:
    def test_smooth_integrands_stable_under_doubling(self):
        r1 = gauss_hermite_rule(201)
        r2 = gauss_hermite_rule(402)
        for f in (
            lambda y: np.log(2.0 + y * y),
            lambda y: np.log(2.0 + 0.2 * y + 0.02 * y * y),
        ):
            i1 = r1.integrate(f(np.array(r1.nodes)))
            i2 = r2.integrate(f(np.array(r2.nodes)))
            assert abs(i1 - i2) < 1e-12


class TestXiExpectation:
    P = ModelParams(lam=8.0, epsilon=2.0, sigma=4.0)

    def test_zero_noise(self):
        p = ModelParams(lam=1.0, epsilon=0.5, sigma=0.0)
        assert xi_expectation(p, 1e-3) == 0.0

    def test_nonpositive(self):
        for dt in (1e-2, 1e-3, 1e-4):
            assert xi_expectation(self.P, dt) <= 0.0

    def test_even_in_sigma(self):
        for dt in (1e-2, 1e-3, 1e-6):
            assert xi_expectation(ModelParams(8.0, 2.0, -4.0), dt) == xi_expectation(self.P, dt)

    def test_tiny_sigma(self):
        # phi(-2/s) underflows to 0, so no power of -2/s is formed
        value = xi_expectation(ModelParams(8.0, 2.0, 1e-300), 1e-3)
        assert math.isfinite(value) and value <= 0.0

    def test_small_dt_scaling(self):
        # |E xi| shrinks like dt^(3/2) once sigma*sqrt(dt) is small
        a = abs(xi_expectation(self.P, 4e-6))
        b = abs(xi_expectation(self.P, 1e-6))
        assert a / b == pytest.approx(8.0, rel=0.25)

    def test_gamma_restriction(self):
        bad = ModelParams(lam=-300.0, epsilon=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            xi_expectation(bad, 1e-3)

    #: E xi at dt = 1e-2 ... 1e-6, as float.hex, from the closed form.
    PINNED = {
        (8.0, 2.0, 4.0): (
            "-0x1.44d592f27eac9p-3", "-0x1.4b56b5c721e5ap-7", "-0x1.aec1b07d57d22p-12",
            "-0x1.d6cdfb7a52b50p-17", "-0x1.e807fb1b7bd5dp-22",
        ),
        (-1.0, 0.0, 1.0): (
            "-0x1.73b42e0026e44p-8", "-0x1.b6096ef27855bp-13", "-0x1.d4ef26ba7f254p-18",
            "-0x1.e36c8f0731639p-23", "-0x1.ec1c21c466f86p-28",
        ),
        (6.0, 0.5, 3.5): (
            "-0x1.f5f46fdc31288p-4", "-0x1.d325f8389d38ep-8", "-0x1.24d453fb7167fp-12",
            "-0x1.3ccfc471ffc79p-17", "-0x1.4765f1e42f013p-22",
        ),
        (0.0, 1.0, 2.0): (
            "-0x1.18b069c69200ap-5", "-0x1.90b69db20c68ap-10", "-0x1.c80dc3dd1e957p-15",
            "-0x1.df33eabe0573dp-20", "-0x1.eabfb4c531d7ep-25",
        ),
        (-3.0, 1.5, 0.5): (
            "-0x1.b2d567e1dbe8ep-11", "-0x1.ca8371d139484p-16", "-0x1.db8faf9e9654bp-21",
            "-0x1.e58dc0d031d54p-26", "-0x1.eccad6cc86a18p-31",
        ),
    }

    @pytest.mark.parametrize("params", list(PINNED))
    def test_pinned_bits(self, params):
        p = ModelParams(*params)
        got = [xi_expectation(p, 10.0**-k).hex() for k in range(2, 7)]
        assert got == list(self.PINNED[params])

    ORACLE_POINTS = [
        (8.0, 2.0, 4.0), (-1.0, 0.0, 1.0), (6.0, 0.5, 3.5), (0.0, 1.0, 2.0),
        (-3.0, 1.5, 0.5), (50.0, 0.0, 9.0), (200.0, 0.0, 20.0),
    ]

    @pytest.mark.parametrize("params", ORACLE_POINTS)
    def test_against_mpmath(self, params):
        # 40-digit quadrature of xi over its two branches, at the gamma the
        # closed form uses, wherever the point lies in the domain gamma_dt > 3/4
        mp = pytest.importorskip("mpmath")
        p = ModelParams(*params)
        checked = 0
        for dt in (0.5, 0.1, *(10.0**-k for k in range(2, 8))):
            gamma = gamma_dt(p, dt)
            if not gamma > 0.75:
                continue
            with mp.workdps(40):
                g = mp.mpf(gamma)
                s = abs(mp.mpf(p.sigma)) * mp.sqrt(mp.mpf(dt))
                root = -2 / s

                def branch(y, negative):
                    n = s * y + s * s * y * y / 2
                    xi = 9 * n**3 / g**3 if negative else -(n**4) / (4 * g**4)
                    return xi * mp.exp(-y * y / 2) / mp.sqrt(2 * mp.pi)

                want = (
                    mp.quad(lambda y: branch(y, False), [-mp.inf, root])
                    + mp.quad(lambda y: branch(y, True), [root, 0])
                    + mp.quad(lambda y: branch(y, False), [0, mp.inf])
                )
                err = abs((mp.mpf(xi_expectation(p, dt)) - want) / want)
            assert err <= 2e-15, (dt, float(err))
            checked += 1
        assert checked >= 5

    def test_monte_carlo_agreement(self):
        # direct sampling of xi_gamma at the composite increment
        p, dt, n = self.P, 1e-3, 400_000
        gamma = gamma_dt(p, dt)
        dB = math.sqrt(dt) * RngStream(root_seed=13, stream_id=0).normals(n)
        comp = p.sigma * dB + 0.5 * p.sigma * p.sigma * dB * dB
        vals = np.where(comp >= 0.0, -(comp**4) / (4.0 * gamma**4), 9.0 * comp**3 / gamma**3)
        se = float(vals.std(ddof=1)) / math.sqrt(n)
        assert abs(float(vals.mean()) - xi_expectation(p, dt)) <= 4.0 * se
