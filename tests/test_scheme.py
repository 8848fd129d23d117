import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milstab.exponents import _MC_CHUNK, Method, estimate
from milstab.model import InitialDatum, ModelParams
from milstab.scheme import (
    LogModulusPath,
    SchemeConfig,
    _accumulate,
    _factor,
    gamma_dt,
    milstein_factor,
    mu,
    simulate_path,
    simulate_theta_path,
    theta_eta,
)
from milstab.stochastics import RngStream

P_REF = ModelParams(lam=8.0, epsilon=2.0, sigma=4.0)


def test_gamma_dt_reference():
    # lam + eps^2/2 - sig^2/2 = 2 at the reference point
    assert gamma_dt(P_REF, 1e-3) == pytest.approx(1.002, rel=1e-15)
    assert gamma_dt(ModelParams(lam=0.0, epsilon=0.0, sigma=0.0), 0.5) == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_mu_is_shifted_square(lam, eps, sig):
    # mu = (lam + eps^2/2)^2 + sig^4/2, hence nonnegative
    p = ModelParams(lam=lam, epsilon=eps, sigma=sig)
    direct = (lam + 0.5 * eps * eps) ** 2 + 0.5 * sig**4
    assert mu(p) == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert mu(p) >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_factor_noise_floor(sig, db):
    # the noise part equals ((sig*dB + 1)^2 - 1)/2 and never drops below -1/2,
    # so the factor is bounded below by gamma - 1/2
    p = ModelParams(lam=1.0, epsilon=0.0, sigma=sig)
    dt = 1e-3
    f = milstein_factor(p, dt, db)
    g = gamma_dt(p, dt)
    assert f >= g - 0.5 - 1e-12
    noise = f - g
    assert noise + 0.5 == pytest.approx(0.5 * (sig * db + 1.0) ** 2, rel=1e-10, abs=1e-12)


def test_factor_spot_value():
    p = ModelParams(lam=0.0, epsilon=0.0, sigma=2.0)
    # gamma = 1 - 2*dt at sigma = 2; dB = 0.5 adds 2*0.5 + 2*0.25
    assert milstein_factor(p, 0.25, 0.5) == pytest.approx(0.5 + 1.0 + 0.5, rel=1e-15)


@pytest.mark.parametrize(
    "factor",
    [
        _factor(ModelParams(lam=1.0, epsilon=0.5, sigma=3.0), 1e-3),
        _factor(ModelParams(lam=-30.0, epsilon=0.0, sigma=1.7), 1e-2, 0.5),
    ],
    ids=["plain", "denom"],
)
def test_factor_forms_agree(factor):
    # a new array, an array overwritten in place and a scalar all give the
    # written-out formula bit for bit; without out the increments are kept
    dB = math.sqrt(factor.dt) * RngStream(root_seed=3, stream_id=1).normals(4097)
    s = factor.sigma
    ref = factor.c0 + (s * dB + 0.5 * s * s * dB * dB) / factor.denom
    kept = dB.copy()
    assert np.array_equal(factor.at(dB), ref)
    assert np.array_equal(dB, kept)
    assert factor.at(dB, out=dB) is dB
    assert np.array_equal(dB, ref)
    assert [factor.at(float(b)) for b in kept[:64]] == ref[:64].tolist()
    # of_normals writes F at dB = sqrt(dt)*z over the normals z, with the
    # bits of the dB formula, at sizes on both sides of a Monte Carlo slice
    for size in (_MC_CHUNK - 1, _MC_CHUNK + 1, 3 * _MC_CHUNK + 5):
        z = RngStream(root_seed=3, stream_id=size).normals(size)
        dB = math.sqrt(factor.dt) * z
        ref = factor.c0 + (s * dB + 0.5 * s * s * dB * dB) / factor.denom
        assert factor.of_normals(z) is z
        assert np.array_equal(z, ref), size


#: The 2x2 generator of the planar rotation, J z = i z for z = x + i y.
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _planar_step(p: ModelParams, dt: float, dB: float) -> np.ndarray:
    """The explicit Milstein step I + A dt + B dB + B^2 (dB^2 - dt)/2 of the planar system."""
    b = p.sigma * np.eye(2) + p.epsilon * _J
    return np.eye(2) + p.lam * dt * np.eye(2) + b * dB + 0.5 * (b @ b) * (dB * dB - dt)


@pytest.mark.parametrize(
    "lam, eps, sigma, dt",
    [(8.0, 0.0, 4.0, 1e-2), (8.0, 2.0, 4.0, 1e-2), (0.2, 3.5, 4.0, 1e-2), (-1.0, 1.0, 1.0, 1e-3)],
)
def test_radial_factor_against_planar_step(lam, eps, sigma, dt):
    # The planar step M is a rotation-scaling, so |M z0|^2 = |z0|^2 * (first
    # column)^2, a degree-4 polynomial in zeta that 10 Gauss-Hermite nodes
    # integrate exactly. E|F_pl|^2 - E F^2 = eps^2 (eps^2 - 4 lam + 4 sigma^2) dt^2 / 4.
    p = ModelParams(lam=lam, epsilon=eps, sigma=sigma)
    if eps == 0.0:  # |M z0| = |F| |z0|
        z0 = np.array([0.6, -0.8])
        for dB in (-0.7, -0.25, 0.0, 0.1, 0.45):
            moved = np.linalg.norm(_planar_step(p, dt, dB) @ z0)
            assert moved == pytest.approx(abs(milstein_factor(p, dt, dB)), rel=1e-14, abs=1e-15)
    y, w = np.polynomial.hermite_e.hermegauss(10)
    w = w / math.sqrt(2.0 * math.pi)
    planar = sum(wi * float(np.sum(_planar_step(p, dt, math.sqrt(dt) * yi)[:, 0] ** 2))
                 for yi, wi in zip(y, w))
    radial = 1.0 + _factor(p, dt).ms_base_m1()
    gap = eps * eps * (eps * eps - 4.0 * lam + 4.0 * sigma * sigma) * dt * dt / 4.0
    assert planar - radial == pytest.approx(gap, rel=1e-9, abs=1e-14)
    if (lam, eps, sigma, dt) == (8.0, 2.0, 4.0, 1e-2):
        # the mean-square exponents 16.2055 (radial) and 16.3355 (planar)
        assert math.log(radial) / (2.0 * dt) == pytest.approx(16.2055, abs=5e-5)
        assert math.log(planar) / (2.0 * dt) == pytest.approx(16.3355, abs=5e-5)


class TestAccumulate:
    def test_plain_products(self):
        logs = _accumulate(np.array([2.0, 1.0, 0.25]))
        assert not LogModulusPath(dt=0.1, log_values=logs).flags.any()
        np.testing.assert_allclose(
            logs, [0.0, math.log(2.0), math.log(2.0), math.log(0.5)]
        )

    def test_zero_factor_gives_minus_inf(self):
        # a factor of exactly 0 puts Z at the origin for good: log|Z_n/Z_0| = -inf
        with np.errstate(divide="ignore"):
            logs = _accumulate(np.array([1.0, 0.0, 2.0]))
        assert logs.tolist() == [0.0, 0.0, -math.inf, -math.inf]
        assert LogModulusPath(dt=0.1, log_values=logs).flags.tolist() == [False, True, False]

    def test_negative_factor_uses_modulus(self):
        logs = _accumulate(np.array([-3.0]))
        assert logs[1] == pytest.approx(math.log(3.0))

    def test_bits_are_pinned(self):
        # the whole-array form: cumsum(log(|F|)) after 0.0; from the zero
        # factor on, every entry is -inf
        with np.errstate(divide="ignore"):
            logs = _accumulate(np.array([2.0, 0.0, -0.5, 3.0]))
        assert [v.hex() for v in logs.tolist()] == [
            "0x0.0p+0", "0x1.62e42fefa39efp-1", "-inf", "-inf", "-inf",
        ]
        assert LogModulusPath(dt=0.1, log_values=logs).flags.tolist() == [
            False, True, False, False
        ]
        # adding a log|Z_0| of 0.25 afterwards, as cli's simulate does, gives the
        # bits of log0 + cumsum(...)
        assert [v.hex() for v in np.add(logs, 0.25).tolist()] == [
            "0x1.0000000000000p-2", "0x1.e2e42fefa39efp-1", "-inf", "-inf", "-inf",
        ]
        cfg = SchemeConfig(dt=1e-3, n_steps=6)
        path = simulate_path(P_REF, cfg, RngStream(root_seed=42, stream_id=7))
        assert path.log_values[0] == 0.0
        log0 = InitialDatum(3.0, 4.0).log_modulus()
        assert [v.hex() for v in np.add(path.log_values, log0).tolist()] == [
            "0x1.9c041f7ed8d33p+0", "0x1.9144b583081b2p+0", "0x1.9a42c6d05e248p+0",
            "0x1.9f6fb10d1fcf6p+0", "0x1.b8e3454e24fa2p+0", "0x1.cc3fe9d525762p+0",
            "0x1.bc2215c7a8a86p+0",
        ]

    @pytest.mark.parametrize(
        "seed, n_paths, value, std_error",
        [
            (7, 2, "0x1.e8e9b954c4d80p-5", "0x1.2076d890755adp+2"),
            (2024, 9, "0x1.1bf71a779e914p+2", "0x1.d34ea6698dab7p+0"),
        ],
    )
    def test_path_slope_bits_are_pinned(self, seed, n_paths, value, std_error):
        # the bits of np.mean(slopes) and np.std(slopes, ddof=1)/sqrt(n_paths)
        est = estimate(P_REF, 1e-3, Method.AS_PATH_SLOPE, seed=seed, n_paths=n_paths,
                       n_steps=500)
        assert (est.value.hex(), est.std_error.hex()) == (value, std_error)

    def test_path_peak_is_three_step_arrays(self):
        # the normals turn into factors and then into logs in place, so a path
        # holds them and its log_values at once
        n = 10**5
        cfg = SchemeConfig(dt=1e-3, n_steps=n)
        simulate_path(P_REF, cfg, RngStream(root_seed=1, stream_id=0))  # warm numpy up
        tracemalloc.start()
        try:
            simulate_path(P_REF, cfg, RngStream(root_seed=1, stream_id=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n


class TestSimulate:
    def cfg(self, **kw):
        base = dict(dt=1e-3, n_steps=64)
        base.update(kw)
        return SchemeConfig(**base)

    def test_deterministic(self):
        a = simulate_path(P_REF, self.cfg(), RngStream(root_seed=42, stream_id=0))
        b = simulate_path(P_REF, self.cfg(), RngStream(root_seed=42, stream_id=0))
        assert np.array_equal(a.log_values, b.log_values)
        c = simulate_path(P_REF, self.cfg(), RngStream(root_seed=42, stream_id=1))
        assert not np.array_equal(a.log_values, c.log_values)

    def test_matches_manual_recursion(self):
        cfg = self.cfg(n_steps=5)
        path = simulate_path(P_REF, cfg, RngStream(root_seed=7, stream_id=0))
        dB = math.sqrt(cfg.dt) * RngStream(root_seed=7, stream_id=0).normals(5)
        log = 0.0
        expect = [log]
        for b in dB:
            log += math.log(abs(milstein_factor(P_REF, cfg.dt, float(b))))
            expect.append(log)
        np.testing.assert_allclose(path.log_values, expect, rtol=1e-12, atol=1e-12)

    def test_initial_value(self):
        # a path is log|Z_n/Z_0|, so it starts at exactly 0 whatever the datum
        cfg = self.cfg(n_steps=1)
        path = simulate_path(P_REF, cfg, RngStream(root_seed=0, stream_id=0))
        assert path.log_values[0] == 0.0

    def test_n_steps(self):
        path = simulate_path(P_REF, self.cfg(n_steps=4), RngStream(root_seed=0, stream_id=0))
        assert (path.dt, path.n_steps, len(path.log_values)) == (1e-3, 4, 5)

    def test_theta_cfg_rejected(self):
        with pytest.raises(ValueError):
            simulate_path(P_REF, self.cfg(theta=0.5), RngStream(root_seed=0, stream_id=0))

    def test_slope_sign_blow_up_and_stable(self):
        """Long single trajectories drift with the sign of the a.s. exponent."""
        cfg = self.cfg(n_steps=10**5)
        up = simulate_path(P_REF, cfg, RngStream(root_seed=4, stream_id=0))
        slope_up = (up.log_values[-1] - up.log_values[0]) / (cfg.n_steps * cfg.dt)
        assert slope_up > 0.0
        stable = ModelParams(lam=6.0, epsilon=0.5, sigma=4.0)
        down = simulate_path(stable, cfg, RngStream(root_seed=4, stream_id=0))
        slope_down = (down.log_values[-1] - down.log_values[0]) / (cfg.n_steps * cfg.dt)
        assert slope_down < 0.0


class TestThetaScheme:
    def test_eta_reference(self):
        p = ModelParams(lam=1.0, epsilon=0.0, sigma=0.0)
        assert theta_eta(p, 1.0, 0.1) == pytest.approx(1.1111111111111112, rel=1e-15)

    def test_eta_reduces_to_gamma_at_zero(self):
        p = ModelParams(lam=-3.0, epsilon=0.0, sigma=2.0)
        for dt in (1e-2, 1e-3, 1e-4):
            assert theta_eta(p, 0.0, dt) == gamma_dt(p, dt)

    def test_pole_rejected(self):
        p = ModelParams(lam=10.0, epsilon=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            theta_eta(p, 1.0, 0.1)
        with pytest.raises(ValueError):
            theta_eta(ModelParams(lam=20.0, epsilon=0.0, sigma=1.0), 1.0, 0.1)

    def test_theta_range(self):
        p = ModelParams(lam=1.0, epsilon=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            theta_eta(p, -0.1, 1e-3)
        with pytest.raises(ValueError):
            theta_eta(p, 1.1, 1e-3)

    def test_epsilon_rejected(self):
        cfg = SchemeConfig(dt=1e-3, n_steps=4, theta=0.5)
        with pytest.raises(ValueError):
            simulate_theta_path(P_REF, cfg, RngStream(root_seed=0, stream_id=0))

    def test_eta_refuses_epsilon_as_the_factor_does(self):
        p = ModelParams(lam=1.0, epsilon=0.5, sigma=1.0)
        message = "theta scheme requires epsilon = 0, got epsilon = 0.5"
        for build in (lambda: theta_eta(p, 0.5, 1e-3), lambda: _factor(p, 1e-3, 0.5)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "p, theta, dt, message",
        [
            (ModelParams(20.0, 0.5, 1.0), 1.5, 2.0, "theta scheme requires epsilon = 0"),
            (ModelParams(20.0, 0.0, 1.0), 1.5, 2.0, "theta must lie in [0, 1]"),
            (ModelParams(20.0, 0.0, 1.0), 1.0, 2.0, "dt must lie in (0, 1)"),
            (ModelParams(20.0, 0.0, 1.0), 1.0, 0.1, "implicit step ill-posed"),
        ],
    )
    def test_factor_checks_epsilon_theta_dt_then_the_pole(self, p, theta, dt, message):
        with pytest.raises(ValueError) as exc:
            _factor(p, dt, theta)
        assert str(exc.value).startswith(message)

    def test_theta_required(self):
        # a theta config needs a theta in [0, 1]; the factor refuses it before any draw
        p = ModelParams(lam=6.0, epsilon=0.0, sigma=4.0)
        cfg = SchemeConfig(dt=1e-3, n_steps=4, theta=1.5)
        stream = RngStream(root_seed=0, stream_id=0)
        with pytest.raises(ValueError):
            simulate_path(p, cfg, stream)
        assert stream.position == 0

    #: float.hex of log|X_n| at lam 6, sigma 4, dt 1e-2, seed 7, stream 3, recorded
    #: from simulate_theta_path while it had a body of its own.
    THETA_PATH_BITS = {
        0.5: [
            "0x0.0p+0", "-0x1.879d35ca55034p-1", "-0x1.55cf6b2d6ca92p+0", "-0x1.a8b96810ac4b0p+0",
            "-0x1.148a213223154p+1", "-0x1.573d189bc4151p+1", "-0x1.7637b2db56cfbp+1",
        ],
        1.0: [
            "0x0.0p+0", "-0x1.9abcc3cd50782p-1", "-0x1.65bb57fcf320bp+0", "-0x1.bbca4044f5e14p+0",
            "-0x1.20c28a5a4da52p+1", "-0x1.6648984ed5795p+1", "-0x1.8662d12093ae0p+1",
        ],
    }

    @pytest.mark.parametrize("theta", sorted(THETA_PATH_BITS))
    def test_simulate_path_reads_the_scheme_from_the_config(self, theta):
        p = ModelParams(lam=6.0, epsilon=0.0, sigma=4.0)
        cfg = SchemeConfig(dt=1e-2, n_steps=6, theta=theta)
        path = simulate_path(p, cfg, RngStream(root_seed=7, stream_id=3))
        assert [v.hex() for v in path.log_values.tolist()] == self.THETA_PATH_BITS[theta]
        assert not path.flags.any()

    @pytest.mark.parametrize("seed", [0, 42, 9001])
    def test_theta_zero_bitwise_identical(self, seed):
        # theta = 0 must reproduce the plain scheme exactly, bit for bit
        p = ModelParams(lam=6.0, epsilon=0.0, sigma=4.0)
        cfg0 = SchemeConfig(dt=1e-3, n_steps=512)
        cfg_t = SchemeConfig(dt=1e-3, n_steps=512, theta=0.0)
        plain = simulate_path(p, cfg0, RngStream(root_seed=seed, stream_id=0))
        timpl = simulate_theta_path(p, cfg_t, RngStream(root_seed=seed, stream_id=0))
        assert np.array_equal(plain.log_values, timpl.log_values)
        assert np.array_equal(plain.flags, timpl.flags)


class TestConfigValidation:
    def test_dt_range(self):
        for dt in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                SchemeConfig(dt=dt, n_steps=1)

    def test_steps_positive(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, n_steps=0)

    def test_theta_range(self):
        # SchemeConfig leaves theta to the theta factor, which simulate_path builds
        p = ModelParams(lam=1.0, epsilon=0.0, sigma=1.0)
        for theta in (-0.1, 1.5, math.nan):
            cfg = SchemeConfig(dt=1e-3, n_steps=1, theta=theta)
            with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
                simulate_path(p, cfg, RngStream(root_seed=0, stream_id=0))

    def test_theta_refusal_text(self):
        # simulate_path and theta_eta refuse a theta outside [0, 1] in the same words
        message = "theta must lie in [0, 1], got 1.5"
        p = ModelParams(lam=1.0, epsilon=0.0, sigma=1.0)
        cfg = SchemeConfig(dt=1e-3, n_steps=1, theta=1.5)
        with pytest.raises(ValueError) as exc:
            simulate_path(p, cfg, RngStream(root_seed=0, stream_id=0))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            theta_eta(p, 1.5, 1e-3)
        assert str(exc.value) == message

    def test_path_is_one_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            LogModulusPath(dt=1e-3, log_values=np.zeros((4, 1)))
