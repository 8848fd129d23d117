"""The paths are Milstein: strong order 1 against the exact solution on the same draws.

The radial equation has the exact solution

    log|Z_t/Z_0| = a*t + sigma*W_t,    a = lam + epsilon^2/2 - sigma^2/2,

and RngStream(seed, i).normals(n) replays the normals that simulate_path drew
for path i, so W_T = sqrt(dt) * (sum of those normals) is the Brownian path
of the scheme's own increments. The Milstein scheme has strong order 1 and
Euler-Maruyama order 1/2 (Kloeden and Platen, Numerical Solution of
Stochastic Differential Equations, 1992, 10.2-10.3), so the order fitted to
the mean terminal error over halvings of dt tells the two apart. The windows
keep sigma*sqrt(dt) <= 1/8, where the order is reached.

The log-increments of a path are i.i.d., so the signed mean terminal error
is T*(lambda_dt - a), lambda_dt the discrete almost-sure exponent: the
pathwise error's drift is the gap between as-quad and the continuum.
"""

import functools
import math

import numpy as np
import pytest

from milstab.exponents import as_exponent_quadrature, fit_loglog
from milstab.model import ModelParams, continuum_as_exponent
from milstab.scheme import SchemeConfig, simulate_path
from milstab.stochastics import RngStream

T = 1.0
N_PATHS = 200
SEED = 1

#: (lam, epsilon, sigma), theta (None is the plain scheme) and the window's
#: exponents k of dt = 2^-k.
CASES = {
    "plain (-1, 0, 1)": ((-1.0, 0.0, 1.0), None, range(6, 11)),
    "plain (8, 2, 4)": ((8.0, 2.0, 4.0), None, range(10, 15)),
    "theta 0.5 (-1, 0, 1)": ((-1.0, 0.0, 1.0), 0.5, range(6, 11)),
    "theta 1 (-2, 0, 1.5)": ((-2.0, 0.0, 1.5), 1.0, range(8, 13)),
}


def _euler_maruyama(p: ModelParams, dt: float, z: np.ndarray) -> float:
    """log|Z_N/Z_0| of the Euler-Maruyama step 1 + r*dt + sigma*dB on the normals z."""
    rate = p.lam + 0.5 * p.epsilon * p.epsilon
    return float(np.sum(np.log(np.abs(1.0 + rate * dt + p.sigma * math.sqrt(dt) * z))))


@functools.lru_cache(maxsize=None)
def _signed_errors(point, theta, k, euler_maruyama=False) -> np.ndarray:
    """log|Z_N/Z_0| - (a*T + sigma*W_T) at T = N*dt, dt = 2^-k, over N_PATHS paths."""
    p = ModelParams(*point)
    dt = 2.0**-k
    n = round(T / dt)
    cfg = SchemeConfig(dt=dt, n_steps=n, theta=theta)
    exact_drift = continuum_as_exponent(p) * T
    errors = np.empty(N_PATHS)
    for i in range(N_PATHS):
        z = RngStream(SEED, i).normals(n)  # the draws of path i
        if euler_maruyama:
            log_ratio = _euler_maruyama(p, dt, z)
        else:
            log_ratio = simulate_path(p, cfg, RngStream(SEED, i)).log_values[-1]
        errors[i] = log_ratio - (exact_drift + p.sigma * math.sqrt(dt) * math.fsum(z))
    return errors


def _order(point, theta, ks, euler_maruyama=False) -> float:
    dts = [2.0**-k for k in ks]
    means = [float(np.mean(np.abs(_signed_errors(point, theta, k, euler_maruyama))))
             for k in ks]
    return fit_loglog(dts, means).order_p


@pytest.mark.parametrize("case", list(CASES))
def test_strong_order_one(case):
    point, theta, ks = CASES[case]
    assert 0.9 <= _order(point, theta, ks) <= 1.1


@pytest.mark.parametrize("case", list(CASES))
def test_mean_error_is_the_exponent_gap(case):
    point, theta, ks = CASES[case]
    p = ModelParams(*point)
    for k in ks:
        errors = _signed_errors(point, theta, k)
        gap = T * (as_exponent_quadrature(p, 2.0**-k, theta).value - continuum_as_exponent(p))
        std_error = float(np.std(errors, ddof=1)) / math.sqrt(errors.size)
        assert abs(float(np.mean(errors)) - gap) <= 4.0 * std_error


def test_euler_maruyama_fails_the_order_bound():
    # the test has teeth: Euler-Maruyama, of weak order 1 but strong order
    # 1/2, fits below the bound on the same normals
    point, theta, ks = CASES["plain (-1, 0, 1)"]
    assert _order(point, theta, ks, euler_maruyama=True) < 0.6
