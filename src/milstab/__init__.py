"""Stability of Milstein discretizations for a 2x2 linear test system.

The library computes discrete Lyapunov exponents, mean-square in closed form
and almost-sure via quadrature or Monte Carlo, for the planar conformal system

    dX = lam*X dt + (sigma*X - epsilon*Y) dW
    dY = lam*Y dt + (epsilon*X + sigma*Y) dW

Its scheme is the Milstein step of the radial equation
d|Z| = (lam + epsilon^2/2)*|Z| dt + sigma*|Z| dW, which multiplies
|Z| = sqrt(X^2 + Y^2) by F = gamma_dt + sigma*dB + (sigma^2/2)*dB^2 each step.
At epsilon = 0, |F| is the modulus of the planar Milstein step; at
epsilon != 0 the two differ at O(dt) (see milstab.scheme). The scalar
theta-Milstein family at epsilon = 0 is included. The library also verifies
the logarithm sandwich bounds behind the sharp two-sided exponent estimates.
See the README for the exponent formulas and the command line interface.

``import milstab`` loads none of the modules below. The first read of a
public name imports the one module that defines it and binds the name here
(PEP 562), so ``from milstab import ModelParams`` loads ``milstab.model``
alone. A submodule such as ``milstab.exponents`` resolves the same way.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, under the module that defines it.
_EXPORTS = {
    "exponents": (
        "MC_BLOCK", "SENSE", "STOCHASTIC_METHODS", "ConvergenceFit", "ExponentEstimate",
        "Method", "RemainderReport", "as_exponent_mc", "as_exponent_path_slope",
        "as_exponent_quadrature", "continuum_target", "estimate", "fit_loglog",
        "ms_exponent_exact", "ms_remainder", "sweep_dt", "theta_as_exponent_quadrature",
        "theta_ms_exponent",
    ),
    "lemmas": (
        "BoundKind", "LogBoundDomain", "SandwichReport", "composite_increment_moments",
        "gaussian_moment", "log_lower_surrogate", "log_upper_surrogate", "verify_log_sandwich",
        "xi_expectation", "xi_gamma",
    ),
    "model": (
        "BOUNDARY_TOL", "InitialDatum", "ModelParams", "Sense", "StabilityClass",
        "as_boundary_epsilon", "classify", "continuum_as_exponent", "continuum_ms_exponent",
    ),
    "scheme": (
        "LogModulusPath", "SchemeConfig", "gamma_dt", "milstein_factor", "mu", "simulate_path",
        "simulate_theta_path", "theta_eta",
    ),
    "stochastics": ("QuadratureRule", "RngStream", "gauss_hermite_rule"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    owner = _OWNERS.get(name)
    if owner is not None:
        value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
        return value
    if name.isidentifier() and not (name.startswith("__") and name.endswith("__")):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
