"""Refuse or right: every number the CLI reports is right, or it is refused with exit 2.

The known wrong numbers are pinned here as strict xfails. Each marker names
the FOUND line of CHANGES.md that reports it, so the change that mends one
turns its xfail into a failure until the marker goes. Each comes from the
path and Monte Carlo kernels forming F = c0 + noise with c0 = 1 + c0m1
already rounded, which ROADMAP's log1p path kernel is to mend. The error
bar at tiny sigma has a second cause that the kernel alone leaves: the mean
of equal samples can miss them by an ulp, which _std_error divides by
sqrt(n).

A mended wrong number stays here as a plain test: a path whose step factor
is exactly 0 (lam = -1000, sigma = 0, dt = 1e-3) has exponent -inf, and
as-slope and simulate refuse it rather than print a finite stand-in for
log 0 (-745 per step, with std_error 0.0).
"""

import json
import math
import subprocess
import sys

import pytest
from conftest import src_env

from milstab import cli
from milstab.model import ModelParams
from milstab.scheme import SchemeConfig, simulate_path
from milstab.stochastics import RngStream

#: lam*dt = -1, sigma = 0: every step factor is exactly 0.
_ZERO_FACTOR = ["--lambda", "-1000", "--epsilon", "0", "--sigma", "0"]


def _exponent(capsys, *args) -> dict:
    """The JSON object `milstab exponent ARGS --format json` prints, which must answer."""
    code = cli.main(["exponent", *args, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


@pytest.mark.xfail(strict=True, reason="FOUND: scheme.simulate_path loses c0 - 1 at sigma = 0 "
                   "and small dt, so as-slope does too")
def test_noise_free_slope_keeps_c0m1(capsys):
    # lam + epsilon^2/2 - sigma^2/2 = 10, so every step logs F = 1 + 1e-9
    # exactly; the slope reads 10.000000822403702 with std_error 0.0
    got = _exponent(capsys, "as-slope", "--sigma", "0", "--dt", "1e-10", "--paths", "3",
                    "--steps", "100")
    exact = math.log1p(10.0 * 1e-10) / 1e-10
    assert exact == pytest.approx(9.999999995, rel=1e-15)
    assert got["value"] == pytest.approx(exact, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="FOUND: as_exponent_mc and scheme.simulate_path (so "
                   "as-slope) form F = c0 + noise with c0 = 1 + c0m1, and at tiny dt the noise "
                   "rounds away against c0 = 1")
@pytest.mark.parametrize("dt", ["1e-34", "1e-36"])
@pytest.mark.parametrize("method", [("as-mc", "--samples", "100000"), ("as-slope",)],
                         ids=["as-mc", "as-slope"])
def test_sampled_estimate_at_tiny_dt(capsys, method, dt):
    # as-quad answers 2.0 there; as-mc read -8.698597397938102e+16 at 1e-34,
    # and both read 0.0 +- 0.0 at 1e-36
    exact = _exponent(capsys, "as-quad", "--dt", dt)["value"]
    assert exact == 2.0
    got = _exponent(capsys, *method, "--dt", dt)
    assert got["std_error"] > 0.0
    assert abs(got["value"] - exact) <= 5.0 * got["std_error"]


@pytest.mark.xfail(strict=True, reason="FOUND: as_exponent_mc's std_error at sigma = 1e-300 is "
                   "an ulp of the block means over sqrt(n), far below the value's own error")
def test_sampled_error_bar_at_tiny_sigma(capsys):
    # the noise rounds away against c0 = fl(1.01), and the mean of equal
    # samples misses them by an ulp; as-mc read 9.950330853168094 with
    # std_error 5.485704723243282e-18, 1,943 standard errors from as-quad
    exact = _exponent(capsys, "as-quad", "--sigma", "1e-300")["value"]
    assert exact == pytest.approx(math.log1p(0.01) / 1e-3, rel=1e-15)
    got = _exponent(capsys, "as-mc", "--sigma", "1e-300", "--samples", "100000")
    assert got["std_error"] > 0.0
    assert abs(got["value"] - exact) <= 5.0 * got["std_error"]


def test_a_path_onto_zero_is_minus_inf():
    path = simulate_path(ModelParams(-1000.0, 0.0, 0.0), SchemeConfig(dt=1e-3, n_steps=3),
                         RngStream(root_seed=42, stream_id=0))
    assert path.log_values.tolist() == [0.0, -math.inf, -math.inf, -math.inf]
    assert path.flags.tolist() == [True, False, False]


def test_slope_onto_zero_is_refused(capsys):
    code = cli.main(["exponent", "as-slope", *_ZERO_FACTOR, "--paths", "3", "--steps", "100",
                     "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, json.dumps({"error": "as-slope exponent must be finite, got -inf"}) + "\n", ""
    )


def test_simulate_onto_zero_is_refused_without_a_warning():
    # in a fresh process a numpy warning for log 0 would print above the refusal
    proc = subprocess.run(
        [sys.executable, "-m", "milstab", "simulate", *_ZERO_FACTOR, "--paths", "2", "--steps",
         "3"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: mean log-modulus must be finite, got -inf at t = 0.001\n"
    )
