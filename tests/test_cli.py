import argparse
import concurrent.futures
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import src_env

from milstab import cli, exponents, verify
from milstab.cli import (
    _METHOD_KEYS,
    DEFAULTS,
    MAX_SIGMA_POINTS,
    _parse_sigma_range,
    main,
)
from milstab.exponents import (
    _MC_CHUNK,
    MC_BLOCK,
    Method,
    as_exponent_quadrature,
    continuum_target,
    ms_exponent_exact,
    sweep_dt,
)
from milstab.model import ModelParams
from milstab.scheme import SchemeConfig, simulate_path
from milstab.stochastics import RngStream


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    data = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = data[0].split(",")
    rows = [line.split(",") for line in data[1:]]
    return comments, header, rows


def domain_refusal(lower):
    """The one refusal of the almost-sure estimators, at F's lower bound `lower`."""
    return (
        f"the step factor's lower bound c0 - 1/(2*denom) = {lower} must be positive for the "
        "almost-sure exponent estimators"
    )


#: The refusals at the two points outside the domain that the tests use:
#: gamma_dt = 0.3995 (lambda -600, sigma 1, dt 1e-3) and eta = 0.2.
PLAIN_REFUSAL = domain_refusal(-0.10050000000000003)
THETA_REFUSAL = domain_refusal(-0.30000000000000004)


class TestExponentCommand:
    def test_default_json(self, capsys):
        code, out, _ = run_cli(capsys, "exponent")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["method", "dt", "value", "continuum_value", "region_class"]
        assert obj["method"] == "as-quad"
        assert obj["continuum_value"] == 2.0
        assert obj["region_class"] == "blow-up"
        ref = as_exponent_quadrature(ModelParams(8.0, 2.0, 4.0), 1e-3).value
        assert obj["value"] == ref

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_one_refusal_order(self, capsys, method):
        # every method refuses the theta scheme, then dt, then the pole, then
        # the sample, step and path counts, then the almost-sure domain
        counts = ["--samples", "5", "--steps", "0", "--paths", "1"]
        for flags, refusal in [
            ("--epsilon 0 --theta 1.5 --dt 2", "theta must lie in [0, 1], got 1.5"),
            ("--epsilon 0 --theta 1 --dt 2", "dt must lie in (0, 1), got 2.0"),
            ("--lambda 20 --epsilon 0 --theta 1 --dt 0.1", "implicit step ill-posed"),
        ]:
            code, _, err = run_cli(capsys, "exponent", method, *flags.split(), *counts,
                                   "--format", "csv")
            assert code == 2 and err.startswith(f"error: {refusal}")
        # gamma_dt = 0.3995 is outside the domain, which the mean-square
        # methods do not read and as-slope's paths run past
        code, _, err = run_cli(capsys, "exponent", method, "--lambda", "-600", "--sigma", "1",
                               "--epsilon", "0", *counts, "--theta", "0", "--format", "csv")
        first = {"as-mc": "n_samples must be at least", "as-slope": "n_steps must be a positive",
                 "as-quad": "the step factor's lower bound", "theta-as": "the step factor's"}
        if method in first:
            assert code == 2 and err.startswith(f"error: {first[method]}")

    def test_std_error_key_present_for_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "as-mc", "--samples", "1000", "--seed", "1"
        )
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == [
            "method",
            "dt",
            "value",
            "std_error",
            "continuum_value",
            "region_class",
        ]
        assert obj["std_error"] > 0.0

    def test_stable_point_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--lambda", "6", "--epsilon", "0.5", "--sigma", "4"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["continuum_value"] == -1.875
        assert obj["region_class"] == "stable"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "ms-exact", "--format", "csv")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["method", "dt", "value", "std_error", "continuum_value", "region_class"]
        assert len(rows) == 1
        assert rows[0][0] == "ms-exact"
        assert float(rows[0][2]) == ms_exponent_exact(ModelParams(8.0, 2.0, 4.0), 1e-3).value

    def test_precondition_error_as_json(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "theta-ms")
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "args, refusal",
        [
            (("as-quad", "--lambda", "-600", "--sigma", "1"), PLAIN_REFUSAL),
            (("as-mc", "--lambda", "-600", "--sigma", "1"), PLAIN_REFUSAL),
            (("theta-as", "--lambda", "-80", "--sigma", "0", "--theta", "0", "--dt", "0.01"),
             THETA_REFUSAL),
        ],
        ids=["as-quad", "as-mc", "theta-as"],
    )
    def test_floor_refusal_text(self, capsys, args, refusal):
        code, out, err = run_cli(capsys, "exponent", *args, "--epsilon", "0")
        assert code == 2
        assert err == ""
        assert out == json.dumps({"error": refusal}) + "\n"

    def test_plain_and_theta_zero_answer_alike(self, capsys):
        # gamma_dt = 0.6995 lies between the domain's 1/2 and the sandwich
        # lemma's 3/4, which the plain estimators used to refuse
        point = ("--lambda", "-300", "--sigma", "1", "--epsilon", "0")
        code, out, _ = run_cli(capsys, "exponent", "as-quad", *point)
        assert code == 0
        plain = json.loads(out)
        assert plain["value"] == -357.6960707479397
        code, out, _ = run_cli(capsys, "exponent", "theta-as", "--theta", "0", *point)
        assert code == 0
        assert json.loads(out) == dict(plain, method="theta-as")

    @pytest.mark.parametrize("theta", ["0", "0.5", "1"])
    @pytest.mark.parametrize("plain, named", [("ms-exact", "theta-ms"), ("as-quad", "theta-as")])
    @pytest.mark.parametrize("command", ["exponent", "sweep-dt"])
    def test_plain_method_with_theta_is_the_theta_method(self, capsys, command, plain, named,
                                                         theta):
        # dt 0.02 is answered by Gauss-Hermite, 1e-3 and 1e-4 by the root series
        args = ("--epsilon", "0", "--theta", theta, "--format", "json")
        args += ("--dt", "0.02") if command == "exponent" else ("--dts", "2e-2,1e-3,1e-4")
        code, out, _ = run_cli(capsys, command, plain, *args)
        assert code == 0
        code, theirs, _ = run_cli(capsys, command, named, *args)
        assert code == 0
        assert out == theirs.replace(f'"method": "{named}"', f'"method": "{plain}"')

    @pytest.mark.parametrize("model", [(), ("--lambda", "-0", "--sigma", "0")],
                             ids=["default", "signed-zero"])
    @pytest.mark.parametrize("method", ["ms-exact", "as-quad", "as-mc", "as-slope"])
    def test_theta_zero_gives_the_plain_bits(self, capsys, method, model):
        # only the theta provenance line tells the theta = 0 scheme from the
        # plain one, down to the sign of a zero value at lambda = -0
        args = ("exponent", method, "--epsilon", "0", "--samples", "1000", "--paths", "3",
                "--steps", "40", "--format", "csv", *model)
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        code, theta, _ = run_cli(capsys, *args, "--theta", "0")
        assert code == 0
        assert "# theta=0.0\n" in theta
        assert theta.replace("# theta=0.0\n", "") == plain

    @pytest.mark.parametrize("method", ["ms-exact", "as-quad", "as-mc", "as-slope"])
    def test_plain_method_refuses_theta_at_epsilon(self, capsys, method):
        code, out, err = run_cli(capsys, "exponent", method, "--theta", "0.5")
        assert (code, err) == (2, "")
        assert out == '{"error": "theta scheme requires epsilon = 0, got epsilon = 2.0"}\n'

    @pytest.mark.parametrize(
        "args, value",
        [
            (("ms-exact", "--epsilon", "1e200"), "inf"),
            (("as-quad", "--epsilon", "1e200"), "inf"),
            (("as-mc", "--epsilon", "1e200", "--samples", "1000"), "inf"),
            (("as-slope", "--epsilon", "1e200", "--steps", "10", "--paths", "2"), "inf"),
        ],
        ids=["ms-exact", "as-quad", "as-mc", "as-slope"],
    )
    def test_non_finite_exponent_is_refused(self, capsys, args, value):
        refusal = f"{args[0]} exponent must be finite, got {value}"
        # the refusal is the only output: no numpy warning precedes it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(capsys, "exponent", *args) == (
                2, json.dumps({"error": refusal}) + "\n", ""
            )
            assert run_cli(capsys, "exponent", *args, "--format", "csv") == (
                2, "", f"error: {refusal}\n"
            )
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_nan_paths_warn_nothing(self, capsys, threads):
        # sigma^2 overflows and every step factor is NaN, on the worker
        # threads too: the refusal is the only output
        args = ["--sigma", "1e200", "--steps", "10", "--paths", "4", "--threads", threads]
        refusal = "as-slope exponent must be finite, got nan"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(capsys, "exponent", "as-slope", *args) == (
                2, json.dumps({"error": refusal}) + "\n", ""
            )
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "method, model",
        [
            ("ms-exact", {"lambda": 1e200}),
            ("ms-exact", {"lambda": -1e200}),
            ("ms-exact", {"sigma": 1e100}),
            ("theta-ms", {"lambda": 1e200, "epsilon": 0.0, "theta": 0.0}),
            ("theta-ms", {"lambda": 1.0, "sigma": 1e100, "epsilon": 0.0, "theta": 0.5}),
        ],
        ids=["lambda", "negative-lambda", "sigma", "theta-lambda", "theta-sigma"],
    )
    def test_overflowing_ms_base_is_answered(self, capsys, method, model):
        # E F^2 - 1 overflows a double at dt = 0.5, but log(E F^2) does not
        mpmath = pytest.importorskip("mpmath")
        params = {"lambda": 8.0, "epsilon": 2.0, "sigma": 4.0, "theta": 0.0, **model}
        flags = [f"--{name}={value!r}" for name, value in model.items()]
        code, out, err = run_cli(capsys, "exponent", method, "--dt", "0.5", *flags)
        assert (code, err) == (0, "")
        with mpmath.workdps(40):
            lam, eps, sigma, theta = (mpmath.mpf(params[k]) for k in params)
            dt = mpmath.mpf(0.5)
            denom = 1 - lam * theta * dt
            mean = 1 + (lam + eps**2 / 2) * dt / denom  # E F
            var = (sigma**2 * dt + sigma**4 * dt**2 / 2) / denom**2  # Var F
            expected = float(mpmath.log(mean**2 + var) / (2 * dt))
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-15)

    def test_overflowing_continuum_is_refused(self, capsys):
        # the discrete exponent is finite here, but sigma^2/2 overflows
        args = ("exponent", "ms-exact", "--sigma", "1e200", "--dt", "0.5")
        refusal = "continuum exponent must be finite, got inf"
        assert run_cli(capsys, *args) == (2, json.dumps({"error": refusal}) + "\n", "")
        assert run_cli(capsys, *args, "--format", "csv") == (2, "", f"error: {refusal}\n")

    def test_overflowing_std_error_is_refused(self, capsys):
        # M2 of these path slopes overflows, though their true spread is finite
        args = ("exponent", "as-slope", "--dt", "1e-310", "--sigma", "1e150", "--paths", "3",
                "--steps", "10")
        refusal = "std_error must be finite and nonnegative, got inf"
        assert run_cli(capsys, *args) == (2, json.dumps({"error": refusal}) + "\n", "")

    def test_overflowing_slope_is_refused_without_a_warning(self):
        # each path's slope overflows a float; in a fresh process a numpy
        # division would print its warning above the refusal
        proc = subprocess.run(
            [sys.executable, "-m", "milstab", "exponent", "as-slope", "--paths", "2", "--steps",
             "1", "--sigma", "1.3e154", "--epsilon", "0", "--lambda", "0", "--dt", "2e-310",
             "--format", "csv"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: as-slope exponent must be finite, got inf\n"
        )

    def test_precondition_error_follows_out(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "exponent", "as-quad", "--lambda", "-600", "--sigma", "1", "--epsilon", "0",
            "--out", str(target),
        )
        assert code == 2
        assert (out, err) == ("", "")
        assert target.read_text() == json.dumps({"error": PLAIN_REFUSAL}) + "\n"

    def test_bad_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "bogus-method"])
        assert exc.value.code == 2


def _simulate_reference(steps, paths, seed):
    """The (times, path matrix, mean) simulate tabulates, from the library."""
    cfg = SchemeConfig(dt=1e-3, n_steps=steps)
    p = ModelParams(8.0, 2.0, 4.0)
    runs = [simulate_path(p, cfg, RngStream(root_seed=seed, stream_id=i)) for i in range(paths)]
    matrix = np.column_stack([run.log_values for run in runs])
    return cfg.dt * np.arange(steps + 1), matrix, matrix.mean(axis=1)


class TestSimulateCommand:
    def test_csv_shape_and_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", "16", "--paths", "3", "--seed", "5"
        )
        assert code == 0
        assert "\r" not in out
        comments, header, rows = parse_csv(out)
        assert header == ["t", "path_0", "path_1", "path_2", "mean"]
        assert len(rows) == 17
        assert any(line == "# seed=5" for line in comments)
        for row in rows:
            vals = [float(v) for v in row]
            assert vals[4] == pytest.approx(sum(vals[1:4]) / 3.0, rel=1e-12, abs=1e-15)
        assert [float(r[0]) for r in rows[:3]] == pytest.approx([0.0, 1e-3, 2e-3])

    def test_csv_cells_are_repr_of_path_values(self, capsys):
        # reference: each cell is repr of the float it holds, built cell by cell
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", "40", "--paths", "3", "--seed", "9"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        times, matrix, mean = _simulate_reference(40, 3, 9)
        expect = [
            [repr(float(times[k]))]
            + [repr(float(matrix[k, j])) for j in range(3)]
            + [repr(float(mean[k]))]
            for k in range(41)
        ]
        assert rows == expect

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", "4", "--paths", "2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["columns"] == ["t", "path_0", "path_1", "mean"]
        assert len(obj["rows"]) == 5
        assert obj["params"]["paths"] == 2

    def test_initial_datum_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x0": 3.0, "y0": 4.0, "steps": 2, "paths": 1}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.log(5.0), rel=1e-14)

    @pytest.mark.parametrize("datum, start", [
        ({"x0": 1e-200}, math.log(1e-200)),  # x0^2 underflows to 0
        ({"x0": 1e200, "y0": 1e200}, math.log(math.sqrt(2.0) * 1e200)),  # overflows
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_extreme_initial_datum(self, capsys, tmp_path, fmt, datum, start):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**datum, "steps": 3, "paths": 2}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            rows = json.loads(out, parse_constant=pytest.fail)["rows"]
        else:
            rows = [[float(cell) for cell in row] for row in parse_csv(out)[2]]
        assert rows[0][1] == pytest.approx(start, rel=1e-15)
        assert all(map(math.isfinite, itertools.chain(*rows)))

    def test_origin_datum_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x0": 0, "y0": 0}))
        got = run_cli(capsys, "simulate", "--steps", "3", "--config", str(cfg))
        assert got == (2, "", "error: initial datum (x0, y0) must not be the origin\n")

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_table_is_refused(self, tmp_path, fmt, threads):
        # sigma^2 overflows, so every step factor is NaN: one error line on
        # stderr, no numpy warning before it, and no --out file
        target = tmp_path / f"sim.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-m", "milstab", "simulate", "--sigma", "1e200", "--format", fmt,
             "--threads", str(threads), "--steps", "20", "--paths", "3", "--out", str(target)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == (
            "", "error: mean log-modulus must be finite, got nan at t = 0.001\n"
        )
        assert not target.exists()

    def test_theta_needs_scalar_model(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--theta", "0.5", "--steps", "4")
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--epsilon 0.5 --theta 1.5 --dt 2", "theta scheme requires epsilon = 0"),
            ("--epsilon 0 --theta 1.5 --dt 2", "theta must lie in [0, 1]"),
            ("--epsilon 0 --theta 1 --dt 2", "dt must lie in (0, 1)"),
            ("--epsilon 0 --theta 1 --dt 0.1", "implicit step ill-posed"),
        ],
    )
    def test_theta_checks_in_the_estimators_order(self, capsys, flags, message):
        # the cases of _factor's own order test, at lambda 20 and sigma 1
        args = ["--lambda", "20", "--sigma", "1", *flags.split()]
        code, _, simulate_err = run_cli(capsys, "simulate", *args)
        assert code == 2 and simulate_err.startswith(f"error: {message}")
        code, _, exponent_err = run_cli(capsys, "exponent", "theta-ms", *args, "--format", "csv")
        assert code == 2
        assert simulate_err == exponent_err

    def test_theta_refused_before_the_table_is_allocated(self, capsys):
        # 10^13 steps would need a 291 TiB table; the epsilon refusal comes first
        code, out, err = run_cli(
            capsys, "simulate", "--epsilon", "0.5", "--theta", "0.5",
            "--steps", "10000000000000", "--paths", "2",
        )
        assert (code, out) == (2, "")
        assert err == "error: theta scheme requires epsilon = 0, got epsilon = 0.5\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_theta_zero_gives_the_plain_rows(self, capsys, fmt, threads):
        # only the theta provenance tells the theta = 0 scheme from the plain one
        args = ["simulate", "--epsilon", "0", "--steps", "64", "--paths", "3", "--format", fmt,
                "--threads", threads]
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        code, theta, _ = run_cli(capsys, *args, "--theta", "0")
        assert code == 0
        if fmt == "csv":
            assert "# theta=0.0\n" in theta
            assert theta.replace("# theta=0.0\n", "") == plain
        else:
            obj = json.loads(theta)
            assert obj["params"].pop("theta") == 0.0
            assert obj == json.loads(plain)

    def test_table_too_large_is_one_error_line(self):
        # 291 TiB exceeds any 47-bit address space, so the allocation fails at once
        proc = subprocess.run(
            [sys.executable, "-m", "milstab", "simulate", "--steps", "10000000000000",
             "--paths", "2"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sim.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", "4", "--paths", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text

    def test_unwritable_out(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--steps", "2", "--out", "/nonexistent-dir/x.csv"
        )
        assert code == 1
        assert "cannot write" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_text_only_stdout(self, capsys, fmt):
        # the formatted slices are bytes; a stdout with no binary layer gets them as text
        args = ["simulate", "--steps", "40", "--paths", "2", "--format", fmt]
        expected = run_cli(capsys, *args)
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = main(args)
        assert (code, text.getvalue()) == expected[:2]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_gets_the_bytes_of_out(self, monkeypatch, tmp_path, fmt):
        # head, slices and tail share one binary layer: a text layer that would
        # translate newlines or encode in UTF-16 touches none of them
        args = ["simulate", "--steps", "40", "--paths", "2", "--format", fmt]
        target = tmp_path / f"sim.{fmt}"
        assert main([*args, "--out", str(target)]) == 0
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-16", newline="\r\n"))
        assert main(args) == 0
        assert raw.getvalue() == target.read_bytes()


#: Values a worker thread formats at a time.
TASK = cli.TASK_VALUES


def _one_path_steps(tasks):
    """Steps whose one-path table (3 values a row) fills exactly `tasks` worker tasks."""
    return tasks * TASK // 3 - 1


class TestSimulateStreaming:
    """simulate writes its table in tasks of TASK values, serially or on threads."""

    # steps + 1 rows of 5 values: three whole worker tasks and a partial one,
    # with the task edges inside rows
    STEPS = (3 * TASK + 7) // 5
    PATHS = 3
    SEED = 9

    def _expected(self, fmt):
        times, matrix, mean = _simulate_reference(self.STEPS, self.PATHS, self.SEED)
        header = ["t", "path_0", "path_1", "path_2", "mean"]
        params = {
            "lambda": 8.0, "epsilon": 2.0, "sigma": 4.0, "dt": 0.001, "steps": self.STEPS,
            "paths": self.PATHS, "seed": self.SEED, "x0": 1.0, "y0": 0.0,
        }
        if fmt == "json":
            rows = np.column_stack((times, matrix, mean)).tolist()
            return json.dumps({"params": params, "columns": header, "rows": rows}) + "\n"
        lines = [f"# {key}={value}" for key, value in sorted(params.items())]
        lines.append(",".join(header))
        for k in range(self.STEPS + 1):
            cells = [times[k], *(matrix[k, j] for j in range(self.PATHS)), mean[k]]
            lines.append(",".join(repr(float(cell)) for cell in cells))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("dest", ["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_whole_table(self, capsys, tmp_path, fmt, dest, threads):
        args = [
            "simulate", "--steps", str(self.STEPS), "--paths", str(self.PATHS),
            "--seed", str(self.SEED), "--format", fmt, "--threads", str(threads),
        ]
        target = tmp_path / f"sim.{fmt}"
        if dest == "out":
            args += ["--out", str(target)]
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        if dest == "out":
            assert out == ""
            out = target.read_bytes().decode("utf-8")
        assert out == self._expected(fmt)

    @pytest.mark.parametrize("steps", [10, 2100])
    @pytest.mark.parametrize("paths", [1, 3, 200])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_do_not_depend_on_threads(self, capsys, fmt, paths, steps):
        # 200 paths of 2100 steps make 26 worker tasks; every other table
        # makes fewer tasks than 4 threads, and 10 steps make one
        outputs = {
            threads: run_cli(
                capsys, "simulate", "--steps", str(steps), "--paths", str(paths),
                "--seed", "11", "--format", fmt, "--threads", str(threads),
            )
            for threads in (1, 2, 4)
        }
        assert outputs[1][0] == 0 and outputs[1][2] == ""
        assert outputs[2] == outputs[1] and outputs[4] == outputs[1]

    @pytest.mark.parametrize("seed", [0, 1, 5, 17, 42, 63])
    def test_simulate_out_goldens(self, monkeypatch, tmp_path, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench import golden

        recorded = json.loads(golden.GOLDEN.read_text())[str(seed)]
        assert golden.digests(seed, tmp_path) == recorded

    @pytest.mark.parametrize(
        "threads, steps, cpus, workers",
        [
            (1, _one_path_steps(4), 4, None),  # one thread asked for
            (64, 10, 4, None),  # a single task
            (2, _one_path_steps(4), 1, None),  # a single usable CPU
            (64, _one_path_steps(3), 4, 3),  # limited by the task count
            (64, _one_path_steps(6), 4, 4),  # limited by the CPUs
            (2, _one_path_steps(6), 4, 2),  # limited by --threads
        ],
    )
    def test_pool_size(self, capsys, monkeypatch, threads, steps, cpus, workers):
        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            @staticmethod
            def submit(fn, *args):
                done = concurrent.futures.Future()
                done.set_result(fn(*args))
                return done

        # one path runs inline, so a pool can only be the one that formats slices
        monkeypatch.setattr(exponents, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(exponents, "_usable_cpus", lambda: cpus)
        args = ("simulate", "--steps", str(steps), "--paths", "1")
        code, out, _ = run_cli(capsys, *args, "--threads", str(threads))
        assert code == 0
        assert built == ([] if workers is None else [workers])
        monkeypatch.undo()
        code, serial, _ = run_cli(capsys, *args, "--threads", "1")
        assert out == serial

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_full_device_out(self, capsys, threads):
        code, out, err = run_cli(
            capsys, "simulate", "--steps", "2000", "--paths", "5", "--out", "/dev/full",
            "--threads", str(threads),
        )
        assert code == 1
        assert out == ""
        assert err == "error: cannot write /dev/full: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("steps", ["3", "2000"])
    def test_full_device_stdout(self, steps, unbuffered):
        # a fresh interpreter, so that its exit-time flush of what stdout still
        # buffers is covered too
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "milstab", "simulate", "--steps", steps, "--paths", "5"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=src_env(unbuffered),
                timeout=120,
            )
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"
        assert proc.returncode == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("fmt, threads", [("csv", "1"), ("json", "2")])
    def test_reader_closing_early_is_quiet(self, fmt, threads, unbuffered):
        # `milstab simulate --steps 20000 | head -c 100`: megabytes of output
        # against a closed pipe end with exit 0 and nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "milstab", "simulate", "--steps", "20000",
             "--format", fmt, "--threads", threads],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(unbuffered),
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()


@pytest.mark.parametrize(
    "args",
    [("sweep-dt", "as-mc", "--samples", "524288", "--dts", "1e-2,1e-3,1e-4"),
     ("simulate", "--paths", "4")],
    ids=["sweep-dt", "simulate"],
)
def test_a_command_starts_its_workers_once(capsys, monkeypatch, args):
    # every fan-out runs on the first one's pool: the sweep's three rows of two
    # Monte Carlo blocks each, and simulate's four paths and its four slices,
    # used to build three pools and two
    built = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(exponents, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(exponents, "_usable_cpus", lambda: 2)
    code, out, err = run_cli(capsys, *args, "--threads", "2")
    assert (code, err, built) == (0, "", [2])
    monkeypatch.undo()
    assert run_cli(capsys, *args, "--threads", "1") == (code, out, err)


class TestFullStdout:
    """Every command writes stdout through one writer, so write errors end the same way."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "args",
        [
            ("exponent", "as-quad", "--dt", "0.9"),  # the error object of a refused estimate
            ("verify", "--suite", "lemmas"),  # the check lines
            ("sweep-dt", "ms-exact", "--dts", "1e-2,1e-3,1e-4", "--out"),  # the echoed fit
            ("exponent", "--help"),  # argparse's help text
        ],
        ids=["exponent-error", "verify", "sweep-fit", "help"],
    )
    def test_full_device(self, tmp_path, args, unbuffered):
        if args[-1] == "--out":
            args += (str(tmp_path / "sweep.csv"),)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "milstab", *args],
                stdout=full, stderr=subprocess.PIPE, text=True, env=src_env(unbuffered),
                timeout=120,
            )
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "args", [("region", "--sigma-range", "0:1:1"), ("exponent", "--help")], ids=["region", "help"]
    )
    def test_stdout_closed_at_start(self, args):
        # `milstab region ... >&-`: with descriptor 1 closed sys.stdout is None
        proc = subprocess.run(
            [sys.executable, "-m", "milstab", *args], preexec_fn=lambda: os.close(1),
            stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120,
        )
        assert proc.stderr == "error: cannot write stdout: [Errno 9] Bad file descriptor\n"
        assert proc.returncode == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("read", [0, 10])
    def test_verify_reader_closing_early_is_quiet(self, read, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "milstab", "verify", "--suite", "lemmas"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(unbuffered),
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0  # verify's own code: the lemma checks pass
        assert proc.stderr.read() == b""
        proc.stderr.close()


@pytest.mark.parametrize(
    "flag", [flag for flag, cast, *_ in cli._PARAMS.values() if flag and cast in (int, float)]
)
def test_negative_value_in_exponent_notation(capsys, flag):
    # before Python 3.13 argparse took '-1e-3' for an option and refused the flag
    def run(text):
        try:
            code = main(["exponent", "ms-exact", flag, text])
        except SystemExit as exc:  # argparse's refusal of an int flag's value
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err.replace(text, "<value>")

    assert run("-1e-3") == run("-0.001")


#: The spans that the subcommands fire, each from a hook a caller looks up.
#: The tracer's other hooks (lemmas.gauss_hermite_rule, and on cli
#: gauss_hermite_rule, simulate_path, simulate_theta_path, fit_loglog and the
#: verify names) are never looked up there, so they fire nothing.
_LIVE_SPANS = {
    "normals", "gauss_hermite_rule", "simulate_path", "estimate", "ms_exponent_exact",
    "theta_ms_exponent", "as_exponent_quadrature", "theta_as_exponent_quadrature",
    "as_exponent_mc", "path_slope", "classify", "as_boundary_epsilon",
}


def test_the_live_spans_fire(monkeypatch, capsys, tmp_path):
    # a name check cannot see a span stop when its caller stops looking the
    # name up; running the calls under the tracer can
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.spans import Tracer

    theta = ["--theta", "0.5", "--epsilon", "0"]
    calls = [
        ["exponent", "ms-exact"],
        ["exponent", "as-quad", "--dt", "0.1"],
        ["exponent", "theta-ms", *theta],
        ["exponent", "theta-as", *theta],
        ["exponent", "as-mc", "--samples", "1000"],
        ["exponent", "as-slope", "--paths", "2", "--steps", "10"],
        ["region", "--sigma-range", "0:1:1"],
        ["simulate", "--paths", "2", "--steps", "10", "--out", str(tmp_path / "s.csv")],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        codes = [main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(calls)
    assert {span.name for span in tracer.spans} == _LIVE_SPANS


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys, milstab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
        "             or m == 'concurrent.futures.process'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_DEFAULT_DTS = [float(dt) for dt in DEFAULTS["dts"].split(",")]


class TestSweepCommand:
    @pytest.mark.parametrize(
        "args, p, dts, method, params, refusal",
        [
            (("ms-exact", "--dts", "1e-2,2,1e-3,1e-4"), ModelParams(8.0, 2.0, 4.0),
             [1e-2, 2.0, 1e-3, 1e-4], Method.MS_EXACT, {}, None),
            # the sample count is refused before the continuum exponent overflows
            (("as-mc", "--epsilon", "1e200", "--samples", "5"), ModelParams(8.0, 1e200, 4.0),
             _DEFAULT_DTS, Method.AS_MONTE_CARLO, {"n_samples": 5},
             "n_samples must be at least 100, got 5"),
            # its dt = 0.1 row is refused
            (("theta-as", "--theta", "0.5", "--epsilon", "0"), ModelParams(8.0, 0.0, 4.0),
             _DEFAULT_DTS, Method.THETA_AS_QUADRATURE, {"theta": 0.5}, None),
        ],
        ids=["refused-row", "refused-sweep", "theta-as"],
    )
    def test_prints_the_library_sweep(self, capsys, args, p, dts, method, params, refusal):
        code, out, err = run_cli(capsys, "sweep-dt", *args, "--format", "json")
        if refusal is not None:
            assert (code, out, err) == (2, "", f"error: {refusal}\n")
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                sweep_dt(p, dts, method, **params)
            return
        rows, fit = sweep_dt(p, dts, method, **params)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["rows"] == rows
        assert obj["fit"] == json.loads(json.dumps(vars(fit)))

    def test_csv_with_fit_comment(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-dt", "ms-exact", "--dts", "1e-2,1e-3,1e-4")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["dt", "discrete_value", "continuum_value", "abs_error"]
        assert len(rows) == 3
        fit_lines = [c for c in comments if c.startswith("# fit=")]
        assert len(fit_lines) == 1
        fit = json.loads(fit_lines[0][len("# fit=") :])
        assert 0.9 <= fit["order_p"] <= 1.1
        assert set(fit) == {"constant_C", "order_p", "residual", "dts", "errors"}

    def test_out_writes_sidecar(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep-dt", "ms-exact", "--dts", "1e-2,1e-3,1e-4", "--out", str(target)
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "sweep.csv.fit.json").read_text())
        echoed = json.loads(out)
        assert echoed == sidecar
        assert "# fit=" not in target.read_text()

    def test_error_rows_marked(self, capsys):
        # the first step size defeats the quadrature doubling check
        code, out, _ = run_cli(
            capsys, "sweep-dt", "as-quad", "--dts", "0.5,1e-3,1e-4,1e-5"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0][1] == "error" and rows[0][3] == "error"
        assert float(rows[1][1]) != 0.0

    def test_error_row_carries_refusal(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-dt", "as-quad", "--lambda", "-600", "--sigma", "1", "--epsilon", "0",
            "--dts", "1e-3,1e-4,1e-5,1e-6", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {
            "dt": 1e-3, "continuum_value": -600.5, "discrete_value": None, "abs_error": None,
            "error": PLAIN_REFUSAL,
        }
        assert all("error" not in row for row in rows[1:])

    @pytest.mark.parametrize(
        "args, value",
        [(("ms-exact", "--epsilon", "1e200"), "inf"), (("as-quad", "--sigma", "1e200"), "-inf")],
        ids=["ms-exact", "as-quad"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_continuum_is_refused(self, capsys, fmt, args, value):
        # refused once for the whole sweep, before any estimate
        assert run_cli(capsys, "sweep-dt", *args, "--format", fmt) == (
            2, "", f"error: continuum exponent must be finite, got {value}\n"
        )

    @pytest.mark.parametrize(
        "args, refusal",
        [
            (("theta-as",), "method theta-as requires theta"),
            (("theta-as", "--epsilon", "0", "--theta", "2"), "theta must lie in [0, 1], got 2.0"),
            (("theta-ms", "--theta", "0.5"), "theta scheme requires epsilon = 0, got epsilon = 2.0"),
            (("as-mc", "--samples", "5"), "n_samples must be at least 100, got 5"),
            (("as-slope", "--paths", "1"), "need at least 2 paths, got 1"),
            (("as-slope", "--steps", "0"), "n_steps must be a positive integer, got 0"),
            (("as-slope", "--steps", "0", "--paths", "1"),
             "n_steps must be a positive integer, got 0"),
            # several errors at once: exponent's one order, the theta scheme,
            # then the counts, then the domain, is the sweep's
            *(((method, flag, value, "--epsilon", "0", "--theta", "1.5"),
               "theta must lie in [0, 1], got 1.5")
              for method, flag, value in [("as-mc", "--samples", "5"),
                                          ("as-slope", "--steps", "0"),
                                          ("as-slope", "--paths", "1")]),
            (("as-slope", "--paths", "1", "--theta", "0.5"),
             "theta scheme requires epsilon = 0, got epsilon = 2.0"),
            (("as-mc", "--samples", "5", "--lambda", "-600", "--sigma", "1", "--epsilon", "0"),
             "n_samples must be at least 100, got 5"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dt_free_refusal_is_made_once(self, capsys, monkeypatch, fmt, args, refusal):
        # no step size fixes these, so the sweep is refused before any estimate,
        # with the text and exit code of exponent under the same flags
        code, out, _ = run_cli(capsys, "exponent", *args, "--format", "json")
        assert (code, json.loads(out)) == (2, {"error": refusal})

        def estimated(*_, **__):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(exponents, "estimate", estimated)  # which sweep_dt calls
        got = run_cli(capsys, "sweep-dt", *args, "--format", fmt)
        assert got == (2, "", f"error: {refusal}\n")

    def test_theta_pole_stays_a_row_error(self, capsys):
        # 1 - lam*theta*dt depends on dt, so only the rows it refuses carry it
        code, out, _ = run_cli(
            capsys, "sweep-dt", "theta-ms", "--lambda", "20", "--epsilon", "0", "--theta", "1",
            "--dts", "0.1,1e-2,1e-3,1e-4", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["error"].startswith("implicit step ill-posed: 1 - lam*theta*dt = ")
        assert all("error" not in row for row in rows[1:])

    def test_too_few_successes(self, capsys):
        code, out, err = run_cli(capsys, "sweep-dt", "as-quad", "--dts", "0.5,1e-3,1e-4")
        assert code == 1
        assert "fewer than 3" in err

    def test_all_zero_errors_leave_no_fit(self, capsys):
        # without noise or drift every estimate is exact: each error is 0.0 and none is fitted
        args = ("sweep-dt", "ms-exact", "--lambda", "0", "--epsilon", "0", "--sigma", "0")
        dts = [0.1, 0.01, 0.001, 0.0001, 1e-05]
        code, out, err = run_cli(capsys, *args, "--format", "json")
        assert code == 1
        assert err == "error: fewer than 3 usable step sizes, no convergence fit\n"
        obj = json.loads(out)
        assert obj["fit"] is None
        assert obj["rows"] == [
            {"dt": dt, "continuum_value": 0.0, "discrete_value": 0.0, "abs_error": 0.0}
            for dt in dts
        ]
        code, out, csv_err = run_cli(capsys, *args)
        assert (code, csv_err) == (1, err)
        comments, header, rows = parse_csv(out)
        assert not any(line.startswith("# fit=") for line in comments)
        assert header == ["dt", "discrete_value", "continuum_value", "abs_error"]
        assert rows == [[str(dt), "0.0", "0.0", "0.0"] for dt in dts]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-dt", "ms-exact", "--dts", "1e-2,1e-3,1e-4", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 3
        assert obj["fit"]["order_p"] == pytest.approx(0.9662387404906309, rel=1e-12)
        assert obj["rows"][0]["abs_error"] > 0.0


class TestRegionCommand:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--lambda", "8", "--sigma-range", "3.9:4.2:0.1"
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == [
            "sigma",
            "epsilon_boundary_plus",
            "epsilon_boundary_minus",
            "class_at_epsilon_0",
        ]
        assert len(rows) == 4
        assert rows[0][1] == "" and rows[0][3] == "blow-up"
        assert float(rows[1][1]) == 0.0 and rows[1][3] == "boundary"
        assert float(rows[2][1]) == pytest.approx(0.9, abs=1e-12)
        assert rows[3][3] == "stable"

    def test_default_grid_size(self, capsys):
        code, out, _ = run_cli(capsys, "region")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 101
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(5.0, abs=1e-9)

    def test_json_nulls(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--lambda", "8", "--sigma-range", "0:1:1", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"][0]["epsilon_boundary_plus"] is None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_discriminant(self, capsys, fmt):
        # 2*lambda overflows, sqrt(sigma^2 - 2*lambda) does not
        code, out, _ = run_cli(
            capsys, "region", "--lambda", "-1e308", "--sigma-range", "0:1:1", "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            rows = json.loads(out, parse_constant=pytest.fail)["rows"]
            bounds = [(row["epsilon_boundary_minus"], row["epsilon_boundary_plus"]) for row in rows]
        else:
            bounds = [(float(row[2]), float(row[1])) for row in parse_csv(out)[2]]
        assert bounds == [(-1.414213562373095e154, 1.414213562373095e154)] * 2

    def test_bad_range(self, capsys):
        for bad in ("1:0:0.1", "0:5:-1", "0:5", "a:b:c"):
            code, _, err = run_cli(capsys, "region", "--sigma-range", bad)
            assert code == 2

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("0:inf:1", "must be finite"),
            ("-inf:1:0.5", "must be finite"),
            ("nan:1:0.5", "must be finite"),
            ("0:1:nan", "must be finite"),
            ("0:1e300:1e-300", "more than"),
            ("-1e308:1e308:1", "more than"),
            ("0:1e9:1", "more than"),
        ],
    )
    def test_unbounded_range_is_refused(self, capsys, bad, reason):
        code, out, err = run_cli(capsys, "region", f"--sigma-range={bad}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: sigma range") and reason in err

    def test_largest_grid_is_accepted(self):
        sigmas = _parse_sigma_range(f"0:{MAX_SIGMA_POINTS - 1}:1")
        assert len(sigmas) == MAX_SIGMA_POINTS
        with pytest.raises(ValueError, match="more than"):
            _parse_sigma_range(f"0:{MAX_SIGMA_POINTS}:1")


#: The lemmas suite's checks, byte for byte; the suite draws no random numbers.
_LEMMAS_CHECKS = [
    (
        "lemmas.sandwich",
        "0 violations over 800000 points, worst margins 0.0 (upper) and "
        "4.440892098500626e-16 (lower)",
    ),
    (
        "lemmas.xi_continuity",
        "|xi| at x = +-1e-12 stays below 1e-20, worst 2.1333333333333332e-35",
    ),
    ("lemmas.xi_nonpositive", "max of xi over the sampled domain is -3.814695817637643e-38"),
]


#: The moments suite's quadrature line, which depends on no flag.
_HERMITE_LINE = (
    "moments.hermite_even_moments: PASS - orders 2..20 against closed-form moments, worst "
    "relative error 3.7143142097911834e-14\n"
)

#: z-scores printed by `verify --suite all` at default sizes: the moments
#: suite's mean and second moment, then the closed-form suite's.
_ALL_SUITES_Z = {
    (("8", "2", "4"), "1"): ("0.333", "0.784", "1.352"),
    (("8", "2", "4"), "7"): ("0.083", "0.910", "0.031"),
    (("8", "2", "4"), "42"): ("0.046", "1.945", "0.908"),
    (("-1", "0", "1"), "1"): ("0.273", "0.886", "0.546"),
    (("-1", "0", "1"), "7"): ("0.126", "0.714", "0.110"),
    (("-1", "0", "1"), "42"): ("0.175", "1.939", "0.022"),
}


#: verify.run's keyword inputs at the CLI defaults.
_VERIFY_INPUTS = {
    "seed": DEFAULTS["seed"],
    "n_samples": DEFAULTS["samples"],
}


def _check_lines(records):
    return "".join(
        f"{r['name']}: {'PASS' if r['passed'] else 'FAIL'} - {r['detail']}\n" for r in records
    )


class TestDatumIsSimulatesAlone:
    """A path is log|Z_n/Z_0|: no exponent reads the initial datum, or refuses it."""

    def test_as_slope_bits_do_not_depend_on_the_datum(self, capsys, tmp_path):
        # a path that carried log|Z_0| would round the slope ((S + log|Z_0|) - log|Z_0|)/t
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x0": 1e300}))
        args = ("exponent", "as-slope", "--paths", "5", "--steps", "1000")
        expected = run_cli(capsys, *args)
        assert json.loads(expected[1])["value"] == 1.463049749135154
        assert run_cli(capsys, *args, "--config", str(cfg)) == expected

    @pytest.mark.parametrize("command", ["exponent", "sweep-dt"])
    def test_origin_datum_is_not_read(self, capsys, tmp_path, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x0": 0, "y0": 0}))
        expected = run_cli(capsys, command, "ms-exact")
        assert expected[0] == 0
        assert run_cli(capsys, command, "ms-exact", "--config", str(cfg)) == expected


class TestVerifyCommand:
    def test_closedform_does_not_read_the_datum(self, capsys, tmp_path):
        # it compares |Z_n|^2 / |Z_0|^2: a datum whose square underflows no
        # longer turns every path into 0 and the z-score into 0.000
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x0": 1e-200}))
        expected = run_cli(capsys, "verify", "--suite", "closedform")
        assert "z = 0.908 " in expected[1]
        assert run_cli(capsys, "verify", "--suite", "closedform", "--config", str(cfg)) == expected

    @pytest.mark.parametrize("point, seed", list(_ALL_SUITES_Z))
    def test_all_suites_pinned(self, capsys, point, seed):
        # the bytes of every suite, from before the suites drew and reduced
        # their samples block by block
        lam, eps, sigma = point
        z_mean, z_second, z_closed = _ALL_SUITES_Z[point, seed]
        code, out, err = run_cli(capsys, "verify", "--lambda", lam, "--epsilon", eps,
                                 "--sigma", sigma, "--seed", seed)
        assert (code, err) == (0, "")
        assert out == (
            "".join(f"{name}: PASS - {detail}\n" for name, detail in _LEMMAS_CHECKS)
            + "moments.composite_vs_mc: PASS - mean and second moment within 4 standard "
            f"errors, z = {z_mean} and {z_second} over 1000000 samples\n"
            + _HERMITE_LINE
            + "closedform.second_moment: PASS - E|Z_n|^2/|Z_0|^2 at n = 10 within 3 standard "
            f"errors of base^n, z = {z_closed} over 100000 paths\n"
        )
        p = ModelParams(float(lam), float(eps), float(sigma))
        records = verify.run("all", p, DEFAULTS["dt"], **dict(_VERIFY_INPUTS, seed=int(seed)))
        assert _check_lines(records) == out

    def test_lemmas_suite(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--suite", "lemmas", "--out", str(report_path))
        assert (code, err) == (0, "")
        assert out == "".join(f"{name}: PASS - {detail}\n" for name, detail in _LEMMAS_CHECKS)
        checks = [{"name": n, "passed": True, "detail": d} for n, d in _LEMMAS_CHECKS]
        report = {"suite": "lemmas", "passed": True, "checks": checks}
        assert report_path.read_text() == json.dumps(report, indent=2) + "\n"

    def test_all_suites_with_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--samples",
            "50000",
            "--seed",
            "7",
            "--out",
            str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "closedform.second_moment" in names
        assert "moments.composite_vs_mc" in names

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        # the library refuses the name with the text the CLI gives a config value
        p = ModelParams(DEFAULTS["lam"], DEFAULTS["epsilon"], DEFAULTS["sigma"])
        with pytest.raises(ValueError, match="^unknown verify suite 'nope'$"):
            verify.run("nope", p, DEFAULTS["dt"], **_VERIFY_INPUTS)

    @pytest.mark.parametrize(
        "args, failing",
        [
            (("--suite", "moments", "--samples", "1"), None),
            (("--suite", "moments", "--samples", "0"), None),
            (("--suite", "moments", "--sigma", "1e200"), "moments.composite_vs_mc"),
            *(
                (
                    ("--suite", "closedform", "--lambda", "1e20", "--epsilon", "0", "--sigma",
                     sigma, "--dt", "0.5"),
                    "closedform.second_moment",
                )
                for sigma in ("1", "0")
            ),
        ],
    )
    def test_no_pass_without_evidence(self, capsys, args, failing):
        # Too few samples for a standard error are refused; a statistic that
        # is not finite fails its check rather than reading as z = 0.
        code, out, err = run_cli(capsys, "verify", *args)
        if failing is None:
            samples = args[args.index("--samples") + 1]
            refusal = f"error: n_samples must be at least 100, got {samples}\n"
            assert (code, out, err) == (2, "", refusal)
        else:
            assert code == 1
            assert f"{failing}: FAIL - " in out
            assert f"{failing}: PASS" not in out

    @pytest.mark.parametrize(
        "args, line",
        [
            (
                ("--suite", "closedform", "--lambda", "-0.5", "--epsilon", "0", "--sigma", "0",
                 "--dt", "0.9"),
                "closedform.second_moment: PASS - E|Z_n|^2/|Z_0|^2 at n = 10 is "
                "6.415843915296182e-06 over 100000 paths, against base^n = 6.415843915296172e-06 "
                "within relative 1.78e-14, the rounding allowed at sigma = 0; z = 1897.357\n",
            ),
            (
                ("--suite", "moments", "--sigma", "0"),
                "moments.composite_vs_mc: PASS - mean and second moment within 4 standard "
                "errors, z = 0.000 and 0.000 over 1000000 samples\n" + _HERMITE_LINE,
            ),
            *(
                (
                    ("--suite", "closedform", "--sigma", sigma),
                    "closedform.second_moment: PASS - E|Z_n|^2/|Z_0|^2 at n = 10 is "
                    "1.2201900399479673 over 100000 paths, against base^n = 1.2201900399479668 "
                    f"within relative 1.78e-14, the rounding allowed at sigma = 0; z = {z}\n",
                )
                for sigma, z in [("0", "inf"), ("1e-15", "2331.026"), ("3e-16", "inf"),
                                 ("1e-20", "inf"), ("1e-300", "inf"), ("1e-320", "inf")]
            ),
        ],
    )
    def test_noise_free_checks(self, capsys, args, line):
        # The moments noise is exactly 0 at sigma = 0, so its z is 0 by exact
        # equality. A closed-form path at sigma = 0 is one number that differs
        # from base^n by rounding, and at tiny sigma the noise rounds away
        # against the step factors, so the paths take a few values (7 at
        # 1e-15) or one: z reads 1897.357, 2331.026 or inf, a false FAIL, while
        # the mean is base^n to rounding, which the one rule then reads.
        assert run_cli(capsys, "verify", *args) == (0, line, "")

    @pytest.mark.parametrize("dt, sigma", [pytest.param("1e-300", "4", id="1e-300"),
                                           pytest.param("1e-200", "4", id="1e-200"),
                                           ("1e-300", "1e-12"), ("1e-200", "1e100")])
    def test_moments_at_tiny_dt(self, capsys, dt, sigma):
        # the squares' deviations (about 1e-598 at 1e-300) underflowed to 0,
        # so the second-moment z read inf, a false FAIL; at sigma 1e-12 the
        # references sigma^2*dt underflowed too, and the mean's z read inf;
        # at sigma 1e100 the reference's sigma^4 overflowed, though s = 1
        code, out, err = run_cli(capsys, "verify", "--suite", "moments", "--dt", dt,
                                 "--sigma", sigma, "--samples", "1000")
        assert (code, err) == (0, "")
        assert out.startswith("moments.composite_vs_mc: PASS - ") and "inf" not in out

    def test_closedform_labels_the_ratio(self, capsys, tmp_path):
        # |Z_0| = 5: the line gives E|Z_n|^2/|Z_0|^2, not E|Z_n|^2 (25 times it)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x0": 3, "y0": 4}))
        args = ("verify", "--suite", "closedform", "--sigma", "0")
        got = run_cli(capsys, *args, "--config", str(cfg))
        assert got == run_cli(capsys, *args)
        assert got[1].startswith(
            "closedform.second_moment: PASS - E|Z_n|^2/|Z_0|^2 at n = 10 is "
            "1.2201900399479673 over 100000 paths"
        )

    def test_readme_call(self):
        # the keywords of the README's verify.run example, on the lemmas suite
        p = ModelParams(lam=6.0, epsilon=0.5, sigma=4.0)
        records = verify.run("lemmas", p, 1e-3, seed=42, n_samples=10**6)
        assert [r["name"] for r in records] == [name for name, _ in _LEMMAS_CHECKS]
        assert all(r["passed"] for r in records)

    @pytest.mark.parametrize(
        "suite, failing", [("moments", "moments.composite_vs_mc"),
                           ("closedform", "closedform.second_moment")]
    )
    def test_overflow_fails_without_warnings(self, suite, failing):
        # numpy's RuntimeWarning lines used to reach stderr above the FAIL
        proc = subprocess.run(
            [sys.executable, "-m", "milstab", "verify", "--suite", suite, "--sigma", "1e200"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith(f"{failing}: FAIL - ") and "z = nan" in proc.stdout

    def test_overflow_fails_in_the_library_without_warnings(self):
        # the library applies the same rule, so a caller's warning filter never fires
        p = ModelParams(8.0, 2.0, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = verify.run("moments", p, DEFAULTS["dt"], **_VERIFY_INPUTS)
        first = records[0]
        assert (first["name"], first["passed"]) == ("moments.composite_vs_mc", False)
        assert "z = nan" in first["detail"]

    @pytest.mark.parametrize("suite", [*verify.SUITES, "all"])
    @pytest.mark.parametrize(
        "args, refusal",
        [
            (("--dt", "1.5"), "dt must lie in (0, 1), got 1.5"),
            (("--dt", "0"), "dt must lie in (0, 1), got 0.0"),
            (("--samples", "99"), "n_samples must be at least 100, got 99"),
            (("--samples", "5", "--dt", "2"), "dt must lie in (0, 1), got 2.0"),
        ],
    )
    def test_inputs_refused_before_any_suite(self, capsys, monkeypatch, suite, args, refusal):
        # every suite checks dt, then --samples, and runs nothing first
        def ran(**_):
            raise AssertionError("a suite ran")

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, ran)
        got = run_cli(capsys, "verify", "--suite", suite, *args)
        assert got == (2, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("sigma, scale", [("1e-320", "3.16e-322"), ("1e-322", "5e-324")])
    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_a_subnormal_noise_scale_is_refused_by_moments_alone(self, capsys, suite, sigma,
                                                                  scale):
        # the moments suite's power-of-two scale for s = |sigma|*sqrt(dt) about
        # 3e-322 was 2^1068, an OverflowError traceback with exit 1; moments
        # and all now refuse it before any suite runs, and the others still run
        args = ("verify", "--suite", suite, "--sigma", sigma, "--samples", "1000")
        if suite == "moments":
            refusal = (
                "error: the moments suite needs |sigma|*sqrt(dt) to be 0 or at least "
                f"2.2250738585072014e-308, got {scale}: below that its samples round to a few "
                "subnormal values\n"
            )
            assert run_cli(capsys, *args) == (2, "", refusal)
            assert run_cli(capsys, "verify", *args[3:]) == (2, "", refusal)  # --suite all
        else:
            code, out, err = run_cli(capsys, *args)
            assert err == "" and out.startswith(f"{suite}.")  # its check lines

    def test_moments_memory_is_bounded_by_slices(self):
        # drawn and reduced slice by slice; all 16 blocks at once held 5 arrays
        # of them, and block by block held 2 blocks of 8 slices each
        p = ModelParams(DEFAULTS["lam"], DEFAULTS["epsilon"], DEFAULTS["sigma"])

        def moments(n_samples):
            inputs = dict(_VERIFY_INPUTS, n_samples=n_samples)
            return verify._suite_moments(p=p, dt=DEFAULTS["dt"], **inputs)

        moments(100)  # first stream and quadrature table
        tracemalloc.start()
        try:
            checks = moments(16 * MC_BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(check["passed"] for check in checks)
        assert peak <= 4 * 8 * _MC_CHUNK

    def test_closedform_memory_is_bounded_by_a_chunk(self):
        # reduced a chunk of paths at a time; keeping all 10^5 path products
        # peaked at 6.1 chunks' worth of doubles
        p = ModelParams(DEFAULTS["lam"], DEFAULTS["epsilon"], DEFAULTS["sigma"])

        def closedform():
            return verify._suite_closedform(p=p, dt=DEFAULTS["dt"], **_VERIFY_INPUTS)

        closedform()  # first stream
        tracemalloc.start()
        try:
            checks = closedform()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(check["passed"] for check in checks)
        assert peak <= 3 * 8 * _MC_CHUNK


#: One cheap run of each command that takes --seed.
_SEED_RUNS = {
    "simulate": ("simulate", "--steps", "10", "--paths", "2"),
    "exponent": ("exponent", "as-quad"),
    "sweep-dt": ("sweep-dt", "as-mc", "--samples", "1000"),
    "verify": ("verify", "--suite", "moments", "--samples", "1000"),
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", list(_SEED_RUNS))
def test_seed_out_of_range_is_refused(capsys, command, seed):
    # refused before any work, naming the flag, even where no stream is drawn
    got = run_cli(capsys, *_SEED_RUNS[command], "--seed", str(seed))
    assert got == (2, "", f"error: --seed must be a 64-bit unsigned integer, got {seed}\n")


class TestConfigPrecedence:
    def test_config_then_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lambda": 6, "epsilon": 0.5, "sigma": 4, "dt": 1e-3}))
        code, out, _ = run_cli(capsys, "exponent", "--config", str(cfg))
        assert json.loads(out)["continuum_value"] == -1.875
        code, out, _ = run_cli(capsys, "exponent", "--config", str(cfg), "--sigma", "2")
        assert json.loads(out)["continuum_value"] == pytest.approx(4.125)

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lambda": 6, "wavelength": 3}))
        code, _, err = run_cli(capsys, "exponent", "--config", str(cfg))
        assert code == 2
        assert "wavelength" in err

    @pytest.mark.parametrize("command", ["exponent", "sweep-dt", "verify"])
    def test_nodes_is_no_config_key(self, capsys, tmp_path, command):
        # the quadrature node count is fixed, so no config sets it
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nodes": 201}))
        got = run_cli(capsys, command, "--config", str(cfg))
        assert got == (2, "", "error: unknown config key 'nodes'\n")

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "exponent", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--config", "/no/such/file.json")
        assert code == 2

    def test_integer_keys_checked(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 10.5}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"steps": Infinity}',
            '{"steps": 1e400}',
            '{"steps": NaN}',
            '{"steps": null}',
            '{"lam": null}',
            '{"lam": [1]}',
            '{"seed": true}',
            '{"lambda": false}',
            '{"theta": true}',
            '{"lam": "-1"}',
            '{"dt": "1e-3"}',
            '{"x0": "1"}',
            '{"theta": "0.5"}',
        ],
    )
    def test_values_of_the_wrong_json_type(self, capsys, tmp_path, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config key ")

    #: Commands whose defaults are cheap, with their default output format.
    _DEFAULT_RUNS = {
        ("exponent", "ms-exact"): "json",
        ("sweep-dt", "ms-exact"): "csv",
        ("region",): "csv",
    }

    @pytest.mark.parametrize("command", list(_DEFAULT_RUNS))
    @pytest.mark.parametrize("key", list(DEFAULTS))
    def test_every_key_at_its_default(self, capsys, tmp_path, key, command):
        value = DEFAULTS[key]
        if key == "format":  # no default of its own: each command has one
            value = self._DEFAULT_RUNS[command]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        expected = run_cli(capsys, *command)
        assert expected[0] == 0
        assert run_cli(capsys, *command, "--config", str(cfg)) == expected

    @pytest.mark.parametrize(
        "key", [k for k, v in DEFAULTS.items() if isinstance(v, (int, float)) or k == "theta"]
    )
    def test_numeric_keys_reject_true(self, capsys, tmp_path, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: True}))
        code, out, err = run_cli(capsys, "exponent", "ms-exact", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: config key {key!r} must be " + (
            "an integer, got True\n" if isinstance(DEFAULTS[key], int) else "a number, got True\n"
        )

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "milstab", "exponent", "--dt", "1e-4"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["method"] == "as-quad"


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2



def _flag_surface(sub):
    """(option or positional, dest, type, choices) of each argument but -h."""
    return [
        (
            "/".join(action.option_strings) or action.dest,
            action.dest,
            # argparse passes the string through when type is None
            "str" if action.type is None else action.type.__name__,
            None if action.choices is None else list(action.choices),
        )
        for action in sub._actions
        if action.dest != "help"
    ]


_MODEL_FLAGS = [
    ("--lambda", "lam", "float", None),
    ("--epsilon", "epsilon", "float", None),
    ("--sigma", "sigma", "float", None),
    ("--dt", "dt", "float", None),
    ("--seed", "seed", "int", None),
]
_RUN_FLAGS = [
    ("--config", "config", "str", None),
    ("--out", "out", "str", None),
    ("--threads", "threads", "int", None),
]
_METHOD_ARG = (
    "method", "method", "str",
    ["ms-exact", "as-quad", "as-mc", "as-slope", "theta-ms", "theta-as"],
)
_ESTIMATOR_FLAGS = [
    ("--steps", "steps", "int", None),
    ("--paths", "paths", "int", None),
    ("--theta", "theta", "float", None),
    ("--samples", "samples", "int", None),
]
_FORMAT_FLAG = ("--format", "format", "str", ["csv", "json"])
#: sweep-dt reads --dts, not --dt; region and verify run on one thread.
_MODEL_FLAGS_NO_DT = [flag for flag in _MODEL_FLAGS if flag[0] != "--dt"]
_RUN_FLAGS_NO_THREADS = _RUN_FLAGS[:2]

#: Each subcommand's arguments in usage order, and its --format help.
_FLAG_SURFACE = {
    "simulate": (
        [*_MODEL_FLAGS, *_RUN_FLAGS, *_ESTIMATOR_FLAGS[:3], _FORMAT_FLAG],
        "output format (default csv)",
    ),
    "exponent": (
        [_METHOD_ARG, *_MODEL_FLAGS, *_RUN_FLAGS, *_ESTIMATOR_FLAGS, _FORMAT_FLAG],
        "output format (default json)",
    ),
    "sweep-dt": (
        [
            _METHOD_ARG, *_MODEL_FLAGS_NO_DT, *_RUN_FLAGS, *_ESTIMATOR_FLAGS,
            ("--dts", "dts", "str", None), _FORMAT_FLAG,
        ],
        "output format (default csv)",
    ),
    "region": (
        [
            ("--lambda", "lam", "float", None), ("--sigma-range", "sigma_range", "str", None),
            *_RUN_FLAGS_NO_THREADS, _FORMAT_FLAG,
        ],
        "output format (default csv)",
    ),
    "verify": (
        [
            ("--suite", "suite", "str", ["lemmas", "moments", "closedform", "all"]),
            *_MODEL_FLAGS, *_RUN_FLAGS_NO_THREADS, *_ESTIMATOR_FLAGS[3:],
        ],
        None,
    ),
}


@pytest.mark.parametrize("name", list(_FLAG_SURFACE))
def test_flag_surface(name):
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(_FLAG_SURFACE)
    sub = commands.choices[name]
    surface, format_help = _FLAG_SURFACE[name]
    assert _flag_surface(sub) == surface
    takes_method = any(not action.option_strings for action in sub._actions)
    assert takes_method == (name in ("exponent", "sweep-dt"))
    helps = {action.dest: action.help for action in sub._actions}
    assert helps.get("format") == format_help
    if takes_method:
        assert helps["method"] == "estimator (default as-quad)"


@pytest.mark.parametrize("name", list(_FLAG_SURFACE))
def test_only_the_first_named_subcommand_gets_arguments(name):
    # argparse hands argv to that subcommand alone; the others keep -h
    def subparsers(parser):
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return commands.choices

    whole = cli.build_parser()
    built = cli.build_parser(["--threads", "2", name, "region"])
    assert built.format_help() == whole.format_help()
    assert list(subparsers(built)) == list(subparsers(whole))
    for other, sub in subparsers(built).items():
        dests = [action.dest for action in sub._actions]
        if other == name:
            assert dests == [action.dest for action in subparsers(whole)[name]._actions]
            assert sub.format_help() == subparsers(whole)[name].format_help()
        else:
            assert dests == ["help"]


@pytest.mark.parametrize(
    "args",
    [("sweep-dt", "as-quad", "--dt", "0.1"), ("region", "--threads", "2"),
     ("verify", "--threads", "2"), ("exponent", "as-quad", "--nodes", "402"),
     ("sweep-dt", "theta-as", "--nodes", "402"), ("verify", "--nodes", "201")],
    ids=["sweep-dt --dt", "region --threads", "verify --threads", "exponent --nodes",
         "sweep-dt --nodes", "verify --nodes"],
)
def test_unread_flags_are_unrecognized(capsys, args):
    # flags that configured nothing are gone; --dt is not read as --dts either
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"milstab: error: unrecognized arguments: {' '.join(args[-2:])}\n")


# Parameters under which every method runs; the as-slope and as-mc counts are
# small so the pins stay cheap.
_SWEEP_LAYOUT_FLAGS = (
    "--lambda", "-3", "--epsilon", "0", "--sigma", "1", "--theta", "0.5",
    "--samples", "1000", "--seed", "7", "--paths", "3", "--steps", "20",
)
#: exponent's flags add --dt, which sweep-dt does not take
_LAYOUT_FLAGS = (*_SWEEP_LAYOUT_FLAGS, "--dt", "1e-3")
_LAYOUT_P = ModelParams(lam=-3.0, epsilon=0.0, sigma=1.0)

#: The provenance keys each method records, beyond method, lambda, epsilon and
#: sigma, with the value each takes under _LAYOUT_FLAGS: every method reads
#: --theta, and records it last.
_LAYOUT_EXTRA = {
    "ms-exact": {"theta": "0.5"},
    "as-quad": {"theta": "0.5"},
    "as-mc": {"samples": "1000", "seed": "7", "theta": "0.5"},
    "as-slope": {"paths": "3", "steps": "20", "seed": "7", "theta": "0.5"},
    "theta-ms": {"theta": "0.5"},
    "theta-as": {"theta": "0.5"},
}


class TestOutputLayout:
    """Pins column sets, key orders and provenance lines of the tabular commands."""

    @pytest.mark.parametrize("slug", list(_LAYOUT_EXTRA))
    def test_exponent_csv_provenance(self, capsys, slug):
        code, out, _ = run_cli(capsys, "exponent", slug, "--format", "csv", *_LAYOUT_FLAGS)
        assert code == 0
        pairs = {"method": slug, "lambda": "-3.0", "epsilon": "0.0", "sigma": "1.0"}
        pairs.update(_LAYOUT_EXTRA[slug])
        lines = out.splitlines()
        assert lines[: len(pairs)] == [f"# {k}={v}" for k, v in sorted(pairs.items())]
        assert lines[len(pairs)] == "method,dt,value,std_error,continuum_value,region_class"
        assert len(lines) == len(pairs) + 2
        row = lines[-1].split(",")
        assert row[0] == slug and row[1] == "0.001"
        assert (row[3] == "") == (slug not in ("as-mc", "as-slope"))
        assert row[5] in ("stable", "boundary", "blow-up")

    @pytest.mark.parametrize("slug", list(_LAYOUT_EXTRA))
    def test_sweep_json_key_order(self, capsys, slug):
        code, out, _ = run_cli(
            capsys, "sweep-dt", slug, "--format", "json", *_SWEEP_LAYOUT_FLAGS,
            "--dts", "1.5,1e-2,1e-3,1e-4",
        )
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["params", "rows", "fit"]
        assert list(obj["params"]) == [
            "method", "lambda", "epsilon", "sigma", *_LAYOUT_EXTRA[slug], "dts"
        ]
        assert obj["params"]["dts"] == "1.5,1e-2,1e-3,1e-4"
        bad, *good = obj["rows"]
        target = continuum_target(_LAYOUT_P, Method(slug))
        assert list(bad) == ["dt", "continuum_value", "discrete_value", "abs_error", "error"]
        assert bad["dt"] == 1.5 and bad["continuum_value"] == target
        assert bad["discrete_value"] is None and bad["abs_error"] is None
        assert isinstance(bad["error"], str) and bad["error"]
        for row in good:
            assert list(row) == ["dt", "continuum_value", "discrete_value", "abs_error"]
            assert row["abs_error"] == abs(row["discrete_value"] - target)

    @pytest.mark.parametrize("slug", list(_LAYOUT_EXTRA))
    def test_sweep_csv_error_row(self, capsys, slug):
        code, out, _ = run_cli(
            capsys, "sweep-dt", slug, "--format", "csv", *_SWEEP_LAYOUT_FLAGS,
            "--dts", "1.5,1e-2,1e-3,1e-4",
        )
        assert code == 0
        target = continuum_target(_LAYOUT_P, Method(slug))
        data = [line for line in out.splitlines() if not line.startswith("#")]
        assert data[0] == "dt,discrete_value,continuum_value,abs_error"
        assert data[1] == f"1.5,error,{target},error"
        assert len(data) == 5

    def test_region_rows(self, capsys):
        # at lambda 2, sigma 0, 2 and 4 have 0, 1 and 2 boundary points
        args = ("region", "--lambda", "2", "--sigma-range", "0:4:2")
        root = math.sqrt(12.0)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.splitlines()[:2] == ["# lambda=2.0", "# sigma-range=0:4:2"]
        _, header, rows = parse_csv(out)
        assert header == [
            "sigma", "epsilon_boundary_plus", "epsilon_boundary_minus", "class_at_epsilon_0"
        ]
        assert rows == [
            ["0.0", "", "", "blow-up"],
            ["2.0", "0.0", "0.0", "boundary"],
            ["4.0", str(root), str(-root), "stable"],
        ]
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["params"] == {"lambda": 2.0, "sigma-range": "0:4:2"}
        assert [list(row) for row in obj["rows"]] == [header] * 3
        assert [list(row.values()) for row in obj["rows"]] == [
            [0.0, None, None, "blow-up"],
            [2.0, 0.0, 0.0, "boundary"],
            [4.0, root, -root, "stable"],
        ]


def test_method_keys_table():
    # only the sampling methods record keys of their own; theta is _provenance's
    assert set(_METHOD_KEYS) == {Method.AS_MONTE_CARLO, Method.AS_PATH_SLOPE}
    for keys in _METHOD_KEYS.values():
        assert set(keys) <= set(DEFAULTS) - {"theta"}


def test_exponent_as_slope_thread_invariant(capsys):
    args = ("exponent", "as-slope", "--paths", "6", "--steps", "200", "--seed", "4")
    code, one, _ = run_cli(capsys, *args, "--threads", "1")
    assert code == 0
    code, two, _ = run_cli(capsys, *args, "--threads", "2")
    assert code == 0
    assert two == one
