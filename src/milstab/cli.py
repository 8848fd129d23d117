"""Command line front end.

Subcommands:

    simulate   log-modulus trajectories on a time grid, one column per path
    exponent   a single exponent estimate at one step size, as JSON
    sweep-dt   estimates across step sizes with a log-log convergence fit
    region     almost-sure stability boundary across a range of sigma
    verify     self-check suites (milstab.verify): lemmas, moments, closedform, all

Parameter precedence is built-in defaults, then --config JSON, then explicit
flags. _PARAMS states each parameter's flag, type, default and help, and
_COMMANDS each subcommand's handler, default format and arguments;
build_parser adds arguments to the one subcommand that argv names. Only the
verify subcommand imports milstab.verify, and with it milstab.lemmas; the
verify names that the benchmark's tracer patches on this module
(_FROM_VERIFY) are read from milstab.verify on first use, by the module's
__getattr__ (PEP 562).

All randomness derives from (--seed, stream index) pairs and partial results
combine in index order, so outputs are byte-identical across runs and across
--threads settings; --threads splits simulate paths, Monte Carlo blocks and
as-slope paths. simulate writes each path straight into its column of one
table and streams that table in tasks of TASK_VALUES = 2^14 values, in the
bytes of one whole-table write, so its memory is bounded by the table, not
by the text; tasks are formatted on worker threads with --threads and
written in order. cli owns simulate's document: the head, and in
_SIMULATE_SEPARATORS each format's separators within a row, at a row's end
and at the table's end. The formatter (milstab._floattext) writes the
values and those separators, computing repr's digits with numpy array
operations, which release the interpreter lock, in a workspace each thread
keeps, so a task allocates only its text; that text goes to _write as
ASCII bytes. simulate refuses a table with a non-finite value (exit 2),
so its JSON holds no NaN or Infinity. CSV output is
UTF-8 with LF line endings, a header row, floats rendered by repr, and
'# key=value' provenance comments above the header (sorted by key; --threads
and --out are execution detail and excluded). _table owns the layout of
every result table, CSV or {"params", "rows", ...} JSON: exponent's CSV,
sweep-dt, region and simulate's CSV head all go through it.

The initial datum (x0, y0), set by a config file alone, is simulate's: a
path is log|Z_n/Z_0|, simulate adds log|Z_0| as it writes each path's
column, and no exponent depends on the datum, so no other subcommand reads
it or refuses the origin.

Every write, to stdout or --out, goes through one writer, _write, argparse's
help text included: a failed write prints one error line and exits 1. A
refused estimate's JSON error object goes where a result would.

--theta picks the scheme for simulate and every method, in one place
(scheme._factor): absent is the plain Milstein scheme, a number the theta
scheme, which requires epsilon = 0; theta-ms and theta-as are the ms-exact
and as-quad estimates with --theta required. The provenance of simulate,
exponent and sweep-dt records theta, after the other keys _provenance
writes, exactly when it is set.

Exit codes: 0 success, 1 failed verification, unwritable output or a table
too large for memory, 2 bad configuration or an estimator precondition
violation. simulate with --theta checks the theta scheme first, in the theta
estimators' order. A reader that closes stdout early (milstab simulate |
head) ends the output quietly with 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys

from . import _np as np
from .exponents import (
    MS_METHODS, Method, _map_indexed, _simulate_paths, check_dt_free, continuum_target, estimate,
    fit_loglog,
)
from .model import (
    InitialDatum,
    ModelParams,
    Sense,
    as_boundary_epsilon,
    classify,
)
from .scheme import SchemeConfig, theta_eta
from .stochastics import _U64

# perfbench/spans.py patches these names on this module; they go with its tracer.
from .scheme import simulate_path, simulate_theta_path  # noqa: F401

#: The rest of them, which milstab.verify imports and __getattr__ reads there.
_FROM_VERIFY = (
    "composite_increment_moments", "gauss_hermite_rule", "gaussian_moment",
    "verify_log_sandwich", "xi_gamma",
)


def __getattr__(name: str):
    if name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


#: Each config key: (flag, type, default, help). x0 and y0 have no flag, and
#: simulate alone reads them.
_PARAMS = {
    "lam": ("--lambda", float, 8.0, "drift coefficient"),
    "epsilon": ("--epsilon", float, 2.0, "rotational noise intensity"),
    "sigma": ("--sigma", float, 4.0, "radial noise intensity"),
    "dt": ("--dt", float, 1e-3, "time step"),
    "steps": ("--steps", int, 10000, "time steps per path"),
    "paths": ("--paths", int, 50, "number of independent paths"),
    "seed": ("--seed", int, 42, "root seed for all substreams"),
    "samples": ("--samples", int, 10**6, "Monte Carlo sample count"),
    "theta": ("--theta", float, None, "run the theta scheme with this implicitness (requires "
              "epsilon 0), in simulate and every method; theta-ms and theta-as require it"),
    "dts": ("--dts", str, "1e-1,1e-2,1e-3,1e-4,1e-5", "comma separated step sizes"),
    "sigma_range": ("--sigma-range", str, "0:5:0.05", "sigma grid as lo:hi:step"),
    "suite": ("--suite", str, "all", "which checks to run"),
    "format": ("--format", str, None, "output format (default {})"),
    "x0": (None, float, 1.0, None),
    "y0": (None, float, 0.0, None),
}
DEFAULTS = {key: default for key, (_, _, default, _) in _PARAMS.items()}

#: Command-line-only arguments in the same form; the method is positional.
_RUN_ARGS = {
    "method": ("method", str, "as-quad", "estimator (default as-quad)"),
    "config": ("--config", str, None, "JSON file of parameter defaults"),
    "out": ("--out", str, None, "write output to this path instead of stdout"),
    "threads": ("--threads", int, None, "parallel workers (output does not depend on it)"),
}

#: Config files name a key by its flag without the dashes, or as itself.
_CONFIG_NAMES = {flag[2:]: key for key, (flag, *_) in _PARAMS.items() if flag}

#: Values simulate formats in one task, on any number of threads. On shorter
#: array operations two workers pass the interpreter lock back and forth more
#: than they gain from formatting side by side.
TASK_VALUES = 1 << 14

#: simulate's separators in each format: after a value within a row, after a
#: row's last value and after the table's last value, which closes the
#: document. The JSON head ends in the first row's '[['.
_SIMULATE_SEPARATORS = {"csv": (",", "\n", "\n"), "json": (", ", "], [", "]]}\n")}

#: Largest grid `region --sigma-range` accepts; the default grid has 101 points.
MAX_SIGMA_POINTS = 100_000


def _coerce(key: str, value):
    cast = _PARAMS[key][1]
    if key == "theta" and value is None:  # the one nullable key
        return None
    if cast is str:
        if not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        return value
    kind = "an integer" if cast is int else "a number"
    try:
        # JSON true/false would otherwise read as 1/0, and "1e-3" as 0.001.
        number = None if isinstance(value, (bool, str)) else cast(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (cast is int and number != value):
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
    return number


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    merged = {}
    for key, value in raw.items():
        name = _CONFIG_NAMES.get(key, key)
        if name not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        merged[name] = _coerce(name, value)
    return merged


def _resolve(ns: argparse.Namespace) -> dict:
    values = dict(DEFAULTS, format=ns.default_format)
    if ns.config is not None:
        values.update(_load_config(ns.config))
    for key in DEFAULTS:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    if values["format"] not in _CHOICES["format"]:
        raise ValueError(f"format must be csv or json, got {values['format']!r}")
    if values["suite"] not in _CHOICES["suite"]:
        from . import verify

        verify.suites_named(values["suite"])  # raises verify's refusal of the name
    if not 0 <= values["seed"] < _U64:
        raise ValueError(f"--seed must be a 64-bit unsigned integer, got {values['seed']}")
    # region and verify run on one thread and take no --threads
    values["threads"] = 1 if getattr(ns, "threads", None) is None else ns.threads
    if values["threads"] < 1:
        raise ValueError(f"threads must be at least 1, got {values['threads']}")
    return values


def _parse_dts(text: str) -> list[float]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"no step sizes in {text!r}")
    return [float(part) for part in parts]


def _parse_sigma_range(text: str) -> list[float]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError(f"sigma range must look like lo:hi:step, got {text!r}")
    lo, hi, step = (float(piece) for piece in pieces)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"sigma range bounds and step must be finite, got {text!r}")
    if not step > 0.0:
        raise ValueError(f"sigma range step must be positive, got {step!r}")
    if hi < lo:
        raise ValueError(f"sigma range is empty: {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SIGMA_POINTS:  # also catches hi - lo or the quotient overflowing
        raise ValueError(f"sigma range {text!r} has more than {MAX_SIGMA_POINTS} points")
    count = int(math.floor(span))
    sigmas = [lo + i * step for i in range(count + 1)]
    if sigmas and sigmas[-1] > hi + 1e-9 * max(1.0, step):
        sigmas.pop()
    return sigmas


def _provenance(values: dict, keys) -> dict:
    """The model under its flag names, the given config keys in order, then theta if set."""
    pairs = {"lambda": values["lam"], "epsilon": values["epsilon"], "sigma": values["sigma"]}
    pairs.update((key, values[key]) for key in keys)
    if values["theta"] is not None:
        pairs["theta"] = values["theta"]
    return pairs


def _csv_row(cells) -> str:
    return ",".join(map(str, cells)) + "\n"


def _table(values: dict, pairs: dict, header: list[str], rows, missing: str = "", **extra) -> str:
    """A result table in the chosen format: the one owner of its layout.

    JSON is one object {"params": pairs, "rows": rows, **extra}. CSV is the
    '# key=value' provenance lines sorted by key, the header, then each row
    dict's cells in header order with absent or None values as missing; extra
    is left out of it.
    """
    if values["format"] == "json":
        return json.dumps({"params": pairs, "rows": rows, **extra}) + "\n"
    lines = [f"# {key}={value}\n" for key, value in sorted(pairs.items())]
    cells = ([missing if row.get(key) is None else row[key] for key in header] for row in rows)
    return "".join([*lines, _csv_row(header), *map(_csv_row, cells)])


def _write(pieces, out: str | None = None) -> int:
    """Write text pieces in order to `out`, or to stdout when out is None.

    A piece is a str, or ASCII text as bytes or a uint8 array (simulate's
    formatted slices). Every piece goes to one binary layer, str pieces UTF-8
    encoded, so `out` and stdout get the same bytes, with LF line endings
    whatever the platform or stdout's encoding; a stdout with no binary
    layer (io.StringIO) gets them all as text. A failed write or close
    prints one error line and returns 1. A reader that closes stdout early
    (`milstab simulate | head`) ends the output quietly with 0.
    """
    if out is not None:
        try:
            with open(out, "wb") as fh:
                _write_binary(fh, pieces)
        except OSError as exc:  # a failed close() lands here too, replacing the write's error
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 1
        return 0
    try:
        sys.stdout.flush()  # what the text layer already holds goes first
        if hasattr(sys.stdout, "buffer"):
            _write_binary(sys.stdout.buffer, pieces)
        else:
            for piece in pieces:
                sys.stdout.write(piece if isinstance(piece, str) else bytes(piece).decode("ascii"))
        sys.stdout.flush()
    except OSError as exc:
        # Whatever stays buffered would fail again in the exit-time flush.
        _discard_stdout()
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_binary(fh, pieces) -> None:
    for piece in pieces:
        fh.write(piece.encode("utf-8") if isinstance(piece, str) else piece)


def _discard_stdout() -> None:
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # no file descriptor behind sys.stdout
        pass


def _model(values: dict) -> ModelParams:
    return ModelParams(lam=values["lam"], epsilon=values["epsilon"], sigma=values["sigma"])


def _cmd_simulate(ns: argparse.Namespace, values: dict) -> int:
    p = _model(values)
    log0 = InitialDatum(values["x0"], values["y0"]).log_modulus()
    theta = values["theta"]
    if theta is not None:  # the theta scheme's own checks, in the estimators' order
        theta_eta(p, theta, values["dt"])
    cfg = SchemeConfig(dt=values["dt"], n_steps=values["steps"], theta=theta)
    n_paths = values["paths"]
    if n_paths < 1:
        raise ValueError(f"paths must be at least 1, got {n_paths}")
    # t, one column per path, then the mean; each path log|Z_n/Z_0| goes into
    # its column as it arrives, and log|Z_0| is added as it is written there
    table = np.empty((cfg.n_steps + 1, n_paths + 2))
    paths = _simulate_paths(p, cfg, values["seed"], n_paths, values["threads"])
    for index, path in enumerate(paths, start=1):
        np.add(path.log_values, log0, out=table[:, index])
    table[:, 0] = cfg.dt * np.arange(cfg.n_steps + 1)
    table[:, -1] = table[:, 1:-1].mean(axis=1)
    # Any non-finite value reaches its row's mean, so past this check every
    # value is finite, and repr writes it as json.dumps does.
    finite = np.isfinite(table[:, -1])
    if not finite.all():
        t, mean = table[finite.argmin(), [0, -1]].tolist()  # the first such row
        raise ValueError(f"mean log-modulus must be finite, got {mean!r} at t = {t!r}")
    pairs = _provenance(values, ("dt", "steps", "paths", "seed", "x0", "y0"))
    header = ["t"] + [f"path_{i}" for i in range(n_paths)] + ["mean"]
    if values["format"] == "json":
        head = json.dumps({"params": pairs, "columns": header, "rows": []})[:-2] + "["
    else:
        head = _table(values, pairs, header, [])
    # Imported here: only simulate formats a table, and without cached bytecode
    # every other call would compile the module for nothing.
    from ._floattext import slice_bytes

    seps = _SIMULATE_SEPARATORS[values["format"]]
    texts = _map_indexed(
        lambda i: slice_bytes(table, i * TASK_VALUES, TASK_VALUES, seps),
        -(-table.size // TASK_VALUES), values["threads"],
    )
    return _write(itertools.chain([head], texts), ns.out)


def _estimator_kwargs(values: dict) -> dict:
    return {
        "theta": values["theta"],
        "n_samples": values["samples"],
        "seed": values["seed"],
        "threads": values["threads"],
        "n_paths": values["paths"],
        "n_steps": values["steps"],
    }


#: The config keys a sampling method's output records, after the method and the
#: model and before theta; the other methods record none.
_METHOD_KEYS = {
    Method.AS_MONTE_CARLO: ("samples", "seed"),
    Method.AS_PATH_SLOPE: ("paths", "steps", "seed"),
}


def _method_pairs(method: Method, values: dict) -> dict:
    return {"method": method.value, **_provenance(values, _METHOD_KEYS.get(method, ()))}


def _cmd_exponent(ns: argparse.Namespace, values: dict) -> int:
    method = Method(ns.method)
    p = _model(values)
    try:
        est = estimate(p, values["dt"], method, **_estimator_kwargs(values))
        target = continuum_target(p, method)
    except ValueError as exc:
        if values["format"] != "json":
            raise  # main prints it on stderr
        return _write([json.dumps({"error": str(exc)}) + "\n"], ns.out) or 2
    sense = Sense.MEAN_SQUARE if method in MS_METHODS else Sense.ALMOST_SURE
    obj = {
        "method": method.value,
        "dt": values["dt"],
        "value": est.value,
        "std_error": est.std_error,
        "continuum_value": target,
        "region_class": classify(p, sense).class_.value,
    }
    if values["format"] == "csv":
        return _write([_table(values, _method_pairs(method, values), list(obj), [obj])], ns.out)
    if est.std_error is None:
        del obj["std_error"]
    return _write([json.dumps(obj) + "\n"], ns.out)


def _cmd_sweep_dt(ns: argparse.Namespace, values: dict) -> int:
    method = Method(ns.method)
    dts = _parse_dts(values["dts"])
    p = _model(values)
    kwargs = _estimator_kwargs(values)
    check_dt_free(p, method, **kwargs)  # once, before any row
    target = continuum_target(p, method)
    rows = []
    for dt in dts:
        row = {"dt": dt, "continuum_value": target, "discrete_value": None, "abs_error": None}
        rows.append(row)
        try:
            value = estimate(p, dt, method, **kwargs).value
        except ValueError as exc:
            row["error"] = str(exc)
            continue
        row.update(discrete_value=value, abs_error=abs(value - target))
    # `or` and `>` keep None, 0.0 and NaN errors out of the fit
    points = [(row["dt"], row["abs_error"]) for row in rows if (row["abs_error"] or 0.0) > 0.0]
    fit = dict(vars(fit_loglog(*zip(*points)))) if len(points) >= 3 else None
    pairs = {**_method_pairs(method, values), "dts": values["dts"]}
    header = ["dt", "discrete_value", "continuum_value", "abs_error"]
    text = _table(values, pairs, header, rows, "error", fit=fit)
    csv_sidecar = values["format"] == "csv" and ns.out is not None
    # CSV on stdout carries the fit as a trailing comment; with --out it
    # goes to a .fit.json sidecar instead.
    if values["format"] == "csv" and fit is not None and not csv_sidecar:
        text += f"# fit={json.dumps(fit)}\n"

    code = _write([text], ns.out)
    if code != 0:
        return code
    if fit is None:
        print("error: fewer than 3 usable step sizes, no convergence fit", file=sys.stderr)
        return 1
    if csv_sidecar:
        fit_text = json.dumps(fit) + "\n"
        return _write([fit_text], ns.out + ".fit.json") or _write([fit_text])
    return 0


def _cmd_region(ns: argparse.Namespace, values: dict) -> int:
    lam = values["lam"]
    sigmas = _parse_sigma_range(values["sigma_range"])
    pairs = {"lambda": lam, "sigma-range": values["sigma_range"]}
    rows = []
    for sigma in sigmas:
        # zero, one (a double root) or two boundary points, ascending
        boundary = as_boundary_epsilon(lam, sigma)
        minus, plus = (boundary[0], boundary[-1]) if boundary else (None, None)
        at_zero = ModelParams(lam=lam, epsilon=0.0, sigma=sigma)
        rows.append(
            {
                "sigma": sigma,
                "epsilon_boundary_plus": plus,
                "epsilon_boundary_minus": minus,
                "class_at_epsilon_0": classify(at_zero, Sense.ALMOST_SURE).class_.value,
            }
        )
    return _write([_table(values, pairs, list(rows[0]), rows)], ns.out)


#: Arguments whose values come from a fixed list. The suites are
#: verify.SUITES in order, stated here so that no other subcommand loads verify.
_CHOICES = {
    "method": [m.value for m in Method],
    "suite": ["lemmas", "moments", "closedform", "all"],
    "format": ["csv", "json"],
}


def _cmd_verify(ns: argparse.Namespace, values: dict) -> int:
    from . import verify

    suite = values["suite"]
    checks = verify.run(
        suite, _model(values), values["dt"], seed=values["seed"], n_samples=values["samples"]
    )
    code = _write(
        f"{check['name']}: {'PASS' if check['passed'] else 'FAIL'} - {check['detail']}\n"
        for check in checks
    )
    all_passed = all(check["passed"] for check in checks)
    if code == 0 and ns.out is not None:
        report = {"suite": suite, "passed": all_passed, "checks": checks}
        code = _write([json.dumps(report, indent=2) + "\n"], ns.out)
    return code or (0 if all_passed else 1)


#: Each subcommand: (handler, help, default format, arguments in usage order).
_COMMANDS = {
    "simulate": (
        _cmd_simulate, "write log-modulus trajectories", "csv",
        "lam epsilon sigma dt seed config out threads steps paths theta format",
    ),
    "exponent": (
        _cmd_exponent, "one exponent estimate as JSON", "json",
        "method lam epsilon sigma dt seed config out threads steps paths theta samples format",
    ),
    "sweep-dt": (
        _cmd_sweep_dt, "estimates across step sizes with a fit", "csv",
        "method lam epsilon sigma seed config out threads steps paths theta samples dts format",
    ),
    "region": (
        _cmd_region, "almost-sure stability boundary over sigma", "csv",
        "lam sigma_range config out format",
    ),
    "verify": (
        _cmd_verify, "run self-check suites", "csv",
        "suite lam epsilon sigma dt seed config out samples",
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse with its help text written by _write, reading '-1e-3' as a value.

    argparse takes an argument for a negative number, not an option, only
    when it matches _negative_number_matcher; before Python 3.13 that
    pattern has no exponent form, so '--lambda -1e-3' lost its value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # Python 3.13's pattern

    def print_help(self, file=None) -> None:
        code = _write([self.format_help()]) if file is None else super().print_help(file)
        if code:
            raise SystemExit(code)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with arguments only where argparse may read them.

    Every subcommand gets its parser, so usage, help and errors stay whole.
    Arguments go to the first subcommand that argv names, the only one that
    argparse can hand argv to, or to all of them when argv is None.
    """
    parser = _Parser(
        prog="milstab",
        description="Discrete Lyapunov exponents of Milstein schemes for a 2x2 linear test system",
    )
    named = None if argv is None else next((arg for arg in argv if arg in _COMMANDS), "")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, default_format, arguments) in _COMMANDS.items():
        # no prefix matching, so that a dropped flag such as sweep-dt's --dt
        # is refused instead of read as --dts
        sub = commands.add_parser(name, help=summary, allow_abbrev=False)
        sub.set_defaults(func=handler, default_format=default_format)
        if named not in (None, name):
            continue
        for key in arguments.split():
            flag, cast, default, text = _PARAMS.get(key) or _RUN_ARGS[key]
            # Only the positional method takes its default here: a flag left
            # out reads None, so that --config can supply it.
            where = {"nargs": "?", "default": default} if key == "method" else {"dest": key}
            help_text = text.format(default_format)
            sub.add_argument(flag, type=cast, choices=_CHOICES.get(key), help=help_text, **where)
    return parser


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a spinning helper thread when numpy loads, and no
    # call here makes a multi-threaded BLAS call; a value already set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else argv
    ns = build_parser(argv).parse_args(argv)
    try:
        return ns.func(ns, _resolve(ns))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the result cannot be produced here; the input is not bad
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    from .__main__ import run

    run()
