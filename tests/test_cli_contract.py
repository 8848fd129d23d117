"""The CLI's exit contract over its argument grammar.

Whatever the argv, `cli.main` ends in exit 0 (success), 1 (failed
verification or write) or 2 (refused input). On exit 0 stderr is empty;
stderr never holds a traceback or a warning, and at most one error line. A
derandomized strategy draws each subcommand's flags from edge values
(non-finite, signed zero, the float range's ends, empty, hexadecimal and
underscored text, malformed lists and ranges, an unwritable --out), on
sizes capped so that one call is quick and starts at most two workers. The
examples are the argvs of defects found and mended before, and the
subnormal noise scale of verify.
"""

from __future__ import annotations

import contextlib
import functools
import io
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milstab import cli

#: Edge values of every float flag, then a few ordinary ones.
_FLOATS = ["nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "1e-320", "", "0x10", "1_000",
           "1", "-1", "0.5", "1e-3", "8", "-600", "1.5"]
#: Each flag's values. Sizes stay within the caps: 20 steps, 3 paths, 1,000
#: samples and 2 threads.
_VALUES = {
    "lam": _FLOATS,
    "epsilon": _FLOATS,
    "sigma": _FLOATS,
    "dt": _FLOATS,
    "theta": _FLOATS,
    "steps": ["0", "1", "20", "-1", "", "0x10", "1_0", "1e308", "nan"],
    "paths": ["0", "1", "2", "3", "-1", "", "0x10", "1.5"],
    "samples": ["0", "99", "100", "1000", "1_000", "-1", "", "0x10", "1e3"],
    "threads": ["1", "2", "0", "-1", "", "0x10"],
    "seed": ["0", "-1", "18446744073709551615", "18446744073709551616", "1_000", "0x10", ""],
    "dts": ["", ",", " , ", "1e-2,,1e-3", "a,b", "1e-2;1e-3", "nan,1e-3,1e-4", "inf,1e-2,1e-3",
            "1e-2,1e-3,1e-4", "0,1e-3,1e-4", "1e-2,1e-2,1e-2", "-1e-3,1e-4,1e-5",
            "1e-320,1e-321,1e-322", "1_000,1e-3,1e-4", "0x10", "1e-2,2,1e-3,1e-4"],
    "sigma_range": ["", "0:1:1", "1:0:1", "0:inf:1", "0:1e300:1e-300", "nan:1:1", "0:1",
                    "0:1:0", "0:1:-1", "::", "0:4:2", "0x10:1:1", "1e-320:1e-320:1e-320",
                    "0:1:1e-320", "1_0:1_0:1", "0:1:1:1", "-1e308:1e308:1e-308"],
    "suite": ["lemmas", "moments", "closedform", "all", "nope", ""],
    "format": ["csv", "json", "xml", ""],
    "out": ["{tmp}/o.txt", "{tmp}", "{tmp}/no/such/dir.csv", ""],
    "config": ["{tmp}/missing.json", "{tmp}"],
}
#: Flags that keep every call small, set before the drawn ones, which
#: override them (argparse keeps the last value).
_CAPS = {"steps": "20", "paths": "3", "samples": "1000"}

#: The argvs that CHANGES.md and ROADMAP.md name in their MENDED and FOUND
#: lines, with each size that the call reads cut to the caps.
CORPUS = [
    "region --sigma-range 0:inf:1",
    "region --sigma-range 0:1e300:1e-300",
    "region --sigma-range 0:1e9:1",
    "region --sigma-range 0:1:1",
    "verify --suite lemmas",
    "sweep-dt ms-exact --dts 1e-2,1e-3,1e-4 --out {tmp}/s.csv",
    "exponent --help",
    "exponent theta-ms --out {tmp}/x.json",
    "simulate --seed -1 --paths 3 --steps 20",
    "exponent as-slope --seed -1 --paths 3 --steps 20",
    "exponent as-mc --seed -1 --samples 1000",
    "verify --suite closedform --sigma 0",
    "verify --suite closedform --lambda -0.5 --epsilon 0 --sigma 0 --dt 0.9",
    "verify --suite moments --sigma 1e200 --samples 1000",
    "verify --suite closedform --samples 10000000",
    "exponent as-slope --paths 3 --steps 20",
    "exponent as-mc --samples 1000 --threads 2",
    "exponent ms-exact --lambda 1e200 --dt 0.5",
    "sweep-dt ms-exact --lambda 1e155",
    "exponent as-mc --epsilon 1e200 --samples 1000",
    "exponent as-slope --epsilon 1e200 --paths 3 --steps 20",
    "sweep-dt ms-exact --epsilon 1e200 --format json",
    "sweep-dt as-quad --sigma 1e200 --format json",
    "simulate --sigma 1e160 --paths 2 --steps 3",
    "exponent as-slope --sigma 1e160 --paths 3 --steps 20",
    "exponent as-slope --sigma 0 --dt 1e-10 --paths 3 --steps 20",
    "exponent as-mc --dt 1e-34 --samples 1000",
    "exponent as-mc --dt 1e-36 --samples 1000",
    "exponent as-slope --dt 1e-34 --paths 3 --steps 20",
    "exponent as-slope --dt 1e-36 --paths 3 --steps 20",
    "exponent as-quad --lambda -1.9583577306549547 --epsilon 0 --sigma 0.28859060741834547 "
    "--dt 0.25",
    "exponent as-mc --sigma 1e-300 --samples 1000",
    "simulate --epsilon 0 --theta 1.5 --dt 2 --paths 3 --steps 20",
    "exponent theta-ms --epsilon 0 --theta 1.5 --dt 2",
    "verify --samples 5",
    "sweep-dt as-mc --samples 5",
    "exponent as-mc --samples 5",
    "verify --suite moments --dt 1e-300 --sigma 1e-12 --samples 1000",
    "verify --suite moments --dt 1e-300 --sigma 1e-10 --samples 1000",
    "exponent as-slope --lambda -1000 --epsilon 0 --sigma 0 --paths 3 --steps 20",
    "simulate --lambda -1000 --epsilon 0 --sigma 0 --paths 2 --steps 3",
    "simulate --sigma 1e200 --paths 3 --steps 20",
    "verify --suite moments --sigma 1e-320 --samples 1000",
    "verify --sigma 1e-320 --samples 1000",
    "verify --sigma 1e-310 --samples 1000",
    "verify --suite moments --sigma 1e-322 --samples 1000",
]


def _flag(key: str) -> str:
    return (cli._PARAMS.get(key) or cli._RUN_ARGS[key])[0]


@st.composite
def argvs(draw) -> list[str]:
    """One subcommand, its method if it takes one, the caps, then drawn flags."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    keys = cli._COMMANDS[command][3].split()
    argv = [command]
    if "method" in keys:
        argv.append(draw(st.sampled_from([*cli._CHOICES["method"], "nope"])))
    for key, cap in _CAPS.items():
        if key in keys:
            argv += [_flag(key), cap]
    for key in draw(st.lists(st.sampled_from([k for k in keys if k in _VALUES]),
                             max_size=4, unique=True)):
        argv += [_flag(key), draw(st.sampled_from(_VALUES[key]))]
    return argv


def _with_corpus(test):
    return functools.reduce(lambda t, line: example(argv=line.split())(t), reversed(CORPUS), test)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
@_with_corpus
def test_exit_contract(tmp, argv):
    argv = [arg.format(tmp=tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, usage errors
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code, stderr)
    assert code != 0 or stderr == "", (argv, stderr)
    assert "Traceback" not in stderr and "Warning" not in stderr, (argv, stderr)
    assert stderr.count("error:") <= 1, (argv, stderr)
    assert [str(w.message) for w in caught] == [], argv
