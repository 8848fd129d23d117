"""The one process entry, milstab.__main__.run, and the collector policy it sets.

``python -m milstab``, ``python -m milstab.cli`` and the console script named
in pyproject.toml all reach run(), which runs the command with the cyclic
collector off, flushes stdout and stderr and ends the process with os._exit,
skipping the interpreter's teardown; a flush that fails sends it through
sys.exit instead. cli.main itself leaves the collector as its caller set it.

The collector may stay off because a call's cyclic garbage does not grow with
its size: after each call below, run in process with the collector disabled,
gc.collect() finds the same number of objects at a small and a large size
(the argparse parser's graph), not one per block, path or row.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env

from milstab import __main__ as entry
from milstab import cli

ROOT = Path(__file__).resolve().parent.parent

#: Runs a launcher with os._exit traced: its last stderr line names the
#: function that called os._exit, the code, and whether the collector was on.
_PROBE = """
import gc, importlib, os, runpy, sys

exit_now = os._exit

def traced_exit(code):
    caller = sys._getframe(1).f_code
    where = f"{os.path.basename(caller.co_filename)}:{caller.co_name}"
    sys.stderr.write(f"{where} {code} {gc.isenabled()}\\n")
    sys.stderr.flush()
    exit_now(code)

os._exit = traced_exit
launcher, sys.argv[1:] = sys.argv[1], sys.argv[2:]
if ":" in launcher:  # a console script's target, called as its wrapper calls it
    module, _, name = launcher.partition(":")
    sys.exit(getattr(importlib.import_module(module), name)())
runpy.run_module(launcher, run_name="__main__", alter_sys=True)
"""


#: A call that answers and one refused with exit 2.
CALLS = [(["exponent", "ms-exact"], 0), (["exponent", "ms-exact", "--dt", "2"], 2)]


def _script_target():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["milstab"]


def test_the_console_script_is_run():
    assert _script_target() == "milstab.__main__:run"


@pytest.mark.parametrize("launcher", ["milstab", "milstab.cli", "script"])
@pytest.mark.parametrize("argv, code", CALLS, ids=["exit-0", "refusal"])
def test_every_launcher_reaches_run(launcher, argv, code):
    target = _script_target() if launcher == "script" else launcher
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, target, *argv],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith('{"')
    assert proc.stderr.splitlines()[-1] == f"__main__.py:run {code} False"


@pytest.mark.parametrize(
    "argv, code, head",
    [*((argv, code, '{"') for argv, code in CALLS), (["--help"], 0, "usage:"), (["nope"], 2, "")],
    ids=["exit-0", "refusal", "help", "usage"],
)
def test_run_flushes_then_exits_without_teardown(monkeypatch, capsys, argv, code, head):
    # main's code, or argparse's, reaches os._exit, and stdout is written by then
    exits = []

    def flushed_exit(status):
        exits.append((status, capsys.readouterr().out))
        raise SystemExit(status)  # stops run where os._exit would

    was = gc.isenabled()
    monkeypatch.setattr(sys, "argv", ["milstab", *argv])
    monkeypatch.setattr(os, "_exit", flushed_exit)
    try:
        with pytest.raises(SystemExit):
            entry.run()
    finally:
        (gc.enable if was else gc.disable)()
    ((status, out),) = exits
    assert status == code
    assert out.startswith(head) and (out == "") == (head == "")


class _FailingFlush(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


def test_a_failed_flush_exits_through_sys_exit(monkeypatch):
    # the interpreter's exit then flushes again and reports the failure itself
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(os, "_exit", lambda status: pytest.fail("os._exit was called"))
    monkeypatch.setattr(sys, "stdout", _FailingFlush())
    was = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            entry.run()
    finally:
        (gc.enable if was else gc.disable)()
    assert exc.value.code == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", CALLS, ids=["exit-0", "refusal"])
def test_main_leaves_the_collector_as_found(capsys, enabled, argv, code):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        assert cli.main(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


def _garbage(argv):
    """(exit code, objects gc.collect() finds) after cli.main(argv) runs with the collector off."""
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, gc.collect()
    finally:
        if was:
            gc.enable()


#: Each call at a small and a large size. The 8 as-quad step sizes include
#: four that the scheme refuses, whose rows carry an error. as-mc's small size
#: is two blocks, so the warm-up and both calls run on the worker pool.
SIZES = {
    "as-mc": ("exponent as-mc --threads 2 --samples", str(2**19), str(2**21)),
    "simulate": ("simulate --threads 2 --paths", "2", "40"),
    "as-slope": ("exponent as-slope --paths", "2", "20"),
    "sweep-dt": ("sweep-dt as-quad --dts", "1e-2,1e-3,1e-4",
                 "0.9,0.5,0.3,0.2,1e-1,1e-2,1e-3,1e-4"),
    "verify": ("verify --samples", "100000", "1000000"),
}


@pytest.mark.parametrize("call", SIZES)
def test_garbage_does_not_grow_with_size(call):
    prefix, small, large = SIZES[call]
    argv = prefix.split()
    _garbage([*argv, small])  # first use loads numpy, the pool and the tables
    found = [_garbage([*argv, size]) for size in (small, large)]
    assert found[0] == found[1] and found[0][0] == 0, found

