"""The one process entry of the milstab command, with its collector policy.

``python -m milstab``, ``python -m milstab.cli`` and the ``milstab`` console
script all call run(). It disables the cyclic collector, imports and runs
cli.main, flushes stdout and stderr and ends the process with os._exit and
main's code, or argparse's for help and usage errors. With the collector off
no pass walks numpy's objects while they import, nor anything while the
command runs; a call leaves the same few hundred collectable objects whatever
its size (tests/test_entry.py), so memory stays bounded. os._exit skips the
interpreter's teardown, which would otherwise free every module and object
that numpy and the command loaded: every file the command wrote is closed
and every task finished before main returns, and idle workers end with
os._exit, so the flushes are all that the exit owes. If a flush fails, run
exits through sys.exit instead, and the interpreter's own exit reports the
failure as it always has.

This module alone sets the collector policy. Callers of cli.main inside a
process of their own, such as tests and the benchmark's traced run, do not
come here, so their collector stays as they set it.
"""

import gc
import os
import sys


def run():
    gc.disable()
    from .cli import main

    try:
        code = main()
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
