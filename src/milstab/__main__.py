"""The one process entry of the milstab command, with its collector policy.

``python -m milstab``, ``python -m milstab.cli`` and the ``milstab`` console
script all call run(). It disables the cyclic collector, imports and runs
cli.main, freezes every object then alive (gc.freeze) and exits with main's
code. With the collector off no pass walks numpy's objects while they import,
nor anything while the command runs; a call leaves the same few hundred
collectable objects whatever its size (tests/test_entry.py), so memory stays
bounded. Frozen objects are left out of the interpreter's final collection,
which would otherwise scan everything numpy loaded at exit.

This module alone sets the collector policy. Callers of cli.main inside a
process of their own, such as tests and the benchmark's traced run, do not
come here, so their collector stays as they set it.
"""

import gc
import sys


def run():
    gc.disable()
    from .cli import main

    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
