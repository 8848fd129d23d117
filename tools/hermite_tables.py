"""Write the Gauss-Hermite rules that the milstab package ships.

    python3 tools/hermite_tables.py

The quadrature route evaluates every expectation on exponents.QUAD_NODES
nodes and checks it against twice as many, so milstab ships those two rules
as src/milstab/hermite_<n>.npy: one (2, n) float64 array each, the nodes and
then the weights, as stochastics._golub_welsch computes them on the host that
runs this script. The script takes no arguments and writes both files;
tests/test_stochastics.py checks the shipped bytes against this host's
Golub-Welsch.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from milstab.exponents import QUAD_NODES  # noqa: E402
from milstab.stochastics import _golub_welsch, _shipped_path  # noqa: E402


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 tools/hermite_tables.py", file=sys.stderr)
        return 2
    for n in (QUAD_NODES, 2 * QUAD_NODES):
        np.save(_shipped_path(n), np.stack(_golub_welsch(n)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
