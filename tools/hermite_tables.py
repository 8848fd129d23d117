"""Write, or check, the Gauss-Hermite rules that the milstab package ships.

    python3 tools/hermite_tables.py [--check]

The quadrature route evaluates every expectation on exponents.QUAD_NODES
nodes and checks it against twice as many, so milstab ships those two rules
as src/milstab/hermite_<n>.npy: one (2, n) float64 array each, the nodes and
then the weights, as stochastics._golub_welsch computes them on the host that
runs this script. Without --check the script writes both files. With
--check it writes nothing, prints each file whose bytes differ from what it
would write (or that is missing) and exits 1 if any does, else 0.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from milstab.exponents import QUAD_NODES  # noqa: E402
from milstab.stochastics import _golub_welsch, _shipped_path  # noqa: E402

#: The node counts of the shipped rules.
SHIPPED = (QUAD_NODES, 2 * QUAD_NODES)


def table_bytes(n: int) -> bytes:
    """The .npy bytes of the n-node rule as Golub-Welsch computes it here."""
    buffer = io.BytesIO()
    np.save(buffer, np.stack(_golub_welsch(n)))
    return buffer.getvalue()


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python3 tools/hermite_tables.py [--check]", file=sys.stderr)
        return 2
    differ = []
    for n in SHIPPED:
        path = Path(_shipped_path(n))
        data = table_bytes(n)
        if not argv:
            path.write_bytes(data)
        elif not path.is_file() or path.read_bytes() != data:
            differ.append(path.name)
    for name in differ:
        print(f"{name} is missing or differs from Golub-Welsch on this host")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
