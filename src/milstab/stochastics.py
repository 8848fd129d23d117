"""Deterministic splittable random streams and Gauss-Hermite quadrature tables.

Every stochastic computation in the package draws from an RngStream keyed by
(root_seed, stream_id). Distinct ids give independent substreams of a
counter-based generator, so worker count and execution order never change what
a path or sample block sees. Expectations against the standard normal density
are evaluated with cached Gauss-Hermite rules, held as tuples of floats. The
package ships the rules of the quadrature route (exponents.QUAD_NODES nodes
and twice as many) as hermite_<n>.npy files beside this module, written by
tools/hermite_tables.py, so their bits do not depend on the host's LAPACK.
_hermite_table reads one with the standard library alone, so the route loads
no numpy and runs no eigensolve. Every other rule is built with numpy by the
Golub-Welsch method (Golub and Welsch, Math. Comp. 23, 1969): the nodes are
the eigenvalues of the symmetric Jacobi matrix of the probabilists' Hermite
polynomials and the weights the squared first components of its eigenvectors.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from functools import lru_cache

from . import _np as np
from ._record import Record

_U64 = 2**64

#: Largest number of draws a position replay discards at once (2 MB of doubles).
REPLAY_CHUNK = 2**18

#: Largest Gauss-Hermite rule that gauss_hermite_rule builds.
MAX_NODES = 1024


class RngStream:
    """A named substream of the package-wide Philox generator.

    position counts standard-normal draws consumed so far. Constructing a
    stream at position k > 0 replays and discards k draws, REPLAY_CHUNK at a
    time so memory stays bounded; normal sampling consumes a variable number
    of raw generator words, so positions cannot be reached by counter jumps.
    Streams compare equal by (root_seed, stream_id, position).
    """

    def __init__(self, root_seed: int, stream_id: int, position: int = 0) -> None:
        self.root_seed, self.stream_id, self.position = root_seed, stream_id, position
        for name, v in (("root_seed", root_seed), ("stream_id", stream_id)):
            if not isinstance(v, (int, np.integer)) or not 0 <= v < _U64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")
        if not isinstance(position, (int, np.integer)) or position < 0:
            raise ValueError(f"position must be a nonnegative integer, got {position!r}")
        key = np.array([root_seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        left = int(position)
        while left:
            step = min(left, REPLAY_CHUNK)
            self._gen.standard_normal(step)
            left -= step

    def _key(self) -> tuple:
        return self.root_seed, self.stream_id, self.position

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return "RngStream(root_seed={!r}, stream_id={!r}, position={!r})".format(*self._key())

    def normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normal variates as a float64 array."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        out = self._gen.standard_normal(n)
        self.position += n
        return out


class QuadratureRule(Record):
    """Nodes and weights for integrals against the standard normal density.

    The package's rules hold tuples of floats. Nodes and weights have equal
    length, the weights sum to 1 within 1e-14 by math.fsum and the nodes are
    symmetric about 0; any rule that is not is refused.
    """

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must be of equal length")
        if not abs(math.fsum(self.weights) - 1.0) <= 1e-14:  # a NaN sum too
            raise ValueError("weights must sum to 1 within 1e-14")
        if not all(a == -b for a, b in zip(self.nodes, reversed(self.nodes))):
            raise ValueError("nodes must be symmetric about 0")

    def integrate(self, values) -> float:
        """Sum of weight * value over integrand values given at the nodes in order.

        math.fsum adds the products with one rounding, so the order of the
        nodes does not change the bits.
        """
        return math.fsum(map(operator.mul, self.weights, values))


def _shipped_path(n: int) -> str:
    """The file that ships the n-node rule, whether or not it exists."""
    return os.path.join(os.path.dirname(__file__), f"hermite_{n}.npy")


def _golub_welsch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node rule's (nodes, weights), computed by Golub-Welsch."""
    # The Jacobi matrix is symmetric tridiagonal with zero diagonal and
    # off-diagonal sqrt(k). The dense eigh spares the scipy import. It runs a
    # different LAPACK driver from scipy's eigh_tridiagonal, so equal bits are
    # a property of the LAPACK/BLAS build and thread count, not a guarantee;
    # the table pin in tests/test_stochastics.py checks them wherever the
    # tests run. The shipped rules hold the quadrature route's bits on any build.
    off = np.sqrt(np.arange(1.0, n))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    # Enforce exact symmetry, then normalize: the raw first-row squares sum to
    # 1 only within ~2e-14 at large n.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights / weights.sum()


def _read_rule(data: bytes, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(nodes, weights) of a shipped n-node rule from its .npy bytes, read without numpy.

    The file must be exactly what tools/hermite_tables.py writes: the .npy
    v1.0 preamble, the header of one little-endian float64 (2, n) array in C
    order, then its 16*n payload bytes, the nodes and then the weights. Any
    other file is refused rather than misread.
    """
    end = 10 + int.from_bytes(data[8:10], "little")
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': (2, {n}), }}"
    if (data[:8] != b"\x93NUMPY\x01\x00" or len(data) != end + 16 * n
            or data[10:end].decode("latin-1") != header.ljust(end - 11) + "\n"):
        raise ValueError(f"{_shipped_path(n)} is not the shipped {n}-node rule")
    table = struct.unpack_from(f"<{2 * n}d", data, end)  # little-endian on any host
    return table[:n], table[n:]


@lru_cache(maxsize=None)
def _hermite_table(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-node rule's (nodes, weights) as tuples of floats: shipped, else Golub-Welsch."""
    try:
        with open(_shipped_path(n), "rb") as fh:
            return _read_rule(fh.read(), n)
    except FileNotFoundError:
        nodes, weights = _golub_welsch(n)
        return tuple(nodes.tolist()), tuple(weights.tolist())


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Hermite rule for E[f(Y)], Y ~ N(0,1).

    Exact for polynomials up to degree 2n-1; n must be an integer in
    [3, MAX_NODES]. Tables are loaded or computed once per n and cached.
    """
    if not (isinstance(n, int) or isinstance(n, np.integer)) or not 3 <= n <= MAX_NODES:
        raise ValueError(f"node count must be an integer in [3, {MAX_NODES}], got {n!r}")
    nodes, weights = _hermite_table(int(n))
    return QuadratureRule(nodes=nodes, weights=weights)

