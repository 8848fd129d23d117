"""Deterministic splittable random streams and Gauss-Hermite quadrature tables.

Every stochastic computation in the package draws from an RngStream keyed by
(root_seed, stream_id). Distinct ids give independent substreams of a
counter-based generator, so worker count and execution order never change what
a path or sample block sees. Expectations against the standard normal density
are evaluated with cached Gauss-Hermite rules, built with numpy alone by the
Golub-Welsch method (Golub and Welsch, Math. Comp. 23, 1969): the nodes are the
eigenvalues of the symmetric Jacobi matrix of the probabilists' Hermite
polynomials and the weights the squared first components of its eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import _np as np

_U64 = 2**64

#: Largest number of draws a position replay discards at once (2 MB of doubles).
REPLAY_CHUNK = 2**18

#: Largest Gauss-Hermite rule that gauss_hermite_rule builds.
MAX_NODES = 1024


@dataclass
class RngStream:
    """A named substream of the package-wide Philox generator.

    position counts standard-normal draws consumed so far. Constructing a
    stream at position k > 0 replays and discards k draws, REPLAY_CHUNK at a
    time so memory stays bounded; normal sampling consumes a variable number
    of raw generator words, so positions cannot be reached by counter jumps.
    """

    root_seed: int
    stream_id: int
    position: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("root_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v < _U64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")
        if not isinstance(self.position, (int, np.integer)) or self.position < 0:
            raise ValueError(f"position must be a nonnegative integer, got {self.position!r}")
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        left = int(self.position)
        while left:
            step = min(left, REPLAY_CHUNK)
            self._gen.standard_normal(step)
            left -= step

    def normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normal variates as a float64 array."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        out = self._gen.standard_normal(n)
        self.position += n
        return out


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals against the standard normal density.

    Weights are normalized to sum to 1 and nodes are symmetric about 0.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if abs(float(self.weights.sum()) - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1 within 1e-14")
        if not np.array_equal(self.nodes, -self.nodes[::-1]):
            raise ValueError("nodes must be symmetric about 0")

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values evaluated at the nodes."""
        return float(np.sum(self.weights * values))


@lru_cache(maxsize=None)
def _hermite_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Golub-Welsch for probabilists' Hermite polynomials: the Jacobi matrix is
    # symmetric tridiagonal with zero diagonal and off-diagonal sqrt(k). The
    # dense eigh spares the scipy import. It runs a different LAPACK driver
    # from scipy's eigh_tridiagonal, so equal bits are a property of the
    # LAPACK/BLAS build and thread count, not a guarantee; the table pin in
    # tests/test_stochastics.py checks them wherever the tests run.
    off = np.sqrt(np.arange(1.0, n))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    # Enforce exact symmetry, then normalize: the raw first-row squares sum to
    # 1 only within ~2e-14 at large n.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Hermite rule for E[f(Y)], Y ~ N(0,1).

    Exact for polynomials up to degree 2n-1; n must be an integer in
    [3, MAX_NODES]. Tables are computed once per n and cached.
    """
    if not (isinstance(n, int) or isinstance(n, np.integer)) or not 3 <= n <= MAX_NODES:
        raise ValueError(f"node count must be an integer in [3, {MAX_NODES}], got {n!r}")
    nodes, weights = _hermite_table(int(n))
    return QuadratureRule(nodes=nodes, weights=weights)

