"""Randomized-graph density matrices, partial transpose, negativity, and rank.

All density matrices here are real symmetric in the computational basis
(every spanning-subgraph projector is), so storage is real float64 and the
single numerical kernel is the symmetric eigendecomposition.  Every mixture
of subgraph projectors has entries 2^-n * chi[u(x) XOR u(y)], built from the
excitation patterns u(x) and a character table chi over edge masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SizeLimitError
from .graph import Graph
from .state import excitation_patterns, walsh_hadamard

MAX_DENSITY_QUBITS = 12
MAX_DENSITY_EDGES = 24
MAX_DIMENSION_EDGES = 20
RANK_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Dense real symmetric 2^n x 2^n operator with unit trace."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n
        if self.entries.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix for n={self.n}")
        if not np.allclose(self.entries, self.entries.T, atol=1e-12, rtol=0):
            raise ValueError("density matrix is not symmetric")
        if abs(float(np.trace(self.entries)) - 1.0) > 1e-12:
            raise ValueError("density matrix trace differs from 1")

    def smallest_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


@dataclass(frozen=True)
class Bipartition:
    """Proper bipartition of n qubits; ``side_a`` is a vertex bitmask."""

    n: int
    side_a: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if not 0 < self.side_a < full:
            raise ValueError("side_a must be a nonempty proper vertex subset")

    @property
    def side_b(self) -> int:
        return ((1 << self.n) - 1) ^ self.side_a


def _check_density_caps(g: Graph):
    if g.n > MAX_DENSITY_QUBITS:
        raise SizeLimitError(
            f"dense matrices capped at n={MAX_DENSITY_QUBITS}, got {g.n}")
    if g.edge_count > MAX_DENSITY_EDGES:
        raise SizeLimitError(
            f"subgraph mixtures capped at |E|={MAX_DENSITY_EDGES}, got {g.edge_count}")


def _pattern_density(g: Graph, chi: np.ndarray) -> DensityMatrix:
    """rho_xy = 2^-n * chi[u(x) XOR u(y)] for a character table over edge masks."""
    u = excitation_patterns(g)
    chi = chi / (1 << g.n)  # scaled before the gather: no third 4^n temporary
    return DensityMatrix(g.n, chi[u[:, None] ^ u[None, :]])


def subgraph_mixture(g: Graph, weights) -> DensityMatrix:
    """Mixture sum(w_m |F_m><F_m|) over edge-mask keys of ``weights``.

    ``weights`` maps mask bits (int) to probabilities summing to 1.  Since
    <x|F_m><F_m|y> = 2^-n (-1)^popcount(m & (u(x) XOR u(y))), the mixture's
    character table is the Walsh-Hadamard transform of the weight vector.
    """
    _check_density_caps(g)
    w = np.zeros(1 << g.edge_count)
    for mask, weight in weights.items():
        w[mask] = weight
    return _pattern_density(g, walsh_hadamard(w))


def randomize(g: Graph, p: float) -> DensityMatrix:
    """Binomial mixture of all spanning-subgraph projectors of ``g``.

    Each edge of ``g`` is kept independently with probability ``p``, which
    dephases it independently: the character table is (1-2p)^popcount(z).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"randomness parameter must be in [0, 1], got {p}")
    _check_density_caps(g)
    masks = np.arange(1 << g.edge_count, dtype=np.int64)
    return _pattern_density(g, (1.0 - 2.0 * p) ** np.bitwise_count(masks))


def randomized_bell(p: float) -> DensityMatrix:
    """Two-qubit randomized Bell state: explicit 4x4 matrix in 1 and 1-2p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"randomness parameter must be in [0, 1], got {p}")
    q = 1.0 - 2.0 * p
    m = np.array([
        [1.0, 1.0, 1.0, q],
        [1.0, 1.0, 1.0, q],
        [1.0, 1.0, 1.0, q],
        [q, q, q, 1.0],
    ]) / 4.0
    return DensityMatrix(2, m)


def partial_transpose(rho: DensityMatrix, cut: Bipartition) -> np.ndarray:
    """Transpose the side-A tensor factors of ``rho``; involutive."""
    if cut.n != rho.n:
        raise ValueError(f"bipartition is for n={cut.n}, matrix has n={rho.n}")
    n = rho.n
    t = rho.entries.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in range(n):
        if (cut.side_a >> q) & 1:
            row_ax = n - 1 - q
            col_ax = 2 * n - 1 - q
            perm[row_ax], perm[col_ax] = perm[col_ax], perm[row_ax]
    return np.ascontiguousarray(t.transpose(perm).reshape(1 << n, 1 << n))


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    evals = np.linalg.eigvalsh(partial_transpose(rho, cut))
    return float(-evals[evals < 0.0].sum())


def numerical_rank(rho: DensityMatrix, tol: float = RANK_TOL) -> int:
    """Number of eigenvalues above ``tol`` relative to the largest one."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    evals = np.linalg.eigvalsh(rho.entries)
    top = float(evals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(evals > tol * top))


def subgraph_space_dimension(g: Graph) -> int:
    """Dimension of the span of all spanning-subgraph states of ``g``.

    The subgraph states span exactly the functions of u(x): rows of the
    2^n x 2^|E| sign matrix (-1)^popcount(m & u(x)) are equal for equal u(x)
    and independent Hadamard rows otherwise.  So the dimension is the exact
    number of distinct excitation patterns.
    """
    e = g.edge_count
    if e > MAX_DIMENSION_EDGES:
        raise SizeLimitError(
            f"subgraph space dimension capped at |E|={MAX_DIMENSION_EDGES}, got {e}")
    if g.n > MAX_DENSITY_QUBITS:
        raise SizeLimitError(
            f"subgraph space dimension capped at n={MAX_DENSITY_QUBITS}, got {g.n}")
    return len(np.unique(excitation_patterns(g)))


def export_density(rho: DensityMatrix, base_path, *, p: float, graph_spec: str):
    """Write ``<base>.csv`` (row-major entries) and ``<base>.json`` header."""
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    lines = [",".join(f"{v:.12g}" for v in row) for row in rho.entries]
    csv_path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(
        {"n": rho.n, "p": p, "graph_spec": graph_spec}, separators=(",", ":")) + "\n")
    return csv_path, json_path
