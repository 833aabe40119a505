"""Randomized-graph density matrices, partial transpose, negativity, and rank.

All density matrices here are real symmetric in the computational basis
(every spanning-subgraph projector is), so storage is real float64 and the
single numerical kernel is the symmetric eigendecomposition.  A mixture of
subgraph projectors reads the excitation patterns u(x) through u(x) XOR u(y)
alone: ``randomize`` is 2^-n q^popcount(u(x) XOR u(y)), q = 1 - 2p, and
``subgraph_mixture`` gathers from the Walsh-Hadamard transform of its weights.

Such a matrix repeats rows: rho has one distinct row per pattern u(x), and
many rows of its partial transpose repeat too.  The eigensolve therefore
runs on the distinct rows only.  When the rows of a real symmetric M fall
into classes of bit-identical rows, M = P^T A P, where A = M[R, R] keeps one
representative row and column per class and P is the class indicator.  The
nonzero spectrum of M is that of D^1/2 A D^1/2, with D the class sizes, and
every eigenvalue dropped with the merged rows is exactly 0.  Rows are merged
only when they are verified bit-equal, never by hash or tolerance alone.
``negativity`` reads the rows of the partial transpose from rho's entries in
place, so only rho and A are held; ``partial_transpose`` builds the whole
matrix, for callers that want it.

``numerical_rank`` counts eigenvalues above a relative cutoff, so it can
miss eigenvalues that are tiny but nonzero, as near p = 0 or 1.  The exact
rank of ``randomize(g, p)`` for 0 < p < 1 is ``subgraph_space_dimension(g)``,
a count of distinct patterns that builds no matrix; the ``rank`` command
prints it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import check_table
from .graph import Graph
from .state import excitation_patterns, walsh_hadamard
from .witness import _check_p, _check_tol

RANK_TOL = 1e-10
_ROW_BLOCK = 64  # rows gathered, hashed, verified or scaled per step: no full-size temporary
_NEGATIVITY_SECONDS = 0.2e-9  # fitted seconds of one negativity per 8^n; see negativity


def _is_symmetric(e: np.ndarray) -> bool:
    """``allclose(e, e.T, atol=1e-12, rtol=0)``, one upper-triangle tile at a time.

    Each _ROW_BLOCK-square tile is matched against its mirror tile, so both
    stay in cache where a whole-matrix ``e.T`` walks a column per row.  The
    exact test settles every matrix built here without allclose's temporaries.
    """
    dim, b = len(e), _ROW_BLOCK
    for i in range(0, dim, b):
        for j in range(i, dim, b):
            tile, mirror = e[i:i + b, j:j + b], e[j:j + b, i:i + b].T
            if not (np.array_equal(tile, mirror)
                    or np.allclose(tile, mirror, atol=1e-12, rtol=0)):
                return False
    return True


@dataclass(frozen=True)
class DensityMatrix:
    """Dense real symmetric 2^n x 2^n operator with unit trace."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        dim, e = 1 << self.n, self.entries
        if e.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix for n={self.n}")
        if not _is_symmetric(e):
            raise ValueError("density matrix is not symmetric")
        if abs(float(np.trace(e)) - 1.0) > 1e-12:
            raise ValueError("density matrix trace differs from 1")


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


def _pattern_gather(g: Graph, table: np.ndarray, popcount: bool) -> DensityMatrix:
    """rho_xy = table[u(x) XOR u(y)], or table[popcount(u(x) XOR u(y))].

    rho, checked against the table budget by the callers, is filled a block
    of rows at a time through one reused int64 index buffer, not a 4^n one.
    """
    dim, u = 1 << g.n, excitation_patterns(g)
    rows = min(dim, _ROW_BLOCK)  # divides 2^n: every block is full
    rho, index = np.empty((dim, dim)), np.empty((rows, dim), dtype=np.int64)
    for a in range(0, dim, rows):
        np.bitwise_xor(u[a:a + rows, None], u, out=index)
        if popcount:
            np.bitwise_count(index, out=index)
        np.take(table, index, out=rho[a:a + rows], mode="clip")  # clip: no buffered copy
    return DensityMatrix(g.n, rho)


def subgraph_mixture(g: Graph, weights) -> DensityMatrix:
    """Mixture sum(w_m |F_m><F_m|) over edge-mask keys of ``weights``.

    ``weights`` maps mask bits, ints in [0, 2^|E|), to probabilities summing
    to 1; any other key is refused with ``ValueError``.  Since
    <x|F_m><F_m|y> = 2^-n (-1)^popcount(m & (u(x) XOR u(y))), the mixture's
    character table is the Walsh-Hadamard transform of the weight vector.
    """
    check_table(f"density matrix of n={g.n}", 1 << 2 * g.n, 8)
    check_table(f"mixture weights of |E|={g.edge_count}", 1 << g.edge_count, 8)
    w = np.zeros(1 << g.edge_count)
    for mask, weight in weights.items():
        if not (isinstance(mask, int) and 0 <= mask < len(w)):
            raise ValueError(f"mask key {mask!r} is not an int in [0, 2^{g.edge_count})")
        w[mask] = weight
    return _pattern_gather(g, walsh_hadamard(w) / (1 << g.n), popcount=False)


def randomize(g: Graph, p: float) -> DensityMatrix:
    """Binomial mixture of all spanning-subgraph projectors of ``g``.

    Each edge of ``g`` is kept independently with probability ``p``, which
    dephases it independently by q = 1 - 2p: rho_xy = 2^-n q^popcount(u(x)
    XOR u(y)), gathered from the |E| + 1 powers of q (|E| <= 63, one word).
    """
    _check_p(p)
    check_table(f"density matrix of n={g.n}", 1 << 2 * g.n, 8)
    powers = (1.0 - 2.0 * p) ** np.arange(g.edge_count + 1) / (1 << g.n)
    return _pattern_gather(g, powers, popcount=True)


def randomized_bell(p: float) -> DensityMatrix:
    """Two-qubit randomized Bell state: explicit 4x4 matrix in 1 and 1-2p."""
    _check_p(p)
    q = 1.0 - 2.0 * p
    m = np.array([
        [1.0, 1.0, 1.0, q],
        [1.0, 1.0, 1.0, q],
        [1.0, 1.0, 1.0, q],
        [q, q, q, 1.0],
    ]) / 4.0
    return DensityMatrix(2, m)


def _check_cut(rho: DensityMatrix, cut: Bipartition):
    if cut.n != rho.n:
        raise ValueError(f"bipartition is for n={cut.n}, matrix has n={rho.n}")


def partial_transpose(rho: DensityMatrix, cut: Bipartition) -> np.ndarray:
    """Transpose the side-A tensor factors of ``rho``; involutive."""
    _check_cut(rho, cut)
    n = rho.n
    t = rho.entries.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in range(n):
        if (cut.side_a >> q) & 1:
            row_ax = n - 1 - q
            col_ax = 2 * n - 1 - q
            perm[row_ax], perm[col_ax] = perm[col_ax], perm[row_ax]
    return np.ascontiguousarray(t.transpose(perm).reshape(1 << n, 1 << n))


@cache
def _hash_weights(cols: int) -> np.ndarray:
    """splitmix64 outputs of the column indices 1..cols (see ``_row_hashes``)."""
    w = np.arange(1, cols + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    w ^= w >> np.uint64(30)
    w *= np.uint64(0xBF58476D1CE4E5B9)
    w ^= w >> np.uint64(27)
    w *= np.uint64(0x94D049BB133111EB)
    w ^= w >> np.uint64(31)
    return w


def _row_hashes(bits: np.ndarray) -> np.ndarray:
    """Per-row uint64 hash sum_j f(bits[:, j]) * w_j (mod 2^64) of a block of rows.

    f(b) = b XOR (b >> 32) is a bijection that folds the sign and exponent
    into the low word: a sum of products keeps the trailing zeros common to
    its terms, and dyadic entries such as +-2^-n have 52 zero low bits.  The
    weights w_j are splitmix64 outputs of the column index: fixed, so
    nothing random is drawn, and not linear in j, so rows that permute each
    other's entries rarely collide.
    """
    return (bits ^ (bits >> np.uint64(32))) @ _hash_weights(bits.shape[1])


def _merged_spectrum(m: np.ndarray, side_a: int = 0) -> tuple[np.ndarray, bool]:
    """Ascending eigenvalues of D^1/2 A D^1/2 for M, and whether rows merged.

    M is ``m`` itself (``side_a`` = 0) or its partial transpose on the
    qubits of the bitmask ``side_a``, and it is never built: with B the
    other qubits, M[r, c] = flat[base[c] + off[r]] over the flat entries of
    ``m``, base[c] = (c & A) 2^n + (c & B) and off[r] = (r & B) 2^n + (r & A).
    Columns that differ only below the lowest qubit of A are adjacent in
    ``m``, so rows are read _ROW_BLOCK at a time as runs of ``step`` such
    entries: whole rows of ``m`` when A is empty.  Rows with equal hashes
    join the class of the first such row, then each row is checked
    bit-equal to that representative; a row that differs (a hash collision)
    stays its own class.  A = M[R, R] on the representatives R, D their
    class sizes.  The result is the spectrum of M less the exact zeros of
    the merged rows (see the module docstring).
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    dim, flat = len(m), m.ravel()
    index, side_b = np.arange(dim), (dim - 1) ^ side_a
    base = (index & side_a) * dim + (index & side_b)
    off = (index & side_b) * dim + (index & side_a)
    step = (side_a | dim) & -(side_a | dim)
    runs = flat.view(np.uint64).reshape(-1, step)
    run_base, run_off = base[::step] // step, off // step

    def bits(rows):  # M[rows, :] as uint64
        return np.take(runs, run_off[rows, None] + run_base, axis=0).reshape(len(rows), dim)
    hashes = np.concatenate([_row_hashes(bits(index[a:a + _ROW_BLOCK]))
                             for a in range(0, dim, _ROW_BLOCK)])
    _, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
    rep = first[inverse]
    joined = np.flatnonzero(rep != index)
    for a in range(0, len(joined), _ROW_BLOCK):
        rows = joined[a:a + _ROW_BLOCK]
        firsts, back = np.unique(rep[rows], return_inverse=True)  # each read once
        rows = rows[(bits(firsts)[back] != bits(rows)).any(axis=1)]
        rep[rows] = rows
    reps = np.flatnonzero(rep == index)
    merged = len(reps) < dim
    sizes = np.bincount(rep, minlength=dim)[reps]
    a_mat = np.empty((len(reps), len(reps)))
    for a in range(0, len(reps), _ROW_BLOCK):
        rows = slice(a, a + _ROW_BLOCK)
        np.take(flat, off[reps[rows], None] + base[reps], out=a_mat[rows])
        if merged:  # one rounding: sqrt(d_i d_j)
            a_mat[rows] *= np.sqrt(sizes[rows, None] * sizes)
    return np.linalg.eigvalsh(a_mat), merged


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    With ``randomize`` before it, one value at n = 10-12 took up to 0.17 ns
    per 8^n on cuts whose rows do not merge (8-10 s for grid:3x4 at n = 12,
    one BLAS thread) and less on cuts whose rows do;
    ``_NEGATIVITY_SECONDS`` is the estimate the CLI charges per 8^n.
    """
    _check_cut(rho, cut)
    # rho^T_B = (rho^T_A)^T, that is rho^T_A again for a symmetric rho; the
    # side without qubit 0 has its rows in runs of rho's entries
    evals, _ = _merged_spectrum(rho.entries, cut.side_b if cut.side_a & 1 else cut.side_a)
    return float(np.abs(evals[evals < 0.0]).sum())


def numerical_rank(rho: DensityMatrix, tol: float = RANK_TOL) -> int:
    """Number of eigenvalues above ``tol`` relative to the largest one."""
    _check_tol(tol)
    evals, _ = _merged_spectrum(rho.entries)
    return int(np.count_nonzero(evals > tol * float(evals[-1])))


def subgraph_space_dimension(g: Graph) -> int:
    """Dimension of the span of all spanning-subgraph states of ``g``.

    The subgraph states span exactly the functions of u(x): rows of the
    2^n x 2^|E| sign matrix (-1)^popcount(m & u(x)) are equal for equal u(x)
    and independent Hadamard rows otherwise.  So the dimension is the exact
    number of distinct excitation patterns, counted as the value changes of
    the sorted patterns (a plain ``np.unique`` would import ``numpy.ma``).
    """
    u = excitation_patterns(g)
    u.sort()
    return 1 + int(np.count_nonzero(u[1:] != u[:-1]))


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
