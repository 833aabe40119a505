"""Randomized-graph density matrices, partial transpose, negativity, and rank.

All density matrices here are real symmetric in the computational basis
(every spanning-subgraph projector is), so storage is real float64 and the
single numerical kernel is the symmetric eigendecomposition.  A mixture of
subgraph projectors reads the excitation patterns u(x) through u(x) XOR u(y)
alone: ``randomize`` is 2^-n q^popcount(u(x) XOR u(y)), q = 1 - 2p, and
``subgraph_mixture`` gathers from the Walsh-Hadamard transform of its weights.
``randomized_bell`` is ``randomize`` of the one-edge graph.  All three are
built by one gather, ``_pattern_gather``, which alone records the graph (and
``randomize``'s q) on the matrix it makes.

Such a matrix repeats rows: rho has one distinct row per pattern u(x), and
many rows of its partial transpose repeat too.  The eigensolve therefore
runs on the distinct rows only.  When the rows of a real symmetric M fall
into classes of bit-identical rows, M = P^T A P, where A = M[R, R] keeps one
representative row and column per class and P is the class indicator.  The
nonzero spectrum of M is that of D^1/2 A D^1/2, with D the class sizes, and
every eigenvalue dropped with the merged rows is exactly 0.  Rows are merged
only when they are verified bit-equal, never by hash or tolerance alone.
On a matrix with that record the merge starts from integer row keys: u(x)
for rho; for its partial transpose on A, the patterns of the edges inside A
and inside B and the bits on the ends of the crossing edges.  Rows with
equal keys are equal, so only the K x K block of the K key classes is
hashed and verified, where a matrix without the record has all 2^n rows
hashed.  ``negativity`` reads the rows of
the partial transpose from rho's entries in place, so only rho and A are
held; ``partial_transpose`` builds the whole matrix, for callers that
want it.

``numerical_rank`` counts eigenvalues above a relative cutoff.  For
``randomize`` it first tries a certificate: every eigenvalue of A is at
least 2^-n (1 - |q|)^|E| and at most 1, so when that floor clears the
cutoff by more than the eigensolver's rounding margin, the count is the
number K of distinct patterns, with no eigensolve; the count is what the
eigensolve would return.  Near p = 0 or 1 the floor is too small, the
spectrum is solved, and eigenvalues that are tiny but nonzero can be
missed.  The exact rank of ``randomize(g, p)`` for 0 < p < 1 is
``subgraph_space_dimension(g)``, a count of distinct patterns that builds
no matrix; the ``rank`` command prints it.
"""

from __future__ import annotations

import json
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .errors import _check_p, _check_tol, check_table
from .graph import Graph
from .state import excitation_patterns, walsh_hadamard

RANK_TOL = 1e-10
_ROW_BLOCK = 64  # rows gathered, hashed, verified or scaled per step: no full-size temporary
_NEGATIVITY_SECONDS = 0.2e-9  # fitted seconds of one negativity per 8^n; see negativity


def _is_symmetric(e: np.ndarray) -> bool:
    """``allclose(e, e.T, atol=1e-12, rtol=0)``, one upper-triangle tile at a time.

    Each _ROW_BLOCK-square tile is matched against its mirror tile, so both
    stay in cache where a whole-matrix ``e.T`` walks a column per row.  The
    exact test settles a symmetric tile without allclose's temporaries.
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
    """Dense real symmetric 2^n x 2^n operator with unit trace.

    ``graph`` and ``q`` record how ``_pattern_gather`` made the entries, and
    only it can set them, through the init-only ``_record``: the public
    constructor and ``dataclasses.replace`` give a matrix with no record
    (both None), which is scanned for symmetry and merged by row hashes.
    ``graph`` is set when every entry is a function of u(x) XOR u(y) over
    the edges of ``graph`` (``randomize``, ``subgraph_mixture``), and ``q``
    = 1 - 2p when that function is ``randomize``'s 2^-n q^popcount.  Such
    entries are read-only, so the record holds for as long as the matrix
    does, and are symmetric by construction, so they are not scanned.
    """

    n: int
    entries: np.ndarray
    graph: Graph | None = field(default=None, init=False)
    q: float | None = field(default=None, init=False)
    _: KW_ONLY
    _record: InitVar[tuple[Graph, float | None] | None] = None

    def __post_init__(self, _record):
        dim, e = 1 << self.n, self.entries
        if e.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix for n={self.n}")
        if _record is not None:
            object.__setattr__(self, "graph", _record[0])
            object.__setattr__(self, "q", _record[1])
        elif not _is_symmetric(e):
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


def _pattern_gather(g: Graph, table: np.ndarray, popcount: bool,
                    q: float | None = None) -> DensityMatrix:
    """rho_xy = table[u(x) XOR u(y)], or table[popcount(u(x) XOR u(y))].

    rho, checked against the table budget by the callers, is filled a block
    of rows at a time through one reused int64 index buffer, not a 4^n one.
    It records ``g`` and ``q`` (see ``DensityMatrix``) and is read-only.
    """
    dim, u = 1 << g.n, excitation_patterns(g)
    rows = min(dim, _ROW_BLOCK)  # divides 2^n: every block is full
    rho, index = np.empty((dim, dim)), np.empty((rows, dim), dtype=np.int64)
    for a in range(0, dim, rows):
        np.bitwise_xor(u[a:a + rows, None], u, out=index)
        if popcount:
            np.bitwise_count(index, out=index)
        np.take(table, index, out=rho[a:a + rows], mode="clip")  # clip: no buffered copy
    rho.flags.writeable = False
    return DensityMatrix(g.n, rho, _record=(g, q))


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
    q = 1.0 - 2.0 * p
    powers = q ** np.arange(g.edge_count + 1) / (1 << g.n)
    return _pattern_gather(g, powers, popcount=True, q=q)


def randomized_bell(p: float) -> DensityMatrix:
    """Two-qubit randomized Bell state: ``randomize`` of the one-edge graph."""
    return randomize(Graph(2, ((0, 1),)), p)


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


def _row_keys(rho: DensityMatrix, side_a: int = 0) -> np.ndarray | None:
    """Integer keys of the rows of rho, or of its partial transpose on ``side_a``.

    Rows with equal keys are bit-equal, and so are the columns.  Row x of a
    pattern-built rho is fixed by u(x).  Row r of its partial transpose on A
    reads rho at s = (c & A) | (r & B) and t = (r & A) | (c & B), and
    u(s) XOR u(t) takes from r only the patterns of the edges inside A and
    inside B and the bits of r on the ends of the crossing edges.  Those
    inside patterns are renumbered below 2^n, so the key fits one int64.  A
    matrix built by hand has no keys (None).
    """
    g = rho.graph
    if g is None:
        return None
    u = excitation_patterns(g)
    if not side_a:
        return u
    inside = ends = 0
    for k, (a, b) in enumerate(g.edges):
        if (side_a >> a ^ side_a >> b) & 1:
            ends |= 1 << a | 1 << b
        else:
            inside |= 1 << k
    _, label = np.unique(u & inside, return_inverse=True)
    return label << g.n | np.arange(1 << g.n) & ends


def _merged_spectrum(m: np.ndarray, side_a: int = 0,
                     keys: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of D^1/2 A D^1/2 for M (see the module docstring).

    M is ``m`` itself (``side_a`` = 0) or its partial transpose on the
    qubits of the bitmask ``side_a``, and it is never built: with B the
    other qubits, M[r, c] = flat[base[c] + off[r]] over the flat entries of
    ``m``, base[c] = (c & A) 2^n + (c & B) and off[r] = (r & B) 2^n + (r & A),
    one gather per block of rows.  The merge starts from the classes of
    equal ``keys`` (see ``_row_keys``), or from single rows when ``keys`` is
    None, and reads M only on the rows and columns of their first rows R:
    two rows of M are bit-equal exactly when they are on R, as M's columns
    repeat with its rows.  Of the K x K block, read _ROW_BLOCK rows at a
    time, rows with equal hashes join the class of the first such row, then
    each row is checked bit-equal to that representative; a row that differs
    (a hash collision) stays its own class.  A = M[R', R'] on the
    representatives R' left, D their class sizes.  The result is the
    spectrum of M less the exact zeros of the merged rows.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    dim, flat = len(m), m.ravel()
    index, side_b = np.arange(dim), (dim - 1) ^ side_a
    base = (index & side_a) * dim + (index & side_b)
    off = (index & side_b) * dim + (index & side_a)
    if keys is None:
        first, label = index, index
    else:  # classes numbered in the order of their first rows
        _, first, label = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        first, label = first[order], np.argsort(order)[label]
    k, bits_flat = len(first), flat.view(np.uint64)
    row_off, col_base = off[first], base[first]

    def bits(rows):  # M[first[rows], first] as uint64
        return np.take(bits_flat, row_off[rows, None] + col_base)
    classes = np.arange(k)
    hashes = np.concatenate([_row_hashes(bits(classes[a:a + _ROW_BLOCK]))
                             for a in range(0, k, _ROW_BLOCK)])
    _, head, inverse = np.unique(hashes, return_index=True, return_inverse=True)
    rep = head[inverse]
    joined = np.flatnonzero(rep != classes)
    for a in range(0, len(joined), _ROW_BLOCK):
        rows = joined[a:a + _ROW_BLOCK]
        firsts, back = np.unique(rep[rows], return_inverse=True)  # each read once
        rows = rows[(bits(firsts)[back] != bits(rows)).any(axis=1)]
        rep[rows] = rows
    reps = np.flatnonzero(rep == classes)
    merged = len(reps) < dim
    sizes = np.bincount(rep[label], minlength=k)[reps]
    a_mat = np.empty((len(reps), len(reps)))
    for a in range(0, len(reps), _ROW_BLOCK):
        rows = slice(a, a + _ROW_BLOCK)
        np.take(flat, row_off[reps[rows], None] + col_base[reps], out=a_mat[rows])
        if merged:  # one rounding: sqrt(d_i d_j)
            a_mat[rows] *= np.sqrt(sizes[rows, None] * sizes)
    return np.linalg.eigvalsh(a_mat)


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    With ``randomize`` before it, one value at n = 10-12 took up to 0.17 ns
    per 8^n on cuts whose rows do not merge (8-10 s for grid:3x4 at n = 12,
    one BLAS thread) and less on cuts whose rows do;
    ``_NEGATIVITY_SECONDS`` is the estimate the CLI charges per 8^n.
    """
    _check_cut(rho, cut)
    # rho^T_B = (rho^T_A)^T, that is rho^T_A again for a symmetric rho, and
    # both sides have the same row keys.  The side without qubit 0 is read for
    # a cut and its complement alike: a hand-built rho symmetric only to within
    # 1e-12 has two partial transposes that differ in their last bits
    side = cut.side_b if cut.side_a & 1 else cut.side_a
    evals = _merged_spectrum(rho.entries, side, _row_keys(rho, side))
    return float(np.abs(evals[evals < 0.0]).sum())


def _eigen_margin(k: int) -> float:
    """delta: how far a solved eigenvalue of a K x K pattern block can be off.

    Each entry of the block is a few roundings u = 2^-53 off (the power of
    q, sqrt(d_i d_j) and their product): at most 4u ||A||_F <= 4u in the
    2-norm, as A >= 0 has ||A||_F <= tr A = 1.  ``eigvalsh`` reduces the
    block to tridiagonal form by Householder reflections and solves that;
    its eigenvalues are exact for a matrix within a small multiple of
    K^2 u ||A||_F in norm (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 19), taken here as 8 K^2 u, though seen errors
    are nearer K u.  By Weyl's inequality no eigenvalue moves further than
    such a perturbation.  The floor 2^-n (1 - |q|)^|E| <= 1/2 is itself
    |E| + 2 <= 65 roundings off, at most 33u.  So delta = 8 K^2 u + 64 u
    bounds all three.  For K <= 2^12, every matrix ``randomize`` admits,
    K^2 u <= 2^-29: the second-order terms of these bounds change nothing,
    and delta <= 2^-26 + 2^-47.
    """
    return (8 * k * k + 64) * 2.0 ** -53


def numerical_rank(rho: DensityMatrix, tol: float = RANK_TOL) -> int:
    """Number of eigenvalues above ``tol`` relative to the largest one.

    For ``randomize(g, p)`` the count is certified with no eigensolve when it
    can be.  rho's nonzero spectrum is that of A = 2^-n D^1/2 Q_V D^1/2 on
    the K distinct patterns V, with D their class sizes and Q_V the block
    of (x)_e [[1, q], [q, 1]] on V.  The factors have eigenvalues 1 +- q,
    so by interlacing, and as D >= 1, lambda_min(A) >= floor = 2^-n (1 -
    |q|)^|E|, and lambda_max(A) <= tr rho = 1.  A solve moves each
    eigenvalue by at most delta (``_eigen_margin``).  When floor - delta >
    tol (1 + delta), A > 0, so no two pattern classes would merge and the
    solve would be of A itself, and every eigenvalue it returned would be
    above tol times the largest: the count is K, counted from the sorted
    patterns.  Otherwise (p at or near 0 or 1, ``subgraph_mixture``, a
    matrix built by hand) the spectrum is solved on the rows merged from
    the pattern classes.
    """
    _check_tol(tol)
    if rho.q is not None:
        k = subgraph_space_dimension(rho.graph)
        floor = (1.0 - abs(rho.q)) ** rho.graph.edge_count / (1 << rho.n)
        delta = _eigen_margin(k)
        if floor - delta > tol * (1.0 + delta):
            return k
    evals = _merged_spectrum(rho.entries, keys=_row_keys(rho))
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
    with csv_path.open("w") as out:  # one row at a time: no 4^n-entry text
        for row in rho.entries:
            out.write(",".join(f"{v:.12g}" for v in row) + "\n")
    json_path.write_text(json.dumps(
        {"n": rho.n, "p": p, "graph_spec": graph_spec}, separators=(",", ":")) + "\n")
    return csv_path, json_path
