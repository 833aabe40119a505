"""Graph-state sign vectors, exact overlaps, and the shared F2 kernels.

A graph state's computational-basis amplitudes are all +-2^(-n/2), with sign
(-1)^|u(x)|, where the excitation pattern u(x) is the set of edges with both
endpoints set in x.  The F2 kernels live here: the u(x) array, the walk that
gives the signs with the stabilizer cells, the exact signed sum over x by F2
variable elimination (so overlaps are exact dyadic rationals), and the
Walsh-Hadamard transform.  Two callers read the transform:
``density.subgraph_mixture`` takes the character table of its mixture weights
from it, and ``witness._spectrum_coefficients`` the amplitudes <G|G-R> of
every removed-edge set R at once, from the histogram of u(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GraphSpecError, SizeLimitError, check_table
from .graph import Graph, generate, symmetric_difference

_WORD_EDGES = 63  # u(x) is one nonnegative int64 word


@dataclass(frozen=True, eq=False)
class GraphStateVector:
    """Sign pattern of a graph state over the 2^n computational basis strings.

    Equality is identity and the hash is the object's, as for ``DensityMatrix``."""

    n: int
    signs: np.ndarray  # int8, entries in {+1, -1}, signs[0] == +1


def _check_word_edges(edges: int) -> None:
    if edges > _WORD_EDGES:
        raise SizeLimitError(f"u(x) holds at most |E|={_WORD_EDGES}, got {edges}")


def excitation_patterns(g: Graph) -> np.ndarray:
    """u(x) for every basis string x: bit k set when edge k has both endpoints in x.

    Edge k = (a, b), a < b, ORs bit k into the strided view of u where
    x_a = x_b = 1, so nothing beside u is held."""
    _check_word_edges(g.edge_count)
    check_table(f"excitation patterns of n={g.n}", 1 << g.n, 8)
    u = np.zeros(1 << g.n, dtype=np.int64)
    for k, (a, b) in enumerate(g.edges):  # axes: x above b, x_b, x between, x_a, x below a
        u.reshape(-1, 2, 1 << b - a - 1, 2, 1 << a)[:, 1, :, 1] |= 1 << k
    return u


def _subset_walk(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^(edges inside J) and the stabilizer cell of every subset J.

    The cell of J holds x_k = J_k at bit 2k and z_k = (Gamma J)_k, Gamma J the
    XOR of N(i) over i in J, at bit 2k + 1.  For J < 2^i, the cell of J + 2^i
    is that of J XOR that of the generator X_i Z_N(i), and the sign flips with
    z_i of J, the parity of the edges from i into J."""
    check_table(f"subset walk of n={g.n}", 1 << g.n, 8)
    signs, cells = np.ones(1 << g.n, dtype=np.int8), np.zeros(1 << g.n, dtype=np.int64)
    for i, neighbours in enumerate(g.adjacency):  # J + 2^i for the J < 2^i
        h = 1 << i
        # binary digits read in base 4 move bit j to bit 2j
        generator = 1 << 2 * i | 2 * int(f"{neighbours:b}", 4)
        np.bitwise_and(cells[:h], 2 << 2 * i, out=cells[h:2 * h])  # z_i of J, the flip
        signs[h:2 * h] = signs[:h]
        np.negative(signs[h:2 * h], out=signs[h:2 * h], where=cells[h:2 * h] != 0)
        np.bitwise_xor(cells[:h], generator, out=cells[h:2 * h])
    return signs, cells


def graph_state_vector(g: Graph) -> GraphStateVector:
    """Sign at basis string x = parity of the number of excited edges, |u(x)|."""
    return GraphStateVector(g.n, _subset_walk(g)[0])


_FACTOR_BITS = 5  # widest Sylvester factor of the transform; 6 and 7 timed no faster


@lru_cache(maxsize=None)
def _sylvester(bits: int) -> np.ndarray:
    """The 2^bits x 2^bits Sylvester-Hadamard matrix, (-1)^popcount(j & k), read-only."""
    k = np.arange(1 << bits)
    h = 1.0 - 2.0 * (np.bitwise_count(k[:, None] & k) & 1)
    h.flags.writeable = False
    return h


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform: z -> sum_m a[m] (-1)^|m & z|.

    ``a`` is a float64 vector of length 2^e.  Each pass is one matmul by a
    Sylvester factor of at most ``_FACTOR_BITS`` bits, the e bits split as
    evenly as the passes allow: it transforms the lowest bits of the index and
    writes them back as the highest, so after all passes every bit is back in
    place.  The passes alternate between ``a`` and one scratch vector.  On
    integer-valued input the result is exact while partial sums stay below
    2^53.
    """
    bits = len(a).bit_length() - 1
    if a.dtype != np.float64 or len(a) != 1 << bits:
        raise ValueError(f"expected a float64 vector of length 2^e, got {a.dtype} x {len(a)}")
    passes = -(-bits // _FACTOR_BITS)
    src, dst = a, np.empty_like(a)
    for k in range(passes):
        factor = (bits + k) // passes
        np.matmul(_sylvester(factor), src.reshape(-1, 1 << factor).T,
                  out=dst.reshape(1 << factor, -1))
        src, dst = dst, src
    if src is not a:
        a[...] = src
    return a


def signed_sum(adjacency) -> int:
    """Exact sum of (-1)^(excited-edge count) over all basis strings: 0 or +-2^k.

    Sums the F2 quadratic form out one or two variables at a time.  A vertex v
    without neighbours gives 2, or 0 when its linear term c_v is set.  Else,
    for a neighbour w, summing x_v forces x_w = c_v + sum(x_a, a in A), with
    A = N(v) - w.  Substituting this for x_w toggles the edges A x M, where
    M = N(w) - v, and the linear terms of A & M, of M if c_v and of A if c_w;
    it flips the sign when c_v = c_w = 1 and gives 2.
    """
    adj = list(adjacency)
    live = (1 << len(adj)) - 1
    linear, sign, power = 0, 1, 0
    while live:
        v = (live & -live).bit_length() - 1
        power += 1
        if not adj[v]:
            if (linear >> v) & 1:
                return 0
            live ^= 1 << v
            continue
        w = (adj[v] & -adj[v]).bit_length() - 1
        pair = (1 << v) | (1 << w)
        a_set, m_set = adj[v] & ~pair, adj[w] & ~pair
        rest = a_set | m_set  # the only vertices besides v, w whose edges change
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            toggle = (m_set if a_set & low else 0) ^ (a_set if m_set & low else 0)
            adj[u] = (adj[u] ^ toggle) & ~(pair | low)
        c_v, c_w = (linear >> v) & 1, (linear >> w) & 1
        linear ^= (a_set & m_set) ^ (m_set * c_v) ^ (a_set * c_w)
        sign *= 1 - 2 * (c_v & c_w)
        live &= ~pair
    return sign << power


def empty_overlap(g: Graph) -> float:
    """Amplitude of ``|g>`` on the uniform (empty-graph) state, 2^-n * sum of signs.

    Polynomial in n through ``signed_sum``, so there is no qubit cap; a value
    below 2^-1074 rounds to 0.0.
    """
    return signed_sum(g.adjacency) / (1 << g.n)


def overlap(g: Graph, f: Graph) -> float:
    """Scalar product <g|f>, reduced to the empty-graph overlap of g XOR f."""
    if g.n != f.n:
        raise ValueError(f"qubit counts differ: {g.n} != {f.n}")
    return empty_overlap(symmetric_difference(g, f))


def closed_form_overlap_sq(spec: str) -> float:
    """Squared empty-graph overlap for paths, cycles, and stars.

    path:n -> 1/2^(2*floor(n/2)); cycle:2k -> 1/2^(2k-2); odd cycles -> 0;
    star:n -> 1/4.
    """
    g = generate(spec)  # validates sizes
    family = spec.strip().split(":", 1)[0]
    n = g.n
    if family == "path":
        return 1.0 / (1 << (2 * (n // 2)))
    if family == "cycle":
        return 0.0 if n % 2 else 1.0 / (1 << (n - 2))
    if family == "star":
        if n < 2:
            raise GraphSpecError("star overlap closed form needs n >= 2")
        return 0.25
    raise GraphSpecError(f"no closed-form overlap for family {family!r}")
