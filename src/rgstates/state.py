"""Graph-state sign vectors, exact overlaps, and the shared F2 kernels.

A graph state's computational-basis amplitudes are all +-2^(-n/2), with sign
(-1)^|u(x)|, where the excitation pattern u(x) is the set of edges with both
endpoints set in x.  The kernels every module builds on live here: the u(x)
array, the exact signed sum over x by F2 variable elimination (so overlaps
are exact dyadic rationals), and the Walsh-Hadamard transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphSpecError, SizeLimitError
from .graph import Graph, generate, symmetric_difference

MAX_STATE_QUBITS = 20
_WORD_EDGES = 63  # u(x) is one nonnegative int64 word


@dataclass(frozen=True)
class GraphStateVector:
    """Sign pattern of a graph state over the 2^n computational basis strings."""

    n: int
    signs: np.ndarray  # int8, entries in {+1, -1}, signs[0] == +1


def excitation_patterns(g: Graph) -> np.ndarray:
    """u(x) for every basis string x: bit k set when edge k has both endpoints in x."""
    if g.edge_count > _WORD_EDGES:
        raise SizeLimitError(f"u(x) holds at most |E|={_WORD_EDGES}, got {g.edge_count}")
    idx = np.arange(1 << g.n, dtype=np.int64)
    u = np.zeros(1 << g.n, dtype=np.int64)
    for k, (i, j) in enumerate(g.edges):
        u |= ((idx >> i) & (idx >> j) & 1) << k
    return u


def graph_state_vector(g: Graph) -> GraphStateVector:
    """Sign at basis string x = parity of the number of excited edges, |u(x)|."""
    if g.n > MAX_STATE_QUBITS:
        raise SizeLimitError(f"state vectors capped at n={MAX_STATE_QUBITS}, got {g.n}")
    parity = np.zeros(1 << g.n, dtype=np.int8)
    for start in range(0, g.edge_count, _WORD_EDGES):  # one int64 word of edges at a time
        block = Graph(g.n, g.edges[start:start + _WORD_EDGES])
        parity ^= np.bitwise_count(excitation_patterns(block)).astype(np.int8) & 1
    return GraphStateVector(g.n, 1 - 2 * parity)


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform: z -> sum_m a[m] (-1)^|m & z|."""
    size, h = len(a), 1
    while h < size:
        a = a.reshape(size // (2 * h), 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        h *= 2
    return a.reshape(size)


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
    """Amplitude of ``|g>`` on the uniform (empty-graph) state, 2^-n * sum of signs."""
    if g.n > MAX_STATE_QUBITS:
        raise SizeLimitError(f"overlap capped at n={MAX_STATE_QUBITS}, got {g.n}")
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
