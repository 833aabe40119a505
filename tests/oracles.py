"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes from first principles (per-string edge counting,
dense Kronecker products, subset enumeration) and deliberately avoids the
package's excitation-pattern, F2-elimination, Walsh-Hadamard, symplectic,
and coefficient-grouping code paths.
"""

import itertools

import numpy as np

from rgstates import Graph

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def brute_empty_overlap(g):
    """2^-n sum of (-1)^(excited edges), one string at a time."""
    total = 0
    for x in range(1 << g.n):
        q = sum(1 for (i, j) in g.edges if (x >> i) & (x >> j) & 1)
        total += (-1) ** q
    return total / (1 << g.n)


def brute_randomization_overlap(g, p):
    """Sum over all spanning subgraphs of weight times squared overlap."""
    total = 0.0
    for mask in range(1 << g.edge_count):
        removed = [e for k, e in enumerate(g.edges) if not (mask >> k) & 1]
        kept = g.edge_count - len(removed)
        weight = p ** kept * (1 - p) ** len(removed)
        amp = brute_empty_overlap(Graph(g.n, tuple(removed)))
        total += weight * amp * amp
    return total


def brute_class_counts(g):
    """Classify all 1- and 2-edge subsets by whether they share a vertex."""
    m1 = g.edge_count
    m2_star = m2_disjoint = 0
    for e1, e2 in itertools.combinations(g.edges, 2):
        if set(e1) & set(e2):
            m2_star += 1
        else:
            m2_disjoint += 1
    return m1, m2_star, m2_disjoint


def brute_min_vertex_cover(g):
    """Smallest vertex subset touching every edge, by subset enumeration."""
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(i in chosen or j in chosen for (i, j) in g.edges):
                return size
    raise AssertionError("unreachable")


def local_op(op, qubit, n):
    """Dense operator acting as ``op`` on one qubit; bit q of the index is qubit q."""
    return np.kron(np.eye(1 << (n - 1 - qubit)), np.kron(op, np.eye(1 << qubit)))


def dense_graph_state(g):
    """|G> built by multiplying dense CZ matrices onto |+>^n."""
    dim = 1 << g.n
    vec = np.full(dim, 1.0 / np.sqrt(dim))
    for i, j in g.edges:
        cz = np.eye(dim) - 2.0 * local_op(P1, i, g.n) @ local_op(P1, j, g.n)
        vec = cz @ vec
    return vec


def _subgraph_states(g):
    """Dense |F_m> for every edge mask m of g, by the CZ construction."""
    for mask in range(1 << g.edge_count):
        kept = tuple(e for k, e in enumerate(g.edges) if (mask >> k) & 1)
        yield mask, dense_graph_state(Graph(g.n, kept))


def brute_subgraph_dimension(g):
    """Matrix rank of the stacked dense states of all 2^|E| spanning subgraphs."""
    return int(np.linalg.matrix_rank(np.array([v for _, v in _subgraph_states(g)])))


def brute_mixture(g, weights):
    """sum_m weights[m] |F_m><F_m| over edge masks m, from dense states."""
    rho = np.zeros((1 << g.n, 1 << g.n))
    for mask, vec in _subgraph_states(g):
        rho += weights.get(mask, 0.0) * np.outer(vec, vec)
    return rho


def dense_generator(g, i):
    """Stabilizer generator X_i Z_N(i) as a dense matrix."""
    m = local_op(X, i, g.n)
    for j in range(g.n):
        if (g.adjacency[i] >> j) & 1:
            m = m @ local_op(Z, j, g.n)
    return m


def pauli_decompose(matrix, n):
    """Match a dense matrix against +-(tensor product of I, X, Y, Z).

    Returns (letters, sign) with letters in "IXYZ".
    """
    singles = {"I": np.eye(2), "X": X, "Y": Y, "Z": Z}
    for letters in itertools.product("IXYZ", repeat=n):
        candidate = np.eye(1)
        for ch in reversed(letters):  # qubit 0 is the least significant bit
            candidate = np.kron(candidate, singles[ch])
        for sign in (1, -1):
            if np.allclose(matrix, sign * candidate, atol=1e-10):
                return "".join(letters), sign
    raise AssertionError("matrix is not a signed Pauli string")


def brute_lhv_bound(g):
    """Max |<B(G)>| over all 8^n deterministic local-value tables.

    Each stabilizer element is rebuilt as a dense product of generator
    matrices and decomposed into local Paulis before assigning values.
    """
    elements = []
    for j_mask in range(1 << g.n):
        m = np.eye(1 << g.n, dtype=complex)
        for i in range(g.n):
            if (j_mask >> i) & 1:
                m = m @ dense_generator(g, i)
        elements.append(pauli_decompose(m, g.n))
    axis = {"X": 0, "Y": 1, "Z": 2}
    best = 0.0
    for table in itertools.product((1, -1), repeat=3 * g.n):
        total = 0
        for letters, sign in elements:
            value = sign
            for k, ch in enumerate(letters):
                if ch != "I":
                    value *= table[3 * k + axis[ch]]
            total += value
        best = max(best, abs(total))
    return best / (1 << g.n)


def connected(g):
    if g.n == 1:
        return True
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in range(g.n):
            if (g.adjacency[v] >> w) & 1 and not (seen >> w) & 1:
                seen |= 1 << w
                frontier.append(w)
    return seen == (1 << g.n) - 1


def random_graph(rng, max_n, min_n=2):
    """Seeded random labeled graph with edge probability 1/2."""
    n = int(rng.integers(min_n, max_n + 1))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    return Graph(n, tuple(edges))
