"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes from first principles (per-string edge counting,
dense Kronecker products, subset enumeration) and deliberately avoids the
package's excitation-pattern, F2-elimination, Walsh-Hadamard, symplectic,
and contraction code paths.  There are two exceptions.  The per-subset
overlaps of ``brute_level_coefficients`` come from ``state.signed_sum``
(checked against per-string counting through ``empty_overlap`` in
test_state.py), because per-string counting over 2^|E| subsets is too slow
for |E| = 17.  ``full_lhv_bound`` reads the signs and base-4 Pauli cells of
``lhv._stabilizer_table`` (checked against dense generator products through
``brute_lhv_bound`` and ``brute_bell_expectation`` in test_lhv.py), because
evaluating the 8^n assignments one at a time in Python is too slow at n = 8.
"""

import itertools
import json
from collections import Counter

import numpy as np

from rgstates import Graph
from rgstates.lhv import _stabilizer_table
from rgstates.sampler import _SPLIT_SHOTS
from rgstates.state import signed_sum

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


def brute_excitation_patterns(g):
    """u(x) for every basis string x, one string and one edge at a time."""
    return [sum(1 << k for k, (i, j) in enumerate(g.edges) if (x >> i) & (x >> j) & 1)
            for x in range(1 << g.n)]


def brute_pair_overlap(g, p):
    """4^-n sum over all pairs (x, y) of (2p - 1)^popcount(u(x) XOR u(y)), one pair at a time."""
    u = brute_excitation_patterns(g)
    return sum((2 * p - 1) ** (a ^ b).bit_count() for a in u for b in u) / 4 ** g.n


def subgraph_from_mask(g, bits):
    """Spanning subgraph of ``g`` keeping the edges whose bits are set in ``bits``."""
    if not 0 <= bits < (1 << g.edge_count):
        raise ValueError(f"mask {bits:#x} does not fit {g.edge_count} edges")
    return Graph(g.n, tuple(e for k, e in enumerate(g.edges) if (bits >> k) & 1))


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


def _removed_overlap_sq(edges):
    """Squared empty-graph overlap of a bare edge set, compacted to its support."""
    if not edges:
        return 1.0
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, j in edges:
        a, b = index[i], index[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    amp = signed_sum(adj) / (1 << len(verts))
    return amp * amp


def brute_level_coefficients(g, level):
    """S_r for r = 0..level, summed over every removed-edge subset of size r."""
    return tuple(sum(_removed_overlap_sq(sub) for sub in itertools.combinations(g.edges, r))
                 for r in range(level + 1))


def sylvester_rows(size, rows):
    """Rows ``rows`` of the size x size Sylvester-Hadamard matrix, (-1)^popcount(z & m)."""
    rows = np.asarray(rows)
    return 1.0 - 2.0 * (np.bitwise_count(rows[:, None] & np.arange(size)) & 1)


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
        yield mask, dense_graph_state(subgraph_from_mask(g, mask))


def brute_subgraph_dimension(g):
    """Matrix rank of the stacked dense states of all 2^|E| spanning subgraphs."""
    return int(np.linalg.matrix_rank(np.array([v for _, v in _subgraph_states(g)])))


def path_dimension(n):
    """Distinct excitation patterns of path:n, by a recurrence over its edge strings.

    Edge k of the path joins vertices k and k + 1.  Excited edges k and
    k + 2 would set both ends of edge k + 1, so a pattern is an edge string
    in which every run of unexcited edges between two excited ones has
    length 0 or at least 2, and each such string has a preimage (zero the
    vertices inside each run).  The four states count the strings by their
    tail: no excited edge yet, an excited edge last, one unexcited edge
    after one, or at least two.
    """
    none, excited, one_gap, long_gap = 1, 0, 0, 0
    for _ in range(n - 1):
        none, excited, one_gap, long_gap = (
            none, none + excited + long_gap, excited, one_gap + long_gap)
    return none + excited + one_gap + long_gap


def brute_mixture(g, weights):
    """sum_m weights[m] |F_m><F_m| over edge masks m, from dense states."""
    rho = np.zeros((1 << g.n, 1 << g.n))
    for mask, vec in _subgraph_states(g):
        rho += weights.get(mask, 0.0) * np.outer(vec, vec)
    return rho


def index_swap_transpose(matrix, side_a):
    """Partial transpose by its definition: swap the side-A bits of row and column."""
    idx = np.arange(len(matrix))
    r, c = idx[:, None], idx[None, :]
    return matrix[(c & side_a) | (r & ~side_a), (r & side_a) | (c & ~side_a)]


def full_spectrum(matrix):
    """Every eigenvalue of a real symmetric matrix, from one dense ``eigvalsh``."""
    return np.linalg.eigvalsh(matrix)


def dense_generator(g, i):
    """Stabilizer generator X_i Z_N(i) as a dense matrix."""
    m = local_op(X, i, g.n)
    for j in range(g.n):
        if (g.adjacency[i] >> j) & 1:
            m = m @ local_op(Z, j, g.n)
    return m


def stabilizer_matrix(elem):
    """Dense matrix of a stabilizer element: its sign times the Kronecker
    product of I, X, Z or Y for the bits (x_k, z_k) of each qubit k."""
    paulis = {(0, 0): np.eye(2), (1, 0): X, (0, 1): Z, (1, 1): Y}
    m = np.full((1, 1), elem.sign, dtype=complex)
    for k in reversed(range(elem.n)):  # qubit 0 is the least significant bit
        m = np.kron(m, paulis[(elem.x_bits >> k) & 1, (elem.z_bits >> k) & 1])
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


def _decomposed_elements(g):
    """(letters, sign) of every stabilizer element, from dense generator products."""
    elements = []
    for j_mask in range(1 << g.n):
        m = np.eye(1 << g.n, dtype=complex)
        for i in range(g.n):
            if (j_mask >> i) & 1:
                m = m @ dense_generator(g, i)
        elements.append(pauli_decompose(m, g.n))
    return elements


def _assignment_total(elements, values):
    """sum_J sign_J * prod_k values[letter_k][k], with values["I"] = 1."""
    total = 0
    for letters, sign in elements:
        value = sign
        for k, ch in enumerate(letters):
            if ch != "I":
                value *= values[ch][k]
        total += value
    return total


def brute_bell_expectation(g, assignment):
    """<B(G)> under one local-value table, from decomposed dense elements."""
    values = {"X": assignment.a_x, "Y": assignment.a_y, "Z": assignment.a_z}
    return _assignment_total(_decomposed_elements(g), values) / (1 << g.n)


def brute_lhv_bound(g):
    """Max |<B(G)>| over all 8^n deterministic local-value tables.

    Each stabilizer element is rebuilt as a dense product of generator
    matrices and decomposed into local Paulis before assigning values.
    """
    elements = _decomposed_elements(g)
    best = 0
    for table in itertools.product((1, -1), repeat=3 * g.n):
        values = {"X": table[0::3], "Y": table[1::3], "Z": table[2::3]}
        best = max(best, abs(_assignment_total(elements, values)))
    return best / (1 << g.n)


def full_lhv_bound(g):
    """Max |<B(G)>| over all 8^n assignments, without the a_z = +1 gauge fixing.

    The package's stabilizer table is contracted qubit by qubit with all
    eight local sign choices, so the result checks only the gauge fixing.
    """
    signs, cells = _stabilizer_table(g)
    local = np.array([(1, a_x, a_z, a_y) for a_x in (1, -1)
                      for a_y in (1, -1) for a_z in (1, -1)], dtype=np.float32)
    values = np.zeros(4 ** g.n, dtype=np.float32)
    np.add.at(values, cells, signs)
    values = values.reshape((4,) * g.n)
    for _ in range(g.n):
        values = np.tensordot(values, local, axes=(0, 1))
    return float(max(values.max(), -values.min())) / (1 << g.n)


def dephased_density(g, p):
    """|+><+|^n with each edge's CZ applied with probability p, one edge at a time.

    The CZ of edge e multiplies entry (x, y) by s_e(x) s_e(y), with
    s_e(x) = (-1)^(x_i x_j), so each edge maps rho to
    p (s_e s_e^T) o rho + (1 - p) rho.
    """
    x = np.arange(1 << g.n)
    rho = np.full((1 << g.n, 1 << g.n), 1.0 / (1 << g.n))
    for i, j in g.edges:
        s = 1.0 - 2.0 * ((x >> i) & (x >> j) & 1)
        rho = p * np.outer(s, s) * rho + (1.0 - p) * rho
    return rho


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


def split_sample_counts(g, p, shots, seed):
    """Mask histogram split edge by edge over a list of (bits, count) prefixes.

    Three generators are spawned from ``SeedSequence(seed)``: 64-bit words,
    tie doubles and binomials.  At edge k, with r = |E| - k edges left, the
    list is read in order.  A prefix of c <= min(_SPLIT_SHOTS, 2^r) shots
    becomes c single shots; each reads the next ceil(r / 8) words and decides
    edge k + j on byte j of them, read little-endian: a byte below
    t = floor(256 p) keeps the edge, and a byte equal to t draws the next
    double and keeps it if the double is below 256 p - t.  A larger prefix
    draws a scalar binomial; if it splits, it keeps its dropped shots in
    place and its kept shots go to the end of the list.  Equal single shots
    are counted together.
    """
    words, ties, binomials = (np.random.Generator(np.random.PCG64(s))
                              for s in np.random.SeedSequence(seed).spawn(3))
    t = int(256 * p)
    frac = 256 * p - t
    counts = Counter()
    level = [(0, shots)]
    for k in range(g.edge_count):
        rest = g.edge_count - k
        kept_level, children = [], []
        for bits, c in level:
            if c <= min(_SPLIT_SHOTS, 1 << rest):
                for _ in range(c):
                    draws = b"".join(int(w).to_bytes(8, "little") for w in
                                     words.bit_generator.random_raw(-(-rest // 8)))
                    shot = bits
                    for j in range(rest):
                        if draws[j] < t or draws[j] == t and ties.random() < frac:
                            shot |= 1 << k + j
                    counts[shot] += 1
                continue
            kept = int(binomials.binomial(c, p))
            kept_level.append((bits | 1 << k, c) if kept == c else (bits, c - kept))
            if 0 < kept < c:
                children.append((bits | 1 << k, kept))
        level = kept_level + children
    counts.update(dict(level))
    return dict(sorted(counts.items()))


def dict_sample_json(counts, *, shots, seed, graph_spec, p):
    """Sample JSON as ``json.dumps`` writes it from a ``{hex(bits): count}`` dict."""
    return json.dumps({"graph_spec": graph_spec, "p": p, "shots": shots, "seed": seed,
                       "counts": {hex(bits): c for bits, c in counts.items()}},
                      separators=(",", ":"))


# (vertex count, sorted degrees) of a connected edge set -> its type, up to four edges
CLUSTER_TYPE_KEYS = {
    (2, (1, 1)): "K2", (3, (1, 1, 2)): "P3", (3, (2, 2, 2)): "K3",
    (4, (1, 1, 2, 2)): "P4", (4, (1, 1, 1, 3)): "K1,3", (4, (2, 2, 2, 2)): "C4",
    (4, (1, 2, 2, 3)): "paw", (5, (1, 1, 2, 2, 2)): "P5", (5, (1, 1, 1, 2, 3)): "chair",
    (5, (1, 1, 1, 1, 4)): "K1,4",
}

# one edge set of each type
CLUSTER_TYPE_EDGES = {
    "K2": [(0, 1)], "P3": [(0, 1), (1, 2)], "P4": [(0, 1), (1, 2), (2, 3)],
    "K1,3": [(0, 1), (0, 2), (0, 3)], "K3": [(0, 1), (1, 2), (0, 2)],
    "P5": [(0, 1), (1, 2), (2, 3), (3, 4)], "chair": [(0, 1), (0, 2), (0, 3), (3, 4)],
    "K1,4": [(0, 1), (0, 2), (0, 3), (0, 4)], "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "paw": [(0, 1), (1, 2), (0, 2), (2, 3)],
}


def brute_type_counts(g, max_edges=4):
    """Connected edge subsets of at most ``max_edges`` <= 4 edges, by type.

    Every subset is enumerated; a connected one is keyed by its vertex count
    and sorted degree sequence, which tells the ten types apart up to four
    edges.
    """
    counts = {}
    for size in range(1, max_edges + 1):
        for sub in itertools.combinations(g.edges, size):
            degree = {}
            for i, j in sub:
                degree[i] = degree.get(i, 0) + 1
                degree[j] = degree.get(j, 0) + 1
            verts = sorted(degree)
            index = {v: k for k, v in enumerate(verts)}
            part = Graph(len(verts), tuple((index[i], index[j]) for i, j in sub))
            if connected(part):
                name = CLUSTER_TYPE_KEYS[(len(verts), tuple(sorted(degree.values())))]
                counts[name] = counts.get(name, 0) + 1
    return counts


def brute_lattice_edges(sizes, wrap):
    """Sorted pairs of lattice coordinates at Manhattan distance 1.

    Vertices are numbered in ``itertools.product`` order (row-major).  With
    ``wrap`` each axis is a ring, so distance along it is the shorter way round.
    """
    coords = list(itertools.product(*(range(s) for s in sizes)))
    edges = []
    for a, b in itertools.combinations(range(len(coords)), 2):
        steps = [abs(x - y) for x, y in zip(coords[a], coords[b])]
        if wrap:
            steps = [min(d, s - d) for d, s in zip(steps, sizes)]
        if sum(steps) == 1:
            edges.append((a, b))
    return edges


def bitmask_contraction_plan(g, max_width=float("inf")):
    """Steps and widest frontier of ``witness._contraction_plan``, over n-bit ints.

    The planner's earlier form: ``rest``, ``border`` and ``closing`` are
    vertex bitmasks and the candidates are scanned lowest bit first, so it
    pins the greedy order (least frontier growth, fewest unintroduced
    neighbours, lowest index) independently of the neighbour-set code.
    """
    adj = g.adjacency
    rest = (1 << g.n) - 1
    remaining = [0] * g.n  # unintroduced neighbours of each frontier vertex
    closing = 0  # frontier vertices with one unintroduced neighbour left
    border = 0  # unintroduced neighbours of the frontier
    front, steps, width = [], [], 0
    while rest:
        best = None
        cands = border or rest
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            later = adj[v] & rest
            key = ((later != 0) - (adj[v] & closing).bit_count(), later.bit_count(), v)
            if best is None or key < best:
                best = key
        v = best[2]
        rest ^= 1 << v
        border = (border | adj[v]) & rest
        if not adj[v]:
            continue
        earlier = [u for u in front if adj[v] >> u & 1]
        remaining[v] = (adj[v] & rest).bit_count()
        for u in earlier:
            remaining[u] -= 1
        done = [u for u in earlier if not remaining[u]]
        replaced = done.pop(0) if done else None
        if replaced is not None:
            front.remove(replaced)
        front.append(v)
        width = max(width, len(front))
        if width > max_width:
            break
        if not remaining[v]:
            done.append(v)
        for u in earlier + [v]:
            if remaining[u] == 1:
                closing |= 1 << u
            else:
                closing &= ~(1 << u)
        front = [u for u in front if u not in done]
        steps.append((v, replaced, [u for u in earlier if u != replaced], done))
    return steps, width
