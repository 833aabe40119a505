from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from rgstates import (Graph, SizeLimitError, closed_form_overlap_sq,
                      empty_overlap, generate, graph_state_vector, overlap,
                      symmetric_difference)
from rgstates.state import _subset_walk, excitation_patterns, signed_sum, walsh_hadamard
from conftest import graphs
from oracles import (brute_empty_overlap, brute_excitation_patterns, dense_graph_state,
                     random_graph, sylvester_rows)


def test_empty_two_qubits_is_plus_plus():
    v = graph_state_vector(generate("empty:2"))
    assert np.array_equal(v.signs, [1, 1, 1, 1])


def test_single_edge_signs():
    v = graph_state_vector(Graph(2, ((0, 1),)))
    assert np.array_equal(v.signs, [1, 1, 1, -1])


def test_complete_3_signs():
    v = graph_state_vector(generate("complete:3"))
    negatives = {x for x in range(8) if v.signs[x] == -1}
    assert negatives == {0b011, 0b101, 0b110, 0b111}
    # complete:12 has 66 edges, more than one int64 word of excitation bits
    big = graph_state_vector(generate("complete:12"))
    assert all(big.signs[x] == (-1) ** comb(x.bit_count(), 2) for x in range(1 << 12))


def test_excitation_patterns_match_per_string_count():
    rng = np.random.default_rng(2111)
    checked = [random_graph(rng, 11, min_n=1) for _ in range(30)]
    checked.append(generate("complete:11"))  # 55 edges: bit 54 is the highest set
    for g in checked:
        u = excitation_patterns(g)
        assert u.dtype == np.int64
        assert u.tolist() == brute_excitation_patterns(g), g


def test_subset_walk_matches_brute_force():
    rng = np.random.default_rng(1806)
    for _ in range(40):
        g = random_graph(rng, 10, min_n=1)
        masks = [0] * g.n
        for i, j in g.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        signs, cells = _subset_walk(g)
        assert signs.dtype == np.int8 and cells.dtype == np.int64
        for subset in range(1 << g.n):
            gamma = 0
            for i in range(g.n):
                if subset >> i & 1:
                    gamma ^= masks[i]
            # x_k = bit k of the subset at bit 2k, z_k = bit k of gamma at bit 2k + 1
            cell = sum((subset >> k & 1) << 2 * k | (gamma >> k & 1) << 2 * k + 1
                       for k in range(g.n))
            inside = sum(subset >> i & subset >> j & 1 for i, j in g.edges)
            assert (cells[subset], signs[subset]) == (cell, (-1) ** inside), (g, subset)


@given(graphs(max_n=5))
def test_sign_vector_matches_dense_cz_construction(g):
    v = graph_state_vector(g)
    dense = dense_graph_state(g)
    assert np.allclose(dense, v.signs / np.sqrt(1 << g.n), atol=1e-12)


@given(graphs())
def test_first_sign_is_positive(g):
    assert graph_state_vector(g).signs[0] == 1


def test_state_size_cap():
    with pytest.raises(SizeLimitError):
        graph_state_vector(generate("empty:25"))
    # overlaps take the polynomial F2 elimination, so they have no qubit cap
    assert empty_overlap(generate("empty:25")) == 1.0
    assert empty_overlap(generate("grid:30x30")) == 2.0 ** -435
    assert empty_overlap(generate("cycle:1000")) ** 2 == closed_form_overlap_sq("cycle:1000")


def test_sign_sum_matches_f2_elimination_at_n21():
    for spec in ("grid:3x7", "cycle:21", "star:21"):
        g = generate(spec)
        assert int(graph_state_vector(g).signs.sum(dtype=np.int64)) == signed_sum(g.adjacency), spec


@given(graphs(max_n=6))
def test_empty_overlap_matches_brute_force(g):
    assert empty_overlap(g) == pytest.approx(brute_empty_overlap(g), abs=1e-14)


def test_empty_overlap_examples():
    assert empty_overlap(generate("empty:5")) == 1.0
    assert empty_overlap(generate("path:4")) ** 2 == pytest.approx(1 / 16, abs=1e-14)
    assert empty_overlap(generate("cycle:4")) ** 2 == pytest.approx(1 / 4, abs=1e-14)
    assert empty_overlap(generate("cycle:5")) == 0.0
    # signed values of complete:n; the first negative one is at n = 4
    for n in range(2, 17):
        signed = sum(comb(n, w) * (-1) ** comb(w, 2) for w in range(n + 1))
        assert empty_overlap(generate(f"complete:{n}")) == signed / (1 << n)


def test_overlap_examples():
    g = generate("cycle:4")
    assert overlap(g, g) == 1.0
    assert overlap(generate("empty:2"), Graph(2, ((0, 1),))) == pytest.approx(0.5)
    assert overlap(generate("empty:5"), generate("cycle:5")) == 0.0
    with pytest.raises(ValueError):
        overlap(generate("empty:2"), generate("empty:3"))


@settings(deadline=None)
@given(graphs(max_n=6), graphs(max_n=6))
def test_overlap_reduces_to_symmetric_difference(g, f):
    if g.n != f.n:
        f = Graph(g.n, tuple(e for e in f.edges if max(e) < g.n))
    direct = np.dot(graph_state_vector(g).signs.astype(float),
                    graph_state_vector(f).signs.astype(float)) / (1 << g.n)
    assert overlap(g, f) == pytest.approx(direct, abs=1e-14)
    assert overlap(g, f) == empty_overlap(symmetric_difference(g, f))
    assert abs(overlap(g, f)) <= 1.0


def test_random_pairs_overlap_identity():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = random_graph(rng, 8)
        f = Graph(g.n, tuple(
            e for e in generate(f"complete:{g.n}").edges if rng.random() < 0.4))
        assert overlap(g, f) == empty_overlap(symmetric_difference(g, f))


@pytest.mark.parametrize("spec,expected", [
    ("path:2", 1 / 4), ("path:7", 1 / 2 ** 6), ("path:8", 1 / 2 ** 8),
    ("cycle:4", 1 / 4), ("cycle:6", 1 / 2 ** 4), ("cycle:7", 0.0),
    ("star:2", 1 / 4), ("star:9", 1 / 4),
])
def test_closed_form_table(spec, expected):
    assert closed_form_overlap_sq(spec) == pytest.approx(expected, abs=1e-15)


def test_closed_form_rejects_other_families():
    with pytest.raises(ValueError):
        closed_form_overlap_sq("complete:4")


def test_closed_form_against_brute_force():
    for spec in ["path:5", "path:6", "cycle:5", "cycle:8", "star:6"]:
        g = generate(spec)
        assert empty_overlap(g) ** 2 == pytest.approx(
            closed_form_overlap_sq(spec), abs=1e-12)


def test_walsh_hadamard_is_the_dense_sylvester_product():
    # every row up to 2^12, in blocks of 256; 512 seeded rows and both ends at 2^13, 2^14
    rng = np.random.default_rng(1123)
    for bits in range(15):
        size = 1 << bits
        rows = (np.arange(size) if bits <= 12
                else np.unique(np.r_[0, size - 1, rng.integers(0, size, 512)]))
        ints = rng.integers(-1000, 1001, size).astype(np.float64)
        floats = rng.standard_normal(size)
        exact, close = walsh_hadamard(ints.copy()), walsh_hadamard(floats.copy())
        for block in np.array_split(rows, -(-len(rows) // 256)):
            dense = sylvester_rows(size, block)
            # integer sums below 2^53 are exact in any order
            assert np.array_equal(exact[block], dense @ ints), bits
            assert np.allclose(close[block], dense @ floats, rtol=1e-12, atol=1e-9), bits


def test_walsh_hadamard_squares_to_a_multiple_of_the_identity():
    for bits in range(9):
        size = 1 << bits
        h = np.stack([walsh_hadamard(column) for column in np.eye(size)])
        assert np.array_equal(h, h.T) and np.array_equal(h @ h, size * np.eye(size)), bits
    rng = np.random.default_rng(1129)
    for bits in (9, 13, 16, 20):
        x = rng.integers(-1000, 1001, 1 << bits).astype(np.float64)
        assert np.array_equal(walsh_hadamard(walsh_hadamard(x.copy())), x * (1 << bits)), bits


def test_walsh_hadamard_transforms_in_place():
    a = np.arange(1 << 11, dtype=np.float64)  # an odd number of passes ends in the scratch
    assert walsh_hadamard(a) is a and a[0] == (1 << 10) * ((1 << 11) - 1)
    with pytest.raises(ValueError, match="float64 vector of length 2\\^e, got float64 x 12"):
        walsh_hadamard(np.zeros(12))
    with pytest.raises(ValueError, match="got int64 x 2048"):
        walsh_hadamard(np.arange(1 << 11))
