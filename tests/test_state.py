from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from rgstates import (Graph, SizeLimitError, closed_form_overlap_sq,
                      empty_overlap, generate, graph_state_vector, overlap,
                      symmetric_difference)
from conftest import graphs
from oracles import brute_empty_overlap, dense_graph_state, random_graph


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
        graph_state_vector(generate("empty:21"))
    with pytest.raises(SizeLimitError):
        empty_overlap(generate("empty:21"))


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
