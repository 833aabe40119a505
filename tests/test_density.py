import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from rgstates import (Bipartition, DensityMatrix, Graph, SizeLimitError,
                      export_density, generate, graph_state_vector, negativity,
                      numerical_rank, partial_transpose, randomize,
                      randomized_bell, subgraph_mixture,
                      subgraph_space_dimension)
from conftest import graphs
from oracles import brute_mixture, brute_subgraph_dimension, connected, random_graph

EDGE = Graph(2, ((0, 1),))


def projector(g):
    signs = graph_state_vector(g).signs.astype(float)
    return np.outer(signs, signs) / (1 << g.n)


def test_randomize_extremes():
    g = generate("path:3")
    assert np.allclose(randomize(g, 1.0).entries, projector(g), atol=1e-14)
    assert np.allclose(randomize(g, 0.0).entries, np.full((8, 8), 1 / 8), atol=1e-14)


def test_randomize_path3_is_four_term_mixture():
    g = generate("path:3")
    p = 0.3
    masks = {
        0b11: p * p,
        0b01: p * (1 - p),
        0b10: p * (1 - p),
        0b00: (1 - p) * (1 - p),
    }
    expected = np.zeros((8, 8))
    for mask, w in masks.items():
        kept = tuple(e for k, e in enumerate(g.edges) if (mask >> k) & 1)
        expected += w * projector(Graph(3, kept))
    assert np.allclose(randomize(g, p).entries, expected, atol=1e-14)


def test_randomize_weights_sum_to_one():
    for spec, p in (("complete:4", 0.3), ("cycle:5", 0.62), ("grid:2x3", 0.9)):
        e = generate(spec).edge_count
        total = sum(p ** m.bit_count() * (1 - p) ** (e - m.bit_count())
                    for m in range(1 << e))
        assert abs(total - 1.0) < 1e-12


def test_randomize_validation():
    with pytest.raises(ValueError):
        randomize(EDGE, 1.5)
    with pytest.raises(SizeLimitError):
        randomize(generate("empty:13"), 0.5)
    with pytest.raises(SizeLimitError):
        randomize(generate("complete:8"), 0.5)  # 28 edges


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_randomized_bell_matches_randomize(p):
    q = 1 - 2 * p
    expected = np.array([
        [1, 1, 1, q], [1, 1, 1, q], [1, 1, 1, q], [q, q, q, 1],
    ]) / 4
    assert np.allclose(randomized_bell(p).entries, expected, atol=1e-14)
    assert np.allclose(randomized_bell(p).entries, randomize(EDGE, p).entries,
                       atol=1e-14)


@settings(deadline=None, max_examples=30)
@given(graphs(max_n=4))
def test_randomize_is_valid_density_matrix(g):
    rho = randomize(g, 0.37)
    assert abs(np.trace(rho.entries) - 1) < 1e-12
    assert rho.smallest_eigenvalue() > -1e-10


def test_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.1], [0.2, 0.5]]))  # not symmetric
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition(2, 0)
    with pytest.raises(ValueError):
        Bipartition(2, 0b11)
    cut = Bipartition(3, 0b101)
    assert cut.side_b == 0b010


def test_partial_transpose_fixes_diagonal():
    rho = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]))
    cut = Bipartition(2, 0b01)
    assert np.array_equal(partial_transpose(rho, cut), rho.entries)


@settings(deadline=None, max_examples=25)
@given(graphs(max_n=4, min_n=2))
def test_partial_transpose_involution(g):
    rho = randomize(g, 0.6)
    cut = Bipartition(g.n, 0b01)
    once = partial_transpose(rho, cut)
    assert np.array_equal(
        partial_transpose(DensityMatrix(g.n, once), cut), rho.entries)


def test_partial_transpose_cut_mismatch():
    with pytest.raises(ValueError):
        partial_transpose(randomized_bell(0.5), Bipartition(3, 0b001))


def test_partial_transpose_matches_index_swap():
    # definitional check: <r|PT_A|c> = <(c&A)|(r&~A) | rho |(r&A)|(c&~A)>
    rng = np.random.default_rng(0)
    for n in (2, 3):
        dim = 1 << n
        m = rng.normal(size=(dim, dim))
        m = m + m.T
        rho = DensityMatrix(n, m / np.trace(m))
        for side_a in range(1, dim - 1):
            out = partial_transpose(rho, Bipartition(n, side_a))
            keep = (dim - 1) ^ side_a
            for r in range(dim):
                for c in range(dim):
                    assert out[r, c] == rho.entries[
                        (c & side_a) | (r & keep), (r & side_a) | (c & keep)]


def test_negativity_symmetric_under_side_swap():
    rho = randomize(generate("complete:4"), 0.7)
    for side_a in range(1, 15):
        a = negativity(rho, Bipartition(4, side_a))
        b = negativity(rho, Bipartition(4, side_a ^ 0b1111))
        assert a == pytest.approx(b, abs=1e-10)


def test_bell_partial_transpose_one_negative_eigenvalue():
    cut = Bipartition(2, 0b01)
    for p in [0.01] + [k / 10 for k in range(1, 10)] + [0.99]:
        evals = np.linalg.eigvalsh(partial_transpose(randomized_bell(p), cut))
        assert int(np.count_nonzero(evals < -1e-12)) == 1


def test_negativity_examples():
    cut = Bipartition(2, 0b01)
    assert negativity(randomized_bell(0.0), cut) == pytest.approx(0.0, abs=1e-12)
    assert negativity(randomized_bell(1.0), cut) == pytest.approx(0.5, abs=1e-10)
    value = negativity(randomize(generate("complete:3"), 0.5), Bipartition(3, 0b001))
    assert value > 0.0


def test_negativity_positive_for_connected_graphs():
    # every bipartition of a connected graph is crossed by an edge
    for n in (2, 3, 4):
        for edges in itertools.chain.from_iterable(
                itertools.combinations(tuple(itertools.combinations(range(n), 2)), k)
                for k in range(n - 1, n * (n - 1) // 2 + 1)):
            g = Graph(n, tuple(edges))
            if not connected(g):
                continue
            for p in (0.1, 0.5, 0.9):
                rho = randomize(g, p)
                for side_a in range(1, (1 << n) - 1):
                    assert negativity(rho, Bipartition(n, side_a)) > 0.0


def test_negativity_monotone_on_grid():
    for spec in ("complete:3", "complete:4", "star:3", "star:4"):
        g = generate(spec)
        for side_a in range(1, (1 << g.n) - 1):
            cut = Bipartition(g.n, side_a)
            values = [negativity(randomize(g, k / 10), cut) for k in range(1, 10)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_numerical_rank_examples():
    assert numerical_rank(randomize(generate("cycle:4"), 1.0)) == 1
    assert numerical_rank(randomize(generate("path:3"), 0.5)) == 4
    assert numerical_rank(randomize(generate("complete:3"), 0.5)) == 5
    with pytest.raises(ValueError):
        numerical_rank(randomized_bell(0.5), tol=0.0)


def test_subgraph_space_dimension_examples():
    assert subgraph_space_dimension(Graph(3, ())) == 1
    assert subgraph_space_dimension(generate("complete:3")) == 5
    assert subgraph_space_dimension(generate("complete:4")) == 12
    with pytest.raises(SizeLimitError):
        subgraph_space_dimension(generate("complete:7"))  # 21 edges


def test_rank_equals_dimension_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng, 5)
        dim = subgraph_space_dimension(g)
        for p in (0.3, 0.5, 0.7):
            assert numerical_rank(randomize(g, p)) == dim


def test_pattern_paths_match_dense_oracles_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(6):
        g = random_graph(rng, 5, min_n=4)
        e = g.edge_count
        dim = brute_subgraph_dimension(g)
        assert subgraph_space_dimension(g) == dim
        p = float(rng.uniform(0.05, 0.95))
        binomial = {m: p ** m.bit_count() * (1 - p) ** (e - m.bit_count())
                    for m in range(1 << e)}
        rho = randomize(g, p)
        assert np.allclose(rho.entries, brute_mixture(g, binomial), atol=1e-12, rtol=0)
        assert numerical_rank(rho) == dim
        kept = [m for m in range(1 << e) if rng.random() < 0.5] or [0]
        raw = rng.random(len(kept))
        weights = dict(zip(kept, (raw / raw.sum()).tolist()))
        assert np.allclose(subgraph_mixture(g, weights).entries,
                           brute_mixture(g, weights), atol=1e-12, rtol=0)


def test_edge_deleted_complete_rank_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        full = list(generate(f"complete:{n}").edges)
        m = int(rng.integers(1, len(full)))
        rng.shuffle(full)
        g = Graph(n, tuple(full[m:]))
        assert numerical_rank(randomize(g, 0.5)) <= (1 << n) - n - m


def test_star_rank_bound():
    from math import comb
    for n in (3, 4, 5):
        rank = numerical_rank(randomize(generate(f"star:{n}"), 0.5))
        assert rank <= (1 << n) - n - comb(n - 1, 2)


def test_export_density(tmp_path):
    rho = randomized_bell(0.5)
    csv_path, json_path = export_density(
        rho, tmp_path / "bell", p=0.5, graph_spec="bell")
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    loaded = np.array([[float(v) for v in row] for row in rows])
    assert np.allclose(loaded, rho.entries, atol=1e-10)
    import json
    header = json.loads(json_path.read_text())
    assert header == {"n": 2, "p": 0.5, "graph_spec": "bell"}
