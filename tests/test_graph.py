import itertools
import json
import time
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given

from rgstates import (Graph, GraphSpecError, SizeLimitError, approx_overlap_2level,
                      find_threshold, generate, gme_threshold, min_vertex_cover,
                      parse_graph, serialize_graph, symmetric_difference)
from rgstates import errors
from rgstates.graph import MAX_VERTICES, cluster_counts
from rgstates.witness import _cluster_coefficients
from conftest import graphs
from oracles import (CLUSTER_TYPE_EDGES, brute_class_counts, brute_lattice_edges,
                     brute_min_vertex_cover, brute_type_counts, random_graph,
                     subgraph_from_mask)


def class_counts(g):
    """(single edges, vertex-sharing edge pairs, disjoint edge pairs) from the cached counts."""
    return g.edge_count, g.star_counts[0], comb(g.edge_count, 2) - g.star_counts[0]


def test_generate_complete_3():
    g = generate("complete:3")
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_generate_star_4():
    g = generate("star:4")
    assert g.edges == ((0, 1), (0, 2), (0, 3))
    assert sorted(g.degrees, reverse=True) == [3, 1, 1, 1]


def test_generate_grid_2x3():
    # lattice edge count m(n-1) + n(m-1) = 2*2 + 3*1
    g = generate("grid:2x3")
    assert g.n == 6
    assert g.edge_count == 7


def test_generate_grid3():
    g = generate("grid3:2x2x2")
    assert g.n == 8
    assert g.edge_count == 12
    assert all(d == 3 for d in g.degrees)


def test_lattice_families_match_brute_force():
    cases = [(f"path:{n}", (n,), False) for n in range(1, 31)]
    cases += [(f"cycle:{n}", (n,), True) for n in range(3, 31)]
    cases += [(f"grid:{a}x{b}", (a, b), False)
              for a, b in itertools.product(range(1, 9), repeat=2)]
    cases += [(f"grid3:{a}x{b}x{c}", (a, b, c), False)
              for a, b, c in itertools.product(range(1, 6), repeat=3)]
    for spec, sizes, wrap in cases:
        g = generate(spec)
        assert g.n == prod(sizes), spec
        assert list(g.edges) == brute_lattice_edges(sizes, wrap), spec
        assert all(type(v) is int for e in g.edges for v in e), spec


BAD_SPEC_MESSAGES = {
    "complete": "cannot parse graph spec 'complete'",
    "unknown:4": "unknown graph family 'unknown'",
    "cycle:2": "size out of range in 'cycle:2'",
    "path:0": "size out of range in 'path:0'",
    "grid:3": "grid spec needs MxN, got 'grid:3'",
    "grid:2x0": "size out of range in 'grid:2x0'",
    "grid3:1x2": "grid3 spec needs IxJxK, got 'grid3:1x2'",
    "star:x": "non-integer size in 'star:x'",
    "": "cannot parse graph spec ''",
    "grid:2x3x4": "grid spec needs MxN, got 'grid:2x3x4'",
    "grid3:2x2": "grid3 spec needs IxJxK, got 'grid3:2x2'",
}


@pytest.mark.parametrize("bad", list(BAD_SPEC_MESSAGES))
def test_generate_rejects_bad_specs(bad):
    with pytest.raises(GraphSpecError) as excinfo:
        generate(bad)
    assert str(excinfo.value) == BAD_SPEC_MESSAGES[bad]


def test_graph_validation():
    with pytest.raises(GraphSpecError, match=r"^edge \(0, 2\) out of range for n=2$"):
        Graph(2, ((0, 2),))
    with pytest.raises(GraphSpecError, match="^self-loop at vertex 0$"):
        Graph(2, ((0, 0),))
    with pytest.raises(GraphSpecError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(2, ((0, 1), (1, 0)))
    # reversed, and not next to its twin in input order
    with pytest.raises(GraphSpecError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, ((0, 1), (1, 2), (1, 0)))
    with pytest.raises(GraphSpecError, match="^vertex count must be positive, got 0$"):
        Graph(0, ())


def test_level_2_threshold_builds_no_adjacency():
    g = generate("grid:50x50")
    assert gme_threshold(g, level=2) is not None
    assert "adjacency" not in vars(g)
    assert g.adjacency[0] == 0b10 | 1 << 50  # built on first read
    assert "adjacency" in vars(g)


def test_degree_pass_runs_once_per_graph(monkeypatch):
    passes = []
    degree_pass = Graph.degrees.func
    monkeypatch.setattr(Graph.degrees, "func", lambda g: passes.append(g) or degree_pass(g))
    g = generate("grid:12x12")
    p_f = find_threshold(lambda p: 0.5 - approx_overlap_2level(g, p))  # about 31 calls
    assert p_f is not None
    assert cluster_counts(g, 4)["K1,4"] == 10 * 10  # one per interior vertex
    assert _cluster_coefficients(g, 4)[0] == 1
    assert class_counts(g) == brute_class_counts(g)
    assert passes == [g]
    assert g.star_counts == tuple(sum(comb(d, k) for d in g.degrees) for k in (2, 3, 4))


@given(graphs())
def test_handshake(g):
    assert sum(g.degrees) == 2 * g.edge_count


def test_symmetric_difference_examples():
    p3 = generate("path:3")
    s3 = generate("star:3")
    assert symmetric_difference(p3, p3) == Graph(3, ())
    assert symmetric_difference(p3, Graph(3, ())) == p3
    assert symmetric_difference(p3, s3).edges == ((0, 2), (1, 2))


def test_symmetric_difference_size_mismatch():
    with pytest.raises(ValueError):
        symmetric_difference(generate("path:3"), generate("path:4"))


@given(graphs(), graphs())
def test_symmetric_difference_commutes(g, f):
    if g.n != f.n:
        f = Graph(g.n, tuple(e for e in f.edges if max(e) < g.n))
    assert symmetric_difference(g, f) == symmetric_difference(f, g)


@given(graphs(), graphs())
def test_symmetric_difference_cancels(g, f):
    if g.n != f.n:
        f = Graph(g.n, tuple(e for e in f.edges if max(e) < g.n))
    assert symmetric_difference(symmetric_difference(g, f), f) == g


@given(graphs(max_n=5), graphs(max_n=5), graphs(max_n=5))
def test_symmetric_difference_associates(g, f, h):
    f = Graph(g.n, tuple(e for e in f.edges if max(e) < g.n))
    h = Graph(g.n, tuple(e for e in h.edges if max(e) < g.n))
    assert symmetric_difference(symmetric_difference(g, f), h) == \
        symmetric_difference(g, symmetric_difference(f, h))


def test_subgraph_from_mask():
    s3 = generate("star:3")
    assert subgraph_from_mask(s3, 0b11) == s3
    assert subgraph_from_mask(s3, 0b00) == Graph(3, ())
    assert subgraph_from_mask(s3, 0b01).edges == ((0, 1),)


def test_edge_mask_bounds():
    s3 = generate("star:3")
    for bits in (-1, 0b100):
        with pytest.raises(ValueError):
            subgraph_from_mask(s3, bits)
    assert len(subgraph_from_mask(generate("path:4"), 0b101).edges) == 2


def test_class_counts_examples():
    assert class_counts(Graph(4, ())) == (0, 0, 0)
    assert class_counts(generate("star:4")) == (3, 3, 0)
    assert class_counts(generate("complete:4")) == (6, 12, 3)


@given(graphs(max_n=5))
def test_class_counts_against_enumeration(g):
    assert class_counts(g) == brute_class_counts(g)


def test_class_counts_exhaustive_up_to_5_vertices():
    for n in range(1, 6):
        all_edges = tuple(itertools.combinations(range(n), 2))
        for bits in range(1 << len(all_edges)):
            g = Graph(n, tuple(e for k, e in enumerate(all_edges) if (bits >> k) & 1))
            assert class_counts(g) == brute_class_counts(g)


def test_cluster_counts_match_enumeration():
    rng = np.random.default_rng(53)
    specs = ("grid:4x4", "grid3:2x2x3", "complete:7", "cycle:4", "star:6", "path:5", "empty:3")
    cases = [generate(spec) for spec in specs] + [random_graph(rng, 9) for _ in range(60)]
    for g in cases:
        brute = brute_type_counts(g)
        for max_edges in (2, 3, 4):
            assert cluster_counts(g, max_edges) == {
                name: brute.get(name, 0) for name, edges in CLUSTER_TYPE_EDGES.items()
                if len(edges) <= max_edges}, (g, max_edges)


def test_cluster_counts_examples():
    # each type holds itself once; complete:4 and the 100x100 grid counted by hand
    for name, edges in CLUSTER_TYPE_EDGES.items():
        g = Graph(1 + max(max(e) for e in edges), tuple(edges))
        assert cluster_counts(g, 4)[name] == brute_type_counts(g)[name] == 1, name
    assert cluster_counts(generate("complete:4"), 4) == {
        "K2": 6, "P3": 12, "P4": 12, "K1,3": 4, "K3": 4,
        "P5": 0, "chair": 0, "K1,4": 0, "C4": 3, "paw": 12}
    assert cluster_counts(generate("grid:100x100"), 4)["C4"] == 99 * 99


def test_min_vertex_cover_examples():
    assert min_vertex_cover(Graph(4, ())) == 0
    assert min_vertex_cover(generate("path:4")) == 2
    assert min_vertex_cover(generate("cycle:5")) == 3
    for spec, size in (("path:24", 12), ("cycle:23", 12), ("grid:4x6", 12),
                       ("grid3:2x3x4", 12), ("complete:24", 23), ("star:24", 1)):
        assert min_vertex_cover(generate(spec)) == size, spec
    with pytest.raises(SizeLimitError):
        min_vertex_cover(generate("empty:30"))


def test_min_vertex_cover_against_enumeration():
    for seed, max_n, count in ((7, 8, 25), (19, 12, 60)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g = random_graph(rng, max_n)
            assert min_vertex_cover(g) == brute_min_vertex_cover(g)


def test_min_vertex_cover_at_the_cap():
    # n - alpha, alpha the largest independent set: a clique of the complement
    import networkx as nx
    rng = np.random.default_rng(29)
    for density in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8):
        for _ in range(3):
            edges = [e for e in itertools.combinations(range(24), 2) if rng.random() < density]
            nxg = nx.empty_graph(24)
            nxg.add_edges_from(edges)
            alpha = len(nx.max_weight_clique(nx.complement(nxg), weight=None)[0])
            assert min_vertex_cover(Graph(24, tuple(edges))) == 24 - alpha, density


def test_min_vertex_cover_matching_duality():
    # weak duality: cover size >= maximum matching size
    import networkx as nx
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_graph(rng, 8)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        matching = nx.max_weight_matching(nxg, maxcardinality=True)
        assert min_vertex_cover(g) >= len(matching)


def test_parse_family_and_json():
    assert parse_graph("cycle:3") == generate("cycle:3")
    assert parse_graph('{"n":2,"edges":[[0,1]]}') == Graph(2, ((0, 1),))


def test_parse_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n":2,"edges":[[0,1]]}')
    assert parse_graph(f"file:{path}") == Graph(2, ((0, 1),))
    with pytest.raises(GraphSpecError):
        parse_graph(f"file:{tmp_path / 'missing.json'}")


@pytest.mark.parametrize("bad", [
    '{"n":2}', '{"n":2,"edges":[[1,0]]}', '{"n":2,"edges":[[0,2]]}',
    '{"n":2,"edges":[[0,1],[0,1]]}', '{"n":"2","edges":[]}', "{broken",
    # Python reads JSON booleans as ints; taken as 1/0 they broke the canonical round trip
    '{"n":3,"edges":[[false,true]]}', '{"n":3,"edges":[[0,true]]}', '{"n":true,"edges":[]}',
    '{"n":3,"edges":5}', '{"n":3,"edges":null}',
    pytest.param('{"n": ' + "[" * 100000, id="past-the-decoder-recursion-limit"),
])
def test_parse_rejects_bad_json(bad):
    with pytest.raises(GraphSpecError):
        parse_graph(bad)


def test_parse_rejects_undecodable_graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"n": 2, "edges": [[0, 1]]}\xff')
    with pytest.raises(GraphSpecError, match="invalid graph JSON in"):
        parse_graph(f"file:{path}")


def test_vertex_count_refused_before_adjacency():
    # adjacency ints would take about n^2/16 bytes: 2.5 GB at n = 200000
    with pytest.raises(SizeLimitError, match="n=200000 vertices needs about 2500000000 bytes"):
        generate("path:200000")
    with pytest.raises(SizeLimitError, match=f"the limit is n={MAX_VERTICES}"):
        Graph(MAX_VERTICES + 1, ())
    with pytest.raises(SizeLimitError):
        parse_graph('{"n":1000000000,"edges":[]}')


@pytest.mark.parametrize("spec", ["empty:7", "complete:9", "star:6", "path:1", "path:8",
                                  "cycle:3", "cycle:10", "grid:1x5", "grid:4x6",
                                  "grid3:2x3x4", "grid3:1x1x7"])
def test_edge_list_refused_from_the_family_formula(monkeypatch, spec):
    # with the budget at exactly the spec's edge list, one pair fewer refuses it
    edges = generate(spec).edge_count
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 16 * edges)
    assert generate(spec).edge_count == edges
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 16 * edges - 1)
    with pytest.raises(SizeLimitError, match=f"edge list of n=.* needs {edges} x 16"):
        generate(spec)


def test_complete_graph_past_the_budget_is_refused_before_listing():
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="needs 4999950000 x 16 = 79999200000 bytes"):
        generate("complete:100000")
    assert time.perf_counter() - start < 0.1


@given(graphs())
def test_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_schema():
    doc = json.loads(serialize_graph(generate("star:3")))
    assert doc == {"n": 3, "edges": [[0, 1], [0, 2]]}
