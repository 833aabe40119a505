import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgstates import lhv
from rgstates import (Graph, LhvAssignment, SizeLimitError,
                      bell_expectation_lhv, bell_operator_matrix, generate,
                      apply_stabilizer, graph_state_vector, lhv_bound,
                      lhv_threshold, lhv_witness_value, randomize,
                      stabilizer_element)
from conftest import graphs
from oracles import (brute_bell_expectation, brute_lhv_bound, dense_generator,
                     full_lhv_bound, pauli_decompose, random_graph, stabilizer_matrix)

EDGE = Graph(2, ((0, 1),))

FAMILIES_N6 = ["star:2", "star:4", "star:6", "path:3", "path:5", "path:6",
               "cycle:3", "cycle:4", "cycle:6", "complete:3", "complete:5",
               "grid:2x3", "empty:4"]


def test_identity_element():
    e = stabilizer_element(generate("cycle:4"), 0)
    assert (e.x_bits, e.z_bits, e.sign) == (0, 0, 1)


def test_single_generator_is_x_z():
    e = stabilizer_element(EDGE, 0b01)
    assert (e.x_bits, e.z_bits, e.sign) == (0b01, 0b10, 1)
    letters, sign = pauli_decompose(stabilizer_matrix(e), 2)
    assert (letters, sign) == ("XZ", 1)


def test_complete3_two_generator_product():
    e = stabilizer_element(generate("complete:3"), 0b011)
    dense = dense_generator(generate("complete:3"), 0) @ \
        dense_generator(generate("complete:3"), 1)
    letters, sign = pauli_decompose(dense, 3)
    assert (letters, sign) == ("YYI", 1)
    assert np.allclose(stabilizer_matrix(e), dense, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=4), st.integers(0, 15))
def test_elements_match_dense_generator_products(g, j_mask):
    j_mask &= (1 << g.n) - 1
    dense = np.eye(1 << g.n, dtype=complex)
    for i in range(g.n):
        if (j_mask >> i) & 1:
            dense = dense @ dense_generator(g, i)
    elem = stabilizer_element(g, j_mask)
    assert elem.sign in (-1, 1)
    assert np.allclose(stabilizer_matrix(elem), dense, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(graphs(max_n=5))
def test_every_element_fixes_the_graph_state(g):
    vec = graph_state_vector(g).signs / np.sqrt(1 << g.n)
    for j_mask in range(1 << g.n):
        out = apply_stabilizer(stabilizer_element(g, j_mask), vec)
        assert np.allclose(out, vec, atol=1e-12)


def test_stabilizer_table_matches_elements():
    rng = np.random.default_rng(1304)
    graphs_checked = [random_graph(rng, 8, min_n=1) for _ in range(60)]
    # complete:12 has 66 edges, past the one-word excitation-pattern limit
    graphs_checked.append(generate("complete:12"))
    for g in graphs_checked:
        signs, cells = lhv._stabilizer_table(g)
        assert signs.dtype == np.int8 and cells.dtype == np.int64
        assert signs.shape == cells.shape == (1 << g.n,)
        for j_mask in range(1 << g.n):
            e = stabilizer_element(g, j_mask)
            cell = sum(((e.x_bits >> k & 1) + 2 * (e.z_bits >> k & 1)) * 4 ** k
                       for k in range(g.n))
            assert signs[j_mask] == e.sign, (g, j_mask)
            assert cells[j_mask] == cell, (g, j_mask)


@pytest.mark.parametrize("spec", FAMILIES_N6)
def test_bell_operator_equals_projector(spec):
    g = generate(spec)
    signs = graph_state_vector(g).signs.astype(float)
    projector = np.outer(signs, signs) / (1 << g.n)
    b = bell_operator_matrix(g)
    assert b.dtype == np.float64
    assert np.array_equal(b, projector)  # both sides are +-2^-n


@settings(deadline=None, max_examples=30)
@given(graphs(max_n=5))
def test_bell_operator_is_the_mean_of_the_elements(g):
    # independent of the projector form: every element is checked against
    # dense generator products above
    total = sum(stabilizer_matrix(stabilizer_element(g, j)) for j in range(1 << g.n))
    assert np.array_equal(bell_operator_matrix(g), total / (1 << g.n))


def test_bell_operator_single_qubit():
    b = bell_operator_matrix(generate("empty:1"))
    assert np.allclose(b, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-14)


def test_bell_operator_complete3_equals_pure_state():
    g = generate("complete:3")
    assert np.abs(bell_operator_matrix(g) - randomize(g, 1.0).entries).max() < 1e-12


def test_bell_operator_cap():
    with pytest.raises(SizeLimitError, match="Bell operator of n=13 needs"):
        bell_operator_matrix(generate("empty:13"))


def test_bell_operator_equals_pure_randomized_state_at_n11():
    g = generate("cycle:11")
    assert np.array_equal(bell_operator_matrix(g), randomize(g, 1.0).entries)


def test_lhv_bound_edgeless():
    assert lhv_bound(generate("empty:1")) == 1.0
    assert lhv_bound(generate("empty:3")) == 1.0


def test_lhv_bound_single_edge():
    d = lhv_bound(EDGE)
    assert 0.0 < d <= 1.0
    assert d == 1.0  # two-qubit stabilizer inequality is not violable


@pytest.mark.parametrize("spec", ["star:3", "path:3", "cycle:3", "star:4",
                                  "path:4", "cycle:4", "complete:4"])
def test_lhv_bound_matches_assignment_enumeration(spec):
    g = generate(spec)
    assert lhv_bound(g) == pytest.approx(brute_lhv_bound(g), abs=1e-12)


def test_gauge_fixed_bound_equals_full_search():
    rng = np.random.default_rng(2005)
    graphs_checked = [random_graph(rng, 7, min_n=1) for _ in range(200)]
    graphs_checked += [generate(f"{f}:8") for f in ("cycle", "path", "star", "complete")]
    graphs_checked.append(generate("grid:2x4"))
    for g in graphs_checked:
        assert lhv_bound(g) == full_lhv_bound(g), g


def test_lhv_bound_nine_qubits():
    # both values agree with the ungauged 8^9 search
    assert lhv_bound(generate("cycle:9")) == 0.328125
    assert lhv_bound(generate("star:9")) == 0.53125


def test_lhv_bound_cap():
    with pytest.raises(SizeLimitError):
        lhv_bound(generate("empty:13"))


def test_bell_expectation_lhv_reaches_bound():
    g = generate("star:3")
    best = 0.0
    for bits in itertools.product((1, -1), repeat=9):
        assign = LhvAssignment(bits[0:3], bits[3:6], bits[6:9])
        best = max(best, abs(bell_expectation_lhv(g, assign)))
    assert best == pytest.approx(lhv_bound(g), abs=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_bell_expectation_lhv_matches_dense_elements(data):
    # qubits are multiplied in by pairs: an odd n ends on a qubit paired with ones
    for n in (data.draw(st.sampled_from((1, 3))), data.draw(st.sampled_from((2, 4)))):
        g = data.draw(graphs(min_n=n, max_n=n))
        pm = st.tuples(*[st.sampled_from((1, -1))] * n)
        assign = LhvAssignment(data.draw(pm), data.draw(pm), data.draw(pm))
        assert bell_expectation_lhv(g, assign) == brute_bell_expectation(g, assign)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_blocked_table_and_bell_sum_match_one_block(monkeypatch, block):
    # n <= 9 fits one default block; smaller blocks must give the same values
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(12):
        g = random_graph(rng, 9, min_n=1)
        pm = [tuple(int(v) for v in rng.choice((1, -1), g.n)) for _ in range(3)]
        cases.append((g, LhvAssignment(*pm)))
    whole = [(lhv._stabilizer_table(g), bell_expectation_lhv(g, a)) for g, a in cases]
    monkeypatch.setattr(lhv, "_BLOCK", block)
    for (g, a), ((signs, cells), value) in zip(cases, whole):
        blocked_signs, blocked_cells = lhv._stabilizer_table(g)
        assert np.array_equal(blocked_signs, signs) and blocked_signs.dtype == np.int8
        assert np.array_equal(blocked_cells, cells)
        assert bell_expectation_lhv(g, a) == value


def test_bell_expectation_lhv_refused_past_the_state_cap():
    # the table reads the graph-state signs, so the walk's table check refuses first
    g, assign = generate("empty:25"), LhvAssignment((1,) * 25, (1,) * 25, (1,) * 25)
    with pytest.raises(SizeLimitError, match="subset walk of n=25 needs"):
        bell_expectation_lhv(g, assign)


def test_assignment_validation():
    with pytest.raises(ValueError):
        LhvAssignment((1, 2), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        bell_expectation_lhv(generate("star:3"), LhvAssignment((1,), (1,), (1,)))


def test_lhv_witness_values():
    g = generate("star:4")
    d = lhv_bound(g)
    assert d < 1.0
    ev = lhv_witness_value(g, 1.0, "exact", d)
    assert ev.witness_value == pytest.approx(d - 1.0, abs=1e-12)
    assert ev.witness_value < 0.0
    assert ev.constant_term == d
    with pytest.raises(ValueError):
        lhv_witness_value(g, 0.5, 2, 1.5)


def test_lhv_witness_cycle6_detects_nonlocality():
    g = generate("cycle:6")
    ev = lhv_witness_value(g, 0.84, 2, lhv_bound(g))
    assert ev.witness_value < 0.0


def test_lhv_threshold_star3():
    t = lhv_threshold(generate("star:3"))
    assert t is not None and 0.5 < t < 1.0


def test_lhv_threshold_without_violation():
    assert lhv_threshold(EDGE, d=1.0) is None


def test_lhv_threshold_checks_tol_before_the_bound(monkeypatch):
    def search(g):
        raise AssertionError("the classical bound was searched")
    monkeypatch.setattr(lhv, "lhv_bound", search)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            lhv_threshold(generate("cycle:8"), tol=tol)


def test_lhv_bounds_equal_across_small_families():
    # holds for n <= 5; at n = 3 the path and the star are the same graph
    for n in (3, 4, 5):
        values = {lhv_bound(generate(f"{f}:{n}")) for f in ("cycle", "path", "star")}
        assert len(values) == 1


def test_lhv_bound_ordering_above_five_qubits():
    for n in (6, 7):
        d_star = lhv_bound(generate(f"star:{n}"))
        d_path = lhv_bound(generate(f"path:{n}"))
        d_cycle = lhv_bound(generate(f"cycle:{n}"))
        assert d_star > d_path > d_cycle


@pytest.mark.parametrize("n", [4, 5])
def test_lhv_family_ordering(n):
    graphs_by_family = {f: generate(f"{f}:{n}") for f in ("cycle", "path", "star")}
    bounds = {f: lhv_bound(g) for f, g in graphs_by_family.items()}
    assert bounds["cycle"] == bounds["path"] == bounds["star"]
    thresholds = {f: lhv_threshold(g, level=2, d=bounds[f])
                  for f, g in graphs_by_family.items()}
    assert thresholds["cycle"] > thresholds["path"] > thresholds["star"]
