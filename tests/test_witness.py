import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from rgstates import (Graph, SizeLimitError, approx_overlap,
                      approx_overlap_2level, find_threshold, generate,
                      gme_threshold, gme_witness_value, graph_state_vector, lhv_threshold,
                      overlap_linear_closed, overlap_star_closed, randomize,
                      randomization_overlap, witness)
from rgstates.state import signed_sum
from rgstates.witness import (MAX_CLUSTER_LEVEL, _CLUSTER_WEIGHTS, _WEIGHT_DENOMINATOR,
                              _cluster_coefficients, _contraction_coefficients,
                              _contraction_plan, _level_coefficients, _spectrum_coefficients)
from conftest import graphs
from oracles import (CLUSTER_TYPE_EDGES, bitmask_contraction_plan, brute_level_coefficients,
                     brute_pair_overlap, brute_randomization_overlap, random_graph)

P_GRID = [k / 10 for k in range(11)]


def linear_recursion(n, p):
    """Even/odd tail recursion with basis f_even(2) = p, f_odd(2) = (1-p)/4."""
    f_even, f_odd = p, (1 - p) / 4
    for _ in range(n - 2):
        f_even, f_odd = f_odd + p * f_even, (1 - p) / 4 * f_even
    return f_even + f_odd


def test_randomization_overlap_extremes():
    g = generate("cycle:5")
    assert randomization_overlap(g, 1.0) == pytest.approx(1.0, abs=1e-14)
    from rgstates import empty_overlap
    assert randomization_overlap(g, 0.0) == pytest.approx(
        empty_overlap(g) ** 2, abs=1e-14)


@settings(deadline=None, max_examples=25)
@given(graphs(max_n=4))
def test_randomization_overlap_matches_brute_force(g):
    for p in (0.2, 0.7):
        assert randomization_overlap(g, p) == pytest.approx(
            brute_randomization_overlap(g, p), abs=1e-12)


def test_randomization_overlap_matches_density_trace():
    # independent route: Tr[|G><G| rho] with dense matrices
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_graph(rng, 4)
        p = float(rng.random())
        signs = graph_state_vector(g).signs.astype(float)
        proj = np.outer(signs, signs) / (1 << g.n)
        trace = float(np.trace(proj @ randomize(g, p).entries))
        assert randomization_overlap(g, p) == pytest.approx(trace, abs=1e-12)


def test_randomization_overlap_validation():
    with pytest.raises(ValueError):
        randomization_overlap(generate("path:3"), 1.2)
    with pytest.raises(SizeLimitError):
        # planning stops at width 9: 4^9 x 66 float64 entries, over the table budget
        randomization_overlap(generate("complete:12"), 0.5)


def test_contraction_admission_bounds_range_and_work():
    g = generate("path:4000")
    with pytest.raises(SizeLimitError, match="overflow float64"):
        randomization_overlap(g, 0.9)
    # a shallow truncation of the same graph stays in range and is cheap
    assert approx_overlap(g, 0.999, 2) == pytest.approx(
        approx_overlap_2level(g, 0.999), rel=1e-12)
    with pytest.raises(SizeLimitError, match="overlap contraction at frontier width 8 is"
                                             " estimated at 23.8 s; the limit is 20 s"):
        randomization_overlap(generate("grid:8x10"), 0.9)


def test_level_coefficients_match_subset_sum():
    # both sides are exact dyadic sums on these sizes, so they agree bit for bit
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 40:
        g = random_graph(rng, 9)
        if g.edge_count > 16:
            continue
        level = int(rng.integers(0, g.edge_count + 1))
        assert _level_coefficients(g, level) == brute_level_coefficients(g, level), (g, level)
        checked += 1
    g = generate("grid:3x4")
    assert g.edge_count == 17
    assert _level_coefficients(g, 17) == brute_level_coefficients(g, 17)


def exact_log_weight(edges, order=4):
    """W(U) = sum over U' in U of (-1)^|U - U'| log Z_U'(t), exact to t^order.

    Z_U'(t) = sum_(R in U') t^|R| (signed_sum(R) / 2^|V(R)|)^2, and log is
    the series of log(1 + u) in u = Z - 1.
    """
    def squared_overlap(removed):
        verts = sorted({v for e in removed for v in e})
        adj = [0] * len(verts)
        for i, j in removed:
            a, b = verts.index(i), verts.index(j)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return Fraction(signed_sum(adj), 1 << len(verts)) ** 2

    def log_z(sub):
        u = [Fraction(0)] * (order + 1)
        for r in range(1, min(len(sub), order) + 1):
            u[r] = sum(squared_overlap(removed) for removed in itertools.combinations(sub, r))
        logs, power = [Fraction(0)] * (order + 1), [Fraction(1)] + [Fraction(0)] * order
        for k in range(1, order + 1):
            power = [sum(power[i] * u[r - i] for i in range(r + 1)) for r in range(order + 1)]
            logs = [c + Fraction((-1) ** (k + 1), k) * q for c, q in zip(logs, power)]
        return logs

    weight = [Fraction(0)] * (order + 1)
    for size in range(len(edges) + 1):
        for sub in itertools.combinations(edges, size):
            sign = (-1) ** (len(edges) - size)
            weight = [w + sign * c for w, c in zip(weight, log_z(sub))]
    return weight


def test_cluster_weights_match_their_definition():
    assert set(_CLUSTER_WEIGHTS) == set(CLUSTER_TYPE_EDGES)
    for name, edges in CLUSTER_TYPE_EDGES.items():
        weight = exact_log_weight(edges)
        assert weight[0] == 0
        assert weight[1:] == [Fraction(c, _WEIGHT_DENOMINATOR)
                              for c in _CLUSTER_WEIGHTS[name]], name
        assert all(c == 0 for c in weight[:len(edges)]), name  # W_T = O(t^|T|)
    # a disconnected edge set has no weight: f is multiplicative over its parts
    assert exact_log_weight([(0, 1), (2, 3)]) == [0] * 5
    assert exact_log_weight([(0, 1), (1, 2), (3, 4)]) == [0] * 5


def test_cluster_coefficients_match_subset_sum():
    rng = np.random.default_rng(59)
    for _ in range(60):
        g = random_graph(rng, 10)
        for level in range(5):
            assert _cluster_coefficients(g, level) == brute_level_coefficients(g, level), (g, level)


def test_contraction_matches_subset_sum_at_low_levels():
    # the cluster counts take levels <= 4, so the contraction is checked here directly
    rng = np.random.default_rng(61)
    for _ in range(30):
        g = random_graph(rng, 9)
        for level in range(5):
            assert _contraction_coefficients(g, level) == brute_level_coefficients(g, level), (
                g, level)


def spectrum_cases(rng, count):
    """Seeded random graphs inside the spectrum route: n <= 14 and 5 <= |E| <= 14."""
    cases = []
    while len(cases) < count:
        n = int(rng.integers(4, 15))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = rng.choice(len(pairs), int(rng.integers(5, min(14, len(pairs)) + 1)),
                            replace=False)
        cases.append(Graph(n, tuple(pairs[k] for k in sorted(chosen))))
    return cases


SPECTRUM_SPECS = ["star:6", "star:9", "path:10", "path:12", "cycle:10", "cycle:12", "grid:3x3",
                  "grid:2x5", "path:14", "star:14", "cycle:14", "complete:5", "grid3:2x2x2"]


def test_spectrum_matches_subset_sum_and_contraction():
    # 2^n <G|G-R> is an integer, so all three are exact and agree bit for bit;
    # the subset sum, 2^|E| signed sums at the full level, stops at level 5
    rng = np.random.default_rng(71)
    for g in spectrum_cases(rng, 300):
        level = int(rng.integers(5, g.edge_count + 1))
        coeffs = _spectrum_coefficients(g, level)
        assert coeffs == _contraction_coefficients(g, level), (g, level)
        assert coeffs[:6] == brute_level_coefficients(g, 5), (g, level)
    for g in map(generate, SPECTRUM_SPECS):
        assert _spectrum_coefficients(g, g.edge_count) == _contraction_coefficients(
            g, g.edge_count), g


def test_level_coefficients_route(monkeypatch):
    def refused(name):
        def route(g, level):
            raise AssertionError(f"{name} route taken for {g} at level {level}")
        return route
    build = _level_coefficients.__wrapped__  # past the cache
    small = [*map(generate, SPECTRUM_SPECS), *spectrum_cases(np.random.default_rng(73), 40)]
    monkeypatch.setattr(witness, "_contraction_coefficients", refused("contraction"))
    for g in small:
        for level in range(g.edge_count + 1):
            build(g, level)
    monkeypatch.setattr(witness, "_spectrum_coefficients", refused("spectrum"))
    for g in small:  # levels <= 4 take the cluster counts
        for level in range(MAX_CLUSTER_LEVEL + 1):
            build(g, level)
    monkeypatch.undo()
    monkeypatch.setattr(witness, "_spectrum_coefficients", refused("spectrum"))
    # just past the bounds: n = 15 or |E| = 15
    for spec in ("path:15", "star:15", "cycle:15", "complete:6", "grid:2x6", "grid3:2x2x3"):
        g = generate(spec)
        assert build(g, g.edge_count) == _contraction_coefficients(g, g.edge_count), spec
    g = generate("path:1000")
    for level in (5, 999):
        build(g, level)


@pytest.mark.parametrize("block", [1, 4, 37])
def test_contraction_block_size_is_invisible(monkeypatch, block):
    # each shift step reads poly[r-1] before overwriting it, whatever the blocks
    rng = np.random.default_rng(67)
    cases = [random_graph(rng, 8) for _ in range(30)]
    cases += [generate(spec) for spec in ("path:300", "cycle:40", "grid:4x4", "complete:7")]
    expected = [_contraction_coefficients(g, g.edge_count) for g in cases]
    monkeypatch.setattr(witness, "_BLOCK", block)
    for g, coeffs in zip(cases, expected):
        assert _contraction_coefficients(g, g.edge_count) == coeffs, g


def test_exact_overlap_of_a_long_path_matches_its_closed_form():
    # 399 coefficients of width 1 go through each shift step as one block
    g = generate("path:400")
    for p in (0.3, 0.9, 0.999):
        assert randomization_overlap(g, p) == pytest.approx(
            overlap_linear_closed(400, p), rel=1e-12)


@pytest.mark.parametrize("spec, level", [("grid:8x8", 3), ("grid3:3x3x3", 4), ("complete:8", 4)])
def test_cluster_coefficients_match_contraction(spec, level):
    g = generate(spec)
    assert _cluster_coefficients(g, level) == _contraction_coefficients(g, level)


def test_cluster_admission_bounds_work():
    # sum_v d_v^2 = 19999^2 + 19999 two-step path ends at level 4
    with pytest.raises(SizeLimitError, match="level-4 cluster count of n=20000 is estimated"
                                             " at 60.3 s; the limit is 20 s"):
        approx_overlap(generate("star:20000"), 0.9, 4)
    # level 3 needs only the sum_v d_v edge ends
    assert approx_overlap(generate("star:20000"), 0.999, 3) > 0.0
    assert approx_overlap(generate("complete:400"), 0.999, 3) > 0.0


CONTRACTION_WIDTHS = [
    ("path:12", 1), ("star:9", 2), ("cycle:15", 2), ("grid:2x6", 2),
    ("grid:3x4", 3), ("grid:5x5", 5), ("grid:6x6", 6), ("complete:6", 5),
    ("grid3:3x3x3", 8), ("empty:4", 0),
]


@pytest.mark.parametrize("spec, width", CONTRACTION_WIDTHS)
def test_contraction_widths(spec, width):
    assert _contraction_plan(generate(spec))[1] == width


def test_contraction_plan_matches_bitmask_planner():
    # the same greedy steps, tie-breaks and early stop as the n-bit int planner
    rng = np.random.default_rng(43)
    cases = [generate(spec) for spec, _ in CONTRACTION_WIDTHS]
    for _ in range(300):
        n, density = int(rng.integers(1, 17)), rng.random()
        cases.append(Graph(n, tuple(e for e in itertools.combinations(range(n), 2)
                                    if rng.random() < density)))
    for g in cases:
        for max_width in (float("inf"), 1, 2, 3, 4, 5):
            assert _contraction_plan(g, max_width) == bitmask_contraction_plan(g, max_width)


@pytest.mark.parametrize("n", range(2, 9))
def test_star_closed_form(n):
    g = generate(f"star:{n}")
    for p in P_GRID:
        assert overlap_star_closed(n, p) == pytest.approx(
            0.25 + 0.75 * p ** (n - 1), abs=1e-15)
        assert randomization_overlap(g, p) == pytest.approx(
            overlap_star_closed(n, p), abs=1e-12)


def test_star_closed_form_values():
    assert overlap_star_closed(3, 1.0) == 1.0
    assert overlap_star_closed(5, 0.0) == 0.25
    assert overlap_star_closed(3, 0.5) == 0.4375
    with pytest.raises(ValueError):
        overlap_star_closed(1, 0.5)


@pytest.mark.parametrize("n", range(2, 9))
def test_linear_closed_form(n):
    g = generate(f"path:{n}")
    for p in P_GRID:
        closed = overlap_linear_closed(n, p)
        assert closed == pytest.approx(linear_recursion(n, p), abs=1e-12)
        assert closed == pytest.approx(randomization_overlap(g, p), abs=1e-12)


def test_linear_closed_form_values():
    assert overlap_linear_closed(4, 1.0) == pytest.approx(1.0, abs=1e-14)
    for p in P_GRID:
        assert overlap_linear_closed(2, p) == pytest.approx(
            p + (1 - p) / 4, abs=1e-14)
    assert overlap_linear_closed(6, 0.7) == pytest.approx(
        randomization_overlap(generate("path:6"), 0.7), abs=1e-12)


def test_gme_witness_values():
    ev = gme_witness_value(generate("star:4"), 0.8)
    assert ev.constant_term == 0.5
    assert ev.witness_value == pytest.approx(0.25 - 0.75 * 0.8 ** 3, abs=1e-12)
    assert ev.witness_value == ev.constant_term - ev.overlap_value
    assert gme_witness_value(generate("cycle:5"), 1.0).witness_value == \
        pytest.approx(-0.5, abs=1e-14)
    assert gme_witness_value(generate("path:4"), 0.9).witness_value < 0.0


def test_approx_overlap_full_level_equals_exact():
    g = generate("cycle:5")
    for p in (0.3, 0.8):
        assert approx_overlap(g, p, g.edge_count) == randomization_overlap(g, p)


def test_approx_overlap_at_p_one():
    g = generate("grid:2x3")
    for level in range(g.edge_count + 1):
        assert approx_overlap(g, 1.0, level) == pytest.approx(1.0, abs=1e-14)


def test_approx_overlap_level_bounds():
    g = generate("path:3")
    with pytest.raises(ValueError):
        approx_overlap(g, 0.5, -1)
    with pytest.raises(ValueError):
        approx_overlap(g, 0.5, 3)


def test_approx_levels_increase_toward_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(rng, 5)
        exact = {p: randomization_overlap(g, p) for p in P_GRID}
        previous = None
        for level in range(g.edge_count + 1):
            current = [approx_overlap(g, p, level) for p in P_GRID]
            for p, val in zip(P_GRID, current):
                assert val <= exact[p] + 1e-12
            if previous is not None:
                assert all(b >= a - 1e-12 for a, b in zip(previous, current))
            previous = current


def test_2level_closed_form_complete_4():
    g = generate("complete:4")
    for p in P_GRID:
        expected = (p ** 6 + (6 / 4) * (1 - p) * p ** 5
                    + (1 - p) ** 2 * p ** 4 * (12 / 4 + 3 / 16))
        assert approx_overlap_2level(g, p) == pytest.approx(expected, abs=1e-12)
        assert approx_overlap(g, p, 2) == pytest.approx(expected, abs=1e-12)


def test_2level_closed_form_matches_enumeration():
    assert approx_overlap(generate("cycle:5"), 0.8, 2) == pytest.approx(
        approx_overlap_2level(generate("cycle:5"), 0.8), abs=1e-12)
    rng = np.random.default_rng(31)
    done = 0
    while done < 20:
        g = random_graph(rng, 5)
        if g.edge_count > 10:
            continue
        done += 1
        for p in (0.1, 0.5, 0.9):
            assert approx_overlap_2level(g, p) == pytest.approx(
                approx_overlap(g, p, min(2, g.edge_count)), abs=1e-12)


def test_2level_truncates_small_graphs():
    assert approx_overlap_2level(Graph(3, ()), 0.4) == 1.0
    single = Graph(2, ((0, 1),))
    for p in P_GRID:
        assert approx_overlap_2level(single, p) == pytest.approx(
            p + 0.25 * (1 - p), abs=1e-14)
    assert approx_overlap_2level(generate("star:4"), 0.6) == pytest.approx(
        approx_overlap(generate("star:4"), 0.6, 2), abs=1e-12)


def test_2level_monotone_for_low_levels():
    # truncations at every level are nondecreasing on [1/2, 1]: observed, and
    # proved only for the exact overlap (see find_threshold)
    rng = np.random.default_rng(397)
    cases = [generate(spec) for spec in ("path:5", "cycle:6", "star:5", "grid:2x3")]
    cases += [random_graph(rng, 8) for _ in range(20)]
    for g in cases:
        for level in range(g.edge_count + 1):
            values = [approx_overlap(g, 0.5 + k / 40, level) for k in range(21)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), (g, level)


def test_exact_overlap_is_a_sum_of_powers_of_2p_minus_1():
    # F(p) = 4^-n sum_{x,y} (2p - 1)^popcount(u(x) XOR u(y)), the identity
    # behind the monotonicity of the exact overlap on [1/2, 1]
    rng = np.random.default_rng(401)
    for _ in range(12):
        g = random_graph(rng, 8)
        for p in (0.0, 0.3, 0.5, 0.75, float(rng.uniform()), 1.0):
            assert randomization_overlap(g, p) == pytest.approx(
                brute_pair_overlap(g, p), rel=1e-12, abs=1e-15), (g, p)


def test_find_threshold_star_closed_form():
    for n in range(3, 9):
        root = find_threshold(lambda p: 0.25 - 0.75 * p ** (n - 1))
        assert root == pytest.approx(3 ** (-1 / (n - 1)), abs=1e-9)


def test_find_threshold_no_crossing():
    assert find_threshold(lambda p: 1.0 + p) is None
    assert find_threshold(lambda p: -1.0 - p) is None
    with pytest.raises(ValueError):
        find_threshold(lambda p: p, bracket=(0.9, 0.5))


def test_find_threshold_returns_an_exact_zero_midpoint():
    calls = []

    def f(p):
        calls.append(p)
        return 0.75 - p
    # the first midpoint of [1/2, 1] is a root: returned as is, no further bisection
    assert find_threshold(f) == 0.75
    assert calls == [0.5, 1.0, 0.75]


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_find_threshold_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tolerance"):
        find_threshold(lambda p: 0.75 - p, tol=tol)


@pytest.mark.parametrize("spec", ["cycle:6", "grid:2x3", "star:4"])
def test_find_threshold_tiny_tol_stops_at_adjacent_floats(spec):
    g = generate(spec)
    tiny = gme_threshold(g, tol=1e-300)
    assert tiny == pytest.approx(gme_threshold(g, tol=1e-9), abs=1e-9)


def test_gme_threshold_chain():
    for spec in ("star:4", "path:5", "cycle:6"):
        g = generate(spec)
        p_w = gme_threshold(g)
        p_f = gme_threshold(g, level=2)
        assert p_w is not None and p_f is not None
        assert p_w <= p_f + 1e-9


def test_thresholds_look_up_coefficients_once(monkeypatch):
    levels = []

    def counted(g, level):
        levels.append(level)
        return _level_coefficients(g, level)
    monkeypatch.setattr(witness, "_level_coefficients", counted)
    g = generate("grid:3x4")
    assert gme_threshold(g) is not None and levels == [g.edge_count]
    levels.clear()
    assert gme_threshold(g, level=3) is not None and levels == [3]
    levels.clear()
    assert lhv_threshold(g, d=0.4) is not None and levels == [2]


def test_cycle3_thresholds_coincide():
    g = generate("cycle:3")
    assert gme_threshold(g, level=2) == pytest.approx(gme_threshold(g), abs=1e-9)


def test_2level_threshold_beyond_dense_caps():
    # the truncated sum never touches density matrices, so 40-edge grids work
    g = generate("grid:5x5")
    assert g.edge_count == 40
    # frozen from an independent implementation of the degree-class closed form
    assert gme_threshold(g, level=2) == pytest.approx(0.9768954874, abs=1e-8)
    assert gme_threshold(generate("grid3:3x3x3"), level=2) is not None
