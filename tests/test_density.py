import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from rgstates import (Bipartition, DensityMatrix, Graph, SizeLimitError,
                      density, empirical_state, export_density, generate,
                      graph_state_vector, negativity, numerical_rank,
                      partial_transpose, randomize, randomized_bell,
                      sample_preparation, subgraph_mixture,
                      subgraph_space_dimension)
from rgstates.density import RANK_TOL
from rgstates.state import excitation_patterns, walsh_hadamard
from conftest import graphs
from oracles import (brute_mixture, brute_subgraph_dimension, connected, dephased_density,
                     full_spectrum, index_swap_transpose, path_dimension, random_graph)

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
    with pytest.raises(SizeLimitError, match=r"at most \|E\|=63, got 66"):
        randomize(generate("complete:12"), 0.5)  # u(x) is one 63-bit word


@pytest.mark.parametrize("key", [-1, 4, 1.5, "1"])
def test_mixture_refuses_a_key_outside_the_masks(key):
    # path:3 has two edges: the masks are the ints 0..3
    with pytest.raises(ValueError, match=f"mask key {key!r} is not an int in \\[0, 2\\^2\\)"):
        subgraph_mixture(generate("path:3"), {key: 1.0})


def test_randomize_matches_edge_by_edge_dephasing():
    rng = np.random.default_rng(1931)
    cases = [generate("complete:8"), generate("complete:9")]
    while len(cases) < 8:  # |E| from 25 to 36, past the old 2^|E| table's cap
        n = int(rng.integers(8, 10))
        pairs = list(itertools.combinations(range(n), 2))
        count = int(rng.integers(25, min(36, len(pairs)) + 1))
        chosen = rng.choice(len(pairs), size=count, replace=False)
        cases.append(Graph(n, tuple(pairs[k] for k in chosen)))
    for g in cases:
        assert 25 <= g.edge_count <= 36
        for p in (0.0, 0.5, float(rng.uniform(0.05, 0.95)), 1.0):
            assert np.allclose(randomize(g, p).entries, dephased_density(g, p),
                               rtol=1e-12, atol=1e-300), (g, p)


@pytest.mark.parametrize("spec", ["path:6", "cycle:7", "grid:2x5", "star:10"])
def test_row_blocks_equal_one_full_gather(spec):
    # rho is filled 64 rows at a time; the reference gathers through one 4^n index
    g, rng = generate(spec), np.random.default_rng(64)
    u = excitation_patterns(g)
    xor = u[:, None] ^ u[None, :]
    p = float(rng.uniform(0.05, 0.95))
    powers = (1.0 - 2.0 * p) ** np.arange(g.edge_count + 1) / (1 << g.n)
    assert np.array_equal(randomize(g, p).entries, powers[np.bitwise_count(xor)])
    raw = rng.random(1 << g.edge_count)
    weights = raw / raw.sum()
    chi = walsh_hadamard(weights.copy()) / (1 << g.n)
    assert np.array_equal(subgraph_mixture(g, dict(enumerate(weights.tolist()))).entries,
                          chi[xor])


@pytest.mark.parametrize("n", [8, 9, 10])
def test_complete_graph_negativity_endpoints(n):
    # GHZ class: every proper cut has negativity (2^1 - 1)/2 at p = 1, none at p = 0
    g = generate(f"complete:{n}")
    one, zero = randomize(g, 1.0), randomize(g, 0.0)
    for side_a in (0b1, 0b11, (1 << n // 2) - 1, 0b1010101, (1 << n - 1) - 1):
        cut = Bipartition(n, side_a)
        assert negativity(one, cut) == pytest.approx(0.5, abs=1e-12), side_a
        assert negativity(zero, cut) == pytest.approx(0.0, abs=1e-12), side_a


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.7, 1.0])
def test_randomized_bell_matches_randomize(p):
    # the explicit 4x4 matrix in 1 and q is the reference, bit for bit
    q = 1 - 2 * p
    expected = np.array([
        [1, 1, 1, q], [1, 1, 1, q], [1, 1, 1, q], [q, q, q, 1],
    ]) / 4
    bell = randomized_bell(p)
    assert np.array_equal(bell.entries, expected)
    assert (bell.graph, bell.q) == (EDGE, q)
    with pytest.raises(ValueError):
        randomized_bell(1.5)


@settings(deadline=None, max_examples=30)
@given(graphs(max_n=4))
def test_randomize_is_valid_density_matrix(g):
    rho = randomize(g, 0.37)
    assert abs(np.trace(rho.entries) - 1) < 1e-12
    assert full_spectrum(rho.entries)[0] > -1e-10


def test_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.1], [0.2, 0.5]]))  # not symmetric
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2


def test_density_matrix_symmetry_tolerance():
    def with_offdiagonal(upper, lower):
        return np.array([[0.5, upper], [lower, 0.5]])
    DensityMatrix(1, with_offdiagonal(0.1, 0.1 + 5e-13))
    DensityMatrix(1, with_offdiagonal(np.inf, np.inf))
    for upper, lower in ((0.1, 0.1 + 2e-12), (np.nan, np.nan), (0.1, np.nan),
                         (np.inf, -np.inf), (np.inf, 0.1)):
        with pytest.raises(ValueError, match="not symmetric"):
            DensityMatrix(1, with_offdiagonal(upper, lower))


def test_density_matrix_rejects_one_asymmetric_entry():
    # 256 x 256 spans 4 x 4 tiles: diagonal, upper, lower and corner entries
    rho = randomize(generate("grid:2x4"), 0.6)
    for i, j in ((0, 1), (5, 63), (63, 64), (64, 5), (100, 200), (255, 0), (254, 255)):
        for delta, accepted in ((5e-13, True), (2e-12, False), (np.nan, False)):
            e = rho.entries.copy()
            e[i, j] += delta
            if accepted:
                DensityMatrix(rho.n, e)
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    DensityMatrix(rho.n, e)


def test_only_hand_built_matrices_are_scanned_for_symmetry(monkeypatch):
    # table[u(x) XOR u(y)] is symmetric by construction
    scans, scan = [], density._is_symmetric
    monkeypatch.setattr(density, "_is_symmetric", lambda e: scans.append(len(e)) or scan(e))
    g = generate("grid:2x4")
    rho = randomize(g, 0.6)
    subgraph_mixture(g, {0: 0.5, 0b101: 0.5})
    assert scans == []
    DensityMatrix(g.n, rho.entries.copy())
    assert scans == [256]
    e = rho.entries.copy()
    e[5, 63] += 2e-12
    with pytest.raises(ValueError, match="not symmetric"):
        DensityMatrix(g.n, e)


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
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            numerical_rank(randomized_bell(0.5), tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        numerical_rank(randomize(generate("path:3"), 0.5), tol=float("nan"))


def test_subgraph_space_dimension_examples():
    assert subgraph_space_dimension(Graph(3, ())) == 1
    assert subgraph_space_dimension(generate("complete:3")) == 5
    assert subgraph_space_dimension(generate("complete:4")) == 12
    assert subgraph_space_dimension(generate("complete:7")) == 2 ** 7 - 7
    with pytest.raises(SizeLimitError, match="excitation patterns of n=25 needs"):
        subgraph_space_dimension(generate("empty:25"))  # 2^25 int64 patterns


def test_subgraph_space_dimension_of_paths_matches_recurrence():
    for n in (*range(1, 13), 16, 21):
        assert subgraph_space_dimension(generate(f"path:{n}")) == path_dimension(n), n
    assert [path_dimension(n) for n in (10, 12, 21, 24)] == [200, 616, 97229, 525456]


def test_subgraph_space_dimension_matches_dense_rank():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 12:
        g = random_graph(rng, 6)
        if g.edge_count > 11:
            continue
        assert subgraph_space_dimension(g) == brute_subgraph_dimension(g), g
        checked += 1


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


def _assert_spectra_match_oracle(rho, cuts):
    """negativity and numerical_rank against full eigensolves."""
    evals = full_spectrum(rho.entries)
    assert numerical_rank(rho) == int(np.count_nonzero(evals > 1e-10 * evals[-1]))
    for side_a in cuts:
        pt = full_spectrum(index_swap_transpose(rho.entries, side_a))
        expected = float(-pt[pt < 0.0].sum())
        assert abs(negativity(rho, Bipartition(rho.n, side_a)) - expected) <= 1e-12


def _random_cuts(rng, n, count=3):
    return [int(rng.integers(1, (1 << n) - 1)) for _ in range(count)]


def test_merged_spectra_match_full_oracle():
    rng = np.random.default_rng(23)
    for _ in range(12):
        g = random_graph(rng, 8)
        cuts = _random_cuts(rng, g.n)
        for p in (0.0, float(rng.uniform(0.02, 0.98)), 1.0):
            _assert_spectra_match_oracle(randomize(g, p), cuts)


def test_merged_spectra_of_mixtures_and_samples():
    rng = np.random.default_rng(29)
    for _ in range(6):
        g = random_graph(rng, 7, min_n=3)
        e = g.edge_count
        kept = [m for m in range(1 << e) if rng.random() < 0.3] or [0]
        raw = rng.random(len(kept))
        cuts = _random_cuts(rng, g.n)
        _assert_spectra_match_oracle(
            subgraph_mixture(g, dict(zip(kept, (raw / raw.sum()).tolist()))), cuts)
        sample = sample_preparation(g, float(rng.uniform(0.2, 0.8)), 300,
                                    int(rng.integers(1 << 32)))
        _assert_spectra_match_oracle(empirical_state(sample, g), cuts)


def test_merged_spectrum_without_duplicate_rows():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(16, 16))
    m = m + m.T
    rho = DensityMatrix(4, m / np.trace(m))
    assert len(density._merged_spectrum(rho.entries)) == 16
    _assert_spectra_match_oracle(rho, (0b0001, 0b0110, 0b1011))


def test_merged_spectrum_keeps_signed_zeros_apart():
    # rows 0 and 1 are equal as values; one of their zero entries is -0.0 in row 1
    a = np.array([[0.3, 0.0, 0.1], [0.0, 0.2, 0.05], [0.1, 0.05, 0.2]])
    classes = [0, 0, 1, 2]
    m = a[np.ix_(classes, classes)] / 1.0
    m[1, 2] = m[2, 1] = -0.0
    assert np.array_equal(m[0], m[1])
    rho = DensityMatrix(2, m)
    assert len(density._merged_spectrum(rho.entries)) == 4
    _assert_spectra_match_oracle(rho, (0b01, 0b10))
    m[1, 2] = m[2, 1] = 0.0  # bit-equal now: one 3x3 solve
    assert len(density._merged_spectrum(DensityMatrix(2, m).entries)) == 3


def test_merged_spectrum_verifies_hash_collisions(monkeypatch):
    # every row in one hash bucket: only rows verified bit-equal to row 0 merge
    monkeypatch.setattr(density, "_row_hashes", lambda bits: np.zeros(len(bits), np.uint64))
    rng = np.random.default_rng(37)
    for spec in ("star:5", "grid:2x3", "complete:4"):
        g = generate(spec)
        rho = randomize(g, float(rng.uniform(0.2, 0.8)))
        cuts = _random_cuts(rng, g.n)
        _assert_spectra_match_oracle(rho, cuts)  # merged from the row keys
        _assert_spectra_match_oracle(DensityMatrix(g.n, rho.entries.copy()), cuts)
    rho = randomize(generate("path:3"), 0.0)  # every row equal: one 1x1 solve
    for keys in (None, density._row_keys(rho)):
        evals = density._merged_spectrum(rho.entries, keys=keys)
        assert len(evals) < 8 and evals.tolist() == [1.0]


def test_rank_solves_only_the_distinct_rows(monkeypatch):
    # at p = 0.95 the floor 2^-10 0.1^9 is below the cutoff: the rank is
    # solved, on the 512 distinct patterns, and 10 eigenvalues are under it
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrix):
        shapes.append(matrix.shape)
        return eigvalsh(matrix)
    monkeypatch.setattr(density.np.linalg, "eigvalsh", spy)
    rho = randomize(generate("star:10"), 0.95)
    assert numerical_rank(rho) == 502
    assert shapes == [(512, 512)]
    shapes.clear()  # at p = 0.7 the floor certifies all 512
    assert numerical_rank(randomize(generate("star:10"), 0.7)) == 512
    assert shapes == []


def test_merge_finds_every_repeated_row():
    # entries such as +-2^-n (p = 1) or 0 and 2^-n (p = 1/2) share their low bits
    rng = np.random.default_rng(41)
    for _ in range(8):
        g = random_graph(rng, 8, min_n=3)
        for p in (0.5, 1.0, float(rng.uniform(0.05, 0.95))):
            rho = randomize(g, p)
            cut = Bipartition(g.n, int(rng.integers(1, (1 << g.n) - 1)))
            pt = partial_transpose(rho, cut)
            for m in (rho.entries, pt):
                distinct = len(np.unique(m.view(np.uint64), axis=0))
                assert len(density._merged_spectrum(m)) == distinct
            # the partial transpose read in place from rho, on either side of the
            # cut (rho is symmetric): the same rows, the same solve
            evals = density._merged_spectrum(pt)
            for side in (cut.side_a, cut.side_b):
                assert np.array_equal(density._merged_spectrum(rho.entries, side), evals)


class _Solved(Exception):
    """Raised by a spy in place of a merged eigensolve the test does not need."""


def test_certified_rank_equals_dense_count(monkeypatch):
    # a rank returned with no eigensolve is the count of a dense eigvalsh.
    # Solved ranks are checked against dense spectra above, so past n = 8
    # their solves are cut short here, and at n = 9 and 10 only the random p
    # gets the dense solve
    merged_spectrum, solved = density._merged_spectrum, []

    def spy(m, *args, **kwargs):
        solved.append(len(m))
        if len(m) > 256:
            raise _Solved
        return merged_spectrum(m, *args, **kwargs)
    monkeypatch.setattr(density, "_merged_spectrum", spy)
    rng = np.random.default_rng(43)
    certified = 0
    for _ in range(200):
        g = random_graph(rng, 10)
        random_p = float(rng.uniform())
        for p in (0.0, 1e-3, 0.05, 0.5, 0.95, 0.999, 1.0, random_p):
            rho = randomize(g, p)
            solved.clear()
            try:
                rank = numerical_rank(rho)
            except _Solved:
                continue
            if g.n > 8 and (solved or p != random_p):
                continue
            evals = np.linalg.eigvalsh(rho.entries)
            assert rank == int(np.count_nonzero(evals > RANK_TOL * evals[-1])), (g, p)
            certified += not solved
    assert certified > 500


def test_rank_certificate_fails_over_to_the_eigensolve(monkeypatch):
    def refuse(matrix):
        raise AssertionError("eigensolve")
    g = generate("grid:3x3")
    rho = randomize(g, 0.5)
    with monkeypatch.context() as patch:
        patch.setattr(density.np.linalg, "eigvalsh", refuse)
        assert numerical_rank(rho) == subgraph_space_dimension(g) == 250
        with pytest.raises(AssertionError, match="eigensolve"):  # a hand-built matrix
            numerical_rank(DensityMatrix(g.n, rho.entries.copy()))
        for p in (0.0, 0.999, 1.0):  # the floor is 0 or below the cutoff
            with pytest.raises(AssertionError, match="eigensolve"):
                numerical_rank(randomize(g, p))
    assert numerical_rank(DensityMatrix(g.n, rho.entries.copy())) == 250
    assert numerical_rank(randomize(generate("star:10"), 0.95)) == 502


def test_pattern_built_matrices_keep_their_record():
    g = generate("path:4")
    rho, mixture = randomize(g, 0.3), subgraph_mixture(g, {0: 0.5, 5: 0.5})
    assert (rho.graph, rho.q) == (g, 1.0 - 2.0 * 0.3)
    assert (mixture.graph, mixture.q) == (g, None)
    for m in (rho, mixture):
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 0] = 0.0
    by_hand = DensityMatrix(g.n, rho.entries.copy())
    assert (by_hand.graph, by_hand.q) == (None, None)
    assert density._row_keys(by_hand) is None
    by_hand.entries[0, 0] = by_hand.entries[0, 0]


def test_only_the_pattern_gather_records_a_graph():
    # a record copied onto other entries would certify a wrong rank: eye/8 has
    # rank 8 and the all-1/8 matrix rank 1, where path:3's record gives 4
    g = generate("path:3")
    rho = randomize(g, 0.7)
    for entries, rank in ((np.eye(8) / 8, 8), (np.full((8, 8), 1 / 8), 1)):
        other = dataclasses.replace(rho, entries=entries)
        assert (other.graph, other.q) == (None, None)
        assert density._row_keys(other) is None
        assert numerical_rank(other) == rank
    for record in ({"graph": g}, {"q": 0.5}):
        with pytest.raises(TypeError):
            DensityMatrix(g.n, rho.entries.copy(), **record)
        with pytest.raises(ValueError):
            dataclasses.replace(rho, **record)
    with pytest.raises(TypeError):
        DensityMatrix(g.n, rho.entries.copy(), g)
    with pytest.raises(ValueError, match="not symmetric"):  # scanned like any hand-built one
        dataclasses.replace(rho, entries=np.triu(np.ones((8, 8))) / 8)


def _keyed_and_dense_cases(rng):
    """(matrix, cut) pairs on seeded random graphs with random cuts: ``randomize``
    at p in {1/2, 1, random} and the empirical state of a sample."""
    for _ in range(10):
        g = random_graph(rng, 8, min_n=3)
        cut = int(rng.integers(1, (1 << g.n) - 1))
        for p in (0.5, 1.0, float(rng.uniform(0.05, 0.95))):
            yield randomize(g, p), cut
        sample = sample_preparation(g, float(rng.uniform(0.2, 0.8)), 500,
                                    int(rng.integers(1 << 32)))
        yield empirical_state(sample, g), cut


def test_keyed_merge_equals_the_dense_merge():
    rng = np.random.default_rng(47)
    for rho, cut in _keyed_and_dense_cases(rng):
        full = (1 << rho.n) - 1
        for side in (0, cut, full ^ cut):
            keyed = density._merged_spectrum(rho.entries, side, density._row_keys(rho, side))
            assert np.array_equal(keyed, density._merged_spectrum(rho.entries, side))


def test_every_key_class_holds_bit_equal_rows():
    rng = np.random.default_rng(53)
    for rho, cut in _keyed_and_dense_cases(rng):
        for side in (0, cut):
            m = rho.entries if not side else partial_transpose(rho, Bipartition(rho.n, side))
            bits = m.view(np.uint64)
            keys = density._row_keys(rho, side)
            _, first, label = np.unique(keys, return_index=True, return_inverse=True)
            assert np.array_equal(bits, bits[first[label]]), (rho.graph, side)
