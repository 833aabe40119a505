import json
import math

import numpy as np
import pytest

from rgstates import (EdgeMask, Graph, SizeLimitError, empirical_state,
                      generate, graph_state_vector, randomize,
                      sample_preparation, sample_to_json)
from oracles import brute_mixture, random_graph

PATH3 = generate("path:3")


def test_extreme_p_concentrates_on_one_mask():
    full = sample_preparation(PATH3, 1.0, 500, 1)
    assert full.mask_counts() == {0b11: 500}
    empty = sample_preparation(PATH3, 0.0, 500, 1)
    assert empty.mask_counts() == {0b00: 500}


def test_seed_determinism():
    a = sample_preparation(PATH3, 0.5, 50_000, 123)
    b = sample_preparation(PATH3, 0.5, 50_000, 123)
    assert a.counts == b.counts
    c = sample_preparation(PATH3, 0.5, 50_000, 124)
    assert a.counts != c.counts


def test_thread_partitioning_is_invisible():
    serial = sample_preparation(PATH3, 0.35, 100_000, 9, threads=1)
    threaded = sample_preparation(PATH3, 0.35, 100_000, 9, threads=4)
    assert serial.counts == threaded.counts


def test_validation():
    with pytest.raises(ValueError):
        sample_preparation(PATH3, 1.5, 10, 0)
    with pytest.raises(ValueError):
        sample_preparation(PATH3, 0.5, 0, 0)
    with pytest.raises(ValueError):
        sample_preparation(PATH3, 0.5, 10, -1)
    with pytest.raises(SizeLimitError):
        sample_preparation(generate("complete:12"), 0.5, 10, 0)  # 66 edges


def test_mask_frequencies_within_four_sigma():
    shots = 100_000
    sample = sample_preparation(PATH3, 0.5, shots, 42)
    sigma = math.sqrt(0.25 * 0.75 / shots)
    for mask in range(4):
        freq = sample.mask_counts().get(mask, 0) / shots
        assert abs(freq - 0.25) < 4 * sigma


def test_per_edge_inclusion_within_five_sigma():
    rng = np.random.default_rng(2024)
    shots = 20_000
    for trial in range(10):
        g = random_graph(rng, 6)
        if g.edge_count == 0:
            continue
        p = float(rng.uniform(0.1, 0.9))
        sample = sample_preparation(g, p, shots, 1000 + trial)
        sigma = math.sqrt(p * (1 - p) / shots)
        for k in range(g.edge_count):
            included = sum(c for m, c in sample.mask_counts().items()
                           if (m >> k) & 1)
            assert abs(included / shots - p) < 5 * sigma


def test_empirical_state_extremes():
    full = empirical_state(sample_preparation(PATH3, 1.0, 100, 3), PATH3)
    signs = graph_state_vector(PATH3).signs.astype(float)
    assert np.allclose(full.entries, np.outer(signs, signs) / 8, atol=1e-14)
    empty = empirical_state(sample_preparation(PATH3, 0.0, 100, 3), PATH3)
    assert np.allclose(empty.entries, np.full((8, 8), 1 / 8), atol=1e-14)


def test_empirical_state_converges():
    exact = randomize(PATH3, 0.5).entries
    small = empirical_state(sample_preparation(PATH3, 0.5, 10_000, 77), PATH3)
    large = empirical_state(sample_preparation(PATH3, 0.5, 100_000, 77), PATH3)
    d_small = np.linalg.norm(small.entries - exact)
    d_large = np.linalg.norm(large.entries - exact)
    assert d_large < d_small


def test_empirical_state_matches_dense_mixture():
    rng = np.random.default_rng(23)
    for seed in range(4):
        g = random_graph(rng, 5, min_n=4)
        sample = sample_preparation(g, 0.6, 500, seed)
        freq = {m: c / sample.shots for m, c in sample.mask_counts().items()}
        assert np.allclose(empirical_state(sample, g).entries, brute_mixture(g, freq),
                           atol=1e-12, rtol=0)


def test_empirical_state_width_mismatch():
    sample = sample_preparation(PATH3, 0.5, 100, 0)
    with pytest.raises(ValueError):
        empirical_state(sample, generate("path:4"))


def test_counts_are_edge_masks_summing_to_shots():
    sample = sample_preparation(PATH3, 0.4, 12_345, 5)
    assert all(isinstance(m, EdgeMask) and m.width == 2 for m in sample.counts)
    assert sum(sample.counts.values()) == 12_345


def test_sample_json_schema():
    sample = sample_preparation(Graph(2, ((0, 1),)), 1.0, 10, 7)
    doc = json.loads(sample_to_json(sample, graph_spec="file:g.json", p=1.0))
    assert doc == {"graph_spec": "file:g.json", "p": 1.0, "shots": 10,
                   "seed": 7, "counts": {"0x1": 10}}
