import json
import math

import numpy as np
import pytest

from rgstates import (Graph, PreparationSample, SizeLimitError, empirical_state, errors,
                      generate, graph_state_vector, randomize, sample_preparation,
                      sample_to_json, sampler)
from oracles import brute_mixture, dict_sample_json, random_graph, split_sample_counts

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
    with pytest.raises(ValueError):
        sample_preparation(PATH3, 0.5, 1 << 63, 0)  # past the int64 counts
    for threads in (0, -1):
        with pytest.raises(ValueError):
            sample_preparation(PATH3, 0.5, 10, 0, threads=threads)
    with pytest.raises(SizeLimitError, match=r"sampling capped at \|E\|=63, got 66"):
        sample_preparation(generate("complete:12"), 0.5, 10, 0)  # 66 edges


def test_mask_frequencies_within_four_sigma():
    shots = 100_000
    sample = sample_preparation(PATH3, 0.5, shots, 42)
    sigma = math.sqrt(0.25 * 0.75 / shots)
    for mask in range(4):
        freq = sample.mask_counts().get(mask, 0) / shots
        assert abs(freq - 0.25) < 4 * sigma


def test_joint_mask_law_within_five_sigma():
    shots, p = 200_000, 0.3
    sample = sample_preparation(generate("star:4"), p, shots, 8)  # 3 edges
    for mask in range(8):
        q = p ** mask.bit_count() * (1 - p) ** (3 - mask.bit_count())
        freq = sample.mask_counts().get(mask, 0) / shots
        assert abs(freq - q) < 5 * math.sqrt(q * (1 - q) / shots)


def test_huge_shot_counts_finish():
    sample = sample_preparation(PATH3, 0.5, 10 ** 12, 1)
    assert sorted(sample.counts) == [0, 1, 2, 3]
    assert sum(sample.counts.values()) == 10 ** 12


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
    sample = sample_preparation(PATH3, 1.0, 100, 3)
    full = empirical_state(sample, PATH3)
    assert "counts" not in vars(sample)  # weights come from the arrays
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
    assert sample.width == 2
    keys = list(sample.counts)
    assert all(isinstance(m, int) and 0 <= m < 4 for m in keys)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert sum(sample.counts.values()) == 12_345


def test_merged_counts_match_batchwise_oracle():
    # complete:7: 21 edges at p = 0.85, ~15 000 distinct masks of 50 000
    # shots, many of them joined siblings of expanded prefixes; grid:4x4:
    # 24 edges, nearly every shot its own mask, expanded about 10 edges in
    for spec, p, shots, seed in (("complete:7", 0.85, 50_000, 31),
                                 ("grid:4x4", 0.55, 20_000, 5)):
        g = generate(spec)
        expected = split_sample_counts(g, p, shots, seed)
        for threads in (1, 3):
            sample = sample_preparation(g, p, shots, seed, threads=threads)
            text = sample_to_json(sample, graph_spec=spec, p=p)
            assert "counts" not in vars(sample)  # the JSON path builds no dict
            assert text == dict_sample_json(expected, shots=shots, seed=seed,
                                            graph_spec=spec, p=p)
            for a in (sample.masks, sample.tallies):
                assert a.dtype == np.int64 and not a.flags.writeable
            assert np.all(np.diff(sample.masks) > 0)
            assert np.all(sample.tallies > 0) and int(sample.tallies.sum()) == shots
            assert sample.counts == expected
            keys = list(sample.counts)
            assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("spec, p, shots, seed", [
    ("complete:7", 0.85, 5000, 11),  # slices mix split and expanded prefixes
    ("grid:4x4", 0.55, 4000, 5),
])
def test_block_draws_keep_the_stream(monkeypatch, spec, p, shots, seed, block):
    # the per-edge split and the expansion in slices of ``block`` prefixes,
    # against the one-list oracle
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", block)
    monkeypatch.setattr(sampler, "_EXPAND_BLOCK", block)
    g = generate(spec)
    sample = sample_preparation(g, p, shots, seed)
    assert sample.counts == split_sample_counts(g, p, shots, seed)


@pytest.mark.parametrize("block", [1, 3, sampler._EXPAND_BLOCK])
@pytest.mark.parametrize("spec, p, shots", [
    ("path:4", 0.5, 8),  # 8 <= 2^3: expanded at edge 0, 8 shots over 8 masks
    ("star:4", 0.3, 6),
    ("path:6", 0.5, 40),  # split while over 2^(edges left), expanded near the end
])
def test_expanded_siblings_are_joined(monkeypatch, spec, p, shots, block):
    # few edges left, so siblings of one expanded prefix often draw the same
    # mask; they are joined in expansion blocks of ``block`` prefixes
    monkeypatch.setattr(sampler, "_EXPAND_BLOCK", block)
    g = generate(spec)
    joined = 0
    for seed in range(20):
        sample = sample_preparation(g, p, shots, seed)
        assert np.all(np.diff(sample.masks) > 0)
        assert np.all(sample.tallies > 0) and int(sample.tallies.sum()) == shots
        assert sample.counts == split_sample_counts(g, p, shots, seed)
        joined += int(np.count_nonzero(sample.tallies > 1))
    assert joined > 0


@pytest.mark.parametrize("p", [0.999, 0.001])
def test_concentrated_sample_fits_a_budget_of_its_distinct_masks(monkeypatch, p):
    # nearly every shot of an expanded prefix draws the same remaining edges;
    # those siblings are joined before they are stored, so no edge counts
    # more entries than the sample ends with
    g, shots, seed = generate("path:64"), 10 ** 6, 1
    sample = sample_preparation(g, p, shots, seed)
    distinct = len(sample.masks)
    assert distinct < shots // 500 and int(sample.tallies.sum()) == shots
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 8 * distinct)
    monkeypatch.setattr(sampler, "MAX_SAMPLE_PATTERNS", distinct)
    assert sample_preparation(g, p, shots, seed).counts == sample.counts
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 8 * distinct - 8)
    monkeypatch.setattr(sampler, "MAX_SAMPLE_PATTERNS", distinct - 1)
    with pytest.raises(SizeLimitError, match=f"edge 63 of 63 needs {distinct} x 8"):
        sample_preparation(g, p, shots, seed)


@pytest.mark.parametrize("shots", [1, 8])  # one shot, and eight shots of one expanded prefix
@pytest.mark.parametrize("p", [2 ** -9, 1 / 256, 255 / 256, 1 - 2 ** -40])
def test_byte_rule_keeps_each_edge_with_probability_p(p, shots):
    # p = 2^-9 keeps only on a won tie, 1/256 and 255/256 have no tie double,
    # and 1 - 2^-40 loses only on a lost tie.  The keep frequency of one edge,
    # pooled over the 63 edges of many samples: a shift of 1/256 is >= 20 sigma
    g = generate("path:64")
    var = p * (1 - p)
    samples = max(20, math.ceil(400 * var * 256 ** 2 / (shots * g.edge_count)))
    kept = 0
    for seed in range(samples):
        sample = sample_preparation(g, p, shots, seed)
        kept += sum(int(m).bit_count() * c for m, c in zip(sample.masks, sample.tallies))
    n = samples * shots * g.edge_count
    sigma = math.sqrt(var / n)
    assert 20 * sigma <= 1 / 256
    assert abs(kept / n - p) < 5 * sigma


def test_joint_mask_law_of_small_samples():
    # 8-shot samples on 3 edges: 8 <= 2^3, so the one prefix is expanded at
    # edge 0 and each shot decides all three edges on bytes; no binomial
    g, p, shots, samples = generate("star:4"), 0.3, 8, 2500
    counts = np.zeros(8, dtype=np.int64)
    for seed in range(samples):
        sample = sample_preparation(g, p, shots, seed)
        counts[sample.masks] += sample.tallies
    n = shots * samples
    for mask in range(8):
        q = p ** mask.bit_count() * (1 - p) ** (3 - mask.bit_count())
        assert abs(counts[mask] / n - q) < 5 * math.sqrt(q * (1 - q) / n)


@pytest.mark.parametrize("shots", [sampler._SPLIT_SHOTS, sampler._SPLIT_SHOTS + 1])
@pytest.mark.parametrize("spec", ["star:4", "star:8"])
def test_joint_mask_law_at_the_expansion_boundary(spec, shots):
    # star:4 (3 edges): both shot counts are split by binomials until a
    # prefix holds at most 2^(edges left); star:8 (7 edges): C = _SPLIT_SHOTS
    # shots are expanded at edge 0, and C + 1 are split once, then expanded
    g, p = generate(spec), 0.3
    e = g.edge_count
    samples = 2000
    counts = np.zeros(1 << e, dtype=np.int64)
    for seed in range(samples):
        sample = sample_preparation(g, p, shots, seed)
        counts[sample.masks] += sample.tallies
    n = shots * samples
    for mask in range(1 << e):
        q = p ** mask.bit_count() * (1 - p) ** (e - mask.bit_count())
        assert abs(counts[mask] / n - q) < 5 * math.sqrt(q * (1 - q) / n)


@pytest.mark.parametrize("spec, p, shots", [
    ("path:64", 1.0, 2),  # |E| + bit length of the largest tally = 63 + 1: argsort
    ("path:64", 0.5, 2),
    ("path:63", 1.0, 3),  # 62 + 1: the masks carry their tallies, sorted in place,
    ("path:63", 0.5, 3),  # and at p = 1 the three expanded shots are joined
    ("path:62", 1.0, 3),
    ("path:62", 0.5, 3),
    ("path:58", 1.0, 65),  # one prefix of 65 shots, never expanded: 57 + 7 = 64, argsort
    ("path:57", 1.0, 65),  # 56 + 7 = 63: in place
])
def test_both_sorts_give_ascending_masks(spec, p, shots):
    g = generate(spec)
    for seed in range(5):
        sample = sample_preparation(g, p, shots, seed)
        assert np.all(np.diff(sample.masks) > 0) and np.all(sample.masks >= 0)
        assert np.all(sample.tallies > 0) and int(sample.tallies.sum()) == shots
        assert sample.counts == split_sample_counts(g, p, shots, seed)
    if p == 1.0:
        assert sample.counts == {(1 << g.edge_count) - 1: shots}


def test_sample_json_schema():
    sample = sample_preparation(Graph(2, ((0, 1),)), 1.0, 10, 7)
    doc = json.loads(sample_to_json(sample, graph_spec="file:g.json", p=1.0))
    assert doc == {"graph_spec": "file:g.json", "p": 1.0, "shots": 10,
                   "seed": 7, "counts": {"0x1": 10}}


@pytest.mark.parametrize("pairs, width, graph_spec, p", [
    ([(0, 1)], 1, "path:2", 0.5),  # "0x0"
    ([(0, 3), (1, 2), (2, 5)], 2, "path:3", 0.0),
    ([(15, 9), (16, 10), (255, 99), (256, 100)], 9, "file:g.json", 1.0),
    ([(1, 10 ** 18)], 1, "path:2", 0.1 + 0.2),
    ([(5, 7), ((1 << 63) - 1, (1 << 63) - 8)], 63, "complete:12", 1e-300),
    ([(1 << 40, 1), ((1 << 40) + 1, 10 ** 9)], 41, 'file:q"uot\u00e9.json', 0.55),
    ([(3, 4)], 2, 'fi"l\u00e9 \u2014 g', 1 - 1e-16),
])
def test_sample_json_equals_dict_dump(pairs, width, graph_spec, p):
    masks = np.array([m for m, _ in pairs], dtype=np.int64)
    tallies = np.array([c for _, c in pairs], dtype=np.int64)
    shots = sum(c for _, c in pairs)
    sample = PreparationSample(shots=shots, seed=(1 << 64) - 1, width=width,
                               masks=masks, tallies=tallies)
    expected = dict_sample_json(dict(pairs), shots=shots, seed=(1 << 64) - 1,
                                graph_spec=graph_spec, p=p)
    assert sample_to_json(sample, graph_spec=graph_spec, p=p) == expected


@pytest.mark.parametrize("rows", [1, sampler._JSON_ROWS - 1, sampler._JSON_ROWS,
                                  sampler._JSON_ROWS + 1, 3 * sampler._JSON_ROWS + 5])
def test_sample_json_blocks_equal_dict_dump(rows):
    # the export is built in blocks of _JSON_ROWS masks; the digit widths and
    # the one dropped comma belong to the whole sample, not to a block
    rng = np.random.default_rng(rows)
    masks = np.unique(rng.integers(0, 1 << 62, 2 * rows))[:rows]
    masks[0] = 0
    tallies = 10 ** rng.integers(0, 18, rows) - 1
    tallies[tallies == 0] = 1
    pairs = dict(zip(masks.tolist(), tallies.tolist()))
    sample = PreparationSample(shots=sum(pairs.values()), seed=rows, width=62,
                               masks=masks, tallies=tallies)
    expected = dict_sample_json(pairs, shots=sample.shots, seed=rows,
                                graph_spec="grid:5x5", p=0.55)
    assert sample_to_json(sample, graph_spec="grid:5x5", p=0.55) == expected


def test_sample_keeps_counts_view_lazy():
    sample = sample_preparation(generate("cycle:5"), 0.4, 3000, 12)
    assert "counts" not in vars(sample)
    view = sample.mask_counts()
    assert view == dict(zip(sample.masks.tolist(), sample.tallies.tolist()))
    assert sample.counts is sample.counts  # built once, on first access
    view[0] = -1
    assert sample.counts[0] != -1  # mask_counts() is a copy

