"""Monte Carlo simulation of the probabilistic edge-creation channel.

The per-edge gates all commute, so a preparation run is sampled directly as
an edge bitmask with independent Bernoulli(p) bits.  Shots are drawn in
fixed-size batches whose Philox streams are keyed by (seed, batch index),
making parallel and serial runs bitwise identical.  A sample is the mask
width |E| plus one dict from mask bits to count, in ascending bit order.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .graph import Graph
from .density import DensityMatrix, subgraph_mixture

MAX_SAMPLE_EDGES = 63
BATCH_SHOTS = 1 << 14


@dataclass(frozen=True)
class PreparationSample:
    """Edge-mask histogram from repeated preparation runs."""

    shots: int
    seed: int
    width: int  # |E|, the number of bits in every mask
    counts: dict[int, int]  # mask bits -> occurrence count, ascending bits

    def mask_counts(self) -> dict[int, int]:
        return dict(self.counts)


def _batch_masks(seed: int, batch: int, size: int, p: float, n_edges: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[seed, batch]))
    kept = rng.random((size, n_edges)) < p
    weights = np.uint64(1) << np.arange(n_edges, dtype=np.uint64)
    return (kept.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def sample_preparation(g: Graph, p: float, shots: int, seed: int,
                       threads: int = 1) -> PreparationSample:
    """Draw ``shots`` independent edge masks, each edge kept with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"randomness parameter must be in [0, 1], got {p}")
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    e = g.edge_count
    if e > MAX_SAMPLE_EDGES:
        raise SizeLimitError(f"sampling capped at |E|={MAX_SAMPLE_EDGES}, got {e}")

    batches = [(b, min(BATCH_SHOTS, shots - b * BATCH_SHOTS))
               for b in range((shots + BATCH_SHOTS - 1) // BATCH_SHOTS)]

    def run(batch_and_size):
        b, size = batch_and_size
        return np.unique(_batch_masks(seed, b, size, p, e), return_counts=True)

    if threads > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run, batches))
    else:
        partials = [run(item) for item in batches]

    batch_masks, batch_freq = zip(*partials)
    masks, slot = np.unique(np.concatenate(batch_masks), return_inverse=True)
    totals = np.zeros(len(masks), dtype=np.int64)
    np.add.at(totals, slot, np.concatenate(batch_freq))
    return PreparationSample(shots=shots, seed=seed, width=e,
                             counts=dict(zip(masks.tolist(), totals.tolist())))


def empirical_state(sample: PreparationSample, g: Graph) -> DensityMatrix:
    """Frequency-weighted mixture of the sampled subgraph projectors."""
    if sample.width != g.edge_count:
        raise ValueError(
            f"sample mask width {sample.width} does not match |E|={g.edge_count}")
    weights = {bits: c / sample.shots for bits, c in sample.counts.items()}
    return subgraph_mixture(g, weights)


def sample_to_json(sample: PreparationSample, *, graph_spec: str, p: float) -> str:
    """Serialize a sample with hex-keyed mask counts."""
    counts = {hex(bits): c for bits, c in sample.counts.items()}
    return json.dumps({
        "graph_spec": graph_spec,
        "p": p,
        "shots": sample.shots,
        "seed": sample.seed,
        "counts": counts,
    }, separators=(",", ":"))
