"""Monte Carlo simulation of the probabilistic edge-creation channel.

The per-edge gates all commute and each keeps its edge independently with
probability p, so the mask histogram of ``shots`` preparation runs is one
multinomial draw over edge masks.  It is drawn by splitting the shot count
edge by edge on one ``np.random.default_rng(seed)`` stream: each seed gives
one fixed sample.  A sample is the mask width |E| plus one dict from mask
bits to count, in ascending bit order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .graph import Graph
from .density import DensityMatrix, subgraph_mixture

MAX_SAMPLE_EDGES = 63


@dataclass(frozen=True)
class PreparationSample:
    """Edge-mask histogram from repeated preparation runs."""

    shots: int
    seed: int
    width: int  # |E|, the number of bits in every mask
    counts: dict[int, int]  # mask bits -> occurrence count, ascending bits

    def mask_counts(self) -> dict[int, int]:
        return dict(self.counts)


def sample_preparation(g: Graph, p: float, shots: int, seed: int,
                       threads: int = 1) -> PreparationSample:
    """Draw ``shots`` independent edge masks, each edge kept with probability ``p``.

    ``threads`` must be at least 1 and has no effect: each seed gives one
    fixed sample, drawn on one stream.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"randomness parameter must be in [0, 1], got {p}")
    if not 1 <= shots < (1 << 63):
        raise ValueError(f"shots must be in [1, 2^63), got {shots}")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    e = g.edge_count
    if e > MAX_SAMPLE_EDGES:
        raise SizeLimitError(f"sampling capped at |E|={MAX_SAMPLE_EDGES}, got {e}")

    # Live prefixes: masks over edges 0..k-1 and how many shots share each.
    # A prefix whose shots all go one way is updated in place; one that
    # splits keeps its dropped shots and appends its kept ones as a child.
    rng = np.random.default_rng(seed)
    masks = np.zeros(1, dtype=np.int64)
    counts = np.array([shots], dtype=np.int64)
    for k in range(e):
        keep = rng.random(len(counts)) < p  # decides the single-shot prefixes
        several = np.flatnonzero(counts > 1)
        total = counts[several]
        kept = rng.binomial(total, p)
        keep[several] = kept == total
        masks |= keep * (1 << k)
        split = (kept > 0) & (kept < total)
        parents = several[split]
        counts[parents] -= kept[split]
        masks = np.concatenate([masks, masks[parents] | (1 << k)])
        counts = np.concatenate([counts, kept[split]])
    order = np.argsort(masks)
    return PreparationSample(shots=shots, seed=seed, width=e,
                             counts=dict(zip(masks[order].tolist(),
                                             counts[order].tolist())))


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
