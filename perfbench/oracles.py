"""Independent values that the benchmark checks the library's answers against.

None of these goes through the code path it checks.  Thresholds are found
by a separate bisection over closed forms; density matrices are rebuilt from
each basis string's edge-excitation pattern u(x) (the set of edges with both
endpoints set in x), so no 2^|E| mixture loop and no Gray-code walk is used.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import prod
from pathlib import Path

import numpy as np

from rgstates.state import closed_form_overlap_sq
from rgstates.witness import approx_overlap_2level, overlap_linear_closed

REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())

THRESHOLD_TOL = 1e-9  # acceptance tolerance for thresholds
CLOSED_FORM_TOL = 1e-12  # acceptance tolerance for closed-form identities
EIGEN_TOL = 1e-9


def bisect(f, lo=0.5, hi=1.0, tol=THRESHOLD_TOL):
    """Root of f on [lo, hi] by bisection; None without a sign change."""
    lo_positive = f(lo) > 0.0
    if lo_positive == (f(hi) > 0.0):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def star_p_w(n: int) -> float:
    return 3.0 ** (-1.0 / (n - 1))


def path_p_w(n: int) -> float:
    return bisect(lambda p: 0.5 - overlap_linear_closed(n, p))


def level2_threshold(g, constant=0.5) -> float:
    """Zero of constant - F_2(p), with F_2 from the edge and degree counts."""
    return bisect(lambda p: constant - approx_overlap_2level(g, p))


@lru_cache(maxsize=None)
def ring_coefficients(n: int) -> tuple[float, ...]:
    """S_r of the n-cycle: summed squared overlaps over its r-edge subgraphs.

    An r-edge subset of a ring with r < n is a disjoint union of paths, whose
    squared overlaps multiply; the full ring uses the cycle closed form.
    """
    path_sq = [closed_form_overlap_sq(f"path:{k}") for k in range(1, n + 1)]
    coeffs = [0.0] * (n + 1)
    for mask in range(1 << n):
        r = mask.bit_count()
        if r == n:
            coeffs[r] += closed_form_overlap_sq(f"cycle:{n}")
            continue
        runs, run = [], 0
        start = next(k for k in range(n) if not (mask >> k) & 1)
        for k in range(start + 1, start + 1 + n):
            if (mask >> (k % n)) & 1:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        coeffs[r] += prod(path_sq[length] for length in runs)
    return tuple(coeffs)


def ring_overlap(n: int, p: float) -> float:
    return sum(c * p ** (n - r) * (1.0 - p) ** r
               for r, c in enumerate(ring_coefficients(n)))


def ring_p_w(n: int) -> float:
    return bisect(lambda p: 0.5 - ring_overlap(n, p))


def excitation_patterns(g) -> np.ndarray:
    """u(x) as an integer edge mask, for every basis string x."""
    idx = np.arange(1 << g.n, dtype=np.int64)
    u = np.zeros(1 << g.n, dtype=np.int64)
    for k, (i, j) in enumerate(g.edges):
        u |= ((idx >> i) & (idx >> j) & 1) << k
    return u


def subgraph_dimension(g) -> int:
    """The subgraph states span exactly the functions of u(x)."""
    return len(np.unique(excitation_patterns(g)))


def _character_density(g, character: np.ndarray) -> np.ndarray:
    """rho_xy = 2^-n * character[u(x) XOR u(y)]."""
    u = excitation_patterns(g)
    return character[u[:, None] ^ u[None, :]] / (1 << g.n)


def randomized_density(g, p: float) -> np.ndarray:
    """Each edge acts as an independent dephasing: (1-2p)^popcount."""
    e = g.edge_count
    popcount = np.array([k.bit_count() for k in range(1 << e)])
    return _character_density(g, (1.0 - 2.0 * p) ** popcount)


def mixture_density(g, weights: dict) -> np.ndarray:
    """Mixture of subgraph projectors, via the Walsh-Hadamard transform of the weights."""
    chi = np.zeros(1 << g.edge_count)
    for mask, w in weights.items():
        chi[mask] = w
    h = 1
    while h < len(chi):
        chi = chi.reshape(-1, 2, h)
        chi = np.stack((chi[:, 0] + chi[:, 1], chi[:, 0] - chi[:, 1]), axis=1).reshape(-1)
        h *= 2
    return _character_density(g, chi)


def negativity(matrix: np.ndarray, side_a: int) -> float:
    """Negativity, with the partial transpose done by swapping the side-A bits."""
    idx = np.arange(len(matrix))
    x, y = idx[:, None], idx[None, :]
    swapped = matrix[(x & ~side_a) | (y & side_a), (y & ~side_a) | (x & side_a)]
    evals = np.linalg.eigvalsh(swapped)
    return float(-evals[evals < 0.0].sum())


def edge_frequencies_ok(mask_counts: dict, width: int, p: float, shots: int) -> bool:
    """Counts sum to shots and every edge's frequency is within 5 sigma of p."""
    masks = np.fromiter(mask_counts.keys(), dtype=np.uint64, count=len(mask_counts))
    counts = np.fromiter(mask_counts.values(), dtype=np.int64, count=len(mask_counts))
    if int(counts.sum()) != shots:
        return False
    sigma = (p * (1.0 - p) / shots) ** 0.5
    for k in range(width):
        kept = int(counts[((masks >> np.uint64(k)) & np.uint64(1)) == 1].sum())
        if abs(kept / shots - p) > 5.0 * sigma + 1e-12:
            return False
    return True
