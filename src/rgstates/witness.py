"""Randomization overlaps, projector GME witnesses, and threshold solvers.

The overlap of a graph state with its randomization is a polynomial in p
whose coefficients group subgraphs by the number of removed edges; each
term is a squared empty-graph overlap of the removed-edge subgraph, an exact
signed sum over its vertices.  No density matrices are ever materialized here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, sqrt

from .errors import SizeLimitError
from .graph import Graph, class_counts, serialize_graph
from .state import signed_sum

MAX_OVERLAP_EDGES = 24
DEFAULT_BRACKET = (0.5, 1.0)
DEFAULT_THRESHOLD_TOL = 1e-9

GME_CONSTANT = 0.5  # identity coefficient of the projector witness


@dataclass(frozen=True)
class WitnessEvaluation:
    """One witness evaluation: constant term minus an overlap value."""

    graph_spec: str
    p: float
    level: str
    overlap_value: float
    witness_value: float
    constant_term: float


def _removed_overlap_sq(edges) -> float:
    """Squared empty-graph overlap of a bare edge set, compacted to its support."""
    if not edges:
        return 1.0
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, j in edges:
        a, b = index[i], index[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    amp = signed_sum(adj) / (1 << len(verts))
    return amp * amp


@lru_cache(maxsize=256)
def _level_coefficients(g: Graph, level: int) -> tuple[float, ...]:
    """S_r for r = 0..level: sums of squared overlaps over r removed edges."""
    out = []
    for r in range(level + 1):
        out.append(sum(_removed_overlap_sq(sub) for sub in combinations(g.edges, r)))
    return tuple(out)


def _evaluate_overlap_poly(coeffs, total_edges: int, p: float) -> float:
    q = 1.0 - p
    return sum(c * p ** (total_edges - r) * q ** r for r, c in enumerate(coeffs))


def _check_p(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"randomness parameter must be in [0, 1], got {p}")


def randomization_overlap(g: Graph, p: float) -> float:
    """Fidelity between |g> and its randomization: full sum over removed-edge subsets."""
    _check_p(p)
    if g.edge_count > MAX_OVERLAP_EDGES:
        raise SizeLimitError(
            f"exact overlap capped at |E|={MAX_OVERLAP_EDGES}, got {g.edge_count}")
    coeffs = _level_coefficients(g, g.edge_count)
    return _evaluate_overlap_poly(coeffs, g.edge_count, p)


def approx_overlap(g: Graph, p: float, level: int) -> float:
    """Truncation of the overlap sum to subgraphs missing at most ``level`` edges."""
    _check_p(p)
    if not 0 <= level <= g.edge_count:
        raise ValueError(f"level must be in [0, {g.edge_count}], got {level}")
    coeffs = _level_coefficients(g, level)
    return _evaluate_overlap_poly(coeffs, g.edge_count, p)


def approx_overlap_2level(g: Graph, p: float) -> float:
    """Closed form of the 2-level truncation from the edge and degree counts.

    For graphs with fewer than two edges the unavailable terms are dropped.
    """
    _check_p(p)
    e, m2_star, _ = class_counts(g)
    value = p ** e
    if e >= 1:
        value += 0.25 * (1.0 - p) * p ** (e - 1) * e
    if e >= 2:
        value += (1.0 - p) ** 2 * p ** (e - 2) * (comb(e, 2) + 3 * m2_star) / 16.0
    return value


def overlap_star_closed(n: int, p: float) -> float:
    """Randomization overlap of the n-vertex star: 1/4 + (3/4) p^(n-1)."""
    if n < 2:
        raise ValueError(f"star closed form needs n >= 2, got {n}")
    _check_p(p)
    return 0.25 + 0.75 * p ** (n - 1)


def overlap_linear_closed(n: int, p: float) -> float:
    """Randomization overlap of the n-vertex path.

    Solves the even/odd tail recursion f_odd' = (1-p)/4 * f_even,
    f_even' = f_odd + p * f_even with basis f_even(2) = p,
    f_odd(2) = (1-p)/4; the roots are (p +- sqrt(1-p+p^2))/2.
    """
    if n < 2:
        raise ValueError(f"path closed form needs n >= 2, got {n}")
    _check_p(p)
    lam = 1.0 - p + p * p
    root = sqrt(lam)
    mu_plus = (p + root) / 2.0
    mu_minus = (p - root) / 2.0
    return ((1.0 - mu_minus) * mu_plus ** n - (1.0 - mu_plus) * mu_minus ** n) / root


def _overlap_at_level(g: Graph, p: float, level) -> float:
    if level == "exact":
        return randomization_overlap(g, p)
    # graphs with fewer edges than the level only have the full truncation
    return approx_overlap(g, p, min(int(level), g.edge_count))


def gme_witness_value(g: Graph, p: float, level="exact",
                      graph_spec: str | None = None) -> WitnessEvaluation:
    """Expectation of the projector witness 1/2 - |g><g| on the randomized state.

    A negative value certifies genuine multipartite entanglement.
    """
    ov = _overlap_at_level(g, p, level)
    return WitnessEvaluation(
        graph_spec=graph_spec if graph_spec is not None else serialize_graph(g),
        p=p,
        level=str(level),
        overlap_value=ov,
        witness_value=GME_CONSTANT - ov,
        constant_term=GME_CONSTANT,
    )


def find_threshold(f, bracket=DEFAULT_BRACKET, tol: float = DEFAULT_THRESHOLD_TOL):
    """Bisection root of f(p) = 0 on ``bracket``; None without a sign change.

    The approximated overlap is only guaranteed monotone for p >= 1/2, hence
    the default bracket [1/2, 1].
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    f_lo, f_hi = f(lo), f(hi)
    sign_lo = (f_lo > 0.0) - (f_lo < 0.0)
    sign_hi = (f_hi > 0.0) - (f_hi < 0.0)
    if sign_lo * sign_hi >= 0:  # touching zero at an endpoint is not a crossing
        return None
    lo_positive = f_lo > 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gme_threshold(g: Graph, level="exact", tol: float = DEFAULT_THRESHOLD_TOL,
                  bracket=DEFAULT_BRACKET):
    """Randomness threshold above which the (possibly truncated) witness is negative."""
    return find_threshold(lambda p: GME_CONSTANT - _overlap_at_level(g, p, level),
                          bracket=bracket, tol=tol)
