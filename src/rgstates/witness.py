"""Randomization overlaps, projector GME witnesses, and threshold solvers.

The overlap of a graph state with its randomization is a polynomial in p
whose coefficients S_r = sum over r-edge sets R of <G|G-R>^2 group subgraphs
by the number of removed edges.  With sigma_v = (x_v, y_v) in {0..3} and
K(sigma, tau) = (-1)^(x_sigma x_tau + y_sigma y_tau),

    sum_R t^|R| <G|G-R>^2 = 4^-n sum_sigma prod_(i,j) (1 + t K(sigma_i, sigma_j)),

a 4-state pairwise model on G.  ``_level_coefficients`` takes one of three
routes, by level and size.

Levels up to ``MAX_CLUSTER_LEVEL`` = 4 come from ``_cluster_coefficients``,
the linked-cluster identity.  f(R) = <G|G-R>^2 depends only on R as a
graph and is multiplicative over vertex-disjoint parts, so with Z_G(t) the
sum above, log Z_G = sum_U W(U) over the connected edge sets U, where
W(U) = sum_(U' in U) (-1)^|U - U'| log Z_U' is O(t^|U|) and depends only on
the type of U.  Up to t^4 only ten types occur; their counts come from
closed formulas in degrees, triangles and common neighbours
(``graph.cluster_counts``), and S_r is [t^r] exp(sum_T N_T W_T), summed in
exact integers and rounded once.  The cost follows sum_v d_v (sum_v d_v^2
at level 4), not the frontier width; ``_count_seconds`` estimates it.

Higher levels of a graph with n and |E| each at most ``_SPECTRUM_BITS`` = 14
come from ``_spectrum_coefficients``.  <G|G-R> = 2^-n sum_x
(-1)^popcount(R & u(x)), so 2^n times every amplitude at once is the
Walsh-Hadamard transform of the histogram of the excitation patterns u(x)
(``state.excitation_patterns``, ``state.walsh_hadamard``).  Each
(2^n <G|G-R>)^2 is 0 or a power of two of at most 4^n (Hein, Eisert &
Briegel, PRA 69, 062311 (2004)), so S_r is an integer over 4^n, summed in
int64 and divided once.  That
costs 2^n |E| pattern bits and one transform of 2^|E| entries, where the
contraction pays ``PASS_ENTRIES`` = 2^13 entry updates for each edge before
its tensor counts at all.  Timed, the spectrum was the faster route up to
n = |E| = 14 and the slower from 15 on, except on dense graphs, whose wide
frontiers slow the contraction (complete:6; fit table in CHANGES.md).

Higher levels of larger graphs, and so the exact polynomial of any of them,
come from ``_contraction_coefficients``: one sweep over a greedy
vertex order, carrying one float64 tensor with a size-4
axis per frontier vertex (introduced, with an unintroduced neighbour) and
one axis for t^1..t^level; t^0 is identically 1.  A vertex is summed out
with a factor 1/4 after its last neighbour.  The two steps that mix the t
axis are one shift, P_r <- step(P_r, P_(r-1)) for r from the top down in
blocks (``_shift``), through the constant 4x4 table ``_K``: an edge folds
in as P_r + K P_(r-1), and a vertex whose last neighbour is the one being
introduced hands its axis over as (J P_r + P_(r-1) K) / 4, so the tensor
does not widen.  The cost follows the widest frontier w, not 2^|E|.
Before the sweep, an input is refused when its 4^w x level float64 entries
exceed the table budget (``errors.check_table``), when its estimated
seconds exceed the time budget (``errors.check_time``), or when its
coefficients, up to C(|E|, r), could leave the float64 range.  The cluster
path needs no range check: at level <= 4 that takes |E| near 10^77, far
past its own time estimate.
No density matrices are ever materialized here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm, sqrt

import numpy as np

from .errors import (MAX_SECONDS, MAX_TABLE_BYTES, SizeLimitError, _check_p, _check_tol,
                     check_table, check_time)
from .graph import Graph, cluster_counts, serialize_graph
from .state import excitation_patterns, walsh_hadamard

PASS_ENTRIES = 2 ** 13  # fixed cost of one edge's shift, in entry updates
_SPECTRUM_BITS = 14  # widest n and |E| of the spectrum route, timed (module docstring)
MAX_CLUSTER_LEVEL = 4  # highest level summed from connected-type counts
DEFAULT_BRACKET = (0.5, 1.0)
DEFAULT_THRESHOLD_TOL = 1e-9

GME_CONSTANT = 0.5  # identity coefficient of the projector witness

# K[sigma, tau] = (-1)^popcount(sigma & tau) with sigma = x + 2y, the edge sign
_K = np.array([[(-1.0) ** (s & t).bit_count() for t in range(4)] for s in range(4)])
_BLOCK = 2 ** 16  # entries of one block of the contraction's shift steps
# Fitted seconds (see _admitted_plan and _count_seconds): one entry update of
# the sweep; one edge end of the level-3 counts, plus one per vertex bit of
# its popcounts; one two-step path end and one vertex of the C4 tally.
_UPDATE_SECONDS = 18e-9
_END_SECONDS, _END_BIT_SECONDS = 1e-6, 70e-12
_PATH_END_SECONDS, _VERTEX_SECONDS = 150e-9, 10e-6

# Linked-cluster weights W_T(t) = sum_(U' in T) (-1)^|T - U'| log Z_U'(t) of
# the connected types T, as numerators over _WEIGHT_DENOMINATOR of their
# t^1..t^4 coefficients; W_T starts at t^|T|.
_WEIGHT_DENOMINATOR = 3072
_CLUSTER_WEIGHTS = {
    "K2": (768, -96, 16, -3),
    "P3": (0, 576, -288, 54),
    "P4": (0, 0, -144, 0),
    "K1,3": (0, 0, 288, -540),
    "K3": (0, 0, -480, 36),
    "P5": (0, 0, 0, 36),
    "chair": (0, 0, 0, -72),
    "K1,4": (0, 0, 0, -72),
    "C4": (0, 0, 0, 540),
    "paw": (0, 0, 0, -96),
}


@dataclass(frozen=True)
class WitnessEvaluation:
    """One witness evaluation: constant term minus an overlap value."""

    graph_spec: str
    p: float
    level: str
    overlap_value: float
    witness_value: float
    constant_term: float


def _contraction_plan(g: Graph, max_width: float = float("inf")):
    """Vertex steps of the frontier contraction and its widest frontier.

    The frontier holds the introduced vertices that still have an
    unintroduced neighbour; the contracted tensor has one axis per frontier
    vertex.  The order is greedy: among the unintroduced neighbours of the
    frontier (any unintroduced vertex when there are none), take the one
    that widens the frontier least, then the one with fewest unintroduced
    neighbours, then the lowest index.  A step ``(v, replaced, partners,
    done)`` puts v on the axis of ``replaced`` (a frontier vertex whose last
    neighbour is v) or, when that is None, on a new axis; folds in the edges
    from v to ``partners``; and sums out the vertices in ``done``.  Isolated
    vertices contribute a factor 1 and get no step.  Planning stops, with the
    steps so far, as soon as the frontier grows past ``max_width``.
    """
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    rest = set(range(g.n))
    remaining = [0] * g.n  # unintroduced neighbours of each frontier vertex
    closing = set()  # frontier vertices with one unintroduced neighbour left
    border = set()  # unintroduced neighbours of the frontier
    front, steps, width = [], [], 0
    while rest:
        v = min(border or rest, key=lambda c: (
            bool(adj[c] & rest) - len(adj[c] & closing), len(adj[c] & rest), c))
        rest.discard(v)
        border = (border | adj[v]) & rest
        if not adj[v]:
            continue
        earlier = [u for u in front if u in adj[v]]
        remaining[v] = len(adj[v] & rest)
        for u in earlier:
            remaining[u] -= 1
        done = [u for u in earlier if not remaining[u]]
        replaced = done.pop(0) if done else None
        if replaced is not None:
            front.remove(replaced)
        front.append(v)
        width = max(width, len(front))
        if width > max_width:
            break
        if not remaining[v]:
            done.append(v)
        for u in earlier + [v]:
            if remaining[u] == 1:
                closing.add(u)
            else:
                closing.discard(u)
        front = [u for u in front if u not in done]
        steps.append((v, replaced, [u for u in earlier if u != replaced], done))
    return steps, width


def _shift(poly, step):
    """Set ``poly[r] = step(poly[r], poly[r-1])`` for r = last..1, in place.

    ``step`` mixes entries along the last two axes at most.  Blocks of about
    ``_BLOCK`` entries go from the top coefficient down: several whole
    coefficients, or one index of the leading axes of a large one.  So every
    block reads ``poly[r-1]`` before it is overwritten, and no temporary
    holds more than one block.
    """
    per, lead = max(1, _BLOCK // poly[0].size), 0
    while lead < poly.ndim - 3 and poly[0].size >> 2 * lead > _BLOCK:
        lead += 1  # every axis after the first has length 4
    for hi in range(poly.shape[0], 1, -per):
        lo = max(1, hi - per)
        for index in np.ndindex(poly.shape[1:1 + lead]):
            cur = poly[(slice(lo, hi), *index)]
            cur[...] = step(cur, poly[(slice(lo - 1, hi - 1), *index)])


def _fold_edge(poly, a: int, b: int):
    """Multiply the polynomial tensor by 1 + t K along axes a and b, in place.

    ``poly[k]`` holds the t^(k+1) coefficient; t^0 is identically 1, so the
    new t^1 coefficient is ``poly[0] + K``.
    """
    moved = np.moveaxis(poly, (a, b), (-2, -1))
    _shift(moved, lambda cur, prev: cur + _K * prev)
    moved[0] += _K


def _replace_axis(poly, a: int):
    """Apply (J + t K) / 4 along axis a, in place.

    This sums out the vertex on axis a together with its edge to the vertex
    that takes the axis over: along that axis the new t^k coefficient is
    (J P_k + P_(k-1) K) / 4, with P_0 = 1, whose transform 1 K is (4, 0, 0, 0).
    """
    moved = np.moveaxis(poly, a, -1)
    _shift(moved, lambda cur, prev: cur.sum(-1, keepdims=True) + prev @ _K)
    moved[0] = moved[0].sum(-1, keepdims=True) + _K.sum(0)
    poly *= 0.25


def _check_range(g: Graph, level: int):
    """Refuse a level whose S_r, up to C(|E|, r), could leave the float64 range.

    Every contraction tensor entry at t^r stays within 4 C(|E|, r).
    """
    top = min(level, g.edge_count // 2)
    if 4 * comb(g.edge_count, top) > sys.float_info.max:
        raise SizeLimitError(
            f"overlap coefficients up to C({g.edge_count}, {top}) overflow float64"
            f" at level {level}")


def _sweep_seconds(g: Graph, level: int, width: int) -> float:
    """Estimated seconds of a sweep to t^level whose widest frontier is ``width``."""
    return g.edge_count * (4 ** width * level + PASS_ENTRIES) * _UPDATE_SECONDS


def _admitted_plan(g: Graph, level: int):
    """Steps of the sweep to t^level, refused if out of range, memory or time.

    The range is checked before the order is planned.  The widest tensor
    holds 4^w x level float64 entries.  Every edge is folded in by one shift
    over at most that many entries, in blocks of about ``_BLOCK``.  So a
    sweep makes about |E| x (4^w x level + PASS_ENTRIES) entry updates,
    with ``PASS_ENTRIES`` the fixed cost of a shift's first block, each
    charged ``_UPDATE_SECONDS``.  In process, with one BLAS thread, timed
    sweeps ran at 2-17 ns per estimated update: wide tensors the least
    (complete:10 at level 8), narrow ones the most (exact grid:3x200, 1 s).
    The estimate charges every edge at the widest frontier, so the longest
    admitted sweeps are long strips whose edges nearly all fold there:
    exact grid:5x114 took about 11 s, exact grid:8x9 about 6 s.  Narrower
    strips meet the range limit first.  The memory and time budgets give
    a widest admitted w, and planning stops as soon as the frontier grows
    past it, so a refusal reports the first width that failed, not the
    order's full width.
    """
    _check_range(g, level)
    admitted = -1
    while (4 ** (admitted + 1) * level * 8 <= MAX_TABLE_BYTES
           and _sweep_seconds(g, level, admitted + 1) <= MAX_SECONDS):
        admitted += 1
    steps, width = _contraction_plan(g, admitted)
    what = f"overlap contraction at frontier width {width}"
    check_table(what, 4 ** width * level, 8)  # width = admitted + 1 fails one check
    check_time(what, _sweep_seconds(g, level, width))
    return steps


def _count_seconds(g: Graph, level: int) -> float:
    """Estimated seconds of the level-``level`` cluster counts of ``g``.

    Levels <= 2 read the degrees only and are charged nothing.  Level 3
    builds the adjacency ints and makes one popcount of two n-bit ints per
    edge end, ``_END_SECONDS`` plus ``_END_BIT_SECONDS`` per vertex each.
    Level 4 adds the C4 tally: ``_PATH_END_SECONDS`` per two-step path end,
    sum_v d_v^2 of them, and ``_VERTEX_SECONDS`` for the ``Counter`` of each
    vertex.  Timed in process, level 3 ran at 0.5-1.1 us per edge end on
    complete:400 to complete:3957 and 1-7 us on grid:100x100 to
    grid:362x362; the level-4 path ends at 35-110 ns each (complete:400,
    star:11000).
    """
    if level < 3:
        return 0.0
    ends = 2 * g.edge_count
    seconds = ends * (_END_SECONDS + g.n * _END_BIT_SECONDS)
    if level >= 4:  # d^2 = 2 C(d, 2) + d
        seconds += (ends + 2 * g.star_counts[0]) * _PATH_END_SECONDS + g.n * _VERTEX_SECONDS
    return seconds


def _cluster_coefficients(g: Graph, level: int) -> tuple[float, ...]:
    """S_r for r = 0..level <= 4, from the counts of connected edge sets.

    S_r = [t^r] exp(sum_T N_T W_T(t)) over the connected types T of at most
    ``level`` edges, with the counts N_T of ``cluster_counts`` and the
    weights of ``_CLUSTER_WEIGHTS``.  With a_k = A_k / D the t^k coefficient
    of the sum, exp obeys r S_r = sum_k k a_k S_(r-k), so s_r = S_r D^r r!
    is the integer sum_k k A_k D^(k-1) (r-1)!/(r-k)! s_(r-k), and one int
    true division rounds S_r to float64 correctly.  Refused when the
    counts' estimate, ``_count_seconds``, is over the time budget.
    """
    check_time(f"level-{level} cluster count of n={g.n}", _count_seconds(g, level))
    counts = cluster_counts(g, level)
    logs = [sum(n * _CLUSTER_WEIGHTS[name][k] for name, n in counts.items())
            for k in range(level)]
    s = [1]
    for r in range(1, level + 1):
        s.append(sum(k * logs[k - 1] * _WEIGHT_DENOMINATOR ** (k - 1) * perm(r - 1, k - 1)
                     * s[r - k] for k in range(1, r + 1)))
    return tuple(s_r / (_WEIGHT_DENOMINATOR ** r * factorial(r)) for r, s_r in enumerate(s))


@lru_cache(maxsize=256)
def _level_coefficients(g: Graph, level: int) -> tuple[float, ...]:
    """S_r for r = 0..level: sums of squared overlaps over r removed edges.

    Up to level ``MAX_CLUSTER_LEVEL`` from the cluster counts; above it from
    the pattern spectrum when n and |E| are each at most ``_SPECTRUM_BITS``,
    else from the frontier contraction.
    """
    if level <= MAX_CLUSTER_LEVEL:
        return _cluster_coefficients(g, level)
    if max(g.n, g.edge_count) <= _SPECTRUM_BITS:
        return _spectrum_coefficients(g, level)
    return _contraction_coefficients(g, level)


def _spectrum_coefficients(g: Graph, level: int) -> tuple[float, ...]:
    """S_r for r = 0..level from the Walsh-Hadamard spectrum of u(x).

    With h the histogram of the patterns u(x), the transform of h at R is
    2^n <G|G-R>, an integer of modulus at most 2^n, as is every partial sum
    of the float64 transform, so it is exact.  The squares sum to 2^|E|
    sum_m h_m^2 <= 2^(|E| + 2n) (Parseval), at most 2^42 here, so the int64
    sums over the R of r bits are exact too; one true division by 4^n
    rounds each S_r.
    """
    size = 1 << g.edge_count
    check_table(f"overlap spectrum of |E|={g.edge_count}", size, 8)
    histogram = np.bincount(excitation_patterns(g), minlength=size).astype(np.float64)
    amplitudes = walsh_hadamard(histogram).astype(np.int64)
    sums = np.zeros(max(level, g.edge_count) + 1, dtype=np.int64)
    np.add.at(sums, np.bitwise_count(np.arange(size)), amplitudes * amplitudes)
    return tuple(int(s) / (1 << 2 * g.n) for s in sums[:level + 1])


def _contraction_coefficients(g: Graph, level: int) -> tuple[float, ...]:
    """S_r for r = 0..level from one sweep of the frontier contraction.

    The sweep contracts 4^-n sum_sigma prod_(i,j) (1 + t K(sigma_i, sigma_j))
    truncated at t^level; the t^r coefficient is S_r.
    """
    if level == 0:
        return (1.0,)
    steps = _admitted_plan(g, level)
    poly = np.zeros(level)
    axes = []  # vertex on each axis after the polynomial axis
    for v, replaced, partners, done in steps:
        if replaced is None:
            poly = np.repeat(poly[..., None], 4, axis=-1)
            axes.append(v)
        else:
            a = axes.index(replaced)
            _replace_axis(poly, a + 1)
            axes[a] = v
        for u in partners:
            _fold_edge(poly, axes.index(v) + 1, axes.index(u) + 1)
        for u in done:
            poly = np.add.reduce(poly, axis=axes.index(u) + 1)
            poly *= 0.25
            axes.remove(u)
    return (1.0, *poly.tolist())


def _overlap_function(g: Graph, level):
    """p -> overlap at ``level`` ('exact' or an int clamped to |E|); one lookup per query."""
    edges = g.edge_count
    top = edges if level == "exact" else min(int(level), edges)
    if top < 0:
        raise ValueError(f"level must be in [0, {edges}], got {top}")
    coeffs = _level_coefficients(g, top)
    return lambda p: sum(c * p ** (edges - r) * (1.0 - p) ** r for r, c in enumerate(coeffs))


def randomization_overlap(g: Graph, p: float) -> float:
    """Fidelity between |g> and its randomization: the full overlap polynomial."""
    return approx_overlap(g, p, g.edge_count)


def approx_overlap(g: Graph, p: float, level: int) -> float:
    """Truncation of the overlap sum to subgraphs missing at most ``level`` edges."""
    _check_p(p)
    if not 0 <= level <= g.edge_count:
        raise ValueError(f"level must be in [0, {g.edge_count}], got {level}")
    return _overlap_function(g, level)(p)


def approx_overlap_2level(g: Graph, p: float) -> float:
    """Closed form of the 2-level truncation from the edge and degree counts.

    For graphs with fewer than two edges the unavailable terms are dropped.
    """
    _check_p(p)
    e, m2_star = g.edge_count, g.star_counts[0]
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


def _witness_evaluation(g: Graph, p: float, level, constant: float,
                        graph_spec: str | None) -> WitnessEvaluation:
    """Evaluate the witness ``constant * 1 - |g><g|`` on the randomized state."""
    _check_p(p)
    ov = _overlap_function(g, level)(p)
    return WitnessEvaluation(
        graph_spec=graph_spec if graph_spec is not None else serialize_graph(g), p=p,
        level=str(level), overlap_value=ov, witness_value=constant - ov, constant_term=constant)


def gme_witness_value(g: Graph, p: float, level="exact",
                      graph_spec: str | None = None) -> WitnessEvaluation:
    """Expectation of the projector witness 1/2 - |g><g| on the randomized state.

    A negative value certifies genuine multipartite entanglement.
    """
    return _witness_evaluation(g, p, level, GME_CONSTANT, graph_spec)


def find_threshold(f, bracket=DEFAULT_BRACKET, tol: float = DEFAULT_THRESHOLD_TOL):
    """Bisection root of f(p) = 0 on ``bracket``; None without a sign change.

    On the default bracket [1/2, 1] the exact overlap is nondecreasing.
    rho_xy = 2^-n (1 - 2p)^popcount(u(x) XOR u(y)), |G> has the signs
    (-1)^popcount(u(x)), and the signs of x and y multiply to
    (-1)^popcount(u(x) XOR u(y)), so F(p) = <G|rho|G> = 4^-n sum_{x,y}
    (2p - 1)^popcount(u(x) XOR u(y)): each term, a power of 2p - 1 in
    [0, 1], grows with p.  For a truncation this is an observation, not a
    proof: no decrease was found at any level of 144 graphs (n <= 12) at
    2001 points.  Bisection stops at a bracket of width ``tol`` or when lo
    and hi are adjacent floats, whichever comes first.
    """
    _check_tol(tol)
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
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gme_threshold(g: Graph, level="exact", tol: float = DEFAULT_THRESHOLD_TOL):
    """Randomness threshold above which the (possibly truncated) witness is negative."""
    _check_tol(tol)  # before the coefficients
    overlap = _overlap_function(g, level)
    return find_threshold(lambda p: GME_CONSTANT - overlap(p), tol=tol)
