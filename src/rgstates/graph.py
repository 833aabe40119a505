"""Graphs as immutable edge sets; adjacency bitmasks and degrees on demand.

Vertices are 0-indexed everywhere.  Edges are unordered pairs stored in a
canonical lexicographic order, which pins down the meaning of edge bitmasks
across runs and serializations.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, pairwise
from math import comb, prod
from pathlib import Path

import numpy as np

from .errors import GraphSpecError, SizeLimitError, check_table

# Exact minimum-vertex-cover search is capped; it only serves as an upper
# bound on persistency, never as a large-scale primitive.
MAX_COVER_VERTICES = 24
# Adjacency ints take about n^2/16 bytes (1 GiB at the cap) on a banded graph.
MAX_VERTICES = 2 ** 17

_FAMILY_RE = re.compile(r"^([a-z0-9]+):(.+)$")


def _check_vertex_count(n: int):
    """Refuse more than ``MAX_VERTICES`` vertices before any edge is listed."""
    if n > MAX_VERTICES:
        raise SizeLimitError(
            f"graph with n={n} vertices needs about {n * n // 16} bytes of adjacency"
            f" bitmasks; the limit is n={MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``n`` vertices.

    ``edges`` is normalized to a sorted tuple of ``(i, j)`` pairs with ``i < j``;
    ``adjacency[v]``, the neighbor bitmask of vertex ``v``, the ``degrees`` and
    the ``star_counts`` derived from them are each built once, on first read.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphSpecError(f"vertex count must be positive, got {self.n}")
        _check_vertex_count(self.n)
        check_table(f"edge list of n={self.n}", len(self.edges), 16)  # int64 pairs
        canon = []
        for e in self.edges:
            i, j = e
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphSpecError(f"edge {e!r} out of range for n={self.n}")
            if i == j:
                raise GraphSpecError(f"self-loop at vertex {i}")
            canon.append((i, j) if i < j else (j, i))
        canon.sort()
        for (a, b), e in pairwise(canon):  # a duplicate sorts next to its twin
            if (a, b) == e:
                raise GraphSpecError(f"duplicate edge ({a}, {b})")
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    @cached_property
    def star_counts(self) -> tuple[int, int, int]:
        """Subgraphs K1,2 (= P3), K1,3 and K1,4: sum_v C(d_v, k) for k = 2, 3, 4."""
        histogram = Counter(self.degrees).items()
        return tuple(sum(c * comb(d, k) for d, c in histogram) for k in (2, 3, 4))


def _positive_sizes(parts, spec, minimum=1):
    try:
        sizes = [int(s) for s in parts]
    except ValueError:
        raise GraphSpecError(f"non-integer size in {spec!r}") from None
    if any(s < minimum for s in sizes):
        raise GraphSpecError(f"size out of range in {spec!r}")
    return sizes


# spec form of each family; the lattices take one size per axis
_FORMS = {"empty": "N", "complete": "N", "star": "N", "path": "N", "cycle": "N",
          "grid": "MxN", "grid3": "IxJxK"}


def _lattice_edges(sizes, wrap: bool) -> tuple[tuple[int, int], ...]:
    """Each vertex of the row-major lattice ``arange(n).reshape(sizes)`` paired
    with its successor along every axis, plus (0, n - 1) if ``wrap``."""
    lattice = np.arange(prod(sizes)).reshape(sizes)
    first, second = ([0], [lattice.size - 1]) if wrap else ([], [])  # Python ints, for JSON
    for axis in range(lattice.ndim):
        lines = lattice.swapaxes(0, axis)
        first += lines[:-1].ravel().tolist()
        second += lines[1:].ravel().tolist()
    return tuple(zip(first, second))


def generate(spec: str, check_size=None) -> Graph:
    """Build a named graph family from a ``family:size`` descriptor.

    Families: ``empty:N``, ``complete:N``, ``star:N`` (center = vertex 0),
    ``path:N``, ``cycle:N`` (N >= 3), ``grid:MxN``, ``grid3:IxJxK``.  The
    last four are one nearest-neighbour lattice in 1, 2 or 3 dimensions,
    numbered row-major, with ``cycle`` closed into a ring.  The vertex cap,
    the edge list's table budget and ``check_size``, if given, called with
    the family's n and |E|, are checked before any edge is listed.
    """
    m = _FAMILY_RE.match(spec.strip())
    if not m:
        raise GraphSpecError(f"cannot parse graph spec {spec!r}")
    family, arg = m.groups()
    form = _FORMS.get(family)
    if form is None:
        raise GraphSpecError(f"unknown graph family {family!r}")
    parts = [arg] if form == "N" else arg.split("x")
    if len(parts) != len(form.split("x")):
        raise GraphSpecError(f"{family} spec needs {form}, got {spec!r}")
    sizes = _positive_sizes(parts, spec, minimum=3 if family == "cycle" else 1)
    n = prod(sizes)
    _check_vertex_count(n)
    lattice = sum((s - 1) * n // s for s in sizes) + (family == "cycle")
    edges = {"empty": 0, "complete": comb(n, 2), "star": n - 1}.get(family, lattice)
    check_table(f"edge list of n={n}", edges, 16)
    if check_size is not None:
        check_size(n, edges)
    if family == "empty":
        return Graph(n, ())
    if family == "complete":
        return Graph(n, tuple(combinations(range(n), 2)))
    if family == "star":
        return Graph(n, tuple((0, i) for i in range(1, n)))
    return Graph(n, _lattice_edges(sizes, wrap=family == "cycle"))


def symmetric_difference(g: Graph, f: Graph) -> Graph:
    """Graph keeping the edges present in exactly one of ``g``, ``f``."""
    if g.n != f.n:
        raise ValueError(f"vertex counts differ: {g.n} != {f.n}")
    return Graph(g.n, tuple(set(g.edges) ^ set(f.edges)))


def cluster_counts(g: Graph, max_edges: int) -> dict[str, int]:
    """Connected edge sets of ``g`` with at most ``max_edges`` <= 4 edges, by type.

    The types are K2, P3 (two edges), P4, K1,3, K3 (three), P5, chair, K1,4,
    C4 and paw (four); a type with more than ``max_edges`` edges is left
    out.  Each count is a closed formula in the degrees d_v, the triangles
    t_v at each vertex (from the common neighbours of each edge's ends) and,
    for C4, the common neighbours c_uw of every pair u < w two steps apart:
    C4 = sum_(u<w) C(c_uw, 2) / 2.  c_uw is the number of two-step paths from
    u that end at w, tallied per u.  The work is about sum_v d_v neighbour
    popcounts up to three edges, plus sum_v d_v^2 path ends at four.
    """
    p3, k13, k14 = g.star_counts
    counts = {"K2": g.edge_count, "P3": p3}
    if max_edges < 3:
        return counts
    adj, deg = g.adjacency, g.degrees
    twice_t = [0] * g.n  # 2 t_v: common neighbours summed over the edges at v
    p4 = chair = 0
    arms, arms_sq = [0] * g.n, [0] * g.n  # sum and square sum of d_b - 1, b ~ v
    for u, v in g.edges:
        common = (adj[u] & adj[v]).bit_count()
        twice_t[u] += common
        twice_t[v] += common
        du, dv = deg[u] - 1, deg[v] - 1
        p4 += du * dv
        chair += comb(du, 2) * dv + comb(dv, 2) * du
        arms[u] += dv
        arms[v] += du
        arms_sq[u] += dv * dv
        arms_sq[v] += du * du
    triangles = sum(twice_t) // 6
    counts.update({"P4": p4 - 3 * triangles, "K1,3": k13, "K3": triangles})
    if max_edges < 4:
        return counts
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    twice_c4 = 0
    for u in range(g.n):
        ends = Counter(w for x in neighbours[u] for w in neighbours[x] if w > u)
        twice_c4 += sum(comb(c, 2) for c in ends.values())
    c4 = twice_c4 // 2
    paw = sum(t * (d - 2) for t, d in zip(twice_t, deg)) // 2
    p5 = (sum((s * s - q) // 2 for s, q in zip(arms, arms_sq))
          - sum(t * d for t, d in zip(twice_t, deg)) + 9 * triangles - 4 * c4)
    counts.update({"P5": p5, "chair": chair - 2 * paw,
                   "K1,4": k14, "C4": c4, "paw": paw})
    return counts


def _check_cover_vertices(n: int) -> None:
    if n > MAX_COVER_VERTICES:
        raise SizeLimitError(f"exact vertex cover capped at n={MAX_COVER_VERTICES}, got n={n}")


def min_vertex_cover(g: Graph) -> int:
    """Size of a minimum vertex cover, by one exact recursion on the alive vertices.

    A vertex of degree 1 puts its neighbour in the cover with no branch:
    some minimum cover holds it.  Otherwise a vertex ``top`` of maximum
    degree d is branched on: either it joins the cover or its d neighbours
    do.  At d = 2 what is left is disjoint cycles, each branched on once;
    at d >= 3 the leaves grow as T(n) <= T(n - 1) + T(n - 4), a few
    thousand at the cap of ``MAX_COVER_VERTICES`` vertices.
    """
    _check_cover_vertices(g.n)
    adj = g.adjacency

    def cover(alive):
        top, top_degree = -1, 0
        for v in range(g.n):
            d = (adj[v] & alive).bit_count() if alive >> v & 1 else 0
            if d == 1:
                return 1 + cover(alive & ~(adj[v] | 1 << v))
            if d > top_degree:
                top, top_degree = v, d
        if top_degree == 0:
            return 0
        rest = alive & ~(1 << top)
        return min(1 + cover(rest), top_degree + cover(rest & ~adj[top]))

    return cover((1 << g.n) - 1)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is an int here


def _graph_from_json(doc) -> Graph:
    if not (isinstance(doc, dict) and set(doc) == {"n", "edges"}
            and isinstance(doc["edges"], list)):
        raise GraphSpecError('graph JSON must be {"n": int, "edges": [[i,j],...]}')
    n = doc["n"]
    if not _is_int(n):
        raise GraphSpecError("graph JSON field 'n' must be an integer")
    edges = []
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e)):
            raise GraphSpecError(f"bad edge entry {e!r}")
        i, j = e
        if not i < j:
            raise GraphSpecError(f"edge [{i}, {j}] must satisfy i < j")
        edges.append((i, j))
    return Graph(n, tuple(edges))


def parse_graph(text: str, check_size=None) -> Graph:
    """Parse a graph from a family spec, a JSON document, or ``file:PATH``.

    ``check_size`` is called with a family spec's n and |E| before its edges
    are listed (see ``generate``); it is not called on a document's graph."""
    s = text.strip()
    if s.startswith("{"):
        try:
            doc = json.loads(s)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphSpecError(f"invalid graph JSON: {exc}") from None
        return _graph_from_json(doc)
    if s.startswith("file:"):
        path = Path(s[len("file:"):])
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise GraphSpecError(f"cannot read graph file {path}: {exc}") from None
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise GraphSpecError(f"invalid graph JSON in {path}: {exc}") from None
        return _graph_from_json(doc)
    return generate(s, check_size)


def serialize_graph(g: Graph) -> str:
    """Canonical JSON document for ``g``; ``parse_graph`` round-trips it."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]},
                      separators=(",", ":"))
