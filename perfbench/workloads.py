"""The four benchmark sessions: fixed graph lists, seed-drawn inputs, checked answers.

Each builder returns the session's queries in order.  A query is one call
into a public function of a layer.  Its check runs after the session's last
call, outside the timed region, and compares the answer with an independent
value from ``oracles`` (or, where none exists, with a stored reference
value).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from rgstates import cli, density, lhv, sampler, state, witness
from rgstates.graph import parse_graph

import oracles as orc

REF = orc.REFERENCES


@dataclass
class Query:
    name: str  # "<module>.<function>" of the entry point called
    call: Callable[[], object]
    check: Callable[[object], bool]
    bucket: str | None = None  # per-layer time metric the call adds to
    sizes: dict = field(default_factory=dict)  # input sizes, recorded on its span


def sizes(g) -> dict:
    return {"n": g.n, "edges": g.edge_count}


@dataclass
class Context:
    rng: random.Random
    out_dir: Path
    threads: int
    graphs: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)

    def keep(self, key, value):
        self.kept[key] = value
        return value


def run_cli(argv) -> str:
    """One CLI invocation; its stdout is the result, a nonzero exit raises."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"exit code {code} from {argv!r}")
    return buf.getvalue()


def csv_rows(stdout: str):
    path = Path(json.loads(stdout)["written"])
    lines = path.read_text().splitlines()[1:]
    return [[None if cell == "" else cell for cell in line.split(",")] for line in lines]


def same(value, expected, tol) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    return abs(float(value) - expected) <= tol


def figure_query(ctx, target, row_ok):
    def check(stdout):
        rows = csv_rows(stdout)
        return bool(rows) and all(row_ok(row) for row in rows)
    return Query("cli.main", lambda: run_cli(
        ["figs", "--target", target, "--out-dir", ctx.out_dir,
         "--threads", ctx.threads]), check)


# ------------------------------------------------------------------ thresholds

THRESHOLD_SPECS = ("star:6", "star:9", "path:10", "path:12", "cycle:10",
                   "cycle:12", "grid:3x3", "grid:2x5", "grid:5x5",
                   "grid3:3x3x3", "grid:4x4", "grid:4x5", "cycle:20")


def thresholds(ctx: Context):
    G, rng, tol = ctx.graphs, ctx.rng, orc.THRESHOLD_TOL
    queries = []

    def p_w(spec, expected):
        queries.append(Query(
            "witness.gme_threshold", lambda: witness.gme_threshold(G[spec]),
            lambda v: same(v, expected(), tol), "witness.exact_s", sizes(G[spec])))

    def p_f(spec, level):
        queries.append(Query(
            "witness.gme_threshold",
            lambda: witness.gme_threshold(G[spec], level=level),
            lambda v: same(v, REF["p_F"][f"{spec}@{level}"], tol), "witness.level_s",
            sizes(G[spec])))

    for n in (6, 9):
        p_w(f"star:{n}", lambda n=n: orc.star_p_w(n))
    for n in (10, 12):
        p_w(f"path:{n}", lambda n=n: orc.path_p_w(n))
    for n in (10, 12):
        p_w(f"cycle:{n}", lambda n=n: orc.ring_p_w(n))
    for spec in ("grid:3x3", "grid:2x5"):
        p_w(spec, lambda spec=spec: REF["p_w"][spec])

    # coefficients of path:12 and cycle:12 are cached by now
    for p in sorted(rng.uniform(0.5, 1.0) for _ in range(3)):
        queries.append(Query(
            "witness.randomization_overlap",
            lambda p=p: witness.randomization_overlap(G["path:12"], p),
            lambda v, p=p: same(v, witness.overlap_linear_closed(12, p),
                                orc.CLOSED_FORM_TOL), "witness.warm_s", sizes(G["path:12"])))
    start = rng.uniform(0.45, 0.49)
    grid = [start + 0.01 * k for k in range(51)]
    queries.append(Query(
        "witness.randomization_overlap",
        lambda: [witness.randomization_overlap(G["cycle:12"], p) for p in grid],
        lambda vs: all(same(v, orc.ring_overlap(12, p), orc.CLOSED_FORM_TOL)
                       for v, p in zip(vs, grid)), "witness.warm_s", sizes(G["cycle:12"])))

    p_f("grid:5x5", 3)
    p_f("grid3:3x3x3", 3)
    p_f("grid:4x4", 4)

    queries.append(Query(
        "state.empty_overlap", lambda: state.empty_overlap(G["grid:4x5"]),
        lambda v: v == REF["empty_overlap"]["grid:4x5"], sizes=sizes(G["grid:4x5"])))
    queries.append(Query(
        "state.empty_overlap", lambda: state.empty_overlap(G["cycle:20"]),
        lambda v: v * v == state.closed_form_overlap_sq("cycle:20"), sizes=sizes(G["cycle:20"])))

    queries.append(figure_query(ctx, "fig5", lambda r: (
        same(r[1], orc.ring_p_w(int(r[0])), tol)
        and same(r[2], orc.level2_threshold(parse_graph(f"cycle:{r[0]}")), tol))))
    queries.append(figure_query(ctx, "fig6", lambda r: same(
        r[2], orc.level2_threshold(parse_graph(f"grid:{r[0]}x{r[1]}")), tol)))
    return queries


# --------------------------------------------------------------------- density

DENSITY_SPECS = ("complete:5", "grid:2x4", "grid:3x3", "star:10")


def density_session(ctx: Context):
    G, rng = ctx.graphs, ctx.rng
    queries = []
    for spec in DENSITY_SPECS:
        g = G[spec]
        p = rng.uniform(0.55, 0.85)
        cut = density.Bipartition(g.n, rng.randrange(1, (1 << g.n) - 1))
        # closed-form matrix, built once in the first check that needs it
        exact = cache(lambda g=g, p=p: orc.randomized_density(g, p))
        queries.append(Query(
            "density.randomize", lambda g=g, p=p, spec=spec:
                ctx.keep(spec, density.randomize(g, p)),
            lambda rho, exact=exact: np.allclose(
                rho.entries, exact(), atol=orc.CLOSED_FORM_TOL, rtol=0.0),
            "density.randomize_s", sizes(g)))
        queries.append(Query(
            "density.negativity", lambda spec=spec, cut=cut:
                density.negativity(ctx.kept[spec], cut),
            lambda v, exact=exact, cut=cut: same(
                v, orc.negativity(exact(), cut.side_a), orc.EIGEN_TOL),
            "density.eig_s", sizes(g)))
        queries.append(Query(
            "density.numerical_rank", lambda spec=spec:
                density.numerical_rank(ctx.kept[spec]),
            lambda r, g=g: r == orc.subgraph_dimension(g), "density.eig_s", sizes(g)))
    # grid:3x3 is left out here: see README.md, "Inputs kept out"
    for spec in ("complete:5", "grid:2x4", "star:10"):
        g = G[spec]
        queries.append(Query(
            "density.subgraph_space_dimension",
            lambda g=g: density.subgraph_space_dimension(g),
            lambda d, g=g: d == orc.subgraph_dimension(g), "density.dim_s", sizes(g)))
    p = rng.uniform(0.55, 0.85)
    queries.append(Query(
        "cli.main", lambda: run_cli(["rank", "--graph", "grid:2x4", "--p", repr(p)]),
        lambda out: json.loads(out)["rank"] == orc.subgraph_dimension(G["grid:2x4"])))
    return queries


# ------------------------------------------------------------------------- lhv

LHV_SPECS = ("cycle:8", "grid:2x4")


def lhv_session(ctx: Context):
    G, rng = ctx.graphs, ctx.rng
    queries = []
    for spec in LHV_SPECS:
        g = G[spec]
        d = REF["D"][spec]
        assignments = [lhv.LhvAssignment(*(tuple(rng.choice((-1, 1)) for _ in range(g.n))
                                           for _ in range(3))) for _ in range(4)]
        queries.append(Query(
            "lhv.lhv_bound", lambda g=g: lhv.lhv_bound(g),
            lambda v, g=g, d=d, asg=assignments: (
                v == d and (v * (1 << g.n)).is_integer()
                and all(abs(lhv.bell_expectation_lhv(g, a)) <= v for a in asg)),
            "lhv.bound_s", sizes(g)))
        queries.append(Query(
            "lhv.lhv_threshold", lambda g=g, d=d: lhv.lhv_threshold(g, level=2, d=d),
            lambda v, g=g, d=d: same(v, orc.level2_threshold(g, d), orc.THRESHOLD_TOL),
            "lhv.threshold_s", sizes(g)))
        for p in (rng.uniform(0.5, 1.0) for _ in range(3)):
            queries.append(Query(
                "lhv.lhv_witness_value",
                lambda g=g, d=d, p=p: lhv.lhv_witness_value(g, p, 2, d),
                lambda ev, g=g, d=d, p=p: same(
                    ev.witness_value, d - witness.approx_overlap_2level(g, p),
                    orc.CLOSED_FORM_TOL), sizes=sizes(g)))
    queries.append(figure_query(ctx, "fig9", lambda r: (
        float(r[2]) == REF["D"][f"{r[0]}:{r[1]}"]
        and same(r[3], orc.level2_threshold(parse_graph(f"{r[0]}:{r[1]}"),
                                            REF["D"][f"{r[0]}:{r[1]}"]),
                 orc.THRESHOLD_TOL))))
    return queries


# -------------------------------------------------------------------- sampling

SAMPLING_SPECS = ("path:10", "grid:5x5", "grid:3x3", "path:6")


def sampling(ctx: Context):
    G, rng, threads = ctx.graphs, ctx.rng, ctx.threads
    queries = []

    def sample(key, spec, p, shots, bucket=None, threads=threads):
        seed = rng.randrange(1 << 63)
        g = G[spec]

        def check(s):
            return orc.edge_frequencies_ok(s.mask_counts(), g.edge_count, p, shots)
        queries.append(Query(
            "sampler.sample_preparation",
            lambda: ctx.keep(key, sampler.sample_preparation(g, p, shots, seed,
                                                             threads=threads)),
            check, bucket, sizes(g)))
        return seed

    # few patterns: 2^9 masks, the RNG dominates
    sample("few", "path:10", rng.uniform(0.55, 0.85), 4_000_000, "sampler.few_patterns_s")
    p = rng.uniform(0.55, 0.85)
    seed = sample("serial", "path:10", p, 500_000, "sampler.few_patterns_s", threads=1)
    queries.append(Query(
        "sampler.sample_preparation",
        lambda: sampler.sample_preparation(G["path:10"], p, 500_000, seed,
                                           threads=threads),
        lambda s: s.counts == ctx.kept["serial"].counts, "sampler.few_patterns_s",
        sizes(G["path:10"])))

    # many patterns: nearly every one of 4*10^5 shots is a distinct 40-bit mask
    p_many = rng.uniform(0.5, 0.6)
    sample("many", "grid:5x5", p_many, 400_000, "sampler.many_patterns_s")

    def json_ok(text):
        doc = json.loads(text)
        return (doc["shots"] == 400_000 and doc["p"] == p_many
                and {int(k, 16): c for k, c in doc["counts"].items()}
                == ctx.kept["many"].mask_counts())
    queries.append(Query(
        "sampler.sample_to_json",
        lambda: sampler.sample_to_json(ctx.kept["many"], graph_spec="grid:5x5", p=p_many),
        json_ok, "sampler.json_s", sizes(G["grid:5x5"])))

    # sampled weights through the density layer: ~1.4e3 distinct masks of 2^12
    g = G["grid:3x3"]
    sample("small", "grid:3x3", rng.uniform(0.70, 0.71), 4000)
    emp = cache(lambda: orc.mixture_density(g, {
        m: c / 4000 for m, c in ctx.kept["small"].mask_counts().items()}))
    queries.append(Query(
        "sampler.empirical_state",
        lambda: ctx.keep("rho", sampler.empirical_state(ctx.kept["small"], g)),
        lambda rho: np.allclose(rho.entries, emp(), atol=orc.CLOSED_FORM_TOL, rtol=0.0),
        "density.empirical_s", sizes(g)))
    cut = density.Bipartition(g.n, rng.randrange(1, (1 << g.n) - 1))
    queries.append(Query(
        "density.negativity", lambda: density.negativity(ctx.kept["rho"], cut),
        lambda v: same(v, orc.negativity(emp(), cut.side_a), orc.EIGEN_TOL),
        "density.eig_s", sizes(g)))

    p_cli, seed_cli = rng.uniform(0.55, 0.85), rng.randrange(1 << 63)

    def cli_ok(out):
        doc = json.loads(out)
        counts = {int(k, 16): c for k, c in doc["counts"].items()}
        return (doc["seed"] == seed_cli and orc.edge_frequencies_ok(
            counts, G["path:6"].edge_count, p_cli, 200_000))
    queries.append(Query("cli.main", lambda: run_cli(
        ["sample", "--graph", "path:6", "--p", repr(p_cli), "--shots", 200_000,
         "--seed", seed_cli, "--threads", threads]), cli_ok))
    return queries


WORKLOADS = {
    "thresholds": (THRESHOLD_SPECS, thresholds),
    "density": (DENSITY_SPECS, density_session),
    "lhv": (LHV_SPECS, lhv_session),
    "sampling": (SAMPLING_SPECS, sampling),
}
