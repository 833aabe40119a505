"""One benchmark session in a fresh interpreter: set up, run the queries, report.

Started by ``run.py``; not meant to be run by hand.  Prints a ``ready`` line
when set-up is done and, unless ``--setup-only``, one result line when the
session ends.  With ``--trace 1`` every call that crosses a module boundary
inside ``rgstates`` is wrapped in a span, the spans are reduced to per-layer
metrics, and they are written to ``<out>/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import itertools
import json
import os
import platform
import random
import resource
import sys
import threading
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("graph", "state", "density", "witness", "lhv", "sampler", "cli")


class Span:
    __slots__ = ("id", "name", "parent", "query", "start", "end", "attrs")

    def __init__(self, sid, name, parent, query, attrs):
        self.id, self.name, self.parent, self.query = sid, name, parent, query
        self.start = self.end = 0.0
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory until the session ends; one stack per thread."""

    def __init__(self):
        from rgstates.density import DensityMatrix
        from rgstates.graph import Graph
        from rgstates.sampler import PreparationSample
        self._graph, self._matrix, self._sample = Graph, DensityMatrix, PreparationSample
        self.spans: list[Span] = []
        self.query = None  # id of the query span being run
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._built = set()

    def describe(self, args) -> dict:
        """Size attributes of a call's arguments, recorded at the layer boundary."""
        attrs = {}
        for arg in args:
            if isinstance(arg, self._graph):
                attrs.setdefault("n", arg.n)
                attrs.setdefault("edges", arg.edge_count)
            elif isinstance(arg, self._matrix):
                attrs.setdefault("n", arg.n)
            elif isinstance(arg, dict):
                attrs.setdefault("entries", len(arg))
            elif isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], int):
                attrs.setdefault("n", len(arg))  # an adjacency list
        return attrs

    def run(self, name, fn, args=(), kwargs=None, attrs=None, query=False):
        """Call fn inside a span; a query span becomes the parent of later spans."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if query:
            self.query = sid
        parent = None if query else stack[-1] if stack else self.query
        span = Span(sid, name, parent, self.query, {**self.describe(args), **(attrs or {})})
        self.spans.append(span)
        stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if isinstance(result, str):
            span.attrs["out_bytes"] = len(result.encode())
        elif isinstance(result, self._sample):
            span.attrs["out_shots"] = result.shots
            span.attrs["out_distinct"] = len(result.counts)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs)
        return traced

    def instrument(self):
        """Wrap every function one rgstates module imported from another."""
        for layer in LAYERS:
            mod = importlib.import_module(f"rgstates.{layer}")
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and home.startswith("rgstates.")
                        and home != mod.__name__):
                    name = f"{home.removeprefix('rgstates.')}.{obj.__name__}"
                    setattr(mod, attr, self.wrap(name, obj))
        # cold coefficient builds are counted where the cache sits
        witness = importlib.import_module("rgstates.witness")
        cached = getattr(witness, "_level_coefficients", None)
        if cached is not None:
            def coefficients(g, level):
                with self._lock:
                    cold = (g, level) not in self._built
                    self._built.add((g, level))
                subsets = sum(comb(g.edge_count, r) for r in range(level + 1)) if cold else 0
                return self.run("witness._level_coefficients", cached, (g, level),
                                attrs={"subsets": subsets})
            witness._level_coefficients = coefficients

    def write(self, path: Path, header: dict):
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                      "query": s.query, "start": s.start,
                                      "end": s.end, **s.attrs}) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer busy time, call counts and computed work counts of one session.

    A count whose size attribute is missing (the call's signature changed) is
    left out rather than guessed.
    """
    by_id = {s.id: s for s in spans}

    def outermost(s):
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.layer == s.layer:
                return False
            parent = by_id.get(parent.parent)
        return True

    m = {}

    def add(name, value):
        m[name] = m.get(name, 0) + value

    for s in spans:
        a, name = s.attrs, s.name
        if a.get("setup"):
            if name == "graph.parse_graph":
                add("graph.parse_s", s.duration)
            continue
        if "bucket" in a:  # a query issued by the benchmark
            if a["bucket"]:
                add(a["bucket"], s.duration)
            if s.layer == "cli":
                add("cli.calls", 1)
                add("cli.busy_s", s.duration)
                add("cli.stdout_bytes", a.get("out_bytes", 0))
        if s.layer == "state" and outermost(s):
            add("state.calls", 1)
            add("state.busy_s", s.duration)
            add("state.basis_strings", 1 << a.get("n", 0))
        if name == "witness._level_coefficients":
            add("witness.subsets", a["subsets"])
        if name == "density.randomize" and "edges" in a:
            terms = 1 << a["edges"]
            add("density.mixture_terms", terms)
            add("density.entries_computed", terms << (2 * a["n"]))
        if name == "density.subgraph_mixture" and "entries" in a and "n" in a:
            add("density.mixture_terms", a["entries"])
            add("density.entries_computed", a["entries"] << (2 * a["n"]))
        if name in ("density.negativity", "density.numerical_rank") and "n" in a:
            add("density.eig_dim", 1 << a["n"])
        if name == "density.subgraph_space_dimension" and "edges" in a:
            add("density.gram_entries", 1 << (2 * a["edges"]))
        if name == "lhv.lhv_bound" and "n" in a:
            entries = 1 << (3 * a["n"])
            add("lhv.wht_entries", entries)
            # 3n radix-2 passes, each reading and writing every int64 entry once
            add("lhv.wht_bytes_computed", entries * 8 * 2 * 3 * a["n"])
        if name == "sampler.sample_preparation" and "out_shots" in a and outermost(s):
            add("shots", a["out_shots"])
            add("sample_s", s.duration)
            add("sampler.distinct_masks", a["out_distinct"])
        if name == "sampler.sample_to_json":
            add("sampler.json_bytes", a.get("out_bytes", 0))
    shots, sample_s = m.pop("shots", 0), m.pop("sample_s", 0)
    if shots:
        m["sampler.shots_per_s"] = shots / sample_s
        m["sampler.distinct_ratio"] = m["sampler.distinct_masks"] / shots
    return m


def run_environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    try:
        import numpy as np
        import rgstates
        from rgstates.graph import parse_graph
    except ImportError as exc:
        print(f"session: cannot import the package: {exc}", file=sys.stderr)
        return 3
    if not Path(rgstates.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"session: imported {rgstates.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 3
    from workloads import WORKLOADS, Context

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.instrument()
    specs, build = WORKLOADS[args.workload]
    ctx = Context(random.Random(f"{args.workload}:{args.seed}"), args.out, args.threads)

    def set_up():
        for spec in specs:
            ctx.graphs[spec] = (tracer.run("graph.parse_graph", parse_graph, (spec,),
                                           attrs={"setup": True})
                                if tracer else parse_graph(spec))
        np.linalg.eigvalsh(np.eye(4))  # LAPACK's lazy start-up is set-up, not query time
        return build(ctx)

    queries = tracer.run("benchmark.setup", set_up, attrs={"setup": True}) if tracer else set_up()
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "queries": len(queries), "env": run_environment()}),
          flush=True)
    if args.setup_only:
        return 0

    times, results = [], []
    for q in queries:
        start = time.perf_counter()
        try:
            if tracer:
                result = tracer.run(q.name, q.call, attrs={"bucket": q.bucket, **q.sizes},
                                    query=True)
            else:
                result = q.call()
        except Exception as exc:  # a failed query is counted, the session goes on
            result = exc
        times.append(time.perf_counter() - start)
        results.append(result)
    # read before the checks run, so that their memory is not charged to the session
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:  # before the checks, whose library calls would add spans
        layers = layer_metrics(tracer.spans)
        tracer.write(args.out / f"trace-{args.workload}-{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, **run_environment()})

    failures = []
    for index, (q, result) in enumerate(zip(queries, results)):
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            try:
                problem = None if q.check(result) else "answer failed its check"
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append({"query": index, "name": q.name, "problem": problem})

    failed_layers = {}
    for f in failures:
        key = f"{f['name'].split('.')[0]}.failed"
        failed_layers[key] = failed_layers.get(key, 0) + 1
    report = {
        "wall_s": sum(times),
        "query_s": times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(queries),
        "failures": failures,
        "failed_layers": failed_layers,
    }
    if tracer:
        report["layers"] = layers
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
