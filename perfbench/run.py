#!/usr/bin/env python3
"""Benchmark of the rgstates library: closed-loop query sessions, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each session runs in a fresh interpreter (so the coefficient cache starts
cold, as for a command-line user) against ``src/`` of the checkout.  Sessions
repeat until the next one would end after ``--seconds``, with at least three
untraced ones.  The last line of stdout is one JSON object with the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics (``--trace 1``, which alternates untraced and traced sessions).
``--workload all`` runs every workload in turn and prints one such line for
each, with a ``workload`` key added.  Progress and the run environment go to
stderr.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_ONLY_RUNS = 3  # extra interpreter starts, so set-up has enough samples
MIN_SESSIONS = 3  # untraced sessions in a run without tracing
MIN_TRACED_PAIRS = 2  # untraced and traced sessions each, in a run with tracing
RUN_LIMIT_S = 150  # no session starts after this, so a run ends well within 180 s


def commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One BLAS thread: at two, a 256x256 eigvalsh was seen to stall for ~0.5 s
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class SessionError(Exception):
    """A session child could not set up: the package is missing or broken."""


def spawn(workload, seed, threads, env, timeout, traced=False, setup_only=False):
    """Run one session child; returns (setup seconds, ready line, report or None)."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--threads", str(threads), "--out", str(OUT.relative_to(ROOT))]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise SessionError(f"session exceeded {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    ready = json.loads(lines[0]) if lines and lines[0].startswith('{"ready"') else None
    if ready is None:
        raise SessionError(f"session exited with {proc.returncode} before set-up ended")
    report = json.loads(lines[-1]) if proc.returncode == 0 and len(lines) > 1 else None
    return ready["ready"] - start, ready, report


def measure(workload, seed, seconds, trace, spec, threads, env) -> dict:
    """One run of one workload: the result object the benchmark prints."""
    start = time.monotonic()
    deadline = start + seconds
    setups, walls, rss, traced_walls, layer_runs, query_s = [], [], [], [], [], []
    attempted = failed = 0
    failed_layers: dict[str, int] = {}
    for _ in range(SETUP_ONLY_RUNS):
        setup_s, ready, _ = spawn(workload, seed, threads, env, 60, setup_only=True)
        setups.append(setup_s)
    print(f"run.py: env {json.dumps({**ready['env'], 'commit': commit()})}", file=sys.stderr)
    session_s = []
    while True:
        traced = trace and len(traced_walls) < len(walls)
        t0 = time.monotonic()
        remaining = start + RUN_LIMIT_S + 25 - t0
        setup_s, ready, report = spawn(workload, seed, threads, env, remaining, traced=traced)
        session_s.append(time.monotonic() - t0)
        if report is None:  # the child died mid-session: all its queries fail
            attempted += ready["queries"]
            failed += ready["queries"]
            print("run.py: session died after set-up", file=sys.stderr)
            break
        attempted += report["attempted"]
        failed += len(report["failures"])
        for key, count in report["failed_layers"].items():
            failed_layers[key] = failed_layers.get(key, 0) + count
        for f in report["failures"]:
            print(f"run.py: FAILED {f}", file=sys.stderr)
        if traced:
            traced_walls.append(report["wall_s"])
            layer_runs.append(report["layers"])
        else:
            setups.append(setup_s)
            walls.append(report["wall_s"])
            query_s.append(report["query_s"])
            rss.append(report["peak_rss_mb"])
        print(f"run.py: {workload} {'traced' if traced else 'session'} wall_s="
              f"{report['wall_s']:.3f} setup_s={setup_s:.3f}", file=sys.stderr)
        now, next_s = time.monotonic(), statistics.median(session_s)
        enough = (len(traced_walls) >= MIN_TRACED_PAIRS if trace
                  else len(walls) >= MIN_SESSIONS)
        if (enough and now + next_s > deadline) or now + next_s > start + RUN_LIMIT_S:
            break
    if not walls or (trace and not traced_walls):
        raise SessionError("no session completed")

    if trace:
        values = {name: statistics.median(run.get(name, 0) for run in layer_runs)
                  for name in {k for run in layer_runs for k in run}}
        values.update(failed_layers)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        wanted = spec["per_layer"]
    else:
        values = {
            # per-query medians filter short bursts of contention on a shared host
            "wall_s": sum(statistics.median(q) for q in zip(*query_s)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "verified_frac": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "rgstates" / "__init__.py").is_file():
        print("run.py: src/rgstates is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    threads = min(2, len(os.sched_getaffinity(0)))
    env = child_env()
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), spec,
                             threads, env)
        except SessionError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
