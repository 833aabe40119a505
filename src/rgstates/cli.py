"""Command-line front end: single-value queries, p-grid sweeps, figure datasets.

Single values are printed as JSON, sweeps as CSV with header ``p,value``.
Exit codes: 0 success (a missing threshold is JSON null, still 0), 2 usage
error, 1 computation error such as an input over the memory or time budget
(``errors.check_table``, ``errors.check_time``) or exhausted memory, or an
output that cannot be written (a missing directory, a closed stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from math import inf, isfinite
from pathlib import Path

from .errors import GraphSpecError, SizeLimitError, check_time
from .graph import Graph, min_vertex_cover, parse_graph, _check_cover_vertices
from .density import (Bipartition, export_density, negativity, randomize,
                      subgraph_space_dimension, _NEGATIVITY_SECONDS)
from .witness import (DEFAULT_THRESHOLD_TOL, GME_CONSTANT, gme_threshold,
                      gme_witness_value, _overlap_function)
from .lhv import lhv_bound, lhv_threshold, _check_value_tensor
from .sampler import sample_preparation, _check_width, _json_pieces
from .state import _check_word_edges

QUANTITIES = ("overlap", "gme_witness", "lhv_witness", "negativity", "rank")
FIG_TARGETS = ("fig4", "fig5", "fig6", "fig7", "fig9")
MAX_SWEEP_POINTS = 10 ** 6


def _fmt(value):
    """Round floats to 12 significant digits for stable output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _emit_json(obj):
    print(json.dumps({k: _fmt(v) for k, v in obj.items()}))


def _value_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _parse_level(text: str):
    if text == "exact":
        return "exact"
    try:
        level = int(text)
    except ValueError:
        raise ValueError(f"level must be 'exact' or an integer, got {text!r}") from None
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return level


def _parse_p(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {value}")
    return value


def _parse_threads(value: int) -> int:
    if value < 1:
        raise ValueError(f"--threads must be at least 1, got {value}")
    return value


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"p-grid must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(s) for s in parts)
    except ValueError:
        raise ValueError(f"non-numeric p-grid {text!r}") from None
    if not 0.0 <= start <= stop <= 1.0:
        raise ValueError("p-grid bounds must satisfy 0 <= START <= STOP <= 1")
    if not (isfinite(step) and step > 0.0):
        raise ValueError(f"p-grid step must be finite and positive, got {parts[2]!r}")
    steps = (stop - start) / step + 1e-9
    if steps + 1 > MAX_SWEEP_POINTS:
        raise SizeLimitError(f"p-grid {text!r} has {steps + 1:.4g} points;"
                             f" the limit is {MAX_SWEEP_POINTS}")
    count = int(steps)
    values = []
    for i in range(count + 1):
        v = start + i * step
        if abs(v - stop) < 1e-9:
            v = stop
        values.append(min(max(v, 0.0), 1.0))
    return values


def _parse_bipartition(text: str, n: int) -> Bipartition:
    halves = text.split("|")
    if len(halves) != 2:
        raise ValueError(f"bipartition must be LIST|LIST, got {text!r}")

    def mask_of(part):
        mask = 0
        for tok in part.split(","):
            tok = tok.strip()
            if not tok:
                continue
            v = int(tok)
            if not 0 <= v < n:
                raise ValueError(f"bipartition vertex {v} out of range for n={n}")
            if (mask >> v) & 1:
                raise ValueError(f"bipartition repeats vertex {v}")
            mask |= 1 << v
        return mask

    side_a, side_b = mask_of(halves[0]), mask_of(halves[1])
    if side_a & side_b:
        raise ValueError("bipartition sides overlap")
    if (side_a | side_b) != (1 << n) - 1:
        raise ValueError("bipartition must cover every vertex")
    return Bipartition(n, side_a)


def _words(n: int, edges: int) -> None:
    """The |E| <= 63 word limit of u(x), as a ``check_size``."""
    _check_word_edges(edges)


def _value_tensor(n: int, edges: int) -> None:
    """The table budget of the 4^n LHV value tensor, as a ``check_size``."""
    _check_value_tensor(n)


def _sweep_reads_patterns(quantity: str, grid) -> bool:
    """Whether ``quantity`` at the p values ``grid()``, a sweep or one p, reads u(x).

    Every negativity does, and a rank does at a p in (0, 1).  A grid that
    does not parse reads nothing here: it is refused later, in its turn."""
    if quantity != "rank":
        return quantity == "negativity"
    try:
        return any(0.0 < p < 1.0 for p in grid())
    except (ValueError, SizeLimitError):
        return False


def _lhv_bound_for(g: Graph, supplied) -> float:
    if supplied is not None:
        if not 0.0 < supplied <= 1.0:
            raise ValueError(f"--lhv-bound must be in (0, 1], got {supplied}")
        return supplied
    return lhv_bound(g)


def _value_of(quantity: str, args, g: Graph, points: int):
    """Parse and admit the inputs of ``quantity`` once; return its p -> value.

    ``points`` is the number of p values the function will be called at; a
    negativity is refused up front when its estimate, points x 8^n x
    ``density._NEGATIVITY_SECONDS`` (one dense eigensolve of a 2^n x 2^n
    matrix per point), is over the time budget of ``errors.check_time``; an
    estimate past the float range (n >= 342 at one point) is ``inf``.  A
    witness value is its constant minus the overlap at the level: 1/2 for
    ``gme_witness``, D(G) for ``lhv_witness``.

    ``rank`` is exact: 1 at p in {0, 1}, else the pattern count.  rho =
    2^-n P^T K_U P, with P sending x to its pattern u(x) and K_U the block of
    K = (x)_e [[1, q], [q, 1]], q = 1 - 2p, on the distinct patterns; K > 0 for
    0 < p < 1.  The count does not depend on p; it is made at most once, and
    only when a p in (0, 1) is asked for.
    """
    if quantity == "negativity":
        if args.bipartition is None:
            raise ValueError("sweep of negativity needs --bipartition")
        cut = _parse_bipartition(args.bipartition, g.n)
        try:
            seconds = points * 8 ** g.n * _NEGATIVITY_SECONDS
        except OverflowError:  # the int is past the float range
            seconds = inf
        check_time(f"negativity sweep of {points} points at n={g.n}", seconds)
        return lambda p: negativity(randomize(g, p), cut)
    if quantity == "rank":
        dimension = cache(partial(subgraph_space_dimension, g))
        return lambda p: dimension() if 0.0 < p < 1.0 else 1
    level = _parse_level(args.level)
    if quantity == "overlap":
        return _overlap_function(g, level)
    constant = (GME_CONSTANT if quantity == "gme_witness"
                else _lhv_bound_for(g, args.lhv_bound))
    overlap = _overlap_function(g, level)
    return lambda p: constant - overlap(p)


# ---------------------------------------------------------------- handlers

def _cmd_value(args):
    """``overlap``, ``negativity`` or ``rank`` at one p.

    A query that reads u(x) at its p, or dumps the matrix, holds its graph
    to the word limit before its edges are listed."""
    dump = getattr(args, "dump_matrix", None)
    words = _sweep_reads_patterns(args.command, lambda: [args.p]) or dump
    g = parse_graph(args.graph, _words if words else None)
    p = _parse_p(args.p)
    value = _value_of(args.command, args, g, 1)
    if dump:
        export_density(randomize(g, p), dump, p=p, graph_spec=args.graph)
    _emit_json({args.command: value(p)})
    return 0


def _cmd_witness(args):
    g = parse_graph(args.graph)
    ev = gme_witness_value(g, _parse_p(args.p), _parse_level(args.level),
                           graph_spec=args.graph)
    _emit_json({
        "graph_spec": ev.graph_spec,
        "p": ev.p,
        "level": ev.level,
        "overlap": ev.overlap_value,
        "witness": ev.witness_value,
        "constant": ev.constant_term,
    })
    return 0


def _cmd_threshold(args):
    g = parse_graph(args.graph)
    level = _parse_level(args.level)
    value = gme_threshold(g, level=level, tol=args.tol)
    key = "p_w" if level == "exact" else "p_F"
    _emit_json({key: value})
    return 0


def _cmd_lhv_bound(args):
    g = parse_graph(args.graph, _value_tensor)
    _emit_json({"D": lhv_bound(g)})
    return 0


def _cmd_lhv_threshold(args):
    """Without ``--lhv-bound`` the bound is searched, so its 4^n value tensor
    is admitted before the edges are listed (and before ``--tol`` is read)."""
    g = parse_graph(args.graph, _value_tensor if args.lhv_bound is None else None)
    d = _lhv_bound_for(g, args.lhv_bound)
    value = lhv_threshold(g, level=_parse_level(args.level), d=d, tol=args.tol)
    _emit_json({"p_lhv": value, "D": d})
    return 0


def _cmd_dim(args):
    _emit_json({"dim": subgraph_space_dimension(parse_graph(args.graph, _words))})
    return 0


def _cmd_cover(args):
    g = parse_graph(args.graph, lambda n, edges: _check_cover_vertices(n))
    _emit_json({"cover": min_vertex_cover(g)})
    return 0


def _cmd_sample(args):
    g = parse_graph(args.graph, lambda n, edges: _check_width(edges))
    p = _parse_p(args.p)
    sample = sample_preparation(g, p, args.shots, args.seed,
                                threads=_parse_threads(args.threads))
    for piece in _json_pieces(sample, graph_spec=args.graph, p=p):
        sys.stdout.write(piece)  # streamed: one block of the export at a time
    sys.stdout.write("\n")
    return 0


def _cmd_sweep(args):
    grid = cache(partial(_parse_grid, args.p_grid))  # parsed at most once
    words = _sweep_reads_patterns(args.quantity, grid)
    g = parse_graph(args.graph, _words if words else None)
    level = str(_parse_level(args.level))
    value = _value_of(args.quantity, args, g, len(grid()))
    points = [(p, value(p)) for p in grid()]
    if args.out == "csv":
        print("p,value")
        for p, v in points:
            print(f"{p:.12g},{_value_text(v)}")
    else:
        print(json.dumps([{"p": _fmt(p), "value": _fmt(v), "quantity": args.quantity,
                           "graph_spec": args.graph, "level": level} for p, v in points]))
    return 0


# ----------------------------------------------------------- figure datasets

def _fig_rows(target: str):
    if target == "fig4":
        header = "family,n,p_w"
        return header, [(fam, n, gme_threshold(parse_graph(f"{fam}:{n}"), level="exact"))
                        for fam in ("star", "path") for n in range(3, 11)]

    if target == "fig5":
        header = "n,p_w,p_F,rel_diff"
        rows = []
        for n in range(3, 11):
            g = parse_graph(f"cycle:{n}")
            p_w = gme_threshold(g, level="exact")
            p_f = gme_threshold(g, level=2)
            rows.append((n, p_w, p_f, (p_f - p_w) / p_w))
        return header, rows

    if target == "fig6":
        header = "m,n,p_F"
        return header, [(m, n, gme_threshold(parse_graph(f"grid:{m}x{n}"), level=2))
                        for m in range(2, 6) for n in range(2, 6)]

    if target == "fig7":
        header = "i,j,k,p_F"
        return header, [(i, j, k, gme_threshold(parse_graph(f"grid3:{i}x{j}x{k}"), level=2))
                        for i in range(2, 4) for j in range(2, 4) for k in range(2, 4)]

    # fig9: LHV thresholds with computed classical bounds, desk-scale sizes
    header = "family,n,D,p_lhv"
    rows = []
    for fam in ("star", "path", "cycle"):
        for n in range(3, 8):
            g = parse_graph(f"{fam}:{n}")
            d = lhv_bound(g)
            rows.append((fam, n, d, lhv_threshold(g, level=2, d=d)))
    return header, rows


def _cmd_figs(args):
    _parse_threads(args.threads)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows = _fig_rows(args.target)
    path = out_dir / f"{args.target}.csv"
    lines = [header]
    for row in rows:
        lines.append(",".join(_value_text(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    _emit_json({"written": str(path)})
    return 0


# ------------------------------------------------------------------ parser

_GRAPH = ("--graph", dict(required=True, help="graph spec: family:size, file:PATH, or JSON"))
_P = ("--p", dict(type=float, required=True, help="randomness parameter in [0, 1]"))
_TOL = ("--tol", dict(type=float, default=DEFAULT_THRESHOLD_TOL))
_DUMP = ("--dump-matrix", dict(help="write the density matrix to BASE.csv/BASE.json"))


def _level(default):
    return ("--level", dict(default=default, help="overlap truncation: 'exact' or an integer"))


def _threads(why):
    return ("--threads", dict(type=int, default=os.cpu_count() or 1,
                              help=f"must be >= 1; has no effect: {why}"))


# (name, help, handler, arguments), in the order the top-level help lists them
_COMMANDS = (
    ("overlap", "randomization overlap at one p", _cmd_value, (_GRAPH, _P, _level("exact"))),
    ("witness", "GME witness value at one p", _cmd_witness, (_GRAPH, _P, _level("exact"))),
    ("threshold", "GME threshold p_w or p_F", _cmd_threshold,
     (_GRAPH, _level("exact"), _TOL)),
    ("lhv-bound", "classical Bell bound D(G)", _cmd_lhv_bound, (_GRAPH,)),
    ("lhv-threshold", "LHV-violation threshold", _cmd_lhv_threshold,
     (_GRAPH, _level("2"), _TOL, ("--lhv-bound", dict(
         type=float, help="externally known D(G); computed when omitted")))),
    ("negativity", "negativity across a bipartition", _cmd_value,
     (_GRAPH, _P, ("--bipartition", dict(required=True, help="e.g. 0,1|2,3")), _DUMP)),
    ("rank", "exact rank of the randomized state", _cmd_value, (_GRAPH, _P, _DUMP)),
    ("dim", "dimension of the subgraph state space", _cmd_dim, (_GRAPH,)),
    ("cover", "minimum vertex cover size", _cmd_cover, (_GRAPH,)),
    ("sample", "Monte Carlo preparation samples", _cmd_sample,
     (_GRAPH, _P, ("--shots", dict(type=int, default=10000)),
      ("--seed", dict(type=int, default=0)), _threads("a seed gives one sample"))),
    ("sweep", "p-grid sweep of one quantity", _cmd_sweep,
     (_GRAPH, _level("exact"), ("--quantity", dict(required=True, choices=QUANTITIES)),
      ("--p-grid", dict(required=True, help="START:STOP:STEP, inclusive")),
      ("--bipartition", {}), ("--lhv-bound", dict(type=float)),
      ("--out", dict(choices=("json", "csv"), default="csv")))),
    ("figs", "regenerate figure datasets", _cmd_figs,
     (("--target", dict(required=True, choices=FIG_TARGETS)), ("--out-dir", dict(default=".")),
      _threads("figure cells run serially"))),
)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or only of ``command`` when it names one.

    Each subparser costs a few hundred microseconds to build, so ``main``
    builds just the invoked one.  Its usage and error lines still list every
    command: the metavar spells out the choices the full parser prints.  The
    full parser gets no metavar, which would replace "command" in its
    "required" error.
    """
    parser = argparse.ArgumentParser(
        prog="rgstates",
        description="Randomized graph states: entanglement and nonlocality diagnostics.")
    table = [row for row in _COMMANDS if row[0] == command]
    if table:
        names = ",".join(name for name, *_ in _COMMANDS)
        commands = parser.add_subparsers(dest="command", required=True, metavar=f"{{{names}}}")
    else:
        table, commands = _COMMANDS, parser.add_subparsers(dest="command", required=True)
    for name, text, handler, arguments in table:
        sub = commands.add_parser(name, help=text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (GraphSpecError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # the flush at exit writes what is left to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app():
    raise SystemExit(main())
