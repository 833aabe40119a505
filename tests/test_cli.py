import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_subgraph_dimension, random_graph
import rgstates
from rgstates import (cli, errors, find_threshold, lhv_bound, lhv_witness_value,
                      parse_graph, sampler, serialize_graph, subgraph_space_dimension,
                      witness)
from rgstates.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_star3(capsys):
    code, out, _ = run(capsys, "threshold", "--graph", "star:3", "--level", "exact")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["p_w"] - 3 ** -0.5) < 1e-9


def test_threshold_level_key_and_null(capsys):
    code, out, _ = run(capsys, "threshold", "--graph", "cycle:4", "--level", "2")
    assert code == 0
    assert "p_F" in json.loads(out)
    # single edge: witness already negative on the whole bracket
    code, out, _ = run(capsys, "threshold", "--graph", "path:2")
    assert code == 0
    assert json.loads(out) == {"p_w": None}


def test_rank_complete3(capsys):
    code, out, _ = run(capsys, "rank", "--graph", "complete:3", "--p", "0.5")
    assert code == 0
    assert json.loads(out) == {"rank": 5}


def test_rank_is_the_exact_pattern_count(capsys):
    rng = np.random.default_rng(17)
    for _ in range(6):
        g = random_graph(rng, 5)
        spec = serialize_graph(g)
        dim = brute_subgraph_dimension(g)
        for p, expected in (("0", 1), ("0.01", dim), ("0.3", dim), ("0.99", dim), ("1", 1)):
            code, out, _ = run(capsys, "rank", "--graph", spec, "--p", p)
            assert (code, json.loads(out)) == (0, {"rank": expected}), (spec, p)
            code, out, _ = run(capsys, "sweep", "--graph", spec, "--quantity", "rank",
                               "--p-grid", f"{p}:{p}:0.1")
            assert (code, out) == (0, f"p,value\n{float(p):.12g},{expected}\n"), (spec, p)


def test_rank_counts_tiny_eigenvalues(capsys):
    # an eigenvalue cutoff at 1e-10 of the largest gave 245 on grid:3x3, and the
    # 4^9 matrix of complete:9 (|E| = 36) was over the dense caps
    assert json.loads(run(capsys, "rank", "--graph", "grid:3x3", "--p", "0.01")[1]) == {
        "rank": 250}
    assert json.loads(run(capsys, "rank", "--graph", "complete:9", "--p", "0.5")[1]) == {
        "rank": 2 ** 9 - 9}


def test_rank_builds_no_density_matrix(capsys, monkeypatch, tmp_path):
    def unavailable(g, p):
        raise AssertionError("randomize called")
    monkeypatch.setattr(cli, "randomize", unavailable)
    assert run(capsys, "rank", "--graph", "grid:3x3", "--p", "0.5")[:2] == (
        0, '{"rank": 250}\n')
    code, out, _ = run(capsys, "sweep", "--graph", "cycle:5", "--quantity", "rank",
                       "--p-grid", "0:1:0.5")
    assert (code, out) == (0, "p,value\n0,1\n0.5,17\n1,1\n")
    with pytest.raises(AssertionError, match="randomize called"):
        main(["rank", "--graph", "path:2", "--p", "0.5",
              "--dump-matrix", str(tmp_path / "rho")])


def test_sweep_rank_counts_patterns_once(capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return subgraph_space_dimension(g)
    monkeypatch.setattr(cli, "subgraph_space_dimension", counted)
    code, out, _ = run(capsys, "sweep", "--graph", "cycle:5", "--quantity", "rank",
                       "--p-grid", "0:1:0.01")
    rows = out.splitlines()[1:]
    assert (code, len(rows), len(calls)) == (0, 101, 1)
    assert rows[0] == "0,1" and rows[-1] == "1,1"
    assert {row.split(",")[1] for row in rows[1:-1]} == {"17"}
    calls.clear()
    assert run(capsys, "sweep", "--graph", "cycle:5", "--quantity", "rank",
               "--p-grid", "0:1:1")[:2] == (0, "p,value\n0,1\n1,1\n")
    assert calls == []  # no count is needed at p in {0, 1}


def test_sweep_looks_up_coefficients_once(capsys, monkeypatch):
    levels, cached = [], witness._level_coefficients

    def counted(g, level):
        levels.append(level)
        return cached(g, level)
    monkeypatch.setattr(witness, "_level_coefficients", counted)
    code, out, _ = run(capsys, "sweep", "--graph", "grid:3x3", "--quantity", "gme_witness",
                       "--level", "3", "--p-grid", "0:1:0.01")
    assert (code, len(out.splitlines()), levels) == (0, 102, [3])


@pytest.mark.parametrize("argv", [
    ("rank", "--graph", "path:3", "--p", "0.5"),
    ("sweep", "--graph", "path:3", "--quantity", "rank", "--p-grid", "0.5:0.5:0.1"),
])
def test_rank_takes_no_tol(capsys, argv):
    code, out, err = run(capsys, *argv, "--tol", "1e-3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol" in err


def test_overlap_and_witness_agree(capsys):
    _, out_exact, _ = run(capsys, "witness", "--graph", "path:5",
                          "--p", "0.75", "--level", "exact")
    _, out_full, _ = run(capsys, "witness", "--graph", "path:5",
                         "--p", "0.75", "--level", "4")
    exact, full = json.loads(out_exact), json.loads(out_full)
    assert abs(exact["witness"] - full["witness"]) < 1e-12
    assert exact["constant"] == 0.5
    assert abs(exact["witness"] - (0.5 - exact["overlap"])) < 1e-12


def test_overlap_value(capsys):
    code, out, _ = run(capsys, "overlap", "--graph", "star:3", "--p", "0.5")
    assert code == 0
    assert abs(json.loads(out)["overlap"] - 0.4375) < 1e-12


def test_sweep_csv_row_count_and_stability(capsys):
    args = ("sweep", "--graph", "path:6", "--quantity", "gme_witness",
            "--level", "2", "--p-grid", "0.5:1.0:0.01", "--out", "csv")
    code, out, _ = run(capsys, *args)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,value"
    assert len(lines) == 52
    assert lines[1].startswith("0.5,")
    assert lines[-1].startswith("1,")
    code2, out2, _ = run(capsys, *args)
    assert out2 == out  # bit-stable across runs


def test_sweep_json_records(capsys):
    code, out, _ = run(capsys, "sweep", "--graph", "star:3", "--quantity",
                       "overlap", "--p-grid", "0:1:0.5", "--out", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["p"] for r in records] == [0.0, 0.5, 1.0]
    assert records[0] == {"p": 0.0, "value": 0.25, "quantity": "overlap",
                          "graph_spec": "star:3", "level": "exact"}


def test_sweep_negativity_requires_bipartition(capsys):
    code, _, err = run(capsys, "sweep", "--graph", "path:3", "--quantity",
                       "negativity", "--p-grid", "0:1:0.5")
    assert code == 2
    assert "bipartition" in err
    code, out, _ = run(capsys, "sweep", "--graph", "path:3", "--quantity",
                       "negativity", "--p-grid", "0:1:0.5",
                       "--bipartition", "0|1,2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert float(rows[0].split(",")[1]) < 1e-12
    assert float(rows[-1].split(",")[1]) > 0.0


def test_sweep_rank_and_lhv(capsys):
    code, out, _ = run(capsys, "sweep", "--graph", "path:3", "--quantity",
                       "rank", "--p-grid", "0.5:0.5:0.1")
    assert code == 0
    assert out.strip().splitlines()[1] == "0.5,4"
    code, out, _ = run(capsys, "sweep", "--graph", "star:3", "--quantity",
                       "lhv_witness", "--level", "2", "--p-grid", "0.5:1:0.25")
    assert code == 0
    values = [float(line.split(",")[1])
              for line in out.strip().splitlines()[1:]]
    assert values[0] > 0.0 and values[-1] < 0.0


def test_one_point_sweep_matches_single_value_commands(capsys):
    def swept(quantity, *extra):
        code, out, _ = run(capsys, "sweep", "--graph", "grid:2x3", "--quantity", quantity,
                           "--p-grid", "0.7:0.7:0.1", "--out", "json", *extra)
        assert code == 0
        [record] = json.loads(out)
        return record["value"]

    def single(command, key, *extra):
        code, out, _ = run(capsys, command, "--graph", "grid:2x3", "--p", "0.7", *extra)
        assert code == 0
        return json.loads(out)[key]

    cut = ("--bipartition", "0,1,2|3,4,5")
    assert swept("overlap", "--level", "2") == single("overlap", "overlap", "--level", "2")
    assert swept("negativity", *cut) == single("negativity", "negativity", *cut)
    g = parse_graph("grid:2x3")
    assert swept("rank") == single("rank", "rank") == brute_subgraph_dimension(g)
    witness = single("witness", "witness", "--level", "3")
    assert swept("gme_witness", "--level", "3") == witness
    # D(G) supplied as 1/2 makes the LHV witness the GME one
    assert swept("lhv_witness", "--level", "3", "--lhv-bound", "0.5") == witness
    value = lhv_witness_value(g, 0.7, 3, lhv_bound(g)).witness_value
    assert swept("lhv_witness", "--level", "3") == float(f"{value:.12g}")


def test_negativity_dump_matrix_matches_rank_dump(capsys, tmp_path):
    args = ("--graph", "cycle:4", "--p", "0.35")
    cut = ("--bipartition", "0,1|2,3")
    plain = run(capsys, "negativity", *args, *cut)
    dumped = run(capsys, "negativity", *args, *cut, "--dump-matrix", str(tmp_path / "neg"))
    assert dumped == plain and plain[0] == 0
    assert run(capsys, "rank", *args, "--dump-matrix", str(tmp_path / "rank"))[0] == 0
    for ext in ("csv", "json"):
        assert ((tmp_path / f"neg.{ext}").read_bytes()
                == (tmp_path / f"rank.{ext}").read_bytes())


def test_negativity_subcommand(capsys):
    code, out, _ = run(capsys, "negativity", "--graph", "complete:3",
                       "--p", "1", "--bipartition", "0|1,2")
    assert code == 0
    assert json.loads(out)["negativity"] > 0.4


def test_negativity_of_complete_graphs_past_24_edges(capsys):
    cut = ("--bipartition", "0,1,2,3|4,5,6,7,8")
    assert run(capsys, "negativity", "--graph", "complete:9", "--p", "1", *cut) == (
        0, '{"negativity": 0.5}\n', "")
    code, out, err = run(capsys, "negativity", "--graph", "complete:12", "--p", "1",
                         "--bipartition", "0|1,2,3,4,5,6,7,8,9,10,11")
    assert (code, out, err) == (1, "", "error: u(x) holds at most |E|=63, got 66\n")


def test_negativity_rejects_bad_bipartition(capsys):
    for bad in ("0|1", "0,1|1,2", "0;1", "0,9|1,2", "0,0|1,2"):
        code, out, err = run(capsys, "negativity", "--graph", "complete:3",
                             "--p", "0.5", "--bipartition", bad)
        assert (code, out) == (2, ""), bad
        assert len(err.splitlines()) == 1 and err.startswith("error: "), bad


def test_dim_cover_lhv_bound(capsys):
    assert json.loads(run(capsys, "dim", "--graph", "complete:4")[1]) == {"dim": 12}
    assert json.loads(run(capsys, "cover", "--graph", "cycle:5")[1]) == {"cover": 3}
    doc = json.loads(run(capsys, "lhv-bound", "--graph", "star:3")[1])
    assert abs(doc["D"] - 0.75) < 1e-12


def test_lhv_threshold_supplied_bound(capsys):
    code, out, _ = run(capsys, "lhv-threshold", "--graph", "star:6",
                       "--lhv-bound", "0.625")
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == 0.625
    assert 0.5 < doc["p_lhv"] < 1.0
    code, out, _ = run(capsys, "lhv-threshold", "--graph", "path:2",
                       "--lhv-bound", "1.0")
    assert json.loads(out)["p_lhv"] is None
    # a supplied bound needs no 4^n value tensor, so n = 14 is admitted
    assert run(capsys, "lhv-threshold", "--graph", "path:14", "--lhv-bound", "0.5") == (
        0, '{"p_lhv": 0.929952544626, "D": 0.5}\n', "")


def test_sample_schema_and_determinism(capsys):
    args = ("sample", "--graph", "path:3", "--p", "0.5", "--shots", "2000",
            "--seed", "11")
    code, out, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["shots"] == 2000 and doc["seed"] == 11
    assert sum(doc["counts"].values()) == 2000
    assert run(capsys, *args)[1] == out


def test_sample_streams_the_library_export(capsys):
    # about 3 * 10^4 distinct masks: several blocks of the export
    args = ("sample", "--graph", "grid:3x4", "--p", "0.5", "--shots", "50000",
            "--seed", "4")
    code, out, _ = run(capsys, *args)
    assert code == 0
    sample = sampler.sample_preparation(parse_graph("grid:3x4"), 0.5, 50_000, 4)
    assert len(sample.masks) > 3 * sampler._JSON_ROWS
    assert out == sampler.sample_to_json(sample, graph_spec="grid:3x4", p=0.5) + "\n"


def test_sample_rejects_threads_below_one(capsys):
    for bad in ("0", "-1"):
        code, out, err = run(capsys, "sample", "--graph", "path:3", "--p", "0.5",
                             "--shots", "100", "--threads", bad)
        assert (code, out) == (2, "")
        assert err == f"error: --threads must be at least 1, got {bad}\n"


def test_sample_rejects_shots_past_int64(capsys):
    code, out, err = run(capsys, "sample", "--graph", "path:3", "--p", "0.5",
                         "--shots", str(1 << 63))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("block", [sampler._DRAW_BLOCK, 7])
def test_sample_refuses_too_many_prefixes(capsys, monkeypatch, block):
    # a table budget of 8000 bytes holds 1000 int64 prefixes; with 7-prefix
    # slices, the children past it are counted over many slices
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 8000)
    monkeypatch.setattr(sampler, "MAX_SAMPLE_PATTERNS", 1000)
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", block)
    code, out, err = run(capsys, "sample", "--graph", "complete:11", "--p", "0.5",
                         "--shots", "1000000000000", "--seed", "1")
    assert (code, out) == (1, "")
    assert err == ("error: sample prefixes at edge 10 of 55 needs 1024 x 8 = 8192 bytes;"
                   " the limit is 8000 bytes per table\n")


K3000_CUT = "0|" + ",".join(map(str, range(1, 3000)))
K3000_VALUE_TENSOR = (f"error: LHV value tensor of n=3000 needs {1 << 6000} x 4 = {4 << 6000}"
                      " bytes; the limit is 134217728 bytes per table\n")


@pytest.mark.parametrize("argv, err", [
    (("sample", "--graph", "complete:3000", "--p", "0.5"),
     "error: sampling capped at |E|=63, got 4498500\n"),
    (("dim", "--graph", "complete:3000"), "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("dim", "--graph", " complete:12 "), "error: u(x) holds at most |E|=63, got 66\n"),
    (("rank", "--graph", "complete:3000", "--p", "0.5"),
     "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("rank", "--graph", "complete:3000", "--p", "1", "--dump-matrix", "unwritten/rho"),
     "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("negativity", "--graph", "complete:3000", "--p", "0.5", "--bipartition", K3000_CUT),
     "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("negativity", "--graph", "complete:3000", "--p", "2", "--bipartition", "0|1"),
     "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("sweep", "--graph", "complete:3000", "--quantity", "negativity", "--p-grid", "0:1:0.5",
      "--bipartition", K3000_CUT), "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("sweep", "--graph", "complete:3000", "--quantity", "rank", "--p-grid", "0:1:0.5"),
     "error: u(x) holds at most |E|=63, got 4498500\n"),
    (("cover", "--graph", "complete:3000"),
     "error: exact vertex cover capped at n=24, got n=3000\n"),
    (("lhv-bound", "--graph", "complete:3000"), K3000_VALUE_TENSOR),
    (("lhv-threshold", "--graph", "complete:3000"), K3000_VALUE_TENSOR),
    (("lhv-threshold", "--graph", "complete:3000", "--tol", "0"), K3000_VALUE_TENSOR),
])
def test_word_limit_refused_before_edges_are_listed(capsys, monkeypatch, argv, err):
    # the family's formula gives |E|, so no edge is listed
    def listing(vertices, r):
        raise AssertionError("the edges of complete were listed")
    monkeypatch.setattr(rgstates.graph, "combinations", listing)
    assert run(capsys, *argv) == (1, "", err)


def test_rank_endpoints_past_the_word_limit(capsys):
    # no u(x) at p in {0, 1}: the rank is 1 on any number of edges
    for p in ("0", "1"):
        assert run(capsys, "rank", "--graph", "complete:12", "--p", p) == (
            0, '{"rank": 1}\n', "")


def test_rank_sweep_reads_patterns_only_inside_the_endpoints(capsys):
    # a grid of 0 and 1 alone needs no u(x); a grid that does not parse is
    # refused after the level, as before the word limit was checked first
    assert run(capsys, "sweep", "--graph", "complete:12", "--quantity", "rank",
               "--p-grid", "0:1:1") == (0, "p,value\n0,1\n1,1\n", "")
    assert run(capsys, "sweep", "--graph", "complete:12", "--quantity", "rank",
               "--p-grid", "0:1:0.5") == (1, "", "error: u(x) holds at most |E|=63, got 66\n")
    code, out, err = run(capsys, "sweep", "--graph", "complete:12", "--quantity", "rank",
                         "--level", "x", "--p-grid", "0:1")
    assert (code, out, err) == (2, "", "error: level must be 'exact' or an integer, got 'x'\n")
    code, out, err = run(capsys, "sweep", "--graph", "complete:12", "--quantity", "rank",
                         "--p-grid", "0:1")
    assert (code, out, err) == (2, "", "error: p-grid must be START:STOP:STEP, got '0:1'\n")


def test_word_limit_of_listed_graphs(capsys, tmp_path):
    path = tmp_path / "k12.json"
    path.write_text(rgstates.serialize_graph(rgstates.generate("complete:12")))
    for spec in (f"file:{path}", path.read_text()):
        assert run(capsys, "sample", "--graph", spec, "--p", "0.5") == (
            1, "", "error: sampling capped at |E|=63, got 66\n")


def test_figs_rejects_threads_below_one(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, "figs", "--target", "fig7", "--threads", "0",
                         "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == "error: --threads must be at least 1, got 0\n"
    assert not out_dir.exists()


def test_json_graph_and_file_specs(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n":2,"edges":[[0,1]]}')
    code, out, _ = run(capsys, "rank", "--graph", f"file:{path}", "--p", "1")
    assert code == 0
    assert json.loads(out) == {"rank": 1}
    code, out, _ = run(capsys, "rank", "--graph", '{"n":2,"edges":[[0,1]]}',
                       "--p", "1")
    assert json.loads(out) == {"rank": 1}


def test_dump_matrix(capsys, tmp_path):
    base = tmp_path / "rho"
    code, _, _ = run(capsys, "rank", "--graph", "path:2", "--p", "0.25",
                     "--dump-matrix", str(base))
    assert code == 0
    header = json.loads((tmp_path / "rho.json").read_text())
    assert header == {"n": 2, "p": 0.25, "graph_spec": "path:2"}
    rows = (tmp_path / "rho.csv").read_text().splitlines()
    matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert matrix.shape == (4, 4)
    assert abs(np.trace(matrix) - 1) < 1e-10


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "threshold", "--graph", "bogus:3")[0] == 2
    assert run(capsys, "rank", "--graph", "path:3", "--p", "1.5")[0] == 2
    assert run(capsys, "rank", "--graph", "path:3", "--p", "0.5",
               "--unknown-flag")[0] == 2
    assert run(capsys, "not-a-command")[0] == 2
    assert run(capsys, "sweep", "--graph", "path:3", "--quantity", "overlap",
               "--p-grid", "0.9:0.1:0.1")[0] == 2
    sweep = ("sweep", "--graph", "path:3", "--quantity", "overlap")
    for argv, message in (
            (("overlap", "--graph", "path:3", "--p", "0.5", "--level", "abc"),
             "level must be 'exact' or an integer, got 'abc'"),
            ((*sweep, "--p-grid", "0:1:0.5", "--level", "-1"),
             "level must be nonnegative, got -1"),
            ((*sweep, "--p-grid", "0:1"), "p-grid must be START:STOP:STEP, got '0:1'"),
            ((*sweep, "--p-grid", "a:b:c"), "non-numeric p-grid 'a:b:c'"),
            (("lhv-threshold", "--graph", "star:3", "--lhv-bound", "0"),
             "--lhv-bound must be in (0, 1], got 0.0"),
            (("lhv-threshold", "--graph", "star:3", "--lhv-bound", "1.5"),
             "--lhv-bound must be in (0, 1], got 1.5")):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_single_command_parser_matches_the_full_one(capsys, monkeypatch):
    # main builds only the invoked subparser; help, usage and errors must not notice
    names = [name for name, *_ in cli._COMMANDS]
    full = _subparsers(cli.build_parser()).choices
    assert list(full) == names
    for name in names:
        single = _subparsers(cli.build_parser(name)).choices
        assert list(single) == [name]
        assert single[name].format_help() == full[name].format_help(), name
    inputs = [(), ("--help",), ("bogus",), *((name,) for name in names),
              ("threshold", "--graph", "path:4", "extra"),
              ("dim", "--graph", "path:4", "--bogus", "1")]
    outputs = [run(capsys, *argv) for argv in inputs]
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    for argv, output in zip(inputs, outputs):
        assert run(capsys, *argv) == output, argv


def test_size_cap_exits_1(capsys):
    code, _, err = run(capsys, "rank", "--graph", "grid:5x5", "--p", "0.5")
    assert code == 1
    assert err == ("error: excitation patterns of n=25 needs 33554432 x 8 = 268435456"
                   " bytes; the limit is 134217728 bytes per table\n")


def test_contraction_estimate_refuses_wide_graph(capsys):
    # levels up to 4 come from cluster counts; level 5 takes the contraction
    code, out, err = run(capsys, "threshold", "--graph", "complete:14", "--level", "5")
    assert (code, out) == (1, "")
    # planning stops at width 11, the first width over the memory limit at level 5
    assert err == ("error: overlap contraction at frontier width 11 needs 20971520 x 8"
                   " = 167772160 bytes; the limit is 134217728 bytes per table\n")


def test_contraction_plan_refuses_before_it_completes(capsys):
    # the full greedy plan of grid:100x100 reaches width 100 and took seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "threshold", "--graph", "grid:100x100", "--level", "5")
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err == ("error: overlap contraction at frontier width 7 is estimated at 32.1 s;"
                   " the limit is 20 s\n")
    assert elapsed < 0.5


def test_vertex_count_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "threshold", "--graph", "grid:1000x1000", "--level", "3")
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and "n=1000000 vertices" in err and "Traceback" not in err
    assert elapsed < 0.5


@pytest.mark.parametrize("spec", [
    '{"n": 3, "edges": 5}', '{"n": 3, "edges": null}',
    pytest.param('{"n": ' + "[" * 100000, id="past-the-decoder-recursion-limit"),
])
def test_malformed_graph_json_exits_2(capsys, spec):
    code, out, err = run(capsys, "dim", "--graph", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_json_booleans_exit_2(capsys):
    code, out, err = run(capsys, "overlap", "--graph", '{"n":3,"edges":[[false,true]]}',
                         "--p", "0.5")
    assert (code, out) == (2, "")
    assert "bad edge entry" in err


def interpolated(points, x):
    """Exact value at x of the polynomial through ``points``, by Lagrange's formula."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize("family, sizes, size", [
    ("grid:{0}x{0}", range(3, 10), 100), ("complete:{0}", range(4, 11), 14)])
def test_level3_thresholds_past_the_contraction_finish(capsys, family, sizes, size):
    # S_0..S_3 of these families are polynomials of degree <= 6 in the size
    # (grids from 3x3 on): seven contractions on small members give them exactly
    rows = [(m, witness._contraction_coefficients(parse_graph(family.format(m)), 3))
            for m in sizes]
    coeffs = [float(interpolated([(m, Fraction(c[r])) for m, c in rows], size))
              for r in range(4)]
    g = parse_graph(family.format(size))
    assert witness._level_coefficients(g, 3) == tuple(coeffs)
    expected = find_threshold(lambda p: 0.5 - sum(
        c * p ** (g.edge_count - r) * (1 - p) ** r for r, c in enumerate(coeffs)))
    code, out, err = run(capsys, "threshold", "--graph", family.format(size), "--level", "3")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"p_F": float(f"{expected:.12g}")}


def test_dense_level4_refused_by_its_count_estimate(capsys):
    # about 4 * 10^8 two-step path ends through the hub
    code, out, err = run(capsys, "threshold", "--graph", "star:20000", "--level", "4")
    assert (code, out) == (1, "")
    assert err == ("error: level-4 cluster count of n=20000 is estimated at 60.3 s;"
                   " the limit is 20 s\n")


def test_overlap_refuses_coefficients_past_float64(capsys):
    # exact S_r on path:4000 reach C(3999, 1999) and would print NaN
    code, out, err = run(capsys, "overlap", "--graph", "path:4000", "--p", "0.9")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "overflow float64" in err


def test_narrow_exact_threshold_is_admitted(capsys):
    # 1018 edges at width 2: the contraction's fixed cost is charged per
    # edge's blocked shift, not per coefficient, so this 0.3 s sweep is admitted
    code, out, err = run(capsys, "threshold", "--graph", "grid:2x340")
    assert (code, err) == (0, "")
    assert 0.99 < json.loads(out)["p_w"] < 1


def test_contraction_estimate_refuses_long_sweep(capsys):
    # width 8 fits in memory; 142 edges x 142 coefficients x 4^8 entries do not fit in time
    code, out, err = run(capsys, "threshold", "--graph", "grid:8x10")
    assert (code, out) == (1, "")
    assert err == ("error: overlap contraction at frontier width 8 is estimated at 23.8 s;"
                   " the limit is 20 s\n")


def test_threshold_level_10_on_grid_5x5(capsys):
    code, out, _ = run(capsys, "threshold", "--graph", "grid:5x5", "--level", "10")
    assert code == 0
    p_f = json.loads(out)["p_F"]
    # a deeper truncation lies between the exact threshold and the level-2 one
    assert 0.9767743847 - 1e-9 <= p_f <= 0.9768954874 + 1e-9


@pytest.mark.parametrize("tol", ["0", "nan", "-1e-9"])
def test_threshold_rejects_bad_tol(capsys, tol):
    for argv in (("threshold", "--graph", "cycle:6"),
                 ("lhv-threshold", "--graph", "star:4")):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance must be finite and positive")


def test_threshold_tiny_tol_finishes(capsys):
    for spec in ("cycle:6", "grid:2x3", "star:4"):
        _, out, _ = run(capsys, "threshold", "--graph", spec)
        code, tiny, _ = run(capsys, "threshold", "--graph", spec, "--tol", "1e-300")
        assert code == 0
        assert json.loads(tiny)["p_w"] == pytest.approx(json.loads(out)["p_w"], abs=1e-9)


@pytest.mark.parametrize("exc, text", [
    (MemoryError("Unable to allocate 8.00 GiB"), "error: Unable to allocate 8.00 GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_memory_error_exits_1(capsys, monkeypatch, exc, text):
    def exhausted(g):
        raise exc
    monkeypatch.setattr(cli, "lhv_bound", exhausted)
    code, out, err = run(capsys, "lhv-bound", "--graph", "cycle:4")
    assert (code, out, err) == (1, "", text + "\n")


def test_unwritable_output_exits_1(capsys, tmp_path):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for argv in (("rank", "--graph", "path:3", "--p", "0.5",
                  "--dump-matrix", str(tmp_path / "missing" / "x")),
                 ("figs", "--target", "fig4", "--out-dir", str(a_file))):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_closed_stdout_exits_1_with_one_error_line():
    env = dict(os.environ, PYTHONPATH=str(Path(rgstates.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as stdout is by default
    command = [sys.executable, "-m", "rgstates"]
    # what `rgstates sample ... | head -c 50` does: the reader leaves mid-stream
    sample = [*command, "sample", "--graph", "grid:5x5", "--p", "0.5", "--shots", "400000",
              "--seed", "1"]
    with subprocess.Popen(sample, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(50).startswith(b'{"graph_spec":"grid:5x5"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.wait(timeout=60)
    assert (proc.returncode, err) == (1, "error: [Errno 32] Broken pipe\n")
    # a reader gone before the first write: the short output is still in the buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed:
        result = subprocess.run([*command, "lhv-bound", "--graph", "cycle:4"], stdout=closed,
                                stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (result.returncode, result.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def test_figs_targets(capsys, tmp_path):
    code, out, _ = run(capsys, "figs", "--target", "fig4",
                       "--out-dir", str(tmp_path))
    assert code == 0
    written = json.loads(out)["written"]
    lines = (tmp_path / "fig4.csv").read_text().strip().splitlines()
    assert lines[0] == "family,n,p_w"
    star_rows = [l for l in lines[1:] if l.startswith("star,")]
    assert len(star_rows) == 8
    for row in star_rows:
        _, n, p_w = row.split(",")
        assert abs(float(p_w) - 3 ** (-1 / (int(n) - 1))) < 1e-9
    assert written.endswith("fig4.csv")


def test_figs_rejects_fig3(capsys):
    # the PPT-mixer figure needs an SDP solver and is out of scope
    assert run(capsys, "figs", "--target", "fig3")[0] == 2


@pytest.mark.parametrize("step", ["nan", "inf", "-inf"])
def test_sweep_rejects_non_finite_step(capsys, step):
    code, out, err = run(capsys, "sweep", "--graph", "star:3", "--quantity", "overlap",
                         "--p-grid", f"0:1:{step}")
    assert (code, out) == (2, "")
    assert err == f"error: p-grid step must be finite and positive, got {step!r}\n"


def test_sweep_refuses_too_many_points(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a value was computed")
    monkeypatch.setattr(cli, "_value_of", unreachable)
    code, out, err = run(capsys, "sweep", "--graph", "star:3", "--quantity", "overlap",
                         "--p-grid", "0:1:1e-300")
    assert (code, out) == (1, "")
    assert err == "error: p-grid '0:1:1e-300' has 1e+300 points; the limit is 1000000\n"
    # a step of 1e-6 gives 10^6 + 1 points, one over the limit
    assert run(capsys, "sweep", "--graph", "star:3", "--quantity", "overlap",
               "--p-grid", "0:1:1e-6")[0] == 1


PATH12_HALVES = "0,1,2,3,4,5|6,7,8,9,10,11"
GRID34_CHECKERBOARD = "1,3,4,6,9,11|0,2,5,7,8,10"


def test_negativity_sweep_refused_by_work_estimate(capsys, monkeypatch):
    # the checkerboard cut of grid:3x4 has K = 4096 row classes at every p:
    # 13.9 s a point, so three points are refused before any matrix is built
    def unreachable(*args):
        raise AssertionError("a density matrix was built")
    monkeypatch.setattr(cli, "randomize", unreachable)
    sweep = ("sweep", "--quantity", "negativity", "--graph", "grid:3x4",
             "--bipartition", GRID34_CHECKERBOARD, "--p-grid")
    assert run(capsys, *sweep, "0:1:1e-6")[:2] == (1, "")  # the point cap
    code, out, err = run(capsys, *sweep, "0:1:0.5")
    assert (code, out) == (1, "")
    assert err == ("error: negativity sweep of 3 points at n=12 is estimated at 41.7 s;"
                   " the limit is 20 s\n")
    # one point is estimated at 13.9 s, inside the limit: admitted
    monkeypatch.setattr(cli, "randomize", lambda g, p: None)
    monkeypatch.setattr(cli, "negativity", lambda rho, cut: 0.5)
    code, out, _ = run(capsys, *sweep, "0.5:0.5:0.1")
    assert code == 0 and out == "p,value\n0.5,0.5\n"


def test_negativity_sweep_of_few_row_classes_admitted(capsys):
    # path:12's half cut has K = 784 row classes: 0.26 s estimated a point
    cut = ("--graph", "path:12", "--bipartition", PATH12_HALVES)
    code, out, err = run(capsys, "sweep", "--quantity", "negativity", *cut,
                         "--p-grid", "0.3:0.31:0.01")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [p for p, _ in rows] == ["0.3", "0.31"]
    for p, value in rows:
        code, single, _ = run(capsys, "negativity", *cut, "--p", p)
        assert code == 0 and json.loads(single)["negativity"] == float(value)


def test_negativity_past_the_density_table_refused_before_its_estimate(capsys):
    # n >= 13 is refused by the 4^n table check, an exact int for any n, so
    # no estimate leaves the float range; past 4300 digits it prints as 2^k
    for n, entries, needed in ((400, str(1 << 800), str(8 << 800)), (20, "1099511627776",
                               "8796093022208"), (10000, "2^20000", "2^20003")):
        cut = ("--bipartition", "0|" + ",".join(map(str, range(1, n))))
        for argv in (("negativity", "--graph", f"empty:{n}", "--p", "0.5", *cut),
                     ("sweep", "--graph", f"empty:{n}", "--quantity", "negativity",
                      "--p-grid", "0:1:0.5", *cut)):
            assert run(capsys, *argv) == (
                1, "", f"error: density matrix of n={n} needs {entries} x 8 = {needed}"
                       " bytes; the limit is 134217728 bytes per table\n")


def test_grid_includes_endpoints(capsys):
    code, out, _ = run(capsys, "sweep", "--graph", "star:3", "--quantity",
                       "overlap", "--p-grid", "0.1:0.7:0.2")
    grid = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert grid == pytest.approx([0.1, 0.3, 0.5, 0.7])
