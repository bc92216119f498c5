"""Command surface, JSON schema, and exit codes."""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from math import prod
from pathlib import Path

import pytest

from cographctl import (
    CoTree,
    SizeCapError,
    enumerate_min_control_sets,
    modal_matrix,
    parse_cotree,
    parse_expr,
    parse_threshold,
    random_cotree,
    read_edge_list,
    serialize_cotree,
    sibling_partition,
    spectrum,
)
import cographctl
import cographctl.cli as cli
from cographctl import control, spectral
from cographctl.cli import main

from helpers import EIGHT_NODE_TEXT, THRESHOLD_EXAMPLE, cotree_corpus, cotree_shapes, is_canonical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_recognize_expr(capsys):
    code, out, _ = run(capsys, "recognize", "--expr", "(.+.)*(.+.+.)")
    assert code == 0
    assert out.strip() == "1(0(1,2),0(3,4,5))"


def test_recognize_edges_p4_witness(capsys, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    code, out, err = run(capsys, "recognize", "--edges", str(path))
    assert code == 1
    assert out.strip() == "P4: 1 2 3 4"
    assert "not a cograph" in err


def test_recognize_json_roundtrip(capsys):
    code, payload, _ = run_json(capsys, "recognize", "--cotree", "1(1,0(0(2,3),4))")
    assert code == 0
    reparsed = parse_cotree(payload["cotree"])
    assert reparsed == parse_cotree("1(1,0(0(2,3),4))")
    assert is_canonical(reparsed) and payload["cotree"] == "1(1,0(2,3,4))"
    assert payload["cotree"] == serialize_cotree(reparsed)
    assert payload["n"] == 4


def test_spectrum_threshold_json(capsys):
    code, payload, _ = run_json(capsys, "spectrum", "--threshold", THRESHOLD_EXAMPLE)
    assert code == 0
    assert payload["spectrum"] == [[0, 1], [1, 2], [2, 1], [4, 1], [5, 1], [7, 1]]


def test_spectrum_modal(capsys):
    code, payload, _ = run_json(capsys, "spectrum", "--expr", ".*.", "--modal")
    assert code == 0
    assert payload["modal"] == [[1], [-1]]


class Recorder(io.StringIO):
    """A stdout that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def part_bound(line_lengths):
    """The longest write ``_listing`` may make for these lines: as many of the
    longest line as the first line's length puts in a part."""
    return max(1, cli._PIECE // line_lengths[0]) * max(line_lengths)


@pytest.mark.parametrize("argv, key", [
    (["spectrum", "--modal", "--cotree", serialize_cotree(random_cotree(200, random.Random(3)))],
     "modal"),
    (["leaders", "--all", "--expr", "*".join(["(.+.)"] * 12)], "sets")])
def test_json_writes_a_raw_array_uncopied(monkeypatch, argv, key):
    """The modal matrix and the ``leaders --all`` sets go out in parts of
    about ``_PIECE`` characters between the rest of the line's head and
    tail: the line is the encoder's, and no write holds the whole array."""
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([*argv, "--json"]) == 0
    line = out.getvalue()
    whole = json.loads(line)
    assert line == cli._ENCODER.encode(whole) + "\n"
    array = cli._ENCODER.encode(whole[key])
    head, *parts, tail = out.writes
    assert line[:head].endswith(f'"{key}":[') and line[-tail:].startswith("]")
    assert sum(parts) == len(array) - 2 and len(parts) > 3
    rows = [len(cli._ENCODER.encode(row)) + 1 for row in whole[key]]  # each with its ","
    assert max(parts) <= part_bound(rows) < len(array) // 3


@pytest.mark.parametrize("argv", [
    ["spectrum", "--modal", "--cotree", serialize_cotree(random_cotree(200, random.Random(3)))],
    ["leaders", "--all", "--expr", "*".join(["(.+.)"] * 12)]])
def test_text_listings_are_written_in_bounded_pieces(monkeypatch, argv):
    """In text mode the modal rows and the ``leaders --all`` sets (4,096
    here) go out in parts of about ``_PIECE`` characters, as many lines to
    a part as fit the first line, so the listing is never joined into one
    string."""
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    lines = out.getvalue().splitlines(keepends=True)
    listing = list(map(len, lines[2:] if argv[0] == "spectrum" else lines[3:]))
    # the last writes are the listing's parts, ending at a line's end
    parts = out.writes[-1 - list(accumulate(reversed(out.writes))).index(sum(listing)):]
    assert len(parts) > 3 and max(parts) <= part_bound(listing) < sum(listing) // 3


@pytest.mark.parametrize("piece", [1, 7, 64])
def test_listings_equal_the_encoder_on_every_small_shape(monkeypatch, piece):
    """Every connected shape with 2 <= n <= 7 through both listings in both
    modes, with parts so short that their boundaries fall between rows: the
    JSON line is the encoder's on the tuple forms, the text a per-line join,
    and no write of a listing is longer than one part."""
    monkeypatch.setattr(cli, "_PIECE", piece)
    shapes = [CoTree(*columns) for n in range(2, 8) for columns in cotree_shapes(n)]
    shapes = [t for t in shapes if t.label(t.root) == 1]
    assert len(shapes) == 1 + 2 + 5 + 12 + 33 + 90  # half of OEIS A000084, n = 2..7
    for t in shapes:
        text, matrix, sets = serialize_cotree(t), modal_matrix(t), list(enumerate_min_control_sets(t))
        spec, cells = spectrum(t), sibling_partition(t)
        cases = [
            (["spectrum", "--modal"], "modal", matrix,
             {"n": t.n, "cotree": text, "spectrum": spec},
             "spectrum: " + " ".join(f"{v}^{m}" for v, m in spec) + "\nmodal:\n",
             [" ".join(map(str, row)) + "\n" for row in matrix]),
            (["leaders", "--all"], "sets", sets,
             {"n": t.n, "cotree": text, "cells": cells, "min_size": len(sets[0]), "count": len(sets)},
             f"min_size: {len(sets[0])}\nset: {','.join(map(str, sets[0]))}\ncount: {len(sets)}\n",
             ["set: " + ",".join(map(str, s)) + "\n" for s in sets])]
        for argv, key, rows, payload, head, lines in cases:
            out = Recorder()
            monkeypatch.setattr(sys, "stdout", out)
            assert main([*argv, "--cotree", text, "--json"]) == 0
            assert out.getvalue() == cli._ENCODER.encode(payload | {key: rows}) + "\n", text
            rows = [len(cli._ENCODER.encode(row)) + 1 for row in rows]  # each with its ","
            assert max(out.writes[1:-1]) <= part_bound(rows)
            out = Recorder()
            monkeypatch.setattr(sys, "stdout", out)
            assert main([*argv, "--cotree", text]) == 0
            assert out.getvalue() == head + "".join(lines), text
            size = len("".join(lines))
            parts = out.writes[-1 - list(accumulate(reversed(out.writes))).index(size):]
            assert max(parts) <= part_bound(list(map(len, lines)))
            if piece == 1:
                assert parts == list(map(len, lines))


def test_listings_hold_their_text_about_once(monkeypatch):
    """``spectrum --modal`` on the 3000-vertex random tree (an 18 MB matrix)
    and ``leaders --all`` on the 15-pair chain (32,768 sets) keep no string
    of the whole listing in either mode; written whole, the JSON matrix
    peaked at 52.7 MiB and the JSON sets at 4.4 MiB."""
    class Discard(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            return len(data)

    tree = serialize_cotree(random_cotree(3000, random.Random(1)))
    chain = "*".join(["(.+.)"] * 15)
    for argv, limit in ((["spectrum", "--modal", "--cotree", tree], 25),
                        (["leaders", "--all", "--expr", chain], 1)):
        for mode in (["--json"], []):
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Discard(), encoding="utf-8"))
            tracemalloc.start()
            try:
                assert main([*argv, *mode]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit << 20, (argv[0], mode, peak)


def test_partition_degree(capsys):
    code, payload, _ = run_json(
        capsys, "partition", "--threshold", THRESHOLD_EXAMPLE, "--degree"
    )
    assert code == 0
    assert payload["cells"] == [[1, 2], [3], [4], [5, 6], [7]]
    assert payload["degree_cells"] == [[5, 6], [3], [1, 2], [4], [7]]
    assert payload["degrees"] == [1, 2, 3, 4, 6]


def test_leaders_bipartite(capsys):
    code, payload, _ = run_json(capsys, "leaders", "--expr", "(.+.)*(.+.+.)")
    assert code == 0
    assert payload["min_size"] == 3
    assert payload["sets"] == [[1, 3, 4]]


def test_leaders_all_eight_node(capsys):
    code, payload, _ = run_json(capsys, "leaders", "--cotree", EIGHT_NODE_TEXT, "--all")
    assert code == 0
    assert payload["min_size"] == 3
    assert payload["count"] == 6
    assert {tuple(s) for s in payload["sets"]} == {
        (1, 6, 7), (2, 6, 7), (1, 6, 8), (2, 6, 8), (1, 7, 8), (2, 7, 8),
    }


def test_leaders_tie_rule(capsys):
    code, payload, _ = run_json(
        capsys, "leaders", "--cotree", EIGHT_NODE_TEXT, "--tie", "highest"
    )
    assert code == 0
    assert payload["sets"] == [[2, 7, 8]]


def test_verify_cross_check(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--threshold", THRESHOLD_EXAMPLE,
        "--set", "1,5", "--cross-check",
    )
    assert code == 0
    assert payload["controllable"] is True
    assert payload["pbh"] is True
    assert payload["kalman_rank"] == 7
    assert payload["agree"] is True


def test_verify_uncontrollable(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--cotree", EIGHT_NODE_TEXT, "--set", "6,7", "--cross-check"
    )
    assert code == 0
    assert payload["controllable"] is False
    assert payload["kalman_rank"] < 8
    assert payload["agree"] is True


def test_cross_check_compares_exact_ranks(monkeypatch, capsys):
    """``agree`` needs the Kalman rank itself to equal ``control_rank``, not
    only the two verdicts: an oracle one short of the true rank on a set that
    is not controllable anyway is a disagreement."""
    argv = ["verify", "--cotree", EIGHT_NODE_TEXT, "--set", "6,7", "--cross-check"]
    assert run(capsys, *argv)[1].endswith("kalman_rank: 4\nagree: true\n")
    rank = cli.oracle.kalman_rank
    monkeypatch.setattr(cli.oracle, "kalman_rank", lambda g, control: rank(g, control) - 1)
    assert run(capsys, *argv) == (1, "", "error: cross-check disagreement; this is a bug\n")


def test_oracle_battery(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--threshold", THRESHOLD_EXAMPLE)
    assert code == 0
    assert payload["p4_free"] is True
    assert payload["spectrum_agree"] is True
    assert payload["control_agree"] is True
    assert payload["min_size"] == 2


def test_oracle_size_cap(capsys):
    code, _, err = run(capsys, "oracle", "--expr", "*".join(["."] * 11))
    assert code == 1
    assert "capped" in err


def test_oracle_rejects_disconnected_input_before_its_searches(monkeypatch, capsys):
    """The fast path's connectivity check comes first: the edgeless graph on
    10 vertices and a single vertex exit 1 with its message, and neither
    the exhaustive search nor the characteristic polynomial starts."""
    def refuse(*_):
        raise AssertionError("an oracle search ran on an input the battery rejects")

    monkeypatch.setattr(cli.oracle, "exhaustive_min_sets", refuse)
    monkeypatch.setattr(cli.oracle, "char_poly", refuse)
    for expr, message in (("10", "requires a connected graph (root label 1)"),
                          (".", "requires more than one vertex")):
        for json_flag in ((), ("--json",)):
            assert run(capsys, "oracle", "--expr", expr, *json_flag) == (
                1, "", f"error: enumerate_min_control_sets {message}\n")


def test_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "random", "--nodes", "9", "--seed", "5")
    code2, out2, _ = run(capsys, "random", "--nodes", "9", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    tree = parse_cotree(out1.strip())
    assert tree.n == 9
    code3, out3, _ = run(capsys, "random", "--nodes", "9", "--seed", "6")
    assert out3 != out1


def test_random_threshold(capsys):
    code, out, _ = run(capsys, "random", "--nodes", "8", "--seed", "3", "--threshold")
    assert code == 0
    bits = out.strip()
    assert len(bits) == 8 and bits[0] == "0" and set(bits) <= {"0", "1"}


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "spectrum")[0] == 2  # no input flag
    assert run(capsys, "spectrum", "--expr", ".", "--threshold", "01")[0] == 2
    assert run(capsys, "recognize", "--expr", ".", "--cotree", "1")[0] == 2
    assert run(capsys, "recognize")[0] == 2
    assert run(capsys, "spectrum", "--expr", "(.+.")[0] == 2  # parse error
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "verify", "--expr", ".*.", "--set", "1,,x")[0] == 2
    # --set ids are ASCII digit runs: int() alone reads 1_2 as vertex 12 and
    # takes signs; a 0 is well-formed and fails the 1-based check (exit 1)
    for ids in ("1_2", "+1", "-1", "\u00b2"):
        assert run(capsys, "verify", "--expr", ".*.", "--set", ids) == (
            2, "", f"error: --set expects comma-separated integers, got {ids!r}\n")
    # parts are stripped and empty parts skipped
    assert run(capsys, "verify", "--expr", ".*.", "--set", " 1 ,, 2 ,") == (
        0, "controllable: true\n", "")
    assert run(capsys, "spectrum", "--edges", "/nonexistent/file")[0] == 2
    # str.isdigit() accepts superscripts that int() rejects
    for flag, text in (("--expr", "\u00b2"), ("--cotree", "1(1,\u00b2)")):
        code, _, err = run(capsys, "spectrum", flag, text)
        assert code == 2 and "(line 1, column" in err, err


@pytest.mark.parametrize("expr, ids, message", [
    (".+.", "1,1", "control vertices must be distinct"),
    (".+.", "0", "control vertices are 1-based ids"),
    (".*.", "3", "control vertex 3 out of range 1..2"),
    # an id past n is reported only after the connectivity check
    (".+.", "3", "is_controllable requires a connected graph (root label 1)"),
])
def test_verify_set_errors(capsys, expr, ids, message):
    assert run(capsys, "verify", "--expr", expr, "--set", ids) == (1, "", f"error: {message}\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal strings of any length")
def test_number_too_long_for_int_exits_two(capsys):
    digits = "9" * 5000  # past int()'s default limit of 4300 digits
    for flag, text, column in (("--expr", digits, 1), ("--expr", ".*\n" + digits, 1),
                               ("--cotree", f"1(1,{digits})", 5)):
        code, out, err = run(capsys, "spectrum", flag, text)
        line = text.count("\n") + 1
        assert (code, out) == (2, "")
        assert err == f"error: number too long (line {line}, column {column})\n"


def test_domain_errors_exit_one(capsys, tmp_path):
    # disconnected input for a control command
    assert run(capsys, "leaders", "--expr", ".+.")[0] == 1
    # a non-cograph behind any command
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    code, _, err = run(capsys, "leaders", "--edges", str(path))
    assert code == 1 and "P4" in err
    # single vertex has no control problem
    assert run(capsys, "leaders", "--expr", ".")[0] == 1


def test_edge_file_encoding(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff4 3\n1 2\n2 3\n3 4\n")
    code, _, err = run(capsys, "recognize", "--edges", str(path))
    assert (code, err) == (2, "error: edge list is not UTF-8 text\n")
    # a byte-order mark is not part of the header
    path.write_bytes("\ufeff4 3\n1 2\n2 3\n3 4\n".encode("utf-8"))
    code, out, _ = run(capsys, "recognize", "--edges", str(path))
    assert (code, out) == (1, "P4: 1 2 3 4\n")


def test_text_output_lines(capsys):
    code, out, _ = run(capsys, "leaders", "--threshold", THRESHOLD_EXAMPLE, "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "min_size: 2"
    assert lines[1] == "set: 1,5"
    assert lines[2] == "count: 4"
    assert set(lines[3:]) == {"set: 1,5", "set: 1,6", "set: 2,5", "set: 2,6"}


def test_empty_flag_values_reach_their_parser(capsys):
    code, _, err = run(capsys, "spectrum", "--expr", "")
    assert code == 2 and "empty expression" in err
    code, _, err = run(capsys, "spectrum", "--cotree", "")
    assert code == 2 and "expected a number" in err
    code, _, err = run(capsys, "spectrum", "--threshold", "")
    assert code == 2 and "empty threshold sequence" in err
    code, _, err = run(capsys, "spectrum", "--edges", "")
    assert code == 2 and "No such file" in err
    for flag in ("--expr", "--cotree", "--threshold", "--edges"):
        assert "exactly one of" not in run(capsys, "recognize", flag, "")[2]
    # an empty value still counts as given when a second flag is present;
    # a missing or doubled flag is reported with the command's own usage
    for argv in (["spectrum", "--expr", "", "--threshold", "01"], ["spectrum", "--json"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("usage: cographctl spectrum [-h] [--expr EXPR] ")
        assert err.endswith("\ncographctl spectrum: error: exactly one of "
                            "--expr/--cotree/--threshold/--edges is required\n")


def test_graph_built_only_for_commands_that_read_it(monkeypatch, capsys):
    import cographctl.cli as cli

    built = []
    real = cli.cotree_to_graph
    monkeypatch.setattr(cli, "cotree_to_graph", lambda t: built.append(t) or real(t))
    inputs = (("--expr", "(.+.)*(.+.+.)"), ("--cotree", "1(0(1,2),3,0(4,5))"),
              ("--threshold", THRESHOLD_EXAMPLE))
    for argv in (["recognize"], ["spectrum", "--modal"], ["partition"],
                 ["partition", "--degree"], ["leaders", "--all"], ["verify", "--set", "1,3"]):
        for flag, value in inputs:
            assert run(capsys, *argv, flag, value)[0] == 0
    assert built == []
    for argv in (["verify", "--set", "1,3", "--cross-check"], ["oracle"]):
        for flag, value in inputs:
            assert run(capsys, *argv, flag, value)[0] == 0
    assert len(built) == 6


def test_vertex_cap_is_checked_before_allocating(capsys, tmp_path):
    # one vertex over the cap; the same inputs with 11 digits used to exhaust
    # memory before any check ran
    with pytest.raises(SizeCapError):
        parse_expr("1000001")
    with pytest.raises(SizeCapError):
        parse_expr("500000+500001")  # the cap holds for the running total
    with pytest.raises(SizeCapError):
        read_edge_list("1000001 0\n")
    path = tmp_path / "huge.txt"
    path.write_text("1000001 0\n")
    for argv in (["random", "--nodes", "1000001", "--seed", "1"],
                 ["spectrum", "--expr", "1000001"],
                 ["recognize", "--edges", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "more than 1000000 vertices" in err


def test_super_polynomial_paths_are_capped_before_their_work(monkeypatch, capsys):
    import cographctl.cli as cli

    built = []
    real = cli.cotree_to_graph
    monkeypatch.setattr(cli, "cotree_to_graph", lambda t: built.append(t) or real(t))
    monkeypatch.setattr(cli.spectral, "spectrum", built.append)  # no spectrum either
    cases = [
        # spectrum --modal: dense n x (n-1) matrix, capped at n <= 3000
        (["spectrum", "--expr", "100000", "--modal"], "modal matrix capped at n <= 3000"),
        (["spectrum", "--expr", "3001", "--modal"], "modal matrix capped at n <= 3000"),
        (["spectrum", "--expr", "3001", "--modal", "--json"], "capped at n <= 3000, got 3001"),
        # leaders --all: sets x vertices capped at 10^6; the star K_{1,1000} has
        # only 1000 sets, but each holds 999 vertices
        (["leaders", "--expr", ".*1000", "--all"], "got 1000 x 1001"),
        (["leaders", "--expr", "11*9091", "--all"], "got 100001 x 9102"),
        # verify --cross-check: Kalman rank, capped at n <= 100
        (["verify", "--expr", ".*100", "--set", "1", "--cross-check"],
         "cross-check capped at n <= 100, got 101"),
        (["oracle", "--expr", ".*10"], "oracle battery capped at n <= 10, got 11"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
    assert built == []


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """Each call in one process answers as the same call on a freshly built
    parser does, whatever flags the call before it set. The plain calls build
    no parser; the first argv that argparse reads builds it, once."""
    verify = ["verify", "--expr", "(.+.)*(.+.+.)", "--set", "1,3,4"]
    sequence = [
        ["leaders", "--threshold", THRESHOLD_EXAMPLE, "--tie", "highest"],
        ["leaders", "--threshold", THRESHOLD_EXAMPLE],
        [*verify, "--cross-check"],
        verify,
        ["spectrum", "--expr", ".", "--modal", "--bogus"],
        ["spectrum", "--expr", "(.+.)*(.+.+.)"],
        ["leaders", f"--threshold={THRESHOLD_EXAMPLE}", "--tie=highest"],
        ["leaders", f"--threshold={THRESHOLD_EXAMPLE}"],
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    kept = [run(capsys, *argv) for argv in sequence[:4]]
    assert cli.build_parser.cache_info().misses == 0
    kept += [run(capsys, *argv) for argv in sequence[4:]]
    assert cli.build_parser.cache_info().misses == 1
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert kept[0][1] != kept[1][1]  # the tie rule was reset to its default
    assert kept[6:] == kept[:2]  # and so it is by argparse
    assert "kalman_rank" in kept[2][1] and "kalman_rank" not in kept[3][1]
    assert "unrecognized arguments: --bogus" in kept[4][2]
    assert "modal" not in kept[5][1]


def argparse_reading(argv):
    """argparse's namespace for ``argv`` as an ordered item list, or None
    where it exits (help, usage errors) or raises on a token that is not a str."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return list(vars(cli.build_parser().parse_args(argv)).items())
    except (SystemExit, TypeError):
        return None


def request_argvs(rng: random.Random):
    """Argvs shaped like the benchmark's requests: each analysis command on
    each input flag, with its own flags after the input and --json last."""
    texts = {"--expr": ["(.+.)*(.+.+.)", "(.+.)\n*(.+.)", "12", "@-"],
             "--cotree": ["1(0(1,2),0(3,4,5))", "0( 1 , 1(2,3) )", "@tree.txt"],
             "--threshold": [THRESHOLD_EXAMPLE, "01" * 40], "--edges": ["graph.txt", ""]}
    extras = {"spectrum": [[], ["--modal"]], "partition": [[], ["--degree"]],
              "leaders": [[], ["--all"], ["--tie", "highest"], ["--tie", "lowest", "--all"]],
              "verify": [["--set", "1,3,4"], ["--set", "2", "--cross-check"]],
              "recognize": [[]], "oracle": [[]]}
    for command, flag_sets in extras.items():
        for flag, values in texts.items():
            for extra in flag_sets:
                yield [command, flag, rng.choice(values), *extra, *rng.choice([[], ["--json"]])]


def mutants(base, rng: random.Random):
    """``base`` with one to three edits that argparse reads, or refuses, in
    ways the plain reader must leave to it."""
    flags = ["--expr", "--cotree", "--json", "--modal", "--all", "--tie", "--set",
             "--cross-check", "--nodes", "--bogus", "-h", "--help", "--", "-x"]
    edits = [
        lambda a: a[:1] + [t[:rng.randint(3, len(t) - 1)] if t.startswith("--") and len(t) > 4
                           else t for t in a[1:]],  # abbreviations
        lambda a: [a[0], f"{a[1]}={a[2]}", *a[3:]] if len(a) > 2 else a,  # --flag=value
        lambda a: a[:1] + a[3:] + a[1:3],  # the input flag moved to the end
        lambda a: a + a[1:3],  # a repeated flag, last value kept
        lambda a: a + [rng.choice(["--expr", "--set", "--tie", "--cotree"])],  # no value
        lambda a: a[:2] + [rng.choice(["-1", "-", "--json", "-(.+.)"])] + a[3:],
        lambda a: a[:(i := rng.randint(0, len(a)))] + [rng.choice(flags)] + a[i:],  # -h, --, ...
        lambda a: [rng.choice(["bogus", "Spectrum", "spec", "random", "--json", ""])] + a[1:],
        lambda a: a[:rng.randint(0, 2)],
        lambda a: a + ["--tie", rng.choice(["middle", "Lowest", "lowest", "highest", ""])],
        lambda a: [t for t in a if not t.startswith("--set") and "," not in t],
        lambda a: ["random", "--nodes", str(rng.randint(-2, 9)), "--seed", "3",
                   *rng.choice([[], ["--threshold"], ["--json"], ["--nodes", "4"]])],
    ]
    argv = list(base)
    for _ in range(rng.randint(1, 3)):
        argv = rng.choice(edits)(argv)
    if rng.random() < 0.05:  # a token that is not a str
        argv.insert(rng.randint(0, len(argv)), rng.choice([5, None, b"--json", ("a",)]))
    return argv


def test_plain_reader_gives_argparse_namespace_or_defers(monkeypatch, capsys):
    """On every golden argv, every benchmark-shaped argv and thousands of
    mutants of them, the plain reader returns argparse's namespace, in the
    same order, or None; it returns None wherever argparse exits or raises,
    and reads every golden argv but the random command's."""
    rng = random.Random(2727)
    golden = [case["argv"] for case in
              json.loads(Path(__file__).with_name("golden_cli.json").read_text())["cases"]]
    requests = list(request_argvs(rng))
    mutated = [mutants(rng.choice(golden + requests), rng) for _ in range(4000)]
    taken = refused = 0
    for argv in golden + requests + mutated:
        plain = cli._plain_args(list(argv))
        expected = argparse_reading(list(argv))
        refused += expected is None
        if plain is not None:
            taken += 1
            assert list(vars(plain).items()) == expected, argv
    assert all(cli._plain_args(argv) is not None
               for argv in golden + requests if argv[0] != "random")
    assert refused > 2000 and taken - len(golden) - len(requests) > 250
    # argv=None reads sys.argv[1:] through the same reader, which builds no parser
    monkeypatch.setattr(sys, "argv", ["cographctl", "recognize", "--expr", "(.+.)*(.+.+.)"])
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("plain argv built the parser"))
    assert (main(), capsys.readouterr().out) == (0, "1(0(1,2),0(3,4,5))\n")


def declared_grammar():
    """The plain grammar as ``build_parser``'s actions declare it: per command
    whose actions are all flags and untyped one-value options, the defaults in
    declaration order, each option string's (dest, const) for a flag or (dest,
    choices) for a value option, and the required dests."""
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    grammar = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if a.default is not argparse.SUPPRESS]  # all but -h/--help
        if all(type(a) is argparse._StoreTrueAction
               or type(a) is argparse._StoreAction and a.nargs is None and a.type is None
               for a in actions):
            grammar[name] = (
                [(a.dest, a.default) for a in actions],
                {s: (a.dest, a.const if a.nargs == 0 else a.choices and tuple(a.choices))
                 for a in actions for s in a.option_strings},
                {a.dest for a in actions if a.required})
    return grammar


def test_plain_table_is_the_declared_grammar():
    """``cli._PLAIN`` and ``cli._OPTIONS`` hold what the parser declares: the
    same commands, defaults in the same order, option strings, consts,
    choices and required dests."""
    table = {name: ([*defaults.items()],
                    {s: o for s, o in cli._OPTIONS.items() if o[0] in defaults},
                    set(required))
             for name, (defaults, required) in cli._PLAIN.items()}
    assert table == declared_grammar()
    assert set(cli._OPTIONS) == {s for _, options, _ in table.values() for s in options}


def test_plain_request_imports_no_argparse(tmp_path):
    """A fresh interpreter answers a plain argv without importing argparse, and
    on a heap frozen after import the request leaves only a few dozen tracked
    objects (a built parser keeps about 340 containers alive for the collector
    to walk after every request); -h still imports argparse and prints the
    subcommand's usage."""
    code = (
        "import contextlib, gc, io, sys\n"
        "from cographctl.cli import main\n"
        "gc.collect(); gc.freeze()\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(sys.argv[1:])\n"
        "gc.collect()\n"
        "print(code, 'argparse' in sys.modules, len(gc.get_objects()))\n"
        "print(out.getvalue(), end='')\n")
    src = os.path.dirname(os.path.dirname(cographctl.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def request(*argv):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr == ""
        status, rest = proc.stdout.split("\n", 1)
        code_, imported, objects = status.split()
        return int(code_), imported == "True", int(objects), rest

    code_, imported, objects, out = request(
        "verify", "--expr", "(.+.)*(.+.+.)", "--set", "1,3,4", "--json")
    assert (code_, imported, out) == (
        0, False, '{"controllable":true,"cotree":"1(0(1,2),0(3,4,5))","n":5,"set":[1,3,4]}\n')
    assert objects < 60
    code_, imported, _, out = request("verify", "-h")
    assert (code_, imported) == (0, True) and out.startswith("usage: cographctl verify")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the address-space limit is enforced on Linux")
def test_out_of_memory_exits_one_without_a_traceback(tmp_path):
    """A 9-byte edge list asks for 2 * 10^5 vertices, within the vertex cap;
    recognition's bit masks on it need more than a 1 GB address space."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "edgeless.txt"
    path.write_text("200000 0")
    src = os.path.dirname(os.path.dirname(cographctl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cographctl.cli", "recognize", "--edges", str(path)],
                          env=env, preexec_fn=limit_memory, capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_console_script_runs_without_the_collector(monkeypatch, capsys, tmp_path):
    """``entry`` turns the cyclic collector off before ``main``, which leaves
    the collector as it found it: no request leaves a reference cycle, on
    10^3 and 10^4 leaves or when it fails, so the collector has nothing to
    free and would only rescan the request's data."""
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
    finally:
        gc.enable()
    assert seen == [False] and exit_.value.code == 0
    monkeypatch.undo()
    requests = [["spectrum", "--expr", "(.+"], ["leaders", "--expr", ".+."]]
    for nodes in (1000, 10_000):
        assert main(["random", "--nodes", str(nodes), "--seed", "1"]) == 0
        assert gc.isenabled()
        path = tmp_path / f"{nodes}.txt"
        path.write_text(capsys.readouterr().out)
        requests += [[command, "--cotree", f"@{path}", "--json"]
                     for command in ("spectrum", "partition", "leaders")]
    gc.disable()
    try:
        for argv in requests:
            gc.collect()
            main(argv)
            assert not gc.isenabled() and gc.collect() == 0, argv
    finally:
        gc.enable()
    assert capsys.readouterr().err.count("error: ") == 2


def test_text_output_builds_no_payload_and_no_cotree_text(monkeypatch, capsys):
    """Text output carries neither the JSON payload nor the cotree text, so
    the analysis commands never build either in text mode."""
    def refuse(*args):
        raise AssertionError("built for output that is not printed")

    monkeypatch.setattr(cli, "serialize_cotree", refuse)
    monkeypatch.setattr(cli, "_json", refuse)
    inputs = (("--expr", "(.+.)*(.+.+.)"), ("--cotree", "1(0(1,2),3,0(4,5))"),
              ("--threshold", THRESHOLD_EXAMPLE))
    for argv in (["spectrum"], ["spectrum", "--modal"], ["partition"], ["partition", "--degree"],
                 ["leaders"], ["leaders", "--all", "--tie", "highest"], ["verify", "--set", "1,3"],
                 ["verify", "--set", "1,3", "--cross-check"], ["oracle"]):
        for flag, value in inputs:
            code, out, err = run(capsys, *argv, flag, value)
            assert (code, err) == (0, "") and out


def test_json_output_builds_no_text_lines(monkeypatch, capsys):
    """With --json, ``partition --degree`` and ``leaders --all`` call no
    ``str`` for a text line (``leaders --all`` renders its sets straight
    into JSON array text) and pick no single set for a text line; the same
    commands in text mode do both."""
    import builtins

    formatted, selected = [], []
    real_select = cli.control._min_set  # the selection on cells computed once
    monkeypatch.setattr(cli, "str", lambda x: formatted.append(x) or builtins.str(x),
                        raising=False)
    monkeypatch.setattr(cli.control, "_min_set",
                        lambda *a: selected.append(a) or real_select(*a))
    commands = (["partition", "--degree"], ["leaders", "--all"])
    for argv in commands:
        code, payload, _ = run_json(capsys, *argv, "--threshold", THRESHOLD_EXAMPLE)
        assert code == 0 and payload["cells"]
    assert formatted == [] and selected == []
    for argv in commands:
        assert run(capsys, *argv, "--threshold", THRESHOLD_EXAMPLE)[0] == 0
    assert len(formatted) > 7 and len(selected) == 1


def test_each_request_computes_the_cells_once(monkeypatch, capsys):
    """The sibling cells of one immutable tree are computed once per request
    and serve every answer; the errors still name the operation each
    command names first."""
    calls = []
    real = cli.control.sibling_partition
    monkeypatch.setattr(cli.control, "sibling_partition", lambda t: calls.append(t) or real(t))
    for argv in (["partition"], ["partition", "--degree"], ["leaders"], ["leaders", "--all"],
                 ["leaders", "--tie", "highest"], ["leaders", "--all", "--tie", "highest"],
                 ["verify", "--set", "1,3,4"], ["oracle"]):
        for json_flag in ((), ("--json",)):
            calls.clear()
            code, out, err = run(capsys, *argv, "--expr", "(.+.)*(.+.+.)", *json_flag)
            assert (code, err) == (0, "") and out
            assert len(calls) == 1, (argv, json_flag)
    for argv, op in ((["leaders"], "min_control_size"), (["leaders", "--all"], "min_control_size"),
                     (["oracle"], "enumerate_min_control_sets")):
        for expr, message in ((".+.", "requires a connected graph"),
                              (".", "requires more than one vertex")):
            code, _, err = run(capsys, *argv, "--expr", expr, "--json")
            assert code == 1 and err.startswith(f"error: {op} {message}"), err


TEXT_FLAGS = ("--expr", "--cotree", "--threshold")


def test_at_path_gives_the_inline_output_on_golden_cases(capsys, tmp_path):
    """Every 5th golden case with a text flag, its text moved to a file:
    exit code, stdout and stderr are byte-identical to the inline run."""
    golden = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())
    cases = [c for c in golden["cases"] if any(f in c["argv"] for f in TEXT_FLAGS)][::5]
    path = tmp_path / "input.txt"
    for case in cases:
        argv = list(case["argv"])
        at = next(i for i, arg in enumerate(argv) if arg in TEXT_FLAGS) + 1
        path.write_bytes(argv[at].encode("utf-8"))
        argv[at] = f"@{path}"
        assert run(capsys, *argv) == (case["code"], case["stdout"], case["stderr"]), argv
    assert len(cases) > 140


def test_at_path_decoding_and_errors(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    for flag in TEXT_FLAGS:
        code, out, err = run(capsys, "spectrum", flag, f"@{missing}")
        assert (code, out) == (2, "") and "No such file or directory" in err
        code, out, err = run(capsys, "spectrum", flag, f"@{tmp_path}")
        assert (code, out) == (2, "") and "Is a directory" in err
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff0101")
        assert run(capsys, "spectrum", flag, f"@{bad}") == (
            2, "", f"error: {flag} input is not UTF-8 text\n")
    # a byte-order mark is dropped, as in edge lists; errors point into the file
    good = tmp_path / "good.txt"
    good.write_bytes("\ufeff(.+.)*(.+.+.)\n".encode("utf-8"))
    assert run(capsys, "recognize", "--expr", f"@{good}") == (0, "1(0(1,2),0(3,4,5))\n", "")
    good.write_text("(.+.)\n*x")
    assert run(capsys, "spectrum", "--expr", f"@{good}")[::2] == (
        2, "error: unexpected character 'x' (line 2, column 2)\n")


def test_at_dash_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1(0(1,2),3)\n")))
    assert run(capsys, "recognize", "--cotree", "@-") == (0, "1(0(1,2),3)\n", "")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"01\xff")))
    assert run(capsys, "spectrum", "--threshold", "@-") == (
        2, "", "error: --threshold input is not UTF-8 text\n")


def test_at_dash_reads_stdin_in_a_process(capsys):
    src = os.path.dirname(os.path.dirname(cographctl.__file__))
    proc = subprocess.run([sys.executable, "-m", "cographctl.cli", "spectrum", "--threshold", "@-",
                           "--json"], input=THRESHOLD_EXAMPLE + "\n", env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(
        capsys, "spectrum", "--threshold", THRESHOLD_EXAMPLE, "--json")
    # with file descriptor 0 closed, Python has no sys.stdin at all
    proc = subprocess.run([sys.executable, "-m", "cographctl.cli", "spectrum", "--expr", "@-"],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=lambda: os.close(0),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: no standard input to read\n")


def rendering_corpus():
    """Random cotrees, nodes with 100 or more leaf children, stars, threshold
    caterpillars, pair chains of 2-12 cells with a cut (cells in id order)
    and without one (cell i is {i, k + i}), and joins with more minimum sets
    than the tail table holds slots."""
    rng = random.Random(29)
    trees = cotree_corpus(120, 30, seed=29, mixed_roots=True)
    trees += [random_cotree(n, rng) for n in (1, 2, 3, 200, 500)]
    trees += [parse_expr(e) for e in ("(120)*(.+.)*(101)", "((100)*.+.)*(3)", "(.+.)*(150)")]
    trees += [parse_expr(f".*{k}") for k in (1, 2, 7, 300)]
    trees += [parse_threshold(bits) for bits in ("01" * 150, "0" + "1" * 40, "0011" * 30 + "1")]
    trees += [parse_threshold("0" + "".join(rng.choice("01") for _ in range(rng.randint(1, 150))))
              for _ in range(20)]
    for k in range(2, 13):
        trees.append(parse_expr("*".join(["(.+.)"] * k)))
        trees.append(parse_cotree("1(" + ",".join(f"0({i},{k + i})" for i in range(1, k + 1)) + ")"))
    trees += [parse_expr("(.+.+.)*" * 8 + "(.+.+.+.)"), parse_expr("(.+.)*" * 7 + "(.+.)*.")]
    return trees


def test_rendered_rows_equal_the_encoded_tuples():
    """Modal rows and minimum sets rendered from shared parts give the text
    that the JSON encoder and a per-line join give on the tuple forms."""
    over_tail_cap = 0
    for t in rendering_corpus():
        matrix = modal_matrix(t)
        assert "".join(cli._json({}, modal=spectral._modal_rows(t, cli._render(",")))) == (
            cli._ENCODER.encode({"modal": matrix}) + "\n"), serialize_cotree(t)
        assert "".join(cli._listing(spectral._modal_rows(t, cli._render(" ")), "", "\n")) == "".join(
            " ".join(map(str, row)) + "\n" for row in matrix), serialize_cotree(t)
        if t.n == 1 or t.label(t.root) != 1:
            continue
        cells = sibling_partition(t)
        if prod(map(len, cells)) * t.n > cli.ALL_SETS_CAP:
            continue
        sets = list(control._min_sets(cells))
        assert "".join(cli._json({}, sets=control._min_sets(cells, cli._render(",")))) == (
            cli._ENCODER.encode({"sets": sets}) + "\n"), serialize_cotree(t)
        assert "".join(cli._listing(control._min_sets(cells, cli._render(",")), "set: ", "\n")) == (
            "".join("set: " + ",".join(map(str, s)) + "\n" for s in sets)), serialize_cotree(t)
        over_tail_cap += len(sets) * len(sets[0]) > control._TAIL_CAP
    assert over_tail_cap >= 2


def test_one_and_two_vertex_modal_output(capsys):
    assert run(capsys, "spectrum", "--expr", ".", "--modal", "--json") == (
        0, '{"cotree":"1","modal":[[]],"n":1,"spectrum":[[0,1]]}\n', "")
    assert run(capsys, "spectrum", "--expr", ".", "--modal") == (
        0, "spectrum: 0^1\nmodal:\n\n", "")
    assert run(capsys, "spectrum", "--expr", ".*.", "--modal", "--json") == (
        0, '{"cotree":"1(1,2)","modal":[[1],[-1]],"n":2,"spectrum":[[0,1],[2,1]]}\n', "")
    assert run(capsys, "spectrum", "--expr", ".*.", "--modal") == (
        0, "spectrum: 0^1 2^1\nmodal:\n1\n-1\n", "")
    assert run(capsys, "leaders", "--expr", ".*.", "--all") == (
        0, "min_size: 1\nset: 1\ncount: 2\nset: 1\nset: 2\n", "")


def test_json_with_raw_fragments_equals_the_encoder_on_golden_payloads(monkeypatch, capsys,
                                                                        tmp_path):
    """Every payload the golden cases print, with its listing's rows decoded
    back in, encodes to the line whose parts ``_json`` gave; and splicing in
    any one of its values that holds int rows as the listing, in parts of any
    size, leaves the line unchanged."""
    golden = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())
    seen = []
    parts = cli._json

    def real(payload, **listing):
        return "".join(parts(payload, **listing))

    def record(payload, **listing):
        listing = {key: list(rows) for key, rows in listing.items()}
        seen.append((payload, listing))
        return parts(payload, **listing)

    monkeypatch.setattr(cli, "_json", record)
    edge_file = tmp_path / "graph.txt"
    for case in golden["cases"]:
        argv = list(case["argv"])
        if "--edges" in argv:  # the case stores the file's text in place of its path
            at = argv.index("--edges") + 1
            edge_file.write_text(argv[at])
            argv[at] = str(edge_file)
        main(argv)
    capsys.readouterr()
    assert len(seen) > 300 and sum(bool(listing) for _, listing in seen) > 30
    rows_moved = 0
    for payload, listing in seen:
        whole = payload | {key: json.loads("[" + ",".join(f"[{row[:-1]}]" for row in rows) + "]")
                           for key, rows in listing.items()}
        line = cli._ENCODER.encode(whole) + "\n"
        assert real(payload, **listing) == line
        assert real(whole) == line
        for key, value in whole.items():
            if not (isinstance(value, (list, tuple)) and value
                    and all(isinstance(row, (list, tuple)) for row in value)):
                continue
            rows = [cli._render(",")(row) for row in value]
            rest = {k: v for k, v in whole.items() if k != key}
            for piece in (1, 7, 1 << 14):
                monkeypatch.setattr(cli, "_PIECE", piece)
                assert real(rest, **{key: rows}) == line
            rows_moved += 1
    assert rows_moved > 300
