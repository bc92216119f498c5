"""Command surface, JSON schema, and exit codes."""

import json

import pytest

from cographctl import (
    SizeCapError,
    canonicalize,
    parse_cotree,
    parse_expr,
    read_edge_list,
    serialize_cotree,
)
from cographctl.cli import main

from helpers import EIGHT_NODE_TEXT, THRESHOLD_EXAMPLE


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
    assert reparsed == canonicalize(parse_cotree("1(1,0(0(2,3),4))"))
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
    assert run(capsys, "spectrum", "--edges", "/nonexistent/file")[0] == 2


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
    # an empty value still counts as given when a second flag is present
    code, _, err = run(capsys, "spectrum", "--expr", "", "--threshold", "01")
    assert code == 2 and "exactly one of" in err


def test_graph_built_only_for_commands_that_read_it(monkeypatch, capsys):
    import cographctl.cli as cli

    built = []
    real = cli.cotree_to_graph
    monkeypatch.setattr(cli, "cotree_to_graph", lambda t: built.append(t) or real(t))
    inputs = (("--expr", "(.+.)*(.+.+.)"), ("--cotree", "1(0(1,2),3,0(4,5))"),
              ("--threshold", THRESHOLD_EXAMPLE))
    for argv in (["recognize"], ["spectrum", "--modal"], ["partition"], ["leaders", "--all"],
                 ["verify", "--set", "1,3"]):
        for flag, value in inputs:
            assert run(capsys, *argv, flag, value)[0] == 0
    assert built == []
    for argv in (["partition", "--degree"], ["verify", "--set", "1,3", "--cross-check"],
                 ["oracle"]):
        for flag, value in inputs:
            assert run(capsys, *argv, flag, value)[0] == 0
    assert len(built) == 9


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
