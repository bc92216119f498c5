"""Command surface, JSON schema, and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cographctl import (
    SizeCapError,
    parse_cotree,
    parse_expr,
    read_edge_list,
    serialize_cotree,
)
import cographctl
import cographctl.cli as cli
from cographctl.cli import main

from helpers import EIGHT_NODE_TEXT, THRESHOLD_EXAMPLE, is_canonical


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
    cases = [
        # spectrum --modal: dense n x (n-1) matrix, capped at n <= 3000
        (["spectrum", "--expr", "100000", "--modal"], "modal matrix capped at n <= 3000"),
        (["spectrum", "--expr", "3001", "--modal"], "modal matrix capped at n <= 3000"),
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
    parser does, whatever flags the call before it set."""
    verify = ["verify", "--expr", "(.+.)*(.+.+.)", "--set", "1,3,4"]
    sequence = [
        ["leaders", "--threshold", THRESHOLD_EXAMPLE, "--tie", "highest"],
        ["leaders", "--threshold", THRESHOLD_EXAMPLE],
        [*verify, "--cross-check"],
        verify,
        ["spectrum", "--expr", ".", "--modal", "--bogus"],
        ["spectrum", "--expr", "(.+.)*(.+.+.)"],
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    kept = [run(capsys, *argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 0, 0, 2, 0]
    assert kept[0][1] != kept[1][1]  # the tie rule was reset to its default
    assert "kalman_rank" in kept[2][1] and "kalman_rank" not in kept[3][1]
    assert "unrecognized arguments: --bogus" in kept[4][2]
    assert "modal" not in kept[5][1]


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
    """With --json, ``partition --degree`` and ``leaders --all`` turn no
    number into text and pick no single set for a text line; the same
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
