"""The edge-list reader's two routes: the one-pass plain route either
returns the graph the line loop returns or declines, and it serves the
files that writers produce."""

import random

from hypothesis import given, strategies as st

from cographctl import (
    ParseError,
    SizeCapError,
    cotree_to_graph,
    random_cotree,
    read_edge_list,
    write_edge_list,
)
from cographctl import cli, parsing

from helpers import from_edges, random_graph

P4_TEXT = "4 3\n1 2\n2 3\n3 4\n"

# Pieces that sit near the edge of the plain form: every line break
# str.splitlines knows that is not '\n' sends a text to the line loop, and
# '+', '_', leading zeros, signs and non-ASCII digits are integers to int().
PIECES = ["#", "\r", "\r\n", "\t", "\x0c", "\x1f", "\x85", " ", "+", "_", "05", "-1",
          "٣", "\n", "0", "1", "2", "3", "4", "9", " 1", "\n1 2", "\n2 1", "\n#c"]


def both_routes(text: str):
    """(plain route's graph or None, line loop's graph or None if it raises)."""
    try:
        loop = parsing._read_lines(text)
    except (ParseError, SizeCapError):
        loop = None
    return parsing._read_plain(text), loop


def mutated(text: str, rng: random.Random) -> str:
    """The text with one to three pieces inserted, characters deleted, or
    characters replaced by pieces."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.4:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
    return text


def commented_edge_list(rng: random.Random) -> str:
    """A small graph's edge list in random order and orientation, with
    comment lines spliced in, sometimes other line breaks or padding than
    plain '\\n', and sometimes no final break."""
    n = rng.randint(1, 6)
    g = random_graph(n, rng, rng.random())
    edges = [(i + 1, j + 1) if rng.random() < 0.5 else (j + 1, i + 1) for i, j in g.edges()]
    rng.shuffle(edges)
    lines = [f"{n} {len(edges)}", *(f"{a} {b}" for a, b in edges)]
    for _ in range(rng.randint(0, 3)):
        comment = "#" + "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 3)))
        lines.insert(rng.randint(0, len(lines)), comment)
    sep = rng.choice(["\n"] * 5 + ["\r\n", "\n\n", "\r", " \n", "\x0c"])
    text = sep.join(lines) + (sep if rng.random() < 0.8 else "")
    return mutated(text, rng) if rng.random() < 0.3 else text


def test_plain_route_agrees_with_the_line_loop():
    rng = random.Random(20261018)
    plain = loop_only = errors = 0
    for k in range(16_000):
        if k % 4 == 0:
            text = mutated(P4_TEXT, rng)
        elif k % 4 == 1:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
        else:
            text = commented_edge_list(rng)
        fast, loop = both_routes(text)
        if fast is not None:
            assert fast == loop, repr(text)
            plain += 1
        elif loop is not None:
            loop_only += 1
        else:
            errors += 1
    # each outcome is common enough that the comparison means something
    assert min(plain, loop_only, errors) > 1000, (plain, loop_only, errors)


def test_plain_route_declines_what_it_must_not_read():
    cases = [
        "4 2\n#c\r1 2\n2 3\n3 4\n",  # '\r' ends the comment: "1 2" is an edge line
        "3 1\n1 2 # c\n",  # inline comment
        "3 1\n\n1 2\n",  # blank line
        "3 1\r\n1 2\r\n",
        "3 1\n1  2\n",
        "3 1\n+1 2\n",
        "3 1\n1_0 2\n",
        "3 1\n1 ٣\n",
        "3 1\n1 4\n",  # out of range
        "3 1\n0 2\n",
        "3 1\n2 2\n",  # self-loop
        "3 2\n1 2\n2 1\n",  # duplicate
        "3 2\n1 2\n",  # edge count
        "3 -1\n",
        "0 0\n",
        "1000001 0\n",  # past the vertex cap
        "3 1\n1 " + "1" * 5000 + "\n",  # too many digits for int()
        "",
        "#only\n",
    ]
    for text in cases:
        assert parsing._read_plain(text) is None, repr(text)


def test_plain_route_reads_leading_zeros_like_int():
    assert parsing._read_plain("3 1\n01 3\n") == read_edge_list("3 1\n1 3\n")


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    return from_edges(n, {(min(e), max(e)) for e in pairs if e[0] != e[1]})


@given(graphs())
def test_written_edge_lists_take_the_plain_route(g):
    text = write_edge_list(g)
    assert parsing._read_plain(text) == g
    assert read_edge_list(text) == g


def test_real_traffic_never_enters_the_line_loop(monkeypatch, capsys, tmp_path):
    def line_loop(text):
        raise AssertionError("the line loop read a plain edge list")

    monkeypatch.setattr(parsing, "_read_lines", line_loop)
    g = cotree_to_graph(random_cotree(60, random.Random(7)))
    written = write_edge_list(g)
    assert read_edge_list(written) == g
    # the shape of the benchmark's files: a comment line, then the edges
    # in shuffled order with either endpoint first
    rng = random.Random(8)
    edges = [(i + 1, j + 1) if rng.random() < 0.5 else (j + 1, i + 1) for i, j in g.edges()]
    rng.shuffle(edges)
    text = "\n".join(["# generated by a benchmark", f"{g.n} {len(edges)}",
                      *(f"{a} {b}" for a, b in edges)]) + "\n"
    assert read_edge_list(text) == g
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["recognize", "--edges", str(path)]) == 0
