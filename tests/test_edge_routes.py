"""The edge-list reader's two routes: the one-pass plain route either
returns the graph the line loop returns or declines, and it serves the
files that writers produce."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cographctl import (
    ParseError,
    SizeCapError,
    cotree_to_graph,
    parse_expr,
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


def edge_lines(g, rng: random.Random) -> list[str]:
    """The graph's edges as "a b" lines in random order, either endpoint
    first, as the benchmark writes its files."""
    edges = [(i + 1, j + 1) if rng.random() < 0.5 else (j + 1, i + 1) for i, j in g.edges()]
    rng.shuffle(edges)
    return [f"{a} {b}" for a, b in edges]


def commented_edge_list(rng: random.Random) -> str:
    """A small graph's edge list in random order and orientation, with
    comment lines spliced in, sometimes other line breaks or padding than
    plain '\\n', and sometimes no final break."""
    n = rng.randint(1, 6)
    g = random_graph(n, rng, rng.random())
    edges = edge_lines(g, rng)
    lines = [f"{n} {len(edges)}", *edges]
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
    """The bit rows read a leading zero like int(); the byte matrix's id
    tables hold only canonical ids, so it declines and the line loop reads
    the same graph."""
    assert parsing._read_plain("3 1\n01 3\n") == read_edge_list("3 1\n1 3\n")
    k3 = "3 3\n1 2\n1 3\n2 3\n"
    padded = k3.replace("\n1 3", "\n01 3")
    assert 3 * 3 <= 8 * 3 <= 2 * len(padded)  # the matrix route
    assert parsing._read_plain(padded) is None
    assert read_edge_list(padded) == read_edge_list(k3) == parsing._read_plain(k3)


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
    edges = edge_lines(g, random.Random(8))
    text = "\n".join(["# generated by a benchmark", f"{g.n} {len(edges)}", *edges]) + "\n"
    assert read_edge_list(text) == g
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["recognize", "--edges", str(path)]) == 0


def test_chunked_plain_route_reads_as_one_pass(monkeypatch):
    """Chunks of any size give the plain route's answer on the whole text:
    comment lines at chunk starts, blank lines before comments and errors in
    a later chunk included."""
    rng = random.Random(20261019)
    texts = [mutated(P4_TEXT, rng) for _ in range(1000)]
    texts += [commented_edge_list(rng) for _ in range(4000)]
    whole = [parsing._read_plain(text) for text in texts]
    assert sum(g is not None for g in whole) > 800
    for chunk in (1, 2, 5, 13):
        monkeypatch.setattr(parsing, "_CHUNK", chunk)
        assert [parsing._read_plain(text) for text in texts] == whole, chunk


def rule_cases(rng: random.Random):
    """Edge lists on both sides of the byte-matrix rule
    n * n <= 8 * m <= 2 * len(text): each graph's list as written, and
    with a header that claims n * n / 8 edges, each bare and after a
    comment line of n * n characters; then each with a self-loop, a
    repeated edge or an endpoint out of range spliced in at a random edge
    line."""
    for _ in range(240):
        n = rng.randint(2, 120)
        g = random_graph(n, rng, rng.choice([0.01, 0.1, 0.3, 0.5, 0.8]))
        edges = edge_lines(g, rng)
        v = rng.randint(1, n)
        bad = [f"{v} {v}", edges[0] if edges else "1 1", f"{v} {n + 1}", f"0 {v}"]
        for lines in (edges, *(edges[:k] + [b] + edges[k:] for b in bad
                               for k in [rng.randint(0, len(edges))])):
            for m in (len(lines), -(-n * n // 8)):
                for comment in ("", "#" + "." * (n * n) + "\n"):
                    yield n, m, comment + "\n".join([f"{n} {m}", *lines]) + "\n"


def test_both_sides_of_the_matrix_rule_agree_with_the_line_loop():
    """The byte matrix and the bit rows give the same graph, and a text
    either declines goes to the line loop, whose error names the same line
    and column as when the line loop reads it alone."""
    rng = random.Random(8808)
    sides = {False: 0, True: 0}
    errors = 0
    for n, m, text in rule_cases(rng):
        sides[n * n <= 8 * m <= 2 * len(text)] += 1
        try:
            expected = parsing._read_lines(text)
        except ParseError as exc:
            errors += 1
            with pytest.raises(ParseError) as info:
                read_edge_list(text)
            assert (str(info.value), info.value.line, info.value.col) == (str(exc), exc.line, exc.col)
        else:
            assert read_edge_list(text) == parsing._read_plain(text) == expected
    assert min(sides.values()) > 1000 and errors > 2000, (sides, errors)


def test_plain_route_peak_is_a_small_multiple_of_the_text():
    """On a dense file the reader holds one chunk's tokens and the n * n
    byte matrix, never a token list of the whole text; a long comment does
    not make a sparse file's reader build the matrix."""
    # three disjoint cliques on 1000 vertices: 166,167 edges, 1.3 MB of text
    dense = cotree_to_graph(parse_expr("+".join("(" + "*".join("." * k) + ")" for k in (334, 333, 333))))
    # a perfect matching on 2000 vertices after a comment of 2000 * 2000 / 8
    # characters, with which the text would hold the n x n matrix 8 times
    sparse = cotree_to_graph(parse_expr("+".join(["(.*.)"] * 1000)))
    for g, comment, matrix in ((dense, "# dense", True), (sparse, "#" + "." * 500_000, False)):
        edges = edge_lines(g, random.Random(32))
        text = "\n".join([comment, f"{g.n} {len(edges)}", *edges]) + "\n"
        assert (g.n * g.n <= 8 * len(edges)) == matrix
        tracemalloc.start()
        try:
            read = read_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == g
        assert peak < 4 * len(text), (g.n, peak, len(text))


def test_more_lines_than_the_header_says_declines_before_mapping(monkeypatch):
    """The plain route declines in the chunk where the edge lines pass the
    header's m, before it maps that chunk's endpoints, on the bit rows and
    on the byte matrix alike; the line loop then raises the count error."""
    mapped = []

    class Spy(dict):
        def __getitem__(self, token):
            mapped.append(token)
            return super().__getitem__(token)

    class Ids(Spy, parsing._VertexIds):
        pass

    id_tables = parsing._id_tables
    monkeypatch.setattr(parsing, "_VertexIds", Ids)
    monkeypatch.setattr(parsing, "_id_tables", lambda n: tuple(map(Spy, id_tables(n))))
    monkeypatch.setattr(parsing, "_CHUNK", 8)
    for n, matrix in ((9, False), (4, True)):
        # chunks: "n 3\n1 2\n2 3\n", then "3 4\n1 3\n1 3\n", the fourth edge line
        text = f"{n} 3\n1 2\n2 3\n3 4\n" + "1 3\n" * 1000
        assert (n * n <= 8 * 3) == matrix
        mapped.clear()
        assert parsing._read_plain(text) is None
        assert mapped == ["1", "2", "2", "3"], n
        with pytest.raises(ParseError, match="expected 3 edge lines, found 1003"):
            read_edge_list(text)


def test_a_header_the_text_cannot_hold_gets_no_matrix():
    """A 16-character text whose header claims n * n / 8 edges on 3000
    vertices declines without allocating the 9 MB matrix."""
    text = "3000 1125000\n1 2"
    tracemalloc.start()
    try:
        assert parsing._read_plain(text) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_matrix_route_declines_loops_and_duplicates_in_either_order():
    """On the byte matrix each edge line sets one cell; a repeated pair,
    reversed or not, and a self-loop leave the rows' popcount sum below 2m,
    so the line loop reads the text and raises its error."""
    k4 = ["1 2", "1 3", "1 4", "2 3", "2 4", "3 4"]
    cases = [  # (edge lines, the line loop's error)
        (k4 + ["2 1"], "duplicate edge 1 2 (line 8, column 1)"),
        (["2 1"] + k4, "duplicate edge 1 2 (line 3, column 1)"),
        (k4[:3] + ["4 3"] + k4[3:], "duplicate edge 3 4 (line 8, column 1)"),
        (k4[:3] + ["1 2"] + k4[3:], "duplicate edge 1 2 (line 5, column 1)"),
        (k4 + ["3 4"], "duplicate edge 3 4 (line 8, column 1)"),
        (k4[:3] + ["3 3"] + k4[3:], "self-loop at vertex 3 (line 5, column 1)"),
        (["1 1"] + k4, "self-loop at vertex 1 (line 2, column 1)"),
    ]
    for lines, message in cases:
        text = "\n".join(["4 7", *lines]) + "\n"
        assert 4 * 4 <= 8 * 7 <= 2 * len(text)  # the matrix route
        assert parsing._read_plain(text) is None
        with pytest.raises(ParseError) as info:
            read_edge_list(text)
        assert str(info.value) == message
    text = "\n".join(["4 6", *k4[::-1]]) + "\n"
    assert 4 * 4 <= 8 * 6 <= 2 * len(text)
    assert parsing._read_plain(text) == from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
